"""One fresh interpreter running one workload; started by run.py.

    python3 bench/worker.py MODE --jobs JOBS.json --out DIR --seconds S

Modes:
    setup  import the package, load every config, exit
    run    setup, one first pass, then warm passes for S seconds (none for 0)
    trace  as run, then traced passes for another S seconds
    probe  setup, then one traced pass over the configs up to the first
           one with the wigner task (Wigner first-call probe)

Every config goes through `cli.main(["run", <config>, "--output-dir", ...])`.
stdout carries the line "ready" once setup is done, then one JSON object
with the results.  Each config run is checked: exit code 0, outputs that
match the closed form where one exists, and report.json/trajectory.csv
bytes identical to the first pass.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer, pass_metrics

ROOT = Path(__file__).resolve().parent.parent


def closed_form(config, t):
    """(eta, alpha) at t for free motion and constant frequency, else None."""
    law = config["system"]
    mass = config.get("constants", {}).get("mass", 1.0)
    packet = config["packet"]
    a0, x0, v0 = packet["alpha0"], packet["x0"], packet["p0"] / mass
    omega = law.get("omega", 0.0) if law["type"] in ("free", "constant") else None
    if omega is None:
        return None
    if omega == 0.0:
        return x0 + v0 * t, math.hypot(a0, t / a0)
    c, s = math.cos(omega * t), math.sin(omega * t)
    return x0 * c + v0 * s / omega, math.hypot(a0 * c, s / (a0 * omega))


def check_outputs(config, report, csv_bytes):
    """A description of what is wrong with one config's outputs, or None."""
    time_cfg = config["time"]
    expected = round(time_cfg["t_end"] / (time_cfg["dt"] * time_cfg.get("sample_every", 1))) + 1
    samples = report.get("samples", [])
    if len(samples) != expected:
        return f"{len(samples)} samples, expected {expected}"
    for task in config["tasks"]:
        if task != "evolve" and task not in report:
            return f"report lacks the '{task}' section"
    if "evolve" in config["tasks"]:
        rows = csv_bytes.count(b"\n") - 1 if csv_bytes is not None else -1
        if rows != expected:
            return f"trajectory.csv has {rows} rows, expected {expected}"
    ref = closed_form(config, samples[-1]["t"])
    if ref is not None:
        for key, want in zip(("eta", "alpha"), ref):
            got = samples[-1][key]
            if abs(got - want) > 1e-7 * max(1.0, abs(want)):
                return f"{key}(t_end) = {got!r}, closed form gives {want!r}"
    return None


def report_checks(report):
    for section in ("invariants", "kernel_check", "oracle_compare"):
        yield from report.get(section, {}).get("checks", {}).items()


def machine_facts():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    model = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        model = next((line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")), model)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cgroup_cpu_limit": _cgroup_cpu_limit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
    }


def _cgroup_cpu_limit():
    """CPUs allowed by the cgroup quota, "max" when unlimited."""
    with contextlib.suppress(OSError, ValueError):
        quota, period = Path("/sys/fs/cgroup/cpu.max").read_text().split()
        return "max" if quota == "max" else int(quota) / int(period)
    with contextlib.suppress(OSError, ValueError):
        quota = int(Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").read_text())
        period = int(Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us").read_text())
        return "max" if quota < 0 else quota / period
    return "unknown"


class Runner:
    """Runs passes over the jobs and checks every config run."""

    def __init__(self, cli, jobs, out_dir):
        self.cli = cli
        self.jobs = jobs
        self.out_dir = Path(out_dir)
        self.tracer = None
        self.attempted = self.failed = 0
        self.problems = []
        self.digests = {}
        self.failing_checks = 0
        self.failing_names = {}
        self.worst = (0.0, "")

    def run_pass(self):
        """Wall time of one pass; every config run is checked after it."""
        codes = []
        start = time.perf_counter()
        for i, job in enumerate(self.jobs):
            argv = ["run", job["source"], "--output-dir", str(self.out_dir / job["name"])]
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    if self.tracer is None:
                        code = self.cli.main(argv)
                    else:
                        self.tracer.config = i
                        code = self.tracer.call("cli.main", self.cli.main, argv)
            except Exception as exc:  # a raise is a failed config run, not a crash
                code = f"{type(exc).__name__}: {exc}"
            codes.append(code)
        wall = time.perf_counter() - start
        first = self.attempted == 0
        for job, code in zip(self.jobs, codes):
            self._check(job, code, first)
        return wall

    def _check(self, job, code, first):
        self.attempted += 1
        out = self.out_dir / job["name"]
        problem = None
        if code != 0:
            problem = f"exit {code}"
        else:
            report_path, csv_path = out / "report.json", out / "trajectory.csv"
            report_bytes = report_path.read_bytes()
            csv_bytes = csv_path.read_bytes() if csv_path.exists() else None
            digest = hashlib.sha256(report_bytes + b"\0" + (csv_bytes or b"")).hexdigest()
            report_path.unlink()
            if csv_bytes is not None:
                csv_path.unlink()
            if first:
                self.digests[job["name"]] = digest
                report = json.loads(report_bytes)
                problem = check_outputs(job["config"], report, csv_bytes)
                self._record_checks(job["name"], report)
            elif digest != self.digests.get(job["name"]):
                problem = "report.json/trajectory.csv differ from the first pass"
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{job['name']}: {problem}")

    def _record_checks(self, config_name, report):
        for name, entry in report_checks(report):
            if not entry["pass"]:
                self.failing_checks += 1
                self.failing_names[name] = self.failing_names.get(name, 0) + 1
            ratio = entry["value"] / entry["tolerance"]
            if ratio > self.worst[0]:
                self.worst = (ratio, f"{name} in {config_name}")

    def passes_for(self, seconds):
        """Wall times of passes run within `seconds`: none for 0, else at
        least one, and no further pass once the last one would not fit."""
        walls = []
        start = time.perf_counter()
        while seconds > 0 and (not walls or time.perf_counter() - start + walls[-1] <= seconds):
            walls.append(self.run_pass())
        return walls

    def result(self):
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems[:10],
            "failing_checks": self.failing_checks,
            "failing_names": self.failing_names,
            "worst_check_ratio": self.worst[0],
            "worst_check": self.worst[1],
            "digests": self.digests,
        }


def wigner_calls(spans):
    return [end - start for name, start, end, *_ in spans if name == "wigner.wigner_numeric"]


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "trace", "probe"))
    parser.add_argument("--jobs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from wavepacket import cli

    jobs = json.loads(Path(args.jobs).read_text())
    for job in jobs:
        cli.load_config(job["source"])
        if job["config"] is None:
            job["config"] = cli.BUILTIN_SCENARIOS[job["source"]]
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    runner = Runner(cli, jobs, args.out)
    result = {}
    if args.mode == "probe":
        first = next(i for i, job in enumerate(jobs) if "wigner" in job["config"]["tasks"])
        runner.jobs = jobs[:first + 1]
        runner.tracer = Tracer()
        runner.tracer.install(cli)
        spans = runner.tracer.new_pass()
        runner.run_pass()
        calls = wigner_calls(spans)
        result["wigner_first_call_s"] = calls[0] if calls else 0.0
        result["wigner_later_call_s"] = statistics.median(calls[1:]) if calls[1:] else 0.0
    else:
        result["first_pass_s"] = runner.run_pass()
        result["passes"] = runner.passes_for(args.seconds)
    if args.mode == "trace":
        tracer = runner.tracer = Tracer()
        tracer.install(cli)
        per_pass = []
        start = time.perf_counter()
        while not per_pass or time.perf_counter() - start < args.seconds:
            spans = tracer.new_pass()
            wall = runner.run_pass()
            per_pass.append(pass_metrics(spans, wall) | {"trace.pass_s": wall})
        result["layers"] = {key: statistics.median(p[key] for p in per_pass)
                            for key in per_pass[0]}
        if args.spans:
            tracer.write(args.spans)

    result.update(runner.result())
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["machine"] = machine_facts()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
