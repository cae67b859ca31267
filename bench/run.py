"""Benchmark of the wavepacket scenario runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of builtin-suite, packet-sweep, or `all` to run the two in
turn.  One client runs the workload's configs one after another
(closed loop), each through `cli.main(["run", <config>, "--output-dir", ..])`
in a fresh worker interpreter.  With --trace 0 the run measures the
end-to-end metrics; with --trace 1 a separate traced run splits the pass
time across the package's layers.  Every line but the last is for people;
the last line is one JSON object with the keys correct, attempted, failed
and metrics.  The exit code is non-zero when any config run failed.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from spans import LAYERS
from workloads import WORKLOADS, workload_configs

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"

MIN_FRESH = 3             # fewest fresh interpreters that run a first pass and warm passes
WARM_SHARE = 6            # each fresh interpreter runs warm passes for seconds / WARM_SHARE
IMPORTTIME_PROBES = 3
FIRST_CALL_PROBES = 3     # per environment: default, and OPENBLAS_NUM_THREADS=1
DEADLINE_S = 170.0        # a run must end within 180 s

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("pass_tail_s", "s"),
              ("first_pass_s", "s"), ("peak_rss_mib", "MiB"))
# printed with every run; not bounded metrics because they are 0 on a
# healthy workload or depend on which configs the seed draws
QUALITY = (("worst_check_ratio", "1"), ("failing_checks", "count"), ("fail_ratio", "1"))

PER_LAYER = (
    ("oracle.split_step.busy_s", "s"), ("oracle.split_step.steps", "count"),
    ("oracle.point_steps", "count"), ("oracle.ns_per_point_step", "ns"),
    ("oracle.compare_states.busy_s", "s"),
    ("evolution.solve_lambda.calls", "count"), ("evolution.solve_lambda.busy_s", "s"),
    ("evolution.rk4_steps", "count"), ("evolution.us_per_rk4_step", "us"),
    ("kernels.apply_kernel.busy_s", "s"), ("kernels.apply_kernel.matrix_bytes", "bytes"),
    ("kernels.satisfies_kernel_odes.busy_s", "s"),
    ("wigner.wigner_numeric.busy_s", "s"), ("wigner.wigner_numeric.cells", "count"),
    ("wigner.wigner_numeric.first_call_s", "s"),
    ("wigner.wigner_numeric.first_call_max_s", "s"),
    ("wigner.wigner_numeric.later_call_s", "s"),
    ("blas1.wigner_first_call_s", "s"), ("blas1.wigner_first_call_max_s", "s"),
    ("trace.first_pass_s", "s"), ("blas1.first_pass_s", "s"), ("blas1.pass_s", "s"),
    ("cli.emit_outputs.busy_s", "s"), ("cli.emit_outputs.bytes", "bytes"),
    ("cli.load_config.busy_s", "s"), ("cli.run_scenario.self_s", "s"),
    ("cli.self_s", "s"), ("evolution.busy_s", "s"),
    ("invariants.busy_s", "s"), ("invariants.calls", "count"),
    ("packet.busy_s", "s"), ("packet.calls", "count"),
    ("kernels.busy_s", "s"), ("wigner.busy_s", "s"), ("oracle.busy_s", "s"),
) + tuple((f"{layer}.share", "1") for layer in LAYERS) + (
    ("setup.import_s", "s"), ("setup.scipy_import_s", "s"), ("setup.numpy_import_s", "s"),
    ("trace.pass_s", "s"), ("trace.untraced_pass_s", "s"),
    ("trace.overhead_s", "s"), ("trace.unattributed_s", "s"),
)


class BenchError(Exception):
    pass


def tail(samples, beyond=10):
    """(value, percentile, n): the highest whole percentile with at least
    `beyond` samples above it, taken by nearest rank.  With fewer than
    2*beyond samples no percentile qualifies, so the upper median (p50, the
    slower of two) is reported, never below statistics.median, and the
    sample count says why.
    """
    ordered = sorted(samples)
    n = len(ordered)
    q = max(50, math.floor(100 * (n - beyond) / n))
    rank = math.ceil(q * n / 100) - 1
    if n < 2 * beyond:
        rank = n // 2
    return ordered[rank], q, n


def import_times(lines):
    """(wavepacket cumulative, numpy self, scipy self) seconds from `-X importtime` lines."""
    own = {}
    total = 0.0
    for line in lines:
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].strip()
        package = name.split(".", 1)[0]
        own[package] = own.get(package, 0) + int(fields[0])
        if name == "wavepacket":
            total = int(fields[1]) / 1e6
    return total, own.get("numpy", 0) / 1e6, own.get("scipy", 0) / 1e6


class Session:
    """The worker processes of one workload run, all inside `workdir`."""

    def __init__(self, workload, seed, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline
        self.jobs_file = workdir / "jobs.json"
        configs_dir = workdir / "configs"
        configs_dir.mkdir(parents=True)
        jobs = []
        self.has_wigner = False
        for name, config in workload_configs(workload, seed):
            source = name
            if config is not None:
                source = str(configs_dir / f"{name}.json")
                Path(source).write_text(json.dumps(config, indent=2))
            jobs.append({"name": name, "source": source, "config": config})
            # a shipped scenario's tasks are only known to the package; the
            # built-in suite includes free-spread, which has the wigner task
            self.has_wigner |= config is None or "wigner" in config["tasks"]
        self.jobs_file.write_text(json.dumps(jobs))
        self.count = 0

    def worker(self, mode, seconds=0.0, env=None, importtime=False, spans=None):
        """(seconds from spawn to ready, result dict or None, stderr path)."""
        self.count += 1
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
            str(WORKER), mode, "--jobs", str(self.jobs_file),
            "--out", str(self.workdir / "out"), "--seconds", repr(seconds)]
        if spans:
            cmd += ["--spans", str(spans)]
        err_path = self.workdir / f"stderr-{self.count}.txt"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a worker")
        with open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                                    env=env, cwd=ROOT)
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            try:
                ready = proc.stdout.readline()
                ready_s = time.perf_counter() - start
                out = proc.stdout.read()
                code = proc.wait()
            finally:
                watchdog.cancel()
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
                proc.stdout.close()
        if ready.strip() != "ready" or code != 0:
            detail = err_path.read_text()[-2000:]
            raise BenchError(f"worker {mode} exited {code}: {detail}")
        lines = out.strip().splitlines()
        return ready_s, (json.loads(lines[-1]) if lines else None), err_path


def end_to_end(session, seconds):
    """(metrics, notes, every worker result, results whose outputs must agree).

    Fresh interpreters are started one after another until `seconds` have
    gone, and at least MIN_FRESH of them.  Each runs its first pass and then
    warm passes for seconds / WARM_SHARE, so the first-pass and warm samples
    are spread over the whole run rather than taken in one stretch.
    """
    setups, fresh = [], []
    start = time.perf_counter()
    while len(fresh) < MIN_FRESH or time.perf_counter() - start < seconds:
        ready_s, res, _ = session.worker("run", seconds / WARM_SHARE)
        setups.append(ready_s)
        fresh.append(res)
    firsts = [r["first_pass_s"] for r in fresh]
    passes = [p for r in fresh for p in r["passes"]]
    value, q, n = tail(passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(passes),
        "pass_tail_s": value,
        "first_pass_s": statistics.median(firsts),
        "peak_rss_mib": max(r["peak_rss_mib"] for r in fresh),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "pass_s": f"median of {len(passes)} warm passes in {len(fresh)} interpreters "
                  + json.dumps([round(p, 4) for p in passes]),
        "pass_tail_s": f"p{q} of {n} warm passes",
        "first_pass_s": f"median over {len(firsts)} fresh interpreters "
                        + json.dumps([round(f, 4) for f in firsts]),
        "peak_rss_mib": "largest peak resident memory of the workers",
    }
    return metrics, notes, fresh, fresh


def traced(session, workload, seed, seconds):
    """As end_to_end, for the per-layer metrics."""
    setup = [import_times(session.worker("setup", importtime=True)[2].read_text().splitlines())
             for _ in range(IMPORTTIME_PROBES)]
    spans_dir = ROOT / ".bench_out"
    spans_dir.mkdir(exist_ok=True)
    spans = spans_dir / f"spans-{workload}-seed{seed}.tsv"
    _, res, _ = session.worker("trace", seconds / 2, spans=spans)
    metrics = dict(res["layers"])
    metrics["setup.import_s"], metrics["setup.numpy_import_s"], metrics["setup.scipy_import_s"] = (
        statistics.median(col) for col in zip(*setup))
    metrics["trace.first_pass_s"] = res["first_pass_s"]
    metrics["trace.untraced_pass_s"] = statistics.median(res["passes"])
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - metrics["trace.untraced_pass_s"]

    probes = {"default": [], "blas1": []}
    blas1_env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    if session.has_wigner:
        for _ in range(FIRST_CALL_PROBES):
            probes["default"].append(session.worker("probe")[1])
            probes["blas1"].append(session.worker("probe", env=blas1_env)[1])
    for kind, runs in probes.items():
        firsts = [r["wigner_first_call_s"] for r in runs] or [0.0]
        prefix = "wigner.wigner_numeric." if kind == "default" else "blas1.wigner_"
        metrics[f"{prefix}first_call_s"] = statistics.median(firsts)
        metrics[f"{prefix}first_call_max_s"] = max(firsts)
    metrics["wigner.wigner_numeric.later_call_s"] = statistics.median(
        [r["wigner_later_call_s"] for r in probes["default"]] or [0.0])
    runs = [res] + probes["default"] + probes["blas1"]
    metrics["blas1.first_pass_s"] = metrics["blas1.pass_s"] = 0.0
    if session.has_wigner:
        blas1 = session.worker("run", 1e-9, env=blas1_env)[1]   # one warm pass
        metrics["blas1.first_pass_s"] = blas1["first_pass_s"]
        metrics["blas1.pass_s"] = statistics.median(blas1["passes"])
        runs.append(blas1)
    # outputs under OPENBLAS_NUM_THREADS=1 may round differently, so only
    # same-environment workers must agree byte for byte
    return metrics, {}, runs, [res] + probes["default"]


def run_workload(workload, seed, seconds, trace):
    """What end_to_end or traced returns, for one workload."""
    workdir = ROOT / ".bench_work" / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        session = Session(workload, seed, workdir, time.monotonic() + DEADLINE_S)
        if trace:
            return traced(session, workload, seed, seconds)
        return end_to_end(session, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def quality(runs, compared):
    """(outcome metrics, attempted, failed, problems) over every worker.

    Besides each worker's own checks, a config whose outputs differ between
    two workers in `compared` counts as one more failed run.
    """
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    reference = compared[0]["digests"]
    for other in compared[1:]:
        for name, digest in other["digests"].items():
            if reference.get(name, digest) != digest:
                failed += 1
                problems.append(f"{name}: outputs differ between fresh interpreters")
    outcome = {
        "worst_check_ratio": runs[0]["worst_check_ratio"],
        "failing_checks": runs[0]["failing_checks"],
        "fail_ratio": failed / attempted,
    }
    return outcome, attempted, failed, problems


def report(workload, seed, trace, metrics, notes, runs, compared):
    """Print one workload's block; return its (result metrics, attempted, failed)."""
    outcome, attempted, failed, problems = quality(runs, compared)
    notes = dict(notes,
                 worst_check_ratio=runs[0]["worst_check"],
                 failing_checks="failing report checks per pass "
                                + json.dumps(runs[0]["failing_names"]),
                 fail_ratio=f"{failed} of {attempted} config runs failed")
    print(f"== {workload}  seed {seed}  {'traced per-layer' if trace else 'end to end'} ==")
    metrics = dict(metrics, **outcome)
    bounded = PER_LAYER if trace else END_TO_END
    for name, unit in bounded + QUALITY:
        print(f"{name:40s} {metrics[name]!r:>24} {unit:6s} {notes.get(name, '')}")
    for problem in problems:
        print(f"FAILED {problem}")
    print("machine " + json.dumps(runs[0]["machine"]))
    return ({name: {"value": metrics[name], "unit": unit} for name, unit in bounded},
            attempted, failed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time per run: fresh interpreters run passes until it has gone "
                             "(with --trace 1, untraced and traced warm passes take half each)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    if not (ROOT / "src" / "wavepacket" / "cli.py").is_file():
        print(f"error: no wavepacket sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        for workload in workloads:
            m, a, f = report(workload, args.seed, args.trace,
                             *run_workload(workload, args.seed, args.seconds, args.trace))
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
