"""Run the benchmark over many seeds and summarise it.

    python3 bench/baseline.py --seeds 1-10 --traced-seeds 1-2 --out bench/baseline.json

For every workload and seed it runs `bench/run.py` once untraced, and once
traced for each traced seed.  Each end-to-end metric gets its median,
quartiles (statistics.quantiles, n=4) and spread, the distance between the
quartiles as a share of the median, checked against the metric's bound in
BENCHMARK.json.  Per-layer metrics get the median over the traced runs.
The summary records the command that made it and the git commit measured.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import QUALITY
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    """(result JSON, outcome rows, machine facts) of one run.py run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stdout}\n{proc.stderr}")
    outcomes, machine = {}, None
    names = {name for name, _ in QUALITY}
    for line in lines[:-1]:
        fields = line.split(None, 3)
        if fields and fields[0] in names:
            outcomes[fields[0]] = json.loads(fields[1])
        elif line.startswith("machine "):
            machine = json.loads(line[len("machine "):])
    return json.loads(lines[-1]), outcomes, machine


def summary(values, bound=None):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    entry = {"median": median, "q1": q1, "q3": q3,
             "spread": (q3 - q1) / median if median else 0.0, "values": values}
    if bound is not None:
        entry["bound"] = bound
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--traced-seeds", type=seed_range, default=[])
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or None
    command = " ".join(["python3", "bench/baseline.py"] + (sys.argv[1:] if argv is None else argv))
    result = {"measured_commit": commit, "command": command,
              "run_seconds": spec["run_seconds"], "seeds": args.seeds,
              "traced_seeds": args.traced_seeds, "workloads": {}}
    steady = True
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, spec["run_seconds"], 0) for seed in args.seeds]
        result["machine"] = runs[-1][2]
        e2e = {}
        for name, bound in bounds.items():
            entry = summary([r[0]["metrics"][name]["value"] for r in runs], bound)
            entry["unit"] = units[name]
            e2e[name] = entry
            ok = entry["spread"] <= bound
            steady &= ok
            print(f"{workload:14s} {name:14s} median {entry['median']:.4f} {units[name]:4s}"
                  f" spread {entry['spread']:.3f} bound {bound} {'ok' if ok else 'TOO WIDE'}",
                  flush=True)
        outcomes = {name: [r[1][name] for r in runs] for name, _ in QUALITY}
        layers = {}
        traced = [run_once(workload, seed, spec["run_seconds"], 1)[0]
                  for seed in args.traced_seeds]
        for name in (traced[0]["metrics"] if traced else ()):
            layers[name] = summary([t["metrics"][name]["value"] for t in traced])
            layers[name]["unit"] = units[name]
        result["workloads"][workload] = {
            "end_to_end": e2e, "outcomes": outcomes, "per_layer": layers,
            "attempted": sum(r[0]["attempted"] for r in runs),
            "failed": sum(r[0]["failed"] for r in runs)}
        print(f"{workload:14s} outcomes {json.dumps(outcomes)}", flush=True)
        if args.out:
            Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
