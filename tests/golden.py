"""Digests of the outputs of 77 fixed runs, and the script that rewrites them.

The runs are the 5 built-in scenarios and the 24 configs of the
benchmark's packet-sweep workload for seeds 1, 2 and 3 (read from
bench/workloads.py, which is only imported).  Each run writes report.json,
trajectory.csv and its wigner_t*.dat files as `wavepacket run` does.

tests/golden_outputs.json holds, per file, the sha256 of its bytes, and a
fingerprint for machines whose arithmetic may differ: the sha256 of the
text with every number replaced by '#', the count of numbers, and a few
exactly summed weighted sums of them with their weighted magnitudes.  It
also holds the facts of the machine that wrote it (numpy version and CPU
model).  tests/test_golden_outputs.py compares bytes where those facts
match the running machine, and the fingerprint at FALLBACK_RTOL otherwise.

    PYTHONPATH=src python tests/golden.py [--against REV]

rewrites the manifest and names every file whose bytes moved or whose
path is new.  With --against, it also writes the outputs of git revision
REV and prints, for each such file, the largest change: per column of
trajectory.csv, per key of report.json and per .dat file.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from wavepacket import cli

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden_outputs.json"
SWEEP_SEEDS = (1, 2, 3)
FALLBACK_RTOL = 1e-12

# a decimal literal; the digits inside names such as wigner_t0 count too,
# the same way on both sides of a comparison
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
# coprime multipliers of the integer weight sequences of the fingerprint
WEIGHTS = (389, 701, 1181, 1753)
WEIGHT_MODULUS = 2003


def _sweep_workload():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs():
    """(directory, name, config) of every golden run; the config of a
    built-in is None."""
    for name in sorted(cli.BUILTIN_SCENARIOS):
        yield name, name, None
    workloads = _sweep_workload()
    for seed in SWEEP_SEEDS:
        for name, data in workloads.packet_sweep(seed):
            yield f"sweep-{seed}/{name}", name, data


def write_outputs(root):
    """Run every golden run into root/<directory> through cli.main, a
    packet-sweep config from a JSON file of its name; the printed paths,
    relative to root, in posix form.  Every revision's cli.main runs the
    same way, so --against compares what `wavepacket run` wrote."""
    root = Path(root)
    written = []
    with tempfile.TemporaryDirectory() as configs:
        for directory, name, data in runs():
            source = name
            if data is not None:
                source = str(Path(configs) / f"{name}.json")
                Path(source).write_text(json.dumps(data))
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = cli.main(["run", source, "--output-dir", str(root / directory)])
            if code != 0:
                raise RuntimeError(f"{directory}: exit {code}")
            *paths, _ = printed.getvalue().splitlines()   # the last line is "pass: ..."
            written += [Path(path).relative_to(root).as_posix() for path in paths]
    return sorted(written)


def machine_facts():
    """numpy version and CPU model: what output bytes may depend on.  No
    output passes through BLAS, so the BLAS build is not among them."""
    model = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        model = next((line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")), model)
    return {"numpy": np.__version__, "cpu_model": model}


def numbers(data):
    """The finite numbers of a file's bytes, in order, as float64."""
    values = np.array([float(m) for m in NUMBER.findall(data)], dtype=float)
    return values[np.isfinite(values)]


def fingerprint(data):
    """The manifest entry of one file's bytes."""
    values = numbers(data)
    index = np.arange(1, len(values) + 1)
    sums, scales = [], []
    for multiplier in WEIGHTS:
        weights = (index * multiplier) % WEIGHT_MODULUS - WEIGHT_MODULUS // 2
        sums.append(math.fsum(weights * values))
        scales.append(math.fsum(np.abs(weights * values)))
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "structure": hashlib.sha256(NUMBER.sub(b"#", data)).hexdigest(),
        "count": len(values),
        "sums": sums,
        "scales": scales,
    }


def fingerprint_differences(got, want, rtol=FALLBACK_RTOL):
    """What differs between two entries beyond rtol; empty if nothing."""
    problems = []
    if got["structure"] != want["structure"] or got["count"] != want["count"]:
        problems.append("text or count of numbers differs")
    else:
        for k, (s, w, scale) in enumerate(zip(got["sums"], want["sums"], want["scales"])):
            if abs(s - w) > rtol * scale:
                problems.append(f"weighted sum {k} moved by {abs(s - w) / scale:.3g} "
                                f"of its magnitude")
    return problems


def build_manifest(root, paths):
    return {
        "machine": machine_facts(),
        "files": {path: fingerprint((Path(root) / path).read_bytes()) for path in paths},
    }


# ---------------------------------------------------------------------------
# Largest changes against the outputs of another revision
# ---------------------------------------------------------------------------

def _flatten(node, prefix=""):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _flatten(value, f"{prefix}.{key}" if prefix else key)
    elif isinstance(node, list) and not (node and isinstance(node[0], dict)
                                         and "t" in node[0]):
        for i, value in enumerate(node):
            yield from _flatten(value, f"{prefix}[{i}]")
    elif isinstance(node, list):
        for record in node:   # per-sample records: one entry per field
            for key, value in record.items():
                yield f"{prefix}[*].{key}", value
    else:
        yield prefix, node


def _relative(new, old):
    if new == old:
        return 0.0
    return abs(new - old) / max(abs(new), abs(old))


def _changes_by_key(new_items, old_items):
    new, old = {}, {}
    for items, into in ((new_items, new), (old_items, old)):
        for key, value in items:
            into.setdefault(key, []).append(value)
    lines = [f"  only new: {key}" for key in new if key not in old]
    lines += [f"  only old: {key}" for key in old if key not in new]
    for key in new:
        if key not in old:
            continue
        pairs = list(zip(new[key], old[key]))
        numeric = [(a, b) for a, b in pairs if isinstance(a, float) and isinstance(b, float)]
        if len(numeric) == len(pairs) == len(old[key]) == len(new[key]) > 1:
            worst = max(_relative(a, b) for a, b in numeric)
            if worst:
                lines.append(f"  {key}: largest relative change {worst:.3g}")
        elif new[key] != old[key]:
            lines.append(f"  {key}: {old[key]!r} -> {new[key]!r}")
    return lines


def describe_change(path, new_bytes, old_bytes):
    """Lines naming the largest change of one moved file."""
    if path.endswith("report.json"):
        return _changes_by_key(_flatten(json.loads(new_bytes)),
                               _flatten(json.loads(old_bytes)))
    if path.endswith(".csv"):
        def columns(data):
            header, *rows = data.decode().splitlines()
            for row in rows:
                yield from zip(header.split(","), map(float, row.split(",")))
        return _changes_by_key(columns(new_bytes), columns(old_bytes))
    def samples(data):   # the values of a .dat file, its '#' header left out
        return numbers(b"\n".join(line for line in data.splitlines()
                                   if not line.startswith(b"#")))
    new, old = samples(new_bytes), samples(old_bytes)
    if len(new) != len(old):
        return [f"  {len(old)} numbers -> {len(new)}"]
    return [f"  largest change {np.max(np.abs(new - old)) / np.max(np.abs(old)):.3g} "
            "of max|value|"]


def outputs_of_revision(rev, root):
    """Write the golden outputs of git revision `rev`'s src/ into root."""
    with tempfile.TemporaryDirectory() as tree:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"))
        subprocess.run([sys.executable, __file__, "--outputs", str(root)],
                       env=env, check=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="git revision whose outputs the moved files are compared to")
    parser.add_argument("--outputs", metavar="DIR",
                        help="only write the golden outputs into DIR")
    args = parser.parse_args(argv)
    if args.outputs:
        write_outputs(args.outputs)
        return 0

    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {"files": {}}
    with tempfile.TemporaryDirectory() as tmp:
        new_root = Path(tmp) / "new"
        manifest = build_manifest(new_root, write_outputs(new_root))
        MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        moved = sorted(path for path, entry in manifest["files"].items()
                       if old["files"].get(path, {}).get("sha256") != entry["sha256"])
        gone = sorted(set(old["files"]) - set(manifest["files"]))
        print(f"{MANIFEST.name}: {len(manifest['files'])} files, {len(moved)} moved "
              f"or new, {len(gone)} gone")
        for path in gone:
            print(f"gone: {path}")
        old_root = Path(tmp) / "old"   # empty without --against
        if args.against:
            outputs_of_revision(args.against, old_root)
        for path in moved:
            new_bytes = (new_root / path).read_bytes()
            old_bytes = (old_root / path).read_bytes() if (old_root / path).exists() else None
            label = "moved" if path in old["files"] else "new"
            if old_bytes == new_bytes:
                print(f"{label}: {path}, bytes as at {args.against}")
                continue
            print(f"{label}: {path}")
            if old_bytes is not None:
                for line in describe_change(path, new_bytes, old_bytes):
                    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
