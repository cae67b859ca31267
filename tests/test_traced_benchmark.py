"""The traced benchmark stays runnable against the package.

`bench/spans.py` counts work from the arguments of the functions it wraps
(`split_step`'s `state`, `solve_lambda`'s `t_grid`, ...), so a signature
change there breaks the traced benchmark without failing anything in the
package.  This runs one traced pass of free-spread through
`bench/worker.py` and reads its counters; it edits nothing under `bench/`.
"""

import json
import subprocess
import sys
from pathlib import Path

WORKER = Path(__file__).resolve().parent.parent / "bench" / "worker.py"


def test_traced_free_spread_pass_counts_every_layer(tmp_path):
    jobs = tmp_path / "jobs.json"
    jobs.write_text(json.dumps(
        [{"name": "free-spread", "source": "free-spread", "config": None}]))
    result = subprocess.run(
        [sys.executable, str(WORKER), "trace", "--jobs", str(jobs),
         "--out", str(tmp_path / "out"), "--seconds", "0"],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout.splitlines()[-1])
    assert out["failed"] == 0, out["problems"]
    layers = out["layers"]
    for key in ("oracle.split_step.steps", "wigner.wigner_numeric.cells",
                "kernels.apply_kernel.busy_s", "evolution.solve_lambda.calls"):
        assert layers[key] > 0, key
