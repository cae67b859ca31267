"""Every valid config gives a report or a documented numerical exit.

Configs are drawn over all five law types, grids of 64-256 points that may
be too coarse for the packet or cut into it, short runs with dt from 1e-4
and 1-100 steps per sample, and the invariants task with any subset of the
others, so that the Euler-Lagrange residuals read the run's own steps.  An
example must write report.json (exit 0), or stop with exit 3 (divergence)
or 4 (capability) and that class's message.  A config error
(exit 2) of a config that parse_config accepted is an internal check
escaping as the user's fault, and an uncaught exception or numpy warning
(exit 1) is a crash; both fail.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from wavepacket.cli import TASKS, main, parse_config

from strategies import FINITE, law

MESSAGES = {3: "error: numerical divergence: ", 4: "error: capability: "}


@st.composite
def _configs(draw):
    dt = draw(st.one_of(st.sampled_from((1e-4, 1e-3)), st.floats(1e-4, 0.02, **FINITE)))
    sample_every = draw(st.integers(1, 100))
    # at most 800 steps: with dt = 1e-4 the residuals read every step of the
    # run, and from dt = 2.5e-3 on they may read a prefix of it
    t_end = draw(st.integers(1, max(1, 800 // sample_every))) * dt * sample_every
    half_width = draw(st.floats(1.0, 20.0, **FINITE))
    centre = draw(st.floats(-5.0, 5.0, **FINITE))
    return {
        "constants": {"hbar": draw(st.floats(0.3, 3.0, **FINITE)),
                      "mass": draw(st.floats(0.3, 3.0, **FINITE))},
        "system": law(draw, t_end),
        "packet": {"x0": draw(st.one_of(st.just(0.0), st.floats(-4.0, 4.0, **FINITE))),
                   "p0": draw(st.one_of(st.just(0.0), st.floats(-4.0, 4.0, **FINITE))),
                   "alpha0": draw(st.floats(0.3, 3.0, **FINITE))},
        "time": {"t_end": t_end, "dt": dt, "sample_every": sample_every},
        "grid": {"x_min": centre - half_width, "x_max": centre + half_width,
                 "n_points": draw(st.sampled_from((64, 128, 256)))},
        "phase_space_grid": {"nx": draw(st.integers(16, 48)),
                             "np": draw(st.integers(16, 48)),
                             "span_sigmas": draw(st.floats(2.0, 10.0, **FINITE))},
        "tasks": ["invariants"] + draw(st.lists(
            st.sampled_from([t for t in TASKS if t != "invariants"]), unique=True)),
    }


@settings(max_examples=100, deadline=None)
@given(data=_configs())
# the invariant summary's det_vs_ermakov_identity is not finite here, and
# only the invariants task reports it
@example(data={"system": {"type": "free"},
               "packet": {"x0": 0.0, "p0": 2.2250738585e-313, "alpha0": 1.0},
               "time": {"t_end": 0.01, "dt": 0.001, "sample_every": 10},
               "grid": {"x_min": -15.0, "x_max": 15.0, "n_points": 64},
               "tasks": ["evolve"]})
# step ends near t = 2 round to doubles 4.4e-16 apart, more than 1e-12 of
# a 1e-4 step: the residuals' uniform-spacing check must allow for that
@example(data={"system": {"type": "constant", "omega": 1.0},
               "packet": {"x0": 0.0, "p0": 1.0, "alpha0": 1.0},
               "time": {"t_end": 2.0, "dt": 0.0001, "sample_every": 10},
               "grid": {"x_min": -15.0, "x_max": 15.0, "n_points": 64},
               "tasks": ["evolve", "invariants"]})
# the table ends at t_end, and the last step ends at 0.007300000000000001,
# beyond it: the law is evaluated there, as at any other step end
@example(data={"system": {"type": "tabulated", "points": [[0.0, 1.0], [0.0073, 1.5]]},
               "packet": {"x0": 0.0, "p0": 1.0, "alpha0": 1.0},
               "time": {"t_end": 0.0073, "dt": 0.0001, "sample_every": 73},
               "grid": {"x_min": -15.0, "x_max": 15.0, "n_points": 64},
               "tasks": ["invariants", "wigner", "kernel_check"]})
def test_valid_config_reports_or_exits_documented(data):
    config = parse_config(data)
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(data))
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["run", str(cfg), "--output-dir", str(out)])
        message = stderr.getvalue()
        if code == 0:
            report = json.loads((out / "report.json").read_text())
            assert report["tasks"] == list(config.tasks)
            for task in ("wigner", "kernel_check", "oracle_compare"):
                assert (task in report) == (task in config.tasks)
            if "invariants" in config.tasks:
                checks = report["invariants"]["checks"]
                assert math.isfinite(checks["euler_lagrange_phi"]["value"])
                assert math.isfinite(checks["euler_lagrange_alpha"]["value"])
            assert message == ""
        else:
            assert code in MESSAGES, message
            assert message.startswith(MESSAGES[code]) and message.count("\n") == 1, message
            assert not (out / "report.json").exists()
