"""Every valid config gives a report or a documented numerical exit.

Configs are drawn by strategies.valid_configs over all five law types,
hbar and m over 16 decades, alpha0 over 6 and |p0| up to 1e6, grids of
64-256 points that may be too coarse for the packet or cut into it, short
runs with dt from 1e-4 and 1-100 steps per sample, and the invariants task
with any subset of the others, so that the Euler-Lagrange residuals read
the run's own steps.  An
example must write report.json (exit 0), or stop with exit 3 (divergence)
or 4 (capability) and that class's message, having written nothing.  A config error
(exit 2) of a config that parse_config accepted is an internal check
escaping as the user's fault, and an uncaught exception or numpy warning
(exit 1) is a crash; both fail.

A second property draws configs of any tasks and sizes up to 1000 steps,
4096 grid points and 256 x 256 phase cells: the memory a run takes stays
within the working set that parse_config budgets for it.
"""

import contextlib
import io
import json
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from wavepacket import cli
from wavepacket.cli import STAGES, main, parse_config, write_run
from wavepacket.errors import CapabilityError, ConfigError, DivergenceError

from strategies import law, valid_configs

MESSAGES = {3: "error: numerical divergence: ", 4: "error: capability: "}


@settings(max_examples=100, deadline=None)
@given(data=valid_configs())
# x0 = 0 and a subnormal p0: m/(alpha0*p0) overflows, and a run without
# the invariants task completes
@example(data={"system": {"type": "free"},
               "packet": {"x0": 0.0, "p0": 2.2250738585e-313, "alpha0": 1.0},
               "time": {"t_end": 0.01, "dt": 0.001, "sample_every": 10},
               "grid": {"x_min": -15.0, "x_max": 15.0, "n_points": 64},
               "tasks": ["evolve"]})
# s = m/(alpha0*p0) overflows and p0/m is subnormal: doubles cannot carry
# det M = 2*s^2*I_L, and the invariants task completes
@example(data={"constants": {"hbar": 1.0, "mass": 1e8},
               "system": {"type": "free"},
               "packet": {"x0": 0.0, "p0": 1e-300, "alpha0": 1e-3},
               "time": {"t_end": 0.01, "dt": 0.001, "sample_every": 10},
               "grid": {"x_min": -15.0, "x_max": 15.0, "n_points": 64},
               "tasks": ["evolve", "invariants"]})
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
# the packet samples to all zeros on the oracle's grid: nothing is aliased
# or leaked, and no 0/0 warning reaches stderr
@example(data={"constants": {"hbar": 4.28, "mass": 1.3e6},
               "system": {"type": "constant", "omega": 0.904},
               "packet": {"x0": 0.233, "p0": -99.2, "alpha0": 1.11},
               "time": {"t_end": 0.1, "dt": 1e-3, "sample_every": 10},
               "grid": {"x_min": -15.0, "x_max": 15.0, "n_points": 256},
               "tasks": ["evolve", "invariants", "wigner", "kernel_check",
                         "oracle_compare"]})
# the packet reaches x = -3.4e11, where doubles are 6.1e-5 apart and the
# kernel phase is steep: kernel_check completes
@example(data={"constants": {"hbar": 1.0, "mass": 8.33e-7},
               "system": {"type": "constant", "omega": 1.288},
               "packet": {"x0": 0.0, "p0": -1e6, "alpha0": 1.304},
               "time": {"t_end": 0.288, "dt": 1e-3, "sample_every": 18},
               "grid": {"x_min": -15.0, "x_max": 15.0, "n_points": 64},
               "phase_space_grid": {"nx": 32, "np": 32, "span_sigmas": 8.0},
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
                assert math.isfinite(checks["euler_lagrange_alpha"]["value"])
            assert message == ""
        else:
            assert code in MESSAGES, message
            assert message.startswith(MESSAGES[code]) and message.count("\n") == 1, message
            # no file, no .dat of the wigner stage either, nor the directory
            assert not out.exists()


@st.composite
def _budgeted_configs(draw):
    dt = draw(st.sampled_from((1e-4, 1e-3, 1e-2)))
    sample_every = draw(st.integers(1, 100))
    # at most 1000 steps; with invariants at dt = 1e-4 every one is handed to
    # the Euler-Lagrange reduction
    t_end = draw(st.integers(1, 1000 // sample_every)) * dt * sample_every
    return {
        "system": law(draw, t_end),
        "packet": {"x0": 0.0, "p0": 1.0, "alpha0": 1.0},
        "time": {"t_end": t_end, "dt": dt, "sample_every": sample_every},
        "grid": {"x_min": -15.0, "x_max": 15.0, "n_points": 2 ** draw(st.integers(6, 12))},
        "phase_space_grid": {"nx": draw(st.integers(16, 256)),
                             "np": draw(st.integers(16, 256))},
        "tasks": ["evolve"] + draw(st.lists(st.sampled_from(list(STAGES)), unique=True)),
    }


def _working_set(config):
    """The bytes parse_config budgets for a run: per sample, solve_lambda's
    block, and what the run's tasks hold."""
    tasks = config.tasks
    grid = "kernel_check" in tasks or "oracle_compare" in tasks
    return (cli.SAMPLE_BYTES * len(config.sample_times()) + cli.SOLVE_BLOCK_BYTES
            + cli.GRID_POINT_BYTES * config.n_points * grid
            + cli.wigner_working_set(config.ps_nx, config.ps_np) * ("wigner" in tasks))


def _run(config, out):
    """write_run, as main calls it, each Wigner window written before the
    next transform; a run that exits 3 or 4 (an oracle grid too coarse for
    the packet) stops where main would stop it, and its peak up to there
    counts."""
    with contextlib.suppress(CapabilityError, DivergenceError):
        write_run(config, out)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=_budgeted_configs())
def test_run_stays_within_its_budgeted_working_set(data):
    """The tracemalloc peak of a run and its outputs is at most the working
    set parse_config summed for it, with no allowance; the run is repeated
    untraced first, so that imports and first-call caches are not counted."""
    config = parse_config(data)
    needed = _working_set(config)
    with mock.patch.object(cli, "MEMORY_BUDGET", needed - 1), pytest.raises(
            ConfigError, match=f"^{needed} bytes, over"):
        parse_config(data)
    with tempfile.TemporaryDirectory() as tmp:
        _run(config, Path(tmp) / "untraced")
        tracemalloc.start()
        try:
            _run(config, Path(tmp) / "traced")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= needed
