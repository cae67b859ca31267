"""Tests for the scenario runner: config parsing, outputs, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wavepacket import cli
from wavepacket.cli import (BUILTIN_SCENARIOS, CSV_HEADER, STAGES, TASKS,
                            TOLERANCES, load_config, main, parse_config,
                            run_scenario, write_dat, write_run)
from wavepacket.errors import ConfigError
from wavepacket.wigner import PhaseSpaceGrid

SRC = Path(__file__).resolve().parent.parent / "src"

SMALL_CONFIG = {
    "system": {"type": "free"},
    "packet": {"x0": 0.0, "p0": 1.0, "alpha0": 1.0},
    "time": {"t_end": 0.5, "dt": 0.001, "sample_every": 100},
    "grid": {"x_min": -15.0, "x_max": 15.0, "n_points": 256},
    "tasks": ["evolve", "invariants"],
}


def run_python(*args):
    """A child interpreter that imports the package from this checkout's
    src/, whether or not PYTHONPATH names it."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_rows(csv_path):
    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_config_reports_field_path():
    bad = dict(SMALL_CONFIG, packet={"x0": 0.0, "p0": 1.0})
    with pytest.raises(ConfigError, match="packet.alpha0"):
        parse_config(bad)
    bad = dict(SMALL_CONFIG, time={"t_end": "soon", "dt": 0.001})
    with pytest.raises(ConfigError, match="time.t_end"):
        parse_config(bad)


def test_parse_config_rejects_bad_values():
    with pytest.raises(ConfigError, match="n_points"):
        parse_config(dict(SMALL_CONFIG, grid={"x_min": -15.0, "x_max": 15.0,
                                              "n_points": 100}))
    with pytest.raises(ConfigError, match="tasks"):
        parse_config(dict(SMALL_CONFIG, tasks=[]))
    with pytest.raises(ConfigError, match="unknown task 'frobnicate'; valid tasks: "
                       "evolve, invariants, wigner, kernel_check, oracle_compare$"):
        parse_config(dict(SMALL_CONFIG, tasks=["evolve", "frobnicate"]))
    with pytest.raises(ConfigError, match="integer multiple"):
        parse_config(dict(SMALL_CONFIG, time={"t_end": 0.55, "dt": 0.001,
                                              "sample_every": 100}))
    with pytest.raises(ConfigError, match="system.type"):
        parse_config(dict(SMALL_CONFIG, system={"type": "spring"}))


@pytest.mark.parametrize("section, value", [
    ("constants", 5),              # optional: hbar and mass default to 1
    ("phase_space_grid", "big"),   # optional: nx, np and span have defaults
    ("packet", [0.0, 1.0, 1.0]),   # required
    ("time", None),                # required
])
def test_non_object_section_exits_2(tmp_path, capsys, section, value):
    """A section that is present but not an object is refused, whether its
    fields have defaults or not; it is never read as if it were absent."""
    cfg = write_config(tmp_path, dict(SMALL_CONFIG, **{section: value}))
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"error: config: config field '{section}' must be an object, got {value!r}\n")
    assert not (tmp_path / "o").exists()


def test_builtin_scenarios_parse():
    for name, data in BUILTIN_SCENARIOS.items():
        config = parse_config(data, name=name)
        assert config.sample_times()[-1] == pytest.approx(config.t_end)


def test_load_config_unknown_name():
    with pytest.raises(ConfigError, match="built-in"):
        load_config("not-a-scenario")


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------

def test_free_spread_outputs(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "free-spread", "--output-dir", str(out)]) == 0

    csv_path = out / "trajectory.csv"
    raw = csv_path.read_bytes()
    assert b"\r" not in raw  # LF endings only
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER

    rows = {r["t"]: r for r in read_rows(csv_path)}
    assert rows[0.0]["var_x"] == 0.5
    assert rows[0.0]["corr"] == 0.0
    assert rows[1.0]["var_x"] == pytest.approx(1.0, rel=1e-12)
    assert rows[1.0]["var_p"] == pytest.approx(0.5, rel=1e-12)
    assert rows[1.0]["corr"] == pytest.approx(1.0, rel=1e-12)
    # spreading ratio <x~^2>(1)/<x~^2>(0) = 2 for alpha0 = 1
    assert rows[1.0]["var_x"] / rows[0.0]["var_x"] == pytest.approx(2.0, rel=1e-12)

    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert report["scenario"] == "free-spread"
    for field in ("det_M", "I_L", "p_phi", "invariant_uncertainty_product",
                  "E_cl", "E_tilde"):
        assert field in report["samples"][0]
    checks = report["invariants"]["checks"]
    assert checks["det_M_drift"]["value"] <= 1e-9
    # at t_end the packet reaches the outer halves of the oracle's grid
    assert report["oracle_compare"]["warnings"] == [
        "probability mass leaked outside the central half of the domain"]
    assert report["kernel_check"]["warnings"] == []
    assert report["warned_sections"] == 1

    # wigner_t0.dat peak = 1/pi at hbar = 1
    dat = (out / "wigner_t0.dat").read_text().splitlines()
    meta = [ln for ln in dat if ln.startswith("#")]
    assert any("rows: p index" in ln for ln in meta)
    matrix = np.array([[float(v) for v in ln.split()]
                       for ln in dat if not ln.startswith("#")])
    assert matrix.shape == (257, 256)
    assert matrix.max() == pytest.approx(1.0 / math.pi, abs=1e-6)


def test_wigner_dat_rows_match_per_value_format(tmp_path):
    """The row-template writer gives the bytes of formatting each numpy
    value on its own with f"{v:.17e}"."""
    rng = np.random.default_rng(7)
    values = rng.normal(size=(5, 7)) * 10.0 ** rng.integers(-300, 300, size=(5, 7))
    values[0, :3] = (0.0, -0.0, 5e-324)
    grid = PhaseSpaceGrid(x_min=-1.0, dx=0.25, p_min=-2.0, dp=0.5, values=values)
    write_dat({"grid": grid, "index": 3, "t": 0.5}, tmp_path)
    rows = [ln for ln in (tmp_path / "wigner_t3.dat").read_text().splitlines(True)
            if not ln.startswith("#")]
    assert rows == [" ".join(f"{v:.17e}" for v in row) + "\n" for row in grid.values]


def test_ho_constant_width_report(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "ho-constant-width", "--output-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    checks = report["invariants"]["checks"]
    assert checks["det_M_drift"]["value"] <= 1e-9
    for r in report["samples"]:
        assert r["p_phi"] == pytest.approx(0.5, abs=1e-10)
    assert report["oracle_compare"]["checks"]["oracle_vs_analytic_l2"]["pass"]


def test_deterministic_outputs(tmp_path):
    cfg = write_config(tmp_path, dict(SMALL_CONFIG, output_dir=str(tmp_path / "a")))
    assert main(["run", cfg]) == 0
    assert main(["run", cfg, "--output-dir", str(tmp_path / "b")]) == 0
    for name in ("trajectory.csv", "report.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        # reports embed no paths or timestamps, so runs are bit-identical
        assert a == b


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_code_unknown_scenario(capsys):
    assert main(["run", "nope"]) == 2
    assert "config" in capsys.readouterr().err


def test_exit_code_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"unterminated": ')
    assert main(["run", str(path)]) == 2
    assert "line" in capsys.readouterr().err


def test_exit_code_bad_field(tmp_path):
    cfg = write_config(tmp_path, dict(SMALL_CONFIG, tasks=["nothing"]))
    assert main(["run", cfg]) == 2


@pytest.mark.parametrize("points", [
    [[0.0, 1.0], [0.4, 1.0]],                  # ends before t_end = 0.5
    [[0.1, 1.0], [1.0, 1.0]],                  # starts after t = 0
    [[0.0, 1.0], [math.nextafter(0.5, 0.0), 1.0]],
])
def test_exit_code_uncovered_tabulated_law(tmp_path, capsys, points):
    cfg = write_config(tmp_path, dict(SMALL_CONFIG,
                                      system={"type": "tabulated", "points": points}))
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: 'system.points' must cover [0, t_end] = [0, 0.5]")
    assert err.count("\n") == 1


@pytest.mark.parametrize("time", [
    # the last step ends at 0.007300000000000001, past the sample time 0.0073
    {"t_end": 0.0073, "dt": 1e-4, "sample_every": 73},
    # the last sample time is 3 * 0.097 = 0.29100000000000004
    {"t_end": 0.291, "dt": 0.001, "sample_every": 97},
])
def test_tabulated_law_ending_at_t_end_runs(tmp_path, time):
    """A table that reaches t_end covers the run, though its time grid
    rounds past t_end; values inside the table are unchanged."""
    table = {"type": "tabulated", "points": [[0.0, 1.0], [time["t_end"], 1.5]]}
    law = parse_config(dict(SMALL_CONFIG, system=table, time=time)).system.frequency_law
    assert law.times[:2] == (0.0, time["t_end"]) and law.omegas == (1.0, 1.5, 1.5)
    assert law.times[2] == time["t_end"] + time["dt"] * time["sample_every"]
    cfg = write_config(tmp_path, dict(SMALL_CONFIG, system=table, time=time,
                                      tasks=["evolve", "invariants", "kernel_check"]))
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 0
    wide = dict(table, points=[[0.0, 1.0], [1.0, 1.5]])
    assert parse_config(dict(SMALL_CONFIG, system=wide, time=time)).system.frequency_law \
        == parse_config(dict(SMALL_CONFIG, system=wide)).system.frequency_law


@pytest.mark.parametrize("section, field, value", [
    ("time", "t_end", math.inf),
    ("time", "t_end", math.nan),
    ("time", "dt", math.nan),
    ("packet", "x0", -math.inf),
    ("grid", "x_max", math.inf),
])
def test_exit_code_non_finite_field(tmp_path, capsys, section, field, value):
    """json writes and reads these as the literals Infinity and NaN."""
    data = dict(SMALL_CONFIG, **{section: dict(SMALL_CONFIG[section], **{field: value})})
    cfg = write_config(tmp_path, data)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"'{section}.{field}' must be finite" in err


def test_exit_code_divergence(tmp_path):
    data = dict(SMALL_CONFIG,
                system={"type": "tabulated", "points": [[0.0, 1e300], [10.0, 1e300]]},
                time={"t_end": 1.0, "dt": 0.001, "sample_every": 100})
    cfg = write_config(tmp_path, data)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("overrides, quantity, t", [
    # parametric resonance: the state is finite at t = 270 and its moments
    # overflow there; the Ermakov invariant's square overflowed soon after
    ({"system": {"type": "modulated", "omega0": 2.0, "epsilon": 0.9, "gamma": 4.0},
      "packet": {"x0": 0.5, "p0": 1.0, "alpha0": 1.0},
      "time": {"t_end": 300.0, "dt": 0.01, "sample_every": 1000}},
     "invariant_uncertainty_product", 270.0),
    # dt*w = 2.8284 is within RK4's stability bound 2*sqrt(2), and 2*dt*w
    # is past it: the 200 steps at 2*dt overflow, the run's own 400 do not
    ({"system": {"type": "constant", "omega": 2.8284},
      "time": {"t_end": 400.0, "dt": 1.0, "sample_every": 400}},
     "step_doubling_error", 400.0),
    # |lambda| shrinks by 0.745 a step: the product rounds to 0 at t = 800,
    # where alpha is 0 and alpha' is 0/0
    ({"system": {"type": "constant", "omega": 2.0},
      "time": {"t_end": 800.0, "dt": 1.0, "sample_every": 800}},
     "alpha_dot", 800.0),
], ids=["resonance", "coarse-step-unstable", "contracting-product"])
def test_overflowing_sample_quantity_exits_3(tmp_path, capsys, overrides, quantity, t):
    """A derived quantity that is not finite is a divergence (exit 3) whose
    one line of stderr names the quantity and the first sample time; no
    numpy warning precedes it, and no inf or NaN reaches report.json."""
    cfg = write_config(tmp_path, dict(SMALL_CONFIG, **overrides))
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err == f"error: numerical divergence: non-finite {quantity} at t={t!r}\n"
    assert not (tmp_path / "o" / "report.json").exists()


def test_free_run_with_every_record_finite_exits_0(tmp_path):
    """At alpha0 = 1e-80 and hbar = 1e-30 every record is finite, though
    (t/alpha0^2)^2 overflows: no report quantity is formed from it, so the
    run writes its report, and both invariant checks pass."""
    cfg = write_config(tmp_path, dict(SMALL_CONFIG, constants={"hbar": 1e-30, "mass": 1.0},
                                      packet={"x0": 0.5, "p0": 1.0, "alpha0": 1e-80}))
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    checks = report["invariants"]["checks"]
    assert checks["det_M_drift"]["pass"] is True
    assert checks["step_doubling_error"]["pass"] is True


@pytest.mark.parametrize("constants, packet", [
    # s = m/(alpha0*p0) overflows and p0/m is subnormal
    ({"hbar": 1.0, "mass": 1e8}, {"x0": 0.0, "p0": 1e-300, "alpha0": 1e-3}),
    # s is finite, p0/m subnormal
    ({"hbar": 1.0, "mass": 1.0}, {"x0": 0.0, "p0": 1e-310, "alpha0": 1e3}),
    # alpha0*p0 underflows to 0, so s = m/(alpha0*p0) is a division by zero
    ({"hbar": 1.0, "mass": 1.0}, {"x0": 0.0, "p0": 1e-300, "alpha0": 1e-30}),
], ids=["infinite-scale", "subnormal-velocity", "zero-denominator"])
def test_det_vs_ermakov_identity_needs_doubles_that_carry_it(tmp_path, capsys,
                                                              constants, packet):
    """The identity det M = 2*s^2*I_L is of order 1, but with a subnormal
    eta' = p0/m or an infinite scale s doubles cannot evaluate it.  The
    invariants section reads det M alone, and the run exits 0."""
    data = dict(SMALL_CONFIG, constants=constants, packet=packet)
    cfg = write_config(tmp_path, data)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""
    checks = json.loads((tmp_path / "o" / "report.json").read_text())[
        "invariants"]["checks"]
    assert list(checks) == ["det_M_drift", "step_doubling_error"]


def test_oracle_on_a_grid_that_samples_no_mass(tmp_path, capsys):
    """hbar = 4.28 and m = 1.3e6 make sigma_x about 2e-3: on 256 points over
    [-15, 15] the packet samples to all zeros.  Zero mass has nothing
    aliased and nothing leaked; the oracle's and the kernel's norm checks
    fail, each reading |0 - 1|, with no warning on stderr."""
    data = dict(SMALL_CONFIG, constants={"hbar": 4.28, "mass": 1.3e6},
                system={"type": "constant", "omega": 0.904},
                packet={"x0": 0.233, "p0": -99.2, "alpha0": 1.11},
                time={"t_end": 0.1, "dt": 1e-3, "sample_every": 10},
                tasks=list(TASKS))
    cfg = write_config(tmp_path, data)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    oracle = report["oracle_compare"]
    assert oracle["norm"] == 0.0
    assert not any("leaked" in w for w in oracle["warnings"])
    assert oracle["checks"]["oracle_norm_defect"]["pass"] is False
    assert report["kernel_check"]["checks"]["kernel_norm_defect"] == {
        "value": 1.0, "tolerance": 1e-10, "pass": False}
    assert report["pass"] is False


def test_exit_code_delta_limit(tmp_path):
    data = dict(SMALL_CONFIG,
                time={"t_end": 1e-10, "dt": 1e-10, "sample_every": 1},
                tasks=["evolve", "kernel_check"])
    cfg = write_config(tmp_path, data)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 4


def test_unreported_invariant_deviation_does_not_stop_evolve(tmp_path):
    """At x0 = 0 and a subnormal p0, m/(alpha0*p0) overflows; a run
    without the invariants task completes."""
    data = dict(SMALL_CONFIG, packet={"x0": 0.0, "p0": 2.2250738585e-313, "alpha0": 1.0},
                tasks=["evolve"])
    cfg = write_config(tmp_path, data)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert "invariants" not in report
    assert len(report["samples"]) == 6


def test_wigner_window_below_double_resolution_exits_4(tmp_path, capsys):
    """At hbar = m = 1e-150, p0 = 1 is a speed of 1e150: at t = 10 the
    Wigner window of +-12 sigma_x lies near x = -5.4e149, where doubles are
    about 1e134 apart, so it cannot be sampled.  That is a resolution
    limit, named with its field, not a config error."""
    data = dict(BUILTIN_SCENARIOS["ho-breathing"], tasks=["evolve", "wigner"],
                constants={"hbar": 1e-150, "mass": 1e-150})
    cfg = write_config(tmp_path, data)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: capability: phase_space_grid: ") and err.count("\n") == 1
    assert "t=10.0" in err and "wide around x=-5.44" in err and "doubles are" in err
    # the refused window is the second: it is refused before the first is written
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("overrides, cause", [
    # t_end = 1e-10: the kernel at the last sample is at its t -> 0 caustic
    ({"time": {"t_end": 1e-10, "dt": 1e-10, "sample_every": 1},
      "tasks": ["evolve", "wigner", "kernel_check"]}, "kernel is a delta function"),
    # p0 = 5 on 64 points over 30 widths: the oracle's grid is too coarse
    ({"packet": {"x0": 0.0, "p0": 5.0, "alpha0": 1.0},
      "grid": {"x_min": -15.0, "x_max": 15.0, "n_points": 64},
      "tasks": ["evolve", "wigner", "oracle_compare"]}, "grid too coarse for this state"),
], ids=["kernel-caustic", "oracle-grid-too-coarse"])
def test_refusal_beside_wigner_writes_no_file(tmp_path, capsys, overrides, cause):
    """The wigner stage writes each window as it goes, but runs after
    kernel_check and oracle_compare: their refusal (exit 4) leaves no
    output, not even the directory."""
    cfg = write_config(tmp_path, dict(SMALL_CONFIG, **overrides))
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: capability: ") and cause in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("tasks", [["evolve"], ["evolve", "wigner"]])
def test_output_path_that_is_a_file_exits_5(tmp_path, capsys, tasks):
    """Whether the first file written is a .dat in the wigner stage or
    trajectory.csv after the run, an output directory that cannot be made
    exits 5 naming the path, and the file in its place is left as it was."""
    cfg = write_config(tmp_path, dict(SMALL_CONFIG, tasks=tasks))
    target = tmp_path / "o"
    target.write_text("in the way\n")
    assert main(["run", cfg, "--output-dir", str(target)]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: I/O failure at {target}: ")
    assert captured.err.count("\n") == 1
    assert target.read_text() == "in the way\n"


def test_run_prints_its_paths_in_output_order(tmp_path, capsys):
    """The .dat files are written first, during the run, but main prints
    trajectory.csv, each wigner_t<id>.dat in sample order and report.json,
    then the pass line."""
    cfg = write_config(tmp_path, dict(SMALL_CONFIG, tasks=["evolve", "wigner"]))
    out = tmp_path / "o"
    assert main(["run", cfg, "--output-dir", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        str(out / name) for name in ("trajectory.csv", "wigner_t0.dat", "wigner_t5.dat",
                                     "report.json")] + ["pass: True"]
    assert sorted(path.name for path in out.iterdir()) == [
        "report.json", "trajectory.csv", "wigner_t0.dat", "wigner_t5.dat"]


def _largest(admitted, lo, hi):
    """The largest n in [lo, hi) with admitted(n), for admitted true at lo
    and false at hi and past it."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if admitted(mid) else (lo, mid)
    return lo


# two samples, one step: the least a run holds besides its tasks
TWO_SAMPLES = dict(SMALL_CONFIG, time={"t_end": 0.5, "dt": 0.5, "sample_every": 1})


def test_memory_ceilings_refuse_one_step_past_the_budget(tmp_path, capsys):
    """parse_config admits a phase_space_grid with wigner, and a
    grid.n_points with kernel_check, whose working set beside the least of
    every other part (two samples and solve_lambda's block) is within
    cli.MEMORY_BUDGET (1 GiB), and refuses the next size with a ConfigError
    (exit 2) naming the field and the budget.  Parsing allocates no grid,
    so nothing large is allocated here."""
    budget = cli.MEMORY_BUDGET
    assert budget == 1 << 30
    room = budget - 2 * cli.SAMPLE_BYTES - cli.SOLVE_BLOCK_BYTES

    def phase_grid(nx, n_p):
        return dict(TWO_SAMPLES, phase_space_grid={"nx": nx, "np": n_p},
                    tasks=["evolve", "wigner"])

    n_p = _largest(lambda k: cli.wigner_working_set(16, k) <= room, 16, budget)
    assert parse_config(phase_grid(16, n_p)).ps_np == n_p
    with pytest.raises(ConfigError, match=rf"^\d+ bytes, over the working-set budget of "
                                          rf"{budget}: .* for 'phase_space_grid' 16 x "
                                          rf"{n_p + 1}$"):
        parse_config(phase_grid(16, n_p + 1))

    side = _largest(lambda k: cli.wigner_working_set(k, k) <= room, 16, budget)
    # one window, 8 bytes a cell, alone reaches 1 GiB at 11586 x 11586
    assert 11000 < side < 11586
    parse_config(phase_grid(side, side))
    with pytest.raises(ConfigError, match="phase_space_grid"):
        parse_config(phase_grid(side + 1, side + 1))

    points = 1 << 21
    assert cli.GRID_POINT_BYTES * points <= room < cli.GRID_POINT_BYTES * 2 * points
    grid = dict(SMALL_CONFIG["grid"], n_points=points)
    kernel = dict(TWO_SAMPLES, tasks=["evolve", "kernel_check"])
    assert parse_config(dict(kernel, grid=grid)).n_points == points
    cfg = write_config(tmp_path, dict(kernel, grid=dict(grid, n_points=2 * points)))
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"for 'grid.n_points' = {2 * points}" in err and f"budget of {budget}" in err
    assert not (tmp_path / "o").exists()


def test_sample_and_kept_step_ceilings_refuse_one_step_past_the_budget():
    """parse_config admits the largest sample count whose bytes beside the
    least of every other part are within cli.MEMORY_BUDGET, and refuses one
    more, naming it.  The steps of the invariants task have no ceiling of
    their own: its second solve runs block by block, as the first does, so
    one more than the 4186092 that 256 bytes per kept step once admitted
    parses.  Parsing allocates neither, so nothing large is allocated here."""
    budget = cli.MEMORY_BUDGET
    room = budget - cli.SOLVE_BLOCK_BYTES
    samples = room // cli.SAMPLE_BYTES
    assert cli.SAMPLE_BYTES * samples <= room < cli.SAMPLE_BYTES * (samples + 1)
    time = {"dt": 0.5, "sample_every": 1}
    evolve = dict(SMALL_CONFIG, tasks=["evolve"])
    config = parse_config(dict(evolve, time=dict(time, t_end=0.5 * (samples - 1))))
    assert len(config.sample_times()) == samples
    with pytest.raises(ConfigError, match=rf"^\d+ bytes, over the working-set budget of "
                                          rf"{budget}: \d+ for {samples + 1} samples, "
                                          rf"{cli.SOLVE_BLOCK_BYTES} for solve_lambda$"):
        parse_config(dict(evolve, time=dict(time, t_end=0.5 * samples)))

    def kept(k):
        # two samples, t = 0 and t_end = 2, and k steps of 2/k between them
        return dict(SMALL_CONFIG, time={"t_end": 2.0, "dt": 2.0 / k, "sample_every": k})

    config = parse_config(kept(4186093))
    assert "invariants" in config.tasks and round(2.0 / config.dt) == 4186093


@pytest.mark.parametrize("overrides, named", [
    # each part alone is within 1 GiB, and 2.15 GiB together
    ({"time": {"t_end": 2.0, "dt": 2.0 / 2 ** 22, "sample_every": 16},
      "grid": {"x_min": -15.0, "x_max": 15.0, "n_points": 2 ** 22},
      "phase_space_grid": {"nx": 8033, "np": 8033},
      "tasks": ["evolve", "invariants", "wigner", "kernel_check"]},
     ["262145 samples", "'grid.n_points' = 4194304", "'phase_space_grid' 8033 x 8033"]),
    # 1e15 RK4 steps for two samples
    ({"time": {"t_end": 1e6, "dt": 1e-9, "sample_every": 10 ** 15}, "tasks": ["evolve"]},
     ["'time.dt'"]),
    # 1e8 steps of a 1024-point oracle: 1.02e11 point-steps
    ({"time": {"t_end": 1e3, "dt": 1e-5, "sample_every": 10 ** 6},
      "grid": {"x_min": -15.0, "x_max": 15.0, "n_points": 1024},
      "tasks": ["evolve", "oracle_compare"]}, ["oracle_compare"]),
    # sizes that no task of the run allocates
    ({"phase_space_grid": {"nx": 9000, "np": 9000}, "tasks": ["evolve"]}, None),
    ({"grid": {"x_min": -15.0, "x_max": 15.0, "n_points": 2 ** 23}, "tasks": ["evolve"]},
     None),
], ids=["parts-summed", "rk4-steps", "oracle-point-steps", "phase-grid-without-wigner",
        "grid-without-kernel-or-oracle"])
def test_budget_counts_the_parts_the_runs_tasks_hold(tmp_path, capsys, overrides, named):
    """A config is refused (exit 2, no output) when the working set its
    tasks hold, summed, or its steps are over budget, naming each part or
    the steps, and admitted when only a size its tasks never allocate is
    large.  parse_config is asked first, so a config it wrongly admitted
    fails here instead of running."""
    data = dict(SMALL_CONFIG, **overrides)
    if named is None:
        assert parse_config(data).tasks == ("evolve",)
        return
    with pytest.raises(ConfigError):
        parse_config(data)
    cfg = write_config(tmp_path, data)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and err.count("\n") == 1
    assert all(name in err for name in named), err
    assert not (tmp_path / "o").exists()


NOT_UTF8 = b'{"system": {"type": "free"}, "output_dir": "\xff"}'


@pytest.mark.parametrize("overrides, named", [
    ({"time": {"t_end": 0.5, "dt": 0.001, "sample_every": 10 ** 400}}, "'time.sample_every'"),
    ({"phase_space_grid": {"nx": 10 ** 400, "np": 257}}, "'phase_space_grid.nx'"),
    ({"system": {"type": "tabulated", "points": [["a", 1], [1, 1]]}}, "'system.points[0]'"),
    ({"system": {"type": "tabulated", "points": [[10 ** 400, 1], [1, 1]]}},
     "'system.points[0]'"),
    ({"system": {"type": "tabulated", "points": [[0, 1], [2, True]]}}, "'system.points[1]'"),
    ({"system": {"type": "tabulated", "points": [[0, 1, 2], [2, 1]]}}, "'system.points[0]'"),
    ("directory", "config.json"),
    ("not UTF-8", "config.json"),
    # the width overflows, and the step is below the spacing of doubles
    ({"grid": {"x_min": -1e308, "x_max": 1e308, "n_points": 256},
      "tasks": ["evolve", "oracle_compare"]}, "'grid'"),
    ({"grid": {"x_min": 1e18, "x_max": 1e18 + 1e4, "n_points": 256},
      "tasks": ["evolve", "kernel_check"]}, "'grid'"),
    # 5e299 steps and samples; 1e300 steps, past int64; a zero multiple of the step
    ({"time": {"t_end": 0.5, "dt": 1e-300, "sample_every": 1}}, "'time.dt'"),
    ({"time": {"t_end": 1e297, "dt": 0.001, "sample_every": 10 ** 300}}, "'time.dt'"),
    ({"time": {"t_end": 0.5, "dt": 0.001, "sample_every": 10 ** 300}}, "'time.t_end'"),
], ids=["sample_every-1e400", "nx-1e400", "point-str", "point-1e400", "point-bool",
        "point-triple", "directory", "not-utf8", "grid-width-overflows",
        "grid-step-below-doubles", "dt-1e-300", "steps-past-int64", "zero-multiple"])
def test_unusable_config_exits_2_naming_its_field(tmp_path, capsys, overrides, named):
    """A config value or file that cannot run as written exits 2 before any
    output, naming its field or its path, instead of a traceback (exit 1)
    or a run on a silently changed value."""
    path = tmp_path / "config.json"
    if overrides == "directory":
        path.mkdir()
    elif overrides == "not UTF-8":
        path.write_bytes(NOT_UTF8)
    else:
        path.write_text(json.dumps(dict(SMALL_CONFIG, **overrides)))
    assert main(["run", str(path), "--output-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and named in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def _run_peak_bytes(config):
    """tracemalloc peak of write_run, after an untraced run, so that
    imports and first-call caches are not counted."""
    with tempfile.TemporaryDirectory() as tmp:
        write_run(config, Path(tmp) / "untraced")
        tracemalloc.start()
        try:
            write_run(config, Path(tmp) / "traced")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_invariants_memory_does_not_grow_with_the_steps():
    """With invariants, the 200 000 steps of dt = 1e-5 to t = 2 peak within
    1 MiB of the 2000 of dt = 1e-3, at the same 21 samples: the 5000 steps
    of the step-doubling re-solve run in blocks, as the run's own do."""
    def config(dt):
        return parse_config(dict(SMALL_CONFIG, system={"type": "constant", "omega": 1.0},
                                 time={"t_end": 2.0, "dt": dt, "sample_every": round(0.1 / dt)}))

    assert len(config(1e-5).sample_times()) == len(config(1e-3).sample_times()) == 21
    assert _run_peak_bytes(config(1e-5)) <= _run_peak_bytes(config(1e-3)) + (1 << 20)


def test_single_step_run_has_zero_step_doubling_error(tmp_path, monkeypatch):
    """One step leaves no sample that two steps reach: the estimate reads
    0.0, with no second solve."""
    calls = []
    solve = cli.solve_lambda
    monkeypatch.setattr(cli, "solve_lambda",
                        lambda *args, **kwargs: calls.append(1) or solve(*args, **kwargs))
    data = dict(SMALL_CONFIG, system={"type": "constant", "omega": 1.0},
                time={"t_end": 0.001, "dt": 0.001, "sample_every": 1})
    cfg = write_config(tmp_path, data)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 0
    checks = json.loads((tmp_path / "o" / "report.json").read_text())[
        "invariants"]["checks"]
    assert checks["step_doubling_error"]["value"] == 0.0
    assert len(calls) == 1


def _step_doubling_error(**changes):
    """The step-doubling error of SMALL_CONFIG with some sections replaced."""
    report, _ = run_scenario(parse_config(SMALL_CONFIG | changes))
    return report["invariants"]["checks"]["step_doubling_error"]["value"]


def _rk4_constant_error(omega, t, n):
    """max|R^n - F(t)| / max|F(t)| of n RK4 steps R of h = t/n on
    y'' + omega^2 y = 0, against its exact fundamental matrix F."""
    a = np.array([[0.0, 1.0], [-omega * omega, 0.0]]) * (t / n)
    step = sum(np.linalg.matrix_power(a, k) / math.factorial(k) for k in range(5))
    exact = np.array([[math.cos(omega * t), math.sin(omega * t) / omega],
                      [-omega * math.sin(omega * t), math.cos(omega * t)]])
    return np.abs(np.linalg.matrix_power(step, n) - exact).max() / np.abs(exact).max()


@pytest.mark.parametrize("sample_every", [4, 5, 1], ids=["even", "odd", "two-samples"])
def test_step_doubling_error_is_the_closed_form_error(sample_every):
    """On a constant law the estimate is RK4's own error at the first
    sample reached in two steps or more, within 5%: n_f = 4 steps against
    2, 5 against 3, and at one step per sample 2 against 1."""
    dt, omega = 0.05, 1.5
    error = _step_doubling_error(system={"type": "constant", "omega": omega},
                                 time={"t_end": 1.0, "dt": dt, "sample_every": sample_every})
    n_f = max(2, sample_every)
    assert error == pytest.approx(_rk4_constant_error(omega, n_f * dt, n_f), rel=0.05)
    assert error > 1e-8             # truncation, far above rounding


def test_step_doubling_error_depends_on_the_law_and_step_alone():
    """The fundamental matrix is the same for every hbar, m and packet:
    the estimate reads the same, to the bit where alpha0 scales exactly."""
    law = {"type": "ramp", "omega0": 1.5, "slope": 0.3}
    time = {"t_end": 1.0, "dt": 0.02, "sample_every": 5}
    base = _step_doubling_error(system=law, time=time)
    for alpha0 in (0.25, 2.0, 8.0):
        for constants in ({"hbar": 1.0, "mass": 1.0}, {"hbar": 1e-3, "mass": 40.0}):
            assert _step_doubling_error(
                system=law, time=time, constants=constants,
                packet={"x0": -0.7, "p0": 2.5, "alpha0": alpha0}) == base
    assert _step_doubling_error(system=law, time=time, packet={
        "x0": 0.0, "p0": 1.0, "alpha0": 1.3}) == pytest.approx(base, rel=1e-6)
    assert base > 1e-9              # truncation, far above rounding


def test_free_motion_has_zero_step_doubling_error():
    """RK4 is exact on free motion, and both solves round to the same matrix."""
    assert _step_doubling_error(time={"t_end": 1.0, "dt": 0.05, "sample_every": 5}) == 0.0
    assert _step_doubling_error() == 0.0


def test_drifting_wronskian_fails_its_check_instead_of_exiting(tmp_path):
    """At dt = 0.05 the RK4 Wronskian drifts past 1e-9 by t = 50."""
    data = dict(BUILTIN_SCENARIOS["ho-breathing"],
                time={"t_end": 50.0, "dt": 0.05, "sample_every": 10},
                tasks=["evolve", "invariants"])
    cfg = write_config(tmp_path, data)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    drift = report["invariants"]["checks"]["det_M_drift"]
    assert drift["value"] > drift["tolerance"]
    assert drift["pass"] is False
    assert report["pass"] is False


def test_drifting_wronskian_does_not_stop_kernel_check(tmp_path):
    """The time-dependent kernel is evaluated whatever det M is: the drift
    fails det_M_drift, the one check that reads it, and the kernel's norm,
    kept by any matrix, still passes."""
    data = dict(BUILTIN_SCENARIOS["ho-breathing"],
                time={"t_end": 50.0, "dt": 0.05, "sample_every": 10},
                tasks=["evolve", "invariants", "kernel_check"])
    cfg = write_config(tmp_path, data)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["invariants"]["checks"]["det_M_drift"]["pass"] is False
    kernel_checks = report["kernel_check"]["checks"]
    assert set(kernel_checks) == {"kernel_norm_defect", "kernel_vs_analytic_l2"}
    assert kernel_checks["kernel_norm_defect"]["pass"] is True


def test_fine_grid_kernel_check_completes(tmp_path):
    """n_points = 16384 on [-15, 15]: np.linspace spacing varies by more than
    1e-12 of the step there, and the kernel quadrature needs O(n) memory."""
    data = dict(SMALL_CONFIG, time={"t_end": 0.2, "dt": 0.001, "sample_every": 100},
                grid={"x_min": -15.0, "x_max": 15.0, "n_points": 16384},
                tasks=["evolve", "kernel_check"])
    cfg = write_config(tmp_path, data)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["pass"] is True
    assert report["kernel_check"]["warnings"] == []


def test_coverage_warnings_reach_the_report(tmp_path):
    """free-spread on a grid of [-6, 6]: the packet at t_end leaves the grid,
    the kernel's norm check fails, and the kernel section says why."""
    data = dict(BUILTIN_SCENARIOS["free-spread"],
                grid={"x_min": -6.0, "x_max": 6.0, "n_points": 256},
                tasks=["evolve", "invariants", "kernel_check", "wigner"])
    cfg = write_config(tmp_path, data)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    kernel = report["kernel_check"]
    assert kernel["checks"]["kernel_norm_defect"]["pass"] is False
    assert kernel["warnings"] and all("probability mass" in w for w in kernel["warnings"])
    assert [entry["warnings"] for entry in report["wigner"]] == [[], []]
    assert report["warned_sections"] == 1


def test_kernel_norm_defect_fails_on_a_grid_that_cuts_the_packet(monkeypatch):
    """free-spread on [-6, 6] with 256 points: the kernel's result loses the
    mass the grid cuts from the evolved packet, and kernel_norm_defect
    reads it as |norm(K psi0) - 1|, about 2.9e-3."""
    applied, apply = [], cli.apply_kernel

    def recording(kernel, psi, x):
        applied.append(apply(kernel, psi, x))
        return applied[-1]

    monkeypatch.setattr(cli, "apply_kernel", recording)
    data = dict(BUILTIN_SCENARIOS["free-spread"],
                grid={"x_min": -6.0, "x_max": 6.0, "n_points": 256},
                tasks=["evolve", "kernel_check"])
    report, _ = run_scenario(parse_config(data))
    [out] = applied
    defect = abs(out.norm() - 1.0)
    assert defect == pytest.approx(2.9e-3, rel=0.02)
    assert report["kernel_check"]["checks"]["kernel_norm_defect"] == {
        "value": defect, "tolerance": 1e-10, "pass": False}
    assert report["pass"] is False


def test_cut_wigner_window_warns_once_per_entry(tmp_path):
    """span_sigmas 1.0 cuts psi's grid to +-1.5 sigma: each Wigner entry
    reports the mass that grid covers, 0.866, once."""
    data = dict(BUILTIN_SCENARIOS["ho-breathing"], tasks=["evolve", "wigner"],
                phase_space_grid={"nx": 64, "np": 65, "span_sigmas": 1.0})
    cfg = write_config(tmp_path, data)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    for entry in report["wigner"]:
        [warning] = entry["warnings"]
        assert warning.startswith("grid covers 0.866") and "probability mass" in warning
    assert report["warned_sections"] == 2


def test_leaking_oracle_result_fails_its_norm_check(tmp_path):
    """free-spread on [-10, 10] with 512 points: mass reaches the periodic
    boundary and the oracle's result loses 1.3e-8 of its norm.  That is a
    failing check beside the leakage warning, not a config error."""
    data = dict(BUILTIN_SCENARIOS["free-spread"],
                grid={"x_min": -10.0, "x_max": 10.0, "n_points": 512},
                tasks=["evolve", "oracle_compare"])
    cfg = write_config(tmp_path, data)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    oracle = report["oracle_compare"]
    assert oracle["checks"]["oracle_norm_defect"] == {
        "value": abs(oracle["norm"] - 1.0), "tolerance": 1e-8, "pass": False}
    assert any("leaked" in w for w in oracle["warnings"])
    assert report["pass"] is False
    assert report["warned_sections"] == 1


# a tabulated-law packet whose kernel at t = 2 has z = -0.0148: its phase
# turns by up to 83 rad per step of the [-15, 15] grid at 1024 points
UNRESOLVED_TD_KERNEL = {
    "system": {"type": "tabulated", "points": [
        [0.0, 0.6310164954211096], [1.25, 1.8410562064362486],
        [2.5, 1.5548783580953693], [3.75, 0.4032480034802727],
        [5.0, 1.6145792837192885]]},
    "packet": {"x0": -0.7224651632021937, "p0": 1.1174525204661165,
               "alpha0": 0.8760195395301619},
    "time": {"t_end": 2.0, "dt": 0.001, "sample_every": 100},
    "grid": {"x_min": -15.0, "x_max": 15.0, "n_points": 1024},
    "tasks": ["evolve", "kernel_check"],
}


def test_unresolved_td_kernel_is_flagged(tmp_path):
    cfg = write_config(tmp_path, UNRESOLVED_TD_KERNEL)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 0
    kernel = json.loads((tmp_path / "o" / "report.json").read_text())["kernel_check"]
    assert kernel["checks"]["kernel_norm_defect"]["pass"] is False
    flagged = [w for w in kernel["warnings"] if "kernel phase turns" in w]
    assert len(flagged) == 1


def test_kernel_check_compares_with_analytic_packet(tmp_path):
    """The forward kernel is checked against the analytic packet at
    criterion 06's 1e-5."""
    cfg = write_config(tmp_path, dict(BUILTIN_SCENARIOS["ho-constant-width"],
                                      tasks=["evolve", "kernel_check"]))
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 0
    kernel = json.loads((tmp_path / "o" / "report.json").read_text())["kernel_check"]
    check = kernel["checks"]["kernel_vs_analytic_l2"]
    assert check["tolerance"] == 1e-5
    assert check["value"] <= 1e-12


@pytest.mark.parametrize("t_end, caustics", [(2.0, 0), (4.0, 1), (7.0, 2), (10.0, 3),
                                             (13.0, 4)])
def test_kernel_carries_the_maslov_phase_past_each_caustic(t_end, caustics):
    """z = sin(t) on ho-constant-width passes a zero at each multiple of pi:
    after each, the run's kernel lands on the analytic packet without any
    phase alignment, its prefactor's branch taken from floor(phi/pi)."""
    data = dict(BUILTIN_SCENARIOS["ho-constant-width"], tasks=["evolve", "kernel_check"])
    data["time"] = dict(data["time"], t_end=t_end)
    report, _ = run_scenario(parse_config(data))
    assert math.floor(report["samples"]["phi"][-1] / math.pi) == caustics
    assert report["kernel_check"]["checks"]["kernel_vs_analytic_l2"]["value"] < 1e-12


# m = 8.33e-7 and p0 = -1e6 carry the packet to x = -3.4e11 by t_end, where
# doubles are 6.1e-5 apart and the kernel phase is steep
FAR_OUT_PACKET = {
    "constants": {"hbar": 1.0, "mass": 8.33e-7},
    "system": {"type": "constant", "omega": 1.288},
    "packet": {"x0": 0.0, "p0": -1e6, "alpha0": 1.304},
    "time": {"t_end": 0.288, "dt": 1e-3, "sample_every": 18},
    "grid": {"x_min": -15.0, "x_max": 15.0, "n_points": 64},
    "phase_space_grid": {"nx": 32, "np": 32, "span_sigmas": 8.0},
    "tasks": ["invariants", "wigner", "kernel_check"],
}


def test_kernel_check_reports_a_packet_far_out(tmp_path):
    """The run completes, and its kernel section holds both checks."""
    cfg = write_config(tmp_path, FAR_OUT_PACKET)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 0
    kernel = json.loads((tmp_path / "o" / "report.json").read_text())["kernel_check"]
    assert set(kernel["checks"]) == {"kernel_norm_defect", "kernel_vs_analytic_l2"}


def test_cli_never_imports_fractions_or_decimal(tmp_path):
    """The .dat writer builds its exact powers of ten from Python ints; an
    import of fractions or decimal would add to every run's start-up."""
    code = ("import sys\n"
            "import numpy as np\n"
            "from wavepacket.cli import write_dat\n"
            "from wavepacket.wigner import PhaseSpaceGrid\n"
            "grid = PhaseSpaceGrid(x_min=0.0, dx=1.0, p_min=0.0, dp=1.0,\n"
            "                      values=np.full((2, 3), 0.5))\n"
            f"write_dat({{'grid': grid, 'index': 0, 't': 0.0}}, {str(tmp_path)!r})\n"
            "assert 'fractions' not in sys.modules, 'fractions'\n"
            "assert 'decimal' not in sys.modules, 'decimal'\n")
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr


def test_builtin_run_never_imports_scipy(tmp_path):
    code = ("import sys\n"
            "from wavepacket.cli import main\n"
            f"code = main(['run', 'free-spread', '--output-dir', {str(tmp_path)!r}])\n"
            "assert 'scipy' not in sys.modules\n"
            "sys.exit(code)\n")
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("system", [
    None,  # the built-in frozen-width-demo
    {"type": "modulated", "omega0": 1.0, "epsilon": 0.2, "gamma": 2.0},
])
def test_run_without_transforms_never_imports_numpy_fft(tmp_path, system):
    """evolve and invariants transform nothing, so numpy.fft, which the
    oracle, kernel and Wigner tasks import when they run, stays unloaded."""
    source = "frozen-width-demo" if system is None else write_config(
        tmp_path, dict(SMALL_CONFIG, system=system))
    code = ("import sys\n"
            "from wavepacket.cli import main\n"
            f"code = main(['run', {source!r}, '--output-dir', {str(tmp_path / 'o')!r}])\n"
            "assert 'numpy.fft' not in sys.modules\n"
            "sys.exit(code)\n")
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr


# ---------------------------------------------------------------------------
# auxiliary commands
# ---------------------------------------------------------------------------

def test_every_builtin_scenario_completes(tmp_path):
    """Stated invariant: all built-ins finish with their full task lists,
    and their time-dependent kernels are resolved by the grid (the phase
    turns by at most 1.49 rad per step), so kernel_check has no warning."""
    for name in BUILTIN_SCENARIOS:
        out = tmp_path / name
        assert main(["run", name, "--output-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is True, name
        assert report.get("kernel_check", {"warnings": []})["warnings"] == [], name


def test_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert "Exit codes" in out and "4" in out


def test_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    listed = capsys.readouterr().out.split()
    assert set(listed) == set(BUILTIN_SCENARIOS)


def test_describe(capsys):
    assert main(["describe", "free-spread"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == BUILTIN_SCENARIOS["free-spread"]
    assert main(["describe", "nope"]) == 2


@pytest.mark.parametrize("name, digest", [
    ("free-spread", "15dde22911d455cd"),
    ("ho-constant-width", "be06bfd58e8c4770"),
    ("ho-breathing", "16a36159a580feb5"),
    ("omega-ramp", "3b4be4a789551d4c"),
    ("frozen-width-demo", "4caca36a2d78f4da"),
])
def test_describe_output_is_pinned(capsys, name, digest):
    """The built-in configs, keys in order, as the first 16 hex digits of
    the sha256 of `describe`'s stdout."""
    assert main(["describe", name]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_builtin_scenarios_share_no_dict():
    """Each built-in is its own nested dicts, so changing one cannot change
    another."""
    dicts = [id(node) for config in BUILTIN_SCENARIOS.values()
             for node in (config, *config.values()) if isinstance(node, (dict, list))]
    assert len(dicts) == len(set(dicts))


def test_every_run_writes_the_trajectory(tmp_path):
    """"evolve" adds nothing: a run that does not list it writes the same
    trajectory.csv as one that does."""
    for tasks in (["invariants"], ["evolve", "invariants"]):
        cfg = write_config(tmp_path, dict(SMALL_CONFIG, tasks=tasks))
        assert main(["run", cfg, "--output-dir", str(tmp_path / "+".join(tasks))]) == 0
    assert (tmp_path / "invariants" / "trajectory.csv").read_bytes() == \
        (tmp_path / "evolve+invariants" / "trajectory.csv").read_bytes()


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = f"SystemExit({exc.code})"
    out, err = capsys.readouterr()
    return code, out, err


def test_repeated_main_calls_behave_like_fresh_ones(tmp_path, capsys):
    """The parser is built once per process; a call through the reused
    parser gives what a call through a newly built one gives, whatever ran
    before it."""
    from wavepacket import cli
    cfg = write_config(tmp_path, SMALL_CONFIG)
    commands = [
        ["run", cfg, "--output-dir", str(tmp_path / "out")],
        ["describe", "ho-breathing"],
        ["run"],
        ["list-scenarios"],
        ["run", cfg, "--output-dir", str(tmp_path / "out"), "--tolerance-profile", "strict"],
        ["frobnicate"],
        ["run", cfg, "--output-dir", str(tmp_path / "out")],
        ["describe", "nope"],
    ]
    fresh = []
    for argv in commands:
        cli._build_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
        fresh.append((tmp_path / "out" / "report.json").read_bytes())
    assert cli._build_parser() is cli._build_parser()
    reused = []
    for argv in commands:
        reused.append(_outcome(capsys, argv))
        reused.append((tmp_path / "out" / "report.json").read_bytes())
    assert reused == fresh
    codes = [outcome[0] for outcome in fresh[::2]]
    assert codes == [0, 0, "SystemExit(2)", 0, "SystemExit(2)", "SystemExit(2)", 0, 2]


def test_console_entry_point():
    result = run_python("-m", "wavepacket", "list-scenarios")
    assert result.returncode == 0
    assert "free-spread" in result.stdout


# ---------------------------------------------------------------------------
# the stage table
# ---------------------------------------------------------------------------

def test_tasks_are_evolve_and_the_stages_in_report_order():
    assert TASKS == ("evolve", *STAGES)
    assert list(STAGES) == ["invariants", "wigner", "kernel_check", "oracle_compare"]


@pytest.fixture(scope="module")
def free_spread():
    return load_config("free-spread")


def _failing_checks(report):
    sections = [section for task in STAGES if task in report for section in (
        report[task] if isinstance(report[task], list) else [report[task]])]
    return {name for section in sections
            for name, check in section.get("checks", {}).items() if not check["pass"]}


@pytest.mark.parametrize("entry", sorted(TOLERANCES))
def test_each_check_reads_its_tolerance_entry(monkeypatch, free_spread, entry):
    """free-spread reports every check, and passes them all.  With one
    entry of TOLERANCES at -1, the check of that name, and no other, fails
    and fails the run."""
    monkeypatch.setitem(TOLERANCES, entry, -1.0)
    report, _ = run_scenario(free_spread)
    assert _failing_checks(report) == {entry}
    assert report["pass"] is False


def test_pass_and_warnings_read_every_wigner_entry(monkeypatch, free_spread):
    """A check or a warning in a wigner entry reaches `pass` and
    `warned_sections` with no change to run_scenario."""
    wigner = STAGES["wigner"]

    def checked(*args, **kwargs):
        entries = wigner(*args, **kwargs)
        entries[-1]["checks"] = {"made_up": {"value": 1.0, "tolerance": 0.0, "pass": False}}
        entries[-1]["warnings"] = ["made up"]
        return entries

    report, _ = run_scenario(free_spread)
    assert report["pass"] is True and report["warned_sections"] == 1
    monkeypatch.setitem(STAGES, "wigner", checked)
    report, grids = run_scenario(free_spread)
    assert report["pass"] is False and report["warned_sections"] == 2
    assert "grid" not in report["wigner"][-1] and "grid" in grids[-1]


def test_run_without_invariants_neither_computes_nor_checks_them(monkeypatch):
    """The drift of det M and the step-doubling error belong to the
    invariants stage alone; a run without it solves once."""
    def forbidden(*args, **kwargs):
        raise AssertionError("called without the invariants task")

    monkeypatch.setattr(cli, "_invariants_stage", forbidden)
    solve = cli.solve_lambda
    calls = []
    monkeypatch.setattr(cli, "solve_lambda",
                        lambda *args, **kwargs: calls.append(1) or solve(*args, **kwargs))
    report, _ = run_scenario(parse_config(dict(SMALL_CONFIG, tasks=["evolve", "wigner"])))
    assert "invariants" not in report and report["pass"] is True
    assert len(calls) == 1


def test_layer_functions_are_looked_up_in_cli_at_call_time(monkeypatch, free_spread):
    """The benchmark times each layer by rebinding its name in wavepacket.cli;
    a run must call every one of them through that name."""
    calls = dict.fromkeys(("solve_lambda", "wavefunction", "split_step", "apply_kernel",
                           "wigner_numeric", "compare_states"), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    run_scenario(free_spread)
    # the packet is sampled for the two Wigner windows and, once for the
    # kernel and the oracle, at t = 0 and t_end
    assert calls == {"solve_lambda": 2, "wavefunction": 4, "split_step": 1,
                     "apply_kernel": 1, "wigner_numeric": 2, "compare_states": 1}
    calls.update(dict.fromkeys(calls, 0))
    run_scenario(parse_config(dict(BUILTIN_SCENARIOS["free-spread"],
                                   tasks=["evolve", "invariants"])))
    assert calls["wavefunction"] == 0
