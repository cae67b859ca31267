"""Tests for the scenario runner: config parsing, outputs, exit codes."""

import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from wavepacket.cli import (BUILTIN_SCENARIOS, CSV_FIELDS, CSV_HEADER, emit_outputs,
                            load_config, main, parse_config)
from wavepacket.errors import ConfigError
from wavepacket.wigner import PhaseSpaceGrid

SMALL_CONFIG = {
    "system": {"type": "free"},
    "packet": {"x0": 0.0, "p0": 1.0, "alpha0": 1.0},
    "time": {"t_end": 0.5, "dt": 0.001, "sample_every": 100},
    "grid": {"x_min": -15.0, "x_max": 15.0, "n_points": 256},
    "tasks": ["evolve", "invariants"],
}


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
    with pytest.raises(ConfigError, match="unknown task"):
        parse_config(dict(SMALL_CONFIG, tasks=["evolve", "frobnicate"]))
    with pytest.raises(ConfigError, match="integer multiple"):
        parse_config(dict(SMALL_CONFIG, time={"t_end": 0.55, "dt": 0.001,
                                              "sample_every": 100}))
    with pytest.raises(ConfigError, match="system.type"):
        parse_config(dict(SMALL_CONFIG, system={"type": "spring"}))


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
    assert checks["ermakov_rel_drift"]["value"] <= 1e-8
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
    emit_outputs({"samples": {name: np.empty(0) for name in CSV_FIELDS}},
                 [{"grid": grid, "index": 3, "t": 0.5}], tmp_path)
    rows = [ln for ln in (tmp_path / "wigner_t3.dat").read_text().splitlines(True)
            if not ln.startswith("#")]
    assert rows == [" ".join(f"{v:.17e}" for v in row) + "\n" for row in grid.values]


def test_ho_constant_width_report(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "ho-constant-width", "--output-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    checks = report["invariants"]["checks"]
    assert checks["det_M_drift"]["value"] <= 1e-9
    assert checks["ermakov_rel_drift"]["value"] <= 1e-8
    for r in report["samples"]:
        assert r["p_phi"] == pytest.approx(0.5, abs=1e-10)
    assert report["kernel_check"]["checks"]["kernel_ode_residual"]["pass"]
    assert report["oracle_compare"]["checks"]["oracle_aligned_l2"]["pass"]


def test_frozen_width_demo_flags_non_canonical(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "frozen-width-demo", "--output-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    block = report["invariants"]["frozen_width"]
    assert block["non_canonical"] is True
    dets = {s["t"]: s["det"] for s in block["samples"]}
    assert dets[1.0] == pytest.approx(2.0, abs=1e-12)
    assert block["closed_form_max_abs_err"] <= 1e-12


def test_deterministic_outputs(tmp_path):
    cfg = write_config(tmp_path, dict(SMALL_CONFIG, output_dir=str(tmp_path / "a")))
    assert main(["run", cfg]) == 0
    assert main(["run", cfg, "--output-dir", str(tmp_path / "b")]) == 0
    for name in ("trajectory.csv", "report.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        # reports embed no paths or timestamps, so runs are bit-identical
        assert a == b


def test_strict_profile(tmp_path):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o"),
                 "--tolerance-profile", "strict"]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["tolerance_profile"] == "strict"
    assert report["pass"] is True


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
    # (t/alpha0^2)^2 overflows; with hbar = 1e-30 every record stays finite
    ({"constants": {"hbar": 1e-30, "mass": 1.0},
      "packet": {"x0": 0.5, "p0": 1.0, "alpha0": 1e-80}},
     "frozen_width det", 0.1),
], ids=["resonance", "frozen-width"])
def test_overflowing_sample_quantity_exits_3(tmp_path, capsys, overrides, quantity, t):
    """A derived quantity that is not finite is a divergence (exit 3) that
    names the quantity and the first sample time; no inf or NaN reaches
    report.json."""
    cfg = write_config(tmp_path, dict(SMALL_CONFIG, **overrides))
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert f"numerical divergence: non-finite {quantity} at t={t!r}" in err
    assert not (tmp_path / "o" / "report.json").exists()


def test_tiny_p0_det_vs_ermakov_identity_is_finite(tmp_path):
    """(m/(alpha0*p0))^2 overflows at p0 = 6.5e-280, but the identity is of
    order 1: the scale enters each square separately, so the check is
    finite and passes."""
    cfg = write_config(tmp_path, dict(
        SMALL_CONFIG, packet={"x0": 0.0, "p0": 6.5e-280, "alpha0": 1.0}))
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 0
    check = json.loads((tmp_path / "o" / "report.json").read_text())[
        "invariants"]["checks"]["det_vs_ermakov_identity"]
    assert math.isfinite(check["value"])
    assert check["pass"]


def test_exit_code_delta_limit(tmp_path):
    data = dict(SMALL_CONFIG,
                time={"t_end": 1e-10, "dt": 1e-10, "sample_every": 1},
                tasks=["evolve", "kernel_check"])
    cfg = write_config(tmp_path, data)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 4


def test_unreported_invariant_deviation_does_not_stop_evolve(tmp_path):
    """At x0 = 0 and a subnormal p0, m/(alpha0*p0) overflows, so the
    det_vs_ermakov_identity deviation is not finite; only the invariants
    task reports it, and a run without that task completes."""
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


def test_single_step_run_has_zero_euler_lagrange_residuals(tmp_path):
    """Two samples leave no interior point for the centered differences."""
    data = dict(SMALL_CONFIG, time={"t_end": 0.001, "dt": 0.001, "sample_every": 1})
    cfg = write_config(tmp_path, data)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 0
    checks = json.loads((tmp_path / "o" / "report.json").read_text())[
        "invariants"]["checks"]
    assert checks["euler_lagrange_phi"]["value"] == 0.0
    assert checks["euler_lagrange_alpha"]["value"] == 0.0


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
    """The time-dependent kernel is evaluated whatever det M is; the drift
    shows only in det_M_drift."""
    data = dict(BUILTIN_SCENARIOS["ho-breathing"],
                time={"t_end": 50.0, "dt": 0.05, "sample_every": 10},
                tasks=["evolve", "invariants", "kernel_check"])
    cfg = write_config(tmp_path, data)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["invariants"]["checks"]["det_M_drift"]["pass"] is False
    kernel_checks = report["kernel_check"]["checks"]
    assert set(kernel_checks) == {"kernel_ode_residual", "kernel_roundtrip_l2",
                                  "kernel_vs_analytic_l2"}
    assert kernel_checks["kernel_roundtrip_l2"]["pass"] is True


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
    the round trip fails, and the kernel section says why."""
    data = dict(BUILTIN_SCENARIOS["free-spread"],
                grid={"x_min": -6.0, "x_max": 6.0, "n_points": 256},
                tasks=["evolve", "invariants", "kernel_check", "wigner"])
    cfg = write_config(tmp_path, data)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    kernel = report["kernel_check"]
    assert kernel["checks"]["kernel_roundtrip_l2"]["pass"] is False
    assert kernel["warnings"] and all("probability mass" in w for w in kernel["warnings"])
    assert [entry["warnings"] for entry in report["wigner"]] == [[], []]
    assert report["warned_sections"] == 1


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
    assert kernel["checks"]["kernel_roundtrip_l2"]["pass"] is False
    flagged = [w for w in kernel["warnings"] if "kernel phase turns" in w]
    assert len(flagged) == 2   # the forward kernel and its adjoint


def test_kernel_check_compares_with_analytic_packet(tmp_path):
    """Both profiles check the forward kernel against propagate_analytic, at
    criterion 06's 1e-5 by default and 1e-6 when strict."""
    cfg = write_config(tmp_path, dict(BUILTIN_SCENARIOS["ho-constant-width"],
                                      tasks=["evolve", "kernel_check"]))
    for profile, tolerance in (("default", 1e-5), ("strict", 1e-6)):
        out = tmp_path / profile
        assert main(["run", cfg, "--output-dir", str(out),
                     "--tolerance-profile", profile]) == 0
        kernel = json.loads((out / "report.json").read_text())["kernel_check"]
        check = kernel["checks"]["kernel_vs_analytic_l2"]
        assert check["tolerance"] == tolerance
        assert check["value"] == kernel["kernel_vs_analytic_l2"] <= 1e-12


def test_cli_never_imports_fractions_or_decimal(tmp_path):
    """The .dat writer builds its exact powers of ten from Python ints; an
    import of fractions or decimal would add to every run's start-up."""
    code = ("import sys\n"
            "import numpy as np\n"
            "from wavepacket.cli import CSV_FIELDS, emit_outputs\n"
            "from wavepacket.wigner import PhaseSpaceGrid\n"
            "grid = PhaseSpaceGrid(x_min=0.0, dx=1.0, p_min=0.0, dp=1.0,\n"
            "                      values=np.full((2, 3), 0.5))\n"
            "report = {'samples': {name: np.empty(0) for name in CSV_FIELDS}}\n"
            f"emit_outputs(report, [{{'grid': grid, 'index': 0, 't': 0.0}}], {str(tmp_path)!r})\n"
            "assert 'fractions' not in sys.modules, 'fractions'\n"
            "assert 'decimal' not in sys.modules, 'decimal'\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_builtin_run_never_imports_scipy(tmp_path):
    code = ("import sys\n"
            "from wavepacket.cli import main\n"
            f"code = main(['run', 'free-spread', '--output-dir', {str(tmp_path)!r}])\n"
            "assert 'scipy' not in sys.modules\n"
            "sys.exit(code)\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
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
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
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
        ["run", cfg, "--output-dir", str(tmp_path / "out"),
         "--tolerance-profile", "strict"],
        ["describe", "ho-breathing"],
        ["run"],
        ["list-scenarios"],
        ["run", cfg, "--tolerance-profile", "lenient"],
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
    result = subprocess.run([sys.executable, "-m", "wavepacket", "list-scenarios"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "free-spread" in result.stdout
