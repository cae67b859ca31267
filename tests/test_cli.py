"""Tests for the scenario runner: config parsing, outputs, exit codes."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from wavepacket.cli import (BUILTIN_SCENARIOS, CSV_HEADER, emit_outputs, load_config,
                            main, parse_config)
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
    emit_outputs({}, [{"grid": grid, "index": 3, "t": 0.5}], tmp_path,
                 write_trajectory=False)
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


def test_exit_code_divergence(tmp_path):
    data = dict(SMALL_CONFIG,
                system={"type": "tabulated", "points": [[0.0, 1e300], [10.0, 1e300]]},
                time={"t_end": 1.0, "dt": 0.001, "sample_every": 100})
    cfg = write_config(tmp_path, data)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 3


def test_exit_code_delta_limit(tmp_path):
    data = dict(SMALL_CONFIG,
                time={"t_end": 1e-10, "dt": 1e-10, "sample_every": 1},
                tasks=["evolve", "kernel_check"])
    cfg = write_config(tmp_path, data)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 4


# ---------------------------------------------------------------------------
# auxiliary commands
# ---------------------------------------------------------------------------

def test_every_builtin_scenario_completes(tmp_path):
    """Stated invariant: all built-ins finish with their full task lists."""
    for name in BUILTIN_SCENARIOS:
        out = tmp_path / name
        assert main(["run", name, "--output-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is True, name


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


def test_console_entry_point():
    result = subprocess.run([sys.executable, "-m", "wavepacket", "list-scenarios"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "free-spread" in result.stdout
