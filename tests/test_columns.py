"""The column pipeline against the per-sample scalar reference.

run_scenario computes every record and invariant-summary value on whole
columns; tests/scalar_reference.py keeps the loop that computed them one
sample at a time.  Both must give the same floats to the last bit, except
the Euler-Lagrange residuals, which read the run's own integrator steps
and agree with the reference's second solve to rounding.  emit_outputs
writes the columns as the json module and the per-record writer wrote
the records.
"""

import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavepacket import cli, rowformat
from wavepacket.cli import (BUILTIN_SCENARIOS, CSV_FIELDS, emit_outputs, main,
                            parse_config, run_scenario)
from wavepacket.core import ModulatedOmega, is_free_motion
from wavepacket.evolution import solve_lambda
from wavepacket.invariants import euler_lagrange_residuals, record_columns
from wavepacket.rowformat import write_report

import scalar_reference
from strategies import FINITE, law

EL_CHECKS = ("euler_lagrange_phi", "euler_lagrange_alpha")



@st.composite
def _configs(draw):
    dt = draw(st.floats(1e-3, 0.02, **FINITE))
    sample_every = draw(st.integers(1, 100))
    t_end = draw(st.integers(1, 60)) * dt * sample_every
    x0 = draw(st.one_of(st.just(0.0), st.floats(-3.0, 3.0, **FINITE)))
    # at p0 = 6.5e-280 the scale (m/(alpha0*p0))^2 of det_vs_ermakov_identity
    # alone would overflow
    p0 = draw(st.one_of(st.just(0.0), st.just(6.5e-280),
                        st.floats(1e-3, 3.0, **FINITE)))
    return {
        "constants": {"hbar": draw(st.floats(0.1, 3.0, **FINITE)),
                      "mass": draw(st.floats(0.1, 3.0, **FINITE))},
        "system": law(draw, t_end),
        "packet": {"x0": x0, "p0": draw(st.sampled_from((1.0, -1.0))) * p0,
                   "alpha0": draw(st.floats(0.2, 3.0, **FINITE))},
        "time": {"t_end": t_end, "dt": dt, "sample_every": sample_every},
        "grid": {"x_min": -15.0, "x_max": 15.0, "n_points": 64},
        "tasks": ["evolve", "invariants"],
    }


@settings(max_examples=150, deadline=None)
@given(data=_configs())
def test_columns_equal_scalar_reference(data):
    config = parse_config(data)
    report, _ = run_scenario(config)
    traj = solve_lambda(config.system, config.packet, config.sample_times(), dt=config.dt)

    # every column equals the scalar formula, to the bit
    assert [scalar_reference.pair(s) for s in traj] == list(scalar_reference.samples(traj))
    for sample in traj:
        for value in vars(sample).values():
            assert type(value) is float

    records = scalar_reference.sample_records(config, traj)
    columns = report["samples"]
    assert list(columns) == list(records[0])
    for name, column in columns.items():
        assert column.dtype == np.float64
        # == cannot tell -0.0 from 0.0, the file can
        assert json.dumps(column.tolist()) == json.dumps([r[name] for r in records])

    checks = {name: entry["value"]
              for name, entry in report["invariants"]["checks"].items()}
    assert {k: v for k, v in checks.items() if k not in EL_CHECKS} == (
        scalar_reference.invariant_checks(config, traj, records))
    steps = scalar_reference.kept_steps(config.system, config.packet, config.sample_times(),
                                        config.dt, round(min(config.t_end, 2.0) / config.dt))
    res_phi, res_alpha = euler_lagrange_residuals(steps)
    assert checks["euler_lagrange_phi"] == float(res_phi.max(initial=0.0))
    assert checks["euler_lagrange_alpha"] == float(res_alpha.max(initial=0.0))
    _assert_el_close(config, checks)
    assert ("det_vs_ermakov_identity" in checks) == (
        config.packet.p0 != 0.0 and config.packet.x0 == 0.0)
    if is_free_motion(config.system.frequency_law):
        block = report["invariants"]["frozen_width"]
        samples, worst = scalar_reference.frozen_width(config, records)
        assert block["samples"] == samples
        assert block["closed_form_max_abs_err"] == worst

    with tempfile.TemporaryDirectory() as out:
        emit_outputs(report, [], out)
        scalar_reference.write_trajectory_csv(Path(out) / "reference.csv", records)
        csv = (Path(out) / "trajectory.csv").read_bytes()
        assert csv == (Path(out) / "reference.csv").read_bytes()
        raw = (Path(out) / "report.json").read_text()
    assert raw == json.dumps(report | {"samples": records}, indent=2) + "\n"


def test_record_columns_evaluate_omega_once(monkeypatch):
    config = parse_config({
        "system": {"type": "modulated", "omega0": 1.0, "epsilon": 0.2, "gamma": 2.0},
        "packet": {"x0": 0.0, "p0": 1.0, "alpha0": 1.2},
        "time": {"t_end": 1.0, "dt": 0.01, "sample_every": 10},
        "grid": {"x_min": -15.0, "x_max": 15.0, "n_points": 64},
        "tasks": ["evolve"],
    })
    traj = solve_lambda(config.system, config.packet, config.sample_times(), dt=config.dt)
    calls = []
    omega = ModulatedOmega.omega
    monkeypatch.setattr(ModulatedOmega, "omega",
                        lambda self, t: calls.append(np.shape(t)) or omega(self, t))
    record_columns(traj)
    assert calls == [(len(traj),)]


def _assert_el_close(config, checks):
    """The run's Euler-Lagrange values against the reference's second solve,
    within its rounding bounds."""
    el_phi, el_alpha, phi_bound, alpha_bound = scalar_reference.fine_euler_lagrange(config)
    assert abs(checks["euler_lagrange_phi"] - el_phi) <= phi_bound
    assert abs(checks["euler_lagrange_alpha"] - el_alpha) <= alpha_bound


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builtin_run_solves_once_and_writes_reference_bytes(name, tmp_path, monkeypatch):
    """A run integrates once; its Euler-Lagrange values agree with the
    second solve they once ran; report.json is the json module's bytes
    and trajectory.csv the per-record writer's."""
    calls = []
    solve = cli.solve_lambda
    monkeypatch.setattr(cli, "solve_lambda",
                        lambda *args, **kwargs: calls.append(1) or solve(*args, **kwargs))
    out = tmp_path / "out"
    assert main(["run", name, "--output-dir", str(out)]) == 0
    assert len(calls) == 1

    raw = (out / "report.json").read_text()
    report = json.loads(raw)
    assert raw == json.dumps(report, indent=2) + "\n"
    checks = {k: v["value"] for k, v in report["invariants"]["checks"].items()}
    _assert_el_close(cli.load_config(name), checks)
    scalar_reference.write_trajectory_csv(tmp_path / "reference.csv", report["samples"])
    assert (out / "trajectory.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


# floats whose repr takes each of its forms: signed zeros, subnormals down
# to 5e-324, exponent forms from 1e16 up and below 1e-4, integral values
_REPR_FLOATS = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16,
                     -1e16, 1e-4, 9.999999999999999e-05, 1.0, -3.0, 1.7976931348623157e308)),
    st.floats(-1e-300, 1e-300, **FINITE),
    st.floats(1e15, 1e300, **FINITE),
    st.floats(1e-320, 1e-4, **FINITE),
    st.integers(-2 ** 60, 2 ** 60).map(float),
    st.floats(**FINITE),
)
_NAMES = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(**FINITE),
              st.text(max_size=5)),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)


@st.composite
def _reports(draw):
    """A report with a samples block of columns, the trajectory.csv fields
    among them in any order, and the same report with one record per
    sample in that block."""
    names = draw(st.permutations(CSV_FIELDS + ("ermakov_residual",)))
    n = draw(st.integers(0, 12))
    columns = {name: np.array(draw(st.lists(_REPR_FLOATS, min_size=n, max_size=n)),
                              dtype=np.float64)
               for name in names}
    before = draw(st.dictionaries(_NAMES, _JSON, max_size=3))
    # no key of `after` may replace the samples block
    after = draw(st.dictionaries(
        _NAMES.filter(lambda k: k not in before and k != "samples"), _JSON, max_size=3))
    report = before | {"samples": columns} | after
    records = [dict(zip(names, row)) for row in zip(*(c.tolist() for c in columns.values()))]
    return report, report | {"samples": records}


@settings(max_examples=40, deadline=None)
@given(reports=_reports(), piece=st.integers(1, 5))
def test_writers_give_json_and_per_record_bytes(reports, piece):
    """Pieces of a few records, so that a dozen samples span several."""
    report, reference = reports
    with tempfile.TemporaryDirectory() as out, \
            mock.patch.object(rowformat, "RECORDS_PER_PIECE", piece):
        emit_outputs(report, [], out)
        scalar_reference.write_trajectory_csv(Path(out) / "reference.csv",
                                              reference["samples"])
        csv = (Path(out) / "trajectory.csv").read_bytes()
        assert csv == (Path(out) / "reference.csv").read_bytes()
        raw = (Path(out) / "report.json").read_text()
    assert raw == json.dumps(reference, indent=2) + "\n"

    without = {k: v for k, v in report.items() if k != "samples"}
    fh = io.StringIO()
    write_report(fh, without, {})
    assert fh.getvalue() == json.dumps(without, indent=2) + "\n"
