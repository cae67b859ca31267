"""The column pipeline against the per-sample scalar reference, and the
identities that tie the invariant columns to det M.

run_scenario computes every record and invariant-summary value on whole
columns; tests/scalar_reference.py keeps the loop that computed them one
sample at a time.  Both must give the same floats to the last bit, except
the Euler-Lagrange residual, which reads the run's own integrator steps
and agrees with the reference's second solve to rounding.  emit_outputs
writes the columns as the json module and the per-record writer wrote
the records.

p_phi, the invariant uncertainty product, the Ermakov residual and I_L
are det M = W written through other formulas, and the invariant summary
checks W alone: each column equals its W formula within the rounding of
its own terms.
"""

import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wavepacket import cli, rowformat
from wavepacket.cli import (BUILTIN_SCENARIOS, CSV_FIELDS, emit_outputs, main,
                            parse_config, run_scenario)
from wavepacket.core import ModulatedOmega
from wavepacket.errors import DivergenceError
from wavepacket.evolution import solve_lambda
from wavepacket.invariants import euler_lagrange_residuals, record_columns
from wavepacket.rowformat import write_report

import scalar_reference
from strategies import FINITE, law, valid_configs

EPS = np.finfo(float).eps



@st.composite
def _configs(draw):
    dt = draw(st.floats(1e-3, 0.02, **FINITE))
    sample_every = draw(st.integers(1, 100))
    t_end = draw(st.integers(1, 60)) * dt * sample_every
    x0 = draw(st.one_of(st.just(0.0), st.floats(-3.0, 3.0, **FINITE)))
    # at p0 = 6.5e-280 the square of the scale m/(alpha0*p0) that ties I_L
    # to det M would overflow
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
    el = checks.pop("euler_lagrange_alpha")
    assert checks == scalar_reference.invariant_checks(records)
    steps = scalar_reference.kept_steps(config.system, config.packet, config.sample_times(),
                                        config.dt, round(min(config.t_end, 2.0) / config.dt))
    assert el == float(euler_lagrange_residuals(steps).max(initial=0.0))
    _assert_el_close(config, el)

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


def _assert_el_close(config, el):
    """The run's Euler-Lagrange value against the reference's second solve,
    within its rounding bound."""
    el_alpha, bound = scalar_reference.fine_euler_lagrange(config)
    assert abs(el - el_alpha) <= bound


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builtin_run_solves_once_and_writes_reference_bytes(name, tmp_path, monkeypatch):
    """A run integrates once; its Euler-Lagrange value agrees with the
    second solve it once ran; report.json is the json module's bytes
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
    _assert_el_close(cli.load_config(name),
                     report["invariants"]["checks"]["euler_lagrange_alpha"]["value"])
    scalar_reference.write_trajectory_csv(tmp_path / "reference.csv", report["samples"])
    assert (out / "trajectory.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def _identity_defects(config, traj, columns):
    """{identity: the largest of |column - its W formula| - its bound} over
    the samples; the column holds its identity where the value is <= 0.

    Each bound is 16 eps times the magnitudes of the formula's own terms:
    W = zd*u - ud*z rounds within eps*(|zd*u| + |ud*z|), and so on.  For a
    release from x0 = 0, eta = z/s and eta' = zd/s with s = m/(alpha0*p0),
    so 2*s^2*I_L = (s*(eta'*alpha - alpha'*eta))^2 + (s*eta/alpha)^2; it is
    summed with the scale inside each square where doubles carry it: p0/m
    a normal double and s finite.  That sum reads phi' as 1/alpha^2, so it is
    (u^2*W^2 + z^2)/alpha^2, which differs from W by (W - 1)*(u^2*W - z^2)/alpha^2."""
    c, packet, s = config.constants, config.packet, traj.columns
    u, ud, z, zd = s.u_hat, s.u_hat_dot, s.z_hat, s.z_hat_dot
    alpha, alpha_dot = columns["alpha"], columns["alpha_dot"]
    w = config.system.frequency_law.omega(s.t)
    det = columns["det_M"]
    cross = np.abs(zd * u) + np.abs(ud * z)              # the terms of W
    dot = np.abs(ud * u) + np.abs(zd * z)                # those of alpha*alpha'
    defects = {
        "p_phi": (np.abs(columns["p_phi"] - 0.5 * c.hbar * det),
                  16.0 * EPS * 0.5 * c.hbar * cross),
        "invariant_uncertainty_product": (
            np.abs(columns["invariant_uncertainty_product"] - 0.25 * c.hbar ** 2 * det * det),
            16.0 * EPS * columns["var_x"] * columns["var_p"]),
        "ermakov_residual": (
            np.abs(columns["ermakov_residual"] - np.abs(det * det - 1.0) / alpha ** 3),
            16.0 * EPS * ((ud * ud + zd * zd + w * w * alpha * alpha
                           + dot * dot / (alpha * alpha)) / alpha
                          + w * w * alpha + (1.0 + cross * cross) / alpha ** 3)),
    }
    with np.errstate(all="ignore"):
        scale = np.float64(c.mass) / (packet.alpha0 * packet.p0)
    if (packet.x0 == 0.0 and np.isfinite(scale)
            and abs(packet.p0 / c.mass) >= np.finfo(float).smallest_normal):
        eta, eta_dot = columns["eta"], columns["eta_dot"]
        a = scale * (eta_dot * alpha - alpha_dot * eta)
        b = scale * (eta / alpha)
        a_terms = np.abs(scale) * (np.abs(eta_dot * alpha) + np.abs(eta) * dot / alpha)
        defects["2*s^2*I_L"] = (
            np.abs(scalar_reference.det_as_ermakov(
                eta, eta_dot, alpha, alpha_dot, packet.alpha0, packet.p0, c.mass) - det),
            16.0 * EPS * (cross + a_terms * a_terms + b * b)
            + np.abs(det - 1.0) * (u * u * np.abs(det) + z * z) / (alpha * alpha))
        # the column itself is that sum over 2*s^2, down to subnormal I_L
        defects["I_L"] = (np.abs(columns["I_L"] - 0.5 * (a * a + b * b) / scale / scale),
                          16.0 * (EPS * columns["I_L"] + np.finfo(float).smallest_normal))
    return {name: float((difference - bound).max())
            for name, (difference, bound) in defects.items()}


@settings(max_examples=150, deadline=None)
@given(data=valid_configs())
# (m/(alpha0*p0))^2 overflows at p0 = 6.5e-280, and I_L underflows, but
# with the scale inside each square 2*s^2*I_L is still W
@example(data={"system": {"type": "free"},
               "packet": {"x0": 0.0, "p0": 6.5e-280, "alpha0": 1.0},
               "time": {"t_end": 0.5, "dt": 0.001, "sample_every": 100},
               "grid": {"x_min": -15.0, "x_max": 15.0, "n_points": 64},
               "tasks": ["evolve", "invariants"]})
def test_invariant_columns_are_det_m_through_their_formulas(data):
    """p_phi = (hbar/2)*W, the invariant uncertainty product (hbar^2/4)*W^2,
    the Ermakov residual |W^2 - 1|/alpha^3 and, for x0 = 0,
    2*(m/(alpha0*p0))^2 * I_L = W, where W is the det_M column."""
    config = parse_config(data)
    traj = solve_lambda(config.system, config.packet, config.sample_times(), dt=config.dt)
    try:
        columns = record_columns(traj)
    except DivergenceError:
        return              # a column overflowed: the run exits 3 and reports none
    defects = _identity_defects(config, traj, columns)
    assert all(d <= 0.0 for d in defects.values()), defects


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
