"""The column pipeline against the per-sample scalar reference.

run_scenario computes every record and invariant-summary value on whole
columns; tests/scalar_reference.py keeps the loop that computed them one
sample at a time.  Both must give the same floats to the last bit.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from wavepacket.cli import CSV_FIELDS, emit_outputs, parse_config, run_scenario
from wavepacket.core import ModulatedOmega, is_free_motion
from wavepacket.evolution import solve_lambda
from wavepacket.invariants import record_columns

import scalar_reference
from strategies import FINITE, law



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

    assert traj.samples == scalar_reference.samples(traj)
    for state, classical in traj.samples:
        for value in (state.t, state.alpha, state.alpha_dot, state.phi, state.phi_dot,
                      classical.t, classical.eta, classical.eta_dot):
            assert type(value) is float

    records = scalar_reference.sample_records(config, traj)
    assert report["samples"] == records
    for record in report["samples"]:
        assert all(type(value) is float for value in record.values())
    # == cannot tell -0.0 from 0.0, the file can
    assert json.dumps(report["samples"]) == json.dumps(records)

    checks = {name: entry["value"]
              for name, entry in report["invariants"]["checks"].items()}
    assert checks == scalar_reference.invariant_checks(config, traj, records)
    assert ("det_vs_ermakov_identity" in checks) == (
        config.packet.p0 != 0.0 and config.packet.x0 == 0.0)
    if is_free_motion(config.system.frequency_law):
        block = report["invariants"]["frozen_width"]
        samples, worst = scalar_reference.frozen_width(config, records)
        assert block["samples"] == samples
        assert block["closed_form_max_abs_err"] == worst

    with tempfile.TemporaryDirectory() as out:
        emit_outputs(report, [], out)
        lines = (Path(out) / "trajectory.csv").read_text().splitlines()[1:]
    assert not any("np.float64" in line for line in lines)
    assert lines == [",".join(repr(r[f]) for f in CSV_FIELDS) for r in records]


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
