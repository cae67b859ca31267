"""Tests for the split-operator oracle and state comparison."""

import math

import numpy as np
import pytest

from wavepacket.core import (Constants, ConstantOmega, Free, InitialPacket,
                             RampOmega, SystemSpec, TabulatedOmega)
from wavepacket.errors import CapabilityError, DivergenceError, ValidationError
from wavepacket.evolution import solve_lambda
from wavepacket.kernels import ComplexGrid
from wavepacket.oracle import (FINITE_CHECK_EVERY, GridState, compare_states,
                               quadrature_moments, split_step)
from wavepacket.packet import moments_from_lambda, wavefunction

from scalar_reference import omega_at

C = Constants()
FREE = SystemSpec(C, Free())
HO = SystemSpec(C, ConstantOmega(1.0))
X = np.linspace(-15.0, 15.0, 1024)


def analytic_states(system, packet, t):
    traj = solve_lambda(system, packet, [0.0, t] if t > 0 else [0.0])
    psi0 = wavefunction(traj, 0, X)
    psi_t = wavefunction(traj, len(traj) - 1, X)
    return traj, GridState(psi0, 0.0), GridState(psi_t, t)


def reference_split_step(state, system, dt, steps):
    """Plain Strang loop, one V/2 . T . V/2 product per step, rebuilt every step."""
    c = system.constants
    grid = state.grid
    x = grid.x()
    p = 2.0 * math.pi * c.hbar * np.fft.fftfreq(grid.n, d=grid.dx)
    kinetic = np.exp(-0.5j * dt * p * p / (c.mass * c.hbar))
    psi = grid.values.copy()
    t = state.t
    for _ in range(steps):
        w_mid = omega_at(system, t + 0.5 * dt)
        half_v = np.exp(-0.25j * dt * c.mass * w_mid * w_mid * x * x / c.hbar)
        psi = half_v * np.fft.ifft(kinetic * np.fft.fft(half_v * psi))
        t += dt
    return psi, t


def merged_strang_reference(state, system, dt, steps):
    """The merged Strang loop through np.fft, V/2 . (T . V)^(steps-1) . T . V/2,
    with w^2 listed for every step midpoint and no one-factor rule."""
    c = system.constants
    grid = state.grid
    x = grid.x()
    p = 2.0 * math.pi * c.hbar * np.fft.fftfreq(grid.n, d=grid.dx)
    kinetic = np.exp(-0.5j * dt * p * p / (c.mass * c.hbar)) / grid.n
    quarter_phase = (-0.25j * dt * c.mass / c.hbar) * (x * x)
    w2s = []
    t_k = state.t
    for start in range(0, steps, FINITE_CHECK_EVERY):
        starts = np.cumsum([t_k] + [dt] * (min(FINITE_CHECK_EVERY, steps - start) - 1))
        t_k = starts[-1] + dt
        w = system.frequency_law.omega(starts + 0.5 * dt)
        w2s.extend((w * w).tolist())
    t = state.t
    psi = np.exp(w2s[0] * quarter_phase) * grid.values
    spectrum = np.empty_like(psi)
    pair, merged = None, None
    for k in range(1, steps + 1):
        np.fft.fft(psi, out=spectrum)
        spectrum *= kinetic
        np.fft.ifft(spectrum, norm="forward", out=psi)
        t += dt
        if k < steps:
            if pair != (w2s[k - 1], w2s[k]):
                pair = (w2s[k - 1], w2s[k])
                merged = np.exp((w2s[k - 1] + w2s[k]) * quarter_phase)
            psi *= merged
        else:
            psi *= np.exp(w2s[k - 1] * quarter_phase)
    return psi, t


@pytest.mark.parametrize("law", [
    ConstantOmega(1.0),
    RampOmega(1.0, 0.25),
    # constant on [0, 0.4], so merged factors are reused there, then ramps
    TabulatedOmega((0.0, 0.4, 0.7, 1.0), (1.2, 1.2, 0.8, 1.5)),
    # w = 0 for the first 75 steps, a whole block and more, then not: no
    # one-factor rule
    TabulatedOmega((0.0, 0.15, 0.7, 1.0), (0.0, 0.0, 0.8, 1.5)),
    # w = 0 at every midpoint, but only Free and ConstantOmega(0) are free
    # motion: these take the steps too
    RampOmega(0.0, 0.0),
    TabulatedOmega((0.0, 0.5, 1.0), (0.0, 0.0, 0.0)),
], ids=["constant", "ramp", "tabulated", "tabulated-zero-start", "ramp-zero",
        "tabulated-zero"])
@pytest.mark.parametrize("steps", [2 * FINITE_CHECK_EVERY, 4 * FINITE_CHECK_EVERY + 5])
def test_split_step_equals_merged_strang_loop(law, steps):
    """The direct gufunc calls leave every bit of the merged loop unchanged."""
    system = SystemSpec(C, law)
    _, s0, _ = analytic_states(system, InitialPacket(0.3, 1.0, 1.2), 0.0)
    expected, t_end = merged_strang_reference(s0, system, 2e-3, steps)
    out = split_step(s0, system, 2e-3, steps)
    assert out.t == t_end
    assert np.array_equal(out.grid.values, expected)


def test_zero_frequency_is_one_kinetic_factor():
    """Free and ConstantOmega(0), the free-motion laws, give T^steps as one
    factor; t is still summed one dt at a time."""
    _, s0, _ = analytic_states(FREE, InitialPacket(0.3, 1.0, 1.2), 0.0)
    dt, steps = 2e-3, 3 * FINITE_CHECK_EVERY + 5
    out = split_step(s0, FREE, dt, steps)
    p = 2.0 * math.pi * C.hbar * np.fft.fftfreq(s0.grid.n, d=s0.grid.dx)
    span_kinetic = np.exp(-0.5j * (steps * dt) * p * p / (C.mass * C.hbar)) / s0.grid.n
    one_factor = np.fft.ifft(np.fft.fft(s0.grid.values) * span_kinetic, norm="forward")
    assert np.array_equal(out.grid.values, one_factor)
    zero = split_step(s0, SystemSpec(C, ConstantOmega(0.0)), dt, steps)
    assert np.array_equal(zero.grid.values, out.grid.values)
    t = 0.0
    for _ in range(steps):
        t += dt
    assert out.t == zero.t == t


@pytest.mark.parametrize("law", [
    Free(),
    ConstantOmega(1.0),
    RampOmega(1.0, 0.25),
    # constant on [0, 0.4], so merged factors are reused there, then ramps
    TabulatedOmega((0.0, 0.4, 0.7, 1.0), (1.2, 1.2, 0.8, 1.5)),
], ids=["free", "constant", "ramp", "tabulated"])
def test_split_step_matches_per_step_strang_loop(law):
    system = SystemSpec(C, law)
    _, s0, _ = analytic_states(system, InitialPacket(0.3, 1.0, 1.2), 0.0)
    dt, steps = 2e-3, 500
    expected, t_end = reference_split_step(s0, system, dt, steps)
    out = split_step(s0, system, dt, steps)
    assert out.t == t_end
    assert np.max(np.abs(out.grid.values - expected)) <= 1e-12


@pytest.mark.parametrize("steps", [10, 3 * FINITE_CHECK_EVERY + 5])
def test_overflowing_law_raises_divergence(steps):
    """w^2 overflows to inf on the first step; the state goes non-finite and
    the error names the end of the first checked block."""
    system = SystemSpec(C, RampOmega(1.0, 1e200))
    _, s0, _ = analytic_states(FREE, InitialPacket(0.0, 1.0, 1.0), 0.0)
    dt = 1e-3
    with pytest.raises(DivergenceError) as err:
        split_step(s0, system, dt, steps)
    assert err.value.t == pytest.approx(min(steps, FINITE_CHECK_EVERY) * dt)


def test_zero_steps_returns_input():
    _, s0, _ = analytic_states(FREE, InitialPacket(0.0, 1.0, 1.0), 0.0)
    assert split_step(s0, FREE, 1e-3, 0) is s0


def test_free_packet_matches_analytic():
    _, s0, ref = analytic_states(FREE, InitialPacket(0.0, 1.0, 1.0), 1.0)
    out = split_step(s0, FREE, 1e-3, 1000)
    aligned, _ = compare_states(out.grid, ref.grid, C.hbar)
    assert aligned <= 1e-6


def test_ho_ground_width_density_stationary():
    """|psi|^2 of the moving ground-width packet at rest stays put."""
    packet = InitialPacket(0.0, 0.0, 1.0)
    _, s0, _ = analytic_states(HO, packet, 0.0)
    density0 = np.abs(s0.grid.values) ** 2
    state = s0
    quarter = math.pi / 2.0
    steps = round(quarter / 1e-3)
    for _ in range(4):  # one full period in quarter hops
        state = split_step(state, HO, quarter / steps, steps)
        assert np.max(np.abs(np.abs(state.grid.values) ** 2 - density0)) <= 1e-7


def test_second_order_convergence():
    packet = InitialPacket(0.0, 1.0, 1.0)
    _, s0, ref = analytic_states(HO, packet, 1.0)
    errors = {}
    for dt in (4e-3, 2e-3):
        out = split_step(s0, HO, dt, round(1.0 / dt))
        aligned, _ = compare_states(out.grid, ref.grid, C.hbar)
        errors[dt] = aligned
    ratio = errors[4e-3] / errors[2e-3]
    assert 3.5 <= ratio <= 4.5


def test_norm_preserved():
    _, s0, _ = analytic_states(HO, InitialPacket(0.0, 1.0, 1.3), 0.0)
    out = split_step(s0, HO, 1e-3, 2000)
    assert abs(out.grid.norm() - 1.0) <= 1e-9


def test_compare_identical_states():
    _, s0, _ = analytic_states(FREE, InitialPacket(0.0, 1.0, 1.0), 0.0)
    aligned, moments = compare_states(s0.grid, s0.grid, C.hbar)
    assert aligned == 0.0
    assert all(m == 0.0 for m in moments)


def test_compare_small_perturbation():
    """A phase perturbation exp(i*delta*x) of the centred packet has aligned
    error delta*sqrt(<x~^2>) to first order: resolved, not rounded to 0."""
    _, s0, _ = analytic_states(FREE, InitialPacket(0.0, 1.0, 1.0), 0.0)
    delta = 1e-9
    perturbed = ComplexGrid(s0.grid.x_min, s0.grid.dx,
                            s0.grid.values * np.exp(1j * delta * X))
    aligned, _ = compare_states(s0.grid, perturbed, C.hbar)
    _, _, var_x, _, _ = quadrature_moments(s0.grid, C.hbar)
    assert aligned == pytest.approx(delta * math.sqrt(var_x), rel=1e-6)


def test_compare_global_phase():
    _, s0, _ = analytic_states(FREE, InitialPacket(0.0, 1.0, 1.0), 0.0)
    rotated = ComplexGrid(s0.grid.x_min, s0.grid.dx, s0.grid.values * np.exp(0.7j))
    aligned, _ = compare_states(s0.grid, rotated, C.hbar)
    assert aligned <= 1e-12


def test_oracle_moments_match_analytic():
    packet = InitialPacket(0.0, 1.0, 1.0)
    traj, s0, ref = analytic_states(FREE, packet, 1.0)
    out = split_step(s0, FREE, 1e-3, 1000)
    _, moment_errors = compare_states(out.grid, ref.grid, C.hbar)
    assert all(err <= 1e-6 for err in moment_errors)

    # and the quadrature moments agree with the lambda-variable forms
    m = moments_from_lambda(traj[-1], C)
    mean_x, mean_p, var_x, var_p, corr = quadrature_moments(out.grid, C.hbar)
    assert mean_x == pytest.approx(1.0, abs=1e-6)
    assert mean_p == pytest.approx(1.0, abs=1e-6)
    assert var_x == pytest.approx(m.var_x, abs=1e-6)
    assert var_p == pytest.approx(m.var_p, abs=1e-6)
    assert corr == pytest.approx(m.corr, abs=1e-6)


@pytest.mark.parametrize("system, packet", [
    (FREE, InitialPacket(0.0, 1.0, 1.0)),
    (HO, InitialPacket(0.0, 1.0, 1.0)),
    (HO, InitialPacket(0.0, 1.0, 1.5)),
    (SystemSpec(C, RampOmega(1.0, 0.25)), InitialPacket(0.0, 1.0, 1.0)),
])
def test_oracle_moments_all_scenarios(system, packet):
    traj, s0, _ = analytic_states(system, packet, 2.0)
    out = split_step(s0, system, 1e-3, 2000)
    m = moments_from_lambda(traj[-1], C)
    _, _, var_x, var_p, corr = quadrature_moments(out.grid, C.hbar)
    assert abs(var_x - m.var_x) <= 1e-6
    assert abs(var_p - m.var_p) <= 1e-6
    assert abs(corr - m.corr) <= 1e-6


def test_nyquist_violation_raises():
    """A packet with momentum far beyond the grid resolution is rejected."""
    coarse = np.linspace(-15.0, 15.0, 64)
    traj = solve_lambda(FREE, InitialPacket(0.0, 6.0, 1.0), [0.0])
    psi = wavefunction(traj, 0, coarse)
    values = psi.values / psi.norm()  # renormalize the coarse samples
    state = GridState(ComplexGrid(psi.x_min, psi.dx, values), 0.0)
    with pytest.raises(CapabilityError):
        split_step(state, FREE, 1e-3, 1)


def test_grid_mismatch_rejected():
    _, a, _ = analytic_states(FREE, InitialPacket(0.0, 1.0, 1.0), 0.0)
    other = np.linspace(-10.0, 10.0, 1024)
    traj = solve_lambda(FREE, InitialPacket(0.0, 1.0, 1.0), [0.0])
    b = GridState(wavefunction(traj, 0, other), 0.0)
    with pytest.raises(ValidationError, match="share a grid"):
        compare_states(a.grid, b.grid, C.hbar)


def test_grid_state_requires_unit_norm():
    values = np.exp(-X ** 2).astype(complex)
    with pytest.raises(ValidationError):
        GridState(ComplexGrid(float(X[0]), float(X[1] - X[0]), values), 0.0)


def test_split_step_rejects_bad_arguments():
    _, s0, _ = analytic_states(FREE, InitialPacket(0.0, 1.0, 1.0), 0.0)
    with pytest.raises(ValidationError):
        split_step(s0, FREE, -1e-3, 10)
    with pytest.raises(ValidationError):
        split_step(s0, FREE, 1e-3, -1)
