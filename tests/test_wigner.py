"""Tests for the Wigner transform, closed form, and phase-space transport."""

import math
import tracemalloc

import numpy as np
import pytest

from wavepacket.cli import BUILTIN_SCENARIOS, parse_config, run_scenario
from wavepacket.core import (Constants, ConstantOmega, Free, InitialPacket, SystemSpec,
                             TransformMatrix)
from wavepacket.errors import ValidationError
from wavepacket.evolution import solve_lambda
from wavepacket.invariants import frozen_width_matrix, matrix_from_state
from wavepacket.kernels import ComplexGrid, apply_kernel, kernel_ti
from wavepacket.packet import Moments, evaluate_wavefunction, moments_from_lambda, \
    propagate_analytic
from wavepacket.wigner import (PhaseSpaceGrid, _half_step_refine, wigner_gaussian,
                               wigner_numeric, wigner_pointmap)

from scalar_reference import marginal_p

C = Constants()
FREE = SystemSpec(C, Free())
HO = SystemSpec(C, ConstantOmega(1.0))


def transform_setup(system, packet, t, nx=256, n_p=257, span=8.0, pad=1.5):
    """Trajectory, wavefunction on a padded grid, Wigner grid windowed to
    +-span sigmas, and the matching closed-form evaluator."""
    traj = solve_lambda(system, packet, [0.0, t] if t > 0 else [0.0])
    idx = len(traj) - 1
    state = traj[idx]
    m = moments_from_lambda(state, C)
    sx, sp = math.sqrt(m.var_x), math.sqrt(m.var_p)
    mean_x, mean_p = state.eta, C.mass * state.eta_dot

    n_wide = 2 * math.ceil(pad * nx / 2.0) + 1
    x = np.linspace(mean_x - pad * span * sx, mean_x + pad * span * sx, n_wide)
    psi = evaluate_wavefunction(propagate_analytic(traj, idx), x)
    dp = 2.0 * span * sp / (n_p - 1)
    full = wigner_numeric(psi, (mean_p - span * sp, dp, n_p), C)
    window = full.column_window((n_wide - nx) // 2, nx)
    closed = wigner_gaussian(m, mean_x, mean_p, C)
    return traj, psi, full, window, closed


def test_initial_packet_wigner_is_symmetric_gaussian():
    """alpha0 = 1, means at the origin: W0 = exp(-x^2 - p^2)/pi."""
    _, _, _, window, _ = transform_setup(FREE, InitialPacket(0.0, 0.0, 1.0), 0.0)
    X, P = np.meshgrid(window.x(), window.p())
    expected = np.exp(-X ** 2 - P ** 2) / math.pi
    assert np.max(np.abs(window.values - expected)) <= 1e-6


def test_marginal_is_position_density():
    _, psi, full, _, _ = transform_setup(FREE, InitialPacket(0.0, 1.0, 1.0), 1.0)
    density = np.abs(psi.values) ** 2
    assert np.max(np.abs(full.marginal_x() - density)) <= 1e-5


def test_momentum_marginal_matches_fourier_density():
    """integral W dx equals the momentum density from the Fourier-type kernel."""
    _, psi, full, _, _ = transform_setup(HO, InitialPacket(0.0, 1.0, 1.0), 1.0)
    p = full.p()
    to_momentum = TransformMatrix(0.0, -1.0, 1.0, 0.0)
    psi_tilde = apply_kernel(kernel_ti(to_momentum, C), psi, p)
    assert np.max(np.abs(marginal_p(full) - np.abs(psi_tilde.values) ** 2)) <= 1e-5


def test_free_evolved_wigner_matches_closed_form():
    _, _, _, window, closed = transform_setup(FREE, InitialPacket(0.0, 1.0, 1.0), 1.0)
    X, P = np.meshgrid(window.x(), window.p())
    assert np.max(np.abs(window.values - closed(X, P))) <= 1e-6


def test_normalization_of_numeric_transform():
    for system in (FREE, HO):
        _, _, full, _, _ = transform_setup(system, InitialPacket(0.0, 1.0, 1.2), 1.0)
        assert abs(full.integral() - 1.0) <= 1e-5


def test_gaussian_closed_form_t0():
    w = wigner_gaussian(Moments(0.5, 0.5, 0.0), 0.0, 0.0, C)
    assert w(0.0, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert w(1.0, -1.0) == pytest.approx(math.exp(-2.0) / math.pi, rel=1e-13)


def test_gaussian_closed_form_free_t1_exponent():
    """Moments (1, 1/2, 1) give exponent -2*(x~^2/2 - x~*p~ + p~^2)."""
    w = wigner_gaussian(Moments(1.0, 0.5, 1.0), 1.0, 1.0, C)
    for xt, pt in ((0.4, -0.2), (1.0, 0.7), (-0.3, 0.9)):
        expected = math.exp(-2.0 * (0.5 * xt ** 2 - xt * pt + pt ** 2)) / math.pi
        assert w(1.0 + xt, 1.0 + pt) == pytest.approx(expected, rel=1e-12)


def test_gaussian_rejects_inconsistent_moments():
    with pytest.raises(ValidationError):
        wigner_gaussian(Moments(0.5, 0.5, 0.5), 0.0, 0.0, C)


def test_pointmap_identity_at_t0():
    packet = InitialPacket(0.0, 1.0, 1.4)
    traj = solve_lambda(FREE, packet, [0.0])
    matrix = matrix_from_state(traj[0], packet.alpha0)
    m0 = moments_from_lambda(traj[0], C)
    w0 = wigner_gaussian(m0, packet.x0, packet.p0, C)
    for x, p in ((0.0, 0.0), (0.7, -0.4), (-1.2, 2.0)):
        assert wigner_pointmap(w0, matrix, x, p, C) == pytest.approx(w0(x, p), rel=1e-12)


def test_pointmap_matches_closed_form_free_t1():
    """Algebraic identity checked on a 64x64 grid at 1e-10."""
    packet = InitialPacket(0.0, 1.0, 1.0)
    traj = solve_lambda(FREE, packet, [0.0, 1.0])
    s = traj[1]
    matrix = matrix_from_state(s, packet.alpha0)
    w0 = wigner_gaussian(moments_from_lambda(traj[0], C), packet.x0, packet.p0, C)
    wt = wigner_gaussian(moments_from_lambda(s, C), s.eta, s.eta_dot, C)
    xs = np.linspace(-3.0, 5.0, 64)
    ps = np.linspace(-2.0, 4.0, 64)
    X, P = np.meshgrid(xs, ps)
    mapped = wigner_pointmap(w0, matrix, X, P, C)
    assert np.max(np.abs(mapped - wt(X, P))) <= 1e-10


def test_pointmap_is_rigid_rotation_for_constant_width():
    """Unit oscillator, ground width: the map is the backward rotation."""
    packet = InitialPacket(0.0, 1.0, 1.0)
    t = 1.1
    traj = solve_lambda(HO, packet, [0.0, t])
    matrix = matrix_from_state(traj[1], packet.alpha0)
    ct, st = math.cos(t), math.sin(t)
    for x, p in ((0.3, -0.8), (1.5, 0.2)):
        # an "initial Wigner function" that returns its arguments exposes the map
        x0, p0 = wigner_pointmap(lambda x0, p0: (x0, p0), matrix, x, p, C)
        assert x0 == pytest.approx(ct * x - st * p, abs=1e-9)
        assert p0 == pytest.approx(st * x + ct * p, abs=1e-9)


@pytest.mark.parametrize("system", [FREE, HO])
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_transport_equivalence(system, t):
    """Numeric transform of the evolved packet equals both the closed form
    and the point-map transport of the initial Wigner function."""
    packet = InitialPacket(0.0, 1.0, 1.0)
    traj, _, _, window, closed = transform_setup(system, packet, t)
    X, P = np.meshgrid(window.x(), window.p())
    closed_vals = closed(X, P)
    assert np.max(np.abs(window.values - closed_vals)) <= 1e-5

    w0 = wigner_gaussian(moments_from_lambda(traj[0], C), packet.x0, packet.p0, C)
    matrix = matrix_from_state(traj[-1], packet.alpha0)
    mapped = wigner_pointmap(w0, matrix, X, P, C)
    assert np.max(np.abs(window.values - mapped)) <= 1e-5
    assert np.max(np.abs(mapped - closed_vals)) <= 1e-9


def test_gaussian_states_nonnegative():
    for system, t in ((FREE, 1.0), (HO, 2.0)):
        _, _, _, window, _ = transform_setup(system, InitialPacket(0.0, 1.0, 1.0), t)
        assert window.values.min() >= -1e-9


def test_pointmap_rejects_frozen_width_matrix():
    matrix = frozen_width_matrix(FREE, 1.0, 1.0)
    w0 = wigner_gaussian(Moments(0.5, 0.5, 0.0), 0.0, 0.0, C)
    with pytest.raises(ValidationError):
        wigner_pointmap(w0, matrix, 0.0, 0.0, C)


def test_numeric_transform_warnings():
    x = np.linspace(-8.0, 8.0, 257)
    psi = evaluate_wavefunction(
        propagate_analytic(solve_lambda(FREE, InitialPacket(0.0, 1.0, 1.0), [0.0]), 0), x)
    # aliasing: momenta beyond hbar*pi/dx
    p_max = math.pi / psi.dx * 2.0
    grid = wigner_numeric(psi, (-p_max, p_max / 16, 33), C)
    assert any("alias" in w for w in grid.warnings)


def test_phase_space_grid_validation():
    with pytest.raises(ValidationError):
        PhaseSpaceGrid(0.0, 0.1, 0.0, -0.1, np.zeros((4, 4)))
    with pytest.raises(ValidationError):
        PhaseSpaceGrid(0.0, 0.1, 0.0, 0.1, np.zeros(4))
    grid = PhaseSpaceGrid(0.0, 0.1, 0.0, 0.1, np.zeros((4, 6)))
    with pytest.raises(ValidationError):
        grid.column_window(4, 4)
    sub = grid.column_window(1, 3)
    assert sub.n_x == 3 and sub.x_min == pytest.approx(0.1)


@pytest.mark.parametrize("name", ["free-spread", "ho-breathing"])
def test_builtin_wigner_windows_match_closed_form(name):
    """The spectral transform is exact to rounding on the windows the
    scenario runner writes, at both written samples."""
    config = parse_config(dict(BUILTIN_SCENARIOS[name], tasks=["wigner"]), name=name)
    report, outputs = run_scenario(config)
    assert len(outputs) == 2
    for out in outputs:
        sample = {name: float(column[out["index"]])
                  for name, column in report["samples"].items()}
        closed = wigner_gaussian(Moments(sample["var_x"], sample["var_p"], sample["corr"]),
                                 sample["eta"], C.mass * sample["eta_dot"], C)
        grid = out["grid"]
        X, P = np.meshgrid(grid.x(), grid.p())
        assert np.max(np.abs(grid.values - closed(X, P))) <= 1e-12
        assert abs(out["integral"] - 1.0) <= 1e-12
        assert out["warnings"] == []


@pytest.mark.parametrize("n", [7, 8, 385, 384])
def test_half_step_refinement_is_the_trigonometric_interpolant(n):
    """Zero-padding the DFT reproduces a real trigonometric polynomial of
    every frequency the n samples hold at the half steps; an even n needs
    its Nyquist cosine shared between +-n/2 for that."""
    rng = np.random.default_rng(n)
    k_max = n // 2
    cos_amp, sin_amp = rng.normal(size=k_max + 1), rng.normal(size=k_max + 1)
    if n % 2 == 0:
        sin_amp[k_max] = 0.0  # vanishes on the samples, so not determined

    def f(t):  # t in units of the sample step
        angle = 2.0 * math.pi * np.outer(t, np.arange(k_max + 1)) / n
        return np.cos(angle) @ cos_amp + np.sin(angle) @ sin_amp

    refined = _half_step_refine(f(np.arange(n)).astype(complex))
    expected = f(0.5 * np.arange(2 * n - 1))
    assert np.max(np.abs(refined - expected)) <= 1e-12 * np.max(np.abs(expected)) * n


def test_wigner_memory_within_dense_phase_matrix():
    """phase_space_grid.nx = 4096: the scenario runner samples psi on
    2*ceil(0.75*nx) + 1 points.  Everything wigner_numeric allocates, its
    output included, stays within the n_p x (2n - 1) complex phase matrix
    that a dense row-by-row transform would build."""
    n = 2 * math.ceil(0.75 * 4096) + 1
    n_p = 257
    x = np.linspace(-12.0, 12.0, n)
    psi = ComplexGrid(float(x[0]), float(x[1] - x[0]),
                      math.pi ** -0.25 * np.exp(-x * x / 2.0))
    tracemalloc.start()
    try:
        grid = wigner_numeric(psi, (-8.0, 16.0 / (n_p - 1), n_p), C)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * n_p * (2 * n - 1)
    assert abs(grid.integral() - 1.0) <= 1e-12
