"""Tests for the Wigner transform, closed form, and phase-space transport."""

import math
import tracemalloc

import numpy as np
import pytest

from wavepacket.cli import (BUILTIN_SCENARIOS, STAGES, _wide_points, parse_config,
                            run_scenario, wigner_window, wigner_working_set, write_run)
from wavepacket.core import (Constants, ConstantOmega, Free, InitialPacket, SystemSpec,
                             TransformMatrix)
from wavepacket.errors import ValidationError
from wavepacket.evolution import solve_lambda
from wavepacket.invariants import matrix_from_state
from wavepacket.kernels import ComplexGrid, apply_kernel, kernel_td
from wavepacket.packet import Moments, evaluate_wavefunction, moments_from_lambda, \
    propagate_analytic
from wavepacket.wigner import (WIGNER_BLOCK_BYTES, PhaseSpaceGrid, _half_step_refine,
                               wigner_gaussian, wigner_numeric, wigner_pointmap)

from scalar_reference import frozen_width_matrix, marginal_p, wigner_dense

C = Constants()
FREE = SystemSpec(C, Free())
HO = SystemSpec(C, ConstantOmega(1.0))


def transform_setup(system, packet, t, nx=256, n_p=257, span=8.0):
    """Trajectory, the runner's wavefunction on its padded grid, the Wigner
    grid of its +-span sigma window, the p integral at every x of psi's
    grid, and the matching closed-form evaluator."""
    traj = solve_lambda(system, packet, [0.0, t] if t > 0 else [0.0])
    idx = len(traj) - 1
    state = traj[idx]
    m = moments_from_lambda(state, C)
    psi, p_grid, window = wigner_window(traj, idx, C, math.sqrt(m.var_x),
                                        math.sqrt(m.var_p), nx, n_p, span)
    grid, marginal = wigner_numeric(psi, p_grid, C, window)
    closed = wigner_gaussian(m, state.eta, C.mass * state.eta_dot, C)
    return traj, psi, grid, marginal, closed


def test_initial_packet_wigner_is_symmetric_gaussian():
    """alpha0 = 1, means at the origin: W0 = exp(-x^2 - p^2)/pi."""
    _, _, window, _, _ = transform_setup(FREE, InitialPacket(0.0, 0.0, 1.0), 0.0)
    X, P = np.meshgrid(window.x(), window.p())
    expected = np.exp(-X ** 2 - P ** 2) / math.pi
    assert np.max(np.abs(window.values - expected)) <= 1e-6


def test_marginal_is_position_density():
    _, psi, _, marginal, _ = transform_setup(FREE, InitialPacket(0.0, 1.0, 1.0), 1.0)
    density = np.abs(psi.values) ** 2
    assert np.max(np.abs(marginal - density)) <= 1e-5


def test_momentum_marginal_matches_fourier_density():
    """integral W dx equals the momentum density from the Fourier-type kernel."""
    _, psi, window, _, _ = transform_setup(HO, InitialPacket(0.0, 1.0, 1.0), 1.0)
    full, _ = wigner_numeric(psi, (window.p_min, window.dp, window.n_p), C, (0, psi.n))
    to_momentum = TransformMatrix(0.0, -1.0, 1.0, 0.0)
    psi_tilde = apply_kernel(kernel_td(to_momentum, C), psi, full.p())
    assert np.max(np.abs(marginal_p(full) - np.abs(psi_tilde.values) ** 2)) <= 1e-5


def test_free_evolved_wigner_matches_closed_form():
    _, _, window, _, closed = transform_setup(FREE, InitialPacket(0.0, 1.0, 1.0), 1.0)
    X, P = np.meshgrid(window.x(), window.p())
    assert np.max(np.abs(window.values - closed(X, P))) <= 1e-6


def test_normalization_of_numeric_transform():
    for system in (FREE, HO):
        _, psi, _, marginal, _ = transform_setup(system, InitialPacket(0.0, 1.0, 1.2), 1.0)
        assert abs(np.trapezoid(marginal, dx=psi.dx) - 1.0) <= 1e-5


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
    traj, _, window, _, closed = transform_setup(system, packet, t)
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
        _, _, window, _, _ = transform_setup(system, InitialPacket(0.0, 1.0, 1.0), t)
        assert window.values.min() >= -1e-9


def test_pointmap_rejects_frozen_width_matrix():
    matrix = frozen_width_matrix(1.0, 1.0)
    w0 = wigner_gaussian(Moments(0.5, 0.5, 0.0), 0.0, 0.0, C)
    with pytest.raises(ValidationError):
        wigner_pointmap(w0, matrix, 0.0, 0.0, C)


def test_numeric_transform_warnings():
    x = np.linspace(-8.0, 8.0, 257)
    psi = evaluate_wavefunction(
        propagate_analytic(solve_lambda(FREE, InitialPacket(0.0, 1.0, 1.0), [0.0]), 0), x)
    # aliasing: momenta beyond hbar*pi/dx
    p_max = math.pi / psi.dx * 2.0
    grid, _ = wigner_numeric(psi, (-p_max, p_max / 16, 33), C, (0, psi.n))
    assert any("alias" in w for w in grid.warnings)


def test_phase_space_grid_validation():
    with pytest.raises(ValidationError):
        PhaseSpaceGrid(0.0, 0.1, 0.0, -0.1, np.zeros((4, 4)))
    with pytest.raises(ValidationError):
        PhaseSpaceGrid(0.0, 0.1, 0.0, 0.1, np.zeros(4))
    with pytest.raises(ValidationError):
        PhaseSpaceGrid(0.0, 0.1, 0.0, 0.1, np.array([[0.0, np.nan], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        PhaseSpaceGrid(0.0, 0.1, 0.0, 0.1, np.array([[0.0, -np.inf], [0.0, 0.0]]))
    grid = PhaseSpaceGrid(0.0, 0.1, 0.0, 0.1, np.zeros((4, 6)))
    assert (grid.n_p, grid.n_x) == (4, 6)
    psi = ComplexGrid(0.0, 0.1, np.ones(6))
    with pytest.raises(ValidationError):
        wigner_numeric(psi, (0.0, 0.1, 4), C, (4, 3))
    sub, marginal = wigner_numeric(psi, (0.0, 0.1, 4), C, (1, 3))
    assert sub.n_x == 3 and sub.x_min == pytest.approx(0.1) and len(marginal) == 6


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


def test_wigner_memory_is_the_kept_window_plus_blocks():
    """phase_space_grid.nx = 4096: everything wigner_numeric allocates on
    the runner's input, its output included, stays within 8 bytes per kept
    cell plus WIGNER_BLOCK_BYTES per point of psi's grid and of the p grid;
    a dense n_p x (n - 1) phase table alone would take 25 MB."""
    nx, n_p = 4096, 257
    traj = solve_lambda(FREE, InitialPacket(0.0, 0.0, 1.0), [0.0])
    psi, p_grid, window = wigner_window(traj, 0, C, math.sqrt(0.5), math.sqrt(0.5),
                                        nx, n_p, 8.0)
    tracemalloc.start()
    try:
        grid, marginal = wigner_numeric(psi, p_grid, C, window)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n_p * nx + WIGNER_BLOCK_BYTES * (psi.n + n_p)
    assert grid.values.shape == (n_p, nx)
    assert abs(np.trapezoid(marginal, dx=psi.dx) - 1.0) <= 1e-12


def test_wigner_stage_memory_is_one_window_plus_blocks(monkeypatch, tmp_path):
    """At phase_space_grid 1024 x 1025 the stage, writing each entry's .dat
    as main does, holds one window, 8 bytes per cell, and one transform's
    or the writer's blocks at a time: its tracemalloc peak stays within
    wigner_working_set, 8*nx*np plus WIGNER_BLOCK_BYTES per point of psi's
    grid and of the p grid, where holding both windows took 17.6 MiB and a
    dense transform 50.5 MiB."""
    nx, n_p = 1024, 1025
    peaks = []

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            entries = wigner_stage(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return entries

    wigner_stage = STAGES["wigner"]
    monkeypatch.setitem(STAGES, "wigner", traced)
    data = dict(BUILTIN_SCENARIOS["free-spread"], tasks=["wigner"],
                phase_space_grid={"nx": nx, "np": n_p, "span_sigmas": 8.0})
    report, written = write_run(parse_config(data, name="free-spread"), tmp_path)
    assert [path.name for path in written] == [
        "trajectory.csv", "wigner_t0.dat", "wigner_t20.dat", "report.json"]
    assert all(abs(entry["integral"] - 1.0) <= 1e-12 for entry in report["wigner"])
    assert wigner_working_set(nx, n_p) == (
        8 * nx * n_p + WIGNER_BLOCK_BYTES * (_wide_points(nx) + n_p))
    assert peaks[0] <= wigner_working_set(nx, n_p)


def _gaussian_psi(x, x0, p0, sigma, hbar):
    return ComplexGrid(float(x[0]), float(x[1] - x[0]),
                       (math.pi * sigma ** 2) ** -0.25
                       * np.exp(-(x - x0) ** 2 / (2.0 * sigma ** 2) + 1j * p0 * (x - x0) / hbar))


@pytest.mark.parametrize("n, n_p, x0, p0, hbar, p_lo, dp", [
    (101, 64, 0.0, 0.7, 1.0, -4.0, 0.15),       # odd n
    (100, 63, 0.3, -0.4, 1.0, -4.5, 0.14),      # even n
    (97, 2, 0.0, 1.0, 1.0, 0.2, 1.1),           # two momenta
    (120, 40, 0.0, 12.0, 0.5, 10.0, 0.1),       # p_min*dx/hbar = 2.0: the pre-chirp turns 38 times
    (96, 48, 1.0e4, -2.0, 1.0, -6.0, 0.17),     # a packet far from x = 0
])
def test_chirp_z_sum_equals_the_dense_sum(n, n_p, x0, p0, hbar, p_lo, dp):
    """The chirp-z transform equals the direct sum over offsets on every
    cell, to 1e-13 of max|W|, and its p integral is the trapezoid of W up to
    the order of summation."""
    x = x0 + np.linspace(-6.0, 6.0, n)
    psi = _gaussian_psi(x, x0, p0, 0.8, hbar)
    constants = Constants(hbar, 1.0)
    dense = wigner_dense(psi, (p_lo, dp, n_p), hbar)
    grid, marginal = wigner_numeric(psi, (p_lo, dp, n_p), constants, (0, n))
    assert grid.values.shape == dense.shape and grid.warnings == ()
    assert np.max(np.abs(grid.values - dense)) <= 1e-13 * np.max(np.abs(dense))
    trapezoid = np.trapezoid(grid.values, dx=dp, axis=0)
    assert np.max(np.abs(marginal - trapezoid)) <= 1e-14 * np.max(np.abs(trapezoid))
    start, count = n // 3, n // 2
    window, _ = wigner_numeric(psi, (p_lo, dp, n_p), constants, (start, count))
    assert np.array_equal(window.values, grid.values[:, start:start + count])
