"""Tests for the propagator kernels and their quadrature application."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavepacket.core import (Constants, ConstantOmega, Free, InitialPacket, SystemSpec,
                             TransformMatrix)
from wavepacket.errors import DeltaLimitError, ValidationError
from wavepacket.evolution import solve_lambda
from wavepacket.invariants import matrix_from_state
from wavepacket.kernels import (ComplexGrid, apply_kernel, kernel_td, kernel_ti,
                                satisfies_kernel_odes, trapezoid_weights)
from wavepacket.packet import evaluate_wavefunction, propagate_analytic

C = Constants()
FOURIER = TransformMatrix(0.0, 1.0, -1.0, 0.0)

# same published lattice the scenario runner sweeps: c closes the determinant
LATTICE = tuple(
    TransformMatrix(a, b, (a * 0.8 - 1.0) / b, 0.8)
    for a in (-1.5, -0.5, 0.0, 0.5, 1.5)
    for b in (0.2, 0.7, 1.3, 2.5)
)


def l2(a, b, dx):
    return math.sqrt(float(np.trapezoid(np.abs(a - b) ** 2, dx=dx)))


def gaussian_grid(x, sigma=1.0):
    psi = (math.pi * sigma ** 2) ** -0.25 * np.exp(-x ** 2 / (2.0 * sigma ** 2))
    return ComplexGrid(float(x[0]), float(x[1] - x[0]), psi.astype(complex))


def dense_apply(kernel, psi, x_out):
    """The trapezoid quadrature sum through the dense (n_out, n_in) kernel
    matrix: the reference for apply_kernel's chirp-z sum."""
    matrix = kernel(np.asarray(x_out)[:, None], psi.x()[None, :])
    return matrix @ (trapezoid_weights(psi.n, psi.dx) * psi.values)


def test_fourier_kernel_value():
    # a=d=0, b=1, c=-1: K = (1/(2*pi*i))^(1/2) * exp(i*x*x')
    for x, xp in ((0.3, -1.2), (2.0, 0.5)):
        expected = cmath.sqrt(1.0 / (2.0j * math.pi)) * cmath.exp(1j * x * xp)
        assert kernel_ti(FOURIER, C)(x, xp) == pytest.approx(expected, rel=1e-14)


def test_kernel_ti_delta_limit():
    with pytest.raises(DeltaLimitError):
        kernel_ti(TransformMatrix(1.0, 1e-10, -1.0, 1.0), C)


def test_fourier_kernel_ode_residuals():
    r1, r2 = satisfies_kernel_odes(FOURIER, C)
    assert r1 <= 1e-5 and r2 <= 1e-5


@pytest.mark.parametrize("params", LATTICE)
def test_lattice_kernel_ode_residuals(params):
    params.require_symplectic(1e-12)
    r1, r2 = satisfies_kernel_odes(params, C)
    assert r1 <= 1e-5 and r2 <= 1e-5


def test_non_symplectic_params_caught_by_validator():
    broken = TransformMatrix(1.0, 1.0, -0.1, 1.0)  # det = 1.1
    # the residual evaluation itself still runs ...
    r1, r2 = satisfies_kernel_odes(broken, C)
    assert math.isfinite(r1) and math.isfinite(r2)
    assert r2 > 1e-3  # the second defining equation needs det = 1
    # ... but the invariant check rejects the matrix
    with pytest.raises(ValidationError):
        broken.require_symplectic(1e-12)


def test_td_kernel_free_exponent_coefficient():
    """Free t=1 (z=1, zd=1, u=1): the x^2 coefficient is i/2 at hbar=m=1."""
    matrix = TransformMatrix(a=1.0, b=-1.0, c=0.0, d=1.0)  # ((zd, -z), (-ud, u))
    kernel = kernel_td(matrix, C)
    ratio = kernel(1.3, 0.0) / kernel(0.0, 0.0)
    assert ratio == pytest.approx(cmath.exp(0.5j * 1.3 ** 2), rel=1e-12)


def test_td_kernel_delta_limit():
    matrix = TransformMatrix(a=1.0, b=-1e-10, c=0.0, d=1.0)
    with pytest.raises(DeltaLimitError):
        kernel_td(matrix, C)
    with pytest.raises(DeltaLimitError):
        kernel_td(matrix, C, inverse=True)


def test_td_roundtrip_does_not_need_unit_wronskian():
    """|prefactor|^2 matches the phase's cross term for every z, so the
    adjoint undoes the forward kernel even when det M = 1.5."""
    x = np.linspace(-15.0, 15.0, 1024)
    psi = gaussian_grid(x)
    matrix = TransformMatrix(a=1.0, b=-1.0, c=0.5, d=1.0, alpha0=1.3)
    assert matrix.det == 1.5
    forward = apply_kernel(kernel_td(matrix, C), psi, x)
    back = apply_kernel(kernel_td(matrix, C, inverse=True),
                        forward, x)
    assert abs(forward.norm() - psi.norm()) <= 1e-5
    assert l2(back.values, psi.values, psi.dx) <= 1e-5


@pytest.mark.parametrize("system, packet", [
    (SystemSpec(C, Free()), InitialPacket(0.0, 1.0, 1.0)),
    (SystemSpec(C, ConstantOmega(1.0)), InitialPacket(0.0, 1.0, 1.0)),
    (SystemSpec(C, Free()), InitialPacket(0.3, 0.7, 2.0)),
])
def test_td_kernel_reproduces_analytic_packet(system, packet, x=None):
    """Quadrature propagation of the initial packet lands on the analytic
    packet, global phase included."""
    x = np.linspace(-15.0, 15.0, 1024)
    traj = solve_lambda(system, packet, [0.0, 1.0])
    psi0 = evaluate_wavefunction(propagate_analytic(traj, 0), x)
    psi1 = evaluate_wavefunction(propagate_analytic(traj, 1), x)
    matrix = matrix_from_state(traj[1], packet.alpha0)
    out = apply_kernel(kernel_td(matrix, C), psi0, x)
    assert l2(out.values, psi1.values, psi0.dx) <= 1e-6


def test_fourier_of_gaussian_has_reciprocal_width():
    x = np.linspace(-15.0, 15.0, 1024)
    sigma = 1.4
    out = apply_kernel(kernel_ti(FOURIER, C),
                       gaussian_grid(x, sigma), x)
    expected = (sigma ** 2 / math.pi) ** 0.25 * np.exp(-sigma ** 2 * x ** 2 / 2.0)
    assert np.max(np.abs(np.abs(out.values) - expected)) <= 1e-6
    assert abs(out.norm() - 1.0) <= 1e-5


def test_apply_kernel_unitarity():
    x = np.linspace(-15.0, 15.0, 1024)
    psi = gaussian_grid(x)
    for matrix in (TransformMatrix(0.8, 1.1, (0.8 * 1.2 - 1) / 1.1, 1.2), FOURIER):
        out = apply_kernel(kernel_ti(matrix, C), psi, x)
        assert abs(out.norm() - psi.norm()) <= 1e-5


def test_td_forward_inverse_roundtrip():
    x = np.linspace(-15.0, 15.0, 1024)
    system = SystemSpec(C, Free())
    packet = InitialPacket(0.0, 1.0, 1.3)
    traj = solve_lambda(system, packet, [0.0, 1.0])
    psi0 = evaluate_wavefunction(propagate_analytic(traj, 0), x)
    matrix = matrix_from_state(traj[1], packet.alpha0)
    forward = apply_kernel(kernel_td(matrix, C), psi0, x)
    back = apply_kernel(kernel_td(matrix, C, inverse=True),
                        forward, x)
    assert l2(back.values, psi0.values, psi0.dx) <= 1e-5


def test_group_property():
    """Composing two kernels matches the kernel of the matrix product
    (second applied times first applied) up to a global phase."""
    x = np.linspace(-12.0, 12.0, 1024)
    dx = float(x[1] - x[0])
    psi = gaussian_grid(x)
    m1 = TransformMatrix(0.8, 1.1, (0.8 * 1.2 - 1.0) / 1.1, 1.2)
    m2 = TransformMatrix(1.4, -0.9, (1.4 * 0.6 - 1.0) / -0.9, 0.6)
    product = m2.matmul(m1)
    assert abs(product.b) > 0.1

    composed = apply_kernel(kernel_ti(m1, C),
                            apply_kernel(kernel_ti(m2, C), psi, x), x)
    direct = apply_kernel(kernel_ti(product, C), psi, x)

    overlap = complex(np.trapezoid(np.conjugate(composed.values) * direct.values, dx=dx))
    aligned = math.sqrt(max(composed.norm() ** 2 + direct.norm() ** 2
                            - 2.0 * abs(overlap), 0.0))
    assert aligned <= 1e-4


def test_apply_kernel_coverage_warning():
    x_narrow = np.linspace(-1.0, 1.0, 256)
    psi = gaussian_grid(x_narrow)  # heavy tails outside
    out = apply_kernel(kernel_ti(FOURIER, C), psi, x_narrow)
    assert any("mass" in w for w in out.warnings)


def _largest_phase_step(kernel, x_in, x_out):
    """max |phase(x, x'_{j+1}) - phase(x, x'_j)| over the grids, by brute
    force on the unwrapped phase of the record."""
    def phase(x, x_prime):
        y = x_prime / (kernel.scale or 1.0)
        return kernel.coef * (kernel.a * x * x - 2.0 * x * y + kernel.d * y * y)

    x, x_prime = x_out[:, None], x_in[None, :]
    values = -phase(x_prime, x) if kernel.adjoint else phase(x, x_prime)
    return float(np.abs(np.diff(values, axis=1)).max())


@pytest.mark.parametrize("matrix, resolved", [
    (TransformMatrix(1.0, -2.0, 0.0, 1.0, alpha0=1.0), True),       # free flight, t = 2
    (TransformMatrix(0.9, 0.02, -0.5, 1.1, alpha0=0.9), False),     # z = -0.02
])
@pytest.mark.parametrize("inverse", [False, True])
def test_apply_kernel_flags_unresolved_phase(matrix, resolved, inverse):
    """The warning fires exactly when the kernel phase turns by more than pi
    between neighbouring input points (far from the threshold here, where
    the closed-form gradient bound and the brute-force step agree)."""
    x = np.linspace(-8.0, 8.0, 256)
    kernel = kernel_td(matrix, C, inverse=inverse)
    out = apply_kernel(kernel, gaussian_grid(x), x)
    flagged = [w for w in out.warnings if "kernel phase" in w]
    assert (_largest_phase_step(kernel, x, x) <= math.pi) is resolved
    assert len(flagged) == (0 if resolved else 1)


def test_complex_grid_validation():
    with pytest.raises(ValidationError):
        ComplexGrid(0.0, -0.1, np.ones(4, dtype=complex))
    with pytest.raises(ValidationError):
        ComplexGrid(0.0, 0.1, np.array([1.0, np.inf]))


_finite = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(("ti", "td", "td_inverse")),
       a=st.floats(-2.0, 2.0, **_finite), d=st.floats(-2.0, 2.0, **_finite),
       b=st.floats(0.3, 3.0, **_finite).flatmap(lambda b: st.sampled_from((b, -b))),
       alpha0=st.floats(0.5, 2.0, **_finite),
       constants=st.builds(Constants, st.floats(0.5, 2.0, **_finite),
                           st.floats(0.5, 2.0, **_finite)),
       n_in=st.integers(64, 600), n_out=st.integers(64, 600),
       half_in=st.floats(8.0, 15.0, **_finite), centre=st.floats(-3.0, 3.0, **_finite),
       half_out=st.floats(6.0, 20.0, **_finite),
       x0=st.floats(-1.0, 1.0, **_finite), p0=st.floats(-1.0, 1.0, **_finite),
       sigma=st.floats(0.7, 1.5, **_finite))
def test_chirp_z_sum_equals_dense_quadrature(kind, a, d, b, alpha0, constants, n_in,
                                             n_out, half_in, centre, half_out, x0, p0,
                                             sigma):
    """TI, TD forward and TD inverse kernels from one Gaussian grid onto an
    output grid of another size, shifted and rescaled: the chirp-z sum is the
    dense matrix-vector quadrature up to rounding."""
    matrix = TransformMatrix(a, b, (a * d - 1.0) / b, d, alpha0=alpha0)
    kernel = (kernel_ti(matrix, constants) if kind == "ti"
              else kernel_td(matrix, constants, inverse=kind == "td_inverse"))
    x = np.linspace(-half_in, half_in, n_in)
    psi = ComplexGrid(float(x[0]), float(x[1] - x[0]),
                      np.exp(-(x - x0) ** 2 / (2.0 * sigma ** 2)
                             + 1j * p0 * x / constants.hbar))
    x_out = np.linspace(centre - half_out, centre + half_out, n_out)

    expected = dense_apply(kernel, psi, x_out)
    got = apply_kernel(kernel, psi, x_out)
    assert got.n == n_out and got.x_min == x_out[0]
    assert np.max(np.abs(got.values - expected)) <= 1e-11 * np.max(np.abs(expected))


def test_apply_kernel_memory_is_linear_in_grid_size():
    """n = 16384 in and out: the dense matrix alone would take 16*n^2 = 4 GiB."""
    x = np.linspace(-15.0, 15.0, 16384)
    psi = gaussian_grid(x)
    kernel = kernel_td(TransformMatrix(a=1.0, b=-2.0, c=0.0, d=1.0), C)
    tracemalloc.start()
    try:
        out = apply_kernel(kernel, psi, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    assert abs(out.norm() - 1.0) <= 1e-10


def test_uniform_grids_accepted_at_any_size_and_perturbed_ones_rejected():
    """np.linspace rounds each point to the resolution of its magnitude, up to
    2 ulps of 15 apart at n = 16384, beyond 1e-12 of the step; a point moved by
    1e-9 of the step is still refused by both grid checks."""
    x = np.linspace(-15.0, 15.0, 16384)
    traj = solve_lambda(SystemSpec(C, Free()), InitialPacket(0.0, 1.0, 1.0), [0.0])
    packet = propagate_analytic(traj, 0)
    psi = evaluate_wavefunction(packet, x)
    kernel = kernel_ti(FOURIER, C)
    assert apply_kernel(kernel, psi, x).n == 16384

    moved = x.copy()
    moved[5000] += 1e-9 * psi.dx
    with pytest.raises(ValidationError, match="x_grid must be uniform"):
        evaluate_wavefunction(packet, moved)
    with pytest.raises(ValidationError, match="x_out must be uniform"):
        apply_kernel(kernel, psi, moved)
