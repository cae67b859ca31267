"""Tests for the propagator kernels and their quadrature application."""

import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from wavepacket.core import (Constants, ConstantOmega, Free, InitialPacket, SystemSpec,
                             TransformMatrix)
from wavepacket import kernels
from wavepacket.errors import CapabilityError, ValidationError
from wavepacket.evolution import solve_lambda
from wavepacket.invariants import matrix_from_state
from wavepacket.kernels import ComplexGrid, apply_kernel, kernel_td, trapezoid_weights
from wavepacket.packet import wavefunction

from scalar_reference import kernel_equation_residuals, kernel_equation_terms

C = Constants()
FOURIER = TransformMatrix(0.0, 1.0, -1.0, 0.0)
PROBE = np.linspace(-1.0, 1.0, 5)

# the paper's time-independent case: kernel_td at m = alpha0 = 1 of a
# published lattice of symplectic matrices, c closing the determinant
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
    # a=d=0, b=1, c=-1, z = -b: K = (1/(2*pi*i*z))^(1/2) * exp(i*x*x')
    for x, xp in ((0.3, -1.2), (2.0, 0.5)):
        expected = cmath.sqrt(1.0 / (2.0j * math.pi * -1.0)) * cmath.exp(1j * x * xp)
        assert kernel_td(FOURIER, C)(x, xp) == pytest.approx(expected, rel=1e-14)


def test_time_independent_case_delta_limit():
    with pytest.raises(CapabilityError, match="delta function"):
        kernel_td(TransformMatrix(1.0, 1e-10, -1.0, 1.0), C)


def residuals(matrix, constants=C, x=PROBE, x_prime=PROBE, kernel=None):
    """kernel_equation_residuals of kernel, by default kernel_td(matrix, constants)."""
    kernel = kernel_td(matrix, constants) if kernel is None else kernel
    return kernel_equation_residuals(kernel, matrix, constants, x, x_prime)


def test_fourier_kernel_ode_residuals():
    r1, r2 = residuals(FOURIER)
    assert r1 <= 1e-5 and r2 <= 1e-5


@pytest.mark.parametrize("params", LATTICE)
def test_lattice_kernel_ode_residuals(params):
    params.require_symplectic(1e-12)
    r1, r2 = residuals(params)
    assert r1 <= 1e-5 and r2 <= 1e-5


def test_non_symplectic_params_caught_by_validator():
    broken = TransformMatrix(1.0, 1.0, -0.1, 1.0)  # det = 1.1
    # the residual evaluation itself still runs ...
    r1, r2 = residuals(broken)
    assert math.isfinite(r1) and math.isfinite(r2)
    assert r2 > 1e-3  # the second defining equation needs det = 1
    # ... but the invariant check rejects the matrix
    with pytest.raises(ValidationError):
        broken.require_symplectic(1e-12)


def _run_matrix(constants, packet, law, t):
    traj = solve_lambda(SystemSpec(constants, law), packet, [0.0, t])
    return matrix_from_state(traj[1], packet.alpha0)


@pytest.mark.parametrize("mutant", [
    None,
    lambda k: dataclasses.replace(k, d=-k.d),
    lambda k: dataclasses.replace(k, a=-k.a),
    lambda k: dataclasses.replace(k, coef=-k.coef),
    lambda k: dataclasses.replace(k, scale=1.0),
], ids=["kernel_td", "negated-d", "negated-a", "negated-coef", "unscaled-y"])
def test_defining_equations_see_a_wrong_kernel(mutant):
    """The equations of the run's own kernel, with hbar, m and alpha0 all
    away from 1, hold for kernel_td and fail for each wrong-signed phase term
    and for an x' left unscaled by alpha0."""
    constants = Constants(0.7, 2.3)
    matrix = _run_matrix(constants, InitialPacket(0.2, 1.0, 1.5), ConstantOmega(1.0), 3.0)
    kernel = kernel_td(matrix, constants)
    if mutant is not None:
        kernel = mutant(kernel)
    worst = max(residuals(matrix, constants, 2.0 * PROBE, 1.5 * PROBE, kernel))
    assert (worst <= 1e-6) is (mutant is None), worst


SCALE = st.floats(0.5, 2.0)
ENTRY = st.floats(-2.0, 2.0)


@settings(max_examples=200, deadline=None)
@given(a=ENTRY, b=st.floats(0.2, 2.0), b_sign=st.sampled_from((1.0, -1.0)), c=ENTRY,
       d=ENTRY, alpha0=SCALE, hbar=SCALE, mass=SCALE, x=ENTRY, x_prime=ENTRY)
def test_defining_equations_reduce_to_det_m(a, b, b_sign, c, d, alpha0, hbar, mass,
                                            x, x_prime):
    """For kernel_td of any matrix, det M = 1 or not, the first equation's
    residual is zero and the second's is (m*x/(alpha0*z))*(det M - 1)*K,
    z = -b, each to the difference floor: the equations read det M and
    nothing else of the kernel."""
    matrix = TransformMatrix(a, b_sign * b, c, d, alpha0)
    constants = Constants(hbar, mass)
    kernel = kernel_td(matrix, constants)
    first, second = kernel_equation_terms(kernel, matrix, constants, x, x_prime)
    k = complex(kernel(x, x_prime))
    expected = (mass * x / (alpha0 * -matrix.b)) * (matrix.det - 1.0) * k
    # the differences' error: (G*h)^2/6 of the largest term for phase
    # gradients G up to 160 on these ranges, and rounding of order
    # 1e-16/h of |K|; 20 000 random draws read at most 9e-8
    floor = 1e-6 * (abs(k) + max(map(abs, first + second)))
    assert abs(sum(first)) <= floor
    assert abs(sum(second) - expected) <= floor


def test_td_kernel_free_exponent_coefficient():
    """Free t=1 (z=1, zd=1, u=1): the x^2 coefficient is i/2 at hbar=m=1."""
    matrix = TransformMatrix(a=1.0, b=-1.0, c=0.0, d=1.0)  # ((zd, -z), (-ud, u))
    kernel = kernel_td(matrix, C)
    ratio = kernel(1.3, 0.0) / kernel(0.0, 0.0)
    assert ratio == pytest.approx(cmath.exp(0.5j * 1.3 ** 2), rel=1e-12)


def test_td_kernel_delta_limit():
    matrix = TransformMatrix(a=1.0, b=-1e-10, c=0.0, d=1.0)
    with pytest.raises(CapabilityError, match="delta function"):
        kernel_td(matrix, C)


def test_td_kernel_keeps_the_norm_at_det_1_5():
    """|prefactor|^2 matches the phase's cross term for every z, so the
    kernel keeps the norm even when det M = 1.5."""
    x = np.linspace(-15.0, 15.0, 1024)
    psi = gaussian_grid(x)
    matrix = TransformMatrix(a=1.0, b=-1.0, c=0.5, d=1.0, alpha0=1.3)
    assert matrix.det == 1.5
    out = apply_kernel(kernel_td(matrix, C), psi, x)
    assert out.warnings == ()
    assert abs(out.norm() - psi.norm()) <= 1e-10


@settings(max_examples=100, deadline=None)
@given(a=st.floats(-1.5, 1.5), d=st.floats(-1.5, 1.5), c=st.floats(-2.0, 2.0),
       b=st.floats(0.5, 1.5).flatmap(lambda b: st.sampled_from((b, -b))),
       alpha0=st.floats(0.7, 1.4),
       constants=st.builds(Constants, st.floats(0.8, 1.25), st.floats(0.8, 1.25)),
       x0=st.floats(-1.0, 1.0), p0=st.floats(-1.0, 1.0), sigma=st.floats(0.7, 1.4))
def test_td_kernel_keeps_the_norm_of_any_matrix(a, d, c, b, alpha0, constants, x0, p0,
                                               sigma):
    """Unitary for every matrix, det M != 1 included: on grids that cover the
    packet before and after, with no warning, the quadrature keeps the norm
    to kernel_norm_defect's 1e-10, the premise of that check."""
    x = np.linspace(-20.0, 20.0, 2048)
    values = np.exp(-(x - x0) ** 2 / (2.0 * sigma ** 2) + 1j * p0 * x / constants.hbar)
    psi = ComplexGrid(float(x[0]), float(x[1] - x[0]), (math.pi * sigma ** 2) ** -0.25 * values)
    out = apply_kernel(kernel_td(TransformMatrix(a, b, c, d, alpha0), constants), psi, x)
    assume(out.warnings == ())
    assert abs(out.norm() - psi.norm()) <= 1e-10


def test_td_kernel_branch_after_n_caustics():
    """After n caustics the prefactor is the principal value times
    (+1, -1, -1, +1)[n mod 4], bit for bit, in a kernel that differs from
    that of caustics=0 in nothing else."""
    matrix = TransformMatrix(a=0.8, b=-1.1, c=(0.8 * 1.2 - 1.0) / -1.1, d=1.2, alpha0=1.3)
    principal = kernel_td(matrix, C).prefactor
    for n, sign in enumerate((1, -1, -1, 1, 1, -1, -1, 1)):
        kernel = kernel_td(matrix, C, caustics=n)
        assert kernel.prefactor == sign * principal
        assert dataclasses.replace(kernel, prefactor=principal) == kernel_td(matrix, C)


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
    psi0 = wavefunction(traj, 0, x)
    psi1 = wavefunction(traj, 1, x)
    matrix = matrix_from_state(traj[1], packet.alpha0)
    out = apply_kernel(kernel_td(matrix, C), psi0, x)
    assert l2(out.values, psi1.values, psi0.dx) <= 1e-6


def test_fourier_of_gaussian_has_reciprocal_width():
    x = np.linspace(-15.0, 15.0, 1024)
    sigma = 1.4
    out = apply_kernel(kernel_td(FOURIER, C),
                       gaussian_grid(x, sigma), x)
    expected = (sigma ** 2 / math.pi) ** 0.25 * np.exp(-sigma ** 2 * x ** 2 / 2.0)
    assert np.max(np.abs(np.abs(out.values) - expected)) <= 1e-6
    assert abs(out.norm() - 1.0) <= 1e-5


def test_apply_kernel_unitarity():
    x = np.linspace(-15.0, 15.0, 1024)
    psi = gaussian_grid(x)
    for matrix in (TransformMatrix(0.8, 1.1, (0.8 * 1.2 - 1) / 1.1, 1.2), FOURIER):
        out = apply_kernel(kernel_td(matrix, C), psi, x)
        assert abs(out.norm() - psi.norm()) <= 1e-5


def test_group_property():
    """Composing two kernels matches the kernel of the matrix product
    (second applied times first applied) up to a global phase."""
    x = np.linspace(-12.0, 12.0, 1024)
    dx = float(x[1] - x[0])
    psi = gaussian_grid(x)
    m1 = TransformMatrix(0.8, 1.1, (0.8 * 1.2 - 1.0) / 1.1, 1.2)
    m2 = TransformMatrix(1.4, -0.9, (1.4 * 0.6 - 1.0) / -0.9, 0.6)
    product = TransformMatrix(m2.a * m1.a + m2.b * m1.c, m2.a * m1.b + m2.b * m1.d,
                              m2.c * m1.a + m2.d * m1.c, m2.c * m1.b + m2.d * m1.d)
    assert abs(product.b) > 0.1

    composed = apply_kernel(kernel_td(m1, C),
                            apply_kernel(kernel_td(m2, C), psi, x), x)
    direct = apply_kernel(kernel_td(product, C), psi, x)

    overlap = complex(np.trapezoid(np.conjugate(composed.values) * direct.values, dx=dx))
    aligned = math.sqrt(max(composed.norm() ** 2 + direct.norm() ** 2
                            - 2.0 * abs(overlap), 0.0))
    assert aligned <= 1e-4


def test_apply_kernel_coverage_warning():
    x_narrow = np.linspace(-1.0, 1.0, 256)
    psi = gaussian_grid(x_narrow)  # heavy tails outside
    out = apply_kernel(kernel_td(FOURIER, C), psi, x_narrow)
    assert any("mass" in w for w in out.warnings)


def _largest_phase_step(kernel, x_in, x_out):
    """max |phase(x, x'_{j+1}) - phase(x, x'_j)| over the grids, by brute
    force on the unwrapped phase of the record."""
    def phase(x, x_prime):
        y = x_prime / kernel.scale
        return kernel.coef * (kernel.a * x * x - 2.0 * x * y + kernel.d * y * y)

    values = phase(x_out[:, None], x_in[None, :])
    return float(np.abs(np.diff(values, axis=1)).max())


@pytest.mark.parametrize("matrix, resolved", [
    (TransformMatrix(1.0, -2.0, 0.0, 1.0, alpha0=1.0), True),       # free flight, t = 2
    (TransformMatrix(0.9, 0.02, -0.5, 1.1, alpha0=0.9), False),     # z = -0.02
])
def test_apply_kernel_flags_unresolved_phase(matrix, resolved):
    """The warning fires exactly when the kernel phase turns by more than pi
    between neighbouring input points (far from the threshold here, where
    the closed-form gradient bound and the brute-force step agree)."""
    x = np.linspace(-8.0, 8.0, 256)
    kernel = kernel_td(matrix, C)
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
@given(kind=st.sampled_from(("ti", "td")),
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
    """The time-independent case (m = alpha0 = 1) and TD kernels from one
    Gaussian grid onto an output grid of another size,
    shifted and rescaled: the chirp-z sum is the dense matrix-vector
    quadrature up to rounding."""
    if kind == "ti":
        alpha0, constants = 1.0, Constants(constants.hbar, 1.0)
    matrix = TransformMatrix(a, b, (a * d - 1.0) / b, d, alpha0=alpha0)
    kernel = kernel_td(matrix, constants)
    x = np.linspace(-half_in, half_in, n_in)
    psi = ComplexGrid(float(x[0]), float(x[1] - x[0]),
                      np.exp(-(x - x0) ** 2 / (2.0 * sigma ** 2)
                             + 1j * p0 * x / constants.hbar))
    x_out = np.linspace(centre - half_out, centre + half_out, n_out)

    expected = dense_apply(kernel, psi, x_out)
    got = apply_kernel(kernel, psi, x_out)
    assert got.n == n_out and got.x_min == x_out[0]
    assert np.max(np.abs(got.values - expected)) <= 1e-11 * np.max(np.abs(expected))


@pytest.mark.parametrize("theta, shape, n_in, n_out", [
    (0.37, (40,), 40, 17),       # fewer outputs than inputs
    (-0.21, (17,), 17, 40),      # more outputs than inputs
    (0.43, (3, 31), 31, 50),     # 2-D input: one transform per row
    (0.9, (25,), 40, 33),        # an input shorter than n_in
    (40.1, (6,), 6, 8),          # 6.4 turns between neighbouring terms
])
def test_chirp_z_equals_the_dense_sum(theta, shape, n_in, n_out):
    """chirp_z is the sum S_k = sum_j f_j * exp(i*theta*k*j), k < n_out,
    along the last axis, to 1e-13 of its largest value."""
    rng = np.random.default_rng(1969)
    f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    dense = f @ np.exp(1j * theta * np.outer(np.arange(shape[-1]), np.arange(n_out)))
    got = kernels.chirp_z(theta, n_in, n_out)(f.copy())
    assert got.shape == dense.shape
    assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))


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
    psi = wavefunction(traj, 0, x)
    kernel = kernel_td(FOURIER, C)
    assert apply_kernel(kernel, psi, x).n == 16384

    moved = x.copy()
    moved[5000] += 1e-9 * psi.dx
    with pytest.raises(ValidationError, match="x_grid must be uniform"):
        wavefunction(traj, 0, moved)
    with pytest.raises(ValidationError, match="x_out must be uniform"):
        apply_kernel(kernel, psi, moved)
