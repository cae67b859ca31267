"""Tests for the propagator kernels and their quadrature application."""

import cmath
import math
from functools import partial

import numpy as np
import pytest

from wavepacket.core import (Constants, ConstantOmega, Free, InitialPacket, SystemSpec,
                             TransformMatrix)
from wavepacket.errors import DeltaLimitError, ValidationError
from wavepacket.evolution import solve_lambda
from wavepacket.invariants import matrix_from_state
from wavepacket.kernels import (ComplexGrid, apply_kernel, kernel_td, kernel_ti,
                                satisfies_kernel_odes)
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


def test_fourier_kernel_value():
    # a=d=0, b=1, c=-1: K = (1/(2*pi*i))^(1/2) * exp(i*x*x')
    for x, xp in ((0.3, -1.2), (2.0, 0.5)):
        expected = cmath.sqrt(1.0 / (2.0j * math.pi)) * cmath.exp(1j * x * xp)
        assert kernel_ti(FOURIER, x, xp, C) == pytest.approx(expected, rel=1e-14)


def test_kernel_ti_delta_limit():
    with pytest.raises(DeltaLimitError):
        kernel_ti(TransformMatrix(1.0, 1e-10, -1.0, 1.0), 0.0, 0.0, C)


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
    ratio = kernel_td(matrix, 1.3, 0.0, C) / kernel_td(matrix, 0.0, 0.0, C)
    assert ratio == pytest.approx(cmath.exp(0.5j * 1.3 ** 2), rel=1e-12)


def test_td_kernel_delta_limit():
    matrix = TransformMatrix(a=1.0, b=-1e-10, c=0.0, d=1.0)
    with pytest.raises(DeltaLimitError):
        kernel_td(matrix, 0.0, 0.0, C)
    with pytest.raises(DeltaLimitError):
        kernel_td(matrix, 0.0, 0.0, C, inverse=True)


def test_td_roundtrip_does_not_need_unit_wronskian():
    """|prefactor|^2 matches the phase's cross term for every z, so the
    adjoint undoes the forward kernel even when det M = 1.5."""
    x = np.linspace(-15.0, 15.0, 1024)
    psi = gaussian_grid(x)
    matrix = TransformMatrix(a=1.0, b=-1.0, c=0.5, d=1.0, alpha0=1.3)
    assert matrix.det == 1.5
    forward = apply_kernel(partial(kernel_td, matrix, constants=C), psi, x)
    back = apply_kernel(partial(kernel_td, matrix, constants=C, inverse=True),
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
    matrix = matrix_from_state(traj[1][0], packet.alpha0)
    out = apply_kernel(partial(kernel_td, matrix, constants=C), psi0, x)
    assert l2(out.values, psi1.values, psi0.dx) <= 1e-6


def test_fourier_of_gaussian_has_reciprocal_width():
    x = np.linspace(-15.0, 15.0, 1024)
    sigma = 1.4
    out = apply_kernel(partial(kernel_ti, FOURIER, constants=C),
                       gaussian_grid(x, sigma), x)
    expected = (sigma ** 2 / math.pi) ** 0.25 * np.exp(-sigma ** 2 * x ** 2 / 2.0)
    assert np.max(np.abs(np.abs(out.values) - expected)) <= 1e-6
    assert abs(out.norm() - 1.0) <= 1e-5


def test_apply_kernel_unitarity():
    x = np.linspace(-15.0, 15.0, 1024)
    psi = gaussian_grid(x)
    for matrix in (TransformMatrix(0.8, 1.1, (0.8 * 1.2 - 1) / 1.1, 1.2), FOURIER):
        out = apply_kernel(partial(kernel_ti, matrix, constants=C), psi, x)
        assert abs(out.norm() - psi.norm()) <= 1e-5


def test_td_forward_inverse_roundtrip():
    x = np.linspace(-15.0, 15.0, 1024)
    system = SystemSpec(C, Free())
    packet = InitialPacket(0.0, 1.0, 1.3)
    traj = solve_lambda(system, packet, [0.0, 1.0])
    psi0 = evaluate_wavefunction(propagate_analytic(traj, 0), x)
    matrix = matrix_from_state(traj[1][0], packet.alpha0)
    forward = apply_kernel(partial(kernel_td, matrix, constants=C), psi0, x)
    back = apply_kernel(partial(kernel_td, matrix, constants=C, inverse=True),
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

    composed = apply_kernel(partial(kernel_ti, m1, constants=C),
                            apply_kernel(partial(kernel_ti, m2, constants=C), psi, x), x)
    direct = apply_kernel(partial(kernel_ti, product, constants=C), psi, x)

    overlap = complex(np.trapezoid(np.conjugate(composed.values) * direct.values, dx=dx))
    aligned = math.sqrt(max(composed.norm() ** 2 + direct.norm() ** 2
                            - 2.0 * abs(overlap), 0.0))
    assert aligned <= 1e-4


def test_apply_kernel_coverage_warning():
    x_narrow = np.linspace(-1.0, 1.0, 256)
    psi = gaussian_grid(x_narrow)  # heavy tails outside
    out = apply_kernel(partial(kernel_ti, FOURIER, constants=C), psi, x_narrow)
    assert any("mass" in w for w in out.warnings)


def test_complex_grid_validation():
    with pytest.raises(ValidationError):
        ComplexGrid(0.0, -0.1, np.ones(4, dtype=complex))
    with pytest.raises(ValidationError):
        ComplexGrid(0.0, 0.1, np.array([1.0, np.inf]))
