"""Configuration-space propagator kernels and their quadrature application.

Both kernels are the quadratic-phase kernel of one core.TransformMatrix
M = ((a, b), (c, d)) (Littlejohn, Phys. Rep. 138, 193 (1986)), evaluated by
one body,

    K(x, x') = prefactor * exp(i * coef * (A*x^2 - 2*x*y + D*y^2)).

They differ in how they read M:

* kernel_ti, the time-independent kernel of a symplectic matrix:
  A = a, D = d, y = x', coef = -1/(2*hbar*b) and the paper's prefactor
  (1/(2*pi*i*hbar*b))^(1/2), with hbar inserted so the kernel is unitary
  (the bare form quoted in the literature omits it);

* kernel_td, the time-dependent kernel of M = ((zd, -z), (-ud, u)) from
  invariants.matrix_from_state: A = zd = a, D = u = d, y = x'/alpha0,
  coef = m/(2*hbar*z) with z = -b, and the physical prefactor
  (m/(2*pi*i*hbar*alpha0*z))^(1/2).

For the same phase the two prefactors differ by a factor of +-i, with the
sign set by the sign of z (the square-root branch of 1/i), so they stay
two conventions: the first is the paper's, the second gives the evolved
packet with its global phase.

Both are singular where b vanishes; for |b| <= B_MIN the kernel is a delta
function and callers must use the point map instead, which is signalled by
DeltaLimitError.

kernel_td(..., inverse=True) is the adjoint K_inv(x, x') = conj(K(x', x)).
It is the exact functional inverse of the forward transform for every z:
|prefactor|^2 = m/(2*pi*hbar*alpha0*|z|) matches the cross-term
coefficient m/(hbar*alpha0*z) of the phase, so the round trip holds
whatever det M is.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import Constants, TransformMatrix
from .errors import DeltaLimitError, ValidationError

B_MIN = 1e-8           # |b| at or below which a kernel is a delta function
COVERAGE_TOL = 1e-8    # apply_kernel warns below 1 - COVERAGE_TOL input mass
ODE_PROBE = np.linspace(-1.0, 1.0, 5)  # x and x' of the defining-equation check
ODE_STEP = 1e-5        # its central-difference step


@dataclass(frozen=True)
class ComplexGrid:
    """Uniformly sampled complex function of position.

    warnings carries non-fatal quality flags (e.g. coverage of the
    probability mass) attached by the operations that produced the grid.
    """

    x_min: float
    dx: float
    values: np.ndarray
    warnings: tuple = ()

    def __post_init__(self):
        if self.dx <= 0.0:
            raise ValidationError(f"dx must be positive, got {self.dx!r}")
        values = np.asarray(self.values, dtype=complex)
        if not np.all(np.isfinite(values)):
            raise ValidationError("grid values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def n(self):
        return len(self.values)

    def x(self):
        return self.x_min + self.dx * np.arange(self.n)

    def norm(self):
        """L2 norm via trapezoid quadrature."""
        return math.sqrt(float(np.trapezoid(np.abs(self.values) ** 2, dx=self.dx)))

    def with_warning(self, message):
        return ComplexGrid(self.x_min, self.dx, self.values,
                           self.warnings + (message,))


def trapezoid_weights(n, dx):
    w = np.full(n, dx)
    w[0] = w[-1] = 0.5 * dx
    return w


def _require_off_caustic(b):
    if abs(b) <= B_MIN:
        raise DeltaLimitError(
            f"|b|={abs(b)!r} <= {B_MIN}: kernel is a delta function; "
            "apply the point map instead"
        )


def _quadratic_phase(prefactor, coef, a, d, x, y):
    """prefactor * exp(i * coef * (a*x^2 - 2*x*y + d*y^2)), the one form of
    both kernels, in a fixed operation order."""
    return prefactor * np.exp(1j * (coef * (a * x ** 2 - 2.0 * x * y + d * y ** 2)))


def kernel_ti(matrix: TransformMatrix, x, x_prime, constants: Constants):
    """Evaluate the symplectic-matrix kernel at (x, x').  Vectorizes over
    numpy array arguments.

    Raises DeltaLimitError for |b| <= B_MIN: in that limit the kernel is the
    delta-function point map x' = a*x and cannot be integrated numerically.
    """
    b = matrix.b
    _require_off_caustic(b)
    hbar = constants.hbar
    prefactor = cmath.sqrt(1.0 / (2.0j * math.pi * hbar * b))
    return _quadratic_phase(prefactor, -1.0 / (2.0 * hbar * b), matrix.a, matrix.d,
                            np.asarray(x), np.asarray(x_prime))


def satisfies_kernel_odes(matrix: TransformMatrix, constants: Constants):
    """Residuals of the two defining differential equations of the kernel,

        (a*x + b*(hbar/i)*d/dx) K = x' K,
        (c*x + d*(hbar/i)*d/dx) K = -(hbar/i) dK/dx',

    evaluated by central finite differences (step ODE_STEP) on the ODE_PROBE
    grid in x and x'.  Returns the two maximum absolute residuals,
    normalized by the kernel magnitude.
    """
    x = ODE_PROBE[:, None]
    xp = ODE_PROBE[None, :]
    hbar = constants.hbar
    h = ODE_STEP

    k0 = kernel_ti(matrix, x, xp, constants)
    dk_dx = (kernel_ti(matrix, x + h, xp, constants)
             - kernel_ti(matrix, x - h, xp, constants)) / (2.0 * h)
    dk_dxp = (kernel_ti(matrix, x, xp + h, constants)
              - kernel_ti(matrix, x, xp - h, constants)) / (2.0 * h)

    scale = np.abs(k0)
    res1 = np.abs(matrix.a * x * k0 + matrix.b * (hbar / 1j) * dk_dx - xp * k0)
    res2 = np.abs(matrix.c * x * k0 + matrix.d * (hbar / 1j) * dk_dx
                  + (hbar / 1j) * dk_dxp)
    return float(np.max(res1 / scale)), float(np.max(res2 / scale))


def kernel_td(matrix: TransformMatrix, x, x_prime, constants: Constants,
              inverse=False):
    """Evaluate the time-dependent kernel of M = ((zd, -z), (-ud, u)) at
    (x, x').

    forward: x is the evolved coordinate, x' the initial one (scaled by
    1/alpha0 inside, following the parametrization).  inverse: the adjoint,
    conj(K_forward(x', x)), which undoes the forward transform exactly.

    Raises DeltaLimitError for |z| <= B_MIN (the t -> 0 caustic where the
    kernel turns into a delta function).
    """
    _require_off_caustic(matrix.b)
    if inverse:
        x, x_prime = x_prime, x
    z, a0 = -matrix.b, matrix.alpha0
    hbar, m = constants.hbar, constants.mass
    prefactor = cmath.sqrt(m / (2.0j * math.pi * hbar * a0 * z))
    values = _quadratic_phase(prefactor, m / (2.0 * hbar * z), matrix.a, matrix.d,
                              np.asarray(x), np.asarray(x_prime) / a0)
    return np.conjugate(values) if inverse else values


def apply_kernel(kernel, psi_in: ComplexGrid, x_out) -> ComplexGrid:
    """psi_out(x) = integral K(x, x') psi_in(x') dx' by trapezoid quadrature.

    kernel is a vectorized callable (x_column, x_prime_row) -> matrix, e.g.
    functools.partial(kernel_td, matrix, constants=constants).  If the input
    grid holds less than 1 - COVERAGE_TOL of the probability mass the result
    is tagged with a coverage warning rather than rejected.
    """
    x_out = np.asarray(x_out, dtype=float)
    if x_out.ndim != 1 or len(x_out) < 2:
        raise ValidationError("x_out must be a 1-D grid with >= 2 points")
    dx_out = float(x_out[1] - x_out[0])
    if not np.allclose(np.diff(x_out), dx_out, rtol=0.0, atol=1e-12 * abs(dx_out)):
        raise ValidationError("x_out must be uniform")

    warnings = ()
    mass = psi_in.norm() ** 2
    if mass < 1.0 - COVERAGE_TOL:
        warnings = (f"input grid covers only {mass!r} of unit probability mass",)

    xp = psi_in.x()
    matrix = kernel(x_out[:, None], xp[None, :])
    weights = trapezoid_weights(psi_in.n, psi_in.dx)
    values = matrix @ (weights * psi_in.values)
    return ComplexGrid(x_min=float(x_out[0]), dx=dx_out, values=values,
                       warnings=psi_in.warnings + warnings)
