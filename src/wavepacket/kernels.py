"""Configuration-space propagator kernels and their quadrature application.

The kernel of a linear canonical transformation M = ((a, b), (c, d))
(core.TransformMatrix; Littlejohn, Phys. Rep. 138, 193 (1986)) is one
QuadraticPhaseKernel record,

    K(x, x') = prefactor * exp(i * coef * (a*x^2 - 2*x*y + d*y^2)),
    y = x'/scale,

or its adjoint conj(K(x', x)).  kernel_td builds it for the time-dependent
matrix M = ((zd, -z), (-ud, u)) of invariants.matrix_from_state:
y = x'/alpha0, coef = m/(2*hbar*z) with z = -b, and the physical prefactor
(m/(2*pi*i*hbar*alpha0*z))^(1/2), which gives the evolved packet with its
global phase.  At m = alpha0 = 1 it is the paper's time-independent kernel
of a symplectic matrix, whose quoted prefactor (1/(2*pi*i*hbar*b))^(1/2)
differs only by a global factor of +-i.  satisfies_kernel_odes checks its
two defining differential equations.

The kernel is singular where b vanishes; for |b| <= B_MIN it is a delta
function and callers must use the point map instead, which is signalled by
CapabilityError.

kernel_td(..., inverse=True) is the adjoint K_inv(x, x') = conj(K(x', x)).
It is the exact functional inverse of the forward transform for every z:
|prefactor|^2 = m/(2*pi*hbar*alpha0*|z|) matches the cross-term
coefficient m/(hbar*alpha0*z) of the phase, so the round trip holds
whatever det M is.

chirp_z sums S_k = sum_j f_j * exp(i*theta*k*j), k < n_out, as a chirp-z
transform (Rabiner, Schafer and Rader, 1969): by k*j = (k^2 + j^2 -
(k - j)^2)/2 it is a pre-chirp exp(i*theta*j^2/2), one convolution with
exp(-i*theta*(k - j)^2/2) by FFT at the least 5-smooth length >= n_in +
n_out - 1 (Bluestein's algorithm) and a post-chirp exp(i*theta*k^2/2), in
O((n_in + n_out) log(n_in + n_out)) time and O(n_in + n_out) memory.
apply_kernel sums K(x_i, x'_j) * w_j * psi(x'_j) over the trapezoid weights
w_j without forming the matrix K(x_i, x'_j): on uniform grids
x_i = u0 + i*du and y_j = v0 + j*dv, -2*x_i*y_j = -2*u0*y_j - 2*v0*du*i -
2*du*dv*i*j leaves chirp_z with theta = -2*coef*du*dv between a phase on
the input and one on the output, the same sum up to rounding.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import Constants, TransformMatrix
from .errors import CapabilityError, ValidationError

B_MIN = 1e-8           # |b| at or below which a kernel is a delta function
COVERAGE_TOL = 1e-8    # apply_kernel warns below 1 - COVERAGE_TOL input mass
ODE_STEP = 1e-3        # phase turn, in rad, of a defining-equation difference step
ODE_STEP_ULPS = 1e3    # the least such step, in spacings of doubles at the probes
UNIFORM_ULPS = 8       # uniform_step: spacing error allowed, in ulps of max|x|


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


def phase_aligned_l2(a: ComplexGrid, b: ComplexGrid) -> float:
    """min over theta of the trapezoid L2 norm of a - e^(i*theta)*b, for two
    grids of the same points; neither needs unit norm."""
    dx = a.dx
    # the minimizing phase is -arg(overlap); the difference is integrated
    # directly, since ||a||^2 + ||b||^2 - 2|overlap| cancels below ~1e-8.
    # The overlap is formed in real arithmetic so that it is exactly real for
    # b = a (a fused complex multiply leaves a rounding-size imaginary part).
    ar, ai = a.values.real, a.values.imag
    br, bi = b.values.real, b.values.imag
    overlap = complex(np.trapezoid(ar * br + ai * bi, dx=dx),
                      np.trapezoid(ar * bi - ai * br, dx=dx))
    aligned_diff = a.values - np.exp(-1j * cmath.phase(overlap)) * b.values
    return math.sqrt(float(np.trapezoid(np.abs(aligned_diff) ** 2, dx=dx)))


def trapezoid_weights(n, dx):
    w = np.full(n, dx)
    w[0] = w[-1] = 0.5 * dx
    return w


def uniform_step(x, name):
    """The step of a uniform increasing 1-D grid x of >= 2 points.

    Each spacing may differ from x[1] - x[0] by 1e-12 of the step plus
    UNIFORM_ULPS ulps of max|x|: np.linspace rounds every point to the
    resolution of its magnitude, which on a fine grid far from 0 exceeds any
    fixed fraction of the step.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) < 2:
        raise ValidationError(f"{name} must be a 1-D grid with >= 2 points")
    dx = float(x[1] - x[0])
    atol = 1e-12 * abs(dx) + UNIFORM_ULPS * np.spacing(max(abs(x[0]), abs(x[-1])))
    if not (dx > 0.0 and np.all(np.abs(np.diff(x) - dx) <= atol)):
        raise ValidationError(f"{name} must be uniform and increasing")
    return dx


def _require_off_caustic(b):
    if abs(b) <= B_MIN:
        raise CapabilityError(
            f"|b|={abs(b)!r} <= {B_MIN}: kernel is a delta function; "
            "apply the point map instead"
        )


@dataclass(frozen=True)
class QuadraticPhaseKernel:
    """K(x, x') = prefactor * exp(i * coef * (a*x^2 - 2*x*y + d*y^2)) with
    y = x'/scale, or, when adjoint is set, its adjoint conj(K(x', x)).

    Calling it evaluates pointwise, vectorized over numpy arguments, in a
    fixed operation order; apply_kernel reads the fields instead.
    """

    prefactor: complex
    coef: float
    a: float
    d: float
    scale: float
    adjoint: bool = False

    def __call__(self, x, x_prime):
        if self.adjoint:
            x, x_prime = x_prime, x
        x, y = np.asarray(x), np.asarray(x_prime) / self.scale
        values = self.prefactor * np.exp(
            1j * (self.coef * (self.a * x ** 2 - 2.0 * x * y + self.d * y ** 2)))
        return np.conjugate(values) if self.adjoint else values


def kernel_td(matrix: TransformMatrix, constants: Constants,
              inverse=False) -> QuadraticPhaseKernel:
    """The time-dependent kernel of M = ((zd, -z), (-ud, u)).

    forward: K(x, x') maps the initial coordinate x' (scaled by 1/alpha0
    inside, following the parametrization) to the evolved coordinate x.
    inverse: the adjoint, conj(K_forward(x', x)), which undoes the forward
    transform exactly.

    Raises CapabilityError for |z| <= B_MIN (the t -> 0 caustic where the
    kernel turns into a delta function).
    """
    _require_off_caustic(matrix.b)
    z, a0 = -matrix.b, matrix.alpha0
    hbar, m = constants.hbar, constants.mass
    return QuadraticPhaseKernel(prefactor=cmath.sqrt(m / (2.0j * math.pi * hbar * a0 * z)),
                                coef=m / (2.0 * hbar * z), a=matrix.a, d=matrix.d,
                                scale=a0, adjoint=inverse)


def _difference_step(gradient, probes):
    """The step over which a phase of this largest gradient turns by
    ODE_STEP, or None where it is under ODE_STEP_ULPS spacings of doubles
    at the probes (or not finite)."""
    step = ODE_STEP / gradient if gradient > 0.0 else math.inf
    least = ODE_STEP_ULPS * float(np.spacing(np.max(np.abs(probes))))
    return step if least <= step < math.inf else None


def satisfies_kernel_odes(matrix: TransformMatrix, constants: Constants, x, x_prime):
    """Residuals of the two defining differential equations of
    K = kernel_td(matrix, constants),

        (alpha0*a*x + (alpha0*b/m)*(hbar/i)*d/dx) K = x' K,
        (m/alpha0)*(c*x + (d/m)*(hbar/i)*d/dx) K = -(hbar/i) dK/dx',

    at every pair of the 1-D probe coordinates x and x_prime.  At
    m = alpha0 = 1 they are the paper's equations of the time-independent
    kernel; the second holds only where det M = 1.

    Each derivative is a central difference over the step in which the
    kernel phase turns by at most ODE_STEP on the probes, divided by the
    rounded width (x + h) - (x - h).  Each residual is the largest
    |sum of the three terms| over the probes, relative to the largest
    |term| over the probes, so a correct kernel reads about ODE_STEP^2/6.  Returns (r1, r2), or None where a step
    is under ODE_STEP_ULPS spacings of doubles at its probes: x +- h then
    rounds to within a few ulps of x, and no difference can be formed.
    """
    kernel = kernel_td(matrix, constants)
    hbar, m, a0 = constants.hbar, constants.mass, matrix.alpha0
    x = np.asarray(x, dtype=float)[:, None]
    xp = np.asarray(x_prime, dtype=float)[None, :]
    y = xp / kernel.scale
    # the largest gradients of the phase coef*(a*x^2 - 2*x*y + d*y^2)
    h = _difference_step(float(np.max(np.abs(2.0 * kernel.coef * (kernel.a * x - y)))), x)
    hp = _difference_step(float(np.max(np.abs(2.0 * kernel.coef * (kernel.d * y - x))))
                          / kernel.scale, xp)
    if h is None or hp is None:
        return None

    k0 = kernel(x, xp)
    dk_dx = (kernel(x + h, xp) - kernel(x - h, xp)) / ((x + h) - (x - h))
    dk_dxp = (kernel(x, xp + hp) - kernel(x, xp - hp)) / ((xp + hp) - (xp - hp))
    residuals = []
    for terms in ((a0 * matrix.a * x * k0, (a0 * matrix.b / m) * (hbar / 1j) * dk_dx,
                   -xp * k0),
                  ((m * matrix.c / a0) * x * k0, (matrix.d / a0) * (hbar / 1j) * dk_dx,
                   (hbar / 1j) * dk_dxp)):
        largest = max(float(np.max(np.abs(t))) for t in terms)
        residuals.append(float(np.max(np.abs(sum(terms)))) / largest if largest else 0.0)
    return tuple(residuals)


def _fft_length(n):
    """The least 2^a * 3^b * 5^c >= n, a length pocketfft transforms fast:
    the Wigner transform took 0.5x to 0.7x its time at the next power of
    two, at 256 x 257 to 2048 x 2049."""
    bits = n.bit_length()
    return min(3 ** b * 5 ** c << ((n - 1) // (3 ** b * 5 ** c)).bit_length()
               for b in range(bits) for c in range(bits))


def chirp_z(theta, n_in, n_out):
    """The map f -> S_k = sum_j f[..., j] * exp(i*theta*k*j), k < n_out,
    along the last axis of f, at most n_in long (see the module docstring).
    It scales f, a complex array, in place by the pre-chirp and returns a
    view of the FFT buffer it allocates."""
    size = _fft_length(n_in + n_out - 1)
    half = 0.5 * theta
    pre, post = (np.exp(1j * (half * np.arange(n) ** 2)) for n in (n_in, n_out))
    # lags k - j >= 0 sit at index k - j and k - j < 0 at size + k - j; the
    # entries in between reach no output k < n_out
    lags = np.arange(size, dtype=float)
    lags[n_out:] -= size
    chirp = np.fft.fft(np.exp(-1j * (half * (lags * lags))))

    def transform(f):
        f *= pre[:f.shape[-1]]
        spectrum = np.fft.fft(f, size)
        spectrum *= chirp
        sums = np.fft.ifft(spectrum, out=spectrum)[..., :n_out]
        sums *= post
        return sums

    return transform


def apply_kernel(kernel: QuadraticPhaseKernel, psi_in: ComplexGrid, x_out) -> ComplexGrid:
    """psi_out(x) = integral K(x, x') psi_in(x') dx' by trapezoid quadrature,
    summed by chirp_z (see the module docstring).

    x_out must be uniform.  If the input grid holds less than
    1 - COVERAGE_TOL of the probability mass, or the kernel phase turns by
    more than pi between neighbouring input points somewhere on the grids,
    the result is tagged with a warning rather than rejected.
    """
    dx_out = uniform_step(x_out, "x_out")
    x_out = np.asarray(x_out, dtype=float)
    n_out, n_in = len(x_out), psi_in.n
    x_min_out = float(x_out[0])
    # the end-to-end step places u_i within a few ulps of x_out[i]; the phase
    # is steep enough in x that i*(x_out[1] - x_out[0]) can drift visibly
    step_out = float(x_out[-1] - x_out[0]) / (n_out - 1)

    warnings = ()
    mass = psi_in.norm() ** 2
    if mass < 1.0 - COVERAGE_TOL:
        warnings = (f"input grid covers only {mass!r} of unit probability mass",)

    # phase coef*(a_out*u^2 - 2*u*v + d_in*v^2) over output u_i = u0 + i*du and
    # input v_j = v0 + j*dv; the adjoint swaps the roles of a and d and of the
    # scaled coordinate, and conjugates
    s = kernel.scale
    if kernel.adjoint:
        prefactor, coef = kernel.prefactor.conjugate(), -kernel.coef
        a_out, d_in = kernel.d, kernel.a
        u0, du, v0, dv = x_min_out / s, step_out / s, psi_in.x_min, psi_in.dx
    else:
        prefactor, coef = kernel.prefactor, kernel.coef
        a_out, d_in = kernel.a, kernel.d
        u0, du, v0, dv = x_min_out, step_out, psi_in.x_min / s, psi_in.dx / s

    # the trapezoid sum resolves the kernel only while its phase turns by
    # less than pi per input step; the phase's v-gradient 2*coef*(d_in*v - u)
    # is linear, so its largest size over the two grids is at their ends
    turn = dv * max(abs(2.0 * coef * (d_in * v - u))
                    for u in (u0, u0 + du * (n_out - 1))
                    for v in (v0, v0 + dv * (n_in - 1)))
    if turn > math.pi:
        warnings += (f"kernel phase turns by up to {turn:.3g} rad per input step, "
                     "more than pi: the quadrature does not resolve it",)

    i = np.arange(n_out, dtype=float)
    v = v0 + dv * np.arange(n_in, dtype=float)
    u = u0 + du * i
    weighted = (np.exp(1j * (coef * (d_in * v * v - 2.0 * u0 * v)))
                * (trapezoid_weights(n_in, psi_in.dx) * psi_in.values))
    summed = chirp_z(-2.0 * coef * du * dv, n_in, n_out)(weighted)
    values = prefactor * np.exp(1j * (coef * (a_out * u * u - 2.0 * v0 * du * i))) * summed
    return ComplexGrid(x_min=x_min_out, dx=dx_out, values=values,
                       warnings=psi_in.warnings + warnings)
