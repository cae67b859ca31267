"""Configuration-space propagator kernels and their quadrature application.

The kernel of a linear canonical transformation M = ((a, b), (c, d))
(core.TransformMatrix; Littlejohn, Phys. Rep. 138, 193 (1986)) is one
QuadraticPhaseKernel record,

    K(x, x') = prefactor * exp(i * coef * (a*x^2 - 2*x*y + d*y^2)),
    y = x'/scale.

kernel_td builds it for the time-dependent matrix M = ((zd, -z), (-ud, u))
of invariants.matrix_from_state: y = x'/alpha0, coef = m/(2*hbar*z) with
z = -b, and the physical prefactor (m/(2*pi*i*hbar*alpha0*z))^(1/2) on the
Maslov (metaplectic) branch that the packet's exp(-i*phi/2) follows,
phi = arg lambda: its phase -pi/4 - n*pi/2 drops by pi/2 at each zero of
z = alpha*sin(phi), so after n = floor(phi/pi) of them it is the principal
value times (+1, -1, -1, +1)[n mod 4], and the kernel gives the evolved
packet with its global phase.  At m = alpha0 = 1
it is the paper's time-independent kernel of a symplectic matrix, whose
quoted prefactor (1/(2*pi*i*hbar*b))^(1/2) differs only by a global factor
of +-i.  Of its two defining differential equations the first holds for
every matrix and the second up to (m*x/(alpha0*z))*(det M - 1)*K: for the
run's matrix that is the Wronskian's drift, which det_M_drift reads
(tests/scalar_reference.py differences both).

The kernel is singular where b vanishes; for |b| <= B_MIN it is a delta
function and callers must use the point map instead, which is signalled by
CapabilityError.

kernel_td is unitary for every z, whatever det M is: |prefactor|^2 =
m/(2*pi*hbar*alpha0*|z|) matches the phase's cross-term coefficient
m/(hbar*alpha0*z), so it keeps every state's norm.  apply_kernel's
quadrature keeps it only where the input grid resolves the phase and the
grids hold the packet.

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
    y = x'/scale.

    Calling it evaluates pointwise, vectorized over numpy arguments, in a
    fixed operation order; apply_kernel reads the fields instead.
    """

    prefactor: complex
    coef: float
    a: float
    d: float
    scale: float

    def __call__(self, x, x_prime):
        x, y = np.asarray(x), np.asarray(x_prime) / self.scale
        return self.prefactor * np.exp(
            1j * (self.coef * (self.a * x ** 2 - 2.0 * x * y + self.d * y ** 2)))


def kernel_td(matrix: TransformMatrix, constants: Constants,
              caustics=0) -> QuadraticPhaseKernel:
    """The time-dependent kernel of M = ((zd, -z), (-ud, u)).

    K(x, x') maps the initial coordinate x' (scaled by 1/alpha0 inside,
    following the parametrization) to the evolved coordinate x, unitarily
    for every z.  caustics, n = floor(phi/pi), selects the branch.

    Raises CapabilityError for |z| <= B_MIN (the t -> 0 caustic where the
    kernel turns into a delta function).
    """
    _require_off_caustic(matrix.b)
    z, a0 = -matrix.b, matrix.alpha0
    hbar, m = constants.hbar, constants.mass
    prefactor = cmath.sqrt(m / (2.0j * math.pi * hbar * a0 * z))
    return QuadraticPhaseKernel(prefactor=-prefactor if caustics % 4 in (1, 2) else prefactor,
                                coef=m / (2.0 * hbar * z), a=matrix.a, d=matrix.d,
                                scale=a0)


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

    # phase coef*(a*u^2 - 2*u*v + d*v^2) over output u_i = u0 + i*du and
    # scaled input v_j = v0 + j*dv
    coef, a, d, s = kernel.coef, kernel.a, kernel.d, kernel.scale
    u0, du, v0, dv = x_min_out, step_out, psi_in.x_min / s, psi_in.dx / s

    # the trapezoid sum resolves the kernel only while its phase turns by
    # less than pi per input step; the phase's v-gradient 2*coef*(d*v - u)
    # is linear, so its largest size over the two grids is at their ends
    turn = dv * max(abs(2.0 * coef * (d * v - u))
                    for u in (u0, u0 + du * (n_out - 1))
                    for v in (v0, v0 + dv * (n_in - 1)))
    if turn > math.pi:
        warnings += (f"kernel phase turns by up to {turn:.3g} rad per input step, "
                     "more than pi: the quadrature does not resolve it",)

    i = np.arange(n_out, dtype=float)
    v = v0 + dv * np.arange(n_in, dtype=float)
    u = u0 + du * i
    weighted = (np.exp(1j * (coef * (d * v * v - 2.0 * u0 * v)))
                * (trapezoid_weights(n_in, psi_in.dx) * psi_in.values))
    summed = chirp_z(-2.0 * coef * du * dv, n_in, n_out)(weighted)
    values = kernel.prefactor * np.exp(1j * (coef * (a * u * u - 2.0 * v0 * du * i))) * summed
    return ComplexGrid(x_min=x_min_out, dx=dx_out, values=values,
                       warnings=psi_in.warnings + warnings)
