"""Wigner functions: numerical transform, Gaussian closed form, point map.

The transform of a wavefunction,

    W(x, p) = (1/(2*pi*hbar)) * integral dy exp(i*p*y/hbar)
              * conj(psi(x + y/2)) * psi(x - y/2),

is a trapezoid sum over the offsets y_j = j*dx that the grid of psi holds
on both sides of each x_i.  The half-step samples psi(x +- y/2) come from
one spectral refinement of psi onto the half-step lattice: the DFT of psi,
zero-padded to twice its length, so psi is interpolated by its own band of
frequencies (exact for a band-limited psi that is negligible at both ends
of its grid, as a Gaussian sampled to many widths is).  The correlation
corr_j = conj(psi(x + y_j/2)) * psi(x - y_j/2) is Hermitian in j,
corr_-j = conj(corr_j), so only j >= 0 is summed:

    W(x_i, p) = (dx/(2*pi*hbar)) * (corr_0 + 2*Re sum_{j>=1} exp(i*p*y_j/hbar)*corr_j).

On the p grid p_k = p_min + k*dp, with theta = dp*dx/hbar,
exp(i*p_k*y_j/hbar) = exp(i*p_min*y_j/hbar) * exp(i*theta*k*j), so the sum
over j is kernels.chirp_z (a chirp-z transform at a 5-smooth FFT length)
between those two phase factors, a block of x rows at a time.  Only the
kept x columns of W are stored, with the p integral of every column.

Phase-space transport of Gaussian states uses the point map of the
transformation matrix M = ((a, b), (c, d)) = ((zd, -z), (-ud, u)),

    (x', p') = (alpha0*(a*x + b*p/m), (m/alpha0)*(c*x + d*p/m)),

i.e. the backward classical flow written in the width-aware parametrization
(x'/alpha0, -alpha0*p'/m) = M (x, p/m), with both sign flips of the second
component cancelled.  It is canonical exactly when det M = 1, which
wigner_pointmap requires within POINTMAP_DET_TOL; a matrix carries no other
mark of canonicity.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import Constants, TransformMatrix
from .kernels import ComplexGrid, chirp_z
from .packet import Moments
from .errors import ValidationError

GAUSSIAN_DET_TOL = 1e-6   # wigner_gaussian: |moment det - hbar^2/4| allowed
POINTMAP_DET_TOL = 1e-9   # wigner_pointmap: |det M - 1| allowed
# wigner_numeric: x rows per chirp-z block; 8, 16 and 32 rows took about
# the same time at 256 x 257, 16 the least at 2048 x 2049
WIGNER_ROWS = 16
# wigner_numeric allocates, besides 8 bytes per kept cell, under this many
# bytes per point of psi's grid and of the p grid: its blocks and their FFT
# buffers (tracemalloc: 819 at 385 + 257 points, 583 at 3073 + 2049)
WIGNER_BLOCK_BYTES = 2048


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Uniform phase-space samples; values[i, j] = W(x_j, p_i)."""

    x_min: float
    dx: float
    p_min: float
    dp: float
    values: np.ndarray
    warnings: tuple = ()

    def __post_init__(self):
        if self.dx <= 0.0 or self.dp <= 0.0:
            raise ValidationError("dx and dp must be positive")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValidationError("values must be a 2-D array (p rows, x columns)")
        # min and max carry any nan or inf, without a temporary per value
        if values.size and not (math.isfinite(values.min())
                                and math.isfinite(values.max())):
            raise ValidationError("values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def n_p(self):
        return self.values.shape[0]

    @property
    def n_x(self):
        return self.values.shape[1]

    def x(self):
        return self.x_min + self.dx * np.arange(self.n_x)

    def p(self):
        return self.p_min + self.dp * np.arange(self.n_p)


def _half_step_refine(values):
    """psi on the half-step lattice, psi_half[k] = psi(x_min + k*dx/2) for
    k = 0 .. 2n - 2, by zero-padding the DFT of psi to length 2n; an even n
    splits its Nyquist bin between +-n/2."""
    n = len(values)
    spectrum = np.fft.fft(values)
    padded = np.zeros(2 * n, dtype=complex)
    h = (n + 1) // 2
    padded[:h] = spectrum[:h]
    padded[h - n:] = spectrum[h:]
    if n % 2 == 0:
        padded[h - n] *= 0.5
        padded[h] = padded[h - n]
    return 2.0 * np.fft.ifft(padded)[:2 * n - 1]


def wigner_numeric(psi: ComplexGrid, p_grid, constants: Constants, columns):
    """Wigner transform of a gridded wavefunction.

    p_grid is (p_min, dp, n_p).  The x grid is the grid of psi, which should
    extend far enough that psi is negligible at both ends (the refinement
    treats psi as periodic).  columns = (start, count) is the run of x
    columns to keep.  Returns the PhaseSpaceGrid of the kept columns and
    the trapezoid integral of W over p at every x of psi's grid.  The grid
    carries psi's warnings, such as its coverage, and one more when the
    requested momenta exceed what the y sampling can resolve (Nyquist).
    """
    p_min, dp, n_p = p_grid
    if dp <= 0.0 or n_p < 2:
        raise ValidationError("p_grid must be (p_min, dp>0, n_p>=2)")
    hbar = constants.hbar
    n = psi.n
    dx = psi.dx
    start, count = columns
    if start < 0 or count < 1 or start + count > n:
        raise ValidationError("columns outside the grid of psi")

    warnings = psi.warnings
    p_abs_max = max(abs(p_min), abs(p_min + dp * (n_p - 1)))
    if p_abs_max * dx / hbar > math.pi:
        warnings = warnings + (
            f"p grid extends to {p_abs_max!r}, beyond the hbar*pi/dy = "
            f"{hbar * math.pi / dx!r} the y sampling resolves (aliasing)",)

    # psi_half padded by m zeros on each side: row i of `plus` holds
    # psi(x_i + y_j/2) and of `minus` psi(x_i - y_j/2), j = 1 .. m, as strided
    # views; offsets past either end of the grid read the zeros
    m = n - 1
    padded = np.zeros(4 * n - 3, dtype=complex)
    padded[m:3 * n - 2] = _half_step_refine(psi.values)
    windows = np.lib.stride_tricks.sliding_window_view(padded, m)
    plus = windows[m + 1::2][:n]
    minus = windows[::2, ::-1][:n]

    # the offsets y_j = j*dx, j = 1 .. m, sit at columns j - 1, and
    # theta*k*j = theta*k + theta*k*(j - 1)
    theta = dp * dx / hbar
    pre = np.exp(1j * ((p_min / hbar) * (dx * np.arange(1.0, n))))
    scale = dx / (2.0 * math.pi * hbar)
    post = (2.0 * scale) * np.exp(1j * (theta * np.arange(n_p, dtype=float)))
    transform = chirp_z(theta, m, n_p)

    density = scale * np.abs(psi.values) ** 2
    values = np.empty((n_p, count))
    marginal = np.empty(n)
    for i0 in range(0, n, WIGNER_ROWS):
        i1 = min(i0 + WIGNER_ROWS, n)
        # no row of the block reaches beyond offset j_max
        j_max = min(2 * (i1 - 1), 2 * (n - 1 - i0), m)
        block = np.conjugate(plus[i0:i1, :j_max])
        block *= minus[i0:i1, :j_max]
        block *= pre[:j_max]
        sums = transform(block)
        sums *= post
        w = sums.real
        w += density[i0:i1, None]
        marginal[i0:i1] = np.trapezoid(w, dx=dp, axis=1)
        a, b = max(i0, start), min(i1, start + count)
        if a < b:
            values[:, a - start:b - start] = w[a - i0:b - i0].T
        del block, sums, w   # freed before the next block is allocated

    grid = PhaseSpaceGrid(x_min=psi.x_min + dx * start, dx=dx, p_min=float(p_min),
                          dp=float(dp), values=values, warnings=warnings)
    return grid, marginal


def wigner_gaussian(moments: Moments, mean_x: float, mean_p: float,
                    constants: Constants):
    """Closed-form Gaussian Wigner function as an evaluator (x, p) -> W.

    W = (1/(pi*hbar)) * exp(-(2/hbar^2) * (<p~^2>*xt^2
        - <[x~,p~]_+>*xt*pt + <x~^2>*pt^2)) with shifted xt, pt.
    Requires moments consistent with the minimum determinant hbar^2/4.
    """
    hbar = constants.hbar
    det = moments.uncertainty_determinant()
    expected = 0.25 * hbar * hbar
    if abs(det - expected) > GAUSSIAN_DET_TOL:
        raise ValidationError(
            f"moment determinant {det!r} != hbar^2/4 = {expected!r} "
            f"beyond {GAUSSIAN_DET_TOL}"
        )

    def evaluate(x, p):
        xt = np.asarray(x) - mean_x
        pt = np.asarray(p) - mean_p
        quad = (moments.var_p * xt * xt - moments.corr * xt * pt
                + moments.var_x * pt * pt)
        return np.exp(-(2.0 / (hbar * hbar)) * quad) / (math.pi * hbar)

    return evaluate


def wigner_pointmap(w0, matrix: TransformMatrix, x, p, constants: Constants):
    """Transport an initial Wigner function by the symplectic point map:
    W(x, p, t) = W0(x', p') with (x', p') mapped backward through `matrix`.

    Rejects matrices that are not canonical, |det - 1| > POINTMAP_DET_TOL,
    since the point map is only measure-preserving for det = 1.
    """
    matrix.require_symplectic(POINTMAP_DET_TOL)
    x, p = np.asarray(x), np.asarray(p)
    mm, a0 = constants.mass, matrix.alpha0
    x0 = a0 * (matrix.a * x + matrix.b * (p / mm))
    p0 = (mm / a0) * (matrix.c * x + matrix.d * (p / mm))
    return w0(x0, p0)
