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

    W(x_i, p) = (dx/(2*pi*hbar)) * (corr_0 + 2*Re sum_{j>=1} exp(i*p*y_j/hbar)*corr_j),

and the real part of each complex product is one real dot product of
(cos, sin) with (Re, -Im) of corr_j.  The sum over j is one BLAS product
per fixed block of x rows, so the working memory is the
(n_p x (n - 1)) complex phase matrix plus one block.

Phase-space transport of Gaussian states uses the point map of the
transformation matrix M = ((a, b), (c, d)) = ((zd, -z), (-ud, u)),

    (x', p') = (alpha0*(a*x + b*p/m), (m/alpha0)*(c*x + d*p/m)),

i.e. the backward classical flow written in the width-aware parametrization
(x'/alpha0, -alpha0*p'/m) = M (x, p/m), with both sign flips of the second
component cancelled.  It is canonical exactly when det M = 1, which
wigner_pointmap requires.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import Constants, TransformMatrix
from .kernels import ComplexGrid
from .packet import Moments
from .errors import ValidationError

GAUSSIAN_DET_TOL = 1e-6   # wigner_gaussian: |moment det - hbar^2/4| allowed
POINTMAP_DET_TOL = 1e-9   # wigner_pointmap: |det M - 1| allowed
WIGNER_BLOCK = 32         # wigner_numeric: x rows per BLAS product


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
        if not np.all(np.isfinite(values)):
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

    def integral(self):
        return float(np.trapezoid(np.trapezoid(self.values, dx=self.dx, axis=1),
                                  dx=self.dp))

    def marginal_x(self):
        """integral W dp, one value per x column."""
        return np.trapezoid(self.values, dx=self.dp, axis=0)

    def column_window(self, start, count):
        """Sub-grid restricted to `count` x columns starting at `start`.

        The transform's y integral is truncated near the edges of the input
        grid, so accurate output needs the wavefunction sampled beyond the
        window of interest; this selects that central window.
        """
        if start < 0 or start + count > self.n_x:
            raise ValidationError("window outside grid")
        return PhaseSpaceGrid(
            x_min=self.x_min + self.dx * start, dx=self.dx,
            p_min=self.p_min, dp=self.dp,
            values=self.values[:, start:start + count],
            warnings=self.warnings,
        )


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


def wigner_numeric(psi: ComplexGrid, p_grid, constants: Constants) -> PhaseSpaceGrid:
    """Wigner transform of a gridded wavefunction.

    p_grid is (p_min, dp, n_p).  The x grid of the output is the grid of
    psi, which should extend far enough that psi is negligible at both ends
    (the refinement treats psi as periodic).  Attaches warnings when psi is
    not normalized to 1e-6 or when the requested momenta exceed what the y
    sampling can resolve (Nyquist).
    """
    p_min, dp, n_p = p_grid
    if dp <= 0.0 or n_p < 2:
        raise ValidationError("p_grid must be (p_min, dp>0, n_p>=2)")
    hbar = constants.hbar
    n = psi.n
    dx = psi.dx

    warnings = psi.warnings
    mass = psi.norm() ** 2
    if abs(mass - 1.0) > 1e-6:
        warnings = warnings + (
            f"input wavefunction norm^2 = {mass!r}, expected 1 within 1e-6",)

    p = p_min + dp * np.arange(n_p)
    p_abs_max = float(np.max(np.abs(p)))
    if p_abs_max * dx / hbar > math.pi:
        warnings = warnings + (
            f"p grid extends to {p_abs_max!r}, beyond the hbar*pi/dy = "
            f"{hbar * math.pi / dx!r} the y sampling resolves (aliasing)",)

    # phases[:, j-1] = exp(i*p*y_j/hbar) for y_j = j*dx, j = 1 .. m, read as
    # real (n_p, 2m) with columns cos, sin interleaved; the sines slot holds
    # the arguments first, so no other (n_p, m) array is allocated
    m = n - 1
    phases = np.empty((n_p, m), dtype=complex)
    trig = phases.view(float)
    np.multiply.outer(p / hbar, dx * np.arange(1, n), out=trig[:, 1::2])
    np.cos(trig[:, 1::2], out=trig[:, 0::2])
    np.sin(trig[:, 1::2], out=trig[:, 1::2])

    # psi_half padded by m zeros on each side: row i of `plus` holds
    # psi(x_i + y_j/2) and of `minus` psi(x_i - y_j/2), j = 1 .. m, as strided
    # views; offsets past either end of the grid read the zeros
    padded = np.zeros(4 * n - 3, dtype=complex)
    padded[m:3 * n - 2] = _half_step_refine(psi.values)
    windows = np.lib.stride_tricks.sliding_window_view(padded, m)
    plus = windows[m + 1::2][:n]
    minus = windows[::2, ::-1][:n]

    values = np.empty((n_p, n))
    block = np.empty((WIGNER_BLOCK, m), dtype=complex)
    for i0 in range(0, n, WIGNER_BLOCK):
        i1 = min(i0 + WIGNER_BLOCK, n)
        # no row of the block reaches beyond offset j_max
        j_max = min(2 * (i1 - 1), 2 * (n - 1 - i0), m)
        conj_corr = block[:i1 - i0, :j_max]
        np.conjugate(minus[i0:i1, :j_max], out=conj_corr)
        conj_corr *= plus[i0:i1, :j_max]
        np.matmul(trig[:, :2 * j_max], conj_corr.view(float).T, out=values[:, i0:i1])
    values *= 2.0
    values += np.abs(psi.values) ** 2
    values *= dx / (2.0 * math.pi * hbar)

    return PhaseSpaceGrid(x_min=psi.x_min, dx=dx, p_min=float(p_min), dp=float(dp),
                          values=values, warnings=warnings)


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

    Rejects matrices that are not canonical (tagged so, like the
    frozen-width diagnostic, or with |det - 1| > POINTMAP_DET_TOL), since
    the point map is only measure-preserving for det = 1.
    """
    if not matrix.canonical:
        raise ValidationError(
            "matrix is tagged non-canonical and cannot transport Wigner functions"
        )
    matrix.require_symplectic(POINTMAP_DET_TOL)
    x, p = np.asarray(x), np.asarray(p)
    mm, a0 = constants.mass, matrix.alpha0
    x0 = a0 * (matrix.a * x + matrix.b * (p / mm))
    p0 = (mm / a0) * (matrix.c * x + matrix.d * (p / mm))
    return w0(x0, p0)
