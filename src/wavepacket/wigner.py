"""Wigner functions: numerical transform, Gaussian closed form, point map.

The transform of a wavefunction,

    W(x, p) = (1/(2*pi*hbar)) * integral dy exp(i*p*y/hbar)
              * conj(psi(x + y/2)) * psi(x - y/2),

is computed per x row by direct Fourier evaluation over the y offset.  The
half-step samples psi(x +- y/2) come from one cubic-spline refinement of
psi onto the half-step lattice, so y can run over the full grid without
doubling the input resolution.

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

    def marginal_p(self):
        """integral W dx, one value per p row."""
        return np.trapezoid(self.values, dx=self.dx, axis=1)

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


def wigner_numeric(psi: ComplexGrid, p_grid, constants: Constants) -> PhaseSpaceGrid:
    """Wigner transform of a gridded wavefunction.

    p_grid is (p_min, dp, n_p).  The x grid of the output is the grid of
    psi.  Attaches warnings when psi is not normalized to 1e-6 or when the
    requested momenta exceed what the y sampling can resolve (Nyquist).
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

    # imported here, not at module level: it is the only scipy use and
    # most of the package's import time
    from scipy.interpolate import CubicSpline

    # one spline refinement onto the half-step lattice: psi_half[k] = psi(x_min + k*dx/2)
    x = psi.x()
    spline = CubicSpline(x, psi.values)
    x_half = psi.x_min + 0.5 * dx * np.arange(2 * n - 1)
    psi_half = spline(x_half)

    # x_i + y_j/2 -> half-lattice index 2i + j, valid while 0 <= 2i+j <= 2n-2
    offsets = np.arange(-(n - 1), n)           # y_j = j*dx
    phases = np.exp(1j * np.outer(p, offsets * dx) / hbar)  # (n_p, n_y)
    values = np.empty((n_p, n))
    for i in range(n):
        j_max = min(2 * i, 2 * (n - 1 - i))
        sl = slice(n - 1 - j_max, n + j_max)
        idx = offsets[sl]
        corr = np.conjugate(psi_half[2 * i + idx]) * psi_half[2 * i - idx]
        row = phases[:, sl] @ corr
        values[:, i] = row.real * (dx / (2.0 * math.pi * hbar))

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
