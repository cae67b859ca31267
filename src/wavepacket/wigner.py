"""Wigner functions: numerical transform, Gaussian closed form, point map.

The transform of a wavefunction,

    W(x, p) = (1/(2*pi*hbar)) * integral dy exp(i*p*y/hbar)
              * conj(psi(x + y/2)) * psi(x - y/2),

is computed per x row by direct Fourier evaluation over the y offset.  The
half-step samples psi(x +- y/2) come from one cubic-spline refinement of
psi onto the half-step lattice, so y can run over the full grid without
doubling the input resolution.

Phase-space transport of Gaussian states uses the scaled point map

    (x'/alpha0, alpha0*p'/m) = (zd*x - z*p/m, u*p/m - ud*x),

i.e. the backward classical flow written in the width-aware parametrization;
it is canonical exactly when the transformation matrix has determinant 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import Constants
from .kernels import ComplexGrid
from .packet import Moments
from .errors import ValidationError


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


@dataclass(frozen=True)
class ScaledPhasePoint:
    """The column vector (x'/alpha0, -alpha0*p'/m) of the matrix relation.

    The sign of the second component follows the matrix equation's left-hand
    side; physical() undoes the scaling so downstream code never sees it.
    """

    xi: float
    pi: float
    alpha0: float
    mass: float

    def physical(self):
        return self.alpha0 * self.xi, -(self.mass / self.alpha0) * self.pi


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
                    constants: Constants, det_tol=1e-6):
    """Closed-form Gaussian Wigner function as an evaluator (x, p) -> W.

    W = (1/(pi*hbar)) * exp(-(2/hbar^2) * (<p~^2>*xt^2
        - <[x~,p~]_+>*xt*pt + <x~^2>*pt^2)) with shifted xt, pt.
    Requires moments consistent with the minimum determinant hbar^2/4.
    """
    hbar = constants.hbar
    det = moments.uncertainty_determinant()
    expected = 0.25 * hbar * hbar
    if abs(det - expected) > det_tol:
        raise ValidationError(
            f"moment determinant {det!r} != hbar^2/4 = {expected!r} "
            f"beyond {det_tol}"
        )

    def evaluate(x, p):
        xt = np.asarray(x) - mean_x
        pt = np.asarray(p) - mean_p
        quad = (moments.var_p * xt * xt - moments.corr * xt * pt
                + moments.var_x * pt * pt)
        return np.exp(-(2.0 / (hbar * hbar)) * quad) / (math.pi * hbar)

    return evaluate


def scaled_pointmap(matrix, x, p, constants: Constants):
    """Map a phase point through the transformation matrix, returning the
    scaled column vector as a ScaledPhasePoint.

    The matrix relation reads (x'/alpha0, -alpha0*p'/m) = M (x, p/m); the
    stored pi keeps the left-hand sign, so pi is minus the second component
    of the product M (x, p/m).
    """
    mm = constants.mass
    xi = matrix.m11 * x + matrix.m12 * (p / mm)
    pi = -(matrix.m21 * x + matrix.m22 * (p / mm))
    return ScaledPhasePoint(xi=xi, pi=pi, alpha0=matrix.alpha0, mass=mm)


def wigner_pointmap(w0, matrix, x, p, constants: Constants, det_tol=1e-9):
    """Transport an initial Wigner function by the symplectic point map:
    W(x, p, t) = W0(x', p') with (x', p') mapped backward through `matrix`.

    Rejects matrices that are not canonical (det != 1, e.g. the frozen-width
    diagnostic), since the point map is only measure-preserving for det = 1.
    """
    if getattr(matrix, "canonical", True) is False:
        raise ValidationError(
            "matrix is tagged non-canonical and cannot transport Wigner functions"
        )
    if abs(matrix.det - 1.0) > det_tol:
        raise ValidationError(
            f"det = {matrix.det!r} != 1 within {det_tol}: not a canonical map"
        )
    point = scaled_pointmap(matrix, np.asarray(x), np.asarray(p), constants)
    x0, p0 = point.physical()
    return w0(x0, p0)
