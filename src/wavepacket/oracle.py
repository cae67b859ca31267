"""Brute-force grid propagator for cross-validating the analytic paths.

Strang splitting of the quadratic-potential Schroedinger equation
(Feit, Fleck and Steiger, J. Comput. Phys. 47, 412 (1982)),

    psi -> exp(-i*V*dt/(2*hbar)) . F^-1 exp(-i*T*dt/hbar) F . exp(-i*V*dt/(2*hbar)),

with the kinetic factor applied in the momentum representation (FFT) and,
for time-dependent frequencies, the potential evaluated at the step
midpoint.  Over n steps the half-step potentials of adjacent steps k and
k+1 merge exactly into one factor, exp(-i*dt*m*(w_k^2 + w_{k+1}^2)*x^2/(4*hbar)),
so the product is V/2 . (T . V)^(n-1) . T . V/2; a merged factor is reused
while (w_k^2, w_{k+1}^2) repeats, which for a time-independent law means it
is built once.  All factors are unitary, so the norm is conserved to
rounding and a non-finite value never clears: the state is scanned for one
once per block of steps rather than every step.  Accuracy is second order
in dt.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import SystemSpec, omega_at
from .kernels import ComplexGrid
from .errors import DivergenceError, GridMismatchError, ResolutionError, ValidationError

FINITE_CHECK_EVERY = 64  # steps between scans of the state for non-finite values


@dataclass(frozen=True)
class GridState:
    """A wavefunction on a grid at a time instant; L2 norm must be 1."""

    grid: ComplexGrid
    t: float

    def __post_init__(self):
        norm = self.grid.norm()
        if abs(norm - 1.0) > 1e-8:
            raise ValidationError(f"state norm {norm!r} must be 1 within 1e-8")


def _momentum_grid(n, dx, hbar):
    return 2.0 * math.pi * hbar * np.fft.fftfreq(n, d=dx)


def _nyquist_check(grid: ComplexGrid, system: SystemSpec):
    """Require negligible spectral mass near the Nyquist edge (momentum
    resolved) and the position spread to fit in the box.

    The check is spectral because grid-space momentum estimates are
    themselves aliased exactly when the grid is too coarse.
    """
    x = grid.x()
    psi = grid.values
    dx = grid.dx

    spectrum = np.abs(np.fft.fft(psi)) ** 2
    freqs = np.fft.fftfreq(grid.n, d=dx)
    outer = np.abs(freqs) >= 0.75 * np.abs(freqs).max()
    outer_fraction = float(spectrum[outer].sum() / spectrum.sum())
    if outer_fraction > 1e-8:
        raise ResolutionError(
            f"{outer_fraction!r} of the spectral mass sits in the top quarter "
            "of the momentum band: grid too coarse for this state"
        )

    prob = np.abs(psi) ** 2
    mean_x = float(np.trapezoid(x * prob, dx=dx))
    var_x = float(np.trapezoid((x - mean_x) ** 2 * prob, dx=dx))
    span = x[-1] - x[0]
    if abs(mean_x - 0.5 * (x[0] + x[-1])) + 8.0 * math.sqrt(max(var_x, 0.0)) > 0.5 * span:
        raise ResolutionError("position content does not fit in the grid box")


def _central_mass(values, weights):
    n = len(values)
    lo, hi = n // 4, 3 * n // 4
    prob = np.abs(values) ** 2 * weights
    return float(np.sum(prob[lo:hi]) / np.sum(prob))


def split_step(state: GridState, system: SystemSpec, dt: float, steps: int) -> GridState:
    """Advance the state by `steps` Strang splitting steps of size dt.

    Zero steps returns the input unchanged.  The state is checked for
    non-finite values once per FINITE_CHECK_EVERY steps and after the last
    step; a DivergenceError carries the time at the end of the block in
    which the state went non-finite.  Periodic-boundary leakage is tracked
    by requiring >= 1 - 1e-10 of the mass inside the central half of the
    domain; violations attach a coverage warning to the result.
    """
    if dt <= 0.0:
        raise ValidationError("dt must be positive")
    if steps < 0:
        raise ValidationError("steps must be >= 0")
    if steps == 0:
        return state

    _nyquist_check(state.grid, system)

    c = system.constants
    hbar, m = c.hbar, c.mass
    grid = state.grid
    x = grid.x()
    p = _momentum_grid(grid.n, grid.dx, hbar)
    kinetic = np.exp(-0.5j * dt * p * p / (m * hbar))
    # exp(w2 * quarter_phase) is the half-step potential factor for w^2 = w2
    quarter_phase = (-0.25j * dt * m / hbar) * (x * x)

    def omega_squared(t_mid):
        w = omega_at(system, t_mid)
        return w * w  # overflows to inf, never raises, so divergence is reported

    weights = np.full(grid.n, grid.dx)
    warnings = grid.warnings
    t = state.t
    w2 = omega_squared(t + 0.5 * dt)
    psi = np.exp(w2 * quarter_phase) * grid.values
    spectrum = np.empty_like(psi)
    pair, merged = None, None
    for k in range(1, steps + 1):  # V/2 . (T . V)^(steps-1) . T . V/2
        np.fft.fft(psi, out=spectrum)
        spectrum *= kinetic
        np.fft.ifft(spectrum, out=psi)
        t += dt
        if k < steps:
            w2_next = omega_squared(t + 0.5 * dt)
            if pair != (w2, w2_next):
                pair = (w2, w2_next)
                merged = np.exp((w2 + w2_next) * quarter_phase)
            psi *= merged
            w2 = w2_next
        else:
            psi *= np.exp(w2 * quarter_phase)
        # every factor is unitary, so a non-finite value never clears again
        if (k % FINITE_CHECK_EVERY == 0 or k == steps) and not np.all(np.isfinite(psi)):
            raise DivergenceError(t)

    if _central_mass(psi, weights) < 1.0 - 1e-10:
        warnings = warnings + (
            "probability mass leaked outside the central half of the domain",)

    return GridState(grid=ComplexGrid(grid.x_min, grid.dx, psi, warnings), t=t)


def quadrature_moments(grid: ComplexGrid, hbar: float):
    """(<x>, <p>, <x~^2>, <p~^2>, <[x~,p~]_+>) by trapezoid quadrature,
    with the momentum operator applied spectrally.

    <[x~,p~]_+> = 2*Re integral conj(psi)*(x - <x>)*(p_op psi) dx, since
    <p_op x_op> is the conjugate of <x_op p_op>.
    """
    x = grid.x()
    psi = grid.values
    dx = grid.dx
    prob = np.abs(psi) ** 2

    mean_x = float(np.trapezoid(x * prob, dx=dx))
    var_x = float(np.trapezoid((x - mean_x) ** 2 * prob, dx=dx))

    p = _momentum_grid(grid.n, dx, hbar)
    p_psi = np.fft.ifft(p * np.fft.fft(psi))
    mean_p = float(np.trapezoid((np.conjugate(psi) * p_psi).real, dx=dx))
    var_p = float(np.trapezoid(np.abs(p_psi) ** 2, dx=dx)) - mean_p ** 2
    corr = 2.0 * float(np.trapezoid(
        (np.conjugate(psi) * (x - mean_x) * p_psi).real, dx=dx))
    return mean_x, mean_p, var_x, var_p, corr


def compare_states(a: GridState, b: GridState, hbar=1.0):
    """(l2_error, phase_aligned_l2_error, moment_errors) between two states
    on the same grid.

    The phase-aligned error minimizes ||a - e^(i*theta)*b|| over the global
    phase theta; moment_errors are the absolute differences of the five
    quadrature moments (<x>, <p>, <x~^2>, <p~^2>, <[x~,p~]_+>).
    """
    ga, gb = a.grid, b.grid
    if ga.n != gb.n or ga.x_min != gb.x_min or ga.dx != gb.dx:
        raise GridMismatchError("states must share a grid")
    dx = ga.dx
    diff = ga.values - gb.values
    l2 = math.sqrt(float(np.trapezoid(np.abs(diff) ** 2, dx=dx)))

    # the minimizing phase is -arg(overlap); the difference is integrated
    # directly, since ||a||^2 + ||b||^2 - 2|overlap| cancels below ~1e-8.
    # The overlap is formed in real arithmetic so that it is exactly real for
    # b = a (a fused complex multiply leaves a rounding-size imaginary part).
    ar, ai = ga.values.real, ga.values.imag
    br, bi = gb.values.real, gb.values.imag
    overlap = complex(np.trapezoid(ar * br + ai * bi, dx=dx),
                      np.trapezoid(ar * bi - ai * br, dx=dx))
    aligned_diff = ga.values - np.exp(-1j * cmath.phase(overlap)) * gb.values
    aligned = math.sqrt(float(np.trapezoid(np.abs(aligned_diff) ** 2, dx=dx)))

    ma = quadrature_moments(ga, hbar)
    mb = quadrature_moments(gb, hbar)
    moment_errors = tuple(abs(x - y) for x, y in zip(ma, mb))
    return l2, aligned, moment_errors
