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
is built once.  For free motion (core.is_free_motion: the law is Free or
ConstantOmega(0)) every potential factor is exactly 1 and the product is
T^n: one kinetic factor for the whole span, exp(-i*(n*dt)*p^2/(2*m*hbar)),
and one transform pair instead of n.  All factors are unitary, so the norm
is conserved to rounding and a non-finite value never clears: the state is
scanned for one once per block of steps rather than every step.  Accuracy is second order in dt.

A step is two transforms and two products, so the transforms call the
pocketfft gufuncs behind np.fft.fft and np.fft.ifft directly, with the
scale factor 1 that np.fft.fft(norm=None) and ifft(norm="forward") pass
them: the public wrappers' argument handling (result_type, axis
normalization, the axes= parsing of the gufunc call) costs about 2.7 us per
transform, a fifth of a 1024-point step.
"""

import cmath
import math
from dataclasses import InitVar, dataclass

import numpy as np

from .core import SystemSpec, is_free_motion
from .kernels import ComplexGrid
from .errors import CapabilityError, DivergenceError, ValidationError

FINITE_CHECK_EVERY = 64  # steps between scans of the state for non-finite values


@dataclass(frozen=True)
class GridState:
    """A wavefunction on a grid at a time instant: split_step's input and
    its result.

    An input state must have unit L2 norm within 1e-8 (ValidationError
    otherwise).  split_step builds its result with check_norm=False: once
    mass reaches the periodic boundary the trapezoid norm of the propagated
    state drifts, and that is a finding about the result, which the caller
    reports, not a bad input.  The scenario runner passes check_norm=False
    for the packet it samples on the configured grid too: a grid that cuts
    the packet is reported by its coverage warning and the norm check of
    the result, not raised as a config error.
    """

    grid: ComplexGrid
    t: float
    check_norm: InitVar[bool] = True

    def __post_init__(self, check_norm):
        if check_norm:
            norm = self.grid.norm()
            if abs(norm - 1.0) > 1e-8:
                raise ValidationError(f"state norm {norm!r} must be 1 within 1e-8")


def _momentum_grid(n, dx, hbar):
    return 2.0 * math.pi * hbar * np.fft.fftfreq(n, d=dx)


def _position_moments(grid: ComplexGrid):
    """(<x>, <x~^2>) of |psi|^2 by trapezoid quadrature."""
    x = grid.x()
    prob = np.abs(grid.values) ** 2
    mean_x = float(np.trapezoid(x * prob, dx=grid.dx))
    var_x = float(np.trapezoid((x - mean_x) ** 2 * prob, dx=grid.dx))
    return mean_x, var_x


def _nyquist_check(grid: ComplexGrid):
    """Require negligible spectral mass near the Nyquist edge (momentum
    resolved) and the position spread to fit in the box.

    The check is spectral because grid-space momentum estimates are
    themselves aliased exactly when the grid is too coarse.
    """
    spectrum = np.abs(np.fft.fft(grid.values)) ** 2
    freqs = np.fft.fftfreq(grid.n, d=grid.dx)
    outer = np.abs(freqs) >= 0.75 * np.abs(freqs).max()
    total = spectrum.sum()
    # a packet that samples to all zeros has nothing to alias
    outer_fraction = float(spectrum[outer].sum() / total) if total else 0.0
    if outer_fraction > 1e-8:
        raise CapabilityError(
            f"{outer_fraction!r} of the spectral mass sits in the top quarter "
            "of the momentum band: grid too coarse for this state"
        )

    x = grid.x()
    mean_x, var_x = _position_moments(grid)
    span = x[-1] - x[0]
    if abs(mean_x - 0.5 * (x[0] + x[-1])) + 8.0 * math.sqrt(max(var_x, 0.0)) > 0.5 * span:
        raise CapabilityError("position content does not fit in the grid box")


def _central_mass(values):
    n = len(values)
    lo, hi = n // 4, 3 * n // 4
    prob = np.abs(values) ** 2
    total = np.sum(prob)
    # no mass at all has none outside the central half
    return float(np.sum(prob[lo:hi]) / total) if total else 1.0


def _squared_omegas(law, t0, dt, steps):
    """w^2 at the midpoint t_k + dt/2 of every step, as floats.

    t_k is summed one dt at a time, as split_step sums t, and the law is
    evaluated FINITE_CHECK_EVERY midpoints at a time.
    """
    t_k = t0
    for start in range(0, steps, FINITE_CHECK_EVERY):
        starts = np.cumsum([t_k] + [dt] * (min(FINITE_CHECK_EVERY, steps - start) - 1))
        t_k = starts[-1] + dt
        w = law.omega(starts + 0.5 * dt)
        yield from (w * w).tolist()


def split_step(state: GridState, system: SystemSpec, dt: float, steps: int) -> GridState:
    """Advance the state by `steps` Strang splitting steps of size dt.

    Zero steps returns the input unchanged.  The state is checked for
    non-finite values once per FINITE_CHECK_EVERY steps and after the last
    step; a DivergenceError carries the time at the end of the block in
    which the state went non-finite.  For free motion
    (core.is_free_motion) the steps are one kinetic factor for the whole
    span; t is still summed one dt at a time.  Each transform is a direct
    call of the pocketfft gufunc fft(psi, 1.0, out) or
    ifft(spectrum, 1.0, out), which skips the argument handling of np.fft.
    Periodic-boundary leakage is tracked by requiring >= 1 - 1e-10 of the
    mass inside the central half of the domain; violations attach a
    coverage warning to the result.
    """
    if dt <= 0.0:
        raise ValidationError("dt must be positive")
    if steps < 0:
        raise ValidationError("steps must be >= 0")
    if steps == 0:
        return state

    _nyquist_check(state.grid)
    # imported here, not at module level: a run that never propagates
    # leaves numpy.fft unloaded
    from numpy.fft._pocketfft_umath import fft, ifft

    c = system.constants
    hbar, m = c.hbar, c.mass
    grid = state.grid
    x = grid.x()
    p = _momentum_grid(grid.n, grid.dx, hbar)
    t = state.t
    # a diverging state goes to inf and NaN quietly and is reported by the
    # finiteness scans, not by numpy warnings
    with np.errstate(all="ignore"):
        spectrum = np.empty_like(grid.values)
        if is_free_motion(system.frequency_law):  # every potential factor is 1: T^steps
            fft(grid.values, 1.0, spectrum)
            spectrum *= np.exp(-0.5j * (steps * dt) * p * p / (m * hbar)) / grid.n
            psi = ifft(spectrum, 1.0, np.empty_like(spectrum))
            for _ in range(steps):
                t += dt
        else:
            # the inverse FFT's 1/n is folded into the kinetic factor; for the
            # power-of-two n of a config that scaling is exact, so the result
            # is bit for bit that of a normalized ifft
            kinetic = np.exp(-0.5j * dt * p * p / (m * hbar)) / grid.n
            # exp(w2 * quarter_phase) is the half-step potential factor for w^2 = w2
            quarter_phase = (-0.25j * dt * m / hbar) * (x * x)
            w2s = _squared_omegas(system.frequency_law, t, dt, steps)
            w2 = next(w2s)
            psi = np.exp(w2 * quarter_phase) * grid.values
            pair, merged = None, None
            for k in range(1, steps + 1):  # V/2 . (T . V)^(steps-1) . T . V/2
                fft(psi, 1.0, spectrum)
                spectrum *= kinetic
                ifft(spectrum, 1.0, psi)
                t += dt
                if k < steps:
                    w2_next = next(w2s)
                    if pair != (w2, w2_next):
                        pair = (w2, w2_next)
                        merged = np.exp((w2 + w2_next) * quarter_phase)
                    psi *= merged
                    w2 = w2_next
                else:
                    psi *= np.exp(w2 * quarter_phase)
                # every factor is unitary, so a non-finite value never clears again
                if k % FINITE_CHECK_EVERY == 0 and not np.all(np.isfinite(psi)):
                    raise DivergenceError(t)
    if not np.all(np.isfinite(psi)):
        raise DivergenceError(t)

    warnings = grid.warnings
    if _central_mass(psi) < 1.0 - 1e-10:
        warnings = warnings + (
            "probability mass leaked outside the central half of the domain",)

    return GridState(grid=ComplexGrid(grid.x_min, grid.dx, psi, warnings), t=t,
                     check_norm=False)


def quadrature_moments(grid: ComplexGrid, hbar: float):
    """(<x>, <p>, <x~^2>, <p~^2>, <[x~,p~]_+>) by trapezoid quadrature,
    with the momentum operator applied spectrally.

    <[x~,p~]_+> = 2*Re integral conj(psi)*(x - <x>)*(p_op psi) dx, since
    <p_op x_op> is the conjugate of <x_op p_op>.
    """
    x = grid.x()
    psi = grid.values
    dx = grid.dx
    mean_x, var_x = _position_moments(grid)

    p = _momentum_grid(grid.n, dx, hbar)
    p_psi = np.fft.ifft(p * np.fft.fft(psi))
    mean_p = float(np.trapezoid((np.conjugate(psi) * p_psi).real, dx=dx))
    var_p = float(np.trapezoid(np.abs(p_psi) ** 2, dx=dx)) - mean_p ** 2
    corr = 2.0 * float(np.trapezoid(
        (np.conjugate(psi) * (x - mean_x) * p_psi).real, dx=dx))
    return mean_x, mean_p, var_x, var_p, corr


def compare_states(ga: ComplexGrid, gb: ComplexGrid, hbar: float):
    """(phase_aligned_l2_error, moment_errors) between two wavefunctions on
    the same grid; neither needs unit norm.

    The phase-aligned error minimizes ||a - e^(i*theta)*b|| over the global
    phase theta; moment_errors are the absolute differences of the five
    quadrature moments (<x>, <p>, <x~^2>, <p~^2>, <[x~,p~]_+>).
    """
    if ga.n != gb.n or ga.x_min != gb.x_min or ga.dx != gb.dx:
        raise ValidationError("states must share a grid")
    dx = ga.dx
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
    return aligned, moment_errors
