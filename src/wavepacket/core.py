"""Physical constants, system specification, and shared value types.

Natural units hbar = mass = 1 are the defaults; both can be overridden.
A system is a one-dimensional quadratic Hamiltonian H = p^2/2m + m w(t)^2 x^2 / 2,
fixed entirely by the constants and the frequency law w(t) (w = 0 for free
motion).  Initial states are minimum-uncertainty Gaussians parametrized by
their mean position x0, mean momentum p0 and the dimensionless width
parameter alpha0, with alpha0^2 = 2 m <x~^2>_0 / hbar.  Every linear
phase-space map (the time-dependent transformation matrix, the matrix of
a kernel at alpha0 = 1) is one TransformMatrix, canonical exactly when
its determinant is 1.
"""

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ValidationError


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Constants:
    """hbar and particle mass, both strictly positive."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "mass"):
            value = getattr(self, name)
            _require_finite(name, value)
            if value <= 0.0:
                raise ValidationError(f"{name} must be positive, got {value!r}")


# ---------------------------------------------------------------------------
# Frequency laws
#
# Each law's omega(t) takes a float or an ndarray of times and returns w at
# each of them, in one body that broadcasts over t (0.0*t where w does not
# depend on t): the integrator evaluates a whole block of steps per call.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Free:
    """Free motion, w(t) = 0."""

    def omega(self, t):
        return 0.0 * t


@dataclass(frozen=True)
class ConstantOmega:
    """Harmonic oscillator with constant frequency w >= 0."""

    omega0: float

    def __post_init__(self):
        _require_finite("omega0", self.omega0)
        if self.omega0 < 0.0:
            raise ValidationError(f"omega0 must be >= 0, got {self.omega0!r}")

    def omega(self, t):
        return self.omega0 + 0.0 * t


@dataclass(frozen=True)
class RampOmega:
    """Linearly ramped frequency w(t) = omega0 + slope * t."""

    omega0: float
    slope: float

    def __post_init__(self):
        _require_finite("omega0", self.omega0)
        _require_finite("slope", self.slope)

    def omega(self, t):
        return self.omega0 + self.slope * t


@dataclass(frozen=True)
class ModulatedOmega:
    """Periodically modulated frequency w(t) = omega0 * (1 + epsilon*cos(gamma*t))."""

    omega0: float
    epsilon: float
    gamma: float

    def __post_init__(self):
        for name in ("omega0", "epsilon", "gamma"):
            _require_finite(name, getattr(self, name))

    def omega(self, t):
        return self.omega0 * (1.0 + self.epsilon * np.cos(self.gamma * t))


@dataclass(frozen=True)
class TabulatedOmega:
    """Piecewise-linear w(t) through the given (t, w) pairs.

    Times must be strictly increasing and evaluation outside the table
    range is an error (no extrapolation).
    """

    times: tuple = field(default=())
    omegas: tuple = field(default=())

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        omegas = tuple(float(w) for w in self.omegas)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "omegas", omegas)
        if len(times) != len(omegas):
            raise ValidationError("times and omegas must have equal length")
        if len(times) < 2:
            raise ValidationError("tabulated law needs at least two points")
        for i, (t, w) in enumerate(zip(times, omegas)):
            _require_finite(f"times[{i}]", t)
            _require_finite(f"omegas[{i}]", w)
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise ValidationError("tabulated times must be strictly increasing")

    def omega(self, t):
        times, omegas = np.array(self.times), np.array(self.omegas)
        t = np.asarray(t, dtype=float)
        outside = ~((times[0] <= t) & (t <= times[-1]))
        if outside.any():
            first = float(t.flat[np.argmax(outside)])
            raise ValidationError(
                f"t={first!r} outside tabulated range [{self.times[0]}, {self.times[-1]}]"
            )
        # linear interpolation on segment i, the first with t <= times[i + 1]
        i = np.maximum(np.searchsorted(times, t), 1) - 1
        span = times[i + 1] - times[i]
        frac = (t - times[i]) / span
        return omegas[i] + frac * (omegas[i + 1] - omegas[i])


FrequencyLaw = Union[Free, ConstantOmega, RampOmega, ModulatedOmega, TabulatedOmega]


def is_free_motion(law: FrequencyLaw) -> bool:
    """True for the laws that are free motion by construction: Free and
    ConstantOmega(0), where the oracle takes its one-factor path; a law of
    another type is not free motion even where its parameters make w
    vanish."""
    return isinstance(law, Free) or (isinstance(law, ConstantOmega)
                                     and law.omega0 == 0.0)


@dataclass(frozen=True)
class SystemSpec:
    """A quadratic Hamiltonian: constants plus the frequency law w(t)."""

    constants: Constants = field(default_factory=Constants)
    frequency_law: FrequencyLaw = field(default_factory=Free)


# ---------------------------------------------------------------------------
# Initial packet
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InitialPacket:
    """Minimum-uncertainty Gaussian packet at t = 0.

    alpha0 is dimensionless: alpha0^2 = 2 m <x~^2>_0 / hbar, so 1/alpha0
    plays the same role for the momentum spread.  Zero initial
    position-momentum correlation is implied.
    """

    x0: float = 0.0
    p0: float = 0.0
    alpha0: float = 1.0

    def __post_init__(self):
        _require_finite("x0", self.x0)
        _require_finite("p0", self.p0)
        _require_finite("alpha0", self.alpha0)
        if self.alpha0 <= 0.0:
            raise ValidationError(f"alpha0 must be positive, got {self.alpha0!r}")


# ---------------------------------------------------------------------------
# Linear phase-space maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransformMatrix:
    """Real 2x2 matrix ((a, b), (c, d)) acting on column vectors scaled by
    alpha0 (1 for the paper's time-independent kernels, the case
    m = alpha0 = 1 of kernels.kernel_td).

    The map is canonical exactly when det = 1 (Sp(2, R)).  Construction
    never checks det: where a unit determinant is a precondition, the
    consumer calls require_symplectic.
    """

    a: float
    b: float
    c: float
    d: float
    alpha0: float = 1.0

    def __post_init__(self):
        if not self.alpha0 > 0.0:
            raise ValidationError(f"alpha0 must be positive, got {self.alpha0!r}")

    @property
    def det(self):
        return self.a * self.d - self.b * self.c

    def require_symplectic(self, tol):
        if abs(self.det - 1.0) > tol:
            raise ValidationError(
                f"matrix is not symplectic: det={self.det!r} (tol {tol})"
            )
