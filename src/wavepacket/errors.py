"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific class that applies.
"""


class CapabilityError(Exception):
    """An operation was asked for outside its supported domain
    (e.g. a closed form requested for a frequency law that has none)."""


class DeltaLimitError(CapabilityError):
    """A propagator kernel was evaluated at (or too close to) its caustic,
    where it degenerates into a delta function.  Callers should switch to
    the point-map representation instead of integrating the kernel."""


class DivergenceError(Exception):
    """The numerical state, or a quantity derived from it, became non-finite.

    t is when that was detected: for solve_lambda the end of the sample
    interval in which the RK4 state went non-finite, for split_step the end
    of the block of oracle.FINITE_CHECK_EVERY steps in which the grid state
    did, and for the per-sample report quantities (invariants.require_finite)
    the first sample time at which one of them overflowed while the state
    was still finite.
    """

    def __init__(self, t, message=None):
        self.t = t
        super().__init__(message or f"non-finite state at t={t!r}")


class ResolutionError(Exception):
    """A grid cannot resolve the position or momentum content of a state."""


class ValidationError(ValueError):
    """Input data violates a structural invariant (inconsistent moments,
    non-symplectic matrix, malformed grids, ...)."""


class GridMismatchError(ValidationError):
    """Two gridded states that must share a grid do not."""


class ConfigError(ValueError):
    """A scenario configuration could not be parsed or validated."""
