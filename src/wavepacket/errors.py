"""Exception types shared across the package.

The CLI maps each class onto its own exit code; the message names the
cause (a kernel at its caustic, two grids that differ, ...).
"""


class CapabilityError(Exception):
    """An operation was asked for outside its supported domain (e.g. a kernel
    at its caustic, where it is a delta function and the point map applies,
    or a grid that cannot resolve the position or momentum of a state)."""


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


class ValidationError(ValueError):
    """Input data violates a structural invariant (inconsistent moments,
    non-symplectic matrix, malformed grids, two states that must share a
    grid and do not, ...)."""


class ConfigError(ValueError):
    """A scenario configuration could not be parsed or validated."""
