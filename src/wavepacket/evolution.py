"""Evolution of the complex width variable and the classical trajectory.

Both obey the same linear equation of motion,

    lambda'' + w(t)^2 lambda = 0,      eta'' + w(t)^2 eta = 0,

with lambda = u_hat + i*z_hat complex and eta real.  The initial conditions

    lambda(0) = alpha0,   lambda'(0) = i/alpha0,
    eta(0)    = x0,       eta'(0)    = p0/m,

pin the Wronskian z_hat'*u_hat - u_hat'*z_hat to exactly 1 and make the
t = 0 state the minimum-uncertainty packet.  So one real fundamental matrix
((C, S), (C', S')) of y'' + w^2 y = 0, the identity at t = 0, carries every
packet:

    lambda = alpha0*C + i*S/alpha0,      eta = x0*C + (p0/m)*S.

solve_lambda builds it by classic fixed-step RK4, a product of per-step 2x2
propagators; solved again at 2*dt, it gives cli's estimate of its error.
The polar decomposition lambda = alpha*exp(i*phi) gives the width |lambda|
and the phase phi = arg lambda, unwrapped step by step across wraps."""

import math
import operator
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .core import InitialPacket, SystemSpec
from .errors import DivergenceError, ValidationError


def _polar(u, ud, z, zd):
    """(alpha, alpha', phi') of lambda = u + i*z with derivative ud + i*zd.

    alpha = |lambda| is hypot(u, z), as abs of a complex number is, and
    alpha' and phi' are Re and Im of lambda'*conj(lambda), written out as
    CPython's complex product forms them, over alpha and alpha^2.  Works on
    floats and on arrays.
    """
    alpha = np.hypot(u, z)
    alpha_dot = (ud * u - zd * -z) / alpha
    phi_dot = (ud * -z + zd * u) / (alpha * alpha)
    return alpha, alpha_dot, phi_dot


@dataclass(frozen=True)
class SampleColumns:
    """The samples of a Trajectory as columns, one array per quantity, or
    one sample of it as plain floats (traj[i]).

    lambda = u_hat + i*z_hat and eta are the raw state; alpha = |lambda|
    and phi is its continuously unwrapped arg; phi_dot is the dynamical
    phase velocity Im(lambda'*conj(lambda))/alpha^2, which equals 1/alpha^2
    as long as the Wronskian stays at 1.  A formula written over these
    names, such as ermakov_residual or moments_from_lambda, computes the
    same value for one sample and for every sample at once.
    """

    t: np.ndarray
    u_hat: np.ndarray
    u_hat_dot: np.ndarray
    z_hat: np.ndarray
    z_hat_dot: np.ndarray
    eta: np.ndarray
    eta_dot: np.ndarray
    phi: np.ndarray
    alpha: np.ndarray
    alpha_dot: np.ndarray
    phi_dot: np.ndarray

    @property
    def wronskian(self):
        """z_hat'*u_hat - u_hat'*z_hat, which is det M and 1 on exact solutions."""
        return self.z_hat_dot * self.u_hat - self.u_hat_dot * self.z_hat


@dataclass(frozen=True)
class Trajectory:
    """Sampled joint evolution of lambda, eta and phi.

    `times` is a read-only float64 array of shape (n,) and `states` a
    read-only float64 array of shape (n, 7) of the integrator's raw state
    (u, u', z, z', eta, eta', phi) at each time.  `columns` gives them
    together with the polar quantities as SampleColumns, built on first
    use, and traj[i] gives sample i as SampleColumns of plain floats; i
    must be an integer, and slicing is not supported (slice traj.columns).
    """

    system: SystemSpec
    packet: InitialPacket
    times: np.ndarray
    states: np.ndarray

    def __len__(self):
        return len(self.states)

    def __getitem__(self, index):
        index = operator.index(index)   # one sample; a slice is a TypeError
        columns = self.columns
        return SampleColumns(*(float(getattr(columns, f.name)[index])
                               for f in fields(SampleColumns)))

    @cached_property
    def columns(self):
        u, ud, z, zd, eta, eta_dot, phi = self.states.T
        return SampleColumns(self.times, u, ud, z, zd, eta, eta_dot, phi,
                             *_polar(u, ud, z, zd))


# RK4 steps per block of the prefix-product scan: memory is O(BLOCK_STEPS)
# plus the samples, whatever the number of steps
BLOCK_STEPS = 2048


def _step_propagators(omega, t, h):
    """Per-step RK4 propagators for steps starting at the times t with sizes h.

    Returns E: 1 + E[:, :, k] maps (q, p) at the start of step k to its end.
    E is kept apart from the identity, which it is O(h) away from: 1 + E
    rounded would carry the same rounding error into every step of a
    constant law.  w is evaluated at t, t + h/2 and t + h of each step, in
    step order, by one call of omega.  Each is one classic RK4 step of
    q' = p, p' = -w^2*q on both basis vectors: stage states yi + (0.5*h)*ki
    and yi + h*ki, and the increment (h/6)*((k1 + 2*(k2 + k3)) + k4) in that
    operation order.  A stage's q lives only inside its -w^2*q, and k2 + k3
    is summed in place into k2 as soon as k3 exists.
    """
    n1, n2, n4 = (-np.square(omega(np.stack([t, t + 0.5 * h, t + h], axis=1)))).T
    e = np.empty((2, 2, len(t)))
    q, p = np.hsplit(np.eye(2), 2)      # the basis vectors (1, 0) and (0, 1)
    half = 0.5 * h
    a1 = n1 * q
    p2, a2 = p + half * a1, n2 * (q + half * p)
    p3, a3 = p + half * a2, n2 * (q + half * p2)
    p2 += p3                            # p2 + p3
    a2 += a3                            # a2 + a3
    p4, a4 = p + h * a3, n4 * (q + h * p3)
    del p3, a3
    c = h / 6.0
    np.multiply(c, (p + 2.0 * p2) + p4, out=e[0])
    np.multiply(c, (a1 + 2.0 * a2) + a4, out=e[1])
    return e


def _matmul(a, b):
    """a @ b over the leading 2x2 axes, elementwise in any trailing axis."""
    return a[:, :1] * b[:1] + a[:, 1:] * b[1:]


def _prefix_products(e):
    """In place, 1 + e[:, :, k] becomes (1 + e[:, :, k]) @ ... @ (1 + e[:, :, 0]).

    A doubling scan (Hillis and Steele; Blelloch, CMU-CS-90-190): after the
    pass with offset d, entry k holds the product of the 2d entries ending
    at k, so log2(n) vectorized passes replace n sequential products.  Each
    product (1 + a)(1 + b) is formed as 1 + (a + b + a@b).
    """
    d = 1
    while d < e.shape[-1]:
        a, b = e[:, :, d:], e[:, :, :-d]
        e[:, :, d:] = a + b + _matmul(a, b)
        d *= 2


def _packet_states(packet, mass, fundamental):
    """(u, u', z, z', eta, eta') of the packet, from the fundamental matrix
    ((C, S), (C', S')) of y'' + w^2 y = 0 with C(0) = S'(0) = 1 and
    C'(0) = S(0) = 0: lambda = alpha0*C + i*S/alpha0 and
    eta = x0*C + (p0/m)*S.  Works on floats and on arrays."""
    (c, s), (cd, sd) = fundamental
    a0, x0, v0 = packet.alpha0, packet.x0, packet.p0 / mass
    return (a0 * c, a0 * cd, s / a0, sd / a0, x0 * c + v0 * s, x0 * cd + v0 * sd)


def _validated_times(t_grid, dt):
    times = np.array(t_grid, dtype=np.float64)
    if times.ndim != 1:
        raise ValidationError("t_grid must be one-dimensional")
    if not len(times) or times[0] != 0.0:
        raise ValidationError("t_grid must start at 0")
    finite = np.isfinite(times)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValidationError(f"t_grid[{i}] must be finite, got {float(times[i])!r}")
    if np.any(times[1:] <= times[:-1]):
        raise ValidationError("t_grid must be strictly increasing")
    if not math.isfinite(dt):
        raise ValidationError(f"dt must be finite, got {dt!r}")
    if dt <= 0.0:
        raise ValidationError("dt must be positive")
    return times


def _substeps(spans, dt):
    """RK4 steps per sample interval: k for a span within a relative 1e-9 of
    k*dt, the tolerance of the config's own multiple check, else
    ceil(span/dt); at least 1."""
    ratio = spans / dt
    k = np.rint(ratio)
    n = np.where(np.abs(ratio - k) <= 1e-9 * k, k, np.ceil(ratio))
    return np.maximum(1, n).astype(np.int64)


def solve_lambda(system: SystemSpec, packet: InitialPacket, t_grid, dt=1e-3):
    """Integrate lambda and eta over t_grid with classic fixed-step RK4.

    t_grid must start at 0, be finite and increase strictly, and dt must be
    finite and positive (ValidationError otherwise).  Each sample interval
    [t, t_next] is covered by n uniform steps of h = span/n starting at
    t + k*h, so sample times are hit exactly: n = k for a span within a
    relative 1e-9 of k*dt, else ceil(span/dt).

    RK4 is linear on y'' + w^2 y = 0, so each step is a 2x2 matrix R_k and
    the fundamental matrix after k steps is R_k ... R_1.  It is built per
    block of BLOCK_STEPS steps by a prefix-product scan and carried from
    block to block; lambda and eta are read off it, and phi is arg lambda:
    the principal angle atan2(z, u) less 2*pi for each whole turn rounded
    off the differences of the angles at consecutive step ends, an integer
    count that builds up no rounding, right while each step turns lambda by
    less than pi.  Raises DivergenceError at the first sample whose state is
    non-finite.  t_grid may be a sequence or an array; the Trajectory keeps
    a read-only float64 copy of it and the raw states as a read-only (n, 7)
    array, with no per-sample Python objects.
    """
    times = _validated_times(t_grid, dt)
    spans = np.diff(times)
    n_sub = _substeps(spans, dt)
    h_sub = spans / n_sub
    ends = np.cumsum(n_sub)          # steps taken at each sample after t = 0
    firsts = ends - n_sub

    def step_times(steps):           # (start time, size) of each step
        interval = np.searchsorted(ends, steps, side="right")
        h = h_sub[interval]
        return times[interval] + (steps - firsts[interval]) * h, h

    omega, mass, a0 = system.frequency_law.omega, system.constants.mass, packet.alpha0
    states = np.empty((len(times), 7))
    states[0] = (*_packet_states(packet, mass, np.eye(2)), 0.0)
    total = int(ends[-1]) if len(ends) else 0

    def block(start, fundamental, phase):
        """The block of steps from `start`: writes its samples into `states`
        and returns the matrix and phase at its end; frees all else."""
        steps = np.arange(start, min(start + BLOCK_STEPS, total))
        e = _step_propagators(omega, *step_times(steps))
        _prefix_products(e)
        after = fundamental[:, :, None] + _matmul(e, fundamental[:, :, None])

        # arg lambda at each step end, the first turn taken from the carried phase
        angles = np.arctan2(after[0, 1] / a0, a0 * after[0, 0])
        wraps = np.rint(np.diff(angles, prepend=phase) / math.tau)
        phases = angles - math.tau * np.cumsum(wraps)
        del e, angles, wraps

        lo, hi = np.searchsorted(ends, [start, steps[-1] + 1], side="right")
        rows = np.arange(lo, hi) + 1
        local = ends[lo:hi] - 1 - start
        states[rows, :6] = np.transpose(_packet_states(packet, mass, after[:, :, local]))
        states[rows, 6] = phases[local]
        finite = np.isfinite(states[rows]).all(axis=1)
        if not finite.all():
            raise DivergenceError(float(times[rows[np.argmin(finite)]]))
        return after[:, :, -1].copy(), phases[-1]

    fundamental, phase = np.eye(2), 0.0
    with np.errstate(all="ignore"):
        for start in range(0, total, BLOCK_STEPS):
            fundamental, phase = block(start, fundamental, phase)
    times.flags.writeable = states.flags.writeable = False
    return Trajectory(system=system, packet=packet, times=times, states=states)


def ermakov_residual(state, omega):
    """|alpha'' + w^2*alpha - 1/alpha^3| with alpha'' evaluated from lambda.

    lambda'' = -w^2*lambda along solutions, so
    alpha'' = (|lambda'|^2 + Re(lambda''*conj(lambda)))/alpha - alpha'^2/alpha.
    Vanishes identically on true solutions of the equation of motion.  state
    is one sample, traj[i], and omega a float, or the SampleColumns of a
    trajectory and the array of w at its times.
    """
    u, ud, z, zd = state.u_hat, state.u_hat_dot, state.z_hat, state.z_hat_dot
    alpha, alpha_dot = state.alpha, state.alpha_dot
    w2 = omega * omega
    # the complex products as CPython forms them; lambda'' = -w^2*lambda
    # drops only 0.0*z and 0.0*u terms, which can change nothing but the
    # sign of a zero that |lambda'|^2 > 0 then absorbs
    speed2 = ud * ud - zd * -zd
    accel = (-w2 * u) * u - (-w2 * z) * -z
    alpha_ddot = (speed2 + accel) / alpha - alpha_dot * alpha_dot / alpha
    # x ** 3 on a float is libm pow, and so is float_power
    return abs(alpha_ddot + w2 * alpha - 1.0 / np.float_power(alpha, 3))
