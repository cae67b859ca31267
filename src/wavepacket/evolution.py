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

solve_lambda builds it by classic fixed-step RK4, as a product of per-step
2x2 propagators; the closed forms know it analytically for free motion and
constant w.  The polar decomposition lambda = alpha*exp(i*phi) gives the
width alpha = |lambda| and a phase that obeys phi' = 1/alpha^2; phi is
integrated alongside the trajectory rather than recovered from
principal-value angles, so it stays continuous across wraps."""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import InitialPacket, SystemSpec, ConstantOmega, is_free_motion
from .errors import CapabilityError, DivergenceError, ValidationError


@dataclass(frozen=True)
class LambdaState:
    """lambda, its derivative, and the polar quantities at one instant.

    phi is the continuously unwrapped phase; phi_dot is the dynamical phase
    velocity Im(lambda'*conj(lambda))/alpha^2, which equals 1/alpha^2 as long
    as the Wronskian stays at 1.
    """

    t: float
    lam: complex
    lam_dot: complex
    alpha: float
    alpha_dot: float
    phi: float
    phi_dot: float

    @property
    def u_hat(self):
        return self.lam.real

    @property
    def z_hat(self):
        return self.lam.imag

    @property
    def u_hat_dot(self):
        return self.lam_dot.real

    @property
    def z_hat_dot(self):
        return self.lam_dot.imag

    @property
    def wronskian(self):
        return self.z_hat_dot * self.u_hat - self.u_hat_dot * self.z_hat


@dataclass(frozen=True)
class ClassicalState:
    """Classical trajectory point (eta, eta_dot)."""

    t: float
    eta: float
    eta_dot: float


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
    """The samples of a Trajectory as columns, one array per quantity.

    The attribute names are those of LambdaState and ClassicalState, so a
    function written for one state, such as ermakov_residual or
    moments_from_lambda, computes the same formula on every sample at once.
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

    # the same property object, so det M has one body
    wronskian = LambdaState.wronskian


@dataclass(frozen=True)
class Trajectory:
    """Sampled joint evolution of lambda, eta and phi.

    `times` is a read-only float64 array of shape (n,) and `states` a
    read-only float64 array of shape (n, 7) of the integrator's raw state
    (u, u', z, z', eta, eta', phi) at each time.  `columns` gives them
    together with the polar quantities as SampleColumns, and indexing and
    `samples` give the (LambdaState, ClassicalState) pairs of plain floats;
    both are built on first use.
    """

    system: SystemSpec
    packet: InitialPacket
    times: np.ndarray
    states: np.ndarray

    def __len__(self):
        return len(self.states)

    def __getitem__(self, index):
        return self.samples[index]

    @cached_property
    def columns(self):
        u, ud, z, zd, eta, eta_dot, phi = self.states.T
        return SampleColumns(self.times, u, ud, z, zd, eta, eta_dot, phi,
                             *_polar(u, ud, z, zd))

    @cached_property
    def samples(self):
        s = self.columns
        rows = zip(*(column.tolist() for column in (
            s.t, s.u_hat, s.u_hat_dot, s.z_hat, s.z_hat_dot, s.eta, s.eta_dot,
            s.phi, s.alpha, s.alpha_dot, s.phi_dot)))
        return tuple(
            (LambdaState(t=t, lam=complex(u, z), lam_dot=complex(ud, zd),
                         alpha=a, alpha_dot=ad, phi=phi, phi_dot=pd),
             ClassicalState(t=t, eta=e, eta_dot=ed))
            for t, u, ud, z, zd, e, ed, phi, a, ad, pd in rows)


# RK4 steps per block of the prefix-product scan: memory is O(BLOCK_STEPS)
# plus the samples, whatever the number of steps
BLOCK_STEPS = 2048


def _rk4_stages(q, p, n1, n2, n4, h):
    """One classic RK4 step of q' = p, p' = n*q, with n = -w^2 taken at the
    step start (n1), midpoint (n2, used by k2 and k3) and end (n4).

    Returns (dq, dp, q2, q3, q4): the step is (q, p) -> (q + dq, p + dp),
    and q2..q4 are the stage values of q.  The stage states are
    yi + (0.5*h)*ki and yi + h*ki and the increment is
    (h/6)*((k1 + 2*(k2 + k3)) + k4), in that operation order; the arguments
    broadcast, so this builds the propagators of many steps at once.
    """
    half = 0.5 * h
    a1 = n1 * q
    q2, p2 = q + half * p, p + half * a1
    a2 = n2 * q2
    q3, p3 = q + half * p2, p + half * a2
    a3 = n2 * q3
    q4, p4 = q + h * p3, p + h * a3
    a4 = n4 * q4
    c = h / 6.0
    return (c * ((p + 2.0 * (p2 + p3)) + p4),
            c * ((a1 + 2.0 * (a2 + a3)) + a4),
            q2, q3, q4)


# the basis vectors (1, 0) and (0, 1), one per row, as (q, p)
_BASIS_Q = np.array([[1.0], [0.0]])
_BASIS_P = np.array([[0.0], [1.0]])


def _step_propagators(omega, t, h):
    """Per-step RK4 propagators for steps starting at the times t with sizes h.

    Returns (E, Q): 1 + E[:, :, k] is the 2x2 matrix that maps (q, p) at
    the start of step k to its end, and Q[i, :, k] gives the stage value
    q_{i+2} = Q[i, 0, k]*q + Q[i, 1, k]*p.  E is kept apart from the
    identity, which it is O(h) away from: 1 + E rounded would carry the same
    rounding error into every step of a constant law.  w is evaluated at t,
    t + h/2 and t + h of each step, in step order, by one call of omega.
    """
    w = omega(np.stack([t, t + 0.5 * h, t + h], axis=1))
    n = -(w * w)
    dq, dp, q2, q3, q4 = _rk4_stages(_BASIS_Q, _BASIS_P, n[:, 0], n[:, 1], n[:, 2], h)
    return np.stack([dq, dp]), np.stack([q2, q3, q4])


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


def solve_lambda(system: SystemSpec, packet: InitialPacket, t_grid, dt=1e-3) -> Trajectory:
    """Integrate lambda, eta and phi over t_grid with classic fixed-step RK4.

    t_grid must start at 0, be finite and increase strictly, and dt must be
    finite and positive (ValidationError otherwise).  Each sample interval
    [t, t_next] is covered by n = ceil(span/dt - 1e-12) uniform steps of
    h = span/n starting at t + k*h, so sample times are hit exactly.

    RK4 is linear on y'' + w^2 y = 0, so each step is a 2x2 matrix R_k and
    the fundamental matrix after k steps is R_k ... R_1.  It is built per
    block of BLOCK_STEPS steps by a prefix-product scan and carried from
    block to block; lambda and eta are read off it, and phi sums the RK4
    increment h/6*(p1 + 2*(p2 + p3) + p4), p = 1/|lambda|^2 at the stage
    states, in step order.  Raises DivergenceError at the first sample whose
    state is non-finite.  t_grid may be a sequence or an array; the
    Trajectory keeps a read-only float64 copy of it and the raw states as a
    read-only (n, 7) array, with no per-sample Python objects.
    """
    times = _validated_times(t_grid, dt)
    spans = np.diff(times)
    n_sub = np.maximum(1, np.ceil(spans / dt - 1e-12)).astype(np.int64)
    h_sub = spans / n_sub
    ends = np.cumsum(n_sub)          # steps taken at each sample after t = 0
    firsts = ends - n_sub

    omega = system.frequency_law.omega
    mass = system.constants.mass
    states = np.empty((len(times), 7))
    fundamental = np.eye(2)
    states[0] = (*_packet_states(packet, mass, fundamental), 0.0)
    phase = 0.0
    total = int(ends[-1]) if len(ends) else 0
    with np.errstate(all="ignore"):
        for start in range(0, total, BLOCK_STEPS):
            steps = np.arange(start, min(start + BLOCK_STEPS, total))
            interval = np.searchsorted(ends, steps, side="right")
            h = h_sub[interval]
            t = times[interval] + (steps - firsts[interval]) * h
            e, stages = _step_propagators(omega, t, h)
            _prefix_products(e)
            after = fundamental[:, :, None] + _matmul(e, fundamental[:, :, None])
            before = np.concatenate([fundamental[:, :, None], after[:, :, :-1]], axis=2)
            fundamental = after[:, :, -1]

            # stage states, linear in the state (u, u', z, z') at each step start
            u, ud, z, zd, _, _ = _packet_states(packet, mass, before)
            us = stages[:, 0] * u + stages[:, 1] * ud
            zs = stages[:, 0] * z + stages[:, 1] * zd
            p1 = 1.0 / (u * u + z * z)
            p2, p3, p4 = 1.0 / (us * us + zs * zs)
            increments = (h / 6.0) * ((p1 + 2.0 * (p2 + p3)) + p4)
            phases = np.cumsum(np.concatenate([[phase], increments]))[1:]
            phase = phases[-1]

            lo, hi = np.searchsorted(ends, [start, steps[-1] + 1], side="right")
            rows = np.arange(lo, hi) + 1
            local = ends[lo:hi] - 1 - start
            states[rows, :6] = np.transpose(
                _packet_states(packet, mass, after[:, :, local]))
            states[rows, 6] = phases[local]
            finite = np.isfinite(states[rows]).all(axis=1)
            if not finite.all():
                raise DivergenceError(float(times[rows[np.argmin(finite)]]))
    times.flags.writeable = states.flags.writeable = False
    return Trajectory(system=system, packet=packet, times=times, states=states)


# ---------------------------------------------------------------------------
# Closed forms (free motion and constant frequency only)
# ---------------------------------------------------------------------------

def _closed_form_fundamental(system, t):
    """The fundamental matrix ((C, S), (C', S')) at t, known analytically."""
    law = system.frequency_law
    if is_free_motion(law):
        return (1.0, t), (0.0, 1.0)
    if isinstance(law, ConstantOmega):
        w = law.omega0
        return ((math.cos(w * t), math.sin(w * t) / w),
                (-w * math.sin(w * t), math.cos(w * t)))
    raise CapabilityError(
        f"no closed form for frequency law {type(law).__name__}"
    )


def _closed_form_phi(system, packet, t):
    """Unwrapped phase of lambda(t) for the closed-form laws.

    Free motion never wraps; for constant w the phase gains exactly pi per
    half period, and within each half period lambda stays in one half plane,
    so the principal angle can be re-based on k*pi.
    """
    a0 = packet.alpha0
    law = system.frequency_law
    if isinstance(law, ConstantOmega) and law.omega0 > 0.0:
        w = law.omega0
        k = math.floor(w * t / math.pi)
        r = w * t - k * math.pi
        return k * math.pi + math.atan2(math.sin(r) / (a0 * w), a0 * math.cos(r))
    return math.atan(t / (a0 * a0))


def closed_form_lambda(system: SystemSpec, packet: InitialPacket, t: float) -> LambdaState:
    """Exact lambda(t) for Free or ConstantOmega systems.

    lambda = alpha0*cos(wt) + i*sin(wt)/(alpha0*w) for w > 0, and
    alpha0 + i*t/alpha0 for free motion.
    """
    u, ud, z, zd, _, _ = _packet_states(packet, system.constants.mass,
                                        _closed_form_fundamental(system, t))
    alpha, alpha_dot, phi_dot = map(float, _polar(u, ud, z, zd))
    return LambdaState(t=t, lam=complex(u, z), lam_dot=complex(ud, zd), alpha=alpha,
                       alpha_dot=alpha_dot, phi=_closed_form_phi(system, packet, t),
                       phi_dot=phi_dot)


def closed_form_classical(system: SystemSpec, packet: InitialPacket, t: float) -> ClassicalState:
    """Exact classical trajectory for Free or ConstantOmega systems."""
    *_, eta, eta_dot = _packet_states(packet, system.constants.mass,
                                      _closed_form_fundamental(system, t))
    return ClassicalState(t=t, eta=eta, eta_dot=eta_dot)


def ermakov_residual(state, omega):
    """|alpha'' + w^2*alpha - 1/alpha^3| with alpha'' evaluated from lambda.

    lambda'' = -w^2*lambda along solutions, so
    alpha'' = (|lambda'|^2 + Re(lambda''*conj(lambda)))/alpha - alpha'^2/alpha.
    Vanishes identically on true solutions of the equation of motion.  state
    is a LambdaState and omega a float, or SampleColumns and the array of w
    at its times.
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
