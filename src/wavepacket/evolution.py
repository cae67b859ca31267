"""Evolution of the complex width variable and the classical trajectory.

Both obey the same linear equation of motion,

    lambda'' + w(t)^2 lambda = 0,      eta'' + w(t)^2 eta = 0,

with lambda = u_hat + i*z_hat complex and eta real.  The initial conditions

    lambda(0) = alpha0,   lambda'(0) = i/alpha0,
    eta(0)    = x0,       eta'(0)    = p0/m,

pin the Wronskian z_hat'*u_hat - u_hat'*z_hat to exactly 1 and make the
t = 0 state the minimum-uncertainty packet.  The polar decomposition
lambda = alpha*exp(i*phi) gives the width alpha = |lambda| and a phase that
obeys phi' = 1/alpha^2; phi is integrated alongside the trajectory rather
than recovered from principal-value angles, so it stays continuous across
wraps.
"""

import math
from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True)
class Trajectory:
    """Sampled joint evolution of lambda, eta and phi.

    `states` holds the integrator's raw state (u, u', z, z', eta, eta', phi)
    at each of `times`; indexing and `samples` give the
    (LambdaState, ClassicalState) pairs, built on first use.
    """

    system: SystemSpec
    packet: InitialPacket
    times: tuple
    states: tuple

    def __len__(self):
        return len(self.states)

    def __getitem__(self, index):
        return self.samples[index]

    @cached_property
    def samples(self):
        return tuple(
            (_make_state(t, complex(u, z), complex(ud, zd), phi),
             ClassicalState(t=t, eta=e, eta_dot=ed))
            for t, (u, ud, z, zd, e, ed, phi) in zip(self.times, self.states))


def _make_state(t, lam, lam_dot, phi):
    alpha = abs(lam)
    cross = lam_dot * lam.conjugate()
    alpha_dot = cross.real / alpha
    phi_dot = cross.imag / (alpha * alpha)
    return LambdaState(t=t, lam=lam, lam_dot=lam_dot,
                       alpha=alpha, alpha_dot=alpha_dot,
                       phi=phi, phi_dot=phi_dot)


def initial_state(packet: InitialPacket):
    """The t = 0 LambdaState implied by the normalization convention."""
    a0 = packet.alpha0
    return _make_state(0.0, complex(a0, 0.0), complex(0.0, 1.0 / a0), 0.0)


def _rk4_step(omega, t, y, h):
    """One classic RK4 step for y = (u, u', z, z', eta, eta', phi).

    The right-hand side is (u', -w^2 u, z', -w^2 z, eta', -w^2 eta,
    1/(u^2 + z^2)) with w = omega(t); omega is the frequency law's bound
    `omega` method.  Every stage is written out component by component, and
    the operation order is the contract: w^2 is w*w, the stage states are
    yi + (0.5*h)*ki and yi + h*ki, and the update is
    yi + (h/6)*((k1 + 2*(k2 + k3)) + k4), so each result rounds exactly as
    in the tuple-per-stage form (kept as the reference in the tests).  w is
    evaluated once at t + h/2 for both k2 and k3, and phi, which feeds no
    derivative, gets only its final update.
    """
    u, ud, z, zd, e, ed, phi = y
    half = 0.5 * h

    w = omega(t)
    n1 = -(w * w)
    au1, az1, ae1 = n1 * u, n1 * z, n1 * e
    p1 = 1.0 / (u * u + z * z)
    u2, ud2 = u + half * ud, ud + half * au1
    z2, zd2 = z + half * zd, zd + half * az1
    e2, ed2 = e + half * ed, ed + half * ae1

    w = omega(t + half)
    n2 = -(w * w)
    au2, az2, ae2 = n2 * u2, n2 * z2, n2 * e2
    p2 = 1.0 / (u2 * u2 + z2 * z2)
    u3, ud3 = u + half * ud2, ud + half * au2
    z3, zd3 = z + half * zd2, zd + half * az2
    e3, ed3 = e + half * ed2, ed + half * ae2

    au3, az3, ae3 = n2 * u3, n2 * z3, n2 * e3
    p3 = 1.0 / (u3 * u3 + z3 * z3)
    u4, ud4 = u + h * ud3, ud + h * au3
    z4, zd4 = z + h * zd3, zd + h * az3
    e4, ed4 = e + h * ed3, ed + h * ae3

    w = omega(t + h)
    n4 = -(w * w)
    au4, az4, ae4 = n4 * u4, n4 * z4, n4 * e4
    p4 = 1.0 / (u4 * u4 + z4 * z4)

    c = h / 6.0
    return (u + c * ((ud + 2.0 * (ud2 + ud3)) + ud4),
            ud + c * ((au1 + 2.0 * (au2 + au3)) + au4),
            z + c * ((zd + 2.0 * (zd2 + zd3)) + zd4),
            zd + c * ((az1 + 2.0 * (az2 + az3)) + az4),
            e + c * ((ed + 2.0 * (ed2 + ed3)) + ed4),
            ed + c * ((ae1 + 2.0 * (ae2 + ae3)) + ae4),
            phi + c * ((p1 + 2.0 * (p2 + p3)) + p4))


def solve_lambda(system: SystemSpec, packet: InitialPacket, t_grid, dt=1e-3) -> Trajectory:
    """Integrate lambda, eta and phi over t_grid with classic fixed-step RK4.

    t_grid must start at 0, be finite and increase strictly, and dt must be
    finite and positive (ValidationError otherwise).  Each sample interval is
    covered by uniform substeps of size <= dt, so sample times are hit
    exactly.  Raises DivergenceError if the state goes non-finite.  The
    Trajectory keeps the raw state tuple at each sample time.
    """
    t_grid = [float(t) for t in t_grid]
    if not t_grid or t_grid[0] != 0.0:
        raise ValidationError("t_grid must start at 0")
    for i, t in enumerate(t_grid):
        if not math.isfinite(t):
            raise ValidationError(f"t_grid[{i}] must be finite, got {t!r}")
    if any(t1 >= t2 for t1, t2 in zip(t_grid, t_grid[1:])):
        raise ValidationError("t_grid must be strictly increasing")
    if not math.isfinite(dt):
        raise ValidationError(f"dt must be finite, got {dt!r}")
    if dt <= 0.0:
        raise ValidationError("dt must be positive")

    omega = system.frequency_law.omega
    m = system.constants.mass
    a0 = packet.alpha0
    y = (a0, 0.0, 0.0, 1.0 / a0, packet.x0, packet.p0 / m, 0.0)

    states = [y]
    t = 0.0
    for t_next in t_grid[1:]:
        span = t_next - t
        n_sub = max(1, math.ceil(span / dt - 1e-12))
        h = span / n_sub
        for k in range(n_sub):
            y = _rk4_step(omega, t + k * h, y, h)
        t = t_next
        if not all(map(math.isfinite, y)):
            raise DivergenceError(t)
        states.append(y)
    return Trajectory(system=system, packet=packet, times=tuple(t_grid),
                      states=tuple(states))


# ---------------------------------------------------------------------------
# Closed forms (free motion and constant frequency only)
# ---------------------------------------------------------------------------

def _closed_form_basis(system, t):
    """Fundamental solutions (C, S) with C(0)=1, C'(0)=0, S(0)=0, S'(0)=1."""
    law = system.frequency_law
    if is_free_motion(law):
        return 1.0, 0.0, t, 1.0
    if isinstance(law, ConstantOmega):
        w = law.omega0
        return math.cos(w * t), -w * math.sin(w * t), math.sin(w * t) / w, math.cos(w * t)
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
    C, Cd, S, Sd = _closed_form_basis(system, t)
    a0 = packet.alpha0
    lam = complex(a0 * C, S / a0)
    lam_dot = complex(a0 * Cd, Sd / a0)
    phi = _closed_form_phi(system, packet, t)
    state = _make_state(t, lam, lam_dot, 0.0)
    return LambdaState(t=t, lam=lam, lam_dot=lam_dot, alpha=state.alpha,
                       alpha_dot=state.alpha_dot, phi=phi, phi_dot=state.phi_dot)


def closed_form_classical(system: SystemSpec, packet: InitialPacket, t: float) -> ClassicalState:
    """Exact classical trajectory for Free or ConstantOmega systems."""
    C, Cd, S, Sd = _closed_form_basis(system, t)
    m = system.constants.mass
    v0 = packet.p0 / m
    return ClassicalState(t=t, eta=C * packet.x0 + S * v0,
                          eta_dot=Cd * packet.x0 + Sd * v0)


def ermakov_residual(state: LambdaState, omega: float) -> float:
    """|alpha'' + w^2*alpha - 1/alpha^3| with alpha'' evaluated from lambda.

    lambda'' = -w^2*lambda along solutions, so
    alpha'' = (|lambda'|^2 + Re(lambda''*conj(lambda)))/alpha - alpha'^2/alpha.
    Vanishes identically on true solutions of the equation of motion.
    """
    lam, lam_dot = state.lam, state.lam_dot
    alpha, alpha_dot = state.alpha, state.alpha_dot
    lam_ddot = -(omega * omega) * lam
    speed2 = (lam_dot * lam_dot.conjugate()).real
    alpha_ddot = (speed2 + (lam_ddot * lam.conjugate()).real) / alpha \
        - alpha_dot * alpha_dot / alpha
    return abs(alpha_ddot + omega * omega * alpha - 1.0 / alpha ** 3)
