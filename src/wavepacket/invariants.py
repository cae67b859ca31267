"""Conserved quantities of the time-dependent transformation.

The 2x2 matrix M = ((zd, -z), (-ud, u)) built from lambda = u + i*z by
matrix_from_state maps a phase point at time t back to its scaled initial
values; it is a core.TransformMatrix with alpha0 as its scale, the same
type the kernels and the Wigner point map take.  det M equals the Wronskian
zd*u - ud*z, which is 1 on exact solutions; the integrator's drift from 1
is reported by the caller, never raised here.  Written in terms of the
classical trajectory eta and the width alpha, the same determinant is
(m/(alpha0*p0))^2 * [(eta'*alpha - alpha'*eta)^2 + (eta/alpha)^2], i.e.
2*(m/(alpha0*p0))^2 times the Ermakov invariant, for a release from x0 = 0;
the invariant summary checks it only where doubles carry it.  The
frozen-width variant (alpha pinned at alpha0 for free motion, as
core.is_free_motion decides it) has determinant 1 + (t/alpha0^2)^2 instead,
which is exactly the packet-spreading factor: suppressing the width
dynamics breaks canonicity, det = 1.

The width dynamics itself derives from a Lagrangian in (alpha, phi); its
canonical momenta are p_alpha = (hbar/2)*alpha' and
p_phi = (hbar/2)*alpha^2*phi' = hbar/2, and the uncertainty product is
<x~^2><p~^2> = p_phi^2 + (alpha*p_alpha)^2.

Each formula has one body, which takes floats or arrays: a state argument
is one sample, traj[i], or the SampleColumns of a whole trajectory.
`x ** 2` is libm pow on a float but x*x on an array, and the two differ in
the last bit now and then, so the bodies use np.float_power, which calls
pow for both; record_columns gives each sample the value the formula gives
traj[i].
"""

from dataclasses import dataclass

import numpy as np

from .core import Constants, SystemSpec, TransformMatrix, is_free_motion
from .evolution import SampleColumns, Trajectory, ermakov_residual
from .errors import CapabilityError, DivergenceError, ValidationError
from .kernels import UNIFORM_ULPS
from .packet import moments_from_lambda


@dataclass(frozen=True)
class UncertaintyCanonical:
    """Canonical coordinates and momenta of the width dynamics."""

    alpha: float
    p_alpha: float
    phi: float
    p_phi: float


def matrix_from_state(state: SampleColumns, alpha0: float) -> TransformMatrix:
    """M = ((zd, -z), (-ud, u)) from one sample, traj[i]; det is not checked."""
    return TransformMatrix(a=state.z_hat_dot, b=-state.z_hat,
                           c=-state.u_hat_dot, d=state.u_hat, alpha0=alpha0)


def frozen_width_matrix(system: SystemSpec, alpha0: float, t: float) -> TransformMatrix:
    """The would-be free-motion matrix with the width frozen at alpha0.

    det = 1 + (t/alpha0^2)^2, not 1, so the matrix is not canonical, and
    the Wigner point map rejects it wherever (t/alpha0^2)^2 exceeds its
    det tolerance.  t may be an array of times.
    """
    if not is_free_motion(system.frequency_law):
        raise CapabilityError("frozen-width matrix is defined for free motion only")
    return TransformMatrix(a=1.0 / alpha0, b=-t / alpha0, c=t / alpha0 ** 3,
                           d=alpha0, alpha0=alpha0)


def ermakov_invariant(eta, eta_dot, alpha, alpha_dot):
    """I_L = (1/2)*[(eta'*alpha - eta*alpha')^2 + (eta/alpha)^2]."""
    return 0.5 * (np.float_power(eta_dot * alpha - eta * alpha_dot, 2)
                  + np.float_power(eta / alpha, 2))


def det_as_ermakov(eta, eta_dot, alpha, alpha_dot, alpha0, p0, mass=1.0):
    """The determinant of the classically parametrized matrix,

        (m/(alpha0*p0))^2 * [(eta'*alpha - alpha'*eta)^2 + (eta/alpha)^2],

    which is 2*(m/(alpha0*p0))^2 * I_L by construction.  It is summed as
    (s*A)^2 + (s*B)^2 with s = m/(alpha0*p0): s^2 alone overflows once
    |p0| is below about 1e-154*m/alpha0, where the identity is still of
    order 1."""
    if p0 == 0.0:
        raise ValidationError("classical parametrization requires p0 != 0")
    s = mass / (alpha0 * p0)
    return (np.float_power(s * (eta_dot * alpha - alpha_dot * eta), 2)
            + np.float_power(s * (eta / alpha), 2))


def energy_partition(state, omega, constants: Constants):
    """(E_cl, E_tilde) of a sample, traj[i] or traj.columns: the classical
    energy of the mean trajectory and the fluctuation energy

        E_tilde = (hbar/4)*(alpha'^2 + alpha^2*phi'^2 + w^2*alpha^2),

    with w = omega at the state's time.  Their sum is the mean of the
    Hamiltonian; it is conserved only for time-independent w.
    """
    m = constants.mass
    e_cl = 0.5 * m * np.float_power(state.eta_dot, 2) \
        + 0.5 * m * omega * omega * np.float_power(state.eta, 2)
    a, ad, pd = state.alpha, state.alpha_dot, state.phi_dot
    e_tilde = 0.25 * constants.hbar * (ad * ad + a * a * pd * pd + omega * omega * a * a)
    return e_cl, e_tilde


def canonical_coordinates(state, constants: Constants) -> UncertaintyCanonical:
    """(alpha, p_alpha, phi, p_phi) with p_alpha = (hbar/2)*alpha' and
    p_phi = (hbar/2)*alpha^2*phi'."""
    hbar = constants.hbar
    return UncertaintyCanonical(
        alpha=state.alpha,
        p_alpha=0.5 * hbar * state.alpha_dot,
        phi=state.phi,
        p_phi=0.5 * hbar * state.alpha * state.alpha * state.phi_dot,
    )


def uncertainty_hamiltonian(uc: UncertaintyCanonical, omega, constants: Constants):
    """H~ = p_alpha^2/hbar + p_phi^2/(hbar*alpha^2) + (hbar/4)*w^2*alpha^2.

    Numerically equal to the fluctuation energy E_tilde.
    """
    hbar = constants.hbar
    alpha2 = np.float_power(uc.alpha, 2)
    return (np.float_power(uc.p_alpha, 2) / hbar
            + np.float_power(uc.p_phi, 2) / (hbar * alpha2)
            + 0.25 * hbar * omega * omega * alpha2)


def require_finite(times, columns):
    """Raise DivergenceError at the first of `times` where one of the named
    `columns` is not finite, naming the first such column there."""
    finite = np.isfinite(np.stack(list(columns.values())))
    if finite.all():
        return
    i = int(np.argmin(finite.all(axis=0)))
    name = list(columns)[int(np.argmin(finite[:, i]))]
    t = float(times[i])
    raise DivergenceError(t, f"non-finite {name} at t={t!r}")


def record_columns(traj: Trajectory):
    """Every per-sample quantity of the invariant report, on all samples at once.

    Maps each record field to an array over traj.times: t, eta, eta_dot,
    alpha, alpha_dot, phi, the moments var_x, var_p and corr, det_M (the
    Wronskian), I_L, p_phi, the invariant uncertainty product, E_cl,
    E_tilde and the Ermakov residual.

    w is evaluated once, on traj.times.  Each value rounds as the formula
    rounds it for traj[i].  Raises DivergenceError at the first sample time
    where a column is not finite, naming it."""
    s = traj.columns
    c = traj.system.constants
    with np.errstate(all="ignore"):
        w = traj.system.frequency_law.omega(s.t)
        moments = moments_from_lambda(s, c)
        e_cl, e_tilde = energy_partition(s, w, c)
        columns = {
            "t": s.t, "eta": s.eta, "eta_dot": s.eta_dot,
            "alpha": s.alpha, "alpha_dot": s.alpha_dot, "phi": s.phi,
            "var_x": moments.var_x, "var_p": moments.var_p, "corr": moments.corr,
            "det_M": s.wronskian,
            "I_L": ermakov_invariant(s.eta, s.eta_dot, s.alpha, s.alpha_dot),
            "p_phi": canonical_coordinates(s, c).p_phi,
            "invariant_uncertainty_product": moments.uncertainty_determinant(),
            "E_cl": e_cl, "E_tilde": e_tilde,
            "ermakov_residual": ermakov_residual(s, w),
        }
    require_finite(s.t, columns)
    return columns


def invariant_maxima(traj: Trajectory, columns):
    """Each invariant check's largest deviation over the samples, as a float,
    from the record_columns of `traj`: ermakov_residual_max, det_M_drift
    (|det M - 1|), ermakov_rel_drift (|I_L - I_L(0)|, relative unless
    I_L(0) = 0), p_phi_abs_dev (from hbar/2), iup_abs_dev (from hbar^2/4),
    uncertainty_hamiltonian_vs_energy (|H~ - E_tilde|), and
    det_vs_ermakov_identity where doubles carry it: a release from x0 = 0
    with p0/m a normal double and s = m/(alpha0*p0) finite.  Otherwise the
    identity, of order 1, is a ratio of subnormal eta and eta' or of an
    infinite s, and it is left out.  Raises DivergenceError at the first
    sample time where one is not finite."""
    s = traj.columns
    packet, c = traj.packet, traj.system.constants
    with np.errstate(all="ignore"):
        w = traj.system.frequency_law.omega(s.t)
        i_l = columns["I_L"]
        drift = np.abs(i_l - i_l[0])
        deviations = {
            "ermakov_residual_max": columns["ermakov_residual"],
            "det_M_drift": np.abs(s.wronskian - 1.0),
            "ermakov_rel_drift": drift / abs(i_l[0]) if i_l[0] != 0.0 else drift,
            "p_phi_abs_dev": np.abs(columns["p_phi"] - 0.5 * c.hbar),
            "iup_abs_dev": np.abs(columns["invariant_uncertainty_product"]
                                  - 0.25 * c.hbar ** 2),
            "uncertainty_hamiltonian_vs_energy": np.abs(uncertainty_hamiltonian(
                canonical_coordinates(s, c), w, c) - columns["E_tilde"]),
        }
        scale = np.float64(c.mass) / (packet.alpha0 * packet.p0)
        if (packet.x0 == 0.0 and np.isfinite(scale)
                and abs(packet.p0 / c.mass) >= np.finfo(float).smallest_normal):
            deviations["det_vs_ermakov_identity"] = np.abs(
                det_as_ermakov(s.eta, s.eta_dot, s.alpha, s.alpha_dot,
                               packet.alpha0, packet.p0, c.mass) - s.wronskian)
    require_finite(s.t, deviations)
    return {name: float(d.max()) for name, d in deviations.items()}


def euler_lagrange_residuals(traj: Trajectory, last=None):
    """Euler-Lagrange residuals of the width dynamics at every interior
    sample, by centered differences at the trajectory's own sample spacing:

        d/dt [(hbar/2)*alpha^2*phi'] = 0,
        alpha'' + w^2*alpha - phi'^2*alpha = 0.

    Returns the arrays (res_phi, res_alpha), empty for fewer than 3 samples.
    Accuracy is O(h^2) in the sample spacing h, which must be uniform
    (ValidationError otherwise): adjacent spacings may differ by 1e-12 of
    the larger plus UNIFORM_ULPS ulps of `last`, by default the last time,
    the rounding of times t + h far from 0.  alpha, phi' and p_phi are the
    trajectory's columns, so every value rounds as it does for traj[i].
    """
    times = traj.times
    if len(times) < 3:
        return np.empty(0), np.empty(0)
    h1 = times[1:-1] - times[:-2]
    h2 = times[2:] - times[1:-1]
    atol = UNIFORM_ULPS * np.spacing(times[-1] if last is None else last)
    if np.any(np.abs(h1 - h2) > 1e-12 * np.maximum(h1, h2) + atol):
        raise ValidationError("centered differences need uniform sample spacing")
    h = 0.5 * (h1 + h2)

    s = traj.columns
    p_phi = canonical_coordinates(s, traj.system.constants).p_phi
    res_phi = np.abs((p_phi[2:] - p_phi[:-2]) / (2.0 * h))

    alpha = s.alpha
    a = alpha[1:-1]
    alpha_ddot = (alpha[2:] - 2.0 * a + alpha[:-2]) / (h * h)
    w = traj.system.frequency_law.omega(times[1:-1])
    res_alpha = np.abs(alpha_ddot + w * w * a - np.float_power(s.phi_dot[1:-1], 2) * a)
    return res_phi, res_alpha


class EulerLagrangeMaxima:
    """solve_lambda's step_hook for the invariants task: `phi` and `alpha`
    are the largest euler_lagrange_residuals(steps, last) over the blocks
    handed to it, and so over all their steps at once (0.0 for < 3)."""
    phi = alpha = 0.0

    def __call__(self, steps: Trajectory, last):
        res_phi, res_alpha = euler_lagrange_residuals(steps, last)
        self.phi = float(res_phi.max(initial=self.phi))
        self.alpha = float(res_alpha.max(initial=self.alpha))
