"""Conserved quantities of the time-dependent transformation.

The 2x2 matrix M = ((zd, -z), (-ud, u)) built from lambda = u + i*z by
matrix_from_state maps a phase point at time t back to its scaled initial
values; it is a core.TransformMatrix with alpha0 as its scale, the same
type the kernels and the Wigner point map take.  det M equals the Wronskian
zd*u - ud*z, which is 1 on exact solutions; the integrator's drift from 1
is reported by the caller, never raised here.  Written in terms of the
classical trajectory eta and the width alpha, the same determinant is
(m/(alpha0*p0))^2 * [(eta'*alpha - alpha'*eta)^2 + (eta/alpha)^2], i.e.
2*(m/(alpha0*p0))^2 times the Ermakov invariant.  The frozen-width variant
(alpha pinned at alpha0 for free motion) has determinant 1 + (t/alpha0^2)^2
instead, which is exactly the packet-spreading factor: suppressing the
width dynamics breaks canonicity.

The width dynamics itself derives from a Lagrangian in (alpha, phi); its
canonical momenta are p_alpha = (hbar/2)*alpha' and
p_phi = (hbar/2)*alpha^2*phi' = hbar/2, and the uncertainty product is
<x~^2><p~^2> = p_phi^2 + (alpha*p_alpha)^2.
"""

from dataclasses import dataclass

import numpy as np

from .core import Constants, SystemSpec, TransformMatrix, is_free_motion, omega_at
from .evolution import ClassicalState, LambdaState, Trajectory
from .errors import CapabilityError, ValidationError


@dataclass(frozen=True)
class UncertaintyCanonical:
    """Canonical coordinates and momenta of the width dynamics."""

    alpha: float
    p_alpha: float
    phi: float
    p_phi: float


def matrix_from_state(state: LambdaState, alpha0: float) -> TransformMatrix:
    """M = ((zd, -z), (-ud, u)) from a LambdaState; det is not checked."""
    return TransformMatrix(a=state.z_hat_dot, b=-state.z_hat,
                           c=-state.u_hat_dot, d=state.u_hat, alpha0=alpha0)


def frozen_width_matrix(system: SystemSpec, alpha0: float, t: float) -> TransformMatrix:
    """The would-be free-motion matrix with the width frozen at alpha0.

    det = 1 + (t/alpha0^2)^2, not 1; the matrix is tagged non-canonical and
    is rejected by the Wigner point map.
    """
    if not is_free_motion(system.frequency_law):
        raise CapabilityError("frozen-width matrix is defined for free motion only")
    return TransformMatrix(a=1.0 / alpha0, b=-t / alpha0, c=t / alpha0 ** 3,
                           d=alpha0, alpha0=alpha0, canonical=False)


def ermakov_invariant(eta, eta_dot, alpha, alpha_dot) -> float:
    """I_L = (1/2)*[(eta'*alpha - eta*alpha')^2 + (eta/alpha)^2]."""
    return 0.5 * ((eta_dot * alpha - eta * alpha_dot) ** 2 + (eta / alpha) ** 2)


def det_as_ermakov(eta, eta_dot, alpha, alpha_dot, alpha0, p0, mass=1.0) -> float:
    """The determinant of the classically parametrized matrix,

        (m/(alpha0*p0))^2 * [(eta'*alpha - alpha'*eta)^2 + (eta/alpha)^2],

    which is 2*(m/(alpha0*p0))^2 * I_L by construction."""
    if p0 == 0.0:
        raise ValidationError("classical parametrization requires p0 != 0")
    s = mass / (alpha0 * p0)
    return s * s * ((eta_dot * alpha - alpha_dot * eta) ** 2
                    + (eta / alpha) ** 2)


def energy_partition(classical: ClassicalState, state: LambdaState,
                     system: SystemSpec):
    """(E_cl, E_tilde): the classical energy of the mean trajectory and the
    fluctuation energy

        E_tilde = (hbar/4)*(alpha'^2 + alpha^2*phi'^2 + w^2*alpha^2).

    Their sum is the mean of the Hamiltonian; it is conserved only for
    time-independent w.
    """
    c = system.constants
    w = omega_at(system, state.t)
    e_cl = 0.5 * c.mass * classical.eta_dot ** 2 \
        + 0.5 * c.mass * w * w * classical.eta ** 2
    a, ad, pd = state.alpha, state.alpha_dot, state.phi_dot
    e_tilde = 0.25 * c.hbar * (ad * ad + a * a * pd * pd + w * w * a * a)
    return e_cl, e_tilde


def canonical_coordinates(state: LambdaState, constants: Constants) -> UncertaintyCanonical:
    """(alpha, p_alpha, phi, p_phi) with p_alpha = (hbar/2)*alpha' and
    p_phi = (hbar/2)*alpha^2*phi'."""
    hbar = constants.hbar
    return UncertaintyCanonical(
        alpha=state.alpha,
        p_alpha=0.5 * hbar * state.alpha_dot,
        phi=state.phi,
        p_phi=0.5 * hbar * state.alpha * state.alpha * state.phi_dot,
    )


def uncertainty_hamiltonian(uc: UncertaintyCanonical, omega: float,
                            constants: Constants) -> float:
    """H~ = p_alpha^2/hbar + p_phi^2/(hbar*alpha^2) + (hbar/4)*w^2*alpha^2.

    Numerically equal to the fluctuation energy E_tilde.
    """
    hbar = constants.hbar
    return (uc.p_alpha ** 2 / hbar
            + uc.p_phi ** 2 / (hbar * uc.alpha ** 2)
            + 0.25 * hbar * omega * omega * uc.alpha ** 2)


def euler_lagrange_residuals(traj: Trajectory):
    """Euler-Lagrange residuals of the width dynamics at every interior
    sample, by centered differences at the trajectory's own sample spacing:

        d/dt [(hbar/2)*alpha^2*phi'] = 0,
        alpha'' + w^2*alpha - phi'^2*alpha = 0.

    Returns the arrays (res_phi, res_alpha), empty for fewer than 3 samples.
    Accuracy is O(h^2) in the sample spacing h, which must be uniform
    (ValidationError otherwise).  alpha, phi' and p_phi are formed from the
    raw states in the operation order of LambdaState and
    canonical_coordinates, so every value rounds as it does there.
    """
    times = np.array(traj.times)
    if len(times) < 3:
        return np.empty(0), np.empty(0)
    h1 = times[1:-1] - times[:-2]
    h2 = times[2:] - times[1:-1]
    if np.any(np.abs(h1 - h2) > 1e-12 * np.maximum(h1, h2)):
        raise ValidationError("centered differences need uniform sample spacing")
    h = 0.5 * (h1 + h2)

    u, ud, z, zd, *_ = np.array(traj.states).T
    # abs(lambda) is hypot, and Im(lambda'*conj(lambda)) is the imaginary
    # part of CPython's complex product
    alpha = np.hypot(u, z)
    phi_dot = (ud * -z + zd * u) / (alpha * alpha)
    p_phi = 0.5 * traj.system.constants.hbar * alpha * alpha * phi_dot
    res_phi = np.abs((p_phi[2:] - p_phi[:-2]) / (2.0 * h))

    a = alpha[1:-1]
    alpha_ddot = (alpha[2:] - 2.0 * a + alpha[:-2]) / (h * h)
    w = traj.system.frequency_law.omega(times[1:-1])
    # x ** 2 on a float is libm pow, which is not always x * x to the last
    # bit; float_power calls pow too
    res_alpha = np.abs(alpha_ddot + w * w * a - np.float_power(phi_dot[1:-1], 2) * a)
    return res_phi, res_alpha
