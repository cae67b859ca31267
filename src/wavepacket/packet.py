"""Analytic Gaussian wave-packet states.

The exact solution of the time-dependent Schroedinger equation for a
quadratic Hamiltonian and Gaussian initial data is

    psi(x, t) = (m/(pi*hbar))^(1/4) * lambda^(-1/2) * exp(i*S_cl/hbar)
                * exp( (i*m/(2*hbar)) * (lambda'/lambda) * xt^2
                       + (i/hbar) * <p>(t) * xt ),

with xt = x - <x>(t), <x> = eta(t), <p> = m*eta'(t), and
S_cl = (m/2)*(eta*eta' - x0*p0/m) the classical action along the mean
trajectory (exact for every quadratic Hamiltonian, integrating the
Lagrangian by parts).  The square root of lambda uses the continuously
unwrapped phase, which fixes the branch by continuity from the real
positive normalization at t = 0.  For x0 = 0 this reproduces the kernel
propagation of the initial packet identically, global phase included.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import Constants
from .evolution import Trajectory
from .kernels import ComplexGrid, uniform_step
from .errors import ValidationError


@dataclass(frozen=True)
class GaussianPacket:
    """Gaussian state: means, complex width rate, and global prefactor.

    y_complex is (2*hbar/m)*y = lambda'/lambda; its imaginary part is
    1/alpha^2 > 0, which is what keeps the Gaussian normalizable.
    norm_phase is the full x-independent complex prefactor.
    """

    t: float
    mean_x: float
    mean_p: float
    y_complex: complex
    norm_phase: complex
    constants: Constants

    def __post_init__(self):
        if self.y_complex.imag <= 0.0:
            raise ValidationError(
                f"Im((2hbar/m)y) = {self.y_complex.imag!r} must be positive"
            )


@dataclass(frozen=True)
class Moments:
    """Second central moments (<x~^2>, <p~^2>, <[x~,p~]_+>)."""

    var_x: float
    var_p: float
    corr: float

    def uncertainty_determinant(self):
        return self.var_x * self.var_p - 0.25 * self.corr * self.corr


def classical_action(traj: Trajectory, index: int) -> float:
    """S_cl(t) = (m/2)*(eta(t)*eta'(t) - eta(0)*eta'(0)).

    The omega^2 term drops out after integrating the Lagrangian by parts
    along a solution of the classical equation of motion, so this is exact
    for time-dependent frequencies as well.
    """
    m = traj.system.constants.mass
    s, s0 = traj[index], traj[0]
    return 0.5 * m * (s.eta * s.eta_dot - s0.eta * s0.eta_dot)


def propagate_analytic(traj: Trajectory, index: int) -> GaussianPacket:
    """The analytic Gaussian packet at sample `index` of a trajectory."""
    state = traj[index]
    c = traj.system.constants
    if state.alpha <= 0.0:  # unreachable for valid lambda; guards 1/alpha
        raise ValidationError("alpha must be positive")
    hbar, m = c.hbar, c.mass
    inv_sqrt_lam = cmath.exp(-0.5j * state.phi) / math.sqrt(state.alpha)
    action_phase = cmath.exp(1j * classical_action(traj, index) / hbar)
    norm_phase = (m / (math.pi * hbar)) ** 0.25 * inv_sqrt_lam * action_phase
    return GaussianPacket(
        t=state.t,
        mean_x=state.eta,
        mean_p=m * state.eta_dot,
        y_complex=(complex(state.u_hat_dot, state.z_hat_dot)
                   / complex(state.u_hat, state.z_hat)),
        norm_phase=norm_phase,
        constants=c,
    )


def evaluate_wavefunction(packet: GaussianPacket, x_grid) -> ComplexGrid:
    """Sample psi on a uniform grid.

    Attaches a coverage warning when the grid holds less than 1 - 1e-6 of
    the probability mass (trapezoid estimate).
    """
    dx = uniform_step(x_grid, "x_grid")
    x = np.asarray(x_grid, dtype=float)

    c = packet.constants
    xt = x - packet.mean_x
    exponent = (0.5j * c.mass / c.hbar) * packet.y_complex * xt * xt \
        + (1j / c.hbar) * packet.mean_p * xt
    values = packet.norm_phase * np.exp(exponent)

    grid = ComplexGrid(x_min=float(x[0]), dx=dx, values=values)
    mass = grid.norm() ** 2
    if abs(mass - 1.0) > 1e-6:
        grid = grid.with_warning(
            f"grid covers {mass!r} of unit probability mass"
        )
    return grid


def moments_from_lambda(state, constants: Constants) -> Moments:
    """Second moments from lambda:

    <x~^2> = (hbar/2m)*|lambda|^2,  <p~^2> = (hbar*m/2)*|lambda'|^2,
    <[x~,p~]_+> = hbar*alpha*alpha'.

    state is one sample, traj[i], or the SampleColumns of a trajectory, for
    which the moments are arrays.  |lambda|^2 is Re(lambda*conj(lambda)) written
    out as CPython's complex product forms it.
    """
    hbar, m = constants.hbar, constants.mass
    u, z = state.u_hat, state.z_hat
    ud, zd = state.u_hat_dot, state.z_hat_dot
    var_x = (hbar / (2.0 * m)) * (u * u - z * -z)
    var_p = (hbar * m / 2.0) * (ud * ud - zd * -zd)
    corr = hbar * state.alpha_dot * state.alpha
    return Moments(var_x=var_x, var_p=var_p, corr=corr)
