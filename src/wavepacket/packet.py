"""Analytic Gaussian wave-packet states.

The exact solution of the time-dependent Schroedinger equation for a
quadratic Hamiltonian and Gaussian initial data is

    psi(x, t) = (m/(pi*hbar))^(1/4) * lambda^(-1/2) * exp(i*S_cl/hbar)
                * exp( (i*m/(2*hbar)) * (lambda'/lambda) * xt^2
                       + (i/hbar) * <p>(t) * xt ),

with xt = x - <x>(t), <x> = eta(t), <p> = m*eta'(t), and
S_cl = (m/2)*(eta*eta' - x0*p0/m) the classical action along the mean
trajectory (exact for every quadratic Hamiltonian, integrating the
Lagrangian by parts); wavefunction samples it on a grid.  The square
root of lambda uses the continuously unwrapped phase phi, which fixes the
branch by continuity from the real positive normalization at t = 0.  This
reproduces the kernel propagation of the initial packet identically,
global phase included.
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


def wavefunction(traj: Trajectory, index: int, x_grid) -> ComplexGrid:
    """The analytic packet at sample `index` of a trajectory, sampled on a
    uniform grid.

    Its width rate y = lambda'/lambda has imaginary part 1/alpha^2 > 0 on a
    Wronskian of 1, which is what keeps the Gaussian normalizable;
    ValidationError where it, or alpha, is not positive.  Attaches a
    coverage warning when the grid holds less than 1 - 1e-6 of the
    probability mass (trapezoid estimate).
    """
    state = traj[index]
    c = traj.system.constants
    if state.alpha <= 0.0:  # unreachable for valid lambda; guards 1/alpha
        raise ValidationError("alpha must be positive")
    hbar, m = c.hbar, c.mass
    inv_sqrt_lam = cmath.exp(-0.5j * state.phi) / math.sqrt(state.alpha)
    action_phase = cmath.exp(1j * classical_action(traj, index) / hbar)
    norm_phase = (m / (math.pi * hbar)) ** 0.25 * inv_sqrt_lam * action_phase
    y = complex(state.u_hat_dot, state.z_hat_dot) / complex(state.u_hat, state.z_hat)
    if y.imag <= 0.0:
        raise ValidationError(f"Im(lambda'/lambda) = {y.imag!r} must be positive")

    dx = uniform_step(x_grid, "x_grid")
    x = np.asarray(x_grid, dtype=float)
    xt = x - state.eta
    exponent = (0.5j * m / hbar) * y * xt * xt + (1j / hbar) * (m * state.eta_dot) * xt
    grid = ComplexGrid(x_min=float(x[0]), dx=dx, values=norm_phase * np.exp(exponent))
    mass = grid.norm() ** 2
    if abs(mass - 1.0) > 1e-6:
        return ComplexGrid(grid.x_min, dx, grid.values,
                           (f"grid covers {mass!r} of unit probability mass",))
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
