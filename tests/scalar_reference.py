"""The per-sample scalar states, formulas and report loop that the column
pipeline replaced, and the row-template .dat writer and per-record
trajectory.csv writer that wavepacket.rowformat replaced, and the
assembly of every kept integrator step that solve_lambda's step_hook
replaced, kept as their bit-exact references; the fine re-solve that the
Euler-Lagrange residuals
ran before they read the integrator's own steps, and the direct
O(n_p * n^2) Wigner sum that the chirp-z transform replaced, kept as their
references to rounding; the paper's forms of det M through eta and
alpha (det_as_ermakov), of the canonical coordinates of the width dynamics
and of the uncertainty Hamiltonian, which only the identity tests
evaluate; and the closed forms of lambda and eta for free
motion and constant w, the frozen-width matrix, the scalar w(t) and the
p marginal of a Wigner grid, which only the tests use; the phase
phi = arg lambda, unwrapped one step at a time, which solve_lambda forms
per block; and the paper's two
defining differential equations of a kernel, differenced at a fixed step,
which no run checks: for kernel_td they reduce to det M = 1.

Each formula works on one sample of Python floats and complex numbers,
with `**` for powers and CPython's complex products, exactly as the
runner computed its records and invariant summary one sample at a time.
"""

import math
from dataclasses import dataclass

import numpy as np

from wavepacket.cli import CSV_FIELDS, CSV_HEADER
from wavepacket.core import ConstantOmega, TransformMatrix, _require_finite, is_free_motion
from wavepacket.errors import CapabilityError
from wavepacket.evolution import (BLOCK_STEPS, Trajectory, _matmul, _packet_states, _polar,
                                  _prefix_products, _step_propagators, _substeps,
                                  _validated_times, solve_lambda)
from wavepacket.invariants import euler_lagrange_residuals
from wavepacket.wigner import _half_step_refine


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


def omega_at(system, t):
    """w(t) of the system's law as a Python float; t must be finite, and a
    tabulated law rejects t outside its range."""
    _require_finite("t", t)
    return float(system.frequency_law.omega(t))


def marginal_p(grid):
    """integral W dx of a PhaseSpaceGrid, one value per p row."""
    return np.trapezoid(grid.values, dx=grid.dx, axis=1)


def wigner_dense(psi, p_grid, hbar):
    """W(x_i, p_k) on the whole grid of psi as the direct sum over offsets
    that wigner_numeric transforms by chirp-z, one x row at a time:
    (dx/(2*pi*hbar)) * (|psi_i|^2 + 2*Re sum_j exp(i*p_k*y_j/hbar)*corr_j)
    with corr_j = conj(psi(x_i + y_j/2)) * psi(x_i - y_j/2), j = 1 .. the
    last offset both half-step samples reach; O(n_p * n^2) time."""
    p_min, dp, n_p = p_grid
    n, dx = psi.n, psi.dx
    half = _half_step_refine(psi.values)
    p = p_min + dp * np.arange(n_p)
    values = np.empty((n_p, n))
    for i in range(n):
        j = np.arange(1, min(2 * i, 2 * (n - 1 - i), n - 1) + 1)
        corr = np.conjugate(half[2 * i + j]) * half[2 * i - j]
        phases = np.exp(1j * (np.outer(p, j * dx) / hbar))
        values[:, i] = abs(psi.values[i]) ** 2 + 2.0 * (phases * corr).sum(axis=1).real
    return values * (dx / (2.0 * math.pi * hbar))


def frozen_width_matrix(alpha0, t):
    """The would-be free-motion matrix with the width frozen at alpha0.

    det = 1 + (t/alpha0^2)^2, the packet-spreading factor, not 1: freezing
    the width breaks canonicity, and the Wigner point map rejects the
    matrix wherever (t/alpha0^2)^2 exceeds its det tolerance.
    """
    return TransformMatrix(a=1.0 / alpha0, b=-t / alpha0, c=t / alpha0 ** 3,
                           d=alpha0, alpha0=alpha0)


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


def closed_form_lambda(system, packet, t):
    """Exact lambda(t) for Free or ConstantOmega systems, as a LambdaState.

    lambda = alpha0*cos(wt) + i*sin(wt)/(alpha0*w) for w > 0, and
    alpha0 + i*t/alpha0 for free motion.
    """
    u, ud, z, zd, _, _ = _packet_states(packet, system.constants.mass,
                                        _closed_form_fundamental(system, t))
    alpha, alpha_dot, phi_dot = map(float, _polar(u, ud, z, zd))
    return LambdaState(t=t, lam=complex(u, z), lam_dot=complex(ud, zd), alpha=alpha,
                       alpha_dot=alpha_dot, phi=_closed_form_phi(system, packet, t),
                       phi_dot=phi_dot)


def closed_form_classical(system, packet, t):
    """Exact classical trajectory for Free or ConstantOmega systems."""
    *_, eta, eta_dot = _packet_states(packet, system.constants.mass,
                                      _closed_form_fundamental(system, t))
    return ClassicalState(t=t, eta=eta, eta_dot=eta_dot)


def pair(sample):
    """One sample of a trajectory, traj[i], as a (LambdaState, ClassicalState)
    pair of the same floats."""
    s = sample
    return (LambdaState(t=s.t, lam=complex(s.u_hat, s.z_hat),
                        lam_dot=complex(s.u_hat_dot, s.z_hat_dot), alpha=s.alpha,
                        alpha_dot=s.alpha_dot, phi=s.phi, phi_dot=s.phi_dot),
            ClassicalState(t=s.t, eta=s.eta, eta_dot=s.eta_dot))


def make_state(t, lam, lam_dot, phi):
    alpha = abs(lam)
    cross = lam_dot * lam.conjugate()
    alpha_dot = cross.real / alpha
    phi_dot = cross.imag / (alpha * alpha)
    return LambdaState(t=t, lam=lam, lam_dot=lam_dot,
                       alpha=alpha, alpha_dot=alpha_dot,
                       phi=phi, phi_dot=phi_dot)


def samples(traj):
    """The (LambdaState, ClassicalState) pairs built one raw state at a time."""
    return tuple(
        (make_state(t, complex(u, z), complex(ud, zd), phi),
         ClassicalState(t=t, eta=e, eta_dot=ed))
        for t, (u, ud, z, zd, e, ed, phi) in zip(traj.times.tolist(),
                                                  traj.states.tolist()))


def ermakov_residual(state, omega):
    lam, lam_dot = state.lam, state.lam_dot
    alpha, alpha_dot = state.alpha, state.alpha_dot
    lam_ddot = -(omega * omega) * lam
    speed2 = (lam_dot * lam_dot.conjugate()).real
    alpha_ddot = (speed2 + (lam_ddot * lam.conjugate()).real) / alpha \
        - alpha_dot * alpha_dot / alpha
    return abs(alpha_ddot + omega * omega * alpha - 1.0 / alpha ** 3)


def ermakov_invariant(eta, eta_dot, alpha, alpha_dot):
    return 0.5 * ((eta_dot * alpha - eta * alpha_dot) ** 2 + (eta / alpha) ** 2)


def det_as_ermakov(eta, eta_dot, alpha, alpha_dot, alpha0, p0, mass=1.0):
    """det M written through eta and alpha for a release from x0 = 0,
    2*(m/(alpha0*p0))^2 * I_L, with the scale inside each square."""
    s = mass / (alpha0 * p0)
    return (s * (eta_dot * alpha - alpha_dot * eta)) ** 2 + (s * (eta / alpha)) ** 2


def energy_partition(classical, state, system):
    c = system.constants
    w = omega_at(system, state.t)
    e_cl = 0.5 * c.mass * classical.eta_dot ** 2 \
        + 0.5 * c.mass * w * w * classical.eta ** 2
    a, ad, pd = state.alpha, state.alpha_dot, state.phi_dot
    e_tilde = 0.25 * c.hbar * (ad * ad + a * a * pd * pd + w * w * a * a)
    return e_cl, e_tilde


def canonical_coordinates(state, constants):
    """(alpha, p_alpha, phi, p_phi)."""
    hbar = constants.hbar
    return (state.alpha, 0.5 * hbar * state.alpha_dot, state.phi,
            0.5 * hbar * state.alpha * state.alpha * state.phi_dot)


def uncertainty_hamiltonian(uc, omega, constants):
    hbar = constants.hbar
    alpha, p_alpha, _, p_phi = uc
    return (p_alpha ** 2 / hbar
            + p_phi ** 2 / (hbar * alpha ** 2)
            + 0.25 * hbar * omega * omega * alpha ** 2)


def moments_from_lambda(state, constants):
    """(var_x, var_p, corr)."""
    hbar, m = constants.hbar, constants.mass
    var_x = (hbar / (2.0 * m)) * (state.lam * state.lam.conjugate()).real
    var_p = (hbar * m / 2.0) * (state.lam_dot * state.lam_dot.conjugate()).real
    corr = hbar * state.alpha_dot * state.alpha
    return var_x, var_p, corr


def sample_records(config, traj):
    c = config.constants
    records = []
    for state, cl in samples(traj):
        var_x, var_p, corr = moments_from_lambda(state, c)
        i_l = ermakov_invariant(cl.eta, cl.eta_dot, state.alpha, state.alpha_dot)
        p_phi = canonical_coordinates(state, c)[3]
        e_cl, e_tilde = energy_partition(cl, state, config.system)
        records.append({
            "t": state.t,
            "eta": cl.eta, "eta_dot": cl.eta_dot,
            "alpha": state.alpha, "alpha_dot": state.alpha_dot, "phi": state.phi,
            "var_x": var_x, "var_p": var_p, "corr": corr,
            "det_M": state.wronskian, "I_L": i_l, "p_phi": p_phi,
            "invariant_uncertainty_product": var_x * var_p - 0.25 * corr * corr,
            "E_cl": e_cl, "E_tilde": e_tilde,
            "ermakov_residual": ermakov_residual(
                state, omega_at(config.system, state.t)),
        })
    return records


def invariant_checks(records):
    """{check name: value} of the invariant summary, one sample at a time;
    fine_euler_lagrange gives the Euler-Lagrange value."""
    return {"det_M_drift": max(abs(r["det_M"] - 1.0) for r in records)}


EPS = 2.2e-16


def fine_euler_lagrange(config):
    """(euler_lagrange_alpha, its bound) of a second solve of the first
    min(t_end, 2), sampled every dt.

    Its steps differ from the run's own at rounding, so the two differ by
    the rounding noise of alpha that the centered difference divides by
    dt^2: within 100*EPS*max|alpha|/dt^2, the bound returned.
    """
    dt = config.dt
    n_fine = round(min(config.t_end, 2.0) / dt)
    fine = solve_lambda(config.system, config.packet,
                        [k * dt for k in range(n_fine + 1)], dt=dt)
    return (float(euler_lagrange_residuals(fine).max(initial=0.0)),
            100.0 * EPS * float(fine.columns.alpha.max()) / (dt * dt))


def phase_unwrapper():
    """A function that takes lambda = u + i*z at each step end in turn, from
    the first step after t = 0, where phi = 0, and returns phi = arg lambda
    there: the principal angle less 2*pi for each whole turn rounded off the
    differences of consecutive angles so far.  The angle is numpy's arctan2,
    not math.atan2: the two differ by an ulp for about 1 argument in 40 on
    CPUs where numpy uses its own SIMD arctan2, and the tests compare bytes.
    """
    angle, wraps = 0.0, 0.0

    def phi(u, z):
        nonlocal angle, wraps
        theta = float(np.arctan2(z, u))
        wraps += float(np.rint((theta - angle) / math.tau))
        angle = theta
        return theta - math.tau * wraps
    return phi


def kept_steps(system, packet, t_grid, dt, keep):
    """The state at t = 0 and after each of the first `keep` steps of
    solve_lambda(system, packet, t_grid, dt) (all of them, if there are
    fewer), at the step ends t + h, as one read-only Trajectory: lambda and
    eta assembled block by block as the solve's blocks form them, and phi
    unwrapped one step at a time."""
    times = _validated_times(t_grid, dt)
    spans = np.diff(times)
    n_sub = _substeps(spans, dt)
    h_sub = spans / n_sub
    ends = np.cumsum(n_sub)
    firsts = ends - n_sub
    omega, mass = system.frequency_law.omega, system.constants.mass
    fundamental = np.eye(2)
    total = int(ends[-1]) if len(ends) else 0
    kept = min(keep, total)
    step_times = np.zeros(kept + 1)
    step_states = np.empty((kept + 1, 7))
    step_states[0] = (*_packet_states(packet, mass, fundamental), 0.0)
    with np.errstate(all="ignore"):
        for start in range(0, kept, BLOCK_STEPS):
            steps = np.arange(start, min(start + BLOCK_STEPS, total))
            interval = np.searchsorted(ends, steps, side="right")
            h = h_sub[interval]
            t = times[interval] + (steps - firsts[interval]) * h
            e = _step_propagators(omega, t, h)
            _prefix_products(e)
            after = fundamental[:, :, None] + _matmul(e, fundamental[:, :, None])
            fundamental = after[:, :, -1]

            n_kept = min(kept - start, len(steps))
            rows = slice(start + 1, start + 1 + n_kept)
            step_times[rows] = (t + h)[:n_kept]
            step_states[rows, :6] = np.transpose(
                _packet_states(packet, mass, after[:, :, :n_kept]))
        phi = phase_unwrapper()
        step_states[1:, 6] = [phi(u, z) for u, z in step_states[1:, [0, 2]].tolist()]
    step_times.flags.writeable = step_states.flags.writeable = False
    return Trajectory(system, packet, step_times, step_states)



KERNEL_STEP = 1e-5   # the fixed step h of kernel_equation_terms' differences


def kernel_equation_terms(kernel, matrix, constants, x, x_prime):
    """The terms of the two defining differential equations of the kernel K
    of M = ((a, b), (c, d)) at one pair of points (x, x'),

        (alpha0*a*x + (alpha0*b/m)*(hbar/i)*d/dx) K = x' K,
        (m/alpha0)*(c*x + (d/m)*(hbar/i)*d/dx) K = -(hbar/i) dK/dx',

    each equation's terms moved to its left side, so that their sum is its
    residual; at m = alpha0 = 1 they are the paper's equations of the
    time-independent kernel.  Each derivative is the central difference
    (K(x + h) - K(x - h))/(2*h) of the fixed step h = KERNEL_STEP.
    """
    hbar, m, a0, h = constants.hbar, constants.mass, matrix.alpha0, KERNEL_STEP
    k = complex(kernel(x, x_prime))
    dk_dx = complex(kernel(x + h, x_prime) - kernel(x - h, x_prime)) / (2.0 * h)
    dk_dxp = complex(kernel(x, x_prime + h) - kernel(x, x_prime - h)) / (2.0 * h)
    p = hbar / 1j
    return ((a0 * matrix.a * x * k, (a0 * matrix.b / m) * p * dk_dx, -x_prime * k),
            ((m * matrix.c / a0) * x * k, (matrix.d / a0) * p * dk_dx, p * dk_dxp))


def kernel_equation_residuals(kernel, matrix, constants, x, x_prime):
    """(r1, r2): each defining equation's largest |residual| over every pair
    of the probes x and x_prime, relative to its largest |term| over them."""
    pairs = [kernel_equation_terms(kernel, matrix, constants, p, q)
             for p in map(float, x) for q in map(float, x_prime)]
    return tuple(max(abs(sum(terms[e])) for terms in pairs)
                 / max(abs(t) for terms in pairs for t in terms[e]) for e in (0, 1))


def write_wigner_dat(path, entry):
    """wigner_t<id>.dat of one Wigner output entry, every row formatted
    through a template of '%.17e' fields, as the runner wrote it."""
    grid = entry["grid"]
    with open(path, "w", newline="\n") as fh:
        fh.write("# wavepacket Wigner function samples\n")
        fh.write(f"# t = {entry['t']!r}\n")
        fh.write(f"# x_min = {grid.x_min!r}  dx = {grid.dx!r}  nx = {grid.n_x}\n")
        fh.write(f"# p_min = {grid.p_min!r}  dp = {grid.dp!r}  np = {grid.n_p}\n")
        fh.write("# rows: p index, columns: x index\n")
        row_format = " ".join(["%.17e"] * grid.n_x) + "\n"
        for row in grid.values:
            fh.write(row_format % tuple(row.tolist()))


def write_trajectory_csv(path, records):
    """trajectory.csv of a list of sample records, one record at a time,
    as the runner wrote it."""
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write(",".join(repr(r[f]) for f in CSV_FIELDS) + "\n")
