"""Conserved quantities of the time-dependent transformation.

The 2x2 matrix M = ((zd, -z), (-ud, u)) built from lambda = u + i*z by
matrix_from_state maps a phase point at time t back to its scaled initial
values; it is a core.TransformMatrix with alpha0 as its scale, the same
type the kernels and the Wigner point map take.  det M equals the Wronskian
W = zd*u - ud*z, which is 1 on exact solutions; the invariant summary
reports its drift from 1 once, as det_M_drift, and never raises on it.
The paper's other invariants are W written through other formulas, kept
as record columns to plot and asserted as identities by the tests:
p_phi = (hbar/2)*alpha^2*phi' = (hbar/2)*W, the uncertainty product
var_x*var_p - corr^2/4 = (hbar^2/4)*W^2, the Ermakov residual
|W^2 - 1|/alpha^3, and, for a release from x0 = 0, 2*(m/(alpha0*p0))^2
times the Ermakov invariant I_L, which reads phi' as 1/alpha^2 and so is
W wherever W = 1.

The invariant summary also reports the integrator's error by step
doubling (cli), which sees a wrong step that keeps det M at 1.

Each formula has one body, which takes floats or arrays: a state argument
is one sample, traj[i], or the SampleColumns of a whole trajectory.
`x ** 2` is libm pow on a float but x*x on an array, and the two differ in
the last bit now and then, so the bodies use np.float_power, which calls
pow for both; record_columns gives each sample the value the formula gives
traj[i].
"""

import numpy as np

from .core import Constants, TransformMatrix
from .evolution import SampleColumns, Trajectory, ermakov_residual
from .errors import DivergenceError
from .packet import moments_from_lambda


def matrix_from_state(state: SampleColumns, alpha0: float) -> TransformMatrix:
    """M = ((zd, -z), (-ud, u)) from one sample, traj[i]; det is not checked."""
    return TransformMatrix(a=state.z_hat_dot, b=-state.z_hat,
                           c=-state.u_hat_dot, d=state.u_hat, alpha0=alpha0)


def ermakov_invariant(eta, eta_dot, alpha, alpha_dot):
    """I_L = (1/2)*[(eta'*alpha - eta*alpha')^2 + (eta/alpha)^2]."""
    return 0.5 * (np.float_power(eta_dot * alpha - eta * alpha_dot, 2)
                  + np.float_power(eta / alpha, 2))


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
            "p_phi": 0.5 * c.hbar * s.alpha * s.alpha * s.phi_dot,
            "invariant_uncertainty_product": moments.uncertainty_determinant(),
            "E_cl": e_cl, "E_tilde": e_tilde,
            "ermakov_residual": ermakov_residual(s, w),
        }
    require_finite(s.t, columns)
    return columns

