"""The per-sample scalar formulas and report loop that the column pipeline
replaced, kept as its bit-exact reference.

Each function works on one sample of Python floats and complex numbers,
with `**` for powers and CPython's complex products, exactly as the
runner computed its records and invariant summary one sample at a time.
"""

from wavepacket.core import omega_at
from wavepacket.evolution import ClassicalState, LambdaState, solve_lambda
from wavepacket.invariants import euler_lagrange_residuals, frozen_width_matrix


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


def det_as_ermakov(eta, eta_dot, alpha, alpha_dot, alpha0, p0, mass):
    s = mass / (alpha0 * p0)
    return s * s * ((eta_dot * alpha - alpha_dot * eta) ** 2
                    + (eta / alpha) ** 2)


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


def invariant_checks(config, traj, records):
    """{check name: value} of the invariant summary, one sample at a time."""
    c = config.constants
    det_drift = max(abs(r["det_M"] - 1.0) for r in records)
    i_l0 = records[0]["I_L"]
    if i_l0 != 0.0:
        ermakov_drift = max(abs(r["I_L"] - i_l0) / abs(i_l0) for r in records)
    else:
        ermakov_drift = max(abs(r["I_L"] - i_l0) for r in records)
    p_phi_dev = max(abs(r["p_phi"] - 0.5 * c.hbar) for r in records)
    iup_dev = max(abs(r["invariant_uncertainty_product"] - 0.25 * c.hbar ** 2)
                  for r in records)

    det_vs_ermakov = None
    if config.packet.p0 != 0.0 and config.packet.x0 == 0.0:
        det_vs_ermakov = 0.0
        for r in records:
            val = det_as_ermakov(r["eta"], r["eta_dot"], r["alpha"], r["alpha_dot"],
                                 config.packet.alpha0, config.packet.p0, c.mass)
            det_vs_ermakov = max(det_vs_ermakov, abs(val - r["det_M"]))

    el_span = min(config.t_end, 2.0)
    n_fine = round(el_span / config.dt)
    fine = solve_lambda(config.system, config.packet,
                        [k * config.dt for k in range(n_fine + 1)], dt=config.dt)
    res_phi, res_alpha = euler_lagrange_residuals(fine)

    energy_vs_hamiltonian = 0.0
    for (state, _), r in zip(samples(traj), records):
        uc = canonical_coordinates(state, c)
        w = omega_at(config.system, state.t)
        energy_vs_hamiltonian = max(
            energy_vs_hamiltonian,
            abs(uncertainty_hamiltonian(uc, w, c) - r["E_tilde"]))

    checks = {
        "ermakov_residual_max": max(r["ermakov_residual"] for r in records),
        "det_M_drift": det_drift,
        "ermakov_rel_drift": ermakov_drift,
        "p_phi_abs_dev": p_phi_dev,
        "iup_abs_dev": iup_dev,
        "euler_lagrange_phi": float(res_phi.max(initial=0.0)),
        "euler_lagrange_alpha": float(res_alpha.max(initial=0.0)),
        "uncertainty_hamiltonian_vs_energy": energy_vs_hamiltonian,
    }
    if det_vs_ermakov is not None:
        checks["det_vs_ermakov_identity"] = det_vs_ermakov
    return checks


def frozen_width(config, records):
    """(samples, closed_form_max_abs_err) of the frozen-width block."""
    out = []
    worst = 0.0
    for r in records:
        t = r["t"]
        m = frozen_width_matrix(config.system, config.packet.alpha0, t)
        closed = 1.0 + (t / config.packet.alpha0 ** 2) ** 2
        worst = max(worst, abs(m.det - closed))
        out.append({"t": t, "det": m.det})
    return out, worst

