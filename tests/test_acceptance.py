"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one line per criterion:

    [PASS] 01 free-motion spreading law        worst=3.1e-16  tol=1e-09

Every expected value is either a closed form checked independently or a
cross-validation between two implementation routes that share no code path.
"""

import math
import time

import numpy as np

from wavepacket.cli import wigner_window
from wavepacket.core import (Constants, ConstantOmega, Free, InitialPacket,
                             ModulatedOmega, SystemSpec, TransformMatrix)
from wavepacket.evolution import solve_lambda
from wavepacket.invariants import ermakov_invariant, matrix_from_state
from wavepacket.kernels import apply_kernel, kernel_td
from wavepacket.oracle import GridState, compare_states, split_step
from wavepacket.packet import evaluate_wavefunction, moments_from_lambda, \
    propagate_analytic
from wavepacket.wigner import wigner_gaussian, wigner_numeric, wigner_pointmap

from scalar_reference import (canonical_coordinates, closed_form_lambda, det_as_ermakov,
                              frozen_width_matrix, kernel_equation_residuals)

C = Constants()
FREE = SystemSpec(C, Free())
HO = SystemSpec(C, ConstantOmega(1.0))

# the systems the invariants criteria sweep: free motion, both width branches
# of the unit oscillator, and a modulated frequency
SWEEP = {
    "free": (FREE, InitialPacket(0.0, 1.0, 1.0)),
    "ho-ground-width": (HO, InitialPacket(0.0, 1.0, 1.0)),
    "ho-breathing": (HO, InitialPacket(0.0, 1.0, 1.5)),
    "modulated": (SystemSpec(C, ModulatedOmega(1.0, 0.2, 2.0)),
                  InitialPacket(0.0, 1.0, 1.0)),
}

_cache = {}


def sweep_trajectory(name):
    if name not in _cache:
        system, packet = SWEEP[name]
        _cache[name] = solve_lambda(system, packet, np.linspace(0.0, 10.0, 101))
    return _cache[name]


def report(number, label, worst, tol, started):
    status = "PASS" if worst <= tol else "FAIL"
    print(f"[{status}] {number} {label:<42s} worst={worst:.2e}  tol={tol:.0e}  "
          f"({time.perf_counter() - started:.2f}s)")
    assert worst <= tol


def test_criterion_01_free_spreading():
    started = time.perf_counter()
    packet = InitialPacket(0.0, 1.0, 1.0)
    traj = solve_lambda(FREE, packet, [0.0, 0.5, 1.0, 2.0])
    var0 = moments_from_lambda(traj[0], C).var_x
    worst = 0.0
    for i, t in ((1, 0.5), (2, 1.0), (3, 2.0)):
        expected = var0 * (1.0 + (t / packet.alpha0 ** 2) ** 2)
        got = moments_from_lambda(traj[i], C).var_x
        worst = max(worst, abs(got - expected) / expected)
    report("01", "free-motion spreading law", worst, 1e-9, started)


def test_criterion_02_symplecticity():
    started = time.perf_counter()
    worst = 0.0
    for name, (_, packet) in SWEEP.items():
        traj = sweep_trajectory(name)
        for s in traj:
            worst = max(worst, abs(matrix_from_state(s, packet.alpha0).det - 1.0))
    report("02", "det M = 1 over [0, 10], four systems", worst, 1e-9, started)


def test_criterion_03_ermakov_invariant():
    started = time.perf_counter()
    worst_drift = 0.0
    worst_identity = 0.0
    for name, (_, packet) in SWEEP.items():
        traj = sweep_trajectory(name)
        values = [ermakov_invariant(s.eta, s.eta_dot, s.alpha, s.alpha_dot)
                  for s in traj]
        i0 = values[0]
        worst_drift = max(worst_drift, max(abs(v - i0) / abs(i0) for v in values))
        scale = 2.0 * (C.mass / (packet.alpha0 * packet.p0)) ** 2
        for s, i_l in zip(traj, values):
            det_eta = det_as_ermakov(s.eta, s.eta_dot, s.alpha, s.alpha_dot,
                                     packet.alpha0, packet.p0, C.mass)
            det_lam = matrix_from_state(s, packet.alpha0).det
            worst_identity = max(worst_identity,
                                 abs(det_eta - scale * i_l),
                                 abs(det_eta - det_lam))
    report("03a", "Ermakov invariant constancy", worst_drift, 1e-8, started)
    report("03b", "det M = 2(m/alpha0 p0)^2 I_L identity", worst_identity, 1e-9,
           started)


def test_criterion_04_frozen_width_diagnostic():
    started = time.perf_counter()
    worst = 0.0
    for alpha0 in (1.0, 2.0):
        for t in (0.0, 1.0, 4.0):
            det = frozen_width_matrix(alpha0, t).det
            worst = max(worst, abs(det - (1.0 + (t / alpha0 ** 2) ** 2)))
    report("04", "frozen-width determinant 1 + (t/a0^2)^2", worst, 1e-12, started)


def test_criterion_05_invariant_uncertainty_product():
    started = time.perf_counter()
    worst = 0.0
    for name in SWEEP:
        traj = sweep_trajectory(name)
        for s in traj:
            iup = moments_from_lambda(s, C).uncertainty_determinant()
            p_phi = canonical_coordinates(s, C)[3]
            worst = max(worst, abs(iup - 0.25 * C.hbar ** 2),
                        abs(p_phi - 0.5 * C.hbar))
    report("05", "uncertainty product hbar^2/4, p_phi hbar/2", worst, 1e-10,
           started)


def test_criterion_06_representation_triangle():
    started = time.perf_counter()
    x = np.linspace(-15.0, 15.0, 1024)
    worst = 0.0
    for system in (FREE, HO):
        packet = InitialPacket(0.0, 1.0, 1.0)
        traj = solve_lambda(system, packet, [0.0, 1.0])
        psi0 = evaluate_wavefunction(propagate_analytic(traj, 0), x)
        analytic = evaluate_wavefunction(propagate_analytic(traj, 1), x)

        matrix = matrix_from_state(traj[1], packet.alpha0)
        kernel = apply_kernel(kernel_td(matrix, C), psi0, x)
        oracle = split_step(GridState(psi0, 0.0), system, 1e-3, 1000).grid

        for a, b in ((analytic, kernel), (analytic, oracle), (kernel, oracle)):
            _, aligned, _ = compare_states(a, b, C.hbar)
            worst = max(worst, aligned)
    report("06", "analytic/kernel/oracle triangle at t=1", worst, 1e-5, started)


def test_criterion_07_wigner_transport():
    started = time.perf_counter()
    worst = 0.0
    for system in (FREE, HO):
        packet = InitialPacket(0.0, 1.0, 1.0)
        traj = solve_lambda(system, packet, [0.0, 1.0])
        s = traj[1]
        m = moments_from_lambda(s, C)
        mean_x, mean_p = s.eta, C.mass * s.eta_dot

        # the runner's 256x256 window spanning +-8 sigma; psi sampled 1.5x wider
        psi, p_grid, (start, count) = wigner_window(
            traj, 1, C, math.sqrt(m.var_x), math.sqrt(m.var_p), 256, 256, 8.0)
        window, marginal = wigner_numeric(psi, p_grid, C, (start, count))
        assert window.values.shape == (256, 256)

        X, P = np.meshgrid(window.x(), window.p())
        closed = wigner_gaussian(m, mean_x, mean_p, C)(X, P)
        w0 = wigner_gaussian(moments_from_lambda(traj[0], C),
                             packet.x0, packet.p0, C)
        mapped = wigner_pointmap(w0, matrix_from_state(s, packet.alpha0), X, P, C)

        worst = max(worst, float(np.max(np.abs(window.values - closed))))
        worst = max(worst, float(np.max(np.abs(window.values - mapped))))
        # marginals and normalization at the same tolerance
        density = np.abs(psi.values[start:start + count]) ** 2
        worst = max(worst, float(np.max(np.abs(marginal[start:start + count] - density))))
        worst = max(worst, abs(np.trapezoid(marginal, dx=psi.dx) - 1.0))
    report("07", "Wigner transport equivalence at t=1", worst, 1e-5, started)


def test_criterion_08_kernel_defining_equations():
    started = time.perf_counter()
    lattice = [TransformMatrix(a, b, (a * 0.8 - 1.0) / b, 0.8)
               for a in (-1.5, -0.5, 0.0, 0.5, 1.5)
               for b in (0.2, 0.7, 1.3, 2.5)]
    assert len(lattice) == 20
    assert all(abs(p.b) > 0.1 for p in lattice)
    # the paper's time-independent kernels: kernel_td at m = alpha0 = 1
    probe = np.linspace(-1.0, 1.0, 5)
    worst = 0.0
    for params in lattice:
        params.require_symplectic(1e-12)
        r1, r2 = kernel_equation_residuals(kernel_td(params, C), params, C, probe, probe)
        worst = max(worst, r1, r2)
    report("08", "kernel defining-equation residuals (20 sets)", worst, 1e-5,
           started)


def test_criterion_09_oracle_convergence_order():
    started = time.perf_counter()
    packet = InitialPacket(0.0, 1.0, 1.0)
    x = np.linspace(-15.0, 15.0, 1024)
    traj = solve_lambda(HO, packet, [0.0, 1.0])
    psi0 = GridState(evaluate_wavefunction(propagate_analytic(traj, 0), x), 0.0)
    ref = evaluate_wavefunction(propagate_analytic(traj, 1), x)
    errors = []
    for dt in (4e-3, 2e-3):
        out = split_step(psi0, HO, dt, round(1.0 / dt))
        _, aligned, _ = compare_states(out.grid, ref, C.hbar)
        errors.append(aligned)
    ratio = errors[0] / errors[1]
    status = "PASS" if 3.5 <= ratio <= 4.5 else "FAIL"
    print(f"[{status}] 09 oracle halving-dt error ratio              "
          f"ratio={ratio:.3f}  window=[3.5, 4.5]  "
          f"({time.perf_counter() - started:.2f}s)")
    assert 3.5 <= ratio <= 4.5


def test_criterion_10_small_omega_continuity():
    started = time.perf_counter()
    packet = InitialPacket(0.0, 1.0, 1.0)
    tiny = SystemSpec(C, ConstantOmega(1e-6))
    m_tiny = matrix_from_state(closed_form_lambda(tiny, packet, 1.0), 1.0)
    m_free = matrix_from_state(closed_form_lambda(FREE, packet, 1.0), 1.0)
    worst = max(abs(getattr(m_tiny, k) - getattr(m_free, k)) for k in "abcd")
    report("10", "omega -> 0 matrix continuity", worst, 1e-5, started)
