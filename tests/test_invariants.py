"""Tests for the transformation matrix, Ermakov invariant, and the
uncertainty Lagrangian/Hamiltonian machinery."""

import math

import numpy as np
import pytest

from wavepacket.core import (Constants, ConstantOmega, Free, InitialPacket,
                             ModulatedOmega, RampOmega, SystemSpec, TransformMatrix)
from wavepacket.errors import ValidationError
from wavepacket.evolution import solve_lambda
from wavepacket.invariants import (energy_partition, ermakov_invariant, matrix_from_state,
                                   record_columns)
from wavepacket.packet import Moments, moments_from_lambda
from wavepacket.wigner import wigner_gaussian, wigner_pointmap

from scalar_reference import (canonical_coordinates, closed_form_lambda, det_as_ermakov,
                              omega_at, uncertainty_hamiltonian)

C = Constants()
FREE = SystemSpec(C, Free())
HO = SystemSpec(C, ConstantOmega(1.0))


def entries(m):
    return m.a, m.b, m.c, m.d


def matrix_from_classical(eta, eta_dot, alpha, alpha_dot, alpha0, p0, mass=1.0):
    """The matrix written via (eta, eta', alpha, alpha'):

        M = (m/(alpha0*p0)) * ((eta', -eta),
                               (-eta'*alpha'*alpha + eta*(alpha'^2 + 1/alpha^2),
                                eta'*alpha^2 - eta*alpha'*alpha)),

    valid for releases from eta(0) = 0 with p0 != 0, where
    z = (m/(alpha0*p0))*eta.
    """
    s = mass / (alpha0 * p0)
    return TransformMatrix(
        a=s * eta_dot,
        b=-s * eta,
        c=s * (-eta_dot * alpha_dot * alpha
               + eta * (alpha_dot * alpha_dot + 1.0 / (alpha * alpha))),
        d=s * (eta_dot * alpha * alpha - eta * alpha_dot * alpha),
        alpha0=alpha0,
    )


def solve(system, packet, t_end=10.0, n=100, dt=1e-3):
    return solve_lambda(system, packet, np.linspace(0.0, t_end, n + 1), dt=dt)


def test_matrix_free_t1():
    s = closed_form_lambda(FREE, InitialPacket(0.0, 1.0, 1.0), 1.0)
    m = matrix_from_state(s, 1.0)
    assert (m.a, m.b, m.c, m.d) == (1.0, -1.0, 0.0, 1.0)
    assert m.det == pytest.approx(1.0, abs=1e-15)


def test_matrix_ho_quarter_period_is_rotation():
    s = closed_form_lambda(HO, InitialPacket(0.0, 1.0, 1.0), math.pi / 2.0)
    m = matrix_from_state(s, 1.0)
    assert m.a == pytest.approx(0.0, abs=1e-15)
    assert m.b == pytest.approx(-1.0, abs=1e-15)
    assert m.c == pytest.approx(1.0, abs=1e-15)
    assert m.d == pytest.approx(0.0, abs=1e-15)


def test_matrix_t0():
    s = closed_form_lambda(FREE, InitialPacket(0.0, 1.0, 1.0), 0.0)
    m = matrix_from_state(s, 1.0)
    assert (m.a, m.b, m.c, m.d) == (1.0, 0.0, 0.0, 1.0)
    s2 = closed_form_lambda(FREE, InitialPacket(0.0, 1.0, 2.0), 0.0)
    m2 = matrix_from_state(s2, 2.0)
    assert (m2.a, m2.b, m2.c, m2.d) == (0.5, 0.0, 0.0, 2.0)


def test_ermakov_invariant_values():
    # t=0 data for the unit free packet
    assert ermakov_invariant(0.0, 1.0, 1.0, 0.0) == 0.5
    # t=1 data: eta=1, eta'=1, alpha=sqrt(2), alpha'=1/sqrt(2)
    val = ermakov_invariant(1.0, 1.0, math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    assert val == pytest.approx(0.5, rel=1e-15)
    # packet at rest: no classical excitation
    assert ermakov_invariant(0.0, 0.0, 1.0, 0.0) == 0.0


def test_det_as_ermakov_values():
    assert det_as_ermakov(1.0, 1.0, math.sqrt(2.0), 1.0 / math.sqrt(2.0),
                          1.0, 1.0) == pytest.approx(1.0, rel=1e-15)
    # frozen-width data: alpha pinned at alpha0, eta = v0*t
    for alpha0, t in ((1.0, 1.0), (2.0, 4.0)):
        val = det_as_ermakov(t, 1.0, alpha0, 0.0, alpha0, 1.0)
        assert val == pytest.approx(1.0 + (t / alpha0 ** 2) ** 2, rel=1e-12)
    # rotation branch: constant width oscillator
    for t in (0.5, 2.0):
        eta, eta_dot = math.sin(t), math.cos(t)
        assert det_as_ermakov(eta, eta_dot, 1.0, 0.0, 1.0, 1.0) == \
            pytest.approx(1.0, rel=1e-12)


def test_det_as_ermakov_is_scaled_invariant():
    for eta, eta_dot, alpha, alpha_dot in ((0.3, 1.1, 1.4, -0.2), (2.0, 0.1, 0.5, 0.9)):
        lhs = det_as_ermakov(eta, eta_dot, alpha, alpha_dot, 1.3, 0.8)
        rhs = 2.0 * (1.0 / (1.3 * 0.8)) ** 2 * ermakov_invariant(
            eta, eta_dot, alpha, alpha_dot)
        assert lhs == pytest.approx(rhs, rel=1e-14)


def test_classical_matrix_matches_lambda_matrix():
    """For x0 = 0 releases, the (eta, alpha) matrix is the lambda matrix."""
    packet = InitialPacket(0.0, 1.0, 1.5)
    traj = solve(HO, packet, t_end=5.0, n=50)
    for s in traj:
        m_lam = matrix_from_state(s, packet.alpha0)
        m_cl = matrix_from_classical(s.eta, s.eta_dot, s.alpha, s.alpha_dot,
                                     packet.alpha0, packet.p0, C.mass)
        for a, b in zip(entries(m_lam), entries(m_cl)):
            assert abs(a - b) <= 1e-9


@pytest.mark.parametrize("law, alpha0", [
    (Free(), 1.0), (ConstantOmega(1.0), 1.0), (ConstantOmega(1.0), 1.5),
    (ModulatedOmega(1.0, 0.2, 2.0), 1.0),
])
def test_det_constant_and_ermakov_drift(law, alpha0):
    packet = InitialPacket(0.0, 1.0, alpha0)
    traj = solve(SystemSpec(C, law), packet)
    i_l0 = None
    for s in traj:
        assert abs(matrix_from_state(s, alpha0).det - 1.0) <= 1e-9
        i_l = ermakov_invariant(s.eta, s.eta_dot, s.alpha, s.alpha_dot)
        if i_l0 is None:
            i_l0 = i_l
        assert abs(i_l - i_l0) <= 1e-8 * abs(i_l0)


def test_invariant_uncertainty_product_values():
    assert Moments(1.0, 0.5, 1.0).uncertainty_determinant() == \
        pytest.approx(0.25, rel=1e-14)
    assert Moments(0.5, 0.5, 0.0).uncertainty_determinant() == 0.25


def test_invariant_uncertainty_product_breathing_branch():
    packet = InitialPacket(0.0, 1.0, 1.7)  # oscillating width
    traj = solve(HO, packet)
    for s in traj:
        iup = moments_from_lambda(s, C).uncertainty_determinant()
        assert abs(iup - 0.25) <= 1e-10


def test_energy_partition_free():
    packet = InitialPacket(0.0, 1.0, 1.0)
    traj = solve(FREE, packet, t_end=1.0, n=10)
    for s in traj:
        e_cl, e_tilde = energy_partition(s, 0.0, C)
        assert e_cl == pytest.approx(0.5, abs=1e-12)
        assert e_tilde == pytest.approx(0.25, abs=1e-12)


def test_energy_partition_ho_ground_state():
    packet = InitialPacket(0.0, 0.0, 1.0)  # at rest, constant width
    traj = solve(HO, packet, t_end=2.0, n=20)
    for s in traj:
        e_cl, e_tilde = energy_partition(s, 1.0, C)
        assert e_cl == pytest.approx(0.0, abs=1e-15)
        assert e_tilde == pytest.approx(0.5, abs=1e-12)  # hbar*omega/2


def test_energy_total_conserved_for_static_omega_only():
    packet = InitialPacket(0.0, 1.0, 1.5)
    traj = solve(HO, packet, t_end=5.0, n=50)
    totals = [sum(energy_partition(s, 1.0, C)) for s in traj]
    assert max(abs(e - totals[0]) for e in totals) <= 1e-10

    ramp = SystemSpec(C, RampOmega(1.0, 0.25))
    traj = solve(ramp, packet, t_end=5.0, n=50)
    totals = [sum(energy_partition(s, omega_at(ramp, s.t), C)) for s in traj]
    assert max(abs(e - totals[0]) for e in totals) > 1e-3  # driven system


def test_p_phi_is_half_hbar():
    for law in (Free(), ConstantOmega(1.0), ModulatedOmega(1.0, 0.2, 2.0)):
        traj = solve(SystemSpec(C, law), InitialPacket(0.0, 1.0, 1.3), t_end=5.0, n=50)
        assert np.abs(record_columns(traj)["p_phi"] - 0.5).max() <= 1e-10


def test_uncertainty_product_identity():
    """U = p_phi^2 + (alpha*p_alpha)^2 equals <x~^2><p~^2>."""
    traj = solve(HO, InitialPacket(0.0, 1.0, 1.7), t_end=5.0, n=50)
    for s in traj:
        alpha, p_alpha, _, p_phi = canonical_coordinates(s, C)
        u = p_phi ** 2 + (alpha * p_alpha) ** 2
        m = moments_from_lambda(s, C)
        assert abs(u - m.var_x * m.var_p) <= 1e-10


def test_uncertainty_hamiltonian_equals_fluctuation_energy():
    law = ModulatedOmega(1.0, 0.2, 2.0)
    system = SystemSpec(C, law)
    traj = solve(system, InitialPacket(0.0, 1.0, 1.3), t_end=5.0, n=50)
    for s in traj:
        w = law.omega(s.t)
        h_tilde = uncertainty_hamiltonian(canonical_coordinates(s, C), w, C)
        _, e_tilde = energy_partition(s, w, C)
        assert abs(h_tilde - e_tilde) <= 1e-12


def test_small_omega_matrix_limit():
    """M for omega = 1e-6 converges to the canonical free-motion matrix."""
    packet = InitialPacket(0.0, 1.0, 1.0)
    tiny = SystemSpec(C, ConstantOmega(1e-6))
    s_tiny = closed_form_lambda(tiny, packet, 1.0)
    s_free = closed_form_lambda(FREE, packet, 1.0)
    m_tiny = matrix_from_state(s_tiny, 1.0)
    m_free = matrix_from_state(s_free, 1.0)
    for a, b in zip(entries(m_tiny), entries(m_free)):
        assert abs(a - b) <= 1e-5


def test_canonical_matrix_rejects_wrong_determinant():
    """Construction never checks det; the point map, which needs det = 1,
    refuses the matrix."""
    w0 = wigner_gaussian(Moments(0.5, 0.5, 0.0), 0.0, 0.0, C)
    m = TransformMatrix(1.0, 0.0, 0.0, 1.1, alpha0=1.0)
    assert m.det == pytest.approx(1.1)
    with pytest.raises(ValidationError):
        wigner_pointmap(w0, m, 0.0, 0.0, C)
    with pytest.raises(ValidationError, match="alpha0"):
        TransformMatrix(1.0, 0.0, 0.0, 1.0, alpha0=0.0)
