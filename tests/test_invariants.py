"""Tests for the transformation matrix, Ermakov invariant, and the
uncertainty Lagrangian/Hamiltonian machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavepacket.core import (Constants, ConstantOmega, Free, InitialPacket,
                             ModulatedOmega, RampOmega, SystemSpec, TabulatedOmega,
                             TransformMatrix)
from wavepacket.errors import ValidationError
from wavepacket.evolution import Trajectory, solve_lambda
from wavepacket.kernels import UNIFORM_ULPS
from wavepacket.invariants import (EulerLagrangeMaxima, energy_partition,
                                   ermakov_invariant, euler_lagrange_residuals,
                                   matrix_from_state, record_columns)
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


def test_euler_lagrange_residuals_at_integrator_resolution():
    dt = 1e-3
    t_grid = [k * dt for k in range(1001)]
    traj = solve_lambda(FREE, InitialPacket(0.0, 1.0, 1.0), t_grid, dt=dt)
    res_alpha = euler_lagrange_residuals(traj)
    assert len(res_alpha) == len(traj) - 2
    assert res_alpha.max() <= 1e-6


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


@pytest.mark.parametrize("dt, sample_every", [(1e-4, 1), (1e-4, 10), (3e-4, 7)])
def test_residuals_take_the_steps_of_a_fine_run(dt, sample_every):
    """Step ends t + h, rounded to doubles near t = 2, are uniform to
    within the rounding of those times, which exceeds 1e-12 of a 1e-4 step."""
    step = dt * sample_every
    t_grid = np.arange(math.ceil(2.0 / step) + 1) * step   # past t = 2
    el, handed = EulerLagrangeMaxima(), []

    def hook(steps, last):
        handed.append(len(steps))
        el(steps, last)
    solve_lambda(HO, InitialPacket(0.0, 1.0, 1.0), t_grid, dt=dt,
                 step_hook=hook, hook_steps=round(2.0 / dt))
    assert sum(handed) - 2 * (len(handed) - 1) == round(2.0 / dt) + 1
    assert 0.0 < el.alpha <= 10.0 * dt * dt


def test_residuals_need_interior_uniform_samples():
    traj = solve_lambda(FREE, InitialPacket(0.0, 1.0, 1.0), [0.0, 0.1, 0.2, 0.4])
    with pytest.raises(ValidationError, match="uniform"):
        euler_lagrange_residuals(traj)
    # spacings 5e-13 apart: past 1e-12 of the step and UNIFORM_ULPS ulps of
    # the last time, within those ulps of a `last` of 1000, as a block of
    # steps is held to the tolerance at the last step handed over
    traj = solve_lambda(FREE, InitialPacket(0.0, 1.0, 1.0), [0.0, 0.25, 0.5 + 5e-13])
    with pytest.raises(ValidationError, match="uniform"):
        euler_lagrange_residuals(traj)
    assert euler_lagrange_residuals(traj, 1000.0).shape == (1,)
    EulerLagrangeMaxima()(traj, 1000.0)
    for n in (0, 1):
        traj = solve(FREE, InitialPacket(0.0, 1.0, 1.0), t_end=0.001, n=n)
        assert euler_lagrange_residuals(traj).shape == (0,)


def _uncertainty_dynamics_residual_reference(traj: Trajectory, index: int):
    """The per-sample width-equation residual the array form replaced, kept
    as its bit-exact reference."""
    if not 0 < index < len(traj) - 1:
        raise ValidationError("index must be interior for centered differences")
    prev, here, nxt = traj[index - 1], traj[index], traj[index + 1]
    h1 = here.t - prev.t
    h2 = nxt.t - here.t
    atol = UNIFORM_ULPS * float(np.spacing(traj.times[-1]))
    if abs(h1 - h2) > 1e-12 * max(h1, h2) + atol:
        raise ValidationError("centered differences need uniform sample spacing")
    h = 0.5 * (h1 + h2)
    alpha_ddot = (nxt.alpha - 2.0 * here.alpha + prev.alpha) / (h * h)
    w = omega_at(traj.system, here.t)
    return abs(alpha_ddot + w * w * here.alpha - here.phi_dot ** 2 * here.alpha)


_finite = dict(allow_nan=False, allow_infinity=False)
_omega = st.floats(0.0, 3.0, **_finite)


@st.composite
def _tabulated(draw):
    """Knots reach past t = 4, the end of the longest trajectory below."""
    interior = sorted(draw(st.lists(st.floats(0.01, 4.49, **_finite),
                                    unique=True, max_size=4)))
    times = (0.0, *interior, 4.5)
    return TabulatedOmega(times, tuple(draw(_omega) for _ in times))


_law = st.one_of(
    st.just(Free()),
    st.builds(ConstantOmega, _omega),
    st.builds(RampOmega, _omega, st.floats(-0.5, 0.5, **_finite)),
    st.builds(ModulatedOmega, _omega, st.floats(-0.5, 0.5, **_finite),
              st.floats(0.0, 5.0, **_finite)),
    _tabulated(),
)


@settings(max_examples=200, deadline=None)
@given(law=_law,
       constants=st.builds(Constants, st.floats(0.1, 3.0, **_finite),
                           st.floats(0.1, 3.0, **_finite)),
       packet=st.builds(InitialPacket, st.floats(-3.0, 3.0, **_finite),
                        st.floats(-3.0, 3.0, **_finite), st.floats(0.2, 3.0, **_finite)),
       spacing=st.floats(1e-3, 0.1, **_finite),
       substeps=st.integers(1, 4),
       n=st.integers(0, 40))
def test_euler_lagrange_residuals_equal_per_sample_reference(law, constants, packet,
                                                             spacing, substeps, n):
    system = SystemSpec(constants, law)
    traj = solve_lambda(system, packet, [k * spacing for k in range(n + 1)],
                        dt=spacing / substeps)
    res_alpha = euler_lagrange_residuals(traj)
    assert len(res_alpha) == max(0, len(traj) - 2)
    for i in range(1, len(traj) - 1):
        assert res_alpha[i - 1] == _uncertainty_dynamics_residual_reference(traj, i)


@pytest.mark.parametrize("law", [
    Free(), ConstantOmega(1.3), RampOmega(0.5, 0.2), ModulatedOmega(1.0, 0.2, 2.1),
    TabulatedOmega((0.0, 0.4, 0.9, 1.5), (1.0, 0.4, 1.8, 0.7)),
], ids=lambda law: type(law).__name__)
def test_euler_lagrange_residuals_equal_reference_at_integrator_resolution(law):
    """The invariant report's use: one sample per RK4 step, 1 000 steps."""
    dt = 1e-3
    traj = solve_lambda(SystemSpec(Constants(1.3, 0.7), law),
                        InitialPacket(0.4, 0.9, 1.2), [k * dt for k in range(1001)], dt=dt)
    reference = [_uncertainty_dynamics_residual_reference(traj, i)
                 for i in range(1, len(traj) - 1)]
    assert euler_lagrange_residuals(traj).tolist() == reference
