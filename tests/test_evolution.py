"""Tests for the lambda/classical integrator and closed forms."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson

from wavepacket.core import (Constants, ConstantOmega, Free, InitialPacket,
                             ModulatedOmega, RampOmega, SystemSpec, TabulatedOmega)
from wavepacket.errors import CapabilityError, DivergenceError, ValidationError
from wavepacket import evolution
from wavepacket.evolution import (BLOCK_STEPS, SampleColumns, Trajectory, ermakov_residual,
                                  solve_lambda)

import scalar_reference
from scalar_reference import closed_form_classical, closed_form_lambda, omega_at

C = Constants()
FREE = SystemSpec(C, Free())
HO = SystemSpec(C, ConstantOmega(1.0))


def grid(t_end, n):
    return np.linspace(0.0, t_end, n + 1)


def initial_state(packet: InitialPacket):
    """The t = 0 LambdaState implied by the normalization convention."""
    a0 = packet.alpha0
    return scalar_reference.make_state(0.0, complex(a0, 0.0), complex(0.0, 1.0 / a0), 0.0)


def test_initial_conditions():
    for alpha0 in (0.5, 1.0, 2.0):
        s = initial_state(InitialPacket(0.3, -1.0, alpha0))
        assert s.lam == complex(alpha0, 0.0)
        assert s.lam_dot == complex(0.0, 1.0 / alpha0)
        assert s.phi == 0.0
        assert s.wronskian == pytest.approx(1.0, abs=1e-15)


def test_free_unit_packet_at_t1():
    traj = solve_lambda(FREE, InitialPacket(0.0, 1.0, 1.0), grid(1.0, 10))
    s = traj[-1]
    assert (s.u_hat, s.z_hat) == pytest.approx((1.0, 1.0), abs=1e-12)
    assert (s.u_hat_dot, s.z_hat_dot) == pytest.approx((0.0, 1.0), abs=1e-12)
    assert s.eta == pytest.approx(1.0, abs=1e-12)
    assert s.eta_dot == pytest.approx(1.0, abs=1e-12)


def test_ho_ground_width_circles():
    """alpha0 = 1 is the constant-width branch of the unit oscillator."""
    traj = solve_lambda(HO, InitialPacket(0.0, 1.0, 1.0), grid(6.0, 60))
    for s in traj:
        assert s.alpha == pytest.approx(1.0, abs=1e-10)
        assert (s.u_hat, s.z_hat) == pytest.approx((math.cos(s.t), math.sin(s.t)),
                                                   abs=1e-9)


def test_closed_form_free():
    s = closed_form_lambda(FREE, InitialPacket(0.0, 1.0, 1.0), 2.0)
    assert s.lam == 1.0 + 2.0j
    assert s.lam_dot == 1.0j
    assert s.alpha ** 2 == pytest.approx(1.0 + 2.0 ** 2, rel=1e-15)


def test_closed_form_ho_quarter_period():
    # omega=2, alpha0=1/sqrt(2), t=pi/4: lambda = i/sqrt(2)
    packet = InitialPacket(0.0, 1.0, 1.0 / math.sqrt(2.0))
    s = closed_form_lambda(SystemSpec(C, ConstantOmega(2.0)), packet, math.pi / 4.0)
    assert s.lam == pytest.approx(1j / math.sqrt(2.0), abs=1e-15)


def test_closed_form_t0_is_initial_condition():
    for system in (FREE, HO):
        s = closed_form_lambda(system, InitialPacket(0.0, 1.0, 1.3), 0.0)
        assert s.lam == complex(1.3, 0.0)
        assert s.phi == 0.0


def test_closed_form_rejects_ramp():
    with pytest.raises(CapabilityError):
        closed_form_lambda(SystemSpec(C, RampOmega(1.0, 0.1)),
                           InitialPacket(0.0, 1.0, 1.0), 1.0)


def test_classical_free_exact():
    packet = InitialPacket(0.4, 2.0, 1.0)
    cl = closed_form_classical(FREE, packet, 3.0)
    assert cl.eta == 0.4 + 2.0 * 3.0
    assert cl.eta_dot == 2.0


@pytest.mark.parametrize("system, alpha0", [
    (FREE, 1.0), (FREE, 2.0), (HO, 1.0), (HO, 1.5),
    (SystemSpec(C, ConstantOmega(2.0)), 0.7),
])
def test_numeric_matches_closed_form(system, alpha0):
    packet = InitialPacket(0.0, 1.0, alpha0)
    traj = solve_lambda(system, packet, grid(10.0, 100))
    for s in traj:
        ref = closed_form_lambda(system, packet, s.t)
        ref_cl = closed_form_classical(system, packet, s.t)
        assert abs(s.u_hat - ref.u_hat) <= 1e-8
        assert abs(s.z_hat - ref.z_hat) <= 1e-8
        assert abs(s.u_hat_dot - ref.u_hat_dot) <= 1e-8
        assert abs(s.z_hat_dot - ref.z_hat_dot) <= 1e-8
        assert abs(s.phi - ref.phi) <= 1e-8
        assert abs(s.eta - ref_cl.eta) <= 1e-8


@pytest.mark.parametrize("law", [
    Free(), ConstantOmega(1.0), RampOmega(1.0, 0.25),
    ModulatedOmega(1.0, 0.2, 2.0),
    TabulatedOmega((0.0, 5.0, 10.0), (1.0, 1.5, 0.5)),
])
def test_wronskian_conserved(law):
    system = SystemSpec(C, law)
    traj = solve_lambda(system, InitialPacket(0.0, 1.0, 1.2), grid(10.0, 100))
    worst = max(abs(s.wronskian - 1.0) for s in traj)
    assert worst <= 1e-9


def test_lambda_state_polar_invariants():
    traj = solve_lambda(SystemSpec(C, ModulatedOmega(1.0, 0.2, 2.0)),
                        InitialPacket(0.0, 1.0, 1.5), grid(10.0, 100))
    for s in traj:
        assert abs(s.alpha - abs(complex(s.u_hat, s.z_hat))) <= 1e-12 * s.alpha
        assert abs(s.phi_dot - 1.0 / s.alpha ** 2) <= 1e-10 / s.alpha ** 2


@pytest.mark.parametrize("law", [
    Free(), ConstantOmega(1.0), ModulatedOmega(1.0, 0.2, 2.0),
])
def test_phase_law_against_quadrature(law):
    """phi(t) must equal the integral of 1/alpha^2 at integrator resolution."""
    system = SystemSpec(C, law)
    dt = 1e-3
    t_grid = [k * dt for k in range(2001)]
    traj = solve_lambda(system, InitialPacket(0.0, 1.0, 1.5), t_grid, dt=dt)
    inv_alpha2 = np.array([1.0 / s.alpha ** 2 for s in traj])
    phi_quad = simpson(inv_alpha2, dx=dt)
    phi_end = traj[-1].phi
    assert abs(phi_end - phi_quad) <= 1e-9


def test_small_omega_matches_free():
    packet = InitialPacket(0.0, 1.0, 1.0)
    tiny = SystemSpec(C, ConstantOmega(1e-6))
    for t in np.linspace(0.0, 5.0, 11):
        s_tiny = closed_form_lambda(tiny, packet, float(t))
        s_free = closed_form_lambda(FREE, packet, float(t))
        assert abs(s_tiny.lam - s_free.lam) <= 1e-5
        assert abs(s_tiny.lam_dot - s_free.lam_dot) <= 1e-5


def test_ermakov_residual_free():
    s = closed_form_lambda(FREE, InitialPacket(0.0, 1.0, 1.0), 1.0)
    assert ermakov_residual(s, 0.0) < 1e-12


def test_ermakov_residual_ho_constant_width():
    s = closed_form_lambda(HO, InitialPacket(0.0, 1.0, 1.0), 2.3)
    assert ermakov_residual(s, 1.0) < 1e-12


def test_ermakov_residual_detects_perturbation():
    from dataclasses import replace
    s = closed_form_lambda(FREE, InitialPacket(0.0, 1.0, 1.0), 1.0)
    bad = replace(s, lam=s.lam * (1.0 + 1e-3), alpha=s.alpha * (1.0 + 1e-3))
    assert ermakov_residual(bad, 0.0) > 1e-6


def test_phi_is_arg_lambda_where_one_step_turns_lambda_by_most_of_pi():
    """At alpha0 = 1e-3 the first free step of 1e-3 turns lambda by 1.5698
    rad, far more than 1/alpha^2 at the step's stages could resolve; phi
    is still arg lambda = atan(t/alpha0^2)."""
    traj = solve_lambda(FREE, InitialPacket(0.0, 1.0, 1e-3), [0.0, 1.0, 2.0], dt=1e-3)
    exact = math.atan(2.0 / 1e-3 ** 2)
    assert abs(traj[-1].phi - exact) <= 1e-15 * exact


def test_phi_unwraps_beyond_pi():
    """Several oscillator periods: phi grows without wrap glitches."""
    packet = InitialPacket(0.0, 1.0, 1.0)
    t_end = 4.0 * math.pi
    traj = solve_lambda(HO, packet, grid(t_end, 200))
    phis = [s.phi for s in traj]
    assert all(b > a for a, b in zip(phis, phis[1:]))
    assert phis[-1] == pytest.approx(t_end, abs=1e-8)  # alpha = 1 branch
    ref = closed_form_lambda(HO, packet, t_end)
    assert ref.phi == pytest.approx(t_end, abs=1e-12)


def test_divergence_error_reports_time():
    system = SystemSpec(C, TabulatedOmega((0.0, 10.0), (1e300, 1e300)))
    with pytest.raises(DivergenceError) as err:
        solve_lambda(system, InitialPacket(0.0, 1.0, 1.0), grid(1.0, 10))
    assert err.value.t is not None


def test_t_grid_validation():
    packet = InitialPacket(0.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        solve_lambda(FREE, packet, [0.5, 1.0])
    with pytest.raises(ValidationError):
        solve_lambda(FREE, packet, [0.0, 1.0, 1.0])
    with pytest.raises(ValidationError):
        solve_lambda(FREE, packet, [0.0, 1.0], dt=0.0)
    with pytest.raises(ValidationError, match="one-dimensional"):
        solve_lambda(FREE, packet, [[0.0, 1.0]])


@pytest.mark.parametrize("t_grid, dt, field", [
    ([0.0, math.inf], 1e-3, "t_grid"),
    ([0.0, 1.0, math.nan], 1e-3, "t_grid"),
    ([0.0, 1.0], math.nan, "dt"),
    ([0.0, 1.0], math.inf, "dt"),
])
def test_non_finite_time_rejected(t_grid, dt, field):
    with pytest.raises(ValidationError, match=f"{field}.* must be finite"):
        solve_lambda(FREE, InitialPacket(0.0, 1.0, 1.0), t_grid, dt=dt)


def test_trajectory_time_dependent_omega_follows_tabulated():
    """Tabulated interpolation feeds the integrator (needs midpoint values)."""
    table = SystemSpec(C, TabulatedOmega((0.0, 2.0), (1.0, 1.0)))
    packet = InitialPacket(0.0, 1.0, 1.0)
    traj_tab = solve_lambda(table, packet, grid(2.0, 20))
    traj_ho = solve_lambda(HO, packet, grid(2.0, 20))
    s_tab, s_ho = traj_tab[-1], traj_ho[-1]
    assert abs(complex(s_tab.u_hat, s_tab.z_hat)
               - complex(s_ho.u_hat, s_ho.z_hat)) <= 1e-12
    assert omega_at(table, 1.3) == 1.0


# ---------------------------------------------------------------------------
# The scalar 6-component RK4 as the reference for the propagator products
# ---------------------------------------------------------------------------

def _rhs_reference(omega, t, y):
    w = omega(t)
    w2 = w * w
    u, ud, z, zd, e, ed = y
    return (ud, -w2 * u, zd, -w2 * z, ed, -w2 * e)


def _rk4_step_reference(omega, t, y, h):
    k1 = _rhs_reference(omega, t, y)
    y2 = tuple(yi + 0.5 * h * ki for yi, ki in zip(y, k1))
    k2 = _rhs_reference(omega, t + 0.5 * h, y2)
    y3 = tuple(yi + 0.5 * h * ki for yi, ki in zip(y, k2))
    k3 = _rhs_reference(omega, t + 0.5 * h, y3)
    y4 = tuple(yi + h * ki for yi, ki in zip(y, k3))
    k4 = _rhs_reference(omega, t + h, y4)
    return tuple(
        yi + (h / 6.0) * (a + 2.0 * (b + c) + d)
        for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
    )


def _rk4_step_flat(omega, t, y, h):
    """The tuple-per-stage step written out component by component, with w
    evaluated once at t + h/2 for both k2 and k3; it rounds exactly as
    _rk4_step_reference does."""
    u, ud, z, zd, e, ed = y
    half = 0.5 * h

    w = omega(t)
    n1 = -(w * w)
    au1, az1, ae1 = n1 * u, n1 * z, n1 * e
    u2, ud2 = u + half * ud, ud + half * au1
    z2, zd2 = z + half * zd, zd + half * az1
    e2, ed2 = e + half * ed, ed + half * ae1

    w = omega(t + half)
    n2 = -(w * w)
    au2, az2, ae2 = n2 * u2, n2 * z2, n2 * e2
    u3, ud3 = u + half * ud2, ud + half * au2
    z3, zd3 = z + half * zd2, zd + half * az2
    e3, ed3 = e + half * ed2, ed + half * ae2

    au3, az3, ae3 = n2 * u3, n2 * z3, n2 * e3
    u4, ud4 = u + h * ud3, ud + h * au3
    z4, zd4 = z + h * zd3, zd + h * az3
    e4, ed4 = e + h * ed3, ed + h * ae3

    w = omega(t + h)
    n4 = -(w * w)
    au4, az4, ae4 = n4 * u4, n4 * z4, n4 * e4

    c = h / 6.0
    return (u + c * ((ud + 2.0 * (ud2 + ud3)) + ud4),
            ud + c * ((au1 + 2.0 * (au2 + au3)) + au4),
            z + c * ((zd + 2.0 * (zd2 + zd3)) + zd4),
            zd + c * ((az1 + 2.0 * (az2 + az3)) + az4),
            e + c * ((ed + 2.0 * (ed2 + ed3)) + ed4),
            ed + c * ((ae1 + 2.0 * (ae2 + ae3)) + ae4))


def _scalar(law):
    return lambda t: float(law.omega(t))


def _solve_reference(system, packet, t_grid, dt=1e-3, step=_rk4_step_flat):
    """The step-by-step solve: the same step grid as solve_lambda, one scalar
    RK4 step at a time, with phi unwrapped after each step."""
    omega = _scalar(system.frequency_law)
    m = system.constants.mass
    a0 = packet.alpha0
    y = (a0, 0.0, 0.0, 1.0 / a0, packet.x0, packet.p0 / m)
    phi = scalar_reference.phase_unwrapper()
    t_grid = [float(t) for t in t_grid]
    states = [(*y, 0.0)]
    t = 0.0
    for t_next in t_grid[1:]:
        span = t_next - t
        k = round(span / dt)
        n_sub = max(1, k if abs(span / dt - k) <= 1e-9 * k else math.ceil(span / dt))
        h = span / n_sub
        for k in range(n_sub):
            y = step(omega, t + k * h, y, h)
            state = (*y, phi(y[0], y[2]))
        t = t_next
        if not all(map(math.isfinite, state)):
            raise DivergenceError(t)
        states.append(state)
    return Trajectory(system=system, packet=packet, times=np.array(t_grid),
                      states=np.array(states))


def _assert_rounding_close(states, reference):
    """Every value within 1e-12*max(1, |reference value|)."""
    got, ref = np.array(states), np.array(reference)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


EXACT_LAWS = [
    Free(), ConstantOmega(1.3), RampOmega(0.5, 0.2), ModulatedOmega(1.0, 0.2, 2.1),
    TabulatedOmega((0.0, 1.25, 2.5, 3.75, 5.0), (1.0, 0.4, 1.8, 0.7, 1.2)),
]

_finite = dict(allow_nan=False, allow_infinity=False)
_omega = st.floats(0.0, 3.0, **_finite)


@st.composite
def _tabulated(draw):
    """Knots 0 < interior < 10.5 (as close as floats allow), so [t, t + h] fits."""
    interior = sorted(draw(st.lists(st.floats(0.01, 10.49, **_finite),
                                    unique=True, max_size=5)))
    times = (0.0, *interior, 10.5)
    return TabulatedOmega(times, tuple(draw(_omega) for _ in times))


_law = st.one_of(
    st.just(Free()),
    st.builds(ConstantOmega, _omega),
    st.builds(RampOmega, _omega, st.floats(-1.0, 1.0, **_finite)),
    st.builds(ModulatedOmega, _omega, st.floats(-0.5, 0.5, **_finite),
              st.floats(0.0, 5.0, **_finite)),
    _tabulated(),
)


@settings(max_examples=300, deadline=None)
@given(law=_law,
       y=st.tuples(*[st.floats(-10.0, 10.0, **_finite)] * 6),
       t=st.floats(0.0, 10.0, **_finite),
       h=st.floats(1e-6, 0.5, **_finite))
def test_rk4_step_equals_tuple_reference(law, y, t, h):
    """The scalar reference is the tuple-per-stage RK4 to the last bit, and
    one step of the propagator 1 + E moves (u, u'), (z, z') and (eta, eta')
    as it does, up to rounding."""
    omega = _scalar(law)
    reference = _rk4_step_reference(omega, t, y, h)
    assert _rk4_step_flat(omega, t, y, h) == reference
    e = evolution._step_propagators(law.omega, np.array([t]), np.array([h]))[:, :, 0]
    for k in (0, 2, 4):
        q, p = y[k], y[k + 1]
        moved = (q + (e[0, 0] * q + e[0, 1] * p), p + (e[1, 0] * q + e[1, 1] * p))
        scale = max(1.0, abs(q), abs(p))
        assert abs(moved[0] - reference[k]) <= 1e-13 * scale
        assert abs(moved[1] - reference[k + 1]) <= 1e-13 * scale


def _samples(traj):
    return [(s.t, s.u_hat, s.u_hat_dot, s.z_hat, s.z_hat_dot, s.alpha, s.alpha_dot,
             s.phi, s.phi_dot, s.eta, s.eta_dot) for s in traj]


@pytest.mark.parametrize("law", EXACT_LAWS, ids=lambda law: type(law).__name__)
def test_solve_lambda_trajectory_equals_tuple_reference(law):
    """The scalar solve loop gives the tuple-per-stage trajectory to the last
    bit; solve_lambda gives it up to rounding."""
    system = SystemSpec(C, law)
    packet = InitialPacket(0.3, 0.9, 1.1)
    t_grid = [k * 0.1 for k in range(51)]
    reference = _solve_reference(system, packet, t_grid)
    assert _samples(reference) == _samples(
        _solve_reference(system, packet, t_grid, step=_rk4_step_reference))
    traj = solve_lambda(system, packet, t_grid)
    assert traj.times.tolist() == t_grid
    _assert_rounding_close(traj.states, reference.states)


@st.composite
def _time_grids(draw):
    """(t_grid, dt) of at most 5000 steps up to t = 10: float spans k*0.1
    that the step rule takes in 100 substeps at dt = 1e-3 (ceil(span/dt)
    gives 101 for some), single-step intervals, and random increasing grids
    with a random dt."""
    kind = draw(st.sampled_from(("tenths", "single", "random")))
    if kind == "tenths":
        return [k * 0.1 for k in range(draw(st.integers(1, 50)) + 1)], 1e-3
    if kind == "single":
        dt = draw(st.floats(2e-3, 0.05, **_finite))
        return [k * dt for k in range(draw(st.integers(1, int(10.0 / dt))) + 1)], dt
    gaps = draw(st.lists(st.floats(1e-3, 1.0, **_finite), min_size=1, max_size=40))
    t_grid = [0.0]
    for gap in gaps:
        if t_grid[-1] + gap <= 10.0:
            t_grid.append(t_grid[-1] + gap)
    span = max(b - a for a, b in zip(t_grid, t_grid[1:]))
    dt = draw(st.floats(max(span / 200.0, t_grid[-1] / 5000.0), 0.5, **_finite))
    return t_grid, dt


@settings(max_examples=60, deadline=None)
@given(law=_law, grid_dt=_time_grids(),
       packet=st.builds(InitialPacket, st.floats(-2.0, 2.0, **_finite),
                        st.floats(-2.0, 2.0, **_finite), st.floats(0.3, 3.0, **_finite)))
def test_solve_lambda_agrees_with_scalar_reference(law, grid_dt, packet):
    """Every law, with tabulated knots falling inside steps: the propagator
    products give the scalar RK4 trajectory up to rounding."""
    t_grid, dt = grid_dt
    system = SystemSpec(C, law)
    reference = _solve_reference(system, packet, t_grid, dt=dt)
    _assert_rounding_close(solve_lambda(system, packet, t_grid, dt=dt).states,
                           reference.states)


@pytest.mark.parametrize("law", EXACT_LAWS, ids=lambda law: type(law).__name__)
def test_samples_are_built_from_stored_states_and_cached(law):
    t_grid = np.arange(51) * 0.1
    traj = solve_lambda(SystemSpec(C, law), InitialPacket(0.3, 0.9, 1.1), t_grid)
    assert len(traj) == len(traj.states) == len(traj.times) == 51
    assert "columns" not in vars(traj)
    expected = scalar_reference.samples(traj)
    # dataclass == compares every field
    assert [scalar_reference.pair(s) for s in traj] == list(expected)
    assert scalar_reference.pair(traj[0])[0] == initial_state(traj.packet)
    for s in traj:
        assert type(s) is SampleColumns
        for value in vars(s).values():
            assert type(value) is float   # repr in trajectory.csv needs plain floats
    for array, shape in ((traj.times, (51,)), (traj.states, (51, 7))):
        assert type(array) is np.ndarray and array.dtype == np.float64
        assert array.shape == shape
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    assert traj.times is not t_grid and t_grid.flags.writeable
    assert traj.times.tolist() == t_grid.tolist()
    assert traj.columns is traj.columns
    assert traj[-1] == traj[len(traj) - 1] == traj[np.int64(50)]
    for index in (slice(1, 3), slice(0, 1), 1.0):
        with pytest.raises(TypeError):
            traj[index]


def test_overflowing_ramp_diverges_at_reference_time():
    """w*w overflows to inf and the state goes non-finite, as before."""
    system = SystemSpec(C, RampOmega(1.0, 1e200))
    packet = InitialPacket(0.0, 1.0, 1.0)
    with pytest.raises(DivergenceError) as products:
        solve_lambda(system, packet, grid(1.0, 10))
    with pytest.raises(DivergenceError) as reference:
        _solve_reference(system, packet, grid(1.0, 10))
    assert products.value.t == reference.value.t == 0.1


@pytest.mark.parametrize("law, t_grid, dt", [
    (TabulatedOmega((0.0, 10.0), (1e300, 1e300)), [k * 0.1 for k in range(11)], 1e-3),
    # h*w passes RK4's stability limit at t = 2.8e-3 and the state then
    # grows until it overflows near t = 0.3
    (RampOmega(0.0, 3e4), [k * 0.01 for k in range(101)], 1e-3),
    # h*w = 100 is far outside RK4's stability region: the state grows by
    # about 4e6 per step and overflows after some 47 steps
    (ConstantOmega(1e5), [k * 0.01 for k in range(11)], 1e-3),
    (ConstantOmega(1e5), [k * 1e-3 for k in range(101)], 1e-3),
    (ModulatedOmega(3e4, 0.5, 7.0), [k * 0.003 for k in range(400)], 1e-3),
], ids=["tabulated", "ramp", "constant", "constant-every-step", "modulated"])
def test_divergence_time_equals_reference(law, t_grid, dt):
    system = SystemSpec(C, law)
    packet = InitialPacket(0.2, 1.0, 1.7)
    with pytest.raises(DivergenceError) as products:
        solve_lambda(system, packet, t_grid, dt=dt)
    with pytest.raises(DivergenceError) as reference:
        _solve_reference(system, packet, t_grid, dt=dt)
    assert products.value.t == reference.value.t


def test_divergence_is_silent(recwarn):
    """Overflow is reported by the DivergenceError, not by numpy warnings."""
    with pytest.raises(DivergenceError):
        solve_lambda(SystemSpec(C, RampOmega(1.0, 1e200)),
                     InitialPacket(0.0, 1.0, 1.0), grid(1.0, 10))
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def _peak_bytes(t_grid, dt, system=FREE):
    tracemalloc.start()
    try:
        solve_lambda(system, InitialPacket(0.0, 1.0, 1.0), t_grid, dt=dt)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_step_count():
    """10^6 steps sampled every 1000 need no more memory than 10^4 steps
    at the same 1001 samples: the steps live in fixed-size blocks."""
    samples = [float(k) for k in range(1001)]
    few = _peak_bytes(samples, 0.1)           # 10 steps per sample
    many = _peak_bytes(samples, 1e-3)         # 1000 steps per sample
    assert many <= few + 64 * 1024
    assert many <= 4 * 1024 * 1024            # 56 MB if every step were kept


def test_memory_does_not_grow_with_block_count():
    """One block of 2048 steps and five blocks of them peak alike: each
    block's arrays are released before the next block is built."""
    system = SystemSpec(C, ModulatedOmega(1.0, 0.2, 2.1))
    peaks = []
    for n in (BLOCK_STEPS, 5 * BLOCK_STEPS):
        _peak_bytes([0.0, n * 1e-3], 1e-3, system)    # first-call caches
        peaks.append(_peak_bytes([0.0, n * 1e-3], 1e-3, system))
    assert abs(peaks[1] - peaks[0]) <= 64 * 1024


def _steps_taken(monkeypatch, *args, **kwargs):
    """(result, RK4 steps) of a solve_lambda call, counted as the step start
    times handed to _step_propagators."""
    taken = []
    propagators = evolution._step_propagators
    monkeypatch.setattr(evolution, "_step_propagators",
                        lambda omega, t, h: taken.append(len(t)) or propagators(omega, t, h))
    return solve_lambda(*args, **kwargs), sum(taken)


@pytest.mark.parametrize("t_grid, dt, steps", [
    # ceil(span/dt - 1e-12) took 10 004: four spans (k+1)*0.1 - k*0.1 exceed
    # 100*dt by more than 1e-12 of dt
    (np.arange(101) * 0.1, 1e-3, 10000),
    (np.arange(2001) * 1e-3, 1e-4, 20000),
    (np.arange(20001) * 1e-4, 1e-4, 20000),
    ([0.0, 0.25, 0.3], 0.1, 4),          # 2.5 and 0.5 steps: ceil
    ([0.0, 1.0], 2.0, 1),
])
def test_step_rule_takes_whole_multiples_exactly(monkeypatch, t_grid, dt, steps):
    _, taken = _steps_taken(monkeypatch, HO, InitialPacket(0.0, 1.0, 1.0), t_grid, dt=dt)
    assert taken == steps
