"""Tests for analytic Gaussian packets, wavefunction sampling, and moments."""

import math

import numpy as np
import pytest

from wavepacket.core import Constants, ConstantOmega, Free, InitialPacket, SystemSpec
from wavepacket.errors import ValidationError
from wavepacket.evolution import Trajectory, solve_lambda
from wavepacket.packet import moments_from_lambda, wavefunction

from scalar_reference import closed_form_lambda

C = Constants()
FREE = SystemSpec(C, Free())
HO = SystemSpec(C, ConstantOmega(1.0))


def solved(system, packet, t, n=200):
    return solve_lambda(system, packet, np.linspace(0.0, t, n + 1) if t > 0 else [0.0])


def psi_at(system, packet, t, x):
    """The analytic packet at t, sampled on x."""
    traj = solved(system, packet, t)
    return wavefunction(traj, len(traj) - 1, x)


def centered_grid(mean, sigma, n=513, span=8.0):
    return np.linspace(mean - span * sigma, mean + span * sigma, n)


def test_initial_packet_means_and_width():
    """At t = 0: pi^(-1/4) * exp(-x^2/2 + i*x), mean 0, momentum 1, width 1."""
    x = centered_grid(0.0, 1.0)
    psi = psi_at(FREE, InitialPacket(0.0, 1.0, 1.0), 0.0, x)
    expected = math.pi ** -0.25 * np.exp(-0.5 * x * x + 1j * x)
    assert np.max(np.abs(psi.values - expected)) <= 1e-15


def test_free_t1_mean_and_width_rate():
    """The free packet pi^(-1/4) * (1+it)^(-1/2) * exp(-(x - t)^2/(2(1+it))
    + i*x - i*t/2) at t = 1, global phase included: mean 1 and width rate
    lambda'/lambda = i/(1+i) = (1+i)/2."""
    x = centered_grid(1.0, 1.0)
    psi = psi_at(FREE, InitialPacket(0.0, 1.0, 1.0), 1.0, x)
    expected = (math.pi ** -0.25 / np.sqrt(1.0 + 1.0j)
                * np.exp(-(x - 1.0) ** 2 / (2.0 * (1.0 + 1.0j)) + 1j * x - 0.5j))
    assert np.max(np.abs(psi.values - expected)) <= 1e-12


def test_ho_half_period_reflection():
    """eta = sin(t) for x0=0, v0=1: at t = pi the packet is back at 0 with
    momentum -1, -i * pi^(-1/4) * exp(-x^2/2 - i*x), lambda = e^(i*pi)."""
    x = centered_grid(0.0, 1.0)
    psi = psi_at(HO, InitialPacket(0.0, 1.0, 1.0), math.pi, x)
    expected = -1j * math.pi ** -0.25 * np.exp(-0.5 * x * x - 1j * x)
    assert np.max(np.abs(psi.values - expected)) <= 1e-10


def test_gaussian_peak_value_at_t0():
    var_x0 = 0.5
    grid = psi_at(FREE, InitialPacket(0.0, 1.0, 1.0), 0.0, centered_grid(0.0, math.sqrt(var_x0)))
    peak = np.abs(grid.values).max() ** 2
    assert peak == pytest.approx((2.0 * math.pi * var_x0) ** -0.5, rel=1e-12)


def test_free_t1_density_peak_and_variance():
    grid = psi_at(FREE, InitialPacket(0.0, 1.0, 1.0), 1.0, centered_grid(1.0, 1.0))
    density = np.abs(grid.values) ** 2
    x = grid.x()
    assert x[np.argmax(density)] == pytest.approx(1.0, abs=1e-12)
    mean = np.trapezoid(x * density, dx=grid.dx)
    var = np.trapezoid((x - mean) ** 2 * density, dx=grid.dx)
    assert var == pytest.approx(1.0, abs=1e-9)  # <x~^2> = (1 + t^2)/2 = 1 at t=1


@pytest.mark.parametrize("system, packet, t", [
    (FREE, InitialPacket(0.0, 1.0, 1.0), 1.0),
    (FREE, InitialPacket(0.5, -0.7, 2.0), 2.0),
    (HO, InitialPacket(0.0, 1.0, 1.5), 3.0),
])
def test_wavefunction_normalized(system, packet, t):
    traj = solved(system, packet, t)
    sigma = math.sqrt(moments_from_lambda(traj[-1], C).var_x)
    grid = wavefunction(traj, len(traj) - 1, centered_grid(traj[-1].eta, sigma))
    assert abs(grid.norm() ** 2 - 1.0) <= 1e-6
    assert grid.warnings == ()


def test_narrow_grid_gets_coverage_warning():
    grid = psi_at(FREE, InitialPacket(0.0, 1.0, 1.0), 0.0,
                  centered_grid(0.0, math.sqrt(0.5), span=2.0))
    assert grid.warnings


def test_spreading_law():
    """<x~^2>(t)/<x~^2>(0) = 1 + (t/alpha0^2)^2 for free motion."""
    alpha0 = 1.3
    packet = InitialPacket(0.0, 1.0, alpha0)
    traj = solve_lambda(FREE, packet, np.linspace(0.0, 10.0, 101))
    var0 = moments_from_lambda(traj[0], C).var_x
    for s in traj:
        expected = var0 * (1.0 + (s.t / alpha0 ** 2) ** 2)
        assert abs(moments_from_lambda(s, C).var_x - expected) <= 1e-9 * expected


def test_momentum_variance_constant_for_free():
    traj = solve_lambda(FREE, InitialPacket(0.0, 1.0, 1.0), np.linspace(0.0, 10.0, 101))
    for s in traj:
        assert abs(moments_from_lambda(s, C).var_p - 0.5) <= 1e-10


def test_correlation_vanishes_on_constant_width_branch():
    traj = solve_lambda(HO, InitialPacket(0.0, 1.0, 1.0), np.linspace(0.0, 10.0, 101))
    for s in traj:
        assert abs(moments_from_lambda(s, C).corr) <= 1e-12


def test_ehrenfest_mean_obeys_classical_equation():
    """FD second derivative of <x> plus w^2 <x> vanishes on the sample grid."""
    dt = 1e-3
    t_grid = [k * dt for k in range(1001)]
    traj = solve_lambda(HO, InitialPacket(0.0, 1.0, 1.0), t_grid, dt=dt)
    mean = traj.columns.eta
    for i in range(1, len(mean) - 1, 25):
        acc = (mean[i + 1] - 2.0 * mean[i] + mean[i - 1]) / dt ** 2
        assert abs(acc + mean[i]) <= 1e-6


def test_moments_free_t1():
    s = closed_form_lambda(FREE, InitialPacket(0.0, 1.0, 1.0), 1.0)
    m = moments_from_lambda(s, C)
    assert m.var_x == pytest.approx(1.0, rel=1e-14)
    assert m.var_p == pytest.approx(0.5, rel=1e-14)
    assert m.corr == pytest.approx(1.0, rel=1e-14)


def test_moments_t0_minimum_uncertainty():
    s = closed_form_lambda(FREE, InitialPacket(0.0, 1.0, 1.0), 0.0)
    m = moments_from_lambda(s, C)
    assert (m.var_x, m.var_p, m.corr) == (0.5, 0.5, 0.0)


def test_moments_ho_constant_width_any_t():
    for t in (0.3, 1.0, 4.6):
        s = closed_form_lambda(HO, InitialPacket(0.0, 1.0, 1.0), t)
        m = moments_from_lambda(s, C)
        assert m.var_x == pytest.approx(0.5, abs=1e-14)
        assert m.var_p == pytest.approx(0.5, abs=1e-14)
        assert abs(m.corr) <= 1e-14


def test_width_rate_imaginary_part_is_inverse_alpha_squared():
    """|psi(eta +- 1)| / |psi(eta)| = exp(-(m/(2*hbar)) * Im(lambda'/lambda)),
    with Im(lambda'/lambda) = 1/alpha^2."""
    traj = solve_lambda(HO, InitialPacket(0.0, 1.0, 1.5), np.linspace(0.0, 5.0, 51))
    for i in range(len(traj)):
        s = traj[i]
        three = wavefunction(traj, i, s.eta + np.array([-1.0, 0.0, 1.0]))
        side, centre, other = np.abs(three.values)
        for ratio in (side / centre, other / centre):
            assert ratio == pytest.approx(math.exp(-0.5 / s.alpha ** 2), rel=1e-10)


def test_packet_rejects_non_normalizable_width():
    """lambda = 1 with lambda' = -i: a Wronskian of -1 makes Im(lambda'/lambda)
    negative, a Gaussian that grows away from its mean."""
    traj = Trajectory(FREE, InitialPacket(0.0, 0.0, 1.0), np.array([0.0]),
                      np.array([[1.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0]]))
    assert traj[0].wronskian == -1.0
    with pytest.raises(ValidationError, match="must be positive"):
        wavefunction(traj, 0, centered_grid(0.0, 1.0))


def test_wavefunction_grid_validation():
    traj = solved(FREE, InitialPacket(0.0, 1.0, 1.0), 0.0)
    with pytest.raises(ValidationError):
        wavefunction(traj, 0, np.array([0.0]))
    with pytest.raises(ValidationError):
        wavefunction(traj, 0, np.array([0.0, 1.0, 1.5]))
