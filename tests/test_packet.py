"""Tests for analytic Gaussian packets, wavefunction sampling, and moments."""

import math

import numpy as np
import pytest

from wavepacket.core import Constants, ConstantOmega, Free, InitialPacket, SystemSpec
from wavepacket.errors import ValidationError
from wavepacket.evolution import solve_lambda
from wavepacket.packet import (GaussianPacket, evaluate_wavefunction,
                               moments_from_lambda, propagate_analytic)

from scalar_reference import closed_form_lambda

C = Constants()
FREE = SystemSpec(C, Free())
HO = SystemSpec(C, ConstantOmega(1.0))


def packet_at(system, packet, t, n=200):
    traj = solve_lambda(system, packet, np.linspace(0.0, t, n + 1) if t > 0 else [0.0])
    return traj, propagate_analytic(traj, len(traj) - 1)


def centered_grid(mean, sigma, n=513, span=8.0):
    return np.linspace(mean - span * sigma, mean + span * sigma, n)


def test_initial_packet_means_and_width():
    _, p = packet_at(FREE, InitialPacket(0.0, 1.0, 1.0), 0.0)
    assert p.mean_x == 0.0
    assert p.mean_p == 1.0
    assert p.y_complex == pytest.approx(1.0j, abs=1e-15)


def test_free_t1_mean_and_width_rate():
    _, p = packet_at(FREE, InitialPacket(0.0, 1.0, 1.0), 1.0)
    assert p.mean_x == pytest.approx(1.0, abs=1e-12)
    # lambda'/lambda = i/(1+i) = (1+i)/2
    assert p.y_complex == pytest.approx(0.5 + 0.5j, abs=1e-12)


def test_ho_half_period_reflection():
    """eta = sin(t) for x0=0, v0=1: the mean returns to 0 at t=pi."""
    _, p = packet_at(HO, InitialPacket(0.0, 1.0, 1.0), math.pi)
    assert p.mean_x == pytest.approx(0.0, abs=1e-10)
    assert p.mean_p == pytest.approx(-1.0, abs=1e-10)


def test_gaussian_peak_value_at_t0():
    var_x0 = 0.5
    _, p = packet_at(FREE, InitialPacket(0.0, 1.0, 1.0), 0.0)
    grid = evaluate_wavefunction(p, centered_grid(0.0, math.sqrt(var_x0)))
    peak = np.abs(grid.values).max() ** 2
    assert peak == pytest.approx((2.0 * math.pi * var_x0) ** -0.5, rel=1e-12)


def test_free_t1_density_peak_and_variance():
    _, p = packet_at(FREE, InitialPacket(0.0, 1.0, 1.0), 1.0)
    grid = evaluate_wavefunction(p, centered_grid(1.0, 1.0))
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
    traj, p = packet_at(system, packet, t)
    sigma = math.sqrt(moments_from_lambda(traj[-1], C).var_x)
    grid = evaluate_wavefunction(p, centered_grid(p.mean_x, sigma))
    assert abs(grid.norm() ** 2 - 1.0) <= 1e-6
    assert grid.warnings == ()


def test_narrow_grid_gets_coverage_warning():
    _, p = packet_at(FREE, InitialPacket(0.0, 1.0, 1.0), 0.0)
    grid = evaluate_wavefunction(p, centered_grid(0.0, math.sqrt(0.5), span=2.0))
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
    mean = [propagate_analytic(traj, i).mean_x for i in range(len(traj))]
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
    traj = solve_lambda(HO, InitialPacket(0.0, 1.0, 1.5), np.linspace(0.0, 5.0, 51))
    for i in range(len(traj)):
        p = propagate_analytic(traj, i)
        s = traj[i]
        assert abs(p.y_complex.imag - 1.0 / s.alpha ** 2) <= 1e-10


def test_packet_rejects_non_normalizable_width():
    with pytest.raises(ValidationError):
        GaussianPacket(t=0.0, mean_x=0.0, mean_p=0.0,
                       y_complex=0.5 - 0.1j, norm_phase=1.0 + 0.0j, constants=C)


def test_wavefunction_grid_validation():
    _, p = packet_at(FREE, InitialPacket(0.0, 1.0, 1.0), 0.0)
    with pytest.raises(ValidationError):
        evaluate_wavefunction(p, np.array([0.0]))
    with pytest.raises(ValidationError):
        evaluate_wavefunction(p, np.array([0.0, 1.0, 1.5]))
