"""Tests for constants, frequency laws, and packet validation."""

import math
import random

import pytest

from wavepacket.core import (Constants, ConstantOmega, Free, InitialPacket,
                             ModulatedOmega, RampOmega, SystemSpec, TabulatedOmega,
                             omega_at)
from wavepacket.errors import ValidationError


def validate_packet(packet, constants):
    """The initial second moments (<x~^2>_0, <p~^2>_0) =
    (hbar*alpha0^2/(2m), hbar*m/(2*alpha0^2)) of a packet."""
    hbar, m = constants.hbar, constants.mass
    a2 = packet.alpha0 * packet.alpha0
    return hbar * a2 / (2.0 * m), hbar * m / (2.0 * a2)


def test_omega_free_is_zero():
    system = SystemSpec(Constants(), Free())
    assert omega_at(system, 5.0) == 0.0


def test_omega_constant_law():
    system = SystemSpec(Constants(), ConstantOmega(2.0))
    assert omega_at(system, 1.0) == 2.0


def test_omega_tabulated_midpoint():
    system = SystemSpec(Constants(), TabulatedOmega((0.0, 2.0), (1.0, 3.0)))
    assert omega_at(system, 1.0) == pytest.approx(2.0, abs=0.0)


def test_omega_tabulated_out_of_range():
    system = SystemSpec(Constants(), TabulatedOmega((0.0, 2.0), (1.0, 3.0)))
    with pytest.raises(ValidationError):
        omega_at(system, 2.5)
    with pytest.raises(ValidationError):
        omega_at(system, -0.1)
    law = system.frequency_law
    for t in (math.nextafter(0.0, -math.inf), math.nextafter(2.0, math.inf),
              -math.inf, math.inf, math.nan):
        with pytest.raises(ValidationError, match="outside tabulated range"):
            law.omega(t)


def _scan_omega(law, t):
    """Reference: segment i is the first with t <= times[i + 1], found by a linear scan."""
    times, omegas = law.times, law.omegas
    for i in range(len(times) - 1):
        if t <= times[i + 1]:
            span = times[i + 1] - times[i]
            frac = (t - times[i]) / span
            return omegas[i] + frac * (omegas[i + 1] - omegas[i])
    raise AssertionError("t beyond the table")


def test_omega_tabulated_bisect_matches_scan():
    """Same segment (the first i with t <= times[i+1]), so the same value."""
    rng = random.Random(20261018)
    times = (0.0, 0.3, 1.0, 1.1, 2.5, 4.0, 4.0000001, 7.25, 10.0)
    law = TabulatedOmega(times, tuple(rng.uniform(0.0, 3.0) for _ in times))
    points = list(times)
    points += [0.5 * (a + b) for a, b in zip(times, times[1:])]
    points += [math.nextafter(times[0], math.inf), math.nextafter(times[-1], -math.inf)]
    points += [rng.uniform(times[0], times[-1]) for _ in range(1000)]
    for t in points:
        assert law.omega(t) == _scan_omega(law, t)


def test_free_equals_constant_zero():
    free = SystemSpec(Constants(), Free())
    const0 = SystemSpec(Constants(), ConstantOmega(0.0))
    for t in (0.0, 0.7, 3.0):
        assert omega_at(free, t) == omega_at(const0, t)


@pytest.mark.parametrize("law, lipschitz", [
    (Free(), 0.0),
    (ConstantOmega(1.5), 0.0),
    (RampOmega(1.0, 0.25), 0.25),
    (ModulatedOmega(1.0, 0.2, 2.0), 0.4),
    (TabulatedOmega((0.0, 1.0, 2.0, 5.0), (1.0, 2.0, 1.5, 1.5)), 1.0),
])
def test_omega_continuity(law, lipschitz):
    """Dense sampling: |w(t+d) - w(t)| <= L*d (small slack for curvature)."""
    system = SystemSpec(Constants(), law)
    delta = 1e-4
    t = 0.0
    while t < 4.9:
        step = abs(omega_at(system, t + delta) - omega_at(system, t))
        assert step <= (lipschitz + 0.1) * delta
        t += 0.05


def test_validate_packet_unit():
    assert validate_packet(InitialPacket(0.0, 0.0, 1.0), Constants()) == (0.5, 0.5)


def test_validate_packet_wide():
    var_x0, var_p0 = validate_packet(InitialPacket(0.0, 0.0, 2.0), Constants())
    assert var_x0 == pytest.approx(2.0, rel=1e-15)
    assert var_p0 == pytest.approx(0.125, rel=1e-15)


def test_validate_packet_ho_ground_width():
    # alpha0 = 1/sqrt(omega) is the constant-width oscillator branch
    omega = 4.0
    var_x0, var_p0 = validate_packet(
        InitialPacket(0.0, 0.0, 1.0 / math.sqrt(omega)), Constants())
    assert var_x0 == pytest.approx(0.125, rel=1e-15)
    assert var_p0 == pytest.approx(2.0, rel=1e-15)


@pytest.mark.parametrize("alpha0", [0.1, 0.5, 1.0, 1.7, 3.0, 10.0])
@pytest.mark.parametrize("hbar, mass", [(1.0, 1.0), (0.5, 2.0), (3.0, 0.25)])
def test_minimum_uncertainty_product(alpha0, hbar, mass):
    c = Constants(hbar=hbar, mass=mass)
    var_x0, var_p0 = validate_packet(InitialPacket(0.0, 0.0, alpha0), c)
    expected = 0.25 * hbar * hbar
    assert abs(var_x0 * var_p0 - expected) <= 1e-14 * expected


def test_constants_reject_nonpositive():
    with pytest.raises(ValidationError):
        Constants(hbar=0.0)
    with pytest.raises(ValidationError):
        Constants(mass=-1.0)
    with pytest.raises(ValidationError):
        Constants(hbar=math.inf)


def test_packet_rejects_bad_alpha0():
    with pytest.raises(ValidationError):
        InitialPacket(0.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        InitialPacket(0.0, 0.0, -2.0)
    with pytest.raises(ValidationError):
        InitialPacket(math.nan, 0.0, 1.0)


def test_constant_omega_rejects_negative():
    with pytest.raises(ValidationError):
        ConstantOmega(-1.0)


def test_tabulated_rejects_non_increasing():
    with pytest.raises(ValidationError):
        TabulatedOmega((0.0, 0.0), (1.0, 2.0))
    with pytest.raises(ValidationError):
        TabulatedOmega((1.0,), (2.0,))
    with pytest.raises(ValidationError):
        TabulatedOmega((0.0, 1.0), (1.0, math.inf))
