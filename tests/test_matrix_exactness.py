"""The one TransformMatrix reproduces, bit for bit, the kernels and the
Wigner point map as they were computed from separate per-use types.

The references below keep that earlier code: the time-dependent kernel read
from its own (z_hat, z_hat_dot, u_hat, u_hat_dot, alpha0, direction) record
built from one sample of a trajectory, the time-independent kernel of an (a, b, c, d)
record (now kernel_td at m = alpha0 = 1, so its reference carries kernel_td's
prefactor), and the point map through the scaled column vector
(x'/alpha0, -alpha0*p'/m) and back.  The record's own Wronskian-within-1e-9
check is left out: it raised instead of evaluating and is not part of the
kernel's value.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from wavepacket.core import (Constants, ConstantOmega, Free, InitialPacket,
                             ModulatedOmega, RampOmega, SystemSpec, TabulatedOmega,
                             TransformMatrix)
from wavepacket.errors import ValidationError
from wavepacket.evolution import solve_lambda
from wavepacket.invariants import matrix_from_state
from wavepacket.kernels import kernel_td
from wavepacket.wigner import wigner_pointmap


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _TDKernelParams:
    z_hat: float
    z_hat_dot: float
    u_hat: float
    u_hat_dot: float
    alpha0: float
    direction: str = "forward"

    @classmethod
    def from_lambda_state(cls, state, alpha0, direction="forward"):
        return cls(z_hat=state.z_hat, z_hat_dot=state.z_hat_dot,
                   u_hat=state.u_hat, u_hat_dot=state.u_hat_dot,
                   alpha0=alpha0, direction=direction)


def _kernel_td_forward_reference(params, x, x_prime, constants):
    z, zd, u = params.z_hat, params.z_hat_dot, params.u_hat
    a0 = params.alpha0
    hbar, m = constants.hbar, constants.mass
    prefactor = cmath.sqrt(m / (2.0j * math.pi * hbar * a0 * z))
    xs = np.asarray(x_prime) / a0
    phase = (m / (2.0 * hbar * z)) * (
        zd * np.asarray(x) ** 2 - 2.0 * np.asarray(x) * xs + u * xs ** 2
    )
    return prefactor * np.exp(1j * phase)


def _kernel_td_reference(params, x, x_prime, constants):
    if params.direction == "forward":
        return _kernel_td_forward_reference(params, x, x_prime, constants)
    return np.conjugate(_kernel_td_forward_reference(params, x_prime, x, constants))


def _kernel_ti_reference(a, b, d, x, x_prime, constants):
    """The time-independent kernel, with kernel_td's prefactor at z = -b."""
    hbar = constants.hbar
    prefactor = cmath.sqrt(1.0 / (2.0j * math.pi * hbar * -b))
    phase = (-1.0 / (2.0 * hbar * b)) * (
        a * np.asarray(x) ** 2
        - 2.0 * np.asarray(x) * np.asarray(x_prime)
        + d * np.asarray(x_prime) ** 2
    )
    return prefactor * np.exp(1j * phase)


@dataclass(frozen=True)
class _ScaledPhasePoint:
    xi: float
    pi: float
    alpha0: float
    mass: float

    def physical(self):
        return self.alpha0 * self.xi, -(self.mass / self.alpha0) * self.pi


def _scaled_pointmap_reference(state, alpha0, x, p, constants):
    """The matrix ((zd, -z), (-ud, u)) applied to (x, p/m), second row negated."""
    m11, m12, m21, m22 = state.z_hat_dot, -state.z_hat, -state.u_hat_dot, state.u_hat
    mm = constants.mass
    xi = m11 * x + m12 * (p / mm)
    pi = -(m21 * x + m22 * (p / mm))
    return _ScaledPhasePoint(xi=xi, pi=pi, alpha0=alpha0, mass=mm)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_finite = dict(allow_nan=False, allow_infinity=False)
_omega = st.floats(0.0, 2.0, **_finite)
T_MAX = 4.0


@st.composite
def _tabulated(draw):
    interior = sorted(draw(st.lists(st.floats(0.01, T_MAX - 0.01, **_finite),
                                    unique=True, max_size=4)))
    times = (0.0, *interior, T_MAX)
    return TabulatedOmega(times, tuple(draw(_omega) for _ in times))


_law = st.one_of(
    st.just(Free()),
    st.builds(ConstantOmega, _omega),
    st.builds(RampOmega, st.floats(0.0, 1.5, **_finite), st.floats(-0.25, 0.25, **_finite)),
    st.builds(ModulatedOmega, _omega, st.floats(-0.3, 0.3, **_finite),
              st.floats(0.0, 4.0, **_finite)),
    _tabulated(),
)
_constants = st.builds(Constants, st.floats(0.3, 3.0, **_finite),
                       st.floats(0.3, 3.0, **_finite))
_packet = st.builds(InitialPacket, st.floats(-2.0, 2.0, **_finite),
                    st.floats(-2.0, 2.0, **_finite), st.floats(0.5, 2.0, **_finite))
_points = st.lists(st.floats(-6.0, 6.0, **_finite), min_size=1, max_size=6)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(law=_law, constants=_constants, packet=_packet,
       t=st.floats(0.05, T_MAX, **_finite), inverse=st.booleans(),
       xs=_points, xps=_points)
def test_td_kernel_and_pointmap_equal_references(law, constants, packet, t, inverse,
                                                 xs, xps):
    state = solve_lambda(SystemSpec(constants, law), packet, [0.0, t])[1]
    assume(abs(state.z_hat) > 1e-8)
    matrix = matrix_from_state(state, packet.alpha0)
    params = _TDKernelParams.from_lambda_state(
        state, packet.alpha0, "inverse" if inverse else "forward")

    x = np.array(xs)[:, None]
    xp = np.array(xps)[None, :]
    kernel = kernel_td(matrix, constants, inverse=inverse)
    got = kernel(x, xp)
    assert np.array_equal(got, _kernel_td_reference(params, x, xp, constants))
    # scalar arguments take numpy's scalar arithmetic, not its array loops
    got = kernel(xs[0], xps[0])
    assert np.array_equal(got, _kernel_td_reference(params, xs[0], xps[0], constants))

    X, P = np.array(xs)[:, None], np.array(xps)[None, :]
    if abs(matrix.det - 1.0) > 1e-9:
        with pytest.raises(ValidationError):
            wigner_pointmap(lambda x0, p0: (x0, p0), matrix, X, P, constants)
        return
    x0, p0 = wigner_pointmap(lambda x0, p0: (x0, p0), matrix, X, P, constants)
    ref_x0, ref_p0 = _scaled_pointmap_reference(state, packet.alpha0, X, P,
                                                constants).physical()
    assert np.array_equal(x0, ref_x0) and np.array_equal(p0, ref_p0)


_entry = st.floats(-3.0, 3.0, **_finite)
_b = st.floats(1e-3, 5.0, **_finite).flatmap(lambda b: st.sampled_from((b, -b)))


@settings(max_examples=200, deadline=None)
@given(a=_entry, b=_b, d=_entry, constants=_constants, xs=_points, xps=_points)
def test_ti_kernel_equals_reference(a, b, d, constants, xs, xps):
    matrix = TransformMatrix(a, b, (a * d - 1.0) / b, d)
    x = np.array(xs)[:, None]
    xp = np.array(xps)[None, :]
    # the paper's time-independent kernel is kernel_td at m = alpha0 = 1
    kernel = kernel_td(matrix, Constants(constants.hbar, 1.0))
    assert np.array_equal(kernel(x, xp),
                          _kernel_ti_reference(a, b, d, x, xp, constants))
    assert np.array_equal(kernel(xs[0], xps[0]),
                          _kernel_ti_reference(a, b, d, xs[0], xps[0], constants))
