"""Hypothesis building blocks shared by the property tests."""

import math

from hypothesis import strategies as st

from wavepacket.cli import TASKS

FINITE = dict(allow_nan=False, allow_infinity=False)
OMEGA = st.floats(0.0, 3.0, **FINITE)


def law(draw, t_end):
    """A config's "system" entry: one of the five law types, drawn with
    ``draw``; a tabulated law covers [0, t_end]."""
    kind = draw(st.sampled_from(("free", "constant", "ramp", "modulated", "tabulated")))
    if kind == "free":
        return {"type": "free"}
    if kind == "constant":
        return {"type": "constant", "omega": draw(st.one_of(st.just(0.0), OMEGA))}
    if kind == "ramp":
        return {"type": "ramp", "omega0": draw(OMEGA),
                "slope": draw(st.floats(-0.5, 0.5, **FINITE))}
    if kind == "modulated":
        return {"type": "modulated", "omega0": draw(OMEGA),
                "epsilon": draw(st.floats(-0.5, 0.5, **FINITE)),
                "gamma": draw(st.floats(0.0, 5.0, **FINITE))}
    # the last knot at t_end, which the run's time grid may round past, or
    # beyond it
    end = draw(st.sampled_from((t_end, 1.05 * t_end + 0.01)))
    interior = draw(st.lists(st.floats(0.01, 0.99, **FINITE), unique=True, max_size=4))
    # distinct fractions can round to the same time: the knots must increase
    times = [0.0, *sorted({end * f for f in interior}), end]
    return {"type": "tabulated", "points": [[t, draw(OMEGA)] for t in times]}


def log_uniform(lo, hi):
    """Floats whose log10 is uniform over [log10(lo), log10(hi)]."""
    return st.floats(math.log10(lo), math.log10(hi), **FINITE).map(lambda e: 10.0 ** e)


@st.composite
def valid_configs(draw):
    """Configs that parse_config accepts, over all five law types, hbar and m
    over 16 decades, alpha0 over 6 and |p0| up to 1e6, grids of 64-256
    points that may be too coarse for the packet or cut into it, short runs
    with dt from 1e-4 and 1-100 steps per sample, and the invariants task
    with any subset of the others."""
    dt = draw(st.one_of(st.sampled_from((1e-4, 1e-3)), st.floats(1e-4, 0.02, **FINITE)))
    sample_every = draw(st.integers(1, 100))
    # at most 800 steps, with 1 to 100 in the first sample interval, which
    # the invariants task solves again at 2*dt
    t_end = draw(st.integers(1, max(1, 800 // sample_every))) * dt * sample_every
    half_width = draw(st.floats(1.0, 20.0, **FINITE))
    centre = draw(st.floats(-5.0, 5.0, **FINITE))
    return {
        "constants": {"hbar": draw(log_uniform(1e-8, 1e8)),
                      "mass": draw(log_uniform(1e-8, 1e8))},
        "system": law(draw, t_end),
        "packet": {"x0": draw(st.one_of(st.just(0.0), st.floats(-4.0, 4.0, **FINITE))),
                   "p0": draw(st.one_of(st.just(0.0), st.floats(-4.0, 4.0, **FINITE),
                                        st.builds(math.copysign, log_uniform(1e-3, 1e6),
                                                  st.sampled_from((1.0, -1.0))))),
                   "alpha0": draw(log_uniform(1e-3, 1e3))},
        "time": {"t_end": t_end, "dt": dt, "sample_every": sample_every},
        "grid": {"x_min": centre - half_width, "x_max": centre + half_width,
                 "n_points": draw(st.sampled_from((64, 128, 256)))},
        "phase_space_grid": {"nx": draw(st.integers(16, 48)),
                             "np": draw(st.integers(16, 48)),
                             "span_sigmas": draw(st.floats(2.0, 10.0, **FINITE))},
        "tasks": ["invariants"] + draw(st.lists(
            st.sampled_from([t for t in TASKS if t != "invariants"]), unique=True)),
    }
