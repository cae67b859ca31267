"""Hypothesis building blocks shared by the property tests."""

from hypothesis import strategies as st

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
    # knots past t_end, so that the last step's end, which rounding may put
    # just beyond t_end, is inside the table
    end = 1.05 * t_end + 0.01
    interior = sorted(draw(st.lists(st.floats(0.01, 0.99, **FINITE),
                                    unique=True, max_size=4)))
    times = [0.0, *(end * f for f in interior), end]
    return {"type": "tabulated", "points": [[t, draw(OMEGA)] for t in times]}
