"""The block writer of .dat rows against per-value '%.17e' formatting.

write_rows must give, for every finite float64, the bytes of
" ".join("%.17e" % v for v in row) + "\\n"; tests/scalar_reference.py keeps
the row-template writer it replaced, whose files the runner's must equal.
"""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavepacket.cli import BUILTIN_SCENARIOS, emit_outputs, parse_config, run_scenario
from wavepacket.rowformat import BLOCK_VALUES, write_rows

import scalar_reference
from strategies import FINITE

_POWERS = np.array([float(f"1e{k}") for k in range(-323, 309)])
POWERS_OF_TEN = np.concatenate([_POWERS, np.nextafter(_POWERS, np.inf),
                                np.nextafter(_POWERS, -np.inf)])
EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                  1.7976931348623157e308, -1.7976931348623157e308])


def reference(values):
    return b"".join((" ".join("%.17e" % v for v in row) + "\n").encode()
                    for row in values.tolist())


def written(values):
    out = io.BytesIO()
    write_rows(out, values)
    return out.getvalue()


def _bit_patterns(rng, size):
    """Random doubles of both signs, non-finite exponents moved to finite."""
    bits = rng.integers(0, 2 ** 64, size=size, dtype=np.uint64)
    top = (bits >> np.uint64(52)) & np.uint64(0x7FF) == 0x7FF
    bits[top] ^= np.uint64(1 << 52)
    return bits.view(np.float64)


def _subnormals(rng, size):
    bits = rng.integers(0, 2 ** 52, size=size, dtype=np.uint64)
    bits |= rng.integers(0, 2, size=size, dtype=np.uint64) << np.uint64(63)
    return bits.view(np.float64)


def _nineteenth_digit_five(rng, size):
    """float() of 19-digit decimals ending in 5, and their neighbours."""
    digits = rng.integers(10 ** 17, 10 ** 18, size=size).tolist()
    exponents = rng.integers(-324, 308, size=size).tolist()
    values = np.array([float(f"{d // 10 ** 17}.{d % 10 ** 17:017d}5e{x}")
                       for d, x in zip(digits, exponents)])
    return np.concatenate([values, np.nextafter(values, np.inf),
                           np.nextafter(values, -np.inf)])


def _exact_ties(rng, size):
    """m * 2**-k with m odd and m * 5**k of 19 digits: exactly halfway
    between two 18-digit decimals."""
    k = rng.integers(3, 27, size=size)
    low = 10 ** 18 // 5 ** k + 1
    high = np.minimum(10 * (low - 1), 2 ** 53)
    m = (low + (rng.random(size) * (high - low)).astype(np.int64)) | 1
    return np.ldexp(m.astype(np.float64), -k) * rng.choice((-1.0, 1.0), size)


SOURCES = {
    "bit patterns": _bit_patterns,
    "subnormals": _subnormals,
    "powers of ten": lambda rng, size: rng.choice(POWERS_OF_TEN, size)
    * rng.choice((-1.0, 1.0), size),
    "edges": lambda rng, size: rng.choice(EDGES, size),
    "19th digit 5": lambda rng, size: rng.choice(_nineteenth_digit_five(rng, 100), size),
    "exact ties": _exact_ties,
}


@st.composite
def _grids(draw):
    width = draw(st.integers(1, 300))
    block_rows = max(1, BLOCK_VALUES // width)
    rows = draw(st.integers(1, 2 * block_rows + 1))
    sources = draw(st.lists(st.sampled_from(sorted(SOURCES)), min_size=1, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = rows * width
    pool = np.stack([SOURCES[name](rng, size) for name in sources])
    values = pool[rng.integers(len(sources), size=size), np.arange(size)]
    for value in draw(st.lists(st.floats(**FINITE), max_size=8)):
        values[rng.integers(size)] = value
    return values.reshape(rows, width)


@settings(max_examples=200, deadline=None)
@given(values=_grids())
def test_rows_equal_per_value_format(values):
    assert written(values) == reference(values)


@pytest.mark.parametrize("shape", [(1, -1), (-1, 1)])
def test_every_power_of_ten_and_edge(shape):
    values = np.concatenate([POWERS_OF_TEN, -POWERS_OF_TEN, EDGES]).reshape(shape)
    assert written(values) == reference(values)


@pytest.mark.parametrize("name", ["free-spread", "ho-breathing"])
def test_builtin_dat_files_equal_row_template_writer(tmp_path, name):
    config = parse_config(dict(BUILTIN_SCENARIOS[name], tasks=["wigner"]), name=name)
    report, grids = run_scenario(config)
    emit_outputs(report, grids, tmp_path / "run")
    assert len(grids) == 2
    for entry in grids:
        filename = f"wigner_t{entry['index']}.dat"
        scalar_reference.write_wigner_dat(tmp_path / filename, entry)
        assert (tmp_path / "run" / filename).read_bytes() == \
            (tmp_path / filename).read_bytes()


class _Discard:
    def __init__(self):
        self.size = 0

    def write(self, data):
        self.size += len(data)


def _peak_above_grid(n_p, n_x):
    """Peak traced memory of writing an n_p x n_x column window, the kind of
    view the runner writes, above the grid itself; and the bytes written."""
    values = (np.random.default_rng(3).normal(size=(n_p, n_x + 2)) * 1e-3)[:, 1:-1]
    sink = _Discard()
    tracemalloc.start()
    try:
        write_rows(sink, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sink.size


def test_writing_a_large_grid_needs_no_more_memory_than_a_small_one():
    write_rows(_Discard(), np.ones((1, 1)))  # the table of powers of ten
    small, _ = _peak_above_grid(257, 256)
    large, size = _peak_above_grid(2049, 2048)
    assert size > 2049 * 2048 * 24
    assert large <= 4 * 2 ** 20
    # both go through blocks of the same size; only a few hundred bytes of
    # Python objects differ
    assert large <= small + 4096
