"""Rows of numbers written a block at a time: the Wigner .dat rows in
'%.17e' form, formatted with numpy, and the sample records of
trajectory.csv and report.json in repr form, formatted once per value.

write_records(fh, header, reprs) and write_report(fh, report, sample_reprs)
take the samples as columns of strings; see their docstrings.

write_rows(fh, values) writes each row of a 2-D float64 array as the bytes
of " ".join("%.17e" % v for v in row) + "\\n": an optional '-' (also for
-0.0), 18 significant digits as d.ddddddddddddddddd, and an exponent e+XX,
or e+XXX from 100 on, for every finite value.

The 18 digits are N = round(|v| * 10**(17 - e)), e = floor(log10|v|).  With
v = f * 2**x from np.frexp and 10**(17 - e) = (M_hi + M_lo) * 2**g, exact
to about 2**-106 and built once from Python ints, the product is formed as
a double-double (hi, lo): f * M_hi exactly by Dekker's two-product with
Veltkamp splits (Numer. Math. 18, 224 (1971)), plus f * M_lo.  Its error is
below 1e-13 of a unit of N.  log10 misjudges e by one near powers of ten;
those values are redone with the neighbouring e.  N rounds on lo, and
10**18 carries to the next exponent.  A value whose remainder lies within
1e-6 of one half, every exact tie among them, is formatted alone with
'%.17e', which breaks exact ties as CPython does.

The digits go into a fixed-width slot of bytes per value, four at a time
from a table of "0000".."9999" viewed as uint32 and two at a time from one
of "00".."99" viewed as uint16; a boolean mask then drops the unused sign
and hundreds bytes and the padding, and each block is written at once.
A block is BLOCK_VALUES values in whole rows (one row if it is wider), so
the working memory does not grow with the number of rows.
"""

import functools
import json

import numpy as np

BLOCK_VALUES = 4096
RECORDS_PER_PIECE = 256

# one value's slot: sign, d0, '.', d1, d2..d17 as four groups of four, 'e',
# exponent sign, hundreds digit, padding, tens and units, separator, padding
_SLOT = 28
_SIGN, _LEAD, _FIRST, _ESIGN, _HUNDREDS, _SEP = 0, 1, 3, 21, 22, 26
_TEMPLATE = np.frombuffer(b"-0." + b"0" * 17 + b"e+0\x0000 \x00", dtype=np.uint8)
_KEEP = _TEMPLATE != 0

_E_MIN, _E_MAX = -324, 308  # the decimal exponents of nonzero finite doubles
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's constant for 53-bit doubles
_TIE_WINDOW = 1e-6


@functools.cache
def _digit_tables():
    """"00".."99" viewed as uint16 and "0000".."9999" viewed as uint32."""
    pairs = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), dtype=np.uint16)
    quads = np.empty((100, 100, 2), dtype=np.uint16)
    quads[:, :, 0] = pairs[:, None]
    quads[:, :, 1] = pairs
    return pairs, quads.view(np.uint32).ravel()


@functools.cache
def _powers():
    """For e from _E_MIN to _E_MAX, 10**(17 - e) = (M_hi + M_lo) * 2**g with
    M in [1, 2): rows M_hi's two 26-bit halves and M_lo, and the g."""
    exponents = range(_E_MIN, _E_MAX + 1)
    rows = np.empty((3, len(exponents)))
    shifts = np.empty(len(exponents), dtype=np.int32)
    for j, e in enumerate(exponents):
        k = 17 - e
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        g = num.bit_length() - den.bit_length()
        if num << max(-g, 0) < den << max(g, 0):
            g -= 1
        if g >= 0:
            den <<= g
        else:
            num <<= -g
        hi = num / den  # int / int is correctly rounded
        n, d = hi.as_integer_ratio()
        t = _SPLIT * hi
        hi_a = t - (t - hi)
        rows[:, j] = hi_a, hi - hi_a, (num * d - n * den) / (den * d)
        shifts[j] = g
    return rows, shifts


def _scaled(f, x, e):
    """|v| * 10**(17 - e) for |v| = f * 2**x, as a normalized (hi, lo)."""
    rows, shifts = _powers()
    i = e - _E_MIN
    hi_a, hi_b, lo = rows.take(i, axis=1)
    t = _SPLIT * f
    f_a = t - (t - f)
    f_b = f - f_a
    p = f * (hi_a + hi_b)
    err = ((f_a * hi_a - p) + f_a * hi_b + f_b * hi_a) + f_b * hi_b
    err += f * lo
    s = p + err
    err -= s - p
    # the scaled values lie near 1e17, so the scaling is exact
    shift = x + shifts.take(i)
    return np.ldexp(s, shift), np.ldexp(err, shift)


def _mantissas(v):
    """(N, e) with v = N * 10**(e - 17) rounded to 18 digits; N is 0 for 0."""
    a = np.abs(v)
    zero = a == 0.0
    a[zero] = 1.0
    f, x = np.frexp(a)
    e = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(f, x, e)
    big = (hi > 1e18) | ((hi == 1e18) & (lo >= 0.0))
    small = (hi < 1e17) | ((hi == 1e17) & (lo < 0.0))
    i = np.flatnonzero(big | small)
    if len(i):
        e[i] += np.where(big[i], 1, -1)
        hi[i], lo[i] = _scaled(f[i], x[i], e[i])
    floor = np.floor(lo)
    rest = lo - floor
    n = hi.astype(np.int64) + floor.astype(np.int64) + (rest > 0.5)
    for i in np.flatnonzero(np.abs(rest - 0.5) < _TIE_WINDOW).tolist():
        digits, _, exponent = ("%.17e" % abs(float(v[i]))).partition("e")
        n[i] = int(digits.replace(".", ""))
        e[i] = int(exponent)
    carry = n == 10 ** 18
    n[carry] = 10 ** 17
    e[carry] += 1
    n[zero] = 0
    e[zero] = 0
    return n, e


def _format_block(values):
    """The bytes of the rows of a 2-D block."""
    rows, width = values.shape
    v = values.ravel()
    n, e = _mantissas(v)
    pairs, quads_table = _digit_tables()
    buf = np.empty((rows * width, _SLOT), dtype=np.uint8)
    buf[:] = _TEMPLATE
    lead, n = np.divmod(n, 10 ** 16)
    lead = pairs.view(np.uint8).reshape(100, 2).take(lead, axis=0)
    buf[:, _LEAD] = lead[:, 0]
    buf[:, _FIRST] = lead[:, 1]
    # the other 16 digits as four groups of four, most significant first
    quads = np.empty((4, len(v)), dtype=np.intp)
    quads[0], quads[2] = np.divmod(n, 10 ** 8)
    np.divmod(quads[0::2], 10 ** 4, out=(quads[0::2], quads[1::2]))
    buf.view(np.uint32)[:, 1:5] = quads_table.take(quads).T  # bytes 4..19
    buf[:, _ESIGN] = np.where(e < 0, ord("-"), ord("+"))
    e = np.abs(e)
    hundreds, e = np.divmod(e, 100)
    buf[:, _HUNDREDS] += hundreds.astype(np.uint8)
    buf.view(np.uint16)[:, 12] = pairs.take(e)  # bytes 24 and 25
    buf.reshape(rows, width, _SLOT)[:, -1, _SEP] = ord("\n")
    keep = np.empty_like(buf, dtype=bool)
    keep[:] = _KEEP
    keep[:, _SIGN] = np.signbit(v)
    keep[:, _HUNDREDS] = hundreds > 0
    return buf[keep]


def write_rows(fh, values):
    """Write the rows of a 2-D array of finite floats to the binary file fh,
    each value as '%.17e', one space between values and LF after each row."""
    values = np.asarray(values, dtype=np.float64)
    step = max(1, BLOCK_VALUES // values.shape[1])
    for start in range(0, values.shape[0], step):
        fh.write(_format_block(values[start:start + step]))


def _pieces(template, reprs, sep=""):
    """template % row for each row of the columns `reprs`, joined by sep,
    in strings of RECORDS_PER_PIECE rows each."""
    n = len(reprs[0]) if reprs else 0
    for lo in range(0, n, RECORDS_PER_PIECE):
        rows = zip(*(column[lo:lo + RECORDS_PER_PIECE] for column in reprs))
        yield sep.join(template % row for row in rows)


def write_records(fh, header, reprs):
    """Write the text file fh: the header line, then one line per row of
    the columns `reprs` (lists of strings), its values joined by commas."""
    fh.write(header + "\n")
    template = ",".join(["%s"] * len(reprs)) + "\n"
    for piece in _pieces(template, reprs):
        fh.write(piece)


def write_report(fh, report, sample_reprs):
    """Write to the text file fh the bytes of json.dumps(report, indent=2)
    and a newline, where report["samples"], when present, stands for the
    list of one {name: value} record per sample, and sample_reprs holds
    those values as columns, {name: [repr of each value]}; for a finite
    float, repr is the form json.dumps writes.

    Every other top-level value is json.dumps(value, indent=2) with its
    lines indented by two more spaces, as the one-shot encoder nests it
    (a JSON string holds no raw newline); each record is one template of
    the field names with a slot per value.
    """
    fh.write("{")
    for j, (key, value) in enumerate(report.items()):
        fh.write(("," if j else "") + "\n  " + json.dumps(key) + ": ")
        if key != "samples":
            fh.write(json.dumps(value, indent=2).replace("\n", "\n  "))
            continue
        sep = ",\n    "
        template = "{" + ",".join(
            f"\n      {json.dumps(name)}: %s" for name in sample_reprs) + "\n    }"
        opening = "[\n    "
        for piece in _pieces(template, list(sample_reprs.values()), sep):
            fh.write(opening + piece)
            opening = sep
        fh.write("[]" if opening != sep else "\n  ]")
    fh.write("\n}\n" if report else "}\n")
