"""Flat text serialization for fields and reports.

Field layout: a CSV header naming (dimension, points_per_axis, box_length),
one row with their values, then one grid value per line in row-major order.
Each value line is 25 bytes, Python's ``'%+.16e' % v`` with the exponent
zero-padded to three digits (``+1.2345678901234567e-005``): 17 correctly
rounded significant digits, so every finite double round-trips bit-exactly,
identical runs produce identical bytes, and any float parser reads the file.
numpy writes and reads that layout a chunk at a time.  The writer scales
each value by a power of ten in double-double arithmetic (Dekker's exact
product) and leaves to Python only the rows whose scaled fraction lies
within 1e-6 of a half, and the nonzero ones outside [1e-280, 1e280].  The
reader decodes the digits and rounds D * 10**K through the same product,
leaving to float() the rows near a midpoint between doubles (Clinger,
PLDI 1990; Lemire, Softw. Pract. Exp. 51, 2021).
A body that is not in that layout, such as the %.17g lines of older files,
is read by np.loadtxt.  Reports keep fmt's %.17g text.
"""

from __future__ import annotations

import functools
import json
import os
import warnings
from pathlib import Path

import numpy as np

from .grids import Field, make_grid

FLOAT_FMT = ".17g"
_LINE = 25  # bytes per field value
# values per encode or decode; 2**13 of them keep every temporary in the
# L2 cache, and decoding a chunk, not the whole body, keeps the peak RSS
_CHUNK = 1 << 13
_TEMPLATE = np.frombuffer(b"+0.0000000000000000e+000\n", np.uint8)
# the largest byte - _TEMPLATE per column: a sign is '+' or '-' (',' lies
# between them and is rejected apart), a digit '0' to '9', the rest fixed
_SPAN = np.frombuffer(bytes([2, 9, 0, *[9] * 16, 0, 2, 9, 9, 9, 0]), np.uint8)
_POW10_MIN, _POW10_MAX = -300, 300
# numpy codes values of 10**-280 to 10**280, whose scaled values, table
# entries and Dekker partial products are normal doubles (the reader's few
# subnormal remainders, of 10**-292 and below, err far inside the midpoint
# band); Python formats or parses the rows outside that range
_FAST_EXPONENT = 280
_VELTKAMP = 134217729.0  # 2**27 + 1, splits a double into two 26-bit halves
# a decoded row whose error bound of |y| * 2**-70 could cross a rounding
# midpoint goes to float(); the double-double error is below |y| * 2**-85
_MIDPOINT_BAND = 2.0**-70
# the place value of each digit in columns 1 to 18 and 21 to 23 of a line
_DIGIT_WEIGHTS = np.array([10**16, 0, *(10**k for k in range(15, -1, -1))], np.int64)
_EXPONENT_WEIGHTS = np.array([100, 10, 1], np.int64)


def fmt(x):
    """Render a number with 17 significant digits (stable across runs)."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), FLOAT_FMT)


@functools.cache
def _pow10_table():
    """10**k as double-double pairs (hi, lo) for _POW10_MIN <= k <= _POW10_MAX,
    each hi the correctly rounded double and lo the rounded remainder; Python's
    int division is correctly rounded, so integers alone build it."""
    hi = np.empty(_POW10_MAX - _POW10_MIN + 1)
    lo = np.empty_like(hi)
    for i, k in enumerate(range(_POW10_MIN, _POW10_MAX + 1)):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi[i] = num / den
        h_num, h_den = hi[i].as_integer_ratio()
        lo[i] = (num * h_den - h_num * den) / (den * h_den)
    return hi, lo


@functools.cache
def _four_digits():
    """The ASCII text of 0000 to 9999, one little-endian uint32 each."""
    n = np.arange(10000)
    digits = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1) + ord("0")
    return digits.astype(np.uint8).view("<u4").ravel()


def _split(a):
    c = _VELTKAMP * a
    high = c - (c - a)
    return high, a - high


def _times_pow10(xh, xl, k):
    """(xh + xl) * 10**k as an unevaluated sum p + t, p = fl(xh * 10**k)."""
    hi, lo = _pow10_table()
    h, l = hi[k - _POW10_MIN], lo[k - _POW10_MIN]
    p = xh * h
    (ah, al), (bh, bl) = _split(xh), _split(h)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl  # exactly xh*h - p
    return p, err + (xh * l + xl * h)


def _python_line(v):
    """One finite value's line, without its newline, from Python's formatter."""
    mantissa, exponent = ("%+.16e" % v).split("e")
    return f"{mantissa}e{exponent[0]}{exponent[1:]:0>3}"


def _digits(a, e):
    """The integer D nearest a * 10**(16 - e), and the scaled value minus D."""
    p, t = _times_pow10(a, 0.0, 16 - e)
    r = np.rint(t)
    # p >= 2**53 is an integer once e is right; a wrong e is caught by range
    return p.astype(np.int64) + r.astype(np.int64), t - r


def encode_values(values):
    """The field lines of a 1-D array of finite floats, as an (n, 25) uint8
    block."""
    n = values.size
    a = np.abs(values)
    fast = (a >= 10.0**-_FAST_EXPONENT) & (a <= 10.0**_FAST_EXPONENT)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    D, frac = _digits(a, e)
    # log10 may miss the exponent by one, and rounding may carry to 10**17
    up = D >= 10**17
    redo = np.flatnonzero(up | (D < 10**16) | ((D == 10**16) & (frac < 0)))
    if redo.size:
        e[redo] += np.where(up[redo], 1, -1)
        D[redo], frac[redo] = _digits(a[redo], e[redo])
    # Python takes near-ties, and values just below a power of ten whose
    # digits at the lower exponent carry to 10**17
    by_python = (np.abs(np.abs(frac) - 0.5) < 1e-6) | (D >= 10**17) | ~fast
    zero = values == 0
    by_python[zero] = False
    D[zero] = 0
    e[zero] = 0

    block = np.empty((n, _LINE), np.uint8)
    block[:] = _TEMPLATE
    block[np.signbit(values), 0] = ord("-")
    lead, rest = np.divmod(D, 10**16)
    block[:, 1] += lead.astype(np.uint8)
    high, low = np.divmod(rest, 10**8)
    groups = np.empty((n, 4), np.int64)
    groups[:, 0], groups[:, 1] = np.divmod(high, 10**4)
    groups[:, 2], groups[:, 3] = np.divmod(low, 10**4)
    four = _four_digits()
    block[:, 3:19] = four[groups].view(np.uint8).reshape(n, 16)
    block[e < 0, 20] = ord("-")
    block[:, 21:24] = four[np.abs(e)].view(np.uint8).reshape(n, 4)[:, 1:]
    for i in np.flatnonzero(by_python).tolist():
        block[i, :-1] = np.frombuffer(_python_line(float(values[i])).encode(), np.uint8)
    return block


def decode_values(block):
    """The values of an (m, 25) uint8 block of field lines, each exactly
    float() of its line, or None if a fixed column does not check out."""
    offset = block - _TEMPLATE
    if not (
        (offset <= _SPAN).all()
        and (block[:, 0] != ord(",")).all()
        and (block[:, 20] != ord(",")).all()
    ):
        return None
    # widened to int64 before any arithmetic, since numpy 1.x promotes a
    # uint8 array times a scalar by the scalar's value; the fixed columns'
    # offsets are 0, so their weights do not matter
    D = offset[:, 1:19].astype(np.int64) @ _DIGIT_WEIGHTS
    E = offset[:, 21:24].astype(np.int64) @ _EXPONENT_WEIGHTS
    E[block[:, 20] == ord("-")] *= -1
    fast = (D >= 10**16) & (np.abs(E) <= _FAST_EXPONENT)
    Dh = D.astype(float)
    p, t = _times_pow10(Dh, (D - Dh.astype(np.int64)).astype(float), np.where(fast, E - 16, 0))
    y = p + t
    band = _MIDPOINT_BAND * p
    near = (p + (t + band)) != (p + (t - band))
    zero = D == 0
    y[zero] = 0.0
    np.negative(y, out=y, where=block[:, 0] == ord("-"))
    for i in np.flatnonzero(~(fast | zero) | near).tolist():
        y[i] = float(block[i].tobytes())
    return y


def save_field(u, path):
    g = u.grid
    values = u.values.ravel(order="C")
    with open(path, "wb") as handle:
        handle.write(
            "dimension,points_per_axis,box_length\n"
            f"{g.dimension},{g.points_per_axis},{fmt(g.box_length)}\n".encode()
        )
        for start in range(0, values.size, _CHUNK):
            handle.write(encode_values(values[start : start + _CHUNK]))


def _read_lines(handle, count):
    """count values from the 25-byte lines of the rest of handle, or None
    if the body is not exactly count such lines."""
    if os.fstat(handle.fileno()).st_size - handle.tell() != count * _LINE:
        return None
    values = np.empty(count)
    buffer = np.empty(min(count, _CHUNK) * _LINE, np.uint8)
    for start in range(0, count, _CHUNK):
        m = min(_CHUNK, count - start)
        chunk = buffer[: m * _LINE]
        if handle.readinto(chunk) != chunk.size:
            return None
        decoded = decode_values(chunk.reshape(m, _LINE))
        if decoded is None:
            return None
        values[start : start + m] = decoded
    return values


def load_field(path):
    with open(path, "rb") as handle:
        header = handle.readline().decode().rstrip("\r\n").split(",")
        sizes = handle.readline().decode().split(",")
        if header != ["dimension", "points_per_axis", "box_length"] or len(sizes) != 3:
            raise ValueError(f"not a field file: {path}")
        grid = make_grid(int(sizes[0]), int(sizes[1]), float(sizes[2]))
        body = handle.tell()
        values = _read_lines(handle, grid.num_points)
        if values is None:
            # any other layout goes to numpy's parser, not one Python float
            # per value; blank lines are skipped, and an empty body is
            # reported as a wrong count below
            handle.seek(body)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                try:
                    values = np.loadtxt(handle, dtype=float, comments=None, ndmin=1)
                except ValueError as exc:
                    raise ValueError(f"bad value in {path}: {exc}") from exc
    if values.size != grid.num_points:
        raise ValueError(f"expected {grid.num_points} values, got {values.size}")
    return Field(grid, values.reshape(grid.shape))


def dump_json(obj, path):
    """Write JSON with every number formatted by fmt and non-finite floats
    as null."""

    def encode(o, indent=0):
        pad = "  " * indent
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = [
                f'{pad}  "{k}": {encode(v, indent + 1)}' for k, v in o.items()
            ]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            items = [f"{pad}  {encode(v, indent + 1)}" for v in o]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        if o is None:
            return "null"
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, (float, np.floating)):
            return fmt(o) if np.isfinite(o) else "null"
        if isinstance(o, (int, np.integer, np.bool_)):
            return fmt(o)
        raise TypeError(f"cannot encode {type(o)}")

    text = encode(obj) + "\n"
    Path(path).write_text(text)
    return text


def write_csv(path, header, rows):
    """One header line plus formatted rows, deterministic bytes."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) if not isinstance(v, str) else v for v in row))
    Path(path).write_text("\n".join(lines) + "\n")
