"""Decimal text of float64 columns, written and read by numpy a chunk of rows at a time.

Writing: each number form turns a column into a NUL-padded ``(rows, width)``
uint8 field, one value's ASCII text per row.  :func:`join_rows` lays constant
pieces and fields side by side and drops every NUL, which gives each row's
text with no per-value Python call.

The fast path scales |v| by an exact power of ten to below 10**12, rounds
with ``np.rint`` and writes the digits two at a time from a table.  The one
rounding of the scaling moves the product by at most 2^-14, so np.rint
rounds as the exact decimal expansion would, except within that distance of
a tie.  A value within 2^-12 of a tie, or outside the form's fast range
(which leaves out every non-finite value) takes the per-value fallback: its
row gets Python's own text, and the field widens if that text is wider.

Reading: :func:`read_decimals` is the reverse, the float() of byte fields.
"""

from __future__ import annotations

import json
from typing import Callable, Iterator

import numpy as np

CHUNK = 16384   # rows formatted together, and stars a sky pass transforms and places together
_ROW_BYTES = 1 << 24   # bound on a chunk's rows times its widest string field

_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode("ascii"), np.uint16)
_HEX = np.frombuffer("".join(f"{i:02x}" for i in range(256)).encode("ascii"), np.uint16)
_POW10 = 10.0 ** np.arange(17)           # exact doubles
_POW10_INT = 10 ** np.arange(17, dtype=np.int64)
_FAST_DIGITS = 15   # digits of a field read_decimals reads itself: their integer is below 10**15
_TIE = 0.5 - 2.0 ** -12   # |scaled - rint(scaled)| beyond this is near a tie
# Digit masks: _LEAD[k] keeps the last k of 10 integer columns, _TRAIL[k] the first
# k of 16 decimal columns.
_LEAD = np.ascontiguousarray(np.tri(11, 10, -1, dtype=np.uint8)[:, ::-1])
_TRAIL = np.tri(17, 16, -1, dtype=np.uint8)


def json_number_text(v: float) -> str:
    """v rounded to 12 significant digits as json.dumps writes it: json_numbers's rare fallback."""
    return json.dumps(float(f"{v:.12g}"))


def _digits(n: np.ndarray, pairs: int) -> np.ndarray:
    """ASCII digits of the non-negative int64s n, zero-padded to 2 * pairs columns."""
    out = np.empty((len(n), pairs), dtype=np.uint16)
    for j in range(pairs - 1, -1, -1):
        q = n // 100
        out[:, j] = _PAIRS.take(n - q * 100)
        n = q
    return out.view(np.uint8)


def _field(pieces: list) -> np.ndarray:
    """The (rows, width) uint8 matrix of pieces side by side: bytes or (rows, k) arrays."""
    rows = next(len(p) for p in pieces if isinstance(p, np.ndarray))
    widths = [len(p) if isinstance(p, bytes) else p.shape[1] for p in pieces]
    mat = np.empty((rows, sum(widths)), dtype=np.uint8)
    at = 0
    for piece, width in zip(pieces, widths):
        mat[:, at:at + width] = (np.frombuffer(piece, np.uint8)
                                 if isinstance(piece, bytes) else piece)
        at += width
    return mat


def join_rows(pieces: list) -> bytes:
    """Each row's pieces (bytes, or fields with a row each) in order, NULs dropped."""
    return _field(pieces).tobytes().translate(None, b"\0")


def fallback(field: np.ndarray, col: np.ndarray, slow: np.ndarray,
             text: Callable[[float], str]) -> np.ndarray:
    """field with text(v) in each slow row, widened on the left if a text is wider."""
    rows = np.flatnonzero(slow)
    if not len(rows):
        return field
    texts = [text(v).encode("ascii") for v in col[rows].tolist()]
    width = max(field.shape[1], *map(len, texts))
    if width > field.shape[1]:
        field = _field([np.zeros((len(field), width - field.shape[1]), np.uint8), field])
    field[rows] = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(len(rows), width)
    return field


def _sign(col: np.ndarray) -> np.ndarray:
    """A one-column field: "-" where the sign bit is set."""
    return np.where(np.signbit(col), np.uint8(ord("-")), np.uint8(0))[:, None]


def fixed3(col: np.ndarray) -> np.ndarray:
    """'%.3f' % v of each v of col as a NUL-padded uint8 field.

    Fast for |v| < 1e8, zero and subnormals included (the sign bit gives
    "-0.000"): n = rint(|v| * 1000) has at most 12 digits.
    """
    magnitude = np.abs(col)
    slow = ~(magnitude < 1e8)
    scaled = np.where(slow, 1.0, magnitude) * 1000.0
    n = np.rint(scaled)
    slow |= np.abs(scaled - n) > _TIE
    digits = _digits(n.astype(np.int64), 6)   # 9 integer digits, 3 decimals
    whole_digits = 1 + sum(n >= p for p in _POW10[4:12])
    digits[:, :9] *= _LEAD.take(whole_digits, axis=0)[:, 1:]
    first = 9 - int(whole_digits.max(initial=1))   # columns blank in every row
    field = _field([_sign(col), digits[:, first:9], b".", digits[:, 9:]])
    return fallback(field, col, slow, "%.3f".__mod__)


def json_numbers(col: np.ndarray) -> np.ndarray:
    """:func:`json_number_text` of each v of col as a NUL-padded uint8 field.

    Fast for 1e-4 <= |v| < 1e10 when the rounded value's decimal exponent E
    is at most 9: fixed notation, the 12 significant digits n with the
    point after the first E + 1 of them (or "0." and -E - 1 zeros before
    them), trailing zeros dropped down to one decimal.
    """
    magnitude = np.abs(col)
    slow = ~((magnitude >= 1e-4) & (magnitude < 1e10))
    magnitude = np.where(slow, 1.0, magnitude)
    # E = floor(log10 |v|) puts 12 digits before the point of the scaled
    # value.  Next to a power of ten log10 can be one off, but then the scaled
    # value rounds to 10**11 or 10**12 all the same, the rounded |v| being
    # that power of ten.
    exp = np.floor(np.log10(magnitude)).astype(np.int64)
    scaled = magnitude * _POW10[11 - exp]
    n = np.rint(scaled)
    slow |= np.abs(scaled - n) > _TIE
    carry = n >= 1e12   # rounded up to 10**12: E one higher
    n[carry] = 1e11
    exp += carry
    slow |= exp > 9
    exp[slow] = 0
    # n < 2**53, so n / 10**j is an integer exactly when 10**j divides n.
    zeros = sum(q == np.floor(q) for q in (n / p for p in _POW10[1:12]))
    n = n.astype(np.int64)
    unit = _POW10_INT[11 - exp]
    whole = n // unit
    whole_digits = np.maximum(exp, 0) + 1
    digits = _digits(whole, 5)
    digits *= _LEAD.take(whole_digits, axis=0)
    # The 11 - E decimals left-aligned in 16 columns.
    decimals = np.maximum(11 - exp - zeros, 1)
    frac = _digits((n - whole * unit) * _POW10_INT[5 + exp], 8)
    frac *= _TRAIL.take(decimals, axis=0)
    # Without the columns that are blank in every row.
    field = _field([_sign(col), digits[:, 10 - int(whole_digits.max(initial=1)):], b".",
                    frac[:, :int(decimals.max(initial=1))]])
    return fallback(field, col, slow, json_number_text)


def read_decimals(data: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """float() of each field data[start:stop] of the UTF-8 bytes data, bit for bit.

    A field [-]digits[.digits] with one to _FAST_DIGITS digits is read by numpy:
    its bytes are gathered right-aligned into a (width, fields) matrix, a Horner
    sum over the rows, skipping the dot, gives the integer m of its digits, and
    the value is m / 10**f for the f digits after the dot.  m < 10**15 and 10**f
    are exact doubles and one IEEE division is correctly rounded, as float() is,
    so the bits are float()'s.  Every other field (an exponent, "+", spaces, "_",
    inf or nan, non-ASCII digits, more digits) takes float() of its text, whose
    ValueError is raised.
    """
    size = stops - starts
    neg = (size > 0) & (data.take(starts, mode="clip") == ord("-"))
    body = np.minimum(size - neg, _FAST_DIGITS + 2).astype(np.uint8)   # bytes after the sign
    width = min(int(body.max(initial=1)), _FAST_DIGITS + 1)
    back = np.arange(width, 0, -1, dtype=np.uint8)[:, None]   # row r: back[r] bytes before stop
    mat = data.take(stops - back, mode="clip")
    pad = back > body   # rows before the field's body
    digits = mat - np.uint8(ord("0"))
    dot = (mat == ord(".")) & ~pad
    skip = dot | pad
    dots = np.add.reduce(dot, axis=0, dtype=np.uint8)
    fast = (np.logical_and.reduce((digits < 10) | skip, axis=0)
            & (dots <= 1) & (body > dots) & (body - dots <= _FAST_DIGITS))
    m = np.zeros(len(starts))
    for row, skipped in zip(digits, skip):
        m = np.where(skipped, m, m * 10.0 + row)
    frac = np.add.reduce(dot * (back - np.uint8(1)), axis=0, dtype=np.uint8)
    values = m / _POW10.take(frac, mode="clip")
    values = np.where(neg, -values, values)
    for i in np.flatnonzero(~fast).tolist():
        values[i] = float(data[starts[i]:stops[i]].tobytes().decode("utf-8", "surrogatepass"))
    return values


def runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices of the runs range(start, start + length), one run after another."""
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


def hex_colors(rgb: np.ndarray) -> np.ndarray:
    """Rows (r, g, b) of uint8 as the six lowercase hex digits of '%02x%02x%02x'."""
    return _HEX.take(rgb).view(np.uint8)


def chunks(n: int, width: np.ndarray | None = None) -> Iterator[slice]:
    """Slices of CHUNK rows of range(n), each halved while its rows times its
    largest width passes _ROW_BYTES, down to one row."""
    start = 0
    while start < n:
        stop = min(start + CHUNK, n)
        while (width is not None and stop - start > 1
               and int(width[start:stop].max()) * (stop - start) > _ROW_BYTES):
            stop = start + (stop - start) // 2
        yield slice(start, stop)
        start = stop
