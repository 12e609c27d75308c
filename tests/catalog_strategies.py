"""Hypothesis strategies for catalog CSV text, plain and hostile.

Most rows are plain (what the byte-piece parser reads itself); the rest carry
what sends a piece to the csv loop or makes the parse fail: quoted names
(with commas, doubled quotes or line breaks), CRLF and lone CR endings,
blank lines, NUL, empty names, bad or non-finite numbers, out-of-range
values, fields over csv.field_size_limit() and rows of the wrong width.
"""

import csv

from hypothesis import strategies as st

HEADERS = [
    "name,ra_deg,dec_deg,vmag,temp_k",
    "name,ra_deg,dec_deg,vmag",
    " name , ra_deg,dec_deg ,vmag,temp_k",
    '"name",ra_deg,dec_deg,vmag',
    "name,ra_deg,dec_deg",
    "name,ra,dec,vmag,temp_k",
]

_PLAIN_NAMES = st.text(st.characters(codec="utf-8", exclude_characters=',"\r\n\x00'),
                       min_size=1, max_size=6)
_QUOTED_NAMES = st.text(st.sampled_from('ab ,"\n\r'), min_size=1, max_size=6).map(
    lambda s: '"' + s.replace('"', '""') + '"')
_OVERLONG = "n" * (csv.field_size_limit() + 1)
_NAMES = st.one_of(
    _PLAIN_NAMES, _PLAIN_NAMES, _PLAIN_NAMES, _QUOTED_NAMES,
    st.sampled_from(["", "  ", "a\x00b", "\x00", "a\rb", "\rb", _OVERLONG, "x" * 40]))


def _numbers(lo, hi):
    return st.one_of(st.floats(lo, hi).map(repr), st.floats(lo, hi).map("{:.6f}".format),
                     st.integers(int(lo), int(hi)).map(str))


_BAD_NUMBERS = st.sampled_from(
    ["", "x", "1.2.3", "nan", "inf", "-inf", "1e400", " 7 ", "1_000", "0x10", "٣",
     "1\x00", '"5"', "360", "-0.5", "95", "-90.000001", "0", "-5"])


def _field(lo, hi):
    return st.one_of(_numbers(lo, hi), _numbers(lo, hi), _numbers(lo, hi), _numbers(lo, hi),
                     _BAD_NUMBERS)


_RANGES = [(0.0, 359.999), (-90.0, 90.0), (-2.0, 8.0), (1000.0, 40000.0)]
_GOOD = [_numbers(lo, hi) for lo, hi in _RANGES]
_COLUMNS = [_field(lo, hi) for lo, hi in _RANGES]
_ENDINGS = st.sampled_from(["\n"] * 12 + ["\r\n", "\r"])


@st.composite
def catalog_rows(draw, n_cols):
    """One line (or a blank one) of a catalog with n_cols columns, ending included.

    Three rows in four are plain, so that plain pieces come before hostile rows.
    """
    if draw(st.integers(0, 3)):
        return ",".join([draw(_PLAIN_NAMES)] + [draw(col) for col in _GOOD[:n_cols - 1]]) + "\n"
    if draw(st.integers(0, 4)) == 0:
        return draw(_ENDINGS)  # blank line
    width = n_cols if draw(st.integers(0, 9)) else draw(st.integers(2, 6))
    fields = [draw(_NAMES)] + [draw(col) for col in (_COLUMNS * 2)[:width - 1]]
    return ",".join(fields) + draw(_ENDINGS)


@st.composite
def catalog_texts(draw, max_rows=12):
    """A catalog's text: a header (mostly a valid one) and up to max_rows rows."""
    header = draw(st.sampled_from(HEADERS[:2] * 4 + HEADERS[2:]))
    n_cols = 4 if header.count(",") == 3 else 5
    rows = draw(st.lists(catalog_rows(n_cols), max_size=max_rows))
    text = header + draw(_ENDINGS) + "".join(rows)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line ending
    return text
