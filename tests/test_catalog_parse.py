"""The block parser against the per-row csv loop it replaced.

``_reference_parse`` is that loop as it stood before the block parser, kept
here as the reference only: every catalog must give the same Catalog bit
for bit, or the same exception type, message and line.
"""

import csv
import io
from unittest import mock

import numpy as np
from catalog_strategies import catalog_texts
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorentzsky import starfield
from lorentzsky.errors import ParseError
from lorentzsky.starfield import _DEFAULT_TEMP_K, _HEADER, Catalog, _check_ranges

HEADER = "name,ra_deg,dec_deg,vmag,temp_k\n"


def _reference_parse(stream) -> Catalog:
    reader = csv.reader(stream)
    try:
        return _reference_rows(reader)
    except csv.Error as exc:  # such as a field longer than csv.field_size_limit()
        raise ParseError(reader.line_num, str(exc)) from None


def _reference_rows(reader) -> Catalog:
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(1, "missing header row") from None
    header = [h.strip() for h in header]
    if header not in (_HEADER, _HEADER[:4]):
        raise ParseError(1, f"expected header {','.join(_HEADER)} "
                            f"(temp_k optional), got {','.join(header)}")
    n_cols = len(header)
    pad = () if n_cols == len(_HEADER) else (_DEFAULT_TEMP_K,)

    names: list[str] = []
    values: list[float] = []   # the rows' four values, flattened
    lines: list[int] = []
    try:
        for row in reader:
            line = reader.line_num   # the row's last line: a quoted field may span several
            if not row:
                continue  # blank line
            if len(row) != n_cols:
                raise ParseError(line, f"expected {n_cols} columns, got {len(row)}")
            name = row[0].strip()
            if not name:
                raise ParseError(line, "column name: empty")
            try:
                values.extend(tuple(map(float, row[1:])) + pad)
            except ValueError:
                for col, text in zip(_HEADER[1:], row[1:]):
                    try:
                        float(text)
                    except ValueError:
                        raise ParseError(line, f"column {col}: not a number: "
                                               f"{text!r}") from None
            names.append(name)
            lines.append(line)
    except (ParseError, csv.Error):
        _reference_columns(values, lines)  # an out-of-range value on an earlier line comes first
        raise
    return Catalog(names, *_reference_columns(values, lines))


def _reference_columns(values: list[float], lines: list[int]) -> np.ndarray:
    columns = np.array(values, dtype=float).reshape(-1, 4).T
    _check_ranges(columns, lambda row: f"line {lines[row]}")
    return columns


def _outcome(parse, text, newline):
    """What parsing text gives: the catalog's names and column bytes, or the error."""
    try:
        cat = parse(io.StringIO(text, newline=newline))
    except Exception as exc:  # the reference decides which exceptions are right
        return type(exc), str(exc), getattr(exc, "line", None)
    return cat.names, [getattr(cat, f).tobytes() for f in _HEADER[1:]]


@settings(max_examples=400, deadline=None)
@given(catalog_texts(), st.sampled_from(["\n", "", None]), st.sampled_from([1, 3, 4096]))
@example(HEADER + "a,1,2,3,4\nb,1,2,3,4\nc,1,2,3,4\n" + '"d,e",1,2,3,4\n', "", 3)
@example(HEADER + "a,1,2,3,4\nb,1,2,3,4\nc,1,2,3,4\r\nd,1,2,3,4\r\n", "", 3)
@example(HEADER + "a,1,2,3,4\nb,1,2,3,4\nc,1,2,3,4\n\nd,1,95,3,4\n", "", 3)
@example(HEADER + "a,1,95,3,4\nb,1,2,3,4\nc,1,2,3,4\n" + '"two\nlines",1,2,x,4\n', "", 3)
@example(HEADER + "a,1,2,3,4\nb,1,2,3,4\nc,1,2,3,-4\n" + "n" * 200_000 + ",1,2,3,4\n", "", 3)
@example(HEADER + "a,1,2,3,4\nb,1,2,3,4\nc,1,2,3,4\nd,1,2\x00,3,4\n", "", 3)
@example(HEADER + "a,1,2,3,4\n  ,1,2,3,4\n", "", 3)
@example("name,ra_deg,dec_deg,vmag\na,1,2,3\nb,1,2,3", "\n", 3)
@example(HEADER + "a,1,2,3,4\n\rb,1,2,3,4\n", "\n", 4096)  # a CR inside a line
@example(HEADER + "7,1,2,3,4,5\n8,1,2,3\n", "", 4096)  # the right number of commas in all
def test_block_parse_equals_the_csv_loop(text, newline, block):
    with mock.patch.object(starfield, "_BLOCK", block):
        got = _outcome(starfield.load_catalog, text, newline)
    assert got == _outcome(_reference_parse, text, newline)


def test_block_parse_equals_the_csv_loop_on_a_large_catalog(rng):
    n = 20_000
    cols = (rng.uniform(0.0, 360.0, n), rng.uniform(-90.0, 90.0, n),
            rng.uniform(-1.0, 7.0, n), rng.uniform(2500.0, 30000.0, n))
    rows = [f"s{i}, {a!r},{d:.6f},{v:.3f} ,{t}\n"
            for i, (a, d, v, t) in enumerate(zip(*(c.tolist() for c in cols)))]
    text = HEADER + "".join(rows)
    got = _outcome(starfield.load_catalog, text, "")
    assert got[0][:2] == ("s0", "s1")
    assert got == _outcome(_reference_parse, text, "")
    # the same rows with a quoted name past the first block, and a range error after it
    rows[9000] = '"quoted, name",1,2,3,4000\n'
    rows[15000] = "bad,1,2,3,-1\n"
    text = HEADER + "".join(rows)
    got = _outcome(starfield.load_catalog, text, "")
    assert got[1] == "line 15002: temp_k = -1.0 must be positive"
    assert got == _outcome(_reference_parse, text, "")
