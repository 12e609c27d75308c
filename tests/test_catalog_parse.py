"""The byte-piece parser against the per-row csv loop it replaced.

``_reference_parse`` is that loop as it stood before the pieces were parsed
as text or bytes, kept here as the reference only: every catalog must give
the same Catalog bit for bit, or the same exception type, message and line.
"""

import csv
import io
from unittest import mock

import numpy as np
import pytest
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


def _result(parse):
    """What parse() gives: the catalog's names and column bytes, or the error."""
    try:
        cat = parse()
    except Exception as exc:  # the reference decides which exceptions are right
        return type(exc), str(exc), getattr(exc, "line", None)
    return cat.names, [getattr(cat, f).tobytes() for f in _HEADER[1:]]


def _outcome(parse, text, newline):
    """What parsing text gives: the catalog's names and column bytes, or the error."""
    return _result(lambda: parse(io.StringIO(text, newline=newline)))


@settings(max_examples=400, deadline=None)
@given(catalog_texts(), st.sampled_from(["\n", "", None]), st.sampled_from([1, 7, 20, 64, 1 << 18]))
@example(HEADER + "a,1,2,3,4\nb,1,2,3,4\nc,1,2,3,4\n" + '"d,e",1,2,3,4\n', "", 20)
@example(HEADER + "a,1,2,3,4\nb,1,2,3,4\nc,1,2,3,4\r\nd,1,2,3,4\r\n", "", 20)
@example(HEADER + "a,1,2,3,4\nb,1,2,3,4\nc,1,2,3,4\n\nd,1,95,3,4\n", "", 20)
@example(HEADER + "a,1,95,3,4\nb,1,2,3,4\nc,1,2,3,4\n" + '"two\nlines",1,2,x,4\n', "", 20)
@example(HEADER + "a,1,2,3,4\nb,1,2,3,4\nc,1,2,3,-4\n" + "n" * 200_000 + ",1,2,3,4\n", "", 20)
@example(HEADER + "a,1,2,3,4\nb,1,2,3,4\nc,1,2,3,4\nd,1,2\x00,3,4\n", "", 20)
# an out-of-range value in the csv loop's part comes before a later bad number or long field
@example(HEADER + '"q",1,95,3,4\nb,1,2,x,4\n', "", 20)
@example(HEADER + '"q",1,95,3,4\n' + "n" * 200_000 + ",1,2,3,4\n", "", 20)
@example(HEADER + "a,1,2,3,4\n  ,1,2,3,4\n", "", 20)
@example("name,ra_deg,dec_deg,vmag\na,1,2,3\nb,1,2,3", "\n", 20)
@example(HEADER + "a,1,2,3,4\n\rb,1,2,3,4\n", "\n", 1 << 18)  # a CR inside a line
@example(HEADER + "7,1,2,3,4,5\n8,1,2,3\n", "", 1 << 18)  # the right number of commas in all
def test_block_parse_equals_the_csv_loop(text, newline, size):
    with mock.patch.object(starfield, "_READ", size):
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


# (text, newline, read size, whether the csv loop parses part of it)
PIECE_EDGES = {
    "non-ASCII name in a plain piece": (HEADER + "Ωmega ★,1,2,3,4\nb,1,2,3,4\n", "", 1 << 18,
                                        False),
    "last line with no newline": (HEADER + "a,1,2,3,4\nb,5,6,7,8", "", 1 << 18, False),
    "read ends inside a line": (HEADER + "a,1,2,3,4\nlong name,1.5,2.5,3.5,4.5\nb,1,2,3,4\n",
                                "", 32, False),
    "line longer than one read": (HEADER + "a,1,2,3,4\n" + "n" * 40 + ",1,2,3,4\nb,1,95,3,4\n",
                                  "", 16, True),
    "boundary on a newline": (HEADER + "a,1,2,3,4\nb,1,2,3,4\nc,1,2,3,4\n", "", 10, False),
    "CRLF split across reads": (HEADER + "a,1,2,3,4\nb,1,2,3,4\r\nc,1,95,3,4\n", "", 10, True),
    "CRLF split, newline None": (HEADER + "a,1,2,3,4\nb,1,2,3,4\r\nc,1,2,3,4\n", None, 10, False),
    "CRLF split, newline LF": (HEADER + "a,1,2,3,4\nb,1,2,3,4\r\nc,1,95,3,4\n", "\n", 10, True),
    "lone CR after a plain piece": (HEADER + "a,1,2,3,4\nb,1,2,3,4\rc,1,2,3,4\n", "", 10, True),
}


@pytest.mark.parametrize("text, newline, size, csv_loop", PIECE_EDGES.values(), ids=PIECE_EDGES)
def test_piece_edges_equal_the_csv_loop(text, newline, size, csv_loop):
    with mock.patch.object(starfield, "_READ", size), \
            mock.patch.object(starfield, "_parse_rows", wraps=starfield._parse_rows) as rows:
        got = _outcome(starfield.load_catalog, text, newline)
    assert got == _outcome(_reference_parse, text, newline)
    assert rows.called == csv_loop


@pytest.mark.parametrize("newline", ["", "\n", None])
@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_file_streams_equal_the_csv_loop(tmp_path, newline, ending):
    """Files read through TextIOWrapper: a path, opened with newline="", and
    streams opened with the other newline modes (sys.stdin's is "\n")."""
    rows = [f"s{i},{i % 360},{i % 90}.5,{i % 7}.25,{5000 + i}" for i in range(300)]
    rows[150] = '"quoted, name",1,2,3,4'
    path = tmp_path / "stars.csv"
    path.write_bytes((HEADER.rstrip("\n") + ending + ending.join(rows) + ending).encode())
    with mock.patch.object(starfield, "_READ", 1000):
        if newline == "":
            got = _result(lambda: starfield.load_catalog(path))
        else:
            with open(path, encoding="utf-8", newline=newline) as fh:
                got = _result(lambda: starfield.load_catalog(fh))
    with open(path, encoding="utf-8", newline=newline) as fh:
        assert got == _result(lambda: _reference_parse(fh))
