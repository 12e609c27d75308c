"""The numpy text kernel against Python's own formatting.

Each field row, NULs dropped, must be the text the per-value expressions
write: '%.3f' % v for the SVG coordinates, and json.dumps of v rounded to
12 significant digits for the render --json numbers.  The chunk test runs
the CLI on a catalog spanning several kernel chunks and compares its bytes
with per-row writers built from those expressions.
"""

import io
import json
import math
import sys
from json.encoder import encode_basestring_ascii

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lorentzsky import _text
from lorentzsky.cli import cli_main
from lorentzsky.render import RenderSpec, _panels, _placements
from lorentzsky.starfield import load_catalog, transform_catalog

LN2 = 0.6931471805599453


def _rows(field: np.ndarray) -> list[str]:
    return [bytes(row).replace(b"\0", b"").decode("ascii") for row in field]


def _first_difference(got, want):
    """None when equal, else the first differing offset and the text around it
    (a cheap failure message where pytest would diff megabytes)."""
    if got == want:
        return None
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return at, got[max(at - 60, 0):at + 60], want[max(at - 60, 0):at + 60]


def _json_reference(v: float) -> str:
    return json.dumps(float(f"{v:.12g}"))


def _neighbours(x: float) -> list[float]:
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


EDGES = ([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 9999999999.99,
          99999999.9996, 1e8, 1e300, -1e300, math.inf, -math.inf, math.nan]
         + _neighbours(1e-4) + _neighbours(1e10) + _neighbours(1e11) + _neighbours(1e12))
TIES = [k / 16 for k in range(-40, 41)] + [k / 2000 for k in range(1, 41)]
NEAR_TIES = [float(np.nextafter(k / 2000, d)) for k in range(1, 41) for d in (-1.0, 3.0)]
# exact ties at 12 significant digits: 13 digits ending in 5
TIES_12 = [1234567890.125, 1234567890.375, 1234567890.625, 1234567890.875,
           123456789.0625, 12345678.90625]


@given(st.lists(st.floats(), max_size=12))
@example(EDGES)
@example([-v for v in EDGES])
@example(TIES)
@example(NEAR_TIES)
@example([1.0, 1e300])   # the fallback widens the field for the second row
def test_fixed3_field_is_percent_format(values):
    col = np.array(values, dtype=float)
    assert _rows(_text.fixed3(col)) == ["%.3f" % v for v in values]


# Where a number's shortest repr is not its 12-digit "{:.12}" text.
EDGE_NUMBERS = [5e-324, 2.225073858507201e-308, 99999999999.95, 99999999999.96, 1e11,
                9.9999999999995e15, 1e16, 0.0, -0.0]


@given(st.lists(st.floats(), max_size=12))
@example(EDGE_NUMBERS)
@example([-v for v in EDGE_NUMBERS])
@example([v * (1 + 1e-12) for v in EDGE_NUMBERS])
@example(EDGES)
@example([-v for v in EDGES])
@example(TIES)
@example(NEAR_TIES)
@example(TIES_12)
@example([v * 10.0 ** k for k in range(-4, 10) for v in (1.0, 9.999999999995, 1.5)])
@example([1.0, -1e-300])   # the fallback widens the field for the second row
def test_json_numbers_match_json_dumps(values):
    col = np.array(values, dtype=float)
    assert _rows(_text.json_numbers(col)) == [_json_reference(v) for v in values]


def test_fields_match_on_dense_ties_and_decades(rng):
    """Many values at once: exact and near ties, every decade, powers of ten."""
    ties = np.arange(-40000, 40000) / 16
    near = np.arange(1, 20000) / 2000
    near = np.concatenate([np.nextafter(near, 0.0), near, np.nextafter(near, 1.0)])
    decades = rng.uniform(1.0, 10.0, 20000) * 10.0 ** rng.integers(-5, 12, 20000)
    # where floor(log10 |v|) may be one off: about 40 doubles each side of 10**k
    powers = (10.0 ** np.arange(-5, 13)[:, None]
              * (1.0 + np.arange(-40, 41) * 2.0 ** -52)).ravel()
    for col in (ties, near, decades, -decades, powers):
        values = col.tolist()
        assert _first_difference(_rows(_text.fixed3(col)), ["%.3f" % v for v in values]) is None
        assert _first_difference(_rows(_text.json_numbers(col)),
                                 [_json_reference(v) for v in values]) is None


def _read(fields: list[str]) -> np.ndarray:
    """read_decimals over fields joined by commas, as the catalog parse calls it."""
    data = ",".join(fields).encode("utf-8", "surrogatepass")
    sizes = np.array([len(f.encode("utf-8", "surrogatepass")) for f in fields], dtype=np.intp)
    stops = np.cumsum(sizes + 1) - 1
    return _text.read_decimals(np.frombuffer(data, np.uint8), stops - sizes, stops)


def _float_bits(fields: list[str]) -> list[str]:
    return [float(f).hex() for f in fields]


# (sign, digits before the dot, dot, digits after it): every form the fast path reads,
# and longer ones that take float()
_DECIMALS = st.tuples(st.sampled_from(["", "-"]), st.text("0123456789", max_size=18),
                      st.booleans(), st.text("0123456789", max_size=18)).map(
    lambda p: p[0] + p[1] + "." * p[2] + p[3] if p[2] else p[0] + p[1] + p[3]).filter(
    lambda s: any(c.isdigit() for c in s))
FAST_DECIMALS = ["-0", "0.000", "-0.000", ".5", "5.", "-.25", "007", "0", "359.999999",
                 "-89.999999", "123456789012345", "-123456789012345", "999999999999999",
                 "12345678901234.5", "-.123456789012345", "1234567.89012345", "0.30000000000000"]
SLOW_DECIMALS = ["1234567890123456", "0.1234567890123456", "-1234567890.123456",
                 "12345678901234567890.5", "1e5", "+1", " 7 ", "1_000", "٣", "inf", "nan",
                 "-inf", "1E-3"]


@given(st.lists(_DECIMALS, min_size=1, max_size=12))
@example(FAST_DECIMALS)
@example(SLOW_DECIMALS)
def test_read_decimals_is_float(fields):
    assert [v.hex() for v in _read(fields).tolist()] == _float_bits(fields)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12),
       st.integers(0, 12))
def test_read_decimals_reads_written_decimals(values, places):
    fields = [f"{v:.{places}f}" for v in values] + [repr(v) for v in values]
    assert [v.hex() for v in _read(fields).tolist()] == _float_bits(fields)


def test_read_decimals_calls_float_only_off_the_fast_path():
    with mock.patch.object(_text, "float", side_effect=AssertionError, create=True):
        assert [v.hex() for v in _read(FAST_DECIMALS).tolist()] == _float_bits(FAST_DECIMALS)
    calls = []
    with mock.patch.object(_text, "float", side_effect=lambda t: calls.append(t) or float(t),
                           create=True):
        _read(FAST_DECIMALS + SLOW_DECIMALS)
    assert calls == SLOW_DECIMALS


@pytest.mark.parametrize("bad", ["-", ".", "1.2.3", "--1", "", "-.", "1-", "1.2e"])
def test_read_decimals_refuses_what_float_refuses(bad):
    with pytest.raises(ValueError):
        float(bad)
    with pytest.raises(ValueError):
        _read(["1.5", bad, "2"])


def test_chunks_bound_the_row_matrix():
    width = np.full(3 * _text.CHUNK, 8)
    width[_text.CHUNK + 5] = _text._ROW_BYTES // 3   # one long escaped name
    spans = list(_text.chunks(len(width), width))
    assert spans[0].start == 0 and spans[-1].stop == len(width)
    assert all(a.stop == b.start for a, b in zip(spans, spans[1:]))
    assert all(int(width[s].max()) * (s.stop - s.start) <= _text._ROW_BYTES
               or s.stop - s.start == 1 for s in spans)
    assert [s.stop - s.start for s in _text.chunks(5)] == [5]
    assert list(_text.chunks(0)) == []


# Rows that take every path of the writers: names json must escape, a
# non-ASCII name, a subnormal boosted temperature and one past 1e11.
SPECIAL_ROWS = ['"Alpha ""Cen"" \\ A",60.0,-30.0,0.0,5778',
                "Ωmega ★,70.0,45.0,-1.5,12345.6789",
                "subnormal,80.0,10.0,3.0,1e-320",
                "hot,90.0,-10.0,2.0,5e11"]


def _boundary_catalog(rng) -> str:
    n = 2 * _text.CHUNK + 3
    rows = [f"s{i},{ra:.6f},{dec:.6f},{vmag:.3f},{temp:.1f}" for i, (ra, dec, vmag, temp)
            in enumerate(zip(rng.uniform(0.0, 359.9, n).tolist(),
                             np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, n))).tolist(),
                             rng.uniform(-1.0, 7.0, n).tolist(),
                             rng.uniform(2500.0, 30000.0, n).tolist()))]
    for boundary in (_text.CHUNK, 2 * _text.CHUNK):
        for k, row in enumerate(SPECIAL_ROWS):   # two rows each side of the boundary
            rows[boundary - 2 + k] = row
    return "name,ra_deg,dec_deg,vmag,temp_k\n" + "\n".join(rows) + "\n"


def _svg_reference(sky, spec) -> bytes:
    """The per-circle writer: one '%' call per disc."""
    (x, y, rad, rgb), _ = _placements(sky, spec)
    colors = rgb.astype(np.int64) @ np.array([1 << 16, 1 << 8, 1])
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.width}" '
        f'height="{spec.height}" viewBox="0 0 {spec.width} {spec.height}">',
        f'<rect width="{spec.width}" height="{spec.height}" fill="#000000"/>',
    ]
    lines.extend(f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="{radius:.3f}" '
                 'fill="none" stroke="#303030" stroke-width="1"/>'
                 for _, cx, cy, radius in _panels(spec))
    lines.extend('<circle cx="%.3f" cy="%.3f" r="%.3f" fill="#%06x"/>' % row
                 for row in zip(x.tolist(), y.tolist(), rad.tolist(), colors.tolist()))
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("ascii")


def _json_number_reference(v: float) -> str:
    """The per-value rule: "{:.12}", or json.dumps where it differs from repr."""
    if abs(v) < 1e10 and not 0.0 < abs(v) < 1e-290:
        return "{:.12}".format(v)
    return json.dumps(float(f"{v:.12g}"))


def _summary_reference(sky, out: str) -> str:
    """The per-star writer: one format call per row."""
    rows = ('{{"name": {}, "doppler": {}, "temp_k": {}, "vmag": {}}}'.format(
                encode_basestring_ascii(name), *map(_json_number_reference, values))
            for name, *values in zip(sky.names, sky.doppler.tolist(),
                                     sky.temp_k.tolist(), sky.vmag.tolist()))
    return (f'{{"out": {encode_basestring_ascii(out)}, "count": {len(sky)}, '
            f'"stars": [{", ".join(rows)}]}}\n')


def test_render_bytes_across_chunk_boundaries(tmp_path, monkeypatch, capsys, rng):
    (tmp_path / "stars.csv").write_text(_boundary_catalog(rng), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert cli_main(["render", "--chi", repr(LN2), "--input", "stars.csv", "--out", "sky.svg",
                     "--hemisphere", "both", "--json"]) == 0
    out = capsys.readouterr().out
    sky = transform_catalog(load_catalog(tmp_path / "stars.csv"), LN2)
    assert len(sky) == 2 * _text.CHUNK + 3
    assert {"Alpha \"Cen\" \\ A", "Ωmega ★", "subnormal", "hot"} <= set(sky.names)
    assert 0.0 < sky.temp_k[sky.names.index("subnormal")] < 2.2250738585072014e-308
    assert sky.temp_k[sky.names.index("hot")] >= 1e11
    spec = RenderSpec(width=800, height=800, hemisphere="both")
    assert len(_placements(sky, spec)[0][0]) > 2 * _text.CHUNK
    assert _first_difference((tmp_path / "sky.svg").read_bytes(), _svg_reference(sky, spec)) is None
    assert _first_difference(out, _summary_reference(sky, "sky.svg")) is None
    assert json.loads(out)["count"] == len(sky)


class _FailingStdout(io.StringIO):
    """A stdout whose writes fail once it holds limit characters."""

    def __init__(self, limit: int):
        super().__init__()
        self.limit = limit

    def write(self, text: str) -> int:
        if self.tell() + len(text) > self.limit:
            raise OSError(28, "No space left on device")
        return super().write(text)


def test_failed_stdout_write_exits_1(tmp_path, monkeypatch, capsys, rng):
    (tmp_path / "stars.csv").write_text(_boundary_catalog(rng), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    stdout = _FailingStdout(limit=100_000)
    monkeypatch.setattr(sys, "stdout", stdout)
    code = cli_main(["render", "--input", "stars.csv", "--out", "sky.svg", "--json"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines()[-1] == "error: [Errno 28] No space left on device"
    assert 0 < len(stdout.getvalue()) <= 100_000   # a partial object, cut at a chunk
