"""The sky pass over star chunks: the chunk size changes no byte, and bounds the memory.

transform_catalog and render work a chunk of _text.CHUNK stars at a time.
The boundary tests set the chunk to 1, 7 and n -+ 1 stars and compare every
output with the unpatched run; the memory tests bound the tracemalloc peak
of each call above what is held before it.
"""

import gc
import io
import json
import tracemalloc

import numpy as np
import pytest

from lorentzsky import _text, starfield
from lorentzsky.cli import _json_star_chunks, cli_main
from lorentzsky.render import RenderSpec, _placements, render
from lorentzsky.starfield import Catalog, load_catalog, transform_catalog

LN2 = 0.6931471805599453
N = 40
CHUNKS = [1, 7, N - 1, N + 1]
# Names that str.strip trims (U+00A0, tab, U+2003), a non-ASCII name and names
# json must escape.  The quoted one sends its piece and the rest to the csv loop.
SPECIAL = ["\u00a0nbsp\u00a0", "\ttab\t", "\u2003em space", "Ωmega ★", "back\\slash",
           "del\x7f", '"Alpha ""Cen"" \\ A"']
SURROGATE = "lone \ud800 surrogate"   # only a stream can carry it


def _catalog_text(rng, names) -> str:
    """N rows: the given names first, and rows 7-13 (chunk 2 at CHUNK = 7) far
    south, so the orthographic north view drops every star of that chunk."""
    dec = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, N)))
    dec[7:14] = rng.uniform(-89.0, -60.0, 7)
    rows = [f"s{i},{ra:.6f},{d:.6f},{v:.3f},{t:.1f}" for i, (ra, d, v, t) in
            enumerate(zip(rng.uniform(0.0, 359.9, N).tolist(), dec.tolist(),
                          rng.uniform(-1.0, 7.0, N).tolist(),
                          rng.uniform(2500.0, 30000.0, N).tolist()))]
    for i, name in enumerate(names):
        row = rows[15 + 3 * i].split(",", 1)[1]
        rows[15 + 3 * i] = f"{name},{row}"
    return "name,ra_deg,dec_deg,vmag,temp_k\n" + "\n".join(rows) + "\n"


SPECS = [RenderSpec(hemisphere="both"),
         RenderSpec(projection="orthographic", hemisphere="north", format="ppm")]


def _sky_outputs(sky):
    """Every output of a boosted catalog: column bytes, images and the --json stars."""
    columns = [getattr(sky, f).tobytes() for f in ("z1", "z2", "doppler", "temp_k", "vmag")]
    diagnostics = io.StringIO()
    images = [render(sky, spec, diagnostics) for spec in SPECS]
    return columns, tuple(sky.names), images, diagnostics.getvalue(), \
        b"".join(_json_star_chunks(sky))


@pytest.mark.parametrize("chunk", CHUNKS)
def test_stream_catalog_outputs_do_not_depend_on_the_chunk(rng, monkeypatch, chunk):
    text = _catalog_text(rng, [*SPECIAL, SURROGATE])
    monkeypatch.setattr(starfield, "_READ", 256)   # plain pieces, then the csv loop
    sky = transform_catalog(load_catalog(io.StringIO(text, newline="")), LN2)
    want = _sky_outputs(sky)
    monkeypatch.setattr(_text, "CHUNK", chunk)
    got = _sky_outputs(transform_catalog(load_catalog(io.StringIO(text, newline="")), LN2))
    assert got == want
    # Rows 7-13 stay south of the equator: the orthographic north view drops them all.
    assert (np.abs(sky.z1[7:14]) > np.abs(sky.z2[7:14])).all()
    assert "dropped" in got[3]
    stars = json.loads(b"[" + got[4] + b"]")
    assert [s["name"] for s in stars] == list(sky.names)
    assert {"Alpha \"Cen\" \\ A", "Ωmega ★", "nbsp", "tab", "em space", SURROGATE} \
        <= set(sky.names)
    assert b'"lone \\ud800 surrogate"' in got[4] and b'"del\\u007f"' in got[4]


def _cli_run(capsys, tmp_path, argv):
    out = tmp_path / "sky.img"
    out.unlink(missing_ok=True)
    code = cli_main(["render", "--chi", repr(LN2), "--input", str(tmp_path / "stars.csv"),
                     "--out", str(out), *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err, out.read_bytes() if out.exists() else None


CLI_RUNS = [["--hemisphere", "both", "--json"],
            ["--projection", "orthographic", "--hemisphere", "north", "--format", "ppm"]]


@pytest.mark.parametrize("chunk", CHUNKS)
def test_cli_bytes_do_not_depend_on_the_chunk(rng, tmp_path, capsys, monkeypatch, chunk):
    (tmp_path / "stars.csv").write_text(_catalog_text(rng, SPECIAL), encoding="utf-8")
    want = [_cli_run(capsys, tmp_path, argv) for argv in CLI_RUNS]
    monkeypatch.setattr(_text, "CHUNK", chunk)
    assert [_cli_run(capsys, tmp_path, argv) for argv in CLI_RUNS] == want
    assert [run[0] for run in want] == [0, 0]
    assert want[1][2].startswith("dropped ")


@pytest.mark.parametrize("chunk", CHUNKS)
def test_overflow_in_the_last_chunk_is_one_error_line(rng, tmp_path, capsys, monkeypatch,
                                                      chunk):
    text = _catalog_text(rng, [])
    lines = text.splitlines()
    lines[-1] = "hot,0.0,89.0,1.0,1e308"   # D > 1 near the pole: D T overflows
    (tmp_path / "stars.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.setattr(_text, "CHUNK", chunk)
    for argv in CLI_RUNS:
        code, out, err, image = _cli_run(capsys, tmp_path, argv)
        assert (code, out, image) == (1, "", None)
        assert err == f"error: rapidity {LN2!r} overflows the boosted temperatures\n"


# -- memory -------------------------------------------------------------------

STARS = 6 * _text.CHUNK
# Bytes a call may allocate beyond its output: the temporaries of one chunk and,
# for the SVG, the growth headroom of its buffer.  Measured with numpy 2.4 at
# 2.9 MB (transform_catalog), 3.5 MB (SVG) and 1.8 MB beyond DISC_BYTES per disc
# (PPM); whole-catalog temporaries exceed the bounds by 2.5 MB or more.
SLACK = 5 << 20
# Per PPM disc: its x, y and radius (24 B), color (3 B), the raster's sort
# keys and draw order (20 B) and its palette row (3 B), with room for the
# gather of the chunks' discs.
DISC_BYTES = 64


@pytest.fixture(scope="module")
def catalog():
    rng = np.random.default_rng(7)
    return Catalog([f"s{i}" for i in range(STARS)], rng.uniform(0.0, 360.0, STARS),
                   np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, STARS))),
                   rng.uniform(-1.0, 7.0, STARS), rng.uniform(2500.0, 30000.0, STARS))


def _peak_above_held(call):
    """call()'s result, and the peak of the memory it allocated (tracemalloc
    traces only what is allocated once it starts)."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transform_holds_its_columns_and_one_chunk(catalog):
    sky, peak = _peak_above_held(lambda: transform_catalog(catalog, LN2))
    assert len(sky) == STARS
    assert peak <= 56 * STARS + SLACK


def test_svg_render_holds_its_output_and_one_chunk(catalog):
    sky = transform_catalog(catalog, LN2)
    image, peak = _peak_above_held(lambda: render(sky, SPECS[0], io.StringIO()))
    assert peak <= len(image) + SLACK


def test_ppm_render_holds_its_discs_and_raster(catalog):
    sky = transform_catalog(catalog, LN2)
    spec = SPECS[1]
    discs = len(_placements(sky, spec)[0][0])
    image, peak = _peak_above_held(lambda: render(sky, spec, io.StringIO()))
    assert len(image) == 15 + 3 * spec.width * spec.height
    assert peak <= DISC_BYTES * discs + 7 * spec.width * spec.height + SLACK
