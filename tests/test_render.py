import io
import math
import warnings

import numpy as np
import pytest

from lorentzsky import (Catalog, RenderSpec, blackbody_rgb, disc_radius_px,
                        render, transform_catalog)
from lorentzsky.errors import RangeError
from lorentzsky.render import _CHUNK, _panels, _placements, _render_ppm

LN2 = 0.6931471805599453


def _catalog(*records):
    return Catalog(*(list(col) for col in zip(*records))) if records \
        else Catalog([], [], [], [], [])


def _stars(*records):
    return transform_catalog(_catalog(*records), 0.0)


def test_spec_validation():
    with pytest.raises(RangeError):
        RenderSpec(width=8)
    with pytest.raises(RangeError):
        RenderSpec(projection="gnomonic")
    with pytest.raises(RangeError):
        RenderSpec(format="png")
    with pytest.raises(RangeError):
        RenderSpec(hemisphere="east")


def test_spec_takes_integer_sizes_only():
    # numpy integers pass; floats and text are in test_errors.SITES
    assert RenderSpec(width=np.int64(64), height=np.int32(48), format="ppm").width == 64
    with pytest.raises(RangeError, match="width and height must be integers"):
        RenderSpec(format="ppm", height=None)


def test_spec_caps_the_pixel_count():
    RenderSpec(width=4096, height=4096, format="ppm")
    RenderSpec(width=16, height=4096 * 256)
    with pytest.raises(RangeError, match="4097 x 4096 pixels exceeds"):
        RenderSpec(width=4097, height=4096, format="ppm")
    with pytest.raises(RangeError):
        RenderSpec(width=10**9, height=10**9)


def test_spec_gives_each_of_two_panels_16_pixels():
    # a panel's radius is min(width / 2, height) / 2 - 8: negative below a 32 px width
    assert _panels(RenderSpec(hemisphere="both", width=32, height=16))[0][3] == 0.0
    for width, height in ((16, 16), (20, 40), (31, 800)):
        with pytest.raises(RangeError, match="width must be at least 32 pixels for both"):
            RenderSpec(hemisphere="both", width=width, height=height)
    with pytest.raises(RangeError, match="width and height must be at least 16 pixels"):
        RenderSpec(hemisphere="both", width=8)


def test_empty_catalog_renders_background_only():
    img = render(_stars(), RenderSpec())
    assert img.startswith(b"<?xml")
    assert img.count(b"<circle") == 1      # just the panel rim
    ppm = render(_stars(), RenderSpec(format="ppm", width=32, height=32))
    assert ppm.startswith(b"P6\n32 32\n255\n")
    assert len(ppm) == len(b"P6\n32 32\n255\n") + 32 * 32 * 3


def test_deterministic_bytes():
    stars = _stars(("A", 15.0, 40.0, 2.0, 7000.0),
                   ("B", 200.0, 70.0, 4.5, 3500.0))
    for fmt in ("svg", "ppm"):
        spec = RenderSpec(format=fmt, width=128, height=128)
        assert render(stars, spec) == render(stars, spec)


def test_pole_star_is_drawn_at_center():
    stars = _stars(("pole", 123.0, 90.0, 1.0, 6000.0))
    img = render(stars, RenderSpec(width=200, height=200)).decode("ascii")
    assert '<circle cx="100.000" cy="100.000"' in img


def test_chi_zero_matches_unboosted_render():
    records = _catalog(("A", 15.0, 40.0, 2.0, 7000.0),
                       ("B", 321.0, -10.0, 5.0, 10000.0),
                       ("C", 200.0, 88.0, 3.0, 25000.0))
    spec = RenderSpec(hemisphere="both", width=256, height=128)
    baseline = render(transform_catalog(records, 0.0), spec)
    boosted = render(transform_catalog(records, LN2), spec)
    assert render(transform_catalog(records, 0.0), spec) == baseline
    assert boosted != baseline


def test_dropped_star_count_goes_to_diagnostics():
    stars = _stars(("south", 0.0, -90.0, 1.0, 6000.0))
    diag = io.StringIO()
    render(stars, RenderSpec(), diagnostics=diag)
    assert "dropped 1 star(s)" in diag.getvalue()
    # both hemispheres: nothing is dropped
    diag = io.StringIO()
    render(stars, RenderSpec(hemisphere="both"), diagnostics=diag)
    assert diag.getvalue() == ""


def test_far_hemisphere_is_culled_in_north_view():
    stars = _stars(("south", 10.0, -40.0, 1.0, 6000.0))
    img = render(stars, RenderSpec(), diagnostics=io.StringIO())
    assert img.count(b"<circle") == 1      # rim only


def test_south_view_shows_southern_star():
    stars = _stars(("south", 10.0, -40.0, 1.0, 6000.0))
    img = render(stars, RenderSpec(hemisphere="south"), diagnostics=io.StringIO())
    assert img.count(b"<circle") == 2


def test_orthographic_views_split_hemispheres():
    north = _stars(("n", 0.0, 30.0, 2.0, 6000.0))
    south = _stars(("s", 0.0, -30.0, 2.0, 6000.0))
    spec_n = RenderSpec(projection="orthographic", hemisphere="north")
    spec_s = RenderSpec(projection="orthographic", hemisphere="south")
    assert render(north, spec_n, diagnostics=io.StringIO()).count(b"<circle") == 2
    assert render(south, spec_n, diagnostics=io.StringIO()).count(b"<circle") == 1
    assert render(south, spec_s, diagnostics=io.StringIO()).count(b"<circle") == 2


def test_disc_radius_ramp():
    assert disc_radius_px(6.0) == 1.0
    assert disc_radius_px(0.0) == 6.0
    assert disc_radius_px(3.0) == pytest.approx(3.5)
    assert disc_radius_px(9.0) == 1.0      # clamped
    assert disc_radius_px(-3.0) == 6.0     # clamped


def test_blackbody_lookup_interpolates_and_clamps():
    def rgb(t):
        return tuple(blackbody_rgb(t).tolist())
    assert rgb(500.0) == rgb(1000.0)
    assert rgb(50_000.0) == rgb(31_000.0)
    low, high = rgb(3000.0), rgb(5000.0)
    mid = rgb(4000.0)
    assert all(min(a, b) <= m <= max(a, b) for a, b, m in zip(low, high, mid))
    # cool stars are redder than hot stars
    assert rgb(3000.0)[2] < rgb(20_000.0)[2]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_color_and_radius_refuse_non_finite_input(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no numpy RuntimeWarning before the error
        with pytest.raises(RangeError, match="temp_k must be finite"):
            blackbody_rgb([5000.0, bad])
        with pytest.raises(RangeError, match="vmag must be finite"):
            disc_radius_px(bad)


def test_blackbody_equals_the_table_loop():
    """The vectorised lookup against the first-matching-interval loop it replaced."""
    from lorentzsky.render import _BLACKBODY_RGB as table

    def scalar(temp_k):
        if temp_k <= table[0][0]:
            return table[0][1]
        if temp_k >= table[-1][0]:
            return table[-1][1]
        for (t0, c0), (t1, c1) in zip(table, table[1:]):
            if t0 <= temp_k <= t1:
                frac = (temp_k - t0) / (t1 - t0)
                return tuple(int(round(a + frac * (b - a))) for a, b in zip(c0, c1))

    knots = np.array([t for t, _ in table])
    # every knot and the doubles either side of it, where the interval index computed
    # from the 2000 K spacing could round onto the wrong side; and past both ends
    temps = np.concatenate([np.random.default_rng(5).uniform(0.0, 40_000.0, 5000), knots,
                            np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
                            np.arange(500.0, 32_000.0, 250.0),
                            [-1e300, -40.0, 0.0, 999.0, 31_001.0, 1e6, 1e300]])
    assert [tuple(c) for c in blackbody_rgb(temps).tolist()] == [scalar(t) for t in temps]


def test_ppm_pixels_painted():
    stars = _stars(("pole", 0.0, 90.0, 0.0, 6000.0))
    spec = RenderSpec(format="ppm", width=64, height=64)
    img = render(stars, spec)
    header = b"P6\n64 64\n255\n"
    pixels = img[len(header):]
    center = (32 * 64 + 32) * 3
    assert pixels[center:center + 3] != b"\x00\x00\x00"
    assert pixels[:3] == b"\x00\x00\x00"


def test_ppm_overlap_takes_the_later_disc():
    cool = ("cool", 0.0, 89.99, 0.0, 3000.0)
    hot = ("hot", 180.0, 89.99, 0.0, 25000.0)
    spec = RenderSpec(format="ppm", width=64, height=64)
    header = len(b"P6\n64 64\n255\n")
    center = header + (32 * 64 + 32) * 3
    for first, last in ((cool, hot), (hot, cool)):
        img = render(_stars(first, last), spec)
        assert tuple(img[center:center + 3]) == tuple(blackbody_rgb(last[4]).tolist())
    assert tuple(blackbody_rgb(3000.0).tolist()) != tuple(blackbody_rgb(25000.0).tolist())


def _ppm_disc_loop(placed, spec):
    """The raster drawn one disc at a time, each over the ones before."""
    img = np.zeros((spec.height, spec.width, 3), dtype=np.uint8)
    for x, y, rad, rgb in zip(*(a.tolist() for a in placed)):
        x0 = max(0, int(math.floor(x - rad - 1)))
        x1 = min(spec.width - 1, int(math.ceil(x + rad + 1)))
        y0 = max(0, int(math.floor(y - rad - 1)))
        y1 = min(spec.height - 1, int(math.ceil(y + rad + 1)))
        if x1 < x0 or y1 < y0:
            continue
        ys, xs = np.mgrid[y0:y1 + 1, x0:x1 + 1]
        mask = (xs + 0.5 - x) ** 2 + (ys + 0.5 - y) ** 2 <= rad * rad
        img[y0:y1 + 1, x0:x1 + 1][mask] = rgb
    return f"P6\n{spec.width} {spec.height}\n255\n".encode("ascii") + img.tobytes()


def test_ppm_raster_equals_the_disc_loop(rng):
    # more discs than one raster chunk, crowded and spilling over every edge
    n = 2500
    spec = RenderSpec(format="ppm", width=61, height=47)
    placed = (rng.uniform(-8.0, 69.0, n), rng.uniform(-8.0, 55.0, n),
              rng.uniform(1.0, 6.0, n), rng.integers(0, 256, (n, 3), dtype=np.uint8))
    # half-pixel centres and whole radii put pixel centres exactly on rims
    placed[0][:200] = np.round(placed[0][:200]) + 0.5
    placed[2][:200] = np.round(placed[2][:200])
    assert _render_ppm(placed, spec) == _ppm_disc_loop(placed, spec)


def _ppm_pixel_painter(placed, spec):
    """The raster by brute force: every disc tested against every pixel of the image."""
    ys, xs = np.mgrid[0:spec.height, 0:spec.width]
    img = np.zeros((spec.height, spec.width, 3), dtype=np.uint8)
    for x, y, rad, rgb in zip(*(a.tolist() for a in placed)):
        img[(xs + 0.5 - x) ** 2 + (ys + 0.5 - y) ** 2 <= rad * rad] = rgb
    return f"P6\n{spec.width} {spec.height}\n255\n".encode("ascii") + img.tobytes()


@pytest.mark.parametrize("seed", range(30))
def test_ppm_raster_equals_the_pixel_painter(seed):
    # no bounding box in the reference, so a box too small for a 6 px disc shows
    rng = np.random.default_rng(seed)
    spec = RenderSpec(format="ppm", width=int(rng.integers(16, 48)),
                      height=int(rng.integers(16, 48)))
    n = int(rng.integers(1, 80))
    x = rng.uniform(-8.0, spec.width + 8.0, n)
    y = rng.uniform(-8.0, spec.height + 8.0, n)
    rad = rng.uniform(1.0, 6.0, n)
    # exact half- and quarter-pixel centres; whole radii and the 6 px cap
    grid = rng.choice([0.5, 0.25], n)
    snap = rng.random(n) < 0.6
    x[snap] = np.round(x[snap] / grid[snap]) * grid[snap]
    y[snap] = np.round(y[snap] / grid[snap]) * grid[snap]
    rad[rng.random(n) < 0.3] = 6.0
    whole = rng.random(n) < 0.3
    rad[whole] = np.round(rad[whole])
    placed = (x, y, rad, rng.integers(0, 256, (n, 3), dtype=np.uint8))
    assert _render_ppm(placed, spec) == _ppm_pixel_painter(placed, spec)


def _ppm_rgb(img, spec):
    return np.frombuffer(img, np.uint8)[-spec.width * spec.height * 3:].reshape(
        spec.height, spec.width, 3)


def test_ppm_raster_settles_rim_ties():
    # Whole radii about half-pixel centres put pixel centres exactly on the rim:
    # at (0, +-r) and, for r = 5, at (+-3, +-4) and (+-4, +-3).  Centres and radii
    # one ulp off move those pixels just in or out, where the sqrt estimate of a
    # span's end is one pixel off, outwards or inwards.  One disc per 16 px cell.
    nudge = np.array([-1.0, 0.0, 1.0])
    ki, kj, kr, rad = (a.ravel() for a in np.meshgrid(nudge, nudge, nudge, np.arange(1.0, 7.0)))
    n, cells = len(rad), 13
    spec = RenderSpec(format="ppm", width=16 * cells, height=16 * cells)
    x = 16.0 * (np.arange(n) % cells) + 8.5
    y = 16.0 * (np.arange(n) // cells) + 8.5
    placed = (x + ki * np.spacing(x), y + kj * np.spacing(y), rad + kr * np.spacing(rad),
              np.full((n, 3), 255, dtype=np.uint8))
    img = _render_ppm(placed, spec)
    assert img == _ppm_pixel_painter(placed, spec) == _ppm_disc_loop(placed, spec)
    exact = (ki == 0) & (kj == 0) & (kr == 0)
    on = _ppm_rgb(img, spec)[:, :, 0] == 255
    for cx, cy, r in zip(x[exact].tolist(), y[exact].tolist(), rad[exact].astype(int).tolist()):
        px, py = int(cx - 0.5), int(cy - 0.5)
        rim = [(0, r), (r, 0), (0, -r), (-r, 0)] + [(3, 4), (-4, 3), (4, -3), (-3, -4)] * (r == 5)
        assert all(on[py + dy, px + dx] for dx, dy in rim)
        assert not on[py, px + r + 1] and not on[py + r + 1, px]
    # alone in a chunk: a 6 px disc's lowest rim pixel is 13 rows below its top row
    small = RenderSpec(format="ppm", width=16, height=16)
    for r in range(1, 7):
        alone = (np.array([8.5]), np.array([8.5]), np.array([float(r)]),
                 np.full((1, 3), 255, dtype=np.uint8))
        assert _render_ppm(alone, small) == _ppm_pixel_painter(alone, small)


def test_ppm_raster_settles_spans_near_a_rim_tie():
    # The raster keeps a span end's sqrt estimate unless the estimate lies within 1e-6 px
    # of a pixel edge or the row's half-chord s is below 1e-3 px; these discs make such
    # spans, one disc per 16 px cell, with radii 1 and 6 and exact half- and
    # quarter-pixel centres besides.
    near = [0.0, 1e-9, -1e-9, 3e-8, -3e-8, 1e-7, -1e-7]
    discs = []
    for r in (1.0, 6.0):
        for f in (0.5, 0.25, 0.75):
            # through a half-pixel centre row, ends at cx - 0.5 -+ r: near an edge for f = 0.5
            discs += [(f + d, 0.5, r) for d in near] + [(0.5, f + d, r) for d in near]
            # the top row's half-chord is sqrt(2 r e) or less: 0 to 3.5e-4 px, and 1.1e-3
            discs += [(f, 0.5 + r - e, r) for e in (0.0, 1e-12, 1e-9, 1e-8, 1e-7)]
        for dy in np.arange(0.5, r, 0.25):
            # rows off the centre: set cx so that the left end lies near a pixel edge
            half_chord = math.sqrt(r * r - dy * dy)
            discs += [(0.5 + half_chord + d - 1, 0.5 + dy, r) for d in near]
    n = len(discs)
    cells = math.ceil(math.sqrt(n))
    spec = RenderSpec(format="ppm", width=16 * cells, height=16 * cells)
    fx, fy, rad = (np.array(col) for col in zip(*discs))
    placed = (16.0 * (np.arange(n) % cells) + 8.0 + fx, 16.0 * (np.arange(n) // cells) + 8.0 + fy,
              rad, np.random.default_rng(3).integers(1, 256, (n, 3), dtype=np.uint8))
    img = _render_ppm(placed, spec)
    assert img == _ppm_pixel_painter(placed, spec) == _ppm_disc_loop(placed, spec)
    # tall images: the bottom rows' discs and discs whose tops lie below the image, in
    # the 16-bit sort keys of 4096 rows and the wider keys past 65535 rows
    rng = np.random.default_rng(4)
    for h in (4096, 65_552):
        spec = RenderSpec(format="ppm", width=16, height=h)
        y = np.concatenate([rng.uniform(h - 20.0, h + 20.0, 60), rng.uniform(-8.0, 40.0, 20),
                            h + 7.0 + rng.uniform(0.0, 1e5, 20)])
        y[::3] = np.round(y[::3] * 4.0) / 4.0
        placed = (rng.choice([0.5, 8.25, 8.5, 15.75], 100), y, rng.choice([1.0, 3.5, 6.0], 100),
                  rng.integers(1, 256, (100, 3), dtype=np.uint8))
        img = _render_ppm(placed, spec)
        assert img == _ppm_pixel_painter(placed, spec) == _ppm_disc_loop(placed, spec)
        assert _ppm_rgb(img, spec)[h - 7:].any()


def test_ppm_raster_over_many_chunks_with_shared_tops(rng):
    # more than two chunks of discs sorted by top row, a third of them on one top
    # row, and a tall image whose sparse lower part ends chunks at the band limit
    n = 2 * _CHUNK + 500
    spec = RenderSpec(format="ppm", width=40, height=600)
    x, rad = rng.uniform(-8.0, 48.0, n), rng.uniform(1.0, 6.0, n)
    y = np.where(rng.random(n) < 0.6, rng.uniform(-8.0, 40.0, n), rng.uniform(-8.0, 608.0, n))
    shared = rng.random(n) < 0.35
    y[shared], rad[shared] = 12.25, 6.0   # top row floor(12.25 - 6 - 1) = 5
    placed = (x, y, rad, rng.integers(0, 256, (n, 3), dtype=np.uint8))
    img = _render_ppm(placed, spec)
    assert img == _ppm_disc_loop(placed, spec) == _ppm_pixel_painter(placed, spec)


@pytest.mark.parametrize("side", ["above", "below", "left", "right"])
@pytest.mark.parametrize("drawn", [0, 40])
def test_ppm_raster_with_a_chunk_off_the_image(side, drawn, rng):
    # a whole chunk of discs just outside one edge (below the image its band is
    # empty), besides discs over the image that are drawn
    spec = RenderSpec(format="ppm", width=36, height=28)
    n = _CHUNK + 100
    along = {"above": 36, "below": 36, "left": 28, "right": 28}[side]
    near = rng.uniform(-8.0, along + 8.0, n)
    rad = rng.uniform(1.0, 6.0, n)
    past = rad + 0.5 + rng.uniform(0.0, 4.0, n)   # no pixel centre within r of the disc
    x, y = {"above": (near, -past), "below": (near, 28.0 + past),
            "left": (-past, near), "right": (36.0 + past, near)}[side]
    x = np.concatenate([x, rng.uniform(-4.0, 40.0, drawn)])
    y = np.concatenate([y, rng.uniform(-4.0, 32.0, drawn)])
    rad = np.concatenate([rad, rng.uniform(1.0, 6.0, drawn)])
    placed = (x, y, rad, rng.integers(1, 256, (n + drawn, 3), dtype=np.uint8))
    img = _render_ppm(placed, spec)
    assert img == _ppm_pixel_painter(placed, spec) == _ppm_disc_loop(placed, spec)
    assert _ppm_rgb(img, spec).any() == (drawn > 0)


def test_ppm_raster_of_no_discs_and_the_smallest_image(rng):
    spec = RenderSpec(format="ppm", width=16, height=16)
    none = (np.zeros(0), np.zeros(0), np.zeros(0), np.zeros((0, 3), dtype=np.uint8))
    assert _render_ppm(none, spec) == b"P6\n16 16\n255\n" + bytes(16 * 16 * 3)
    n = 300   # 6 px discs cover most of a 16 x 16 image and spill over every edge
    placed = (rng.uniform(-7.0, 23.0, n), rng.uniform(-7.0, 23.0, n),
              rng.choice([1.0, 2.5, 6.0], n), rng.integers(0, 256, (n, 3), dtype=np.uint8))
    assert _render_ppm(placed, spec) == _ppm_pixel_painter(placed, spec)


def test_ppm_both_hemispheres_equals_the_pixel_painter(rng):
    n = 400
    stars = transform_catalog(_catalog(*zip(
        (f"s{i}" for i in range(n)), rng.uniform(0.0, 360.0, n), rng.uniform(-90.0, 90.0, n),
        rng.uniform(-1.0, 7.0, n), rng.uniform(2500.0, 30000.0, n))), 1.0)
    for projection in ("stereographic", "orthographic"):
        spec = RenderSpec(projection=projection, format="ppm", hemisphere="both",
                          width=96, height=64)
        img = render(stars, spec, diagnostics=io.StringIO())
        assert img == _ppm_pixel_painter(_placements(stars, spec)[0], spec)
        lit = _ppm_rgb(img, spec).any(axis=(0, 2))
        assert lit[:48].any() and lit[48:].any()
