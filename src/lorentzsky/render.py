"""Deterministic SVG and PPM rendering of a (transformed) star field.

Byte-identical output for identical inputs: all coordinates are emitted
with fixed formatting and the raster decides each pixel by one fixed
double-precision test.  Every stage works on columns, a chunk of stars
at a time; the arithmetic is that of the per-star formulas, so the bytes
are the same as drawing one star at a time.  Stars are discs; radius
follows a linear ramp in magnitude (6.0 mag -> 1 px, 0.0 mag -> 6 px,
clamped) and fill color comes from a fixed 16-entry blackbody table with
linear interpolation.
"""

from __future__ import annotations

import io
import operator
import sys
from dataclasses import dataclass, fields
from typing import IO

import numpy as np

from . import _text
from .errors import RangeError
from .sphere import _INFINITY_EPS
from .starfield import BoostedCatalog

_MARGIN = 8
_PROJECTIONS = ("stereographic", "orthographic")
_FORMATS = ("svg", "ppm")
_HEMISPHERES = ("north", "south", "both")

_BACKGROUND = (0, 0, 0)
# The raster's per-pixel arrays scale with the image, so its size is capped.
_MAX_PIXELS = 4096 * 4096
# Discs rasterised together, sorted by top row: at most _CHUNK, with tops spanning
# fewer than _BAND rows, so a chunk's band of rows is at most _BAND + 13 tall.
_CHUNK = 2048
_BAND = 64
# Rows from y0 = floor(y - r - 1): an inside pixel's row lies in [y - r - 0.5, y + r - 0.5]
# up to rounding, so its offset is at most 2 r + 1.5 <= 13.5 at the 6 px cap.
_ROWS = np.arange(14)
# A row span of n = 1..14 pixels (indexed by n - 1) is the union of two 2**k-pixel
# blocks, k = _LEVEL, one at its left end and one _SHIFT = n - 2**k pixels further.
_LEVEL = np.array([n.bit_length() - 1 for n in range(1, 15)])
_SHIFT = np.arange(1, 15) - (1 << _LEVEL)
# Pixels colored together from the palette.
_SLAB = 1 << 16

# Blackbody temperature -> sRGB, sampled once and frozen; linearly
# interpolated and clamped at the ends.
_BLACKBODY_RGB = (
    (1000.0, (255, 68, 0)),
    (3000.0, (255, 177, 110)),
    (5000.0, (255, 228, 206)),
    (7000.0, (243, 242, 255)),
    (9000.0, (210, 223, 255)),
    (11000.0, (196, 214, 255)),
    (13000.0, (187, 209, 255)),
    (15000.0, (181, 205, 255)),
    (17000.0, (176, 202, 255)),
    (19000.0, (172, 199, 255)),
    (21000.0, (169, 197, 255)),
    (23000.0, (166, 195, 255)),
    (25000.0, (164, 194, 255)),
    (27000.0, (162, 192, 255)),
    (29000.0, (160, 191, 255)),
    (31000.0, (158, 190, 255)),
)
_BLACKBODY_T = np.array([t for t, _ in _BLACKBODY_RGB])
_BLACKBODY_C = np.array([c for _, c in _BLACKBODY_RGB], dtype=float)
_BLACKBODY_STEP = np.diff(_BLACKBODY_C, axis=0)   # whole numbers: c1 - c0 exactly


@dataclass(frozen=True)
class RenderSpec:
    """Image parameters; width and height in pixels, at least 16 each (a width
    of 32 for both hemispheres) and at most 4096 x 4096 pixels in all."""

    projection: str = "stereographic"
    width: int = 800
    height: int = 800
    format: str = "svg"
    hemisphere: str = "north"

    def __post_init__(self):
        if self.projection not in _PROJECTIONS:
            raise RangeError(f"projection must be one of {_PROJECTIONS}")
        if self.format not in _FORMATS:
            raise RangeError(f"format must be one of {_FORMATS}")
        if self.hemisphere not in _HEMISPHERES:
            raise RangeError(f"hemisphere must be one of {_HEMISPHERES}")
        try:
            operator.index(self.width), operator.index(self.height)
        except TypeError:
            raise RangeError("width and height must be integers") from None
        if self.width < 16 or self.height < 16:
            raise RangeError("width and height must be at least 16 pixels")
        if self.hemisphere == "both" and self.width < 32:  # 16 pixels for each panel
            raise RangeError("width must be at least 32 pixels for both hemispheres")
        if self.width * self.height > _MAX_PIXELS:
            raise RangeError(f"{self.width} x {self.height} pixels exceeds the "
                             f"limit of {_MAX_PIXELS} (4096 x 4096)")


def _finite(values, name: str) -> np.ndarray:
    """values as a float array; RangeError if one is nan or infinite."""
    a = np.asarray(values, dtype=float)
    if not np.isfinite(a).all():
        raise RangeError(f"{name} must be finite")
    return a


def blackbody_rgb(temp_k) -> np.ndarray:
    """Disc colors, uint8 rows (r, g, b), for blackbodies of the given temperatures.

    Linear between the table's samples, which lie 2000 K apart, so that a
    temperature's interval is read off the spacing rather than searched for;
    rounded half to even as Python's round(), and clamped at the table's
    ends; finite temperatures only.
    """
    t = np.clip(_finite(temp_k, "temp_k"), _BLACKBODY_T[0], _BLACKBODY_T[-1])
    # t - 1000 is exact and the division rounds monotonically, so its floor is never
    # below the interval, and above it only when t lies just below the sample it rounds to.
    lo = np.minimum(((t - _BLACKBODY_T[0]) / 2000.0).astype(np.intp), len(_BLACKBODY_T) - 2)
    lo -= t < _BLACKBODY_T[lo]
    frac = (t - _BLACKBODY_T[lo]) / 2000.0
    c0, step = np.take(_BLACKBODY_C, lo, axis=0), np.take(_BLACKBODY_STEP, lo, axis=0)
    return np.rint(c0 + frac[..., None] * step).astype(np.uint8)


def disc_radius_px(vmag):
    """Linear ramp 6.0 mag -> 1 px, 0.0 mag -> 6 px, clamped to [1, 6]; finite vmag only."""
    return np.clip(1.0 + (6.0 - _finite(vmag, "vmag")) * (5.0 / 6.0), 1.0, 6.0)


def _divide(ar, ai, br, bi):
    """Real and imaginary parts of a / b, computed as CPython divides complex numbers."""
    by_real = np.abs(br) >= np.abs(bi)
    ratio = np.where(by_real, bi / br, br / bi)
    denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
    return (np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom,
            np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom)


def _project(sky: BoostedCatalog, projection: str, hemisphere: str):
    """Unit-disc coordinates (u, v) of every star and whether it is drawable.

    Stereographic views project through the pole opposite the hemisphere;
    a star exactly at the excluded pole has no image, and one beyond the
    equator lies outside the panel's disc.  Orthographic views simply cull
    the far hemisphere.  The steps are Python's complex arithmetic written
    out over the columns, so the coordinates match it bit for bit.
    """
    z1r, z1i, z2r, z2i = sky.z1.real, sky.z1.imag, sky.z2.real, sky.z2.imag
    if projection == "stereographic":
        if hemisphere == "south":  # w = conj(z2 / z1) = conj(z2) / conj(z1)
            z1r, z1i, z2r, z2i = z2r, -z2i, z1r, -z1i
        u, v = _divide(z1r, z1i, z2r, z2i)
        return u, v, ~(np.hypot(z2r, z2i) <= _INFINITY_EPS) & ~(np.hypot(u, v) > 1.0)
    # Orthographic: (x1, x2)/r = 2 z1 conj(z2) with the rear hemisphere
    # culled; the south view is seen from below, mirroring the second axis.
    # float_power is libm pow, as Python's x ** 2; np.square rounds differently.
    ar, ai = 2.0 * z1r, 2.0 * z1i
    u, v = ar * z2r - ai * -z2i, ar * -z2i + ai * z2r
    x3 = np.float_power(np.hypot(z2r, z2i), 2.0) - np.float_power(np.hypot(z1r, z1i), 2.0)
    if hemisphere == "north":
        return u, v, ~(x3 < 0.0)
    return u, -v, ~(x3 > 0.0)


def _panels(spec: RenderSpec) -> list[tuple[str, float, float, float]]:
    """(hemisphere, center_x, center_y, scale) for each drawn panel."""
    if spec.hemisphere == "both":
        half = spec.width / 2.0
        radius = min(half, spec.height) / 2.0 - _MARGIN
        return [("north", half / 2.0, spec.height / 2.0, radius),
                ("south", half + half / 2.0, spec.height / 2.0, radius)]
    radius = min(spec.width, spec.height) / 2.0 - _MARGIN
    return [(spec.hemisphere, spec.width / 2.0, spec.height / 2.0, radius)]


def _placements(sky: BoostedCatalog, spec: RenderSpec
                ) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], int]:
    """Discs (x, y, radius, rgb rows) in draw order, plus the dropped count.

    Draw order is catalog order, and each star's panels left to right.
    """
    panels = _panels(spec)
    with np.errstate(divide="ignore", invalid="ignore"):
        views = [_project(sky, spec.projection, hemi) for hemi, _, _, _ in panels]
        x = np.stack([cx + scale * u for (u, _, _), (_, cx, _, scale) in zip(views, panels)], 1)
        y = np.stack([cy - scale * v for (_, v, _), (_, _, cy, scale) in zip(views, panels)], 1)
    shown = np.stack([ok for _, _, ok in views], 1)
    star = np.nonzero(shown)[0]
    dropped = len(sky) - int(shown.any(axis=1).sum())
    return (x[shown], y[shown], disc_radius_px(sky.vmag[star]),
            blackbody_rgb(sky.temp_k[star])), dropped


def render(sky: BoostedCatalog, spec: RenderSpec,
           diagnostics: IO[str] | None = None) -> bytes:
    """Render the star field to image bytes (SVG text or binary PPM).

    Stars that cannot be represented (at an excluded pole, or outside the
    visible hemisphere) are dropped; their count goes to ``diagnostics``
    (stderr by default) when non-zero.  The stars are placed a chunk of
    :data:`~lorentzsky._text.CHUNK` at a time: an SVG gets each chunk's
    circles as it is placed (see :func:`_render_svg`), a PPM rasterises the
    discs of all chunks at once.
    """
    dropped = 0

    def chunks():  # each chunk's discs, adding its dropped stars to dropped
        nonlocal dropped
        # An empty sky is one empty chunk, so a PPM still gets its (empty) disc columns.
        for rows in _text.chunks(len(sky)) if len(sky) else [slice(0, 0)]:
            placed, n = _placements(BoostedCatalog(*(getattr(sky, f.name)[rows]
                                                     for f in fields(sky))), spec)
            dropped += n
            yield placed

    if spec.format == "svg":
        image = _render_svg(chunks(), spec)
    else:
        image = _render_ppm([np.concatenate(col) for col in zip(*chunks())], spec)
    if dropped:
        out = diagnostics if diagnostics is not None else sys.stderr
        print(f"dropped {dropped} star(s) not representable in this projection",
              file=out)
    return image


def _render_svg(chunks, spec: RenderSpec) -> bytes:
    """The SVG text: a background, a ring per panel and a circle per disc.

    Each chunk's circles are appended to one buffer as the bytes of
    ``'<circle cx="%.3f" cy="%.3f" r="%.3f" fill="#%06x"/>'``:
    :func:`~lorentzsky._text.fixed3` fields for the three numbers, hex digit
    pairs for the color, joined with the constant pieces.  A coordinate
    within 2^-12 of a rounding tie once scaled by 1000, or not below 1e8,
    takes Python's '%.3f' text instead.
    """
    bg = "#{:02x}{:02x}{:02x}".format(*_BACKGROUND)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.width}" '
        f'height="{spec.height}" viewBox="0 0 {spec.width} {spec.height}">',
        f'<rect width="{spec.width}" height="{spec.height}" fill="{bg}"/>',
    ]
    for _, cx, cy, radius in _panels(spec):
        lines.append(f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="{radius:.3f}" '
                     'fill="none" stroke="#303030" stroke-width="1"/>')
    out = io.BytesIO()   # getvalue() hands over its bytes without a copy
    out.write(("\n".join(lines) + "\n").encode("ascii"))
    for x, y, rad, rgb in chunks:
        out.write(_text.join_rows([b'<circle cx="', _text.fixed3(x), b'" cy="', _text.fixed3(y),
                                   b'" r="', _text.fixed3(rad),
                                   b'" fill="#', _text.hex_colors(rgb), b'"/>\n']))
    out.write(b"</svg>\n")
    return out.getvalue()


def _render_ppm(placed, spec: RenderSpec) -> bytes:
    """Discs filled where (x + 0.5 - cx)^2 + (y + 0.5 - cy)^2 <= r^2, later discs on top.

    Each pixel takes the color of the last disc covering it: the largest
    draw index.  The test is monotone in |x + 0.5 - cx| along a row, so a
    disc covers one span per row, whose ends are estimated from
    cx - 0.5 -+ sqrt(r^2 - dy^2).  An estimate within 1e-6 px of a whole
    number, or on a half-chord below 1e-3 px, can be one pixel off, and only
    there is the end settled by the test at the estimate and one pixel either
    side.  Discs are taken in order of their top row: the rows clamped to the
    image height are whole numbers, and below 65536 rows their 16-bit keys go
    through numpy's stable radix sort.  A span is two 2**k-pixel blocks in
    the tables of its chunk's band of rows, folded down a level at a time.
    """
    w, h = spec.width, spec.height
    x, y, rad, rgb = placed
    # Per pixel, 1 + the draw index of its disc, 0 for the background; int32,
    # as 2**31 discs would need > 30 GB of catalog.
    owner = np.zeros(h * w, dtype=np.int32)
    # Discs whose top is clamped to h lie below the image and draw nothing.
    top = np.minimum(np.maximum(0.0, np.floor(y - rad - 1)), h).astype(np.min_scalar_type(h))
    order = np.argsort(top, kind="stable").astype(np.int32)
    tops, start = top[order], 0
    while start < len(order) and tops[start] < h:
        b0 = int(tops[start])
        stop = min(start + _CHUNK, int(np.searchsorted(tops, b0 + _BAND)))
        disc, py = order[start:stop], tops[start:stop, None] + _ROWS
        b1, start = min(h, int(tops[stop - 1]) + len(_ROWS)), stop
        dy2, rr = (py + 0.5 - y[disc, None]) ** 2, rad[disc, None] ** 2
        rows = (dy2 <= rr) & (py < h)  # the rows a disc can reach
        per_disc = rows.sum(axis=1)
        cx, rr, drawn = (np.repeat(a, per_disc) for a in (x[disc], rr[:, 0], disc + 1))
        py, dy2 = py[rows], dy2[rows]
        s = np.sqrt(rr - dy2)
        left, right = cx - 0.5 - s, cx - 0.5 + s
        lo, hi = np.ceil(left), np.floor(right)
        # The test agrees with an end estimate 1e-6 px or more from a whole number on a
        # half-chord s of 1e-3 px or more: the pixels either side of it lie at least
        # 2 s 1e-6 ~ 2e-9 px^2 inside or outside r^2, while the fill test rounds by
        # < 1e-13 px^2 (r <= 6; x + 0.5 - cx is exact once |cx| >= 15) and the estimate
        # by < 1e-9 px (|cx| < 2^21).  Only the other spans, near a rim tie, are settled
        # by the test at the estimate and one pixel either side.
        tie = np.flatnonzero((s < 1e-3) | (np.abs(lo - left - 0.5) > 0.5 - 1e-6)
                             | (np.abs(right - hi - 0.5) > 0.5 - 1e-6))
        t0, t1, c, d2, r2 = lo[tie], hi[tie], cx[tie], dy2[tie], rr[tie]
        lo[tie] = np.where((t0 - 0.5 - c) ** 2 + d2 <= r2, t0 - 1,
                           np.where((t0 + 0.5 - c) ** 2 + d2 <= r2, t0, t0 + 1))
        hi[tie] = np.where((t1 + 1.5 - c) ** 2 + d2 <= r2, t1 + 1,
                           np.where((t1 + 0.5 - c) ** 2 + d2 <= r2, t1, t1 - 1))
        lo, hi = np.maximum(lo, 0.0), np.minimum(hi, w - 1.0)
        keep = lo <= hi
        lo, n1, drawn = lo[keep], (hi[keep] - lo[keep]).astype(np.intp), drawn[keep]
        size = (b1 - b0) * w
        first = (_LEVEL[n1] * size + (py[keep] - b0) * w + lo).astype(np.intp)
        # Per level k, the largest 1 + draw index of a 2**k-pixel block starting at each pixel.
        tables = np.zeros((4, size), dtype=np.int32)
        np.maximum.at(tables.reshape(-1), np.concatenate([first, first + _SHIFT[n1]]),
                      np.concatenate([drawn, drawn]))
        for k in (3, 2, 1):
            half = 1 << (k - 1)
            np.maximum(tables[k - 1], tables[k], out=tables[k - 1])
            np.maximum(tables[k - 1, half:], tables[k, :-half], out=tables[k - 1, half:])
        band = owner[b0 * w:b1 * w]
        np.maximum(band, tables[0], out=band)
    palette = np.concatenate([np.array([_BACKGROUND], dtype=np.uint8), rgb])
    img = np.empty((h * w, 3), dtype=np.uint8)
    for i in range(0, h * w, _SLAB):  # np.take copies int32 indices to intp
        np.take(palette, owner[i:i + _SLAB], axis=0, out=img[i:i + _SLAB])
    return b"".join([f"P6\n{w} {h}\n255\n".encode("ascii"), img])
