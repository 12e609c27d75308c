import csv
import io
import math

import numpy as np
import pytest

from lorentzsky import (Catalog, MoebiusTransform, PolarAngles, SpherePoint, doppler,
                        from_polar, load_catalog, to_polar, transform_catalog)
from lorentzsky.errors import ParseError, RangeError
from lorentzsky.sphere import _NORM_SKIP
from lorentzsky.starfield import _normalized

LN2 = 0.6931471805599453

HEADER = "name,ra_deg,dec_deg,vmag,temp_k\n"


def _catalog(*rows):
    """Catalog from (name, ra_deg, dec_deg, vmag[, temp_k]) rows; temp defaults to 5778."""
    rows = [row if len(row) == 5 else (*row, 5778.0) for row in rows]
    return Catalog(*(list(col) for col in zip(*rows))) if rows else Catalog([], [], [], [], [])


def _points(sky):
    return [SpherePoint(z1, z2) for z1, z2 in zip(sky.z1.tolist(), sky.z2.tolist())]


def _unboosted_point(catalog, i):
    """The star's direction by the scalar chain, colatitude from +x3."""
    return from_polar(PolarAngles(math.radians(90.0 - float(catalog.dec_deg[i])),
                                  math.radians(float(catalog.ra_deg[i]))))


def test_header_only_catalog_is_empty():
    assert len(load_catalog(io.StringIO(HEADER))) == 0


def test_single_row_parses_with_expected_colatitude():
    stars = load_catalog(io.StringIO(HEADER + "Polaris,37.95,89.26,1.98,7000\n"))
    assert len(stars) == 1
    assert stars.names == ("Polaris",)
    assert stars.temp_k[0] == 7000.0
    (q,) = _points(transform_catalog(stars, 0.0))
    assert to_polar(q).theta == pytest.approx(math.radians(90.0 - 89.26), abs=1e-15)
    assert to_polar(q).theta == pytest.approx(0.0129154, abs=1e-7)


def test_temp_column_is_optional():
    stars = load_catalog(io.StringIO("name,ra_deg,dec_deg,vmag\nVega,279.23,38.78,0.03\n"))
    assert stars.temp_k[0] == 5778.0


def test_malformed_rows_raise_parse_error():
    with pytest.raises(ParseError) as exc_info:
        load_catalog(io.StringIO(HEADER + "A,1,2,3\n"))
    assert exc_info.value.line == 2

    with pytest.raises(ParseError) as exc_info:
        load_catalog(io.StringIO(HEADER + "A,1,2,3,not_a_number\n"))
    assert "temp_k" in exc_info.value.reason

    with pytest.raises(ParseError):
        load_catalog(io.StringIO("wrong,header,row\n"))

    with pytest.raises(ParseError):
        load_catalog(io.StringIO(""))


def test_out_of_range_values_raise_range_error():
    with pytest.raises(RangeError):
        load_catalog(io.StringIO(HEADER + "A,10,95,3,5000\n"))
    with pytest.raises(RangeError):
        load_catalog(io.StringIO(HEADER + "A,370,0,3,5000\n"))
    with pytest.raises(RangeError):
        load_catalog(io.StringIO(HEADER + "A,10,0,3,-5\n"))
    with pytest.raises(RangeError):
        _catalog(("A", 0.0, 0.0, 0.0, 0.0))


def test_errors_name_the_first_bad_line():
    good = "A,1,2,3,4000\n"
    # blank lines count towards the line number
    text = HEADER + good + "\n" + "B,1,95,3,4000\n" + "C,1,2,x,4000\n"
    with pytest.raises(RangeError, match=r"^line 4: dec_deg = 95.0 outside \[-90, 90\]$"):
        load_catalog(io.StringIO(text))
    text = HEADER + good + "C,1,2,x,4000\n" + "B,1,95,3,4000\n"
    with pytest.raises(ParseError, match=r"^line 3: column vmag: not a number: 'x'$"):
        load_catalog(io.StringIO(text))
    # a quoted name spanning two lines counts both
    text = HEADER + '"two\nlines",1,2,3,4000\n' + "B,1,95,3,4000\n"
    with pytest.raises(RangeError, match=r"^line 4: dec_deg = 95.0 outside \[-90, 90\]$"):
        load_catalog(io.StringIO(text))
    # one row failing several checks reports the first, finiteness first
    with pytest.raises(RangeError, match=r"^line 2: vmag must be finite, got nan$"):
        load_catalog(io.StringIO(HEADER + "A,400,2,nan,-1\n"))
    # a fault far down still names its line
    rows = [f"s{i},1,2,3,4000\n" for i in range(10_000)]
    rows[9000] = "bad,360,2,3,4000\n"
    with pytest.raises(RangeError, match=r"^line 9002: ra_deg = 360.0 outside \[0, 360\)$"):
        load_catalog(io.StringIO(HEADER + "".join(rows) + "x,1,2\n"))
    with pytest.raises(RangeError, match=r"^star 1 \(B\): temp_k = -5.0 must be positive$"):
        _catalog(("A", 1.0, 2.0, 3.0), ("B", 1.0, 2.0, 3.0, -5.0))


def test_overlong_field_raises_parse_error():
    limit = csv.field_size_limit()
    with pytest.raises(ParseError, match=r"^line 2: field larger than field limit"):
        load_catalog(io.StringIO(HEADER + "x" * 200_000 + ",1,2,3,4000\n"))
    with pytest.raises(ParseError, match=r"^line 1: field larger than field limit"):
        load_catalog(io.StringIO("x" * 200_000 + "\n"))
    # an out-of-range value on an earlier line still comes first
    with pytest.raises(RangeError, match=r"^line 2: dec_deg"):
        load_catalog(io.StringIO(HEADER + "A,1,95,3,4000\n" + "x" * 200_000 + ",1,2,3,4000\n"))
    assert csv.field_size_limit() == limit


_BODY = HEADER.encode() + b"a,1,2,3,4\n"
# file bytes, the error expected, its message
NOT_UTF8 = {
    "plain line": (_BODY + b"b\xff,1,2,3,4\nc,1,2,3,4\n", ParseError,
                   "line 3: not UTF-8: byte 0xff"),
    "header": (b"name,ra_deg,dec\xe9_deg,vmag\na,1,2,3\n", ParseError,
               "line 1: not UTF-8: byte 0xe9"),
    "CR line endings": (b"name,ra_deg,dec_deg,vmag\ra,1,2,3\rb,1,2,3\r\xc3(,1,2,3\r", ParseError,
                        "line 4: not UTF-8: byte 0xc3"),
    "CRLF line endings": (b"name,ra_deg,dec_deg,vmag\r\na,1,2,3\r\nb,1,2,3\xe2\x82\r\n",
                          ParseError, "line 3: not UTF-8: byte 0xe2"),
    "quoted multi-line name": (_BODY + b'"two\nli\x80nes",1,2,3,4\n', ParseError,
                               "line 4: not UTF-8: byte 0x80"),
    "last byte, cut sequence": (_BODY + b"\xe2\x82", ParseError, "line 3: not UTF-8: byte 0xe2"),
    "after a long plain part": (_BODY + b"b,1,2,3,4\n" * 40_000 + b"\xff\n", ParseError,
                                "line 40003: not UTF-8: byte 0xff"),
    # an error on an earlier line comes first
    "after an out-of-range value": (_BODY + b"b,1,95,3,4\nc,1,2,3,4\n\xff,1,2,3,4\n", RangeError,
                                    "line 3: dec_deg = 95.0 outside [-90, 90]"),
    "after an out-of-range quoted row": (_BODY + b'"b",1,2,3,-4\nc\xff,1,2,3,4\n', RangeError,
                                         "line 3: temp_k = -4.0 must be positive"),
    "after a bad row": (_BODY + b"b,1,2\n\xff,1,2,3,4\n", ParseError,
                        "line 3: expected 5 columns, got 3"),
}


@pytest.mark.parametrize("data, error, message", NOT_UTF8.values(), ids=NOT_UTF8)
def test_a_file_that_is_not_utf8_names_its_line(tmp_path, data, error, message):
    path = tmp_path / "stars.csv"
    path.write_bytes(data)
    with pytest.raises(error) as exc_info:
        load_catalog(path)
    assert str(exc_info.value) == message
    # a stream lets its decoder's error out
    with open(path, encoding="utf-8", newline="") as fh, pytest.raises(UnicodeDecodeError):
        load_catalog(fh)


def test_chi_zero_is_identity():
    stars = _catalog(("A", 10.0, 20.0, 3.0, 6000.0), ("B", 200.0, -45.0, 5.5, 11000.0))
    sky = transform_catalog(stars, 0.0)
    for i, q_after in enumerate(_points(sky)):
        assert q_after == _unboosted_point(stars, i)
    assert (sky.doppler == 1.0).all()
    assert np.array_equal(sky.temp_k, stars.temp_k)
    assert np.array_equal(sky.vmag, stars.vmag)


def test_pole_star_photometry_at_ln2():
    stars = _catalog(("pole", 0.0, 90.0, 2.0, 6000.0))
    sky = transform_catalog(stars, LN2)
    (q_after,) = _points(sky)
    assert q_after.distance_to(_unboosted_point(stars, 0)) <= 1e-12
    assert sky.doppler[0] == pytest.approx(2.0, abs=1e-12)
    assert sky.temp_k[0] == pytest.approx(12000.0, abs=1e-9)
    assert sky.vmag[0] == pytest.approx(2.0 - 10.0 * math.log10(2.0), abs=1e-12)


def test_equator_star_lands_on_half_angle_law():
    (q_after,) = _points(transform_catalog(_catalog(("eq", 90.0, 0.0, 3.0)), LN2))
    assert to_polar(q_after).theta == pytest.approx(2.0 * math.atan(0.5), abs=1e-12)


def test_contraction_direction_and_order_preserved(rng):
    stars = _catalog(*[(f"s{i}", float(rng.uniform(0, 360)),
                        float(rng.uniform(-89.9, 89.9)), 4.0)
                       for i in range(200)])
    out = transform_catalog(stars, 0.8)
    assert out.names == stars.names
    before = [to_polar(q).theta for q in _points(transform_catalog(stars, 0.0))]
    for theta_before, q_after in zip(before, _points(out)):
        assert to_polar(q_after).theta < theta_before
    out_back = transform_catalog(stars, -0.8)
    for theta_before, q_after in zip(before, _points(out_back)):
        assert to_polar(q_after).theta > theta_before


def test_forward_fraction_monotone_in_chi(rng):
    stars = _catalog(*[(f"s{i}", float(rng.uniform(0, 360)),
                        float(math.degrees(math.asin(rng.uniform(-1, 1)))), 4.0)
                       for i in range(500)])
    fractions = []
    for chi in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
        out = transform_catalog(stars, chi)
        forward = sum(1 for q in _points(out) if to_polar(q).theta < math.pi / 2)
        fractions.append(forward / len(out))
    assert fractions == sorted(fractions)


def test_photometric_round_trip(rng):
    stars = _catalog(*[(f"s{i}", float(rng.uniform(0, 360)),
                        float(rng.uniform(-89.0, 89.0)), float(rng.uniform(-1, 6)),
                        float(rng.uniform(3000, 30000)))
                       for i in range(100)])
    chi = 1.1
    once = transform_catalog(stars, chi)
    # re-seat each star at its aberrated position and boost back
    polar = [to_polar(q) for q in _points(once)]
    intermediate = Catalog(once.names,
                           [math.degrees(p.phi) % 360.0 for p in polar],
                           [90.0 - math.degrees(p.theta) for p in polar],
                           once.vmag, once.temp_k)
    back = transform_catalog(intermediate, -chi)
    assert back.temp_k == pytest.approx(stars.temp_k, abs=1e-9)
    assert back.vmag == pytest.approx(stars.vmag, abs=1e-9)


@pytest.mark.parametrize("chi", [0.0, LN2, 2.0, -1.3, 7.5, -40.0])
def test_transform_equals_the_scalar_chain(rng, chi):
    """Every column is bit-identical to the per-star formulas of sphere and celestial."""
    n = 3000
    stars = Catalog([f"s{i}" for i in range(n + 3)],
                    np.append(rng.uniform(0.0, 360.0, n), [0.0, 45.0, 90.0]),
                    np.append(np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, n))),
                              [90.0, -90.0, 0.0]),
                    np.append(rng.uniform(-1.0, 7.0, n), [1.0, 2.0, 3.0]),
                    np.append(rng.uniform(2500.0, 30000.0, n), [6000.0, 4000.0, 9000.0]))
    sky = transform_catalog(stars, chi)
    boost = MoebiusTransform.dilation(chi)
    for i in range(len(stars)):
        theta = math.radians(90.0 - float(stars.dec_deg[i]))
        q = boost.apply(_unboosted_point(stars, i))
        d = doppler(chi, theta)
        assert (sky.z1[i], sky.z2[i]) == (q.z1, q.z2)
        assert sky.doppler[i] == d
        assert sky.temp_k[i] == d * float(stars.temp_k[i])
        assert sky.vmag[i] == float(stars.vmag[i]) - 10.0 * math.log10(d)


def _normalized_by_math_hypot(z1r, z1i, z2r, z2i):
    """The norm by math.hypot on every row, as the scalar SpherePoint takes it."""
    norm = np.array(list(map(math.hypot, np.hypot(z1r, z1i).tolist(),
                             np.hypot(z2r, z2i).tolist())))
    norm[np.abs(norm - 1.0) <= _NORM_SKIP] = 1.0
    return z1r / norm, z1i / norm, z2r / norm, z2i / norm


def test_normalized_equals_math_hypot_on_every_row(rng):
    n = 20000
    z = rng.normal(size=(4, n)) * rng.choice([1e-300, 1e-3, 1.0, 1e3, 1e300], size=n)
    unit = z / np.hypot(np.hypot(z[0], z[1]), np.hypot(z[2], z[3]))
    # pairs around unit length: within an ulp, and at and across 1 +- _NORM_SKIP (/ 2)
    scale = 1.0 + rng.choice([0.0, 2.2e-16, -4.4e-16, 0.5 * _NORM_SKIP, -_NORM_SKIP,
                              0.99 * _NORM_SKIP, 1.01 * _NORM_SKIP, 1e-12, 3.0], size=n)
    near = unit * scale
    special = np.array([[0.0, 0.0, 1.0, 0.0], [np.nan, 0.0, 1.0, 0.0],
                        [np.inf, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0]]).T
    for cols in (z, unit, near, special):
        with np.errstate(invalid="ignore", divide="ignore"):
            got, want = _normalized(*cols), _normalized_by_math_hypot(*cols)
        for a, b in zip(got, want):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("chi", [0.0, LN2, 2.0, -7.5])
def test_both_normalizations_of_the_transform_equal_math_hypot(rng, chi):
    n = 20000
    ra = np.append(rng.uniform(0.0, 360.0, n), [0.0, 123.4, 0.0, 271.8])
    dec = np.append(np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, n))), [90.0, 90.0, -90.0, -90.0])
    half, phi = 0.5 * np.radians(90.0 - dec), np.radians(ra)
    s, c = np.sin(half), np.cos(half)
    first = (s * np.cos(phi), s * np.sin(phi), c, np.zeros_like(c))
    once = _normalized(*first)
    assert all(np.array_equal(a, b) for a, b in zip(once, _normalized_by_math_hypot(*first)))
    # transform_catalog skips this first normalization: it leaves the pair's bits as they are
    assert all(np.array_equal(a.view(np.int64), b.view(np.int64))
               for a, b in zip(_normalized_by_math_hypot(*first), first))
    shrink = math.exp(-0.5 * chi)
    dilated = (shrink * once[0], shrink * once[1],
               (1.0 / shrink) * once[2], (1.0 / shrink) * once[3])
    assert all(np.array_equal(a, b)
               for a, b in zip(_normalized(*dilated), _normalized_by_math_hypot(*dilated)))


@pytest.mark.parametrize("chi", [math.nan, math.inf, -math.inf, 1000.0, -710.0])
def test_transform_rejects_unusable_rapidity(chi):
    with pytest.raises(RangeError, match="rapidity"):
        transform_catalog(_catalog(("A", 1.0, 2.0, 3.0)), chi)


def test_transform_rejects_overflowing_photometry():
    # e^709 is finite, but D * T for a star near the forward pole is not
    with pytest.raises(RangeError, match="overflows the boosted temperatures"):
        transform_catalog(_catalog(("A", 1.0, 89.0, 3.0, 30000.0)), 709.0)
