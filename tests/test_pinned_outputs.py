"""Output bytes pinned to SHA-256 hashes taken from earlier writers.

The per-star pipeline (one object per star, one disc at a time) wrote
the images and JSON summaries of the seeded 2000-star catalog; the
edge-value summaries were written by building one dict per star and
calling json.dumps.  The present code must write the same bytes.  The
seeded catalog includes both poles and the equator and temperatures past
both ends of the color table.
"""

import hashlib
import math
import random

import pytest

from lorentzsky.cli import cli_main


def _catalog_text() -> str:
    rng = random.Random(20261018)
    rows = ["name,ra_deg,dec_deg,vmag,temp_k",
            "north_pole,0.0,90.0,1.0,6000", "south_pole,45.0,-90.0,1.5,4000",
            "equator,90.0,0.0,0.5,30000"]
    for i in range(2000 - 3):
        ra = rng.uniform(0.0, 359.999)
        dec = math.degrees(math.asin(rng.uniform(-1.0, 1.0)))
        rows.append(f"s{i},{ra:.5f},{dec:.5f},{rng.uniform(-2.0, 8.0):.3f},"
                    f"{rng.uniform(500.0, 40000.0):.1f}")
    return "\n".join(rows) + "\n"


@pytest.fixture
def catalog_dir(tmp_path, monkeypatch):
    (tmp_path / "stars.csv").write_text(_catalog_text())
    monkeypatch.chdir(tmp_path)  # relative paths: --json echoes --out
    return tmp_path


# (format, projection, hemisphere, stars dropped, SHA-256 of the image) at chi = 1.3
IMAGES = [
    ("svg", "stereographic", "north", 137,
     "83c78fdba62c464bb479f1463ba1d30bc20227480aaa6a7cc1b3497c639e0498"),
    ("svg", "stereographic", "south", 1863,
     "0f13763b1d9b8b492c37174cf12b4456defffb311d289e71397d2409d32c2122"),
    ("svg", "stereographic", "both", 0,
     "3497855d267c230ce6dbe23b1667de79db17ca4e37e7b8bb8cf9ead98a5db2ce"),
    ("svg", "orthographic", "north", 137,
     "ed813a3ea5edba0e91bb1d9f6a37dc70f8aee69d1729a6d89892a3ee1bcee671"),
    ("svg", "orthographic", "south", 1863,
     "15a7b52fa23b30a7224569df71662a5e30f38dbcec34aaae4dce8a2c63b75828"),
    ("svg", "orthographic", "both", 0,
     "fd547967054e3a0eeca8feb7e0c4ee5c61d1cbe1c17539050d049a7913d9a835"),
    ("ppm", "stereographic", "north", 137,
     "99054f58f01a9e78cf9affc15718b178c6adc8b8e7b50eac825bdb42cfaf81c5"),
    ("ppm", "stereographic", "south", 1863,
     "13114cebedf810dfca619a227b6784043798644925ca9123da867e886267d048"),
    ("ppm", "stereographic", "both", 0,
     "e40e6bc02194a664e664ccb9a019a7d745e4add74fecbc36fc51ae6115541edc"),
    ("ppm", "orthographic", "north", 137,
     "791c3ad0e06698e629f23161d8d2989c7193d11ffcf9ec41ac82c7aa46382546"),
    ("ppm", "orthographic", "south", 1863,
     "1102f67e4db86c12a00b0a5bfa96233f1dd9709c067af22d632582c0ef5b7b64"),
    ("ppm", "orthographic", "both", 0,
     "7ce263a082d9a69891149829f691ed407146a6f8dc7296400a3dad4bb71ffe33"),
]


@pytest.mark.parametrize("fmt, projection, hemisphere, dropped, digest", IMAGES)
def test_image_bytes_are_pinned(catalog_dir, capsys, fmt, projection, hemisphere,
                                dropped, digest):
    assert cli_main(["render", "--chi", "1.3", "--input", "stars.csv",
                     "--out", f"sky.{fmt}", "--format", fmt, "--projection", projection,
                     "--hemisphere", hemisphere, "--width", "240", "--height", "160"]) == 0
    err = capsys.readouterr().err
    assert err == (f"dropped {dropped} star(s) not representable in this projection\n"
                   if dropped else "")
    assert hashlib.sha256((catalog_dir / f"sky.{fmt}").read_bytes()).hexdigest() == digest


# (chi, SHA-256 of the render --json stdout)
JSON_SUMMARIES = [
    ("0.6931471805599453", "f353935c7eebaf254e5d503408a6d8d1769ca8a9f232a09e806c448538e92c98"),
    ("-2.5", "611fab43b7cc032842b2ce6e67acd47a6113da9187cf8b977fe476d545806482"),
]


@pytest.mark.parametrize("chi, digest", JSON_SUMMARIES)
def test_json_summary_is_pinned(catalog_dir, capsys, chi, digest):
    assert cli_main(["render", "--chi", chi, "--input", "stars.csv",
                     "--out", "sky.svg", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# Values where a number's shortest repr is not its 12-digit "{:.12}" text:
# subnormal D T (temp_k 5e-324, 1e-310 and 1e-300), D T between 1e11 and
# 1e16 (chi 17 and 25 at T = 30000) and past it, magnitudes 0 and -0.0, and
# names that JSON must escape.
EDGE_CATALOG = """name,ra_deg,dec_deg,vmag,temp_k
tiny_north,0.0,90.0,0.0,1e-310
tiny_south,0.0,-90.0,-0.0,1e-300
tiny_mid,45.0,30.0,-0.0,1e-310
least_subnormal,80.0,90.0,0.0,5e-324
hot_north,10.0,90.0,0.0,30000
hot_high,20.0,75.0,-0.0,30000
hot_equator,30.0,0.0,1.0,30000
hot_south,40.0,-90.0,-0.0,30000
huge_north,50.0,90.0,2.5,1e6
"Alpha ""Cen"" \\ A",60.0,-30.0,0.0,5778
Ωmega ★,70.0,89.999,-1.5,12345.6789
"""

# (chi, SHA-256 of the render --json stdout)
EDGE_SUMMARIES = [
    ("0", "05f3b9d74ac25846138c966a11d53fc16c5c4c8fc53e34437c987d8865da50fd"),
    ("17", "895782c6bcd809fe6d104750eac5f981e2ca56b3aecbf2ae969c7ffa40c9ea26"),
    ("25", "1dc07f5189f1101d71794a06b46df72ecedccdb78f8e37b1c153bc862900bfaa"),
]


@pytest.mark.parametrize("chi, digest", EDGE_SUMMARIES)
def test_json_summary_edge_values_are_pinned(tmp_path, monkeypatch, capsys, chi, digest):
    (tmp_path / "edge.csv").write_text(EDGE_CATALOG, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert cli_main(["render", "--chi", chi, "--input", "edge.csv",
                     "--out", "sky.svg", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
