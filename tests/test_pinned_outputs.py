"""Output bytes pinned to SHA-256 hashes taken before the columnar rewrite.

The per-star pipeline (one object per star, one disc at a time) wrote
these images and JSON summaries; the column pipeline must write the same
bytes.  The seeded 2000-star catalog includes both poles and the equator
and temperatures past both ends of the color table.
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
