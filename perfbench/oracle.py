"""Independent correctness checks for the sky workloads' outputs.

Nothing here imports ``lorentzsky``: the expected photometry and the
panel membership of every star come from numpy, evaluated on the
generated catalog text.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import re

import numpy as np

# Fixed before any output was seen, relative to max(1, |expected|): the CLI
# prints 12 significant digits, so a gap beyond rounding plus a few ulps of
# the formula is an error.
PHOTOMETRY_RTOL = 1e-9
# Stars whose boosted |z| lies this close to 1 sit on the equator, where
# either panel may claim them; the checks accept both outcomes there.
EQUATOR_BAND = 1e-9

_DROPPED = re.compile(r"dropped (\d+) star")


def _catalog_columns(catalog_text: str) -> tuple[list[str], np.ndarray]:
    names = [line.split(",", 1)[0] for line in catalog_text.splitlines()[1:] if line]
    cols = np.loadtxt(io.StringIO(catalog_text), delimiter=",", skiprows=1,
                      usecols=(1, 2, 3, 4), ndmin=2)
    return names, cols


def expected_photometry(chi: float, dec_deg: np.ndarray, vmag: np.ndarray,
                        temp_k: np.ndarray) -> dict[str, np.ndarray]:
    """D = e^chi cos^2(theta/2) + e^-chi sin^2(theta/2), theta = 90 - dec."""
    half = 0.5 * np.radians(90.0 - dec_deg)
    d = math.exp(chi) * np.cos(half) ** 2 + math.exp(-chi) * np.sin(half) ** 2
    return {"doppler": d, "temp_k": d * temp_k, "vmag": vmag - 10.0 * np.log10(d)}


def expected_panel_counts(params: dict, dec_deg: np.ndarray) -> dict[str, tuple[int, int]]:
    """(low, high) bounds on placed discs and dropped stars.

    The boost maps z = e^{i phi} tan(theta/2) to e^{-chi} z.  In both
    projections the north panel shows |z'| <= 1 and the south panel
    |z'| >= 1.
    """
    with np.errstate(divide="ignore", over="ignore"):
        log_rho = -params["chi"] + np.log(np.tan(0.5 * np.radians(90.0 - dec_deg)))
    edge = np.abs(log_rho) <= EQUATOR_BAND
    north, south = (log_rho < 0) & ~edge, (log_rho > 0) & ~edge
    n_edge = int(edge.sum())
    shown = {"north": int(north.sum()), "south": int(south.sum())}
    if params["hemisphere"] == "both":
        placed = shown["north"] + shown["south"]
        return {"placed": (placed + n_edge, placed + 2 * n_edge), "dropped": (0, 0)}
    placed = shown[params["hemisphere"]]
    dropped = len(dec_deg) - placed - n_edge
    return {"placed": (placed, placed + n_edge), "dropped": (dropped, dropped + n_edge)}


def dropped_count(stderr_text: str) -> int:
    """Star count of render's "dropped N star(s)" line; 0 when absent."""
    m = _DROPPED.search(stderr_text)
    return int(m.group(1)) if m else 0


def _within(value: int, bounds: tuple[int, int]) -> bool:
    return bounds[0] <= value <= bounds[1]


def check_sky(params: dict, catalog_text: str, image: bytes, stdout_text: str,
              stderr_text: str, reference_sha256: str | None) -> list[str]:
    """Every mismatch between one pass's outputs and the oracle, as text."""
    problems = []
    names, cols = _catalog_columns(catalog_text)
    _, dec, vmag, temp = cols.T
    bounds = expected_panel_counts(params, dec)
    n_panels = 2 if params["hemisphere"] == "both" else 1
    w, h = params["width"], params["height"]

    if params["format"] == "svg":
        circles = image.count(b"<circle ")
        if not image.startswith(b"<?xml") or not image.rstrip().endswith(b"</svg>"):
            problems.append("svg: not a complete SVG document")
        if not _within(circles - n_panels, bounds["placed"]):
            problems.append(f"svg: {circles} circles, expected {n_panels} panels plus "
                            f"{bounds['placed']} stars")
    else:
        header = f"P6\n{w} {h}\n255\n".encode("ascii")
        if not image.startswith(header):
            problems.append(f"ppm: header {image[:20]!r}, expected {header!r}")
        if len(image) != len(header) + w * h * 3:
            problems.append(f"ppm: {len(image)} bytes, expected {len(header) + w * h * 3}")

    dropped = dropped_count(stderr_text)
    if not _within(dropped, bounds["dropped"]):
        problems.append(f"render: dropped {dropped}, expected {bounds['dropped']}")

    if params["json"]:
        problems.extend(_check_photometry(params["chi"], names, dec, vmag, temp, stdout_text))
    elif stdout_text:
        problems.append("stdout: output without --json")

    if reference_sha256 is not None:
        digest = hashlib.sha256(image).hexdigest()
        if digest != reference_sha256:
            problems.append(f"image sha256 {digest} differs from the reference")
    return problems


def _check_photometry(chi, names, dec, vmag, temp, stdout_text) -> list[str]:
    try:
        payload = json.loads(stdout_text)
        stars = payload["stars"]
        got_names = [s["name"] for s in stars]
        got = {k: np.array([float(s[k]) for s in stars]) for k in ("doppler", "temp_k", "vmag")}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"json: unreadable summary ({type(exc).__name__}: {exc})"]
    if payload.get("count") != len(names) or got_names != names:
        return [f"json: {len(got_names)} stars (count {payload.get('count')}), "
                f"expected {len(names)} in catalog order"]
    want = expected_photometry(chi, dec, vmag, temp)
    problems = []
    for key, expected in want.items():
        err = np.abs(got[key] - expected) / np.maximum(1.0, np.abs(expected))
        bad = int((~(err <= PHOTOMETRY_RTOL)).sum())
        if bad:
            worst = int(np.argmax(np.nan_to_num(err, nan=np.inf)))
            problems.append(f"json: {bad} {key} value(s) off, worst {names[worst]} "
                            f"got {float(got[key][worst])!r} expected {float(expected[worst])!r}")
    return problems
