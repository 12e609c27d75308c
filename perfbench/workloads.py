"""Workload definitions, seeded input generators and the tracer.

The generators use the benchmark's own numpy code, never
``lorentzsky.sampling``, so a change to the library cannot change the
inputs it is measured on.  Nothing here imports ``lorentzsky``; the worker
and the table script import it from the checkout under test.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LN2 = math.log(2.0)

# Each workload's parameters; BENCHMARK.json carries the same settings in
# its one-line "why", and NOTES.md explains the choice.
WORKLOADS = {
    # The default user path: per-star objects in starfield and the cli's
    # per-star JSON summary dominate; the raster is not used.
    "sky_svg_json": {
        "kind": "sky", "stars": 100_000, "chi": LN2,
        "projection": "stereographic", "hemisphere": "both",
        "format": "svg", "json": True, "width": 800, "height": 800,
    },
    # The raster loop in render dominates: a strong boost crowds stars
    # forward, Doppler brightening pushes many discs to the 6 px cap and
    # the rear hemisphere is culled.
    "sky_ppm_north": {
        "kind": "sky", "stars": 50_000, "chi": 2.0,
        "projection": "orthographic", "hemisphere": "north",
        "format": "ppm", "json": False, "width": 800, "height": 800,
    },
    # The group-algebra layers, which the catalog path never calls.
    # Entries of magnitude <= 3 keep the rapidity below ~3.6, far from the
    # chi ~ 17 limit of the determinant sign (ROADMAP item 4).
    "group_batch": {
        "kind": "group", "elements": 3000, "max_entry": 3.0,
        "radii": (1e2, 1e3, 1e4, 1e5, 1e6, 1e7),
    },
}

CATALOG_HEADER = "name,ra_deg,dec_deg,vmag,temp_k"

GROUP_LAYERS = ("minkowski", "spin", "decompose", "celestial", "sphere")
GROUP_CALLS = ("minkowski.validate_lorentz", "minkowski.classify_component",
               "spin.sl2c_to_lorentz", "spin.lift_lorentz_to_sl2c",
               "decompose.standard_decompose", "decompose.recompose",
               "celestial.act_exact", "celestial.act_asymptotic",
               "sphere.moebius_apply")

# Every per-layer metric a traced run reports, with its unit; BENCHMARK.json
# lists the same names under "per_layer".
LAYER_UNITS = {
    "cli.total_s": "s",
    "cli.self_s": "s",
    "starfield.load_catalog_us_per_star": "us",
    "starfield.transform_us_per_star": "us",
    "starfield.stars_parsed": "count",
    "render.us_per_star": "us",
    "render.output_bytes": "bytes",
    "render.stars_dropped": "count",
    "render.drawn_ratio": "ratio",
    **{f"{name}_us": "us" for name in GROUP_CALLS},
    **{f"{layer}.{what}": "count" for layer in GROUP_LAYERS for what in ("calls", "errors")},
    "spin.lift_roundtrip_residual_max": "abs",
    "decompose.recompose_residual_max": "abs",
    "celestial.asymptotic_gap_max": "decades",
    "trace.overhead_frac": "ratio",
}


def make_catalog_csv(seed: int, n: int) -> str:
    """Catalog text: stars uniform on the sphere, vmag in [-1, 7],
    temp_k in [2500, 30000], formatted as in acceptance criterion 10."""
    rng = np.random.default_rng(seed)
    # Clamped so that the 6-decimal text can never read 360.000000.
    ra = np.minimum(rng.uniform(0.0, 360.0, n), 359.999999)
    dec = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, n)))
    vmag = rng.uniform(-1.0, 7.0, n)
    temp = rng.uniform(2500.0, 30000.0, n)
    rows = [CATALOG_HEADER]
    rows.extend(f"s{i},{a:.6f},{d:.6f},{v:.3f},{t:.1f}"
                for i, (a, d, v, t) in enumerate(zip(ra.tolist(), dec.tolist(),
                                                      vmag.tolist(), temp.tolist())))
    return "\n".join(rows) + "\n"


def sky_argv(params: dict, catalog: Path, image: Path) -> list[str]:
    """``lorentzsky render`` arguments for a sky workload."""
    argv = ["render", "--chi", repr(params["chi"]), "--input", str(catalog),
            "--out", str(image), "--format", params["format"],
            "--projection", params["projection"],
            "--hemisphere", params["hemisphere"],
            "--width", str(params["width"]), "--height", str(params["height"])]
    if params["json"]:
        argv.append("--json")
    return argv


def make_group_inputs(seed: int, n: int, max_entry: float) -> dict[str, np.ndarray]:
    """SL(2,C) matrices with every entry of magnitude <= max_entry, plus a
    direction z and an advanced time u per element.

    Rejection sampling as in acceptance criterion 1: uniform complex
    entries, normalised by a square root of the determinant, kept when the
    determinant was not near zero and the entries stay bounded.
    """
    rng = np.random.default_rng(seed)
    mats = []
    while len(mats) < n:
        m = (rng.uniform(-max_entry, max_entry, (2, 2))
             + 1j * rng.uniform(-max_entry, max_entry, (2, 2)))
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det) < 0.3:
            continue
        m = m / np.sqrt(det)
        if np.abs(m).max() <= max_entry:
            mats.append(m)
    z = 0.8 * rng.normal(size=(n, 2))
    u = rng.uniform(0.5, 10.0, n) * rng.choice([-1.0, 1.0], n)
    return {"s": np.array(mats), "z": z[:, 0] + 1j * z[:, 1], "u": u}


class Tracer:
    """In-memory spans (name, start, end, parent, run id) and counts.

    Spans nest through a stack, so a span opened inside another records it
    as its parent.  ``dump`` writes them out once, at the end of a run.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.run_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(result)`` is stored on the span."""
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if count is not None:
                    rec["count"] = count(result)
                return result
        return traced

    def run_summary(self, run_id: int) -> dict[str, dict]:
        """Per span name: total seconds, self seconds and the last count."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s["run"] == run_id]
        child_time: dict[int, float] = {}
        for _, s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end"] - s["start"])
        out: dict[str, dict] = {}
        for idx, s in spans:
            total = s["end"] - s["start"]
            entry = out.setdefault(s["name"], {"total_s": 0.0, "self_s": 0.0})
            entry["total_s"] += total
            entry["self_s"] += total - child_time.get(idx, 0.0)
            if "count" in s:
                entry["count"] = s["count"]
        return out

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans}), encoding="utf-8")
