"""Reproduce the ROADMAP open-items table from a traced run.

Usage, from the root of a checkout:

    python3 perfbench/table.py [--seed N]

Times the group-layer calls (p50 per call over a traced group_batch pass
of 1000 elements) and the catalog stages per star at 10k and 100k stars
(chi = ln 2, stereographic, both hemispheres), with spans around
load_catalog, transform_catalog, render and the _placements step inside
render.  Prints each row beside the ROADMAP's single-run baseline and
marks rows that differ from it by more than 2x.
"""

from __future__ import annotations

import argparse
import importlib
import io
import shutil
import statistics
import sys
from pathlib import Path

import worker
from workloads import WORKLOADS, Tracer, make_catalog_csv, make_group_inputs

ROOT = Path(__file__).resolve().parent.parent

# The ROADMAP's open-items table: microseconds per call, per star at 10k / 100k.
ROADMAP_CALLS = {
    "minkowski.validate_lorentz": 17.0,
    "spin.sl2c_to_lorentz": 30.0,
    "decompose.standard_decompose": 157.0,
    "spin.lift_lorentz_to_sl2c": 405.0,
    "celestial.act_exact": 13.0,
}
ROADMAP_STAGES = {
    "parse (load_catalog)": (9.0, 6.2),
    "transform_catalog": (11.4, 12.9),
    "_placements (both panels)": (6.4, 5.7),
    "render SVG": (9.4, 6.7),
    "render PPM": (47.0, 40.0),
}
SIZES = (10_000, 100_000)
GROUP_ELEMENTS = 1000


def group_rows(ls, seed: int) -> dict[str, float]:
    params = WORKLOADS["group_batch"]
    inputs = make_group_inputs(seed, GROUP_ELEMENTS, params["max_entry"])
    elements = worker.build_elements(ls, inputs, params["radii"])
    worker.group_pass(ls, elements, worker.plain_call)
    timer = worker.CallTimer()
    worker.group_pass(ls, elements, timer)
    return {name: statistics.median(timer.ns[name]) / 1e3 for name in ROADMAP_CALLS}


def stage_rows(ls, seed: int, n: int, work: Path) -> dict[str, float]:
    """Microseconds per star of each catalog stage, from one traced pass."""
    # The package re-exports the render function under the module's name.
    render_mod = importlib.import_module("lorentzsky.render")
    catalog = work / f"table-{n}.csv"
    catalog.write_text(make_catalog_csv(seed, n), encoding="utf-8")
    params = WORKLOADS["sky_svg_json"]
    tracer = Tracer()
    placements = render_mod._placements
    render_mod._placements = tracer.wrap("_placements", placements)
    try:
        with tracer.span("parse (load_catalog)"):
            stars = ls.load_catalog(catalog)
        with tracer.span("transform_catalog"):
            moved = ls.transform_catalog(stars, params["chi"])
        for fmt in ("svg", "ppm"):
            spec = ls.RenderSpec(projection=params["projection"], format=fmt,
                                 hemisphere=params["hemisphere"])
            tracer.run_id += 1
            with tracer.span(f"render {fmt.upper()}"):
                ls.render(moved, spec, diagnostics=io.StringIO())
    finally:
        render_mod._placements = placements
    totals = {}
    for run in (0, 1, 2):
        for name, entry in tracer.run_summary(run).items():
            if name == "_placements":
                name = "_placements (both panels)"
                if run != 1:
                    continue  # the SVG pass's placements stand for the row
            totals[name] = entry["total_s"] / n * 1e6
    return totals


def _flag(measured: float, baseline: float) -> str:
    ratio = measured / baseline
    return f"{ratio:5.2f}x" + ("  <-- differs by more than 2x" if not 0.5 <= ratio <= 2.0 else "")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lorentzsky" / "cli.py").is_file():
        print(f"error: no lorentzsky sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ls, _ = worker.import_lorentzsky(ROOT)
    work = ROOT / ".perfbench_work" / "table"
    work.mkdir(parents=True, exist_ok=True)
    try:
        stage_rows(ls, args.seed, 1000, work)  # warm-up
        stages = {n: stage_rows(ls, args.seed, n, work) for n in SIZES}
        calls = group_rows(ls, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{'layer (per call)':34s} {'now us':>9s} {'ROADMAP':>9s}  ratio")
    for name, base in ROADMAP_CALLS.items():
        print(f"{name:34s} {calls[name]:9.1f} {base:9.1f}  {_flag(calls[name], base)}")
    print()
    print(f"{'catalog stage (per star)':34s} {'size':>7s} {'now us':>9s} {'ROADMAP':>9s}  ratio")
    for name, bases in ROADMAP_STAGES.items():
        for n, base in zip(SIZES, bases):
            now = stages[n][name]
            print(f"{name:34s} {n:7d} {now:9.2f} {base:9.2f}  {_flag(now, base)}")
    print("\nrender rows include the _placements step they call.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
