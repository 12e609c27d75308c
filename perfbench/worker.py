"""Run one workload's passes in a process of its own.

Usage: python3 perfbench/worker.py SPEC.json

run.py writes the spec (checkout root, workload parameters, input paths,
seconds, trace flag), this process imports ``lorentzsky`` from the
checkout's ``src/``, runs one untimed warm-up pass and then measured
passes back to back for the given seconds, and writes ``result.json``
next to the spec.  Input generation and the output oracle stay in run.py,
so this process's peak RSS is the workload's own.

With tracing on, untraced and traced passes alternate; the traced ones
record spans around the names ``lorentzsky.cli`` binds (sky workloads) or
time every library call (group_batch).  Layers the workload never reaches
are traced on a small companion sample, so every per-layer metric is
measured in every traced run.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from oracle import dropped_count
from workloads import (GROUP_CALLS, GROUP_LAYERS, LAYER_UNITS, WORKLOADS, Tracer,
                       make_catalog_csv, make_group_inputs, sky_argv)

# Every run makes at least this many passes.
MIN_PASSES = 6
# Companion samples for the layers a traced workload does not reach.
GROUP_PROBE_ELEMENTS = 300
SKY_PROBE_STARS = 5000
# Largest share of a traced sky pass's wall time by which its spans' self
# times may add up to more or less than that wall time.
SPAN_TOLERANCE = 0.01

# Residual tolerances of the acceptance suite (tests/test_acceptance.py):
# criterion 2 for the lift round trip, criterion 4 for decompose/recompose,
# criterion 6 for the 1/r approach of the exact action to its limit (decay
# ratio between r = 1e6 and 1e7 within a factor 2 of 0.1, in decades;
# channels whose gap is below the measurement floor are skipped).
TOLERANCES = {"spin.lift_roundtrip_residual_max": 1e-8,
              "decompose.recompose_residual_max": 1e-9,
              "celestial.asymptotic_gap_max": math.log10(2.0)}
ASYMPTOTIC_FLOORS = (1e-8, 1e-8, 1e-6)  # direction, radius, advanced time


def import_lorentzsky(root: Path):
    """The package and its cli module from ``root/src``, never an installed copy."""
    sys.path.insert(0, str(root / "src"))
    import lorentzsky
    from lorentzsky import cli
    if Path(lorentzsky.__file__).resolve().parent != (root / "src" / "lorentzsky").resolve():
        raise SystemExit(f"imported lorentzsky from {lorentzsky.__file__}, not the checkout")
    return lorentzsky, cli


# -- sky workloads ---------------------------------------------------------

def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sky_pass(cli, argv: list[str], files: dict[str, Path], tracer: Tracer | None) -> dict:
    """One ``cli_main`` call with stdout and stderr sent to files."""
    names = ("load_catalog", "transform_catalog", "render")
    saved = {n: getattr(cli, n) for n in names}
    if tracer is not None:
        tracer.run_id += 1
        cli.load_catalog = tracer.wrap("starfield.load_catalog", saved["load_catalog"], len)
        cli.transform_catalog = tracer.wrap("starfield.transform_catalog",
                                            saved["transform_catalog"], len)
        cli.render = tracer.wrap("render.render", saved["render"], len)
    rec = {"traced": tracer is not None, "run": tracer.run_id if tracer else None,
           "exit": None, "error": None}
    files["image"].unlink(missing_ok=True)
    gc.collect()  # every pass starts from the same heap, as a fresh CLI call would
    try:
        with open(files["stdout"], "w", encoding="utf-8") as out, \
                open(files["stderr"], "w", encoding="utf-8") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            span = tracer.span("cli.cli_main") if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with span:
                    rec["exit"] = cli.cli_main(argv)
            except Exception as exc:  # a crash is a failed pass, not a failed run
                rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["seconds"] = time.perf_counter() - start
    finally:
        for n, fn in saved.items():
            setattr(cli, n, fn)
    if tracer is not None:
        rec["span_problems"] = span_problems(tracer, rec)
    rec["stderr"] = files["stderr"].read_text(encoding="utf-8")
    rec["stdout_sha256"] = _sha256(files["stdout"])
    rec["image_sha256"] = _sha256(files["image"]) if files["image"].exists() else None
    return rec


def span_problems(tracer: Tracer, rec: dict) -> list[str]:
    """Whether the spans of one traced pass account for its wall time.

    Every span must be closed and lie inside its parent, no span's self
    time may be negative, and the self times must add up to the pass's
    wall time, taken outside the tracer, within SPAN_TOLERANCE.
    """
    ids = [i for i, span in enumerate(tracer.spans) if span["run"] == rec["run"]]
    spans = tracer.spans
    if any(spans[i]["end"] is None for i in ids):
        return [f"traced pass {rec['run']}: a span was never closed"]
    problems = []
    child_s = dict.fromkeys(ids, 0.0)
    for i in ids:
        span, parent = spans[i], spans[i]["parent"]
        if parent is None:
            continue
        child_s[parent] += span["end"] - span["start"]
        if span["start"] < spans[parent]["start"] or span["end"] > spans[parent]["end"]:
            problems.append(f"traced pass {rec['run']}: span {span['name']} "
                            f"lies outside {spans[parent]['name']}")
    self_s = [spans[i]["end"] - spans[i]["start"] - child_s[i] for i in ids]
    if min(self_s, default=0.0) < 0.0:
        problems.append(f"traced pass {rec['run']}: child spans overlap")
    if abs(sum(self_s) - rec["seconds"]) > SPAN_TOLERANCE * rec["seconds"]:
        problems.append(f"traced pass {rec['run']}: span self times add up to "
                        f"{sum(self_s):.4f} s, the pass took {rec['seconds']:.4f} s")
    return problems


def sky_layers(tracer: Tracer, passes: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the traced passes, medians over passes."""
    rows = []
    for p in passes:
        if not p["traced"] or p["exit"] != 0:
            continue
        s = tracer.run_summary(p["run"])
        n = s["starfield.load_catalog"]["count"]
        dropped = dropped_count(p["stderr"])
        rows.append({
            "cli.total_s": s["cli.cli_main"]["total_s"],
            "cli.self_s": s["cli.cli_main"]["self_s"],
            "starfield.load_catalog_us_per_star": s["starfield.load_catalog"]["total_s"] / n * 1e6,
            "starfield.transform_us_per_star": s["starfield.transform_catalog"]["total_s"] / n * 1e6,
            "starfield.stars_parsed": n,
            "render.us_per_star": s["render.render"]["total_s"] / n * 1e6,
            "render.output_bytes": s["render.render"]["count"],
            "render.stars_dropped": dropped,
            "render.drawn_ratio": (n - dropped) / n,
        })
    if not rows:
        return {}
    # Times are medians over the traced passes; counts repeat exactly, so
    # they come from the last pass.
    return {k: (statistics.median(r[k] for r in rows) if LAYER_UNITS[k] in ("s", "us")
                else v) for k, v in rows[-1].items()}


def run_sky(cli, spec: dict, work: Path) -> dict:
    params = spec["params"]
    files = {"stdout": work / "stdout.json", "stderr": work / "stderr.txt",
             "image": work / f"image.{params['format']}"}
    argv = sky_argv(params, Path(spec["catalog"]), files["image"])
    sky_pass(cli, argv, files, None)  # warm-up
    tracer = Tracer() if spec["trace"] else None
    passes = []
    deadline = time.perf_counter() + spec["seconds"]
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(sky_pass(cli, argv, files, tracer if traced else None))
    result = {"passes": passes}
    if tracer is not None:
        layers = sky_layers(tracer, passes)
        layers["trace.overhead_frac"] = _overhead(passes)
        tracer.dump(Path(spec["trace_out"]))
        result["layers"] = layers
        # cli self time plus the three child spans, against untraced
        # cli_main; the two differ by trace.overhead_frac by definition, so
        # this is reported, not checked (span_problems checks each pass).
        sums = [sum(e["self_s"] for e in tracer.run_summary(p["run"]).values())
                for p in passes if p["traced"] and p["exit"] == 0]
        if sums:
            result["span_check"] = {
                "layer_sum_s": statistics.median(sums),
                "untraced_cli_main_s": statistics.median(p["seconds"] for p in passes
                                                         if not p["traced"]),
                "overhead_frac": layers["trace.overhead_frac"]}
    return result


def _overhead(passes: list[dict]) -> float:
    traced = [p["seconds"] for p in passes if p["traced"]]
    plain = [p["seconds"] for p in passes if not p["traced"]]
    return statistics.median(traced) / statistics.median(plain) - 1.0


# -- group_batch -----------------------------------------------------------

class CallTimer:
    """Times every library call of the chain; counts calls and errors per layer.

    Call times accumulate over every traced pass; the counts start again at
    each ``new_pass``, so they describe one pass and repeat exactly.
    """

    def __init__(self) -> None:
        self.ns = {name: [] for name in GROUP_CALLS}
        self.new_pass()

    def new_pass(self) -> None:
        self.calls = dict.fromkeys(GROUP_LAYERS, 0)
        self.errors = dict.fromkeys(GROUP_LAYERS, 0)

    def __call__(self, name, fn, *args):
        layer = name.split(".", 1)[0]
        self.calls[layer] += 1
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        except Exception:
            self.errors[layer] += 1
            raise
        finally:
            self.ns[name].append(time.perf_counter_ns() - start)


def plain_call(name, fn, *args):
    return fn(*args)


def build_elements(ls, inputs: dict, radii) -> list[tuple]:
    """Library input objects, built before timing: (s, z, q, u, bondi points)."""
    from lorentzsky.celestial import BondiPoint
    out = []
    for m, z, u in zip(inputs["s"], inputs["z"].tolist(), inputs["u"].tolist()):
        s = ls.SL2CElement.from_matrix(m)
        q = ls.SpherePoint.from_complex(z)
        out.append((s, z, q, u, [BondiPoint(u, r, q) for r in radii]))
    return out


def _asymptotic(act_asymptotic, s, z):
    action = act_asymptotic(s)
    return action, action.radial_factor(z), action.time_factor(z)


def chain(ls, el, call):
    """The whole call chain for one SL(2,C) element; returns what the checks need."""
    s, z, q, _, bondi = el
    lam = call("spin.sl2c_to_lorentz", ls.sl2c_to_lorentz, s)
    call("minkowski.validate_lorentz", ls.validate_lorentz, lam.entries)
    component = call("minkowski.classify_component", ls.classify_component, lam)
    lifted = call("spin.lift_lorentz_to_sl2c", ls.lift_lorentz_to_sl2c, lam)
    dec = call("decompose.standard_decompose", ls.standard_decompose, lam)
    rec = call("decompose.recompose", ls.recompose, dec)
    action, radial, advanced = call("celestial.act_asymptotic", _asymptotic,
                                    ls.act_asymptotic, s, z)
    q_limit = call("sphere.moebius_apply", action.moebius.apply, q)
    exact = [call("celestial.act_exact", ls.act_exact, lam, b) for b in bondi]
    return lam, component, lifted, rec, q_limit, radial, advanced, exact


def check_element(ls, el, out) -> dict[str, float]:
    """Residuals of one chain result against the acceptance tolerances."""
    s, _, _, u, bondi = el
    lam, component, lifted, rec, q_limit, radial, advanced, exact = out
    lift = min(float(np.abs(lifted.matrix - s.matrix).max()),
               float(np.abs(lifted.matrix + s.matrix).max()))
    recompose = float(np.abs(rec.entries - lam.entries).max())
    gaps = []
    for b, img in zip(bondi[-2:], exact[-2:]):
        gaps.append((img.q.distance_to(q_limit), abs(img.r / b.r - radial),
                     abs(img.u - u * advanced)))
    worst_decay = 0.0
    for e6, e7, floor in zip(gaps[0], gaps[1], ASYMPTOTIC_FLOORS):
        if e6 >= floor:
            decay = abs(math.log10(e7 / e6) + 1.0) if e7 > 0 else math.inf
            worst_decay = max(worst_decay, decay)
    res = {"spin.lift_roundtrip_residual_max": lift,
           "decompose.recompose_residual_max": recompose,
           "celestial.asymptotic_gap_max": worst_decay}
    res["ok"] = (component is ls.ComponentLabel.PROPER_ORTHOCHRONOUS
                 and all(res[k] <= tol for k, tol in TOLERANCES.items()))
    return res


def group_pass(ls, elements, call) -> dict:
    """One pass over every element; checks run after the timed loop."""
    outs, lat_ns, problems = [], [], []
    gc.collect()
    start = time.perf_counter()
    for i, el in enumerate(elements):
        t0 = time.perf_counter_ns()
        try:
            outs.append(chain(ls, el, call))
        except Exception as exc:  # a raising call fails its element only
            outs.append(None)
            problems.append(f"element {i}: {type(exc).__name__}: {exc}")
        lat_ns.append(time.perf_counter_ns() - t0)
    seconds = time.perf_counter() - start
    worst = dict.fromkeys(TOLERANCES, 0.0)
    for i, (el, out) in enumerate(zip(elements, outs)):
        if out is None:
            continue
        res = check_element(ls, el, out)
        if not res.pop("ok"):
            problems.append(f"element {i}: residuals {res}")
        for k in worst:
            worst[k] = max(worst[k], res[k])
    return {"seconds": seconds, "latency_ns": lat_ns, "failed": len(problems),
            "problems": problems[:5], "worst": worst}


def group_layers(timer: CallTimer, worst: dict) -> dict[str, float]:
    layers = {f"{name}_us": statistics.median(ns) / 1e3
              for name, ns in timer.ns.items() if ns}
    for layer in GROUP_LAYERS:
        layers[f"{layer}.calls"] = timer.calls[layer]
        layers[f"{layer}.errors"] = timer.errors[layer]
    layers.update(worst)
    return layers


def run_group(ls, spec: dict) -> dict:
    params = spec["params"]
    with np.load(spec["group_inputs"]) as data:
        inputs = {k: data[k] for k in data.files}
    elements = build_elements(ls, inputs, params["radii"])
    group_pass(ls, elements, plain_call)  # warm-up
    timer = CallTimer() if spec["trace"] else None
    passes = []
    deadline = time.perf_counter() + spec["seconds"]
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        traced = timer is not None and len(passes) % 2 == 1
        if traced:
            timer.new_pass()
        p = group_pass(ls, elements, timer if traced else plain_call)
        p["traced"] = traced
        passes.append(p)
    lat = np.array([p["latency_ns"] for p in passes if not p["traced"]]) / 1e3
    # Each element's median time over the untraced passes: the host's speed
    # drifts by tens of percent within a run, so an element's best time
    # depends on whether a fast spell happened to come, while its median,
    # like items_per_s, averages the run; a one-pass stall of an element
    # does not reach its median.  The median does not fall as passes are
    # added, so a faster library is not also rewarded for fitting more.
    typical = np.median(lat, axis=0)
    result = {
        "passes": [{k: v for k, v in p.items() if k != "latency_ns"} for p in passes],
        "latency_us": {"p50": float(np.median(typical)),
                       "p99": float(np.percentile(typical, 99)), "passes": len(lat)},
    }
    if timer is not None:
        worst = {k: max(p["worst"][k] for p in passes) for k in passes[0]["worst"]}
        layers = group_layers(timer, worst)
        layers["trace.overhead_frac"] = _overhead(passes)
        result["layers"] = layers
    return result


# -- companion samples for traced runs --------------------------------------

def group_probe(ls, seed: int) -> dict[str, float]:
    """Group-layer metrics on a small traced sample."""
    params = WORKLOADS["group_batch"]
    inputs = make_group_inputs(seed, GROUP_PROBE_ELEMENTS, params["max_entry"])
    elements = build_elements(ls, inputs, params["radii"])
    group_pass(ls, elements, plain_call)
    timer = CallTimer()
    p = group_pass(ls, elements, timer)
    return group_layers(timer, p["worst"])


def sky_probe(cli, seed: int, work: Path) -> dict[str, float]:
    """Catalog-layer metrics on a small traced sky_svg_json sample."""
    params = WORKLOADS["sky_svg_json"]
    catalog = work / "probe.csv"
    catalog.write_text(make_catalog_csv(seed, SKY_PROBE_STARS), encoding="utf-8")
    files = {"stdout": work / "probe.out", "stderr": work / "probe.err",
             "image": work / "probe.svg"}
    argv = sky_argv(params, catalog, files["image"])
    sky_pass(cli, argv, files, None)
    tracer = Tracer()
    return sky_layers(tracer, [sky_pass(cli, argv, files, tracer)])


def main(spec_path: str) -> int:
    spec_file = Path(spec_path)
    spec = json.loads(spec_file.read_text(encoding="utf-8"))
    work = spec_file.parent
    ls, cli = import_lorentzsky(Path(spec["root"]))
    if spec["params"]["kind"] == "sky":
        result = run_sky(cli, spec, work)
        if spec["trace"]:
            result["layers"].update(group_probe(ls, spec["seed"]))
    else:
        result = run_group(ls, spec)
        if spec["trace"]:
            result["layers"].update(sky_probe(cli, spec["seed"], work))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
