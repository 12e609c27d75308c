"""lorentzsky benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sky_svg_json --seed 1 --seconds 25 --trace 0

Workloads: sky_svg_json, sky_ppm_north, group_batch (see workloads.py and
NOTES.md).  The run generates its inputs from --seed under
.perfbench_work/, times a fresh interpreter importing lorentzsky.cli
(setup_s), runs the workload in a child process (worker.py) for --seconds
after one untimed warm-up pass, checks every pass's outputs, and prints a
line of run information followed by the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--size overrides the workload's star or element count (self-test only).
The program under test is the checkout's src/lorentzsky; without it the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from oracle import check_sky
from worker import TOLERANCES
from workloads import LAYER_UNITS, WORKLOADS, make_catalog_csv, make_group_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 5
DEADLINE_S = 170.0


def reference_key(workload: str, size: int, seed: int) -> str:
    return f"{workload}/{size}/{seed}"


def machine_header(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass  # no git here: the header says so with a null commit
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "git_commit": commit, "seed": seed}


def measure_setup_s() -> float:
    """Median wall time of a fresh interpreter importing lorentzsky.cli."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-c", "import lorentzsky.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first one also writes bytecode
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_worker(spec: dict, work: Path, timeout: float) -> dict:
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                            cwd=ROOT)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker did not finish within {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    return json.loads((work / "result.json").read_text(encoding="utf-8"))


def check_sky_passes(name: str, params: dict, size: int, seed: int, catalog_text: str,
                     work: Path, passes: list[dict]) -> tuple[int, list[str], bool]:
    """Failed passes, the problems found, and whether a reference hash existed.

    The last pass's files get the full oracle; every other pass must have
    produced byte-identical image and stdout, or it fails on its own.  A
    traced pass whose spans do not account for its time fails too.
    """
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    expected = reference.get(reference_key(name, size, seed))
    last = passes[-1]
    if last["exit"] != 0 or last["error"] or last["image_sha256"] is None:
        problems = ["the last pass left no output to check"]
    else:
        problems = check_sky(
            params, catalog_text,
            (work / f"image.{params['format']}").read_bytes(),
            (work / "stdout.json").read_text(encoding="utf-8"),
            last["stderr"], expected)
    failed = 0
    pass_problems = []
    for p in passes:
        bad = (p["exit"] != 0 or p["error"] is not None or problems
               or p.get("span_problems")
               or (p["image_sha256"], p["stdout_sha256"])
               != (last["image_sha256"], last["stdout_sha256"]))
        failed += bool(bad)
        if p["exit"] != 0 or p["error"]:
            pass_problems.append(f"pass exit {p['exit']} {p['error'] or p['stderr'].strip()}")
        pass_problems.extend(p.get("span_problems", []))
    return failed, problems + pass_problems, expected is not None


def items_per_s(size: int, pass_seconds: list[float]) -> float:
    """Items over the wall time of all measured passes.

    The host's speed drifts by tens of percent over a run; this ratio moved
    less between runs than the median of the per-pass rates.
    """
    return size * len(pass_seconds) / sum(pass_seconds)


def summarize_sky(name: str, params: dict, size: int, seed: int, catalog_text: str,
                  work: Path, passes: list[dict]) -> dict:
    """Failures and end-to-end figures of a sky run; one operation is one pass."""
    failed, problems, hash_checked = check_sky_passes(name, params, size, seed,
                                                      catalog_text, work, passes)
    timed = [p["seconds"] for p in passes if not p["traced"]]
    lat = np.array(timed) * 1e6
    return {"failed": failed, "attempted": len(passes), "problems": problems,
            "hash_checked": hash_checked,
            "items_per_s": items_per_s(size, timed),
            # With fewer than 100 samples the p99 lies next to the slowest pass.
            "latency": {"p50": float(np.median(lat)), "p99": float(np.percentile(lat, 99))},
            "samples": {"passes": len(timed),
                        "latency": f"one sample per pass ({len(lat)})",
                        "pass_s": [round(t, 4) for t in timed]}}


def summarize_group(size: int, result: dict) -> dict:
    """Failures and end-to-end figures of a group_batch run."""
    passes = result["passes"]
    timed = [p["seconds"] for p in passes if not p["traced"]]
    latency = result["latency_us"]
    return {"failed": sum(p["failed"] for p in passes), "attempted": size * len(passes),
            "problems": [e for p in passes for e in p["problems"]], "hash_checked": None,
            "items_per_s": items_per_s(size, timed),
            "latency": latency,
            "samples": {"passes": len(timed),
                        "latency": (f"one sample per element ({size}), its median time "
                                    f"over the {latency['passes']} untraced passes"),
                        "pass_s": [round(t, 4) for t in timed]}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # A termination request unwinds through the finally blocks, which stop
    # the worker and remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "lorentzsky" / "cli.py").is_file():
        print(f"error: no lorentzsky sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    params = dict(WORKLOADS[args.workload])
    size_key = "stars" if params["kind"] == "sky" else "elements"
    size = args.size or params[size_key]
    params[size_key] = size
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        spec = {"root": str(ROOT), "workload": args.workload, "params": params,
                "seed": args.seed, "seconds": args.seconds, "trace": bool(args.trace)}
        if args.trace:
            trace_dir = ROOT / ".perfbench_work" / "traces"
            trace_dir.mkdir(exist_ok=True)
            spec["trace_out"] = str(trace_dir / f"{args.workload}-seed{args.seed}.json")
        if params["kind"] == "sky":
            catalog_text = make_catalog_csv(args.seed, size)
            spec["catalog"] = str(work / "catalog.csv")
            Path(spec["catalog"]).write_text(catalog_text, encoding="utf-8")
        else:
            inputs = make_group_inputs(args.seed, size, params["max_entry"])
            spec["group_inputs"] = str(work / "group.npz")
            np.savez(spec["group_inputs"], **inputs)
        setup_s = None if args.trace else measure_setup_s()
        result = run_worker(spec, work, DEADLINE_S - (time.perf_counter() - started))

        if params["kind"] == "sky":
            summary = summarize_sky(args.workload, params, size, args.seed, catalog_text,
                                    work, result["passes"])
        else:
            summary = summarize_group(size, result)
        failed, attempted = summary["failed"], summary["attempted"]
        if args.trace:
            missing = sorted(LAYER_UNITS.keys() - result["layers"].keys())
            if missing:
                raise RuntimeError(f"the traced run measured no {', '.join(missing)}")
            metrics = {k: {"value": result["layers"][k], "unit": unit}
                       for k, unit in LAYER_UNITS.items()}
        else:
            metrics = {
                "items_per_s": {"value": summary["items_per_s"], "unit": "1/s"},
                "op_latency_us_p50": {"value": summary["latency"]["p50"], "unit": "us"},
                "op_latency_us_p99": {"value": summary["latency"]["p99"], "unit": "us"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            }
        info = {"machine": machine_header(args.seed), "workload": args.workload,
                "params": params, "seconds": args.seconds, "trace": args.trace,
                "samples": summary["samples"], "failed_frac": failed / attempted,
                "reference_hash_checked": summary["hash_checked"],
                "problems": summary["problems"][:10]}
        if args.trace:
            info["tolerances"] = TOLERANCES
            if "span_check" in result:
                info["span_check"] = result["span_check"]
        print(json.dumps({"info": info}))
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
