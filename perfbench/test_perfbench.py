"""Self-test of the benchmark, at a tiny size.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_perfbench.py -q

Every workload must print every metric BENCHMARK.json names, with its
unit, and the oracle must count a corrupted image byte or photometry
value as a failed pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker
from oracle import check_sky
from record_reference import SELF_TEST_SEEDS, SELF_TEST_STARS
from workloads import (LAYER_UNITS, WORKLOADS, Tracer, make_catalog_csv, make_group_inputs,
                       sky_argv)

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"sky_svg_json": SELF_TEST_STARS, "sky_ppm_north": SELF_TEST_STARS, "group_batch": 20}


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SELF_TEST_SEEDS[0]), "--seconds", "0.1", "--trace", str(trace),
         "--size", str(TINY[workload])],
        capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2])["info"]
    assert info["problems"] == []
    return json.loads(lines[-1])


def test_benchmark_lists_every_workload_and_layer_metric():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_workload_prints_every_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if workload.startswith("sky_") and trace == 0:
        assert result["metrics"]["items_per_s"]["value"] > 0


@pytest.fixture(scope="module")
def lorentzsky_cli():
    return worker.import_lorentzsky(run.ROOT)[1]


@pytest.mark.parametrize("workload", ["sky_svg_json", "sky_ppm_north"])
def test_oracle_counts_corruption_as_failure(workload, lorentzsky_cli, tmp_path):
    seed, n = SELF_TEST_SEEDS[0], SELF_TEST_STARS
    params = dict(WORKLOADS[workload], stars=n)
    text = make_catalog_csv(seed, n)
    catalog = tmp_path / "catalog.csv"
    catalog.write_text(text, encoding="utf-8")
    files = {"stdout": tmp_path / "stdout.json", "stderr": tmp_path / "stderr.txt",
             "image": tmp_path / f"image.{params['format']}"}
    argv = sky_argv(params, catalog, files["image"])
    passes = [worker.sky_pass(lorentzsky_cli, argv, files, None) for _ in range(2)]
    image = files["image"].read_bytes()
    stdout = files["stdout"].read_text(encoding="utf-8")
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    sha = reference[run.reference_key(workload, n, seed)]

    assert check_sky(params, text, image, stdout, passes[-1]["stderr"], sha) == []
    assert run.check_sky_passes(workload, params, n, seed, text, tmp_path, passes)[0] == 0
    crashed = [dict(passes[0], exit=1)] + passes[1:]
    assert run.check_sky_passes(workload, params, n, seed, text, tmp_path, crashed)[0] == 1

    middle = len(image) // 2
    corrupted = image[:middle] + bytes([image[middle] ^ 1]) + image[middle + 1:]
    files["image"].write_bytes(corrupted)
    assert check_sky(params, text, corrupted, stdout, passes[-1]["stderr"], sha)
    failed, problems, _ = run.check_sky_passes(workload, params, n, seed, text,
                                               tmp_path, passes)
    assert failed == len(passes) and problems

    if params["json"]:
        payload = json.loads(stdout)
        payload["stars"][7]["vmag"] += 1e-6
        assert check_sky(params, text, image, json.dumps(payload),
                         passes[-1]["stderr"], sha)


def test_group_check_counts_a_wrong_result(lorentzsky_cli):
    import lorentzsky as ls
    params = WORKLOADS["group_batch"]
    inputs = make_group_inputs(0, 3, params["max_entry"])
    elements = worker.build_elements(ls, inputs, params["radii"])
    outs = [worker.chain(ls, el, worker.plain_call) for el in elements]
    assert all(worker.check_element(ls, el, out)["ok"] for el, out in zip(elements, outs))
    # Element 1's lift reported for element 0 must fail the round-trip check.
    wrong = (outs[0][0], outs[0][1], outs[1][2]) + outs[0][3:]
    assert not worker.check_element(ls, elements[0], wrong)["ok"]


def test_span_check_counts_unaccounted_time():
    tracer = Tracer()
    tracer.run_id = 1
    tracer.spans = [
        {"name": "cli.cli_main", "start": 10.0, "end": 12.0, "parent": None, "run": 1},
        {"name": "render.render", "start": 10.5, "end": 11.5, "parent": 0, "run": 1},
    ]
    assert worker.span_problems(tracer, {"run": 1, "seconds": 2.0}) == []
    # Time the spans did not see, a child outside its parent, overlapping children.
    assert worker.span_problems(tracer, {"run": 1, "seconds": 2.5})
    tracer.spans[1]["end"] = 12.5
    assert worker.span_problems(tracer, {"run": 1, "seconds": 2.0})
    tracer.spans[1]["end"] = 11.5
    tracer.spans.append({"name": "starfield.load_catalog", "start": 10.2, "end": 11.9,
                         "parent": 0, "run": 1})
    assert worker.span_problems(tracer, {"run": 1, "seconds": 2.0})
