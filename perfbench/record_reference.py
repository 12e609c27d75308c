"""Record the reference SHA-256 of each sky workload's image.

Usage, from the root of a checkout:

    python3 perfbench/record_reference.py

Renders each sky workload once per seed 0..LAST_SEED at its benchmark
size, and at the self-test size for seeds 0..2, checks every output with
the oracle, and writes perfbench/reference.json.  Run it only at a commit
whose images are the accepted reference: run.py then counts any pass
whose image bytes differ as failed, so a change of the bytes has to be a
deliberate, documented re-baseline.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

import worker
from oracle import check_sky
from run import REFERENCE, ROOT, reference_key
from workloads import WORKLOADS, make_catalog_csv, sky_argv

SELF_TEST_STARS = 400
SELF_TEST_SEEDS = (0, 1, 2)
LAST_SEED = 63


def main() -> int:
    _, cli = worker.import_lorentzsky(ROOT)
    work = ROOT / ".perfbench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    reference = {}
    try:
        for name, params in WORKLOADS.items():
            if params["kind"] != "sky":
                continue
            cases = [(params["stars"], seed) for seed in range(LAST_SEED + 1)]
            cases += [(SELF_TEST_STARS, seed) for seed in SELF_TEST_SEEDS]
            for n, seed in cases:
                text = make_catalog_csv(seed, n)
                catalog = work / "catalog.csv"
                catalog.write_text(text, encoding="utf-8")
                files = {"stdout": work / "stdout", "stderr": work / "stderr",
                         "image": work / f"image.{params['format']}"}
                rec = worker.sky_pass(cli, sky_argv(params, catalog, files["image"]),
                                      files, None)
                image = files["image"].read_bytes()
                problems = check_sky(dict(params, stars=n), text, image,
                                     files["stdout"].read_text(encoding="utf-8"),
                                     rec["stderr"], None)
                if rec["exit"] != 0 or problems:
                    print(f"error: {name} seed {seed}: exit {rec['exit']} {problems}",
                          file=sys.stderr)
                    return 1
                reference[reference_key(name, n, seed)] = hashlib.sha256(image).hexdigest()
                print(f"{name} {n} {seed} {reference[reference_key(name, n, seed)]}",
                      flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
