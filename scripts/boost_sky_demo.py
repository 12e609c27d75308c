#!/usr/bin/env python3
"""Render a synthetic sky before and after a boost toward the north pole.

Writes sky_before.svg / sky_after.svg (and PPM twins) into --outdir and
prints a photometry summary.  The forward sky brightens and blueshifts
while star images crowd toward the boost direction.
"""

import argparse
import math
from pathlib import Path

import numpy as np

from lorentzsky import Catalog, RenderSpec, render, transform_catalog


def synthetic_catalog(n: int, seed: int) -> Catalog:
    rng = np.random.default_rng(seed)
    return Catalog(
        names=[f"star{i:05d}" for i in range(n)],
        ra_deg=rng.uniform(0.0, 360.0, n),
        dec_deg=np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, n))),
        vmag=rng.uniform(0.0, 6.5, n),
        temp_k=rng.choice([3200.0, 4500.0, 5800.0, 7200.0, 9800.0, 15000.0, 25000.0], n),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--chi", type=float, default=math.log(2.0),
                        help="boost rapidity (default ln 2, i.e. v = 0.6 c)")
    parser.add_argument("--stars", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--outdir", default="demo_out")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    stars = synthetic_catalog(args.stars, args.seed)
    spec = RenderSpec(hemisphere="both", width=1200, height=600)

    before = transform_catalog(stars, 0.0)
    after = transform_catalog(stars, args.chi)
    (outdir / "sky_before.svg").write_bytes(render(before, spec))
    (outdir / "sky_after.svg").write_bytes(render(after, spec))
    raster = RenderSpec(hemisphere="both", width=1200, height=600, format="ppm")
    (outdir / "sky_before.ppm").write_bytes(render(before, raster))
    (outdir / "sky_after.ppm").write_bytes(render(after, raster))

    # A direction (z1 : z2) lies in the forward hemisphere when |z1| < |z2|.
    forward_before = int((np.abs(before.z1) < np.abs(before.z2)).sum())
    forward_after = int((np.abs(after.z1) < np.abs(after.z2)).sum())
    brightest = int(np.argmin(after.vmag))
    print(f"chi = {args.chi:.6f} (v = {math.tanh(args.chi):.4f} c)")
    print(f"stars in the forward hemisphere: {forward_before} -> {forward_after}")
    print(f"mean Doppler factor: {after.doppler.mean():.4f}")
    print(f"brightest star after the boost: {after.names[brightest]} "
          f"vmag {after.vmag[brightest]:+.2f}, T = {after.temp_k[brightest]:.0f} K")
    print(f"images written to {outdir}/")


if __name__ == "__main__":
    main()
