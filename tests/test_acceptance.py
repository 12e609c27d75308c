"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from lorentzsky import (ComponentLabel, FourVector, MoebiusTransform,
                        Photon4Momentum, PolarAngles, SpherePoint, aberrate,
                        act_asymptotic, act_exact, boost_axis, boost_photon,
                        boost_x, classify_component, doppler, from_polar,
                        integrate_proper_acceleration, interval_squared,
                        lift_lorentz_to_sl2c, recompose, sl2c_to_lorentz,
                        standard_decompose, validate_lorentz,
                        velocity_from_rapidity)
from lorentzsky.celestial import BondiPoint
from lorentzsky.cli import cli_main
from lorentzsky.sampling import (random_proper_orthochronous, random_sl2c)
from lorentzsky.spin import SL2CElement

LN2 = 0.6931471805599453
SEED = 20260810


def _report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_homomorphism_suite():
    rng = np.random.default_rng(SEED)
    pairs = [(random_sl2c(rng), random_sl2c(rng)) for _ in range(1000)]
    start = time.perf_counter()
    worst = 0.0
    for s1, s2 in pairs:
        lam1 = sl2c_to_lorentz(s1)
        lam2 = sl2c_to_lorentz(s2)
        lam12 = sl2c_to_lorentz(s1 @ s2)
        worst = max(worst, float(np.abs(lam12.entries - lam1.entries @ lam2.entries).max()))
        validate_lorentz(lam1.entries, tol=1e-9)
        assert classify_component(lam1) is ComponentLabel.PROPER_ORTHOCHRONOUS
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed <= 1.0
    _report(1, f"homomorphism residual {worst:.2e} over 1000 pairs in {elapsed:.2f}s")


def test_criterion_02_double_cover_suite():
    rng = np.random.default_rng(SEED + 1)
    worst_kernel = worst_roundtrip = worst_sign = 0.0
    for _ in range(1000):
        s = random_sl2c(rng)
        lam = sl2c_to_lorentz(s)
        worst_kernel = max(worst_kernel, float(
            np.abs(sl2c_to_lorentz(-s).entries - lam.entries).max()))
        lifted = lift_lorentz_to_sl2c(lam)
        worst_roundtrip = max(worst_roundtrip, float(
            np.abs(sl2c_to_lorentz(lifted).entries - lam.entries).max()))
        worst_sign = max(worst_sign, min(
            float(np.abs(lifted.matrix - s.matrix).max()),
            float(np.abs(lifted.matrix + s.matrix).max())))
    assert worst_kernel <= 1e-12
    assert worst_roundtrip <= 1e-8
    assert worst_sign <= 1e-8
    _report(2, f"kernel {worst_kernel:.2e}, lift round trip {worst_roundtrip:.2e}, "
               f"sign match {worst_sign:.2e} over 1000 trials")


def test_criterion_03_reference_matrices():
    for chi in (0.1, 1.0, LN2, 3.0):
        lifted = lift_lorentz_to_sl2c(boost_axis((0.0, 0.0, 1.0), chi))
        target = np.diag([math.exp(-chi / 2), math.exp(chi / 2)])
        assert np.abs(lifted.matrix - target).max() <= 1e-10

    for theta in (0.0, math.pi / 4, math.pi, 2 * math.pi):
        s = SL2CElement(complex(math.cos(theta / 2), -math.sin(theta / 2)), 0.0,
                        0.0, complex(math.cos(theta / 2), math.sin(theta / 2)))
        lam = sl2c_to_lorentz(s).entries
        # target derived by evaluating the quadratic form of the cover on
        # the diagonal element: spatial block [[cos, sin], [-sin, cos]].
        target = np.eye(4)
        target[1, 1] = target[2, 2] = math.cos(theta)
        target[1, 2] = math.sin(theta)
        target[2, 1] = -math.sin(theta)
        assert np.abs(lam - target).max() <= 1e-12
        spatial = lam[1:, 1:]
        assert np.abs(spatial.T @ spatial - np.eye(3)).max() <= 1e-12
        assert np.linalg.det(spatial) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(spatial @ np.array([0.0, 0.0, 1.0]) - np.array([0.0, 0.0, 1.0])).max() <= 1e-12
        assert np.trace(spatial) == pytest.approx(1.0 + 2.0 * math.cos(theta), abs=1e-12)
    _report(3, "boost lifts exact to 1e-10; rotation images match the quadratic form")


def test_criterion_04_standard_decomposition():
    rng = np.random.default_rng(SEED + 2)
    worst_rec = worst_chi = 0.0
    for _ in range(1000):
        lam = random_proper_orthochronous(rng, chi_max=5.0)
        dec = standard_decompose(lam)
        worst_rec = max(worst_rec, float(
            np.abs(recompose(dec).entries - lam.entries).max()))
        worst_chi = max(worst_chi, abs(math.cosh(dec.chi) - float(lam.entries[0, 0])))
    assert worst_rec <= 1e-9
    assert worst_chi <= 1e-9
    _report(4, f"recompose {worst_rec:.2e}, cosh(chi) mismatch {worst_chi:.2e} over 1000 trials")


def test_criterion_05_interval_invariance():
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for _ in range(1000):
        lam = random_proper_orthochronous(rng, chi_max=5.0)
        dx = FourVector.from_array(rng.normal(size=4))
        before = interval_squared(dx)
        after = interval_squared(lam.apply(dx))
        worst = max(worst, abs(after - before) / max(1.0, abs(before)))
    assert worst <= 1e-9
    _report(5, f"worst scaled interval drift {worst:.2e} over 1000 trials")


def test_criterion_06_asymptotic_celestial_action():
    # Error against the limit formulas must fall by ~10x between r = 1e6
    # and r = 1e7.  The leading error coefficient is proportional to u, so
    # u is kept away from 0, and a channel whose coefficient happens to be
    # too small to resolve above double-precision noise is skipped (the
    # advanced-time channel loses ~9 digits to cancellation at r = 1e7).
    rng = np.random.default_rng(SEED + 4)
    floors = {"z": 1e-8, "r": 1e-8, "u": 1e-6}
    checked = {k: 0 for k in floors}
    skipped = 0
    for _ in range(200):
        s = random_sl2c(rng)
        lam = sl2c_to_lorentz(s)
        action = act_asymptotic(s)
        z = complex(*(0.8 * rng.normal(size=2)))
        u = float(rng.uniform(0.5, 10.0) * rng.choice([-1.0, 1.0]))
        q = SpherePoint.from_complex(z)
        q_limit = action.moebius.apply(q)
        errs = {}
        for r in (1e6, 1e7):
            out = act_exact(lam, BondiPoint(u, r, q))
            errs.setdefault("z", []).append(out.q.distance_to(q_limit))
            errs.setdefault("r", []).append(abs(out.r / r - action.radial_factor(z)))
            errs.setdefault("u", []).append(abs(out.u - u * action.time_factor(z)))
        for channel, (e6, e7) in errs.items():
            if e6 < floors[channel]:
                skipped += 1
                continue
            checked[channel] += 1
            ratio = e7 / e6
            assert 0.05 <= ratio <= 0.2, (channel, e6, e7, ratio)
    total = sum(checked.values())
    assert total >= 0.7 * 600
    assert min(checked.values()) >= 100
    _report(6, f"decay ratios in [0.05, 0.2] on {total}/600 resolvable channels "
               f"({skipped} below the measurement floor)")


def test_criterion_07_aberration_equivalence():
    chi = LN2
    dil = MoebiusTransform.dilation(chi)
    worst = 0.0
    for theta in np.linspace(0.0, math.pi, 50):
        for phi in np.linspace(0.0, 2.0 * math.pi, 50, endpoint=False):
            lhs = from_polar(PolarAngles(aberrate(chi, theta), phi))
            rhs = dil.apply(from_polar(PolarAngles(theta, phi)))
            worst = max(worst, lhs.distance_to(rhs))
    assert worst <= 1e-10

    ahead = boost_photon(boost_x(LN2), Photon4Momentum(FourVector(1, -1, 0, 0)))
    behind = boost_photon(boost_x(LN2), Photon4Momentum(FourVector(1, 1, 0, 0)))
    assert abs(doppler(LN2, 0.0) - 2.0) <= 1e-12
    assert abs(doppler(LN2, math.pi) - 0.5) <= 1e-12
    assert abs(ahead.energy - 2.0) <= 1e-12
    assert abs(behind.energy - 0.5) <= 1e-12
    _report(7, f"half-angle vs dilation worst distance {worst:.2e} on a 50x50 grid; "
               "doppler endpoints exact against the photon oracle")


def test_criterion_08_conformality():
    rng = np.random.default_rng(SEED + 5)
    h = 1e-5
    worst = 0.0
    maps = 0
    while maps < 100:
        t = MoebiusTransform(random_sl2c(rng))
        s = t.s
        points = 0
        while points < 100:
            z = complex(*rng.normal(size=2))
            if not 0.3 <= abs(s.c * z + s.d) <= 3.0:
                continue
            points += 1
            f = t.apply_complex
            dx = (f(z + h) - f(z - h)) / (2 * h)
            dy = (f(z + 1j * h) - f(z - 1j * h)) / (2 * h)
            jac = np.array([[dx.real, dy.real], [dx.imag, dy.imag]])
            scale = float(np.linalg.norm(jac))
            resid = max(abs(jac[0, 0] - jac[1, 1]), abs(jac[0, 1] + jac[1, 0])) / scale
            worst = max(worst, resid)
            assert resid <= 1e-5
        maps += 1
    assert worst <= 1e-5
    _report(8, f"worst relative Cauchy-Riemann residual {worst:.2e} "
               "over 100 maps x 100 points")


def test_criterion_09_proper_acceleration_rapidity():
    g = 9.8
    s = LN2 / g
    tau = np.linspace(0.0, s, 10_001)      # 1e4 trapezoid steps
    chi = integrate_proper_acceleration(tau, np.full_like(tau, g))
    assert abs(chi - g * s) <= 1e-6
    assert abs(velocity_from_rapidity(chi) - math.tanh(g * s)) <= 1e-6
    assert abs(velocity_from_rapidity(chi) - 0.6) <= 1e-6
    _report(9, f"constant profile: chi = {chi!r} vs a*s = {g * s!r}, "
               f"v = {velocity_from_rapidity(chi)!r}")


def test_criterion_10_cli_end_to_end(tmp_path, capsys):
    catalog = tmp_path / "stars.csv"
    catalog.write_text(
        "name,ra_deg,dec_deg,vmag,temp_k\n"
        "pole,0.0,90.0,2.0,6000\n"
        "a,10.0,45.0,3.0,9000\n"
        "b,200.0,-30.0,4.0,4000\n")

    base, zero, boosted = (tmp_path / n for n in ("base.svg", "zero.svg", "boost.svg"))
    assert cli_main(["render", "--input", str(catalog), "--out", str(base)]) == 0
    assert cli_main(["render", "--chi", "0", "--input", str(catalog),
                     "--out", str(zero)]) == 0
    assert cli_main(["render", "--chi", str(LN2), "--input", str(catalog),
                     "--out", str(boosted)]) == 0
    assert zero.read_bytes() == base.read_bytes()
    assert boosted.read_bytes() != base.read_bytes()

    capsys.readouterr()
    assert cli_main(["render", "--chi", str(LN2), "--input", str(catalog),
                     "--out", str(boosted), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    pole = next(s for s in payload["stars"] if s["name"] == "pole")
    assert pole["temp_k"] == pytest.approx(12000.0, abs=1e-6)
    assert pole["vmag"] == pytest.approx(2.0 - 10.0 * math.log10(2.0), abs=1e-9)

    rng = np.random.default_rng(SEED + 6)
    rows = ["name,ra_deg,dec_deg,vmag,temp_k"]
    for i in range(10_000):
        rows.append(f"s{i},{rng.uniform(0, 360):.6f},"
                    f"{math.degrees(math.asin(rng.uniform(-1, 1))):.6f},"
                    f"{rng.uniform(-1, 7):.3f},{rng.uniform(2500, 30000):.1f}")
    big = tmp_path / "big.csv"
    big.write_text("\n".join(rows) + "\n")
    out = tmp_path / "big.svg"
    start = time.perf_counter()
    assert cli_main(["render", "--chi", str(LN2), "--input", str(big),
                     "--out", str(out), "--hemisphere", "both"]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed <= 2.0
    assert out.stat().st_size > 0
    _report(10, f"chi=0 byte-identical; pole photometry exact; "
                f"10k-star pipeline in {elapsed:.2f}s")
