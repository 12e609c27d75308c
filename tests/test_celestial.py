import cmath
import math

import numpy as np
import pytest

from lorentzsky import (BondiPoint, FourVector, MoebiusTransform,
                        Photon4Momentum, PolarAngles, SpherePoint, aberrate,
                        act_asymptotic, act_exact, bondi_from_inertial,
                        boost_axis, boost_photon, boost_x, doppler,
                        from_polar, inertial_from_bondi, interval_squared,
                        parity, rotation_about_axis, rotation_embed,
                        time_reversal)
from lorentzsky.errors import (NotNull, NotOrthochronous,
                               OriginDirectionUndefined, RangeError)
from lorentzsky.sampling import random_proper_orthochronous, random_sl2c
from lorentzsky.spin import SL2CElement, sl2c_to_lorentz

LN2 = 0.6931471805599453


def test_bondi_from_inertial_examples():
    b = bondi_from_inertial(FourVector(0, 0, 0, 1))
    assert (b.u, b.r) == (1.0, 1.0)
    assert b.q.to_complex() == 0.0

    b = bondi_from_inertial(FourVector(-5, 0, 0, 5))
    assert (b.u, b.r) == (0.0, 5.0)
    assert b.q.to_complex() == 0.0

    b = bondi_from_inertial(FourVector(0, 1, 0, 0))
    assert (b.u, b.r) == (1.0, 1.0)
    assert b.q.to_complex() == pytest.approx(1.0)


def test_bondi_round_trip(rng):
    for _ in range(200):
        x = FourVector.from_array(rng.normal(size=4) * 10)
        if np.linalg.norm(x.spatial) < 1e-6:
            continue
        back = inertial_from_bondi(bondi_from_inertial(x))
        assert np.abs(back.as_array() - x.as_array()).max() <= 1e-9


def test_bondi_round_trip_past_the_range_of_a_square():
    # r = hypot(x1, x2, x3): the sum of squares overflowed at 1e200 and underflowed at 5e-170
    for x in (FourVector(0.0, 1e200, 0.0, 0.0), FourVector(0.0, 3e-170, 4e-170, 0.0)):
        b = bondi_from_inertial(x)
        assert b.r == b.u == math.hypot(x.x1, x.x2, x.x3)
        back = inertial_from_bondi(b).as_array()
        assert np.abs(back - x.as_array()).max() <= 1e-15 * b.r
    out = act_exact(boost_x(0.5), BondiPoint(1e200, 1e200, SpherePoint(1.0, 0.0)))
    assert (out.u, out.r, out.q.is_infinity) == (1e200, 1e200, True)


def test_origin_has_no_direction():
    with pytest.raises(OriginDirectionUndefined):
        bondi_from_inertial(FourVector(1.0, 0.0, 0.0, 0.0))


def test_bondi_point_validation():
    with pytest.raises(ValueError):
        BondiPoint(0.0, -1.0, SpherePoint.from_complex(0.0))


def test_act_exact_identity_and_rotation():
    b = BondiPoint(2.0, 7.0, SpherePoint.from_complex(0.4 + 0.1j))
    ident = rotation_embed(np.eye(3))
    out = act_exact(ident, b)
    assert out.u == pytest.approx(b.u)
    assert out.r == pytest.approx(b.r)
    assert out.q.distance_to(b.q) <= 1e-12

    theta = 0.5
    rot = rotation_embed(rotation_about_axis((0, 0, 1), theta))
    out = act_exact(rot, b)
    assert out.u == pytest.approx(b.u, abs=1e-9)
    assert out.r == pytest.approx(b.r, abs=1e-9)
    assert out.q.to_complex() == pytest.approx(
        b.q.to_complex() * cmath.exp(1j * theta))


def test_rotation_phase_matches_lifted_moebius_at_any_radius():
    # rotations carry no 1/r corrections, so the exact action must equal
    # the Mobius map of the spinor lift already at finite radius
    from lorentzsky import MoebiusTransform, lift_lorentz_to_sl2c
    theta = 0.4
    lam = rotation_embed(rotation_about_axis((0, 0, 1), theta))
    mob = MoebiusTransform(lift_lorentz_to_sl2c(lam))
    b = BondiPoint(1.0, 5.0, SpherePoint.from_complex(0.3 + 0.2j))
    out = act_exact(lam, b)
    assert out.q.distance_to(mob.apply(b.q)) <= 1e-12


def test_act_exact_boost_stretches_radius_toward_pole():
    chi = 0.9
    lam = boost_axis((0.0, 0.0, 1.0), chi)
    b = BondiPoint(0.0, 1e8, SpherePoint.from_complex(0.0))
    out = act_exact(lam, b)
    assert out.r / b.r == pytest.approx(math.exp(chi), rel=1e-7)


def test_asymptotic_action_identity():
    act = act_asymptotic(SL2CElement.identity())
    for z in (0.0 + 0j, 1.5 - 0.25j):
        assert act.radial_factor(z) == pytest.approx(1.0)
        assert act.time_factor(z) == pytest.approx(1.0)
        assert act.moebius.apply_complex(z) == pytest.approx(z)


def test_asymptotic_action_boost_example():
    chi = LN2
    s = SL2CElement(math.exp(-chi / 2), 0.0, 0.0, math.exp(chi / 2))
    act = act_asymptotic(s)
    assert act.moebius.apply_complex(0.0) == 0.0
    assert act.radial_factor(0.0 + 0j) == pytest.approx(math.exp(chi))
    assert act.time_factor(0.0 + 0j) == pytest.approx(math.exp(-chi))
    # toward the point at infinity F tends to |a|^2 + |c|^2, and reaches it there
    for z in (complex(math.inf, 0.0), 1e200 + 0j):
        assert act.radial_factor(z) == pytest.approx(math.exp(-chi))
        assert act.time_factor(z) == pytest.approx(math.exp(chi))
    act = act_asymptotic(SL2CElement(2.0, 1.0, 1.0, 1.0))
    assert act.radial_factor(complex(math.inf, 0.0)) == act.radial_factor(1e160 + 0j) == 5.0


def test_asymptotic_action_translation_type():
    b = 0.7 - 0.2j
    act = act_asymptotic(SL2CElement(1.0, b, 0.0, 1.0))
    z = 0.3 + 0.4j
    assert act.moebius.apply_complex(z) == pytest.approx(z + b)


def test_asymptotic_factors_match_exact_action(rng):
    # At r = 1e6 the exact action matches the limit formulas to O(1/r).
    r = 1e6
    for _ in range(50):
        s = random_sl2c(rng)
        lam = sl2c_to_lorentz(s)
        act = act_asymptotic(s)
        z = complex(*(0.8 * rng.normal(size=2)))
        u = rng.uniform(-10, 10)
        b = BondiPoint(u, r, SpherePoint.from_complex(z))
        out = act_exact(lam, b)
        assert out.q.distance_to(act.moebius.apply(b.q)) <= 1e-3
        assert out.r / r == pytest.approx(act.radial_factor(z), abs=1e-3)
        assert out.u == pytest.approx(u * act.time_factor(z), abs=1e-3)


def test_exact_action_converges_like_one_over_r(rng):
    # Sweep r logarithmically: the distance to the limiting values must be
    # bounded by C/r across the whole range.  The advanced-time channel is
    # only checked up to 1e7, where the cancellation in u = x0 + r starts
    # to dominate.
    for _ in range(10):
        s = random_sl2c(rng)
        lam = sl2c_to_lorentz(s)
        action = act_asymptotic(s)
        z = complex(*(0.8 * rng.normal(size=2)))
        u = float(rng.uniform(0.5, 5.0) * rng.choice([-1.0, 1.0]))
        q = SpherePoint.from_complex(z)
        q_limit = action.moebius.apply(q)
        radii = [10.0 ** k for k in range(3, 9)]
        errs = []
        for r in radii:
            out = act_exact(lam, BondiPoint(u, r, q))
            errs.append((out.q.distance_to(q_limit),
                         abs(out.r / r - action.radial_factor(z)),
                         abs(out.u - u * action.time_factor(z))))
        # calibrate C on the r = 1e3 sample, allow a 3x margin downstream
        for channel in range(3):
            c = errs[0][channel] * radii[0]
            top = radii[:-1] if channel == 2 else radii
            for r, err in zip(top, errs):
                assert err[channel] <= 3.0 * c / r + 1e-12


def test_aberrate_examples():
    assert aberrate(2.0, 0.0) == 0.0
    assert aberrate(-1.0, math.pi) == math.pi
    assert aberrate(LN2, math.pi / 2) == pytest.approx(2.0 * math.atan(0.5), abs=1e-12)
    assert aberrate(LN2, math.pi / 2) == pytest.approx(0.9272952180016122, abs=1e-12)
    with pytest.raises(ValueError):
        aberrate(1.0, -0.1)


def test_aberration_contraction_direction():
    for theta in np.linspace(0.01, math.pi - 0.01, 25):
        assert aberrate(0.7, theta) < theta
        assert aberrate(-0.7, theta) > theta


def test_aberrate_matches_moebius_dilation():
    chi = 0.85
    dil = MoebiusTransform.dilation(chi)
    for theta in np.linspace(0.0, math.pi, 50):
        for phi in np.linspace(0.0, 2 * math.pi, 50, endpoint=False):
            lhs = from_polar(PolarAngles(aberrate(chi, theta), phi))
            rhs = dil.apply(from_polar(PolarAngles(theta, phi)))
            assert lhs.distance_to(rhs) <= 1e-10


def test_doppler_examples_via_photon_oracle():
    assert doppler(0.0, 1.234) == 1.0
    # dead ahead: p = (1, -1, 0, 0) scales by e^chi
    p = Photon4Momentum(FourVector(1.0, -1.0, 0.0, 0.0))
    out = boost_photon(boost_x(LN2), p)
    assert out.energy == pytest.approx(2.0, abs=1e-12)
    assert doppler(LN2, 0.0) == pytest.approx(2.0, abs=1e-12)
    # behind: p = (1, 1, 0, 0) scales by e^-chi
    p = Photon4Momentum(FourVector(1.0, 1.0, 0.0, 0.0))
    out = boost_photon(boost_x(LN2), p)
    assert out.energy == pytest.approx(0.5, abs=1e-12)
    assert doppler(LN2, math.pi) == pytest.approx(0.5, abs=1e-12)


def test_boost_photon_side_incidence_case():
    # p = (1, 0, -1, 0) arrives at right angles to the boost axis.
    out = boost_photon(boost_x(LN2), Photon4Momentum(FourVector(1.0, 0.0, -1.0, 0.0)))
    assert out.energy == pytest.approx(1.25, abs=1e-12)
    assert out.p.x1 == pytest.approx(-0.75, abs=1e-12)
    # tan(theta') = sin(theta)/(sinh chi + cosh chi cos theta) = 1/0.75
    tan_theta_prime = (-out.p.x2 / out.energy) / (-out.p.x1 / out.energy)
    assert tan_theta_prime == pytest.approx(1.0 / 0.75, rel=1e-12)
    assert math.atan2(-out.p.x2, -out.p.x1) == pytest.approx(
        aberrate(LN2, math.pi / 2), abs=1e-12)


def test_doppler_matches_photon_oracle_at_general_angle(rng):
    for _ in range(200):
        chi = rng.uniform(-2, 2)
        theta = rng.uniform(0, math.pi)
        # incoming photon at angle theta from the +x1 boost axis
        p = Photon4Momentum(FourVector(
            1.0, -math.cos(theta), -math.sin(theta), 0.0))
        out = boost_photon(boost_x(chi), p)
        assert out.energy == pytest.approx(doppler(chi, theta), rel=1e-12)
        # the transformed direction satisfies the half-angle law
        theta_prime = math.atan2(-out.p.x2 / out.energy, -out.p.x1 / out.energy)
        assert theta_prime == pytest.approx(aberrate(chi, theta), abs=1e-9)


def test_doppler_aberration_pairing(rng):
    for _ in range(500):
        chi = rng.uniform(-3, 3)
        theta = rng.uniform(0, math.pi)
        assert doppler(chi, theta) * doppler(-chi, aberrate(chi, theta)) == \
            pytest.approx(1.0, abs=1e-10)


def test_boost_photon_validation():
    with pytest.raises(NotNull):
        Photon4Momentum(FourVector(1.0, 0.5, 0.0, 0.0))
    with pytest.raises(NotNull):
        Photon4Momentum(FourVector(-1.0, 1.0, 0.0, 0.0))
    # null past the double range of p^2: tested as p / E
    assert Photon4Momentum(FourVector(1e200, 1e200, 0.0, 0.0)).energy == 1e200
    assert boost_photon(boost_x(-300.0), Photon4Momentum(FourVector(1e100, 1e100, 0.0, 0.0))
                        ).energy > 1e230
    with pytest.raises(NotNull):
        Photon4Momentum(FourVector(1e200, 5e199, 0.0, 0.0))
    p = Photon4Momentum(FourVector(1.0, 1.0, 0.0, 0.0))
    with pytest.raises(NotOrthochronous):
        boost_photon(time_reversal(), p)


def test_boost_photon_preserves_nullness_and_energy(rng):
    for _ in range(300):
        lam = random_proper_orthochronous(rng)
        if rng.uniform() < 0.5:
            lam = lam @ parity()     # improper but orthochronous
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        e = rng.uniform(0.1, 10)
        p = Photon4Momentum(FourVector(e, -e * n[0], -e * n[1], -e * n[2]))
        out = boost_photon(lam, p)
        assert out.energy > 0
        assert abs(interval_squared(out.p)) <= 1e-9 * out.energy ** 2


@pytest.mark.parametrize("chi", [math.nan, math.inf, -math.inf, 1000.0, -1000.0, 710.0])
def test_unusable_rapidity_raises_range_error(chi):
    with pytest.raises(RangeError, match="rapidity"):
        doppler(chi, 0.5)
    with pytest.raises(RangeError, match="rapidity"):
        aberrate(chi, 0.5)
    # e^709 is still a finite double
    assert math.isfinite(doppler(709.0, math.pi))
