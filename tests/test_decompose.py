import itertools
import math

import numpy as np
import pytest

from lorentzsky import (StandardDecomposition, boost_axis, boost_x, parity,
                        rapidity_of, recompose, rotation_about_axis,
                        rotation_embed, standard_decompose, validate_lorentz)
from lorentzsky.errors import NotLorentz, WrongComponent
from lorentzsky.sampling import random_proper_orthochronous, random_rotation

LN2 = 0.6931471805599453


def test_identity_decomposes_trivially():
    d = standard_decompose(validate_lorentz(np.eye(4)))
    assert d.chi == 0.0
    assert np.abs(d.r1 @ d.r2 - np.eye(3)).max() < 1e-12


def test_pure_rotation_branch(rng):
    r = random_rotation(rng)
    d = standard_decompose(rotation_embed(r))
    assert d.chi == 0.0
    assert np.abs(d.r1 @ d.r2 - r).max() < 1e-12


def test_pure_boost_by_ln2():
    # The 0-0 entry is cosh(chi), and cosh(ln 2) = 1.25, so chi = ln 2.
    d = standard_decompose(boost_x(LN2))
    assert d.chi == pytest.approx(LN2, abs=1e-12)
    assert np.abs(recompose(d).entries - boost_x(LN2).entries).max() < 1e-12


def test_wrong_component_rejected():
    with pytest.raises(WrongComponent):
        standard_decompose(parity())
    with pytest.raises(WrongComponent):
        rapidity_of(parity())


def test_recompose_trivial_cases():
    ident = StandardDecomposition(np.eye(3), 0.0, np.eye(3))
    assert np.abs(recompose(ident).entries - np.eye(4)).max() == 0.0
    chi = 1.7
    pure = StandardDecomposition(np.eye(3), chi, np.eye(3))
    assert np.abs(recompose(pure).entries - boost_x(chi).entries).max() == 0.0


def test_recompose_conjugation_oracle():
    # Sandwiching boost_x between Rz(pi/2) and its inverse tilts the boost
    # onto the second axis, which boost_axis builds independently.
    rz = rotation_about_axis((0, 0, 1), math.pi / 2)
    d = StandardDecomposition(rz, LN2, rz.T)
    expected = boost_axis((0.0, 1.0, 0.0), LN2)
    assert np.abs(recompose(d).entries - expected.entries).max() < 1e-12


def test_decomposition_invariants_reject_bad_factors():
    with pytest.raises(ValueError):
        StandardDecomposition(np.diag([1.0, 1.0, -1.0]), 0.3, np.eye(3))
    with pytest.raises(ValueError):
        StandardDecomposition(np.eye(3), -0.1, np.eye(3))


def test_round_trip_random(rng):
    for _ in range(1000):
        lam = random_proper_orthochronous(rng, chi_max=5.0)
        d = standard_decompose(lam)
        assert d.chi >= 0.0
        assert np.abs(recompose(d).entries - lam.entries).max() <= 1e-9
        assert math.cosh(d.chi) == pytest.approx(lam.entries[0, 0], abs=1e-9)


@pytest.mark.parametrize("t, chi", itertools.product((1e-7, 1e-6, 2e-6, 1e-5),
                                                     (0.5, 1.0, 2.0)))
def test_round_trip_boost_near_coordinate_plane(t, chi):
    # Axes this close to the x3 = 0 plane once lost orthogonality while
    # completing the frame around e1 and raised a plain ValueError.
    n = np.array([0.6, -0.8, t])
    lam = boost_axis(n / np.linalg.norm(n), chi)
    d = standard_decompose(lam)
    assert d.chi == pytest.approx(chi, abs=1e-9)
    assert np.abs(recompose(d).entries - lam.entries).max() <= 1e-9


def test_round_trip_imprecise_inputs(rng):
    # Exact matrices plus entrywise noise of 1e-11 to 1e-10, kept when they
    # still pass validation: the factors must still be rotations.
    accepted = 0
    for _ in range(1000):
        exact = random_proper_orthochronous(rng, chi_max=5.0).entries
        noisy = exact + rng.normal(size=(4, 4)) * 10.0 ** rng.uniform(-11.0, -10.0)
        try:
            lam = validate_lorentz(noisy)
        except NotLorentz:
            continue
        accepted += 1
        d = standard_decompose(lam)
        assert np.abs(recompose(d).entries - lam.entries).max() <= 1e-8
    assert accepted >= 500


@pytest.mark.parametrize("chi", [20.0, 25.0, 30.0])
def test_round_trip_past_the_4x4_precision_limit(rng, chi):
    # Entries of order cosh chi carry rounding of order cosh chi ulp, so an
    # r2 read off the Thomas-Wigner rotation alone is off by that much in
    # the row that boost_x multiplies by cosh chi again.
    boost = boost_axis((0.6, 0.0, 0.8), chi)
    for _ in range(10):
        rot = rotation_embed(random_rotation(rng))
        for lam in (boost @ rot, rot @ boost):
            d = standard_decompose(lam)
            assert d.chi == pytest.approx(chi, rel=1e-12)
            residual = np.abs(recompose(d).entries - lam.entries).max()
            assert residual / lam.entries[0, 0] <= 1e-5


@pytest.mark.parametrize("chi1, chi2", [(0.5, 0.7), (1.0, 2.0), (3.0, 3.0)])
def test_thomas_wigner_rotation_of_perpendicular_boosts(chi1, chi2):
    # A boost along x1 then one along x2 leaves, after the pure boost is
    # factored out, a rotation about x3 with cos theta = (g1 + g2) / (1 + g1 g2).
    d = standard_decompose(boost_axis((0, 1, 0), chi2) @ boost_axis((1, 0, 0), chi1))
    w = d.r1 @ d.r2
    g1, g2 = math.cosh(chi1), math.cosh(chi2)
    assert abs((np.trace(w) - 1.0) / 2.0 - (g1 + g2) / (1.0 + g1 * g2)) <= 1e-12
    assert np.abs(w @ (0.0, 0.0, 1.0) - (0.0, 0.0, 1.0)).max() <= 1e-12


def test_rapidity_of_examples(rng):
    assert rapidity_of(validate_lorentz(np.eye(4))) == 0.0
    assert rapidity_of(boost_x(2.5)) == pytest.approx(2.5, abs=1e-12)
    assert rapidity_of(boost_axis((0, 0, 1), 1.0)) == pytest.approx(1.0, abs=1e-12)
    # chi depends only on the 0-0 entry, so rotation sandwiches leave it alone.
    for _ in range(100):
        r1, r2 = random_rotation(rng), random_rotation(rng)
        chi = rng.uniform(0, 5)
        lam = rotation_embed(r1) @ boost_x(chi) @ rotation_embed(r2)
        assert rapidity_of(lam) == pytest.approx(chi, abs=1e-10)


@pytest.mark.parametrize("chi", [1e-9, 1e-7, 1e-5])
def test_rapidity_of_small_rapidities(rng, chi):
    # acosh of a 0-0 entry within an ulp or two of 1 loses every digit here.
    lam = (rotation_embed(random_rotation(rng)) @ boost_axis((0.6, 0.0, 0.8), chi)
           @ rotation_embed(random_rotation(rng)))
    assert rapidity_of(lam) == pytest.approx(chi, rel=1e-12)


def test_rapidity_of_clamps_rounding_below_one():
    # A product of rotations can leave the 0-0 entry a hair under 1.
    m = np.eye(4)
    m[0, 0] = 1.0 - 1e-12
    assert rapidity_of(validate_lorentz(m)) == 0.0
