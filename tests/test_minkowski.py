import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lorentzsky import (ComponentLabel, FourVector, LorentzMatrix, METRIC, PoincareTransform,
                        add_velocities, boost_axis, boost_x,
                        classify_component, gamma,
                        integrate_proper_acceleration, interval_squared,
                        parity, poincare_compose, rapidity_from_velocity,
                        rotation_about_axis, rotation_embed, time_reversal,
                        recompose, StandardDecomposition, validate_lorentz,
                        velocity_from_rapidity)
from lorentzsky.errors import BadAxis, NotLorentz, RangeError, SpeedLimit
from lorentzsky.minkowski import _ROUNDING_TOL, DEFAULT_TOL
from lorentzsky.sampling import random_proper_orthochronous, random_rotation

LN2 = 0.6931471805599453


def test_interval_squared_examples():
    assert interval_squared(FourVector(1, 1, 0, 0)) == 0.0
    assert interval_squared(FourVector(2, 1, 0, 0)) == -3.0
    assert interval_squared(FourVector(0, 3, 4, 0)) == 25.0


def test_four_vector_rejects_non_finite():
    with pytest.raises(ValueError):
        FourVector(math.inf, 0, 0, 0)
    with pytest.raises(ValueError):
        FourVector(0, math.nan, 0, 0)


def test_validate_lorentz_accepts_identity_and_boost():
    validate_lorentz(np.eye(4), tol=1e-9)
    # cosh(ln 2) = 1.25 and sinh(ln 2) = 0.75 satisfy cosh^2 - sinh^2 = 1
    # exactly, so the metric-preservation residual vanishes.
    b = boost_x(LN2)
    assert b.entries[0, 0] == pytest.approx(1.25, abs=1e-15)
    assert b.entries[0, 1] == pytest.approx(-0.75, abs=1e-15)
    m = b.entries
    assert np.abs(m.T @ METRIC @ m - METRIC).max() < 1e-15


def test_validate_lorentz_rejects_scaling():
    with pytest.raises(NotLorentz) as exc_info:
        validate_lorentz(np.diag([2.0, 1.0, 1.0, 1.0]))
    assert exc_info.value.residual == pytest.approx(3.0)


def test_validate_lorentz_rejects_non_finite():
    m = np.eye(4)
    m[2, 3] = math.nan
    with pytest.raises(NotLorentz):
        validate_lorentz(m)


def test_classification_of_discrete_elements():
    assert classify_component(validate_lorentz(np.eye(4))) is ComponentLabel.PROPER_ORTHOCHRONOUS
    assert classify_component(parity()) is ComponentLabel.IMPROPER_ORTHOCHRONOUS
    # time reversal has det -1 and negative 0-0 entry
    assert classify_component(time_reversal()) is ComponentLabel.IMPROPER_ANTICHRONOUS
    assert classify_component(parity() @ time_reversal()) is ComponentLabel.PROPER_ANTICHRONOUS


def test_component_multiplication_table(rng):
    reps = {
        (1, 1): validate_lorentz(np.eye(4)),
        (-1, 1): parity(),
        (-1, -1): time_reversal(),
        (1, -1): parity() @ time_reversal(),
    }
    sign_of = {
        ComponentLabel.PROPER_ORTHOCHRONOUS: (1, 1),
        ComponentLabel.IMPROPER_ORTHOCHRONOUS: (-1, 1),
        ComponentLabel.IMPROPER_ANTICHRONOUS: (-1, -1),
        ComponentLabel.PROPER_ANTICHRONOUS: (1, -1),
    }
    for s1, rep1 in reps.items():
        for s2, rep2 in reps.items():
            a = rep1 @ random_proper_orthochronous(rng, chi_max=2.0)
            b = rep2 @ random_proper_orthochronous(rng, chi_max=2.0)
            got = sign_of[classify_component(a @ b)]
            assert got == (s1[0] * s2[0], s1[1] * s2[1])


def test_orthochronous_product_closure(rng):
    for _ in range(200):
        a = random_proper_orthochronous(rng)
        b = random_proper_orthochronous(rng)
        if rng.uniform() < 0.5:
            a = parity() @ a
        if rng.uniform() < 0.5:
            b = b @ parity()
        assert (a @ b).entries[0, 0] > 0


def test_apply_and_poincare_composition(rng):
    ident = PoincareTransform.identity()
    zero = FourVector(0, 0, 0, 0)
    assert poincare_compose(ident, ident) == ident

    lam = random_proper_orthochronous(rng, chi_max=1.5)
    a = FourVector(0.3, -1.2, 0.5, 2.0)
    g = PoincareTransform(lam, a)
    assert g.apply(zero) == a
    assert a - a == zero
    assert lam != object()
    gid = poincare_compose(g, g.inverse())
    assert np.abs(gid.lorentz.entries - np.eye(4)).max() < 1e-12
    assert np.abs(gid.translation.as_array()).max() < 1e-12

    # (R, a) . (I, b) = (R, a + R b)
    r = rotation_embed(random_rotation(rng))
    b = FourVector(1.0, 2.0, -0.5, 0.25)
    combined = poincare_compose(PoincareTransform(r, a), PoincareTransform(
        validate_lorentz(np.eye(4)), b))
    assert np.abs(combined.lorentz.entries - r.entries).max() == 0.0
    expected = a.as_array() + r.entries @ b.as_array()
    assert np.abs(combined.translation.as_array() - expected).max() < 1e-12


def test_interval_invariance(rng):
    for _ in range(1000):
        lam = random_proper_orthochronous(rng)
        dx = FourVector.from_array(rng.normal(size=4))
        before = interval_squared(dx)
        after = interval_squared(lam.apply(dx))
        assert abs(after - before) <= 1e-9 * max(1.0, abs(before))


def test_gamma_and_rapidity_values():
    assert gamma(0.6) == pytest.approx(1.25, abs=1e-15)
    # tanh(ln 2) = (4 - 1)/(4 + 1) = 0.6, so argtanh(0.6) = ln 2.
    assert math.tanh(LN2) == pytest.approx(0.6, abs=1e-15)
    assert rapidity_from_velocity(0.6) == pytest.approx(LN2, abs=1e-12)
    assert add_velocities(0.5, 0.5) == pytest.approx(0.8, abs=1e-15)


def test_speed_limit_errors():
    for bad in (1.0, -1.0, 1.5, math.nan):
        with pytest.raises(SpeedLimit):
            gamma(bad)
        with pytest.raises(SpeedLimit):
            rapidity_from_velocity(bad)
    with pytest.raises(SpeedLimit):
        add_velocities(1.0, 0.2)
    with pytest.raises(SpeedLimit):
        add_velocities(math.nan, 0.5)


@given(st.floats(min_value=-0.999, max_value=0.999))
def test_velocity_rapidity_round_trip(v):
    assert velocity_from_rapidity(rapidity_from_velocity(v)) == pytest.approx(v, abs=1e-12)


@given(st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3))
def test_rapidity_additivity(chi1, chi2):
    prod = boost_x(chi1) @ boost_x(chi2)
    assert np.abs(prod.entries - boost_x(chi1 + chi2).entries).max() < 1e-10


def test_boost_x_basics():
    assert np.abs(boost_x(0.0).entries - np.eye(4)).max() == 0.0
    b = boost_x(LN2)
    assert b.entries[0, 0] == pytest.approx(math.cosh(LN2))
    assert b.entries[1, 0] == pytest.approx(-math.sinh(LN2))


def test_boost_axis_matches_x3_form():
    chi = 0.8
    b = boost_axis((0.0, 0.0, 1.0), chi)
    expected = np.eye(4)
    expected[0, 0] = expected[3, 3] = math.cosh(chi)
    expected[0, 3] = expected[3, 0] = -math.sinh(chi)
    assert np.abs(b.entries - expected).max() < 1e-12


def test_boost_axis_along_x1_is_boost_x():
    chi = 1.1
    assert np.abs(boost_axis((1.0, 0.0, 0.0), chi).entries - boost_x(chi).entries).max() < 1e-12


def test_boost_axis_passes_validation_and_has_cosh_corner(rng):
    for _ in range(50):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        chi = rng.uniform(0, 4)
        b = boost_axis(n, chi)
        assert b.entries[0, 0] == pytest.approx(math.cosh(chi), rel=1e-12)


def test_boost_axis_rejects_non_unit():
    with pytest.raises(BadAxis):
        boost_axis((0.0, 0.0, 2.0), 1.0)
    with pytest.raises(BadAxis):
        boost_axis([1.0, 0.0], 1.0)
    with pytest.raises(BadAxis):
        rotation_about_axis((math.nan, 0.0, 0.0), 1.0)


def test_large_rapidity_constructs_and_composes():
    # representation rounding grows like cosh^2, so construction and
    # composition must not trip over their own residual
    b = boost_x(12.0)
    assert b.entries[0, 0] == pytest.approx(math.cosh(12.0), rel=1e-15)
    chained = boost_x(10.0) @ boost_x(10.0)
    assert chained.entries[0, 0] == pytest.approx(math.cosh(20.0), rel=1e-12)
    # a product's tolerance follows its rounding, ~p00^2 ulp: two chi = 5 boosts leave a
    # residual of ~6.5e-9, and the |det| check keeps its meaning
    two = boost_x(5.0) @ boost_axis((0.0, 0.6, 0.8), 5.0)
    assert two.residual <= two.tol < 1.0
    assert (two @ two).tol < 1e6
    # A A^-1 = I holds to ~cosh^2(chi) ulp, past the rule for entries of size 1 at chi = 15:
    # the cancellation is refused by name
    c = boost_axis((0.6, 0.0, 0.8), 15.0)
    with pytest.raises(RangeError, match="past double precision"):
        c @ c.inverse()


def test_product_carries_a_loosely_validated_factors_residual():
    m = boost_x(1.0).entries.copy()
    m[3, 3] += 1e-7
    loose = LorentzMatrix(m, 1e-6)
    # a boost along z stretches loose's z-z defect by ~cosh^2 3: a residual of ~2e-5.  A defect
    # past a factor's own rounding bound is carried; the caller's looser tol is not inherited
    for product in (loose @ rotation_embed(rotation_about_axis((1.0, 0.0, 0.0), 0.7)),
                    boost_x(0.5) @ loose, loose @ boost_axis((0.0, 0.0, 1.0), 3.0)):
        assert DEFAULT_TOL < product.residual <= product.tol
    assert (boost_x(0.5) @ loose).tol < loose.tol
    # a defect the default tol let in is carried too, through a boost that stretches it 10x
    m = boost_x(3.0).entries.copy()
    m[2, 0] += 5e-10
    lam = validate_lorentz(m)
    for product in (lam @ boost_x(3.0), boost_x(3.0) @ lam, boost_axis((0.0, 0.0, 1.0), 3.0) @ lam):
        assert lam.residual <= product.residual <= product.tol


def test_inverse_carries_the_residual_it_validated_with():
    # M eta M^T - eta can exceed M^T eta M - eta by up to 7.47 m00^2 times: 1.0e-9 here
    m = boost_x(3.0).entries.copy()
    m[2, 0] += 1e-10
    lam = validate_lorentz(m)
    assert lam.residual == pytest.approx(1e-10, rel=1e-6)
    inv = lam.inverse()
    assert inv.residual == pytest.approx(1.007e-9, rel=1e-3) and inv.residual <= inv.tol
    assert np.array_equal(inv.entries, METRIC @ m.T @ METRIC)
    assert PoincareTransform(lam, FourVector(0, 0, 0, 0)).inverse().lorentz == inv
    # an exact boost's rounding residual is not carried: its inverse is checked at its own
    # size, as the boost is
    for chi in (20.0, 300.0):
        exact = boost_x(chi)
        assert exact.inverse().tol == exact.tol == _ROUNDING_TOL * math.cosh(chi) ** 2
        assert (exact.inverse() @ boost_x(0.1)).tol < exact.tol


def test_a_defect_within_what_rounding_leaves_is_not_carried():
    # A known limit, pinned: a residual below 16 eps m00^2 (2.9e-9 for boost_x(7.5)) is not told
    # apart from rounding, so a defect of 5e-10 there is not carried, and the inverse, whose
    # residual is ~m00 times larger, is refused; the error names the factor's residual.  A
    # defect of 5e-9 is carried.
    m = boost_x(7.5).entries.copy()
    m[2, 0] += 5e-10
    with pytest.raises(RangeError, match=r"residual 4.520e-07 .* factor residuals 5.000e-10\)"):
        validate_lorentz(m).inverse()
    m[2, 0] += 4.5e-9
    inv = validate_lorentz(m).inverse()
    assert inv.residual <= inv.tol


@pytest.mark.parametrize("a, b", [(boost_x(188.0), boost_x(188.0).inverse()),
                                  (boost_x(200.0), boost_x(200.0))])
def test_product_whose_rounding_bound_overflows_names_the_lost_precision(a, b):
    # A A^-1's 0-0 entry at chi = 188 is all rounding noise of cosh^2 188; the bound
    # 64 eps p00^2 of the product's own 0-0 entry, cosh 400 at chi = 200, is past the double
    # range and bounds nothing
    with pytest.raises(RangeError, match="past double precision: .*precision lost"):
        a @ b


@pytest.mark.parametrize("chi", [711.0, -711.0, 800.0, -800.0, 1e308, 356.0, -356.0, 400.0,
                                 700.0])
def test_boost_overflow_raises_range_error_naming_the_rapidity(chi):
    # math.cosh overflows a double past |chi| ~ 710.5, and cosh^2, which sets
    # the tolerance, past |chi| ~ 355.3, where an inf tolerance would accept an
    # inf residual.  The error must be a LorentzSkyError that names the rapidity.
    with pytest.raises(RangeError, match=re.escape(repr(chi))):
        boost_x(chi)
    with pytest.raises(RangeError, match=re.escape(repr(chi))):
        boost_axis((0.6, 0.0, 0.8), chi)
    with pytest.raises(RangeError, match=re.escape(repr(abs(chi)))):
        recompose(StandardDecomposition(np.eye(3), abs(chi), np.eye(3)))


@pytest.mark.parametrize("chi", [355.0, -355.0])
def test_boost_below_the_cosh_squared_limit_keeps_a_finite_tolerance(chi):
    for lam in (boost_x(chi), boost_axis((0.0, 0.0, 1.0), chi),
                recompose(StandardDecomposition(np.eye(3), abs(chi), np.eye(3)))):
        ch = math.cosh(chi)
        assert math.isfinite(lam.tol)
        assert lam.tol == _ROUNDING_TOL * (ch * ch)
        assert lam.residual <= lam.tol


@pytest.mark.parametrize("chi", [math.nan, math.inf, -math.inf])
def test_boost_non_finite_rapidity_is_not_lorentz(chi):
    with pytest.raises(RangeError, match="rapidity must be finite"):
        boost_x(chi)
    with pytest.raises(RangeError, match="rapidity must be finite"):
        boost_axis((0.0, 0.0, 1.0), chi)


def test_rotation_embed_rejects_non_rotation():
    with pytest.raises(ValueError):
        rotation_embed(np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(ValueError):
        rotation_embed(2 * np.eye(3))


def test_rotation_about_axis_oracle():
    r = rotation_about_axis((0, 0, 1), math.pi / 2)
    assert np.abs(r @ np.array([1.0, 0, 0]) - np.array([0, 1.0, 0])).max() < 1e-15


def test_integrate_proper_acceleration_zero():
    tau = np.linspace(0.0, 7.0, 11)
    assert integrate_proper_acceleration(tau, np.zeros_like(tau)) == 0.0


def test_integrate_proper_acceleration_constant():
    # Constant acceleration g over proper time s = ln2 / g accumulates
    # rapidity g s = ln 2; the velocity then is tanh(ln 2) = 0.6.
    g = 9.8
    s = LN2 / g
    tau = np.linspace(0.0, s, 10_001)
    chi = integrate_proper_acceleration(tau, np.full_like(tau, g))
    assert chi == pytest.approx(LN2, abs=1e-12)
    assert velocity_from_rapidity(chi) == pytest.approx(0.6, abs=1e-12)


def test_integrate_proper_acceleration_piecewise_additive():
    # g on [0, s/2], zero afterwards; a repeated grid point pins the jump.
    g, s = 2.5, 4.0
    tau = np.concatenate([np.linspace(0, s / 2, 501), np.linspace(s / 2, s, 501)])
    accel = np.where(np.arange(tau.size) < 501, g, 0.0)
    chi = integrate_proper_acceleration(tau, accel)
    assert chi == pytest.approx(g * s / 2, rel=1e-12)


def test_integrate_proper_acceleration_input_checks():
    with pytest.raises(ValueError):
        integrate_proper_acceleration(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        integrate_proper_acceleration(np.array([0.0, 1.0]), np.array([1.0, math.inf]))
    with pytest.raises(ValueError):
        integrate_proper_acceleration(np.array([1.0, 0.0]), np.array([1.0, 1.0]))


@pytest.mark.parametrize("chi", [17.0, 20.0, 25.0, 30.0, 34.0])
def test_classification_past_the_4x4_determinant_limit(chi):
    # det of the 4x4 boost reads 0 (or garbage) here in double precision
    lam = boost_axis((0.6, 0.0, 0.8), chi)
    assert classify_component(lam) is ComponentLabel.PROPER_ORTHOCHRONOUS
    assert classify_component(parity() @ lam) is ComponentLabel.IMPROPER_ORTHOCHRONOUS
    assert classify_component(time_reversal() @ lam) is ComponentLabel.IMPROPER_ANTICHRONOUS
    assert (classify_component(parity() @ time_reversal() @ lam)
            is ComponentLabel.PROPER_ANTICHRONOUS)


@pytest.mark.parametrize("chi", [170.0, 178.0, 200.0, 300.0, 355.0])
def test_oblique_boost_validates_up_to_the_cosh_squared_limit(chi):
    # The 4x4 determinant of an oblique boost overflows from chi ~ 178 and
    # rejected it; |det| read from the spatial block stays finite to 355.3.
    # (Past chi ~ 34 that value is rounding too, which the cosh^2-scaled
    # tolerance accepts: see the next test.)
    lam = boost_axis((0.6, 0.0, 0.8), chi)
    assert lam.residual <= lam.tol
    assert validate_lorentz(lam.entries, lam.tol) == lam


def test_boost_tolerance_past_one_leaves_the_det_check_vacuous():
    """A known limit, pinned: the rounding-level tolerance 64 eps cosh^2 chi reaches 1 at
    chi = acosh(2^23) ~ 16.64, and from there a residual of 1 passes.

    Zeroing the x3 row and column of a boost leaves (m^T eta m)_33 = 0 against
    eta_33 = 1, a residual of exactly 1, and a determinant of exactly 0.  The
    |det| check, | |det| - 1 | <= tol, then accepts det = 0 too, so past
    chi ~ 16.64 a validated matrix need not be invertible.
    """
    limit = math.acosh(1.0 / math.sqrt(_ROUNDING_TOL))
    assert 16.63 < limit < 16.64
    assert boost_x(limit - 1e-3).tol < 1.0 <= boost_x(limit + 1e-3).tol
    for chi in (11.0, 16.5, 16.7):
        m = boost_x(chi).entries.copy()
        m[3, 3] = 0.0
        if chi < limit:
            with pytest.raises(NotLorentz, match="metric-preservation residual"):
                LorentzMatrix(m)
        else:
            singular = LorentzMatrix(m)
            assert singular.residual == 1.0
            assert np.linalg.det(singular.entries) == 0.0


@pytest.mark.parametrize("c, accepted", [(8e6, False), (2.0 ** 23 - 1, False),
                                         (2.0 ** 23, True), (9e6, True)])
def test_singular_block_passes_once_the_rounding_bound_reaches_one(c, accepted):
    # [[c, c], [c, c]] + I has residual exactly 1 and det 0; 64 eps c^2 reaches 1 at c = 2^23,
    # and its |det| read from the spatial block is exactly 1
    m = np.eye(4)
    m[:2, :2] = c
    if not accepted:
        with pytest.raises(NotLorentz, match="metric-preservation residual 1.000e"):
            LorentzMatrix(m)
        return
    lam = LorentzMatrix(m)
    assert lam.residual == 1.0 <= lam.tol
    assert np.linalg.det(lam.entries) == 0.0


@pytest.mark.parametrize("chi, accepted, message", [
    (7.0, True, None), (8.0, True, None), (8.25, True, None), (8.5, False, "residual"),
    (9.1, False, "residual"), (16.0, False, "residual"), (17.0, False, "0-0 entry"),
    (20.0, False, "0-0 entry"), (27.5, False, "0-0 entry"), (188.0, False, "0-0 entry")])
def test_boost_times_its_inverse_is_refused_once_its_cancellation_passes_the_floor(
        chi, accepted, message):
    """A A^-1 rounds by ~cosh^2(chi) ulp, against the 1e-9 floor of a matrix of size 1: which
    chi from ~7.7 on pass is the luck of each rounding; 8.25 passes, 8.5 does not.  The
    products' fixed order makes their off-diagonal entries cosh * sinh - sinh * cosh exactly
    0, so the product is diag(1 + d, 1 + d, 1, 1) and passes whenever cosh^2 - sinh^2 rounds
    to within 1e-9 of 1: about a quarter of chi in each unit band from 9 to 16.6, the same on
    every CPU.

    From chi ~ 16.6, where 64 eps cosh^2 chi reaches 1, the product's 0-0 entry is within the
    rounding of a00 * b00 and is refused as noise before its residual is read: from chi ~ 27.5
    that noise can reach 2^23, where a product of noise such as the singular block
    [[c, c], [c, c]] + I passes the residual rule.
    """
    b = boost_x(chi)
    if accepted:
        p = b @ b.inverse()
        assert p.residual <= DEFAULT_TOL == p.tol
        return
    with pytest.raises(RangeError, match=f"product is past double precision: .*{message}"):
        b @ b.inverse()


def test_determinant_check_rejects_what_the_residual_passes():
    # diag(1, s, s, s) with s = 1 + e: residual 2e + e^2, det s^3 ~ 1 + 3e, so
    # a tolerance of 2.5e passes the residual and only |det| rejects it.
    e = 1e-10
    m = np.diag([1.0, 1.0 + e, 1.0 + e, 1.0 + e])
    with pytest.raises(NotLorentz, match="determinant"):
        LorentzMatrix(m, 2.5 * e)
    assert LorentzMatrix(m, 3.5 * e).residual <= 2.5 * e
    # the same with m00 = -1, which the block reading divides by
    with pytest.raises(NotLorentz, match="determinant"):
        LorentzMatrix(-m, 2.5 * e)


def test_zero_time_entry_is_rejected_at_any_tolerance():
    # diag(0, 1, 1, 1) has residual 1 and det 0, so a tolerance of 2 passes
    # both; the block reading of det divides by m00, so a zero m00 is
    # refused by name.
    with pytest.raises(NotLorentz, match="0-0 entry"):
        LorentzMatrix(np.diag([0.0, 1.0, 1.0, 1.0]), 2.0)

