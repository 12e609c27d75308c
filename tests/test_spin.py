import cmath
import hashlib
import itertools
import math
import struct

import numpy as np
import pytest

from lorentzsky import (ComponentLabel, FourVector, HermitianSlot,
                        SL2CElement, SL2RElement, SU2Element,
                        boost_axis, classify_component, rotation_embed,
                        standard_decompose,
                        four_vector_from_hermitian, hermitian_from_four_vector,
                        interval_squared, lift_lorentz_to_sl2c, parity,
                        rotation_about_axis, sl2c_to_lorentz, sl2r_to_so21,
                        su2_from_axis_angle, su2_to_so3)
from lorentzsky.errors import BadAxis, NotHermitian, RangeError, WrongComponent
from lorentzsky.sampling import random_rotation, random_sl2c, random_su2

LN2 = 0.6931471805599453


# --- independent oracles: the covers written out as quadratic forms -------

def lorentz_closed_form(a, b, c, d):
    cj = np.conjugate
    re, im = np.real, np.imag
    return np.array([
        [0.5 * (abs(a)**2 + abs(b)**2 + abs(c)**2 + abs(d)**2),
         -re(a*cj(b) + c*cj(d)), im(a*cj(b) + c*cj(d)),
         0.5 * (abs(a)**2 - abs(b)**2 + abs(c)**2 - abs(d)**2)],
        [-re(cj(a)*c + cj(b)*d), re(cj(a)*d + cj(b)*c),
         -im(a*cj(d) - b*cj(c)), -re(cj(a)*c - cj(b)*d)],
        [im(cj(a)*c + cj(b)*d), -im(cj(a)*d + cj(b)*c),
         re(a*cj(d) - b*cj(c)), im(cj(a)*c - cj(b)*d)],
        [0.5 * (abs(a)**2 + abs(b)**2 - abs(c)**2 - abs(d)**2),
         -re(a*cj(b) - c*cj(d)), im(a*cj(b) - c*cj(d)),
         0.5 * (abs(a)**2 - abs(b)**2 - abs(c)**2 + abs(d)**2)],
    ], dtype=float)


def so3_closed_form(a, b, c, d):
    cj = np.conjugate
    re, im = np.real, np.imag
    return np.array([
        [re(cj(a)*d + cj(b)*c), im(a*cj(d) - b*cj(c)), re(cj(a)*c - cj(b)*d)],
        [im(cj(a)*d + cj(b)*c), re(a*cj(d) - b*cj(c)), im(cj(a)*c - cj(b)*d)],
        [re(a*cj(b) - c*cj(d)), im(a*cj(b) - c*cj(d)),
         0.5 * (abs(a)**2 - abs(b)**2 - abs(c)**2 + abs(d)**2)],
    ], dtype=float)


def so21_closed_form(a, b, c, d):
    return np.array([
        [0.5 * (a*a + b*b + c*c + d*d), 0.5 * (a*a - b*b + c*c - d*d), -a*b - c*d],
        [0.5 * (a*a + b*b - c*c - d*d), 0.5 * (a*a - b*b - c*c + d*d), -a*b + c*d],
        [-a*c - b*d, b*d - a*c, a*d + b*c],
    ], dtype=float)


def random_sl2r(rng) -> SL2RElement:
    while True:
        m = rng.uniform(-2, 2, (2, 2))
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if det > 0.2:
            m = m / math.sqrt(det)
            return SL2RElement(m[0, 0], m[0, 1], m[1, 0], m[1, 1])


# --- Hermitian slot --------------------------------------------------------

def test_hermitian_from_four_vector_examples():
    assert np.abs(hermitian_from_four_vector(FourVector(1, 0, 0, 0)).matrix
                  - np.eye(2)).max() == 0.0
    # the first spatial slot carries minus the first Pauli matrix
    m = hermitian_from_four_vector(FourVector(0, 1, 0, 0)).matrix
    assert np.abs(m - np.array([[0, -1], [-1, 0]])).max() == 0.0
    slot = hermitian_from_four_vector(FourVector(2, 1, 0, 0))
    assert np.abs(slot.matrix - np.array([[2, -1], [-1, 2]])).max() == 0.0
    assert slot.det == pytest.approx(3.0)
    assert slot.det == pytest.approx(-interval_squared(FourVector(2, 1, 0, 0)))
    assert four_vector_from_hermitian(np.array([[2, -1], [-1, 2]])) == FourVector(2, 1, 0, 0)


def test_hermitian_round_trip(rng):
    for _ in range(100):
        x = FourVector.from_array(rng.normal(size=4))
        back = four_vector_from_hermitian(hermitian_from_four_vector(x))
        assert np.abs(back.as_array() - x.as_array()).max() <= 1e-15


def test_determinant_bridge(rng):
    for _ in range(200):
        x = FourVector.from_array(rng.normal(size=4) * 3)
        slot = hermitian_from_four_vector(x)
        assert abs(slot.det + interval_squared(x)) <= 1e-10


def test_not_hermitian_rejected():
    with pytest.raises(NotHermitian):
        HermitianSlot(np.array([[1.0, 1e-6j], [0.0, 1.0]]))


# --- the 4d cover -----------------------------------------------------------

def test_sl2c_identity_and_kernel():
    ident = SL2CElement.identity()
    assert np.abs(sl2c_to_lorentz(ident).entries - np.eye(4)).max() == 0.0
    s = SL2CElement(1.0, 0.5 + 0.25j, 0.0, 1.0)
    assert np.abs(sl2c_to_lorentz(-s).entries - sl2c_to_lorentz(s).entries).max() <= 1e-12


def test_sl2c_boost_example():
    chi = 0.9
    s = SL2CElement(math.exp(-chi / 2), 0.0, 0.0, math.exp(chi / 2))
    lam = sl2c_to_lorentz(s).entries
    expected = np.eye(4)
    expected[0, 0] = expected[3, 3] = math.cosh(chi)
    expected[0, 3] = expected[3, 0] = -math.sinh(chi)
    assert np.abs(lam - expected).max() < 1e-12


def test_sl2c_rotation_example():
    # Direct evaluation of the quadratic form on diag(e^{-i t/2}, e^{i t/2}):
    # the spatial block is [[cos t, sin t], [-sin t, cos t]] on axes 1, 2.
    t = 0.3
    s = SL2CElement(cmath.exp(-0.5j * t), 0.0, 0.0, cmath.exp(0.5j * t))
    lam = sl2c_to_lorentz(s).entries
    expected = np.eye(4)
    expected[1, 1] = expected[2, 2] = math.cos(t)
    expected[1, 2] = math.sin(t)
    expected[2, 1] = -math.sin(t)
    assert np.abs(lam - expected).max() < 1e-12


def test_sl2c_matches_closed_form(rng):
    for _ in range(300):
        s = random_sl2c(rng)
        got = sl2c_to_lorentz(s).entries
        assert np.abs(got - lorentz_closed_form(s.a, s.b, s.c, s.d)).max() < 1e-12


def test_sl2c_homomorphism_and_component(rng):
    for _ in range(300):
        s1, s2 = random_sl2c(rng), random_sl2c(rng)
        lhs = sl2c_to_lorentz(s1 @ s2).entries
        rhs = sl2c_to_lorentz(s1).entries @ sl2c_to_lorentz(s2).entries
        assert np.abs(lhs - rhs).max() <= 1e-9
        assert classify_component(sl2c_to_lorentz(s1)) is ComponentLabel.PROPER_ORTHOCHRONOUS


def test_adjoint_consistency(rng):
    # Acting on the vector and conjugating the slot must agree.
    for _ in range(200):
        s = random_sl2c(rng)
        x = FourVector.from_array(rng.normal(size=4))
        lam = sl2c_to_lorentz(s)
        lhs = hermitian_from_four_vector(lam.apply(x)).matrix
        rhs = s.matrix @ hermitian_from_four_vector(x).matrix @ s.matrix.conj().T
        assert np.abs(lhs - rhs).max() <= 1e-9


def test_sl2c_element_validation():
    with pytest.raises(ValueError):
        SL2CElement(1.0, 0.0, 0.0, 2.0)
    s = SL2CElement(2.0, 0.0, 0.0, 0.5)
    assert np.abs((s @ s.inverse()).matrix - np.eye(2)).max() == 0.0


@pytest.mark.parametrize("chi", [17.0, 20.0, 40.0, 354.0])
def test_determinant_check_scales_with_the_entries(rng, chi):
    # ad and bc are ~e^chi / 4 each; their difference rounds by ~ulp of that size
    ch, sh = math.cosh(0.5 * chi), math.sinh(0.5 * chi)
    SL2CElement(ch, sh, sh, ch)
    dilation = SL2CElement(math.exp(0.5 * chi), 0.0, 0.0, math.exp(-0.5 * chi))
    for _ in range(20):
        u = random_sl2c(rng)
        s = u @ dilation @ u.inverse()  # every factor exact; refused from chi ~ 20 at 1e-9
        assert abs((s.a + s.d) / (2.0 * math.cosh(0.5 * chi)) - 1.0) <= 1e-13


def test_determinant_check_still_refuses_small_entries(rng):
    for _ in range(100):
        m = random_sl2c(rng).matrix * math.sqrt(1.0 + 1e-6)
        with pytest.raises(RangeError, match="is not 1 within"):
            SL2CElement.from_matrix(m)
    with pytest.raises(RangeError):
        SL2CElement(1e200, 0.0, 0.0, 1e200)  # ad overflows
    with pytest.raises(RangeError):
        SL2CElement(math.nan, 0.0, 0.0, 1.0)


@pytest.mark.parametrize("s, accepted", [(4e4, False), (1e6, False), (1e7, True)])
def test_singular_element_passes_once_the_rounding_bound_reaches_one(s, accepted):
    # ((s, s), (s, s)) has ad - bc = 0; 64 eps (|ad| + |bc|) reaches 1 at s ~ 5.9e6
    # (the rule 1e-9 (|ad| + |bc|) it replaced passed it from s ~ 2.2e4)
    if accepted:
        assert SL2CElement(s, s, s, s).matrix.tolist() == [[s, s], [s, s]]
    else:
        with pytest.raises(RangeError, match="determinant 0j is not 1 within"):
            SL2CElement(s, s, s, s)


# --- the 3d rotation cover --------------------------------------------------

def test_su2_identity_and_det():
    u = SU2Element(1.0, 0.0)
    r = su2_to_so3(u)
    assert np.abs(r - np.eye(3)).max() == 0.0


def test_su2_rotation_about_axis3():
    t = 0.7
    u = SU2Element(cmath.exp(-0.5j * t), 0.0)
    expected = np.array([[math.cos(t), -math.sin(t), 0.0],
                         [math.sin(t), math.cos(t), 0.0],
                         [0.0, 0.0, 1.0]])
    assert np.abs(su2_to_so3(u) - expected).max() < 1e-12


def test_su2_reflection_product_oracle():
    # A rotation is two plane reflections; build both sides by brute force.
    m = np.array([1.0, 0.0, 0.0])
    q = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    sigma = [np.array([[0, 1], [1, 0]], complex),
             np.array([[0, -1j], [1j, 0]], complex),
             np.array([[1, 0], [0, -1]], complex)]
    mq = sum(m[i] * sigma[i] for i in range(3)) @ sum(q[i] * sigma[i] for i in range(3))
    u = SU2Element(mq[0, 0], mq[0, 1])
    reflect = lambda v: np.eye(3) - 2.0 * np.outer(v, v)
    oracle = reflect(m) @ reflect(q)    # quarter turn about the third axis
    assert np.abs(su2_to_so3(u) - oracle).max() < 1e-12
    assert np.trace(oracle) == pytest.approx(1.0 + 2.0 * math.cos(math.pi / 2))


def test_su2_matches_closed_form_and_is_rotation(rng):
    for _ in range(300):
        u = random_su2(rng)
        r = su2_to_so3(u)
        m = u.matrix
        assert np.abs(r - so3_closed_form(m[0, 0], m[0, 1], m[1, 0], m[1, 1])).max() < 1e-12
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-9
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)


def test_su2_homomorphism_and_kernel(rng):
    for _ in range(200):
        u1, u2 = random_su2(rng), random_su2(rng)
        assert np.abs(su2_to_so3(u1 @ u2) - su2_to_so3(u1) @ su2_to_so3(u2)).max() <= 1e-9
        assert np.abs(su2_to_so3(-u1) - su2_to_so3(u1)).max() <= 1e-12


def test_su2_norm_validation():
    with pytest.raises(ValueError):
        SU2Element(1.0, 1.0)


# --- the 2+1 cover -----------------------------------------------------------

def test_sl2r_identity():
    assert np.abs(sl2r_to_so21(SL2RElement(1, 0, 0, 1)) - np.eye(3)).max() == 0.0


def test_sl2r_rotation_gives_double_angle():
    t = 0.4
    s = SL2RElement(math.cos(t), math.sin(t), -math.sin(t), math.cos(t))
    expected = np.array([[1.0, 0.0, 0.0],
                         [0.0, math.cos(2 * t), -math.sin(2 * t)],
                         [0.0, math.sin(2 * t), math.cos(2 * t)]])
    assert np.abs(sl2r_to_so21(s) - expected).max() < 1e-12


def test_sl2r_boost():
    chi = 1.2
    s = SL2RElement(math.exp(-chi / 2), 0.0, 0.0, math.exp(chi / 2))
    expected = np.array([[math.cosh(chi), -math.sinh(chi), 0.0],
                         [-math.sinh(chi), math.cosh(chi), 0.0],
                         [0.0, 0.0, 1.0]])
    assert np.abs(sl2r_to_so21(s) - expected).max() < 1e-12


def test_sl2r_preserves_3d_metric_and_closed_form(rng):
    eta3 = np.diag([-1.0, 1.0, 1.0])
    for _ in range(300):
        s = random_sl2r(rng)
        f = sl2r_to_so21(s)
        assert np.abs(f.T @ eta3 @ f - eta3).max() <= 1e-9
        assert f[0, 0] >= 1.0 - 1e-12
        assert np.abs(f - so21_closed_form(s.a, s.b, s.c, s.d)).max() < 1e-12


def test_sl2r_homomorphism_and_kernel(rng):
    for _ in range(200):
        s1, s2 = random_sl2r(rng), random_sl2r(rng)
        assert np.abs(sl2r_to_so21(s1 @ s2) - sl2r_to_so21(s1) @ sl2r_to_so21(s2)).max() <= 1e-9
        assert np.abs(sl2r_to_so21(-s1) - sl2r_to_so21(s1)).max() <= 1e-12


# --- axis-angle construction ------------------------------------------------

def test_su2_from_axis_angle_identity_and_double_cover(rng):
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    u0 = su2_from_axis_angle(n, 0.0)
    assert np.abs(u0.matrix - np.eye(2)).max() == 0.0
    u_full = su2_from_axis_angle(n, 2.0 * math.pi)
    assert np.abs(u_full.matrix + np.eye(2)).max() < 1e-15


def test_su2_from_axis_angle_about_x3():
    t = 1.1
    u = su2_from_axis_angle((0.0, 0.0, 1.0), t)
    expected = np.diag([cmath.exp(-0.5j * t), cmath.exp(0.5j * t)])
    assert np.abs(u.matrix - expected).max() < 1e-15


def test_su2_from_axis_angle_covers_rodrigues(rng):
    for _ in range(100):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        phi = rng.uniform(-2 * math.pi, 2 * math.pi)
        got = su2_to_so3(su2_from_axis_angle(n, phi))
        assert np.abs(got - rotation_about_axis(n, phi)).max() < 1e-12


def test_su2_from_axis_angle_rejects_bad_axis():
    with pytest.raises(BadAxis):
        su2_from_axis_angle((1.0, 1.0, 0.0), 0.5)


# --- lifting back to the cover ----------------------------------------------

def test_lift_identity_is_identity():
    lam = sl2c_to_lorentz(SL2CElement.identity())
    s = lift_lorentz_to_sl2c(lam)
    assert np.abs(s.matrix - np.eye(2)).max() < 1e-12


def test_lift_boost_along_x3():
    for chi in (0.1, 1.0, LN2, 3.0):
        s = lift_lorentz_to_sl2c(boost_axis((0.0, 0.0, 1.0), chi))
        expected = np.diag([math.exp(-chi / 2), math.exp(chi / 2)])
        assert np.abs(s.matrix - expected).max() <= 1e-10


def test_lift_rotation_about_x3_up_to_sign():
    t = 0.8
    target = SL2CElement(cmath.exp(-0.5j * t), 0.0, 0.0, cmath.exp(0.5j * t))
    lam = sl2c_to_lorentz(target)
    s = lift_lorentz_to_sl2c(lam)
    err = min(np.abs(s.matrix - target.matrix).max(),
              np.abs(s.matrix + target.matrix).max())
    assert err <= 1e-10


def test_lift_section_property(rng):
    for _ in range(300):
        s0 = random_sl2c(rng)
        lam = sl2c_to_lorentz(s0)
        s = lift_lorentz_to_sl2c(lam)
        assert np.abs(sl2c_to_lorentz(s).entries - lam.entries).max() <= 1e-8
        err = min(np.abs(s.matrix - s0.matrix).max(),
                  np.abs(s.matrix + s0.matrix).max())
        assert err <= 1e-8


@pytest.mark.parametrize("m", [
    np.diag([-1j, 1j]),                      # trace zero: the k = 0 slot vanishes
    np.array([[0, 1j], [1j, 0]]),
    np.array([[0, -1], [1, 0]]),
], ids=["diag", "offdiag-imag", "offdiag-real"])
def test_lift_half_turns_up_to_sign(m):
    s0 = SL2CElement.from_matrix(m)
    s = lift_lorentz_to_sl2c(sl2c_to_lorentz(s0))
    err = min(np.abs(s.matrix - s0.matrix).max(),
              np.abs(s.matrix + s0.matrix).max())
    assert err <= 1e-8


@pytest.mark.parametrize("t, chi", itertools.product((1e-7, 1e-6, 2e-6, 1e-5),
                                                     (0.5, 1.0, 2.0)))
def test_lift_boost_near_coordinate_plane(t, chi):
    n = np.array([0.6, -0.8, t])
    lam = boost_axis(n / np.linalg.norm(n), chi)
    s = lift_lorentz_to_sl2c(lam)
    assert np.abs(sl2c_to_lorentz(s).entries - lam.entries).max() <= 1e-8


def test_lift_rejects_other_components():
    with pytest.raises(WrongComponent):
        lift_lorentz_to_sl2c(parity())


def test_lift_survives_large_rapidity():
    lam = boost_axis((0.0, 0.0, 1.0), 12.0)
    s = lift_lorentz_to_sl2c(lam)
    err = np.abs(sl2c_to_lorentz(s).entries - lam.entries).max()
    assert err / float(np.abs(lam.entries).max()) < 1e-10


def test_lift_at_rapidity_17_holds_its_tolerance():
    lam = boost_axis((0.6, 0.0, 0.8), 17.0)
    s = lift_lorentz_to_sl2c(lam)
    err = np.abs(sl2c_to_lorentz(s).entries - lam.entries).max()
    assert err / float(np.abs(lam.entries).max()) <= 1e-8


def lift_error(lam):
    """Max-norm distance from lam to the image of its lift, relative to lam_00."""
    s = lift_lorentz_to_sl2c(lam)
    return float(np.abs(sl2c_to_lorentz(s).entries - lam.entries).max()) / lam.entries[0, 0]


@pytest.mark.parametrize("chi", [20.0, 30.0])
def test_lift_is_accurate_past_rapidity_18(chi):
    # a lift read off sum lam_mu_nu tau_mu tau_k tau_nu was off by ~lam_00 * 2^-52
    # relative here (2.6e-4 at chi = 30), so it refused from chi ~ 18.3
    assert lift_error(boost_axis((0.6, 0.0, 0.8), chi)) <= 1e-14


AXES = {"x1": (1.0, 0.0, 0.0), "x2": (0.0, 1.0, 0.0), "x3": (0.0, 0.0, 1.0),
        "-x3": (0.0, 0.0, -1.0), "oblique": (0.6, 0.0, 0.8)}


@pytest.mark.parametrize("chi", [19.0, 100.0, 354.0])
@pytest.mark.parametrize("axis", ["x1", "x2", "x3"])
def test_lift_of_axis_boosts_at_large_rapidity(axis, chi):
    lam = boost_axis(AXES[axis], chi)
    assert lift_error(lam) <= 1e-14
    if axis == "x3":
        s = lift_lorentz_to_sl2c(lam)
        assert s.matrix.tolist() == [[math.exp(-0.5 * chi), 0.0], [0.0, math.exp(0.5 * chi)]]


@pytest.mark.parametrize("axis", AXES)
def test_group_chain_holds_for_boosts_at_every_integer_rapidity(axis):
    # axis boosts to the cosh^2 limit; an oblique one to chi = 35, near where the
    # entries' own rounding reaches the sign classify_component reads (chi ~ 36)
    for chi in range(1, 36 if axis == "oblique" else 355):
        lam = boost_axis(AXES[axis], float(chi))
        assert classify_component(lam) is ComponentLabel.PROPER_ORTHOCHRONOUS
        assert abs(standard_decompose(lam).chi - chi) <= 1e-12 * chi
        assert lift_error(lam) <= 1e-14


@pytest.mark.parametrize("order", ["rotation-boost", "boost-rotation", "product"])
def test_lift_of_rotated_boosts_to_rapidity_34(rng, order):
    # s has an entry of size e^(-chi/2) in a row or column of size e^(chi/2);
    # building it from boost(n) . rotation made that entry a cancellation, and
    # ad - bc missed 1 by ~e^chi ulp (refused from chi ~ 17 for rotation . boost)
    for chi in np.linspace(1.0, 34.0, 100):
        r1, r2 = rotation_embed(random_rotation(rng)), rotation_embed(random_rotation(rng))
        boost = boost_axis((0.0, 0.0, 1.0), float(chi))
        lam = {"rotation-boost": r1 @ boost, "boost-rotation": boost @ r2,
               "product": r1 @ boost @ r2}[order]
        assert lift_error(lam) <= 1e-14


def test_restriction_to_su2_matches_rotation_cover(rng):
    # The spatial basis of the Hermitian slot flips the sign of the first
    # axis relative to the Pauli basis, so the two covers agree after
    # conjugating by that flip.
    flip = np.diag([-1.0, 1.0, 1.0])
    for _ in range(100):
        u = random_su2(rng)
        lam = sl2c_to_lorentz(u.to_sl2c())
        assert np.abs(lam.entries[0, 1:]).max() < 1e-12
        assert np.abs(lam.entries[1:, 0]).max() < 1e-12
        spatial = lam.entries[1:, 1:]
        assert np.array_equal(spatial, flip @ su2_to_so3(u) @ flip)


def test_restriction_to_sl2r_matches_real_cover(rng):
    # A real S keeps S sigma2 S^T = sigma2, so its cover fixes x2, and the
    # SL(2,R) cover is the (x0, x3, x1) block of the SL(2,C) one.
    axes = [0, 3, 1]
    for _ in range(100):
        s = random_sl2r(rng)
        lam = sl2c_to_lorentz(SL2CElement(s.a, s.b, s.c, s.d)).entries
        assert np.array_equal(lam[np.ix_(axes, axes)], sl2r_to_so21(s))
        scale = 1e-15 * lam[0, 0]
        assert np.abs(lam[2] - [0, 0, 1, 0]).max() <= scale
        assert np.abs(lam[:, 2] - [0, 0, 1, 0]).max() <= scale


def test_seeded_draws_are_pinned():
    # random_su2 normalises with math.hypot, not numpy's BLAS norm, and random_rotation is
    # its cover's block: the seeded inputs of the tests and scripts are the same on every CPU
    rng = np.random.default_rng(5)
    su2, rotations = hashlib.sha256(), hashlib.sha256()
    for _ in range(3000):
        u = random_su2(rng)
        su2.update(struct.pack("<4d", u.alpha.real, u.alpha.imag, u.beta.real, u.beta.imag))
        rotations.update(random_rotation(rng).tobytes())
    assert su2.hexdigest() == "2a0791dfeb427136da6d64141678d197043d90dbd3ae44701075e9272cd20008"
    assert rotations.hexdigest() == (
        "e618ff847e679c87a0ea2e0c1375906fb8d5dc0b7d61a577cd49ea8aeb7a76f0")
