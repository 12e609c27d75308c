"""The constant-matrix covers, the rotation cover of the lift, the closed-form
recompose and the scalar group path, pinned against the constructions they
replace.

The reference expressions below are the definitions themselves: the
adjoint action read off by trace pairing, the rotation a cover element maps to,
the product of three validated Lorentz matrices, the Lorentz-matrix check
with the 4 x 4 determinant, the component read from the unscaled triple
product (or known by construction), and the exact action composed from the
public maps.
"""

import math

import numpy as np
import pytest

from lorentzsky import (BondiPoint, ComponentLabel, FourVector, LorentzMatrix,
                        SL2CElement, SL2RElement, SpherePoint, StandardDecomposition, act_exact,
                        bondi_from_inertial, boost_axis, boost_x, classify_component,
                        inertial_from_bondi, parity, recompose, rotation_embed,
                        sl2c_to_lorentz, sl2r_to_so21, su2_to_so3, time_reversal)
from lorentzsky.errors import LorentzSkyError, NotLorentz
from lorentzsky.minkowski import DEFAULT_TOL, METRIC
from lorentzsky.sampling import (random_proper_orthochronous, random_rotation,
                                 random_sl2c, random_su2)
from lorentzsky.spin import _PAULI, TAU, _rotation_cover

N = 500
ETA3 = np.array([-1.0, 1.0, 1.0])
#: Traceless real generators of sl(2,R); tr(t_mu t_nu) = 2 eta_mu_nu.
SL2R_GEN = np.array([[[0.0, 1.0], [-1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]],
                     [[1.0, 0.0], [0.0, -1.0]]])


def ref_sl2c_to_lorentz(m):
    conj = np.einsum("ab,mbc,dc->mad", m, TAU, m.conj())
    return 0.5 * np.einsum("nab,mba->nm", TAU, conj).real


def ref_su2_to_so3(m):
    conj = np.einsum("ab,jbc,dc->jad", m, _PAULI, m.conj())
    return 0.5 * np.einsum("iab,jba->ij", _PAULI, conj).real


def ref_sl2r_to_so21(m, inv):
    conj = np.einsum("ab,mbc,cd->mad", m, SL2R_GEN, inv)
    return ETA3[:, None] * (0.5 * np.einsum("nab,mba->nm", SL2R_GEN, conj))


def random_sl2r(rng):
    while True:
        m = rng.uniform(-3, 3, (2, 2))
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if det > 0.2:
            m = m / math.sqrt(det)
            return SL2RElement(m[0, 0], m[0, 1], m[1, 0], m[1, 1])


def assert_close_to_scale(got, want):
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_sl2c_cover_matches_trace_pairing(rng):
    for _ in range(N):
        s = random_sl2c(rng)
        assert_close_to_scale(sl2c_to_lorentz(s).entries, ref_sl2c_to_lorentz(s.matrix))


def test_su2_cover_matches_trace_pairing(rng):
    for _ in range(N):
        u = random_su2(rng)
        assert_close_to_scale(su2_to_so3(u), ref_su2_to_so3(u.matrix))


def test_sl2r_cover_matches_trace_pairing(rng):
    for _ in range(N):
        s = random_sl2r(rng)
        assert_close_to_scale(sl2r_to_so21(s), ref_sl2r_to_so21(s.matrix, s.inverse().matrix))


HALF_TURNS = [np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]), np.diag([-1.0, -1.0, 1.0])]


def test_rotation_cover_covers_the_rotation(rng):
    # Haar rotations, and the half-turns, where Shepperd's quaternion has w = 0
    for r in [random_rotation(rng) for _ in range(N)] + HALF_TURNS:
        u = SL2CElement(*_rotation_cover(r.tolist()))
        want = np.eye(4)
        want[1:, 1:] = r
        assert_close_to_scale(ref_sl2c_to_lorentz(u.matrix), want)


@pytest.mark.parametrize("chi", [0.0, 1e-9, 1.0, 5.0, 17.0, 30.0])
def test_recompose_matches_product_of_factors(rng, chi):
    for _ in range(50):
        r1, r2 = random_rotation(rng), random_rotation(rng)
        got = recompose(StandardDecomposition(r1, chi, r2))
        want = rotation_embed(r1) @ boost_x(chi) @ rotation_embed(r2)
        assert np.abs(got.entries - want.entries).max() <= 1e-14 * want.entries[0, 0]
        ch = math.cosh(chi)
        assert got.tol == max(DEFAULT_TOL, 64 * 2.0 ** -52 * (ch * ch))


def fixed_order_dot(row, x):
    """sum(row[k] * x[k]) taken left to right from k = 0."""
    acc = row[0] * x[0]
    for k in range(1, len(row)):
        acc += row[k] * x[k]
    return acc


def test_apply_is_bitwise_the_array_product(rng):
    # the array product in one fixed order, each row summed from k = 0, whatever numpy's BLAS
    # kernel does; numpy's own product is within the rounding of both sums of |m_ik x_k|
    for _ in range(N):
        lam = random_proper_orthochronous(rng, chi_max=5.0)
        x = FourVector(*rng.normal(scale=10.0, size=4))
        got = lam.apply(x).as_array()
        rows, v = lam.entries.tolist(), x.as_array().tolist()
        assert got.tobytes() == np.array([fixed_order_dot(r, v) for r in rows]).tobytes()
        bound = 8 * 2.0 ** -52 * np.abs(lam.entries) @ np.abs(x.as_array())
        assert np.all(np.abs(got - lam.entries @ x.as_array()) <= bound)


def ref_residual(m):
    """max |m^T eta m - eta|, each entry a fixed_order_dot of two columns of m (row 0 signed)."""
    cols = np.asarray(m, dtype=float).T.tolist()
    return float(np.abs([[fixed_order_dot([-p[0], *p[1:]], q) for q in cols] for p in cols]
                        - METRIC).max())


def ref_lorentz_check(m, tol):
    """LorentzMatrix's check with np.linalg.det of the 4 x 4 matrix: the
    residual it accepts, or the NotLorentz it raises.  ``tol`` floors the
    rounding rule 64 eps m00^2."""
    m = np.array(m, dtype=float)
    if not np.all(np.isfinite(m)):
        return NotLorentz(math.inf, "matrix has non-finite entries")
    tol = max(tol, 64 * 2.0 ** -52 * m[0, 0] ** 2)
    residual = ref_residual(m)
    if residual > tol:
        return NotLorentz(residual, f"metric-preservation residual {residual:.3e} exceeds "
                                    f"tolerance {tol:.3e}")
    if abs(abs(float(np.linalg.det(m))) - 1.0) > tol:
        return NotLorentz(residual, "determinant is not +-1 within tolerance")
    if abs(m[0, 0]) < 1.0 - tol:
        return NotLorentz(residual, "0-0 entry has magnitude below 1")
    return residual


def ref_component(m):
    orthochronous = m[0, 0] > 0
    a, b, c = m[1:, 1:]
    cross = np.array([b[1] * c[2] - b[2] * c[1], b[2] * c[0] - b[0] * c[2],
                      b[0] * c[1] - b[1] * c[0]])
    proper = (float(a @ cross) > 0) == orthochronous
    return {(True, True): ComponentLabel.PROPER_ORTHOCHRONOUS,
            (True, False): ComponentLabel.PROPER_ANTICHRONOUS,
            (False, True): ComponentLabel.IMPROPER_ORTHOCHRONOUS,
            (False, False): ComponentLabel.IMPROPER_ANTICHRONOUS}[(proper, orthochronous)]


def random_axis(rng):
    n = rng.normal(size=3)
    return n / np.linalg.norm(n)


def random_lorentz_entries(rng, chi):
    """rotation . boost . rotation, sent to a random component."""
    lam = (rotation_embed(random_rotation(rng)) @ boost_axis(random_axis(rng), chi)
           @ rotation_embed(random_rotation(rng)))
    flip = [np.eye(4), parity().entries, time_reversal().entries,
            (parity() @ time_reversal()).entries][rng.integers(4)]
    return flip @ lam.entries


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the reference's nan det
def test_lorentz_check_matches_the_4x4_determinant_check(rng):
    """Exact, noisy (1e-11 to 1e-8, absolute or relative) and corrupted
    matrices with chi <= 10, under the default and the cosh^2-scaled floor
    on the rounding rule, give the reference's residual (bitwise, in its
    fixed order) or its exception.

    The one allowed difference is where the two |det| estimates straddle
    1 +- tol.  Both are first-order accurate: for m^T eta m = eta + E they
    differ by at most ~(1 + sqrt 3) |E|_max, plus the 4 x 4 determinant's
    rounding of ~m00^2 ulp.  So a sample may change sides only within
    4 * residual + 16 * m00^2 * 2^-52 of the threshold, and few do.
    """
    straddles, n = 0, 3000
    for _ in range(n):
        chi = rng.uniform(0.0, 10.0)
        m = random_lorentz_entries(rng, chi)
        tol = DEFAULT_TOL * (math.cosh(chi) ** 2 if rng.integers(2) else 1.0)
        kind = rng.integers(3)
        if kind == 1:
            scale = np.abs(m) if rng.integers(2) else 1.0
            m = m + 10.0 ** rng.uniform(-11.0, -8.0) * scale * rng.normal(size=(4, 4))
        elif kind == 2:
            i, j = rng.integers(4, size=2)
            m[i, j] = [math.nan, math.inf, -math.inf, 0.0, 2.0 * m[i, j] + 1.0,
                       -m[i, j]][rng.integers(6)]
        want = ref_lorentz_check(m, tol)
        try:
            got = LorentzMatrix(m, tol).residual
        except LorentzSkyError as exc:
            got = exc
        if isinstance(want, float) and isinstance(got, float):
            assert got == want
            continue
        if type(got) is type(want) and str(got) == str(want):
            continue
        straddles += 1
        # one side accepted, the other raised the determinant message
        raised = got if isinstance(got, NotLorentz) else want
        assert isinstance(raised, NotLorentz) and "determinant" in str(raised)
        residual = ref_residual(m)
        det_4x4 = abs(np.linalg.det(m))
        det_block = abs(np.linalg.det(m[1:, 1:]) / m[0, 0])
        assert abs(det_4x4 - det_block) <= 4.0 * residual + 16.0 * m[0, 0] ** 2 * 2.0 ** -52
    assert straddles <= n // 200


def test_component_labels_match_the_unscaled_triple_product(rng):
    # pure oblique boosts to chi = 34 against the label known by construction
    # (the unscaled triple product itself loses their sign from chi ~ 21);
    # rotation . boost . rotation to chi = 20 against that triple product
    flips = ((np.eye(4), ComponentLabel.PROPER_ORTHOCHRONOUS),
             (parity().entries, ComponentLabel.IMPROPER_ORTHOCHRONOUS),
             (time_reversal().entries, ComponentLabel.IMPROPER_ANTICHRONOUS))
    boosts = [boost_axis(random_axis(rng), chi).entries for chi in np.linspace(0.0, 34.0, 200)]
    products = [random_lorentz_entries(rng, chi) for chi in rng.uniform(0.0, 20.0, 800)]
    for cases, by_construction in ((boosts, True), (products, False)):
        for m in cases:
            for flip, label in flips:
                lam = LorentzMatrix(flip @ m, DEFAULT_TOL * math.cosh(34.0) ** 2)
                want = label if by_construction else ref_component(lam.entries)
                assert classify_component(lam) is want


@pytest.mark.parametrize("axis", range(3))
def test_axis_boosts_keep_their_label_at_every_integer_rapidity(axis):
    # the Schur row w is read where |lam[i, 0]| is smallest; a boost along x1
    # read from row 1 gave w = (1/cosh chi, 0, 0), improper from chi = 19
    flips = ((np.eye(4), ComponentLabel.PROPER_ORTHOCHRONOUS),
             (parity().entries, ComponentLabel.IMPROPER_ORTHOCHRONOUS),
             (time_reversal().entries, ComponentLabel.IMPROPER_ANTICHRONOUS))
    for chi in range(1, 356):
        lam = boost_axis(np.eye(3)[axis], float(chi))
        for flip, label in flips:
            assert classify_component(LorentzMatrix(flip @ lam.entries, lam.tol)) is label


def random_boost(rng, chi):
    return boost_axis(random_axis(rng), chi)


def random_product(rng, chi):
    return (rotation_embed(random_rotation(rng)) @ random_boost(rng, chi)
            @ rotation_embed(random_rotation(rng)))


def mislabelled_per_band(rng, make, bands, draws):
    """For each k in bands: how many of ``draws`` proper orthochronous make(rng, chi),
    chi uniform in [k, k + 1], classify_component labels otherwise."""
    return {k: sum(classify_component(make(rng, chi)) is not ComponentLabel.PROPER_ORTHOCHRONOUS
                   for chi in rng.uniform(k, k + 1, draws)) for k in bands}


@pytest.mark.parametrize("make", [random_boost, random_product], ids=["boost", "product"])
def test_component_labels_hold_in_every_rapidity_band_to_35(rng, make):
    assert mislabelled_per_band(rng, make, range(35), 200) == dict.fromkeys(range(35), 0)
    # the documented limit: from chi ~ 36 the entries' own rounding, ~cosh(chi)
    # ulp relative, reaches the sign (about a third are mislabelled in [38, 39])
    assert mislabelled_per_band(rng, make, [38], 100)[38] > 0


def bits(b):
    return (b.u.hex(), b.r.hex(), b.q.z1.real.hex(), b.q.z1.imag.hex(),
            b.q.z2.real.hex(), b.q.z2.imag.hex())


def outcome(fn):
    try:
        return bits(fn())
    except LorentzSkyError as exc:
        return type(exc), str(exc)


def test_act_exact_is_bitwise_the_composed_maps(rng):
    directions = [SpherePoint.infinity(), SpherePoint(0.0, 1.0), SpherePoint(1.0, 1.0)]
    for i in range(2000):
        lam = LorentzMatrix(random_lorentz_entries(rng, rng.uniform(0.0, 5.0)),
                            DEFAULT_TOL * math.cosh(5.0) ** 2)
        q = (directions[i % 3] if i % 4 == 0
             else SpherePoint.from_complex(complex(*rng.normal(scale=2.0, size=2))))
        u = rng.uniform(-10.0, 10.0) if i % 7 else 0.0
        r = 0.0 if i % 5 == 0 else 10.0 ** rng.uniform(-3.0, 7.0)
        if i % 50 == 1:
            u, r = -1e308, 1e308  # x0 = u - r overflows
        elif i % 50 == 2:
            r = 1e307  # the image overflows
        b = BondiPoint(u, r, q)
        assert (outcome(lambda: act_exact(lam, b))
                == outcome(lambda: bondi_from_inertial(lam.apply(inertial_from_bondi(b)))))
