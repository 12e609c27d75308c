"""The constant-matrix covers, the 16 x 16 lift, the closed-form recompose and
the scalar group path, pinned against the constructions they replace.

The reference expressions below are the definitions themselves: the
adjoint action read off by trace pairing, the four-operand lift identity,
the product of three validated Lorentz matrices, the Lorentz-matrix check
with the 4 x 4 determinant, the component read from the unscaled triple
product, and the exact action composed from the public maps.
"""

import math

import numpy as np
import pytest

from lorentzsky import (BondiPoint, ComponentLabel, FourVector, LorentzMatrix,
                        SL2RElement, SpherePoint, StandardDecomposition, act_exact,
                        bondi_from_inertial, boost_axis, boost_x, classify_component,
                        inertial_from_bondi, parity, recompose, rotation_embed,
                        sl2c_to_lorentz, sl2r_to_so21, su2_to_so3, time_reversal)
from lorentzsky.errors import LorentzSkyError, NotLorentz
from lorentzsky.minkowski import DEFAULT_TOL, METRIC
from lorentzsky.sampling import (random_proper_orthochronous, random_rotation,
                                 random_sl2c, random_su2)
from lorentzsky.spin import _LIFT, _PAULI, _SL2R_GEN, TAU

N = 500
ETA3 = np.array([-1.0, 1.0, 1.0])


def ref_sl2c_to_lorentz(m):
    conj = np.einsum("ab,mbc,dc->mad", m, TAU, m.conj())
    return 0.5 * np.einsum("nab,mba->nm", TAU, conj).real


def ref_su2_to_so3(m):
    conj = np.einsum("ab,jbc,dc->jad", m, _PAULI, m.conj())
    return 0.5 * np.einsum("iab,jba->ij", _PAULI, conj).real


def ref_sl2r_to_so21(m, inv):
    conj = np.einsum("ab,mbc,cd->mad", m, _SL2R_GEN, inv)
    return ETA3[:, None] * (0.5 * np.einsum("nab,mba->nm", _SL2R_GEN, conj))


def ref_lift_matrices(lam):
    return np.einsum("mn,mab,kbc,ncd->kad", lam, TAU, TAU, TAU)


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
        assert_close_to_scale(sl2r_to_so21(s), ref_sl2r_to_so21(s.matrix, s.inverse_matrix()))


def test_lift_matrix_matches_four_operand_identity(rng):
    for _ in range(N):
        lam = random_proper_orthochronous(rng, chi_max=5.0).entries
        got = (_LIFT @ lam.ravel()).reshape(4, 2, 2)
        assert_close_to_scale(got, ref_lift_matrices(lam))


@pytest.mark.parametrize("chi", [0.0, 1e-9, 1.0, 5.0, 17.0, 30.0])
def test_recompose_matches_product_of_factors(rng, chi):
    for _ in range(50):
        r1, r2 = random_rotation(rng), random_rotation(rng)
        got = recompose(StandardDecomposition(r1, chi, r2))
        want = rotation_embed(r1) @ boost_x(chi) @ rotation_embed(r2)
        assert np.abs(got.entries - want.entries).max() <= 1e-14 * want.entries[0, 0]
        ch = math.cosh(chi)
        assert got.tol == DEFAULT_TOL * max(1.0, ch * ch)


def test_apply_is_bitwise_the_array_product(rng):
    for _ in range(N):
        lam = random_proper_orthochronous(rng, chi_max=5.0)
        x = FourVector(*rng.normal(scale=10.0, size=4))
        got = lam.apply(x)
        want = FourVector.from_array(lam.entries @ x.as_array())
        assert got.as_array().tobytes() == want.as_array().tobytes()


def ref_lorentz_check(m, tol):
    """LorentzMatrix's check with np.linalg.det of the 4 x 4 matrix: the
    residual it accepts, or the NotLorentz it raises."""
    m = np.array(m, dtype=float)
    if not np.all(np.isfinite(m)):
        return NotLorentz(math.inf, "matrix has non-finite entries")
    residual = float(np.abs(m.T @ METRIC @ m - METRIC).max())
    if residual > tol:
        return NotLorentz(residual)
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
    matrices with chi <= 10, under the default and the cosh^2-scaled
    tolerance, give the reference's residual (bitwise) or its exception.

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
        residual = float(np.abs(m.T @ METRIC @ m - METRIC).max())
        det_4x4 = abs(np.linalg.det(m))
        det_block = abs(np.linalg.det(m[1:, 1:]) / m[0, 0])
        assert abs(det_4x4 - det_block) <= 4.0 * residual + 16.0 * m[0, 0] ** 2 * 2.0 ** -52
    assert straddles <= n // 200


def test_component_labels_match_the_unscaled_triple_product(rng):
    # pure oblique boosts to chi = 34, rotation . boost . rotation to chi = 20;
    # past that the product's own rounding reaches the sign of the block det
    cases = [boost_axis(random_axis(rng), chi).entries
             for chi in np.linspace(0.0, 34.0, 200)]
    cases += [random_lorentz_entries(rng, chi) for chi in rng.uniform(0.0, 20.0, 800)]
    for m in cases:
        for flip in (np.eye(4), parity().entries, time_reversal().entries):
            lam = LorentzMatrix(flip @ m, DEFAULT_TOL * math.cosh(34.0) ** 2)
            assert classify_component(lam) is ref_component(lam.entries)


def bits(b):
    return (b.u.hex(), b.r.hex(), b.q.z1.real.hex(), b.q.z1.imag.hex(),
            b.q.z2.real.hex(), b.q.z2.imag.hex())


def outcome(fn):
    try:
        return bits(fn())
    except LorentzSkyError as exc:
        return type(exc), str(exc)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
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
