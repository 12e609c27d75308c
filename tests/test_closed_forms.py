"""The constant-matrix covers, the 16 x 16 lift and the closed-form recompose,
pinned against the per-call constructions they replace.

The reference expressions below are the definitions themselves: the
adjoint action read off by trace pairing, the four-operand lift identity,
and the product of three validated Lorentz matrices.
"""

import math

import numpy as np
import pytest

from lorentzsky import (FourVector, SL2RElement, StandardDecomposition, boost_x,
                        recompose, rotation_embed, sl2c_to_lorentz, sl2r_to_so21,
                        su2_to_so3)
from lorentzsky.minkowski import DEFAULT_TOL
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
