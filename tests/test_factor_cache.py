"""Each LorentzMatrix computes its component label and its factorization at most once.

lift_lorentz_to_sl2c and standard_decompose share the factors kept on the matrix, and
standard_decompose checks its rotations on those floats.  Outputs are pinned to SHA-256
hashes written before the factors were shared.
"""

import dataclasses
import hashlib
import math
import struct

import numpy as np
import pytest

from lorentzsky import (LorentzMatrix, classify_component, lift_lorentz_to_sl2c, parity,
                        recompose, sl2c_to_lorentz, standard_decompose)
from lorentzsky import decompose, minkowski
from lorentzsky.errors import RangeError, WrongComponent
from lorentzsky.minkowski import _is_rotation, _matmul, _triple
from lorentzsky.sampling import random_rotation, random_sl2c
from test_errors import rounded_away_r2


@pytest.fixture
def factorizations(monkeypatch):
    """The number of times the factorization ran."""
    count = [0]
    factorize = decompose._factorize

    def counted(flat):
        count[0] += 1
        return factorize(flat)

    monkeypatch.setattr(decompose, "_factorize", counted)
    return count


def test_lift_then_decompose_factors_once(rng, factorizations):
    lam = sl2c_to_lorentz(random_sl2c(rng))
    before = repr(lam)
    s = lift_lorentz_to_sl2c(lam)
    d = standard_decompose(lam)
    assert lift_lorentz_to_sl2c(lam) == s and standard_decompose(lam).chi == d.chi
    assert factorizations[0] == 1
    # the cache is not part of the matrix's fields, equality or repr
    assert repr(lam) == before
    assert [f.name for f in dataclasses.fields(lam)] == ["entries", "tol", "residual"]
    assert lam == LorentzMatrix(lam.entries, lam.tol)


def test_component_label_is_computed_once(rng, monkeypatch):
    lam = sl2c_to_lorentz(random_sl2c(rng))
    products = [0]
    triple = minkowski._triple

    def counted(*args):
        products[0] += 1
        return triple(*args)

    monkeypatch.setattr(minkowski, "_triple", counted)
    labels = {classify_component(lam) for _ in range(3)}
    assert labels == {minkowski.ComponentLabel.PROPER_ORTHOCHRONOUS}
    assert products[0] == 1


def test_errors_are_raised_on_every_call(factorizations):
    lam = rounded_away_r2()
    for f in (lift_lorentz_to_sl2c, standard_decompose) * 2:
        with pytest.raises(RangeError, match="r2 is lost to rounding"):
            f(lam)
    assert factorizations[0] == 4
    p = parity()
    for f in (lift_lorentz_to_sl2c, standard_decompose) * 2:
        with pytest.raises(WrongComponent):
            f(p)
    assert factorizations[0] == 4


def test_matrices_with_equal_entries_do_not_share_factors(rng, factorizations):
    lam = sl2c_to_lorentz(random_sl2c(rng))
    twin = LorentzMatrix(lam.entries, lam.tol)
    assert twin == lam
    assert lift_lorentz_to_sl2c(lam) == lift_lorentz_to_sl2c(twin)
    assert factorizations[0] == 2


def test_decomposition_views_are_read_only(rng):
    d = standard_decompose(sl2c_to_lorentz(random_sl2c(rng)))
    for r in (d.r1, d.r2):
        assert r.shape == (3, 3) and not r.flags.writeable
        with pytest.raises(ValueError):
            r[0, 0] = 2.0


def test_group_chain_outputs_are_pinned():
    # SHA-256 of the lift's entries, of r1, chi and r2, and of recompose's entries over
    # 3000 covers, written when lift and standard_decompose each factored the matrix.
    rng = np.random.default_rng(28)
    lift, dec, rec = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for _ in range(3000):
        lam = sl2c_to_lorentz(random_sl2c(rng))
        s = lift_lorentz_to_sl2c(lam)
        d = standard_decompose(lam)
        lift.update(np.array([s.a, s.b, s.c, s.d]).tobytes())
        dec.update(d.r1.tobytes() + struct.pack("<d", d.chi) + d.r2.tobytes())
        rec.update(recompose(d).entries.tobytes())
    assert lift.hexdigest() == "48752d5cc3912e802ef36a97d4abed2ebe057f4f7c8cb86ee21c372bee58e384"
    assert dec.hexdigest() == "7df29853ce89e4896076c10be91e3ea1f826abae47f1a1d3d8afb9d8459fdca4"
    assert rec.hexdigest() == "56b8647cc172b3f41f727c4153de694863a3cd77a651ae443a6e4d47f5a25577"


def numpy_is_rotation(r: np.ndarray, tol: float) -> bool:
    """The rotation check as numpy arithmetic: the triple product, then max |r^T r - I|."""
    flat = r.ravel().tolist()
    return (_triple(*flat) > 0
            and float(np.abs(_matmul(r.T, r, sum(map(abs, flat))) - np.eye(3)).max()) <= tol)


def rotation_probes(rng):
    rotations = [random_rotation(rng) for _ in range(40)] + [np.eye(3)]
    for r in rotations:
        for scale in (1e-11, 3e-11, 1e-10, 3e-10, 1e-9, 2e-9):
            yield r + scale * rng.uniform(-1.0, 1.0, (3, 3))
            yield r * (1.0 + scale)  # every column off unit length by the same amount
        yield r @ np.diag([1.0, 1.0, -1.0])  # reflections
        yield -r
        for bad in (math.nan, math.inf, -math.inf, 1e154, -3e154, 1e200, 1e308):
            s = r.copy()
            s[rng.integers(3), rng.integers(3)] = bad
            yield s
            yield np.full((3, 3), bad)
            yield np.array([[bad * x for x in row] for row in r.tolist()])  # inf * 0 is nan
    yield np.diag([math.inf, 1.0, 1.0])
    yield np.zeros((3, 3))


@pytest.mark.filterwarnings("error")
def test_float_rotation_check_matches_numpy(rng):
    decisions = {True: 0, False: 0}
    for r in rotation_probes(rng):
        for tol in (decompose._ROTATION_TOL, minkowski.DEFAULT_TOL):
            want = numpy_is_rotation(r, tol)
            assert _is_rotation(r.ravel().tolist(), tol) is want, (r, tol)
            decisions[want] += 1
    assert min(decisions.values()) > 200  # both sides of both tolerances are probed
