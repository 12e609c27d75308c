"""Each LorentzMatrix computes its component label and its factorization at most once.

lift_lorentz_to_sl2c and standard_decompose share the factors kept on the matrix, and
standard_decompose checks its rotations on those floats.  Outputs are pinned to SHA-256
hashes of the group path's fixed-order float arithmetic, the same on every CPU.
"""

import copy
import dataclasses
import hashlib
import math
import pickle
import struct

import numpy as np
import pytest

from lorentzsky import (BondiPoint, FourVector, LorentzMatrix, SpherePoint, act_exact,
                        classify_component, hermitian_from_four_vector, lift_lorentz_to_sl2c,
                        parity, recompose, sl2c_to_lorentz, standard_decompose)
from lorentzsky import decompose, minkowski
from lorentzsky.errors import RangeError, WrongComponent
from lorentzsky.minkowski import _is_rotation, _triple
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


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                       lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_are_rebuilt_read_only_without_the_caches(rng, duplicate):
    lam = sl2c_to_lorentz(random_sl2c(rng))
    d = standard_decompose(lam)  # keeps the label and the factors on lam
    c = duplicate(lam)
    assert c == lam and (c.tol, c.residual) == (lam.tol, lam.residual)
    assert getattr(c, "_component", None) is None and getattr(c, "_factors", None) is None
    with pytest.raises(ValueError):  # a copy whose entries changed would keep a stale label
        c.entries[0, 0] = -5.0
    d2, h = duplicate(d), duplicate(hermitian_from_four_vector(FourVector(1.0, 2.0, 3.0, 4.0)))
    assert d2.chi == d.chi and np.array_equal(d2.r1, d.r1) and np.array_equal(d2.r2, d.r2)
    for array in (d2.r1, d2.r2, h.matrix):
        assert not array.flags.writeable


def test_decomposition_views_are_read_only(rng):
    d = standard_decompose(sl2c_to_lorentz(random_sl2c(rng)))
    for r in (d.r1, d.r2):
        assert r.shape == (3, 3) and not r.flags.writeable
        with pytest.raises(ValueError):
            r[0, 0] = 2.0


def test_group_chain_outputs_are_pinned():
    # SHA-256 over 3000 covers of: the cover's entries and residual, the lift's entries, r1,
    # chi and r2, recompose's entries and residual, act_exact at r = 1e3, apply, and the
    # product of the cover and its recomposition.  The group path computes in Python floats
    # in one fixed order, so the hashes are the same whatever BLAS kernel numpy picks.
    rng, points = np.random.default_rng(28), np.random.default_rng(29)
    hashes = {name: hashlib.sha256() for name in
              ("cover", "lift", "dec", "rec", "act_exact", "apply", "product")}

    def update(name, *values):
        hashes[name].update(struct.pack(f"<{len(values)}d", *values))

    for _ in range(3000):
        lam = sl2c_to_lorentz(random_sl2c(rng))
        s = lift_lorentz_to_sl2c(lam)
        d = standard_decompose(lam)
        rec = recompose(d)
        u, z1, z2, *x = points.normal(size=7).tolist()
        img = act_exact(lam, BondiPoint(u, 1e3, SpherePoint.from_complex(complex(z1, z2))))
        y = lam.apply(FourVector(*x))
        p = lam @ rec
        update("cover", *lam.entries.ravel().tolist(), lam.residual)
        update("lift", *(v for e in (s.a, s.b, s.c, s.d) for v in (e.real, e.imag)))
        update("dec", *d.r1.ravel().tolist(), d.chi, *d.r2.ravel().tolist())
        update("rec", *rec.entries.ravel().tolist(), rec.residual)
        update("act_exact", img.u, img.r, img.q.z1.real, img.q.z1.imag, img.q.z2.real,
               img.q.z2.imag)
        update("apply", y.x0, y.x1, y.x2, y.x3)
        update("product", *p.entries.ravel().tolist(), p.residual)
    assert {name: h.hexdigest() for name, h in hashes.items()} == {
        "cover": "c886b3747f28d65d2a9f70223f4c1a08e987e965a40f4ee06af8087195746a3b",
        "lift": "b5d61e4ce7a0f64376a856c5755cfd23a2a8be88c56abf79241baaed505e4d6c",
        "dec": "3e9e80aa6d46348c671062384b0781e13dc1f486dd7b46f06235d2cb29317ed8",
        "rec": "483913488fbd8a07dd0197220c1ecc90dc2de8be06110968bbd6d7e9a2bd780e",
        "act_exact": "2d2fc2cf2fe6affce5fd78a837eaf53820c7de9e88909858c380826ed16680f7",
        "apply": "38834094c176ddc5990294ada98ee589176d073ea9f45facbf84fe2c7eb7b13a",
        "product": "95420f5ccbe859258ee46630ea057a2ebb9436856afc77f67f96bcc719c0d0fd",
    }


def numpy_is_rotation(r: np.ndarray, tol: float) -> bool:
    """The rotation check as numpy arithmetic: the triple product, then max |r^T r - I|."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is inf, and refuses
        gram = r.T @ r
    return _triple(*r.ravel().tolist()) > 0 and float(np.abs(gram - np.eye(3)).max()) <= tol


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
