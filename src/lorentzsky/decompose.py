"""Rotation . standard boost . rotation factorization of proper orthochronous matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeError, WrongComponent
from .minkowski import (ComponentLabel, LorentzMatrix, Rapidity, _array, _boost_terms,
                        _is_rotation, _number, classify_component)

_ROTATION_TOL = 1e-10
_PURE_ROTATION_THRESHOLD = 1e-12


@dataclass(frozen=True, eq=False, slots=True)
class StandardDecomposition:
    """Factors (r1, chi, r2) with lam = embed(r1) . boost_x(chi) . embed(r2).

    The factorization is not unique; only the recomposed product is
    canonical.  chi is reported non-negative.
    """

    r1: np.ndarray
    chi: Rapidity
    r2: np.ndarray

    def __post_init__(self):
        for name in ("r1", "r2"):
            r = _array(float, name, getattr(self, name))
            if r.shape != (3, 3) or not _is_rotation(r.ravel().tolist(), _ROTATION_TOL):
                raise RangeError(f"{name} must be a 3x3 rotation with det +1")
            r.setflags(write=False)
            object.__setattr__(self, name, r)
        object.__setattr__(self, "chi", _number(float, "chi", self.chi))
        if not 0.0 <= self.chi < math.inf:
            raise RangeError(f"chi must be non-negative and finite, got {self.chi!r}")

    def __reduce__(self):
        return StandardDecomposition, (self.r1, self.chi, self.r2)  # rebuilt: read-only rotations


def _factors(lam: LorentzMatrix) -> np.ndarray:
    """r1's rows, chi and r2's rows, computed once and kept on ``lam`` (immutable) as one
    read-only array of 19 floats; an error is not kept, but raised again on every call."""
    factors = getattr(lam, "_factors", None)
    if factors is None:
        factors = _factorize(lam.entries.ravel().tolist())
        object.__setattr__(lam, "_factors", factors)
    return factors


def _factorize(flat: list[float]) -> np.ndarray:
    """:func:`_factors` of the 16 entries.  r1's columns are n = a / |a|; u, Gram-Schmidt on the
    coordinate axis least aligned with n, whose residual has norm at least sqrt(2/3); n x u, so
    det r1 = +1.  r2's rows are f, g and f x g."""
    _, _, _, _, a0, l00, l01, l02, a1, l10, l11, l12, a2, l20, l21, l22 = flat  # a = -(a0, a1, a2)
    norm_a = math.hypot(a0, a1, a2)
    if norm_a <= _PURE_ROTATION_THRESHOLD:
        n0, n1, n2, u0, u1, u2, chi = 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0
    else:
        n0, n1, n2, chi = -a0 / norm_a, -a1 / norm_a, -a2 / norm_a, math.asinh(norm_a)
        n = (n0, n1, n2)
        nk = min(n, key=abs)  # the first of least magnitude, at n.index(nk)
        u = [0.0 - nk * n0, 0.0 - nk * n1, 0.0 - nk * n2]
        u[n.index(nk)] = 1.0 - nk * nk
        norm = math.hypot(*u)
        u0, u1, u2 = u[0] / norm, u[1] / norm, u[2] / norm
    # rows 0 and 1 of r1^T lam[1:, 1:], the block whose entry (i, j) is lij
    p0, q0 = n0 * l00 + n1 * l10 + n2 * l20, u0 * l00 + u1 * l10 + u2 * l20
    p1, q1 = n0 * l01 + n1 * l11 + n2 * l21, u0 * l01 + u1 * l11 + u2 * l21
    p2, q2 = n0 * l02 + n1 * l12 + n2 * l22, u0 * l02 + u1 * l12 + u2 * l22
    norm = math.hypot(p0, p1, p2)
    f0, f1, f2 = p0 / norm, p1 / norm, p2 / norm
    dot = q0 * f0 + q1 * f1 + q2 * f2
    q0, q1, q2 = q0 - dot * f0, q1 - dot * f1, q2 - dot * f2
    if not (q0 or q1 or q2):  # past chi ~ 36 row 1 is all rounding, and can be parallel to row 0
        raise RangeError(f"rapidity {chi!r} is past double precision: r2 is lost to rounding")
    norm = math.hypot(q0, q1, q2)
    g0, g1, g2 = q0 / norm, q1 / norm, q2 / norm
    factors = np.array([n0, u0, n1 * u2 - n2 * u1, n1, u1, n2 * u0 - n0 * u2, n2, u2,
                        n0 * u1 - n1 * u0, chi, f0, f1, f2, g0, g1, g2,
                        f1 * g2 - f2 * g1, f2 * g0 - f0 * g2, f0 * g1 - f1 * g0])
    factors.setflags(write=False)
    return factors


def standard_decompose(lam: LorentzMatrix) -> StandardDecomposition:
    """Factor a proper orthochronous matrix as rotation . boost_x . rotation.

    From lam = embed(r1) . boost_x(chi) . embed(r2), the spatial part of the
    first column is a = -lam[1:, 0] = sinh(chi) r1 e1, and the spatial block
    is lam[1:, 1:] = r1 . diag(cosh chi, 1, 1) . r2.  So chi = asinh|a|, r1
    is any rotation taking e1 to a/|a|, and the rows of r1^T lam[1:, 1:] are
    those of r2, the first scaled by cosh chi.  Rounding leaves the last two
    rows off by ~cosh(chi) ulp but the first by ~1 ulp, and boost_x
    multiplies only the first row's error by cosh chi, so r2 is
    orthonormalised starting from that row.  Raises :class:`WrongComponent`
    for any other component; when a vanishes the boost is trivial.
    """
    if classify_component(lam) is not ComponentLabel.PROPER_ORTHOCHRONOUS:
        raise WrongComponent("standard decomposition needs a proper orthochronous matrix")
    factors = _factors(lam)
    flat = factors.tolist()
    for name, rows in (("r1", flat[:9]), ("r2", flat[10:])):
        if not _is_rotation(rows, _ROTATION_TOL):
            raise RangeError(f"{name} must be a 3x3 rotation with det +1")
    d = object.__new__(StandardDecomposition)  # checked above in floats: read-only views, no copy
    object.__setattr__(d, "r1", factors[:9].reshape(3, 3))
    object.__setattr__(d, "chi", flat[9])
    object.__setattr__(d, "r2", factors[10:].reshape(3, 3))
    return d


def recompose(d: StandardDecomposition) -> LorentzMatrix:
    """Closed form of embed(r1) . boost_x(chi) . embed(r2) on the rows of r1 and r2: the 0-0
    entry is cosh chi, row 0 is -sinh(chi) r2[0], column 0 is -sinh(chi) r1[:, 0], and the
    spatial block r1 . diag(cosh chi, 1, 1) . r2 sums over k = 0, 1, 2 in Python floats."""
    ch, sh = _boost_terms(d.chi)
    f0, f1, f2, g0, g1, g2, h0, h1, h2 = d.r2.ravel().tolist()
    e0, e1, e2 = ch * f0, ch * f1, ch * f2  # row 0 of diag(cosh chi, 1, 1) . r2
    m = [ch, -sh * f0, -sh * f1, -sh * f2]
    for p, q, r in d.r1.tolist():
        m += (-sh * p, p * e0 + q * g0 + r * h0, p * e1 + q * g1 + r * h1,
              p * e2 + q * g2 + r * h2)
    return LorentzMatrix(np.array(m).reshape(4, 4))


def rapidity_of(lam: LorentzMatrix) -> Rapidity:
    """Boost rapidity asinh|lam[1:, 0]|, as in :func:`standard_decompose`.

    Rotation factors do not affect it, and unlike acosh of the 0-0 entry it
    keeps full relative precision for small rapidities.
    """
    if classify_component(lam) is not ComponentLabel.PROPER_ORTHOCHRONOUS:
        raise WrongComponent("rapidity is defined for proper orthochronous matrices")
    return math.asinh(math.hypot(*lam.entries[1:, 0].tolist()))
