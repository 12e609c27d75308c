"""Rotation . standard boost . rotation factorization of proper orthochronous matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import RangeError, WrongComponent
from .minkowski import (ComponentLabel, LorentzMatrix, Rapidity, _boost_terms, _is_rotation,
                        _tolerance, classify_component)

_ROTATION_TOL = 1e-10
_PURE_ROTATION_THRESHOLD = 1e-12


@dataclass(frozen=True, eq=False)
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
            r = np.array(getattr(self, name), dtype=float)
            if not _is_rotation(r, _ROTATION_TOL):
                raise RangeError(f"{name} must be a 3x3 rotation with det +1")
            r.setflags(write=False)
            object.__setattr__(self, name, r)
        if not 0.0 <= self.chi < math.inf:
            raise RangeError(f"chi must be non-negative and finite, got {self.chi!r}")


def _cross(a: Sequence[float], b: Sequence[float]) -> list[float]:
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _unit(v: Sequence[float]) -> list[float]:
    norm = math.hypot(*v)
    return [x / norm for x in v]


def _frame_taking_e1_to(n: list[float]) -> tuple[list[float], ...]:
    """Columns of a rotation whose first column is the unit vector n.

    The second column is Gram-Schmidt on the coordinate axis least aligned
    with n, whose residual has norm at least sqrt(2/3); the third column is
    n x (second column), so det is +1.
    """
    k = min(range(3), key=lambda i: abs(n[i]))
    c1 = _unit([float(i == k) - n[k] * x for i, x in enumerate(n)])
    return n, c1, _cross(n, c1)


def _factors(lam: LorentzMatrix) -> tuple[tuple[list[float], ...], float, list[list[float]]]:
    """r1's columns (n, u, v), chi and r2's rows (f1, f2, f3) as floats: standard_decompose."""
    flat = lam.entries.ravel().tolist()
    norm_a = math.hypot(*flat[4:13:4])  # |a|, a = -lam[1:, 0] = -flat[4:13:4]
    if norm_a <= _PURE_ROTATION_THRESHOLD:
        r1_cols, chi = ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]), 0.0
    else:
        r1_cols, chi = _frame_taking_e1_to([-x / norm_a for x in flat[4:13:4]]), math.asinh(norm_a)
    # rows 0 and 1 of r1^T lam[1:, 1:], column j of lam[1:, 1:] being flat[5 + j::4]
    row0, row1 = ([c[0] * flat[5 + j] + c[1] * flat[9 + j] + c[2] * flat[13 + j] for j in range(3)]
                  for c in r1_cols[:2])
    f1 = _unit(row0)
    dot = row1[0] * f1[0] + row1[1] * f1[1] + row1[2] * f1[2]
    row1 = [x - dot * y for x, y in zip(row1, f1)]
    if not any(row1):  # past chi ~ 36 row 1 is all rounding, and can be parallel to row 0
        raise RangeError(f"rapidity {chi!r} is past double precision: r2 is lost to rounding")
    f2 = _unit(row1)
    return r1_cols, chi, [f1, f2, _cross(f1, f2)]


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
    r1_cols, chi, r2_rows = _factors(lam)
    return StandardDecomposition(np.array(r1_cols).T, chi, np.array(r2_rows))


def recompose(d: StandardDecomposition) -> LorentzMatrix:
    """Closed form of embed(r1) . boost_x(chi) . embed(r2), checked with boost_x's tolerance."""
    ch, sh = _boost_terms(d.chi)
    m = np.empty((4, 4))
    m[0, 0] = ch
    m[0, 1:] = -sh * d.r2[0]
    m[1:, 0] = -sh * d.r1[:, 0]
    m[1:, 1:] = d.r1 @ (np.array([[ch], [1.0], [1.0]]) * d.r2)
    return LorentzMatrix(m, _tolerance(ch, ch))


def rapidity_of(lam: LorentzMatrix) -> Rapidity:
    """Boost rapidity asinh|lam[1:, 0]|, as in :func:`standard_decompose`.

    Rotation factors do not affect it, and unlike acosh of the 0-0 entry it
    keeps full relative precision for small rapidities.
    """
    if classify_component(lam) is not ComponentLabel.PROPER_ORTHOCHRONOUS:
        raise WrongComponent("rapidity is defined for proper orthochronous matrices")
    return math.asinh(math.hypot(*lam.entries[1:, 0].tolist()))
