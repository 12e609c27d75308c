"""Rotation . standard boost . rotation factorization of proper orthochronous matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeError, WrongComponent
from .minkowski import (DEFAULT_TOL, ComponentLabel, LorentzMatrix, Rapidity, _cosh_sinh,
                        _cross, _is_rotation, classify_component)

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
        if self.chi < 0:
            raise RangeError("chi must be non-negative")


def _frame_taking_e1_to(n: np.ndarray) -> np.ndarray:
    """A rotation with first column the unit vector n.

    The second column is Gram-Schmidt on the coordinate axis least aligned
    with n, whose residual has norm at least sqrt(2/3); the third column is
    n x (second column), so det is +1.
    """
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(n)))] = 1.0
    u = seed - (seed @ n) * n
    c1 = u / np.linalg.norm(u)
    return np.column_stack([n, c1, _cross(n, c1)])


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
    m = lam.entries
    norm_a = float(np.linalg.norm(m[1:, 0]))
    if norm_a <= _PURE_ROTATION_THRESHOLD:
        r1, chi = np.eye(3), 0.0
    else:
        r1, chi = _frame_taking_e1_to(-m[1:, 0] / norm_a), math.asinh(norm_a)
    rows = r1.T @ m[1:, 1:]
    f1 = rows[0] / np.linalg.norm(rows[0])
    f2 = rows[1] - (rows[1] @ f1) * f1
    f2 = f2 / np.linalg.norm(f2)
    return StandardDecomposition(r1, chi, np.vstack([f1, f2, _cross(f1, f2)]))


def recompose(d: StandardDecomposition) -> LorentzMatrix:
    """Closed form of embed(r1) . boost_x(chi) . embed(r2), checked with boost_x's tolerance."""
    ch, sh = _cosh_sinh(d.chi)
    m = np.empty((4, 4))
    m[0, 0] = ch
    m[0, 1:] = -sh * d.r2[0]
    m[1:, 0] = -sh * d.r1[:, 0]
    m[1:, 1:] = d.r1 @ (np.array([[ch], [1.0], [1.0]]) * d.r2)
    return LorentzMatrix(m, DEFAULT_TOL * max(1.0, ch * ch))


def rapidity_of(lam: LorentzMatrix) -> Rapidity:
    """Boost rapidity asinh|lam[1:, 0]|, as in :func:`standard_decompose`.

    Rotation factors do not affect it, and unlike acosh of the 0-0 entry it
    keeps full relative precision for small rapidities.
    """
    if classify_component(lam) is not ComponentLabel.PROPER_ORTHOCHRONOUS:
        raise WrongComponent("rapidity is defined for proper orthochronous matrices")
    return math.asinh(float(np.linalg.norm(lam.entries[1:, 0])))
