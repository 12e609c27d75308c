"""Rotation . standard boost . rotation factorization of proper orthochronous matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import WrongComponent
from .minkowski import (ComponentLabel, LorentzMatrix, Rapidity, _cross,
                        _frame_taking_e1_to, boost_x, classify_component,
                        rotation_embed)

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
            if r.shape != (3, 3) or np.abs(r.T @ r - np.eye(3)).max() > _ROTATION_TOL \
                    or np.linalg.det(r) < 0:
                raise ValueError(f"{name} must be a 3x3 rotation with det +1")
            r.setflags(write=False)
            object.__setattr__(self, name, r)
        if self.chi < 0:
            raise ValueError("chi must be non-negative")


def _nearest_rotation(r: np.ndarray) -> np.ndarray:
    """Polar projection onto SO(3); identity for matrices already orthogonal."""
    u, _, vt = np.linalg.svd(r)
    out = u @ vt
    if np.linalg.det(out) < 0:
        out = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    return out


def standard_decompose(lam: LorentzMatrix) -> StandardDecomposition:
    """Factor a proper orthochronous matrix as rotation . boost_x . rotation.

    Raises :class:`WrongComponent` for any other component.  When the first
    column has no spatial part the matrix is a pure rotation and the boost
    is trivial.
    """
    if classify_component(lam) is not ComponentLabel.PROPER_ORTHOCHRONOUS:
        raise WrongComponent("standard decomposition needs a proper orthochronous matrix")
    m = lam.entries
    a = m[1:, 0]
    norm_a = float(np.linalg.norm(a))
    if norm_a <= _PURE_ROTATION_THRESHOLD:
        return StandardDecomposition(np.eye(3), 0.0, _nearest_rotation(m[1:, 1:]))

    e1 = a / norm_a
    # Deterministic sign: the largest-magnitude entry of e1 is positive.
    if e1[int(np.argmax(np.abs(e1)))] < 0:
        e1 = -e1
    rbar1 = _frame_taking_e1_to(e1).T          # rows e1, e2, e3
    middle = np.eye(4)
    middle[1:, 1:] = rbar1
    middle = middle @ m                        # rows 2,3 now have zero time part
    mu, nu = middle[2, 1:], middle[3, 1:]
    # Tidy the frame: inputs validated only to lam.tol may leave mu, nu
    # orthonormal to worse than the rotation invariant demands.
    mu = mu / np.linalg.norm(mu)
    nu = nu - (nu @ mu) * mu
    nu = nu / np.linalg.norm(nu)
    f1 = _cross(mu, nu)
    rbar2 = np.column_stack([f1, mu, nu])      # columns
    emb2 = np.eye(4)
    emb2[1:, 1:] = rbar2
    block = middle @ emb2                      # standard boost, rapidity of either sign

    chi = math.asinh(-float(block[0, 1]))
    r1 = rbar1.T
    r2 = np.vstack([f1, mu, nu])
    if chi < 0:
        # Absorb the sign into the rotations: a half-turn about the third
        # axis conjugates boost_x(chi) into boost_x(-chi).
        flip = np.diag([-1.0, -1.0, 1.0])
        r1 = r1 @ flip
        r2 = flip @ r2
        chi = -chi
    return StandardDecomposition(r1, chi, r2)


def recompose(d: StandardDecomposition) -> LorentzMatrix:
    """Product embed(r1) . boost_x(chi) . embed(r2)."""
    return rotation_embed(d.r1) @ boost_x(d.chi) @ rotation_embed(d.r2)


def rapidity_of(lam: LorentzMatrix) -> Rapidity:
    """Boost rapidity arccosh of the 0-0 entry; rotation factors do not affect it."""
    if classify_component(lam) is not ComponentLabel.PROPER_ORTHOCHRONOUS:
        raise WrongComponent("rapidity is defined for proper orthochronous matrices")
    return math.acosh(max(float(lam.entries[0, 0]), 1.0))
