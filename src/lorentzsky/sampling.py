"""Seeded random generators for group elements, used by tests and scripts."""

from __future__ import annotations

import numpy as np

from .decompose import StandardDecomposition, recompose
from .minkowski import LorentzMatrix
from .spin import SL2CElement, SU2Element, su2_to_so3


def random_su2(rng: np.random.Generator) -> SU2Element:
    """Haar-uniform SU(2) element from a normalized Gaussian 4-vector."""
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return SU2Element(complex(v[0], v[1]), complex(v[2], v[3]))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform 3x3 rotation matrix."""
    return su2_to_so3(random_su2(rng))


def random_sl2c(rng: np.random.Generator) -> SL2CElement:
    """Unit-determinant complex 2x2 matrix with all entry magnitudes at most 3.

    Rejection sampling: uniform entries, normalized by a square root of the
    determinant, retried until conditioning and the entry bound hold.
    """
    while True:
        m = rng.uniform(-3.0, 3.0, (2, 2)) + 1j * rng.uniform(-3.0, 3.0, (2, 2))
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det) < 0.3:
            continue
        m = m / np.sqrt(det)
        if np.abs(m).max() <= 3.0:
            return SL2CElement.from_matrix(m)


def random_proper_orthochronous(rng: np.random.Generator,
                                chi_max: float = 5.0) -> LorentzMatrix:
    """Random rotation . boost_x(chi) . rotation with chi uniform in [0, chi_max]."""
    chi = float(rng.uniform(0.0, chi_max))
    return recompose(StandardDecomposition(random_rotation(rng), chi, random_rotation(rng)))
