"""The double cover SL(2,C) -> SO(3,1) and its blocks SU(2) -> SO(3), SL(2,R) -> SO(2,1).

The cover is the adjoint action X -> S X S-dagger on Hermitian matrices
X = x^mu tau_mu with tau = (I, -sigma1, sigma2, sigma3), read off by trace
pairing; it is quadratic in S, so S and -S map to the same image.  The sign
on the first Pauli matrix makes the induced sphere action z -> (a z + b)/(c z + d).
SU(2) fixes x0: its image is the spatial block, signed back to the Pauli basis.
A real S has S sigma2 S^T = sigma2, so it fixes x2: its image is the (x0, x3, x1) block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .decompose import _factors
from .errors import NotHermitian, NotLorentz, RangeError, WrongComponent
from .minkowski import (DEFAULT_TOL, ComponentLabel, FourVector, LorentzMatrix, _number,
                        _tolerance, _unit_axis, classify_component)

_HERMITIAN_TOL = 1e-12
_SU2_NORM_TOL = 1e-10

#: The Pauli matrices sigma1, sigma2, sigma3.
_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
#: Basis of 2x2 Hermitian matrices carrying four-vector components.
TAU = np.stack([np.eye(2, dtype=complex), -_PAULI[0], _PAULI[1], _PAULI[2]])

# (_COVER @ outer(s, conj s).ravel())[4 n + m] = 1/2 tr(tau_n s tau_m s-dagger), by trace pairing
_COVER = 0.5 * np.einsum("nia,mbc->nmabic", TAU, TAU).reshape(16, 16)
# the signs that take the spatial block from the tau basis to the Pauli basis
_PAULI_SIGNS = np.outer([-1.0, 1.0, 1.0], [-1.0, 1.0, 1.0])
for _const in (TAU, _PAULI, _COVER, _PAULI_SIGNS):
    _const.setflags(write=False)


@dataclass(frozen=True)
class _Unimodular:
    """2x2 matrix ((a, b), (c, d)) with unit determinant and entries of type ``_scalar``.

    Products, negation and the inverse are written out in the four entries.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    _scalar = complex

    def __post_init__(self):
        scalar = self._scalar
        a, b, c, d = map(_number, (scalar,) * 4, "abcd", (self.a, self.b, self.c, self.d))
        ad, bc = a * d, b * c  # each rounds by ~ulp of its size; "not" refuses nan and inf
        tol = DEFAULT_TOL * max(1.0, abs(ad) + abs(bc))
        if not abs(ad - bc - 1.0) <= tol < math.inf:
            raise RangeError(f"determinant {ad - bc} is not 1 within {tol:.3e}")
        self.__dict__.update(a=a, b=b, c=c, d=d)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]])

    def __matmul__(self, other: "_Unimodular") -> "_Unimodular":
        a, b, c, d = self.a, self.b, self.c, self.d
        return type(self)(a * other.a + b * other.c, a * other.b + b * other.d,
                          c * other.a + d * other.c, c * other.b + d * other.d)

    def __neg__(self) -> "_Unimodular":
        return type(self)(-self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> "_Unimodular":
        return type(self)(self.d, -self.b, -self.c, self.a)


class SL2CElement(_Unimodular):
    """Complex 2x2 matrix ((a, b), (c, d)) with unit determinant."""

    @classmethod
    def identity(cls) -> "SL2CElement":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "SL2CElement":
        m = np.asarray(m, dtype=complex)
        if m.shape != (2, 2):
            raise RangeError(f"expected a 2x2 matrix, got shape {m.shape}")
        (a, b), (c, d) = m.tolist()
        return cls(a, b, c, d)


@dataclass(frozen=True)
class SU2Element:
    """Unitary ((alpha, beta), (-conj beta, conj alpha)) with unit norm row."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", _number(complex, "alpha", self.alpha))
        object.__setattr__(self, "beta", _number(complex, "beta", self.beta))
        norm = abs(self.alpha) * abs(self.alpha) + abs(self.beta) * abs(self.beta)  # may be inf
        if not abs(norm - 1.0) <= _SU2_NORM_TOL:  # also refuses nan
            raise RangeError(f"|alpha|^2 + |beta|^2 = {norm} is not 1 within {_SU2_NORM_TOL}")

    @property
    def matrix(self) -> np.ndarray:
        return self.to_sl2c().matrix

    def to_sl2c(self) -> SL2CElement:
        return SL2CElement(self.alpha, self.beta, -self.beta.conjugate(), self.alpha.conjugate())

    def __matmul__(self, other: "SU2Element") -> "SU2Element":
        return SU2Element(self.alpha * other.alpha - self.beta * other.beta.conjugate(),
                          self.alpha * other.beta + self.beta * other.alpha.conjugate())

    def __neg__(self) -> "SU2Element":
        return SU2Element(-self.alpha, -self.beta)


class SL2RElement(_Unimodular):
    """Real 2x2 matrix ((a, b), (c, d)) with unit determinant."""

    _scalar = float


@dataclass(frozen=True, eq=False)
class HermitianSlot:
    """2x2 Hermitian matrix carrying four-vector components in the tau basis.

    det X = -(interval squared) of the carried four-vector.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise RangeError("expected a 2x2 matrix")
        if not np.isfinite(m).all():  # before the residual, whose inf - inf numpy warns of
            raise NotHermitian("entries must be finite")
        residual = float(np.abs(m - m.conj().T).max())
        if not residual <= _HERMITIAN_TOL:  # also refuses nan
            raise NotHermitian(f"Hermiticity residual {residual:.3e} exceeds {_HERMITIAN_TOL}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def det(self) -> float:
        """RangeError when it is past the double range."""
        (p, q), (r, t) = self.matrix.tolist()   # Python numbers: an overflow is inf, unwarned
        det = (p * t - q * r).real
        if not math.isfinite(det):
            raise RangeError(f"determinant of {self.matrix.tolist()} overflows a double")
        return det


def hermitian_from_four_vector(x: FourVector) -> HermitianSlot:
    """X = x^mu tau_mu = ((x0+x3, -x1-i x2), (-x1+i x2, x0-x3))."""
    return HermitianSlot(np.array([
        [x.x0 + x.x3, -x.x1 - 1j * x.x2],
        [-x.x1 + 1j * x.x2, x.x0 - x.x3],
    ]))


def four_vector_from_hermitian(x: HermitianSlot | np.ndarray) -> FourVector:
    """Inverse of :func:`hermitian_from_four_vector` (exact on its image)."""
    if not isinstance(x, HermitianSlot):
        x = HermitianSlot(np.asarray(x))
    (p, q), (_, t) = x.matrix.tolist()  # Python numbers: an overflow is inf without a warning
    return FourVector(0.5 * (p.real + t.real), -q.real, -q.imag, 0.5 * (p.real - t.real))


def _cover(s: _Unimodular) -> tuple[np.ndarray, float]:
    """4x4 image of s and its 0-0 entry |s|_F^2 / 2.

    Column mu holds the tau-basis components of s tau_mu s-dagger; entries
    are quadratic in (a, b, c, d), so s and -s give the same matrix.
    """
    # The sums below are at most lam_00: refuse its overflow before numpy warns.
    lam00 = sum(0.5 * (x.real * x.real + x.imag * x.imag) for x in (s.a, s.b, s.c, s.d))
    if not math.isfinite(lam00):
        raise NotLorentz(math.inf, "matrix has non-finite entries")
    m = s.matrix
    return (_COVER @ np.multiply.outer(m, m.conj()).ravel()).real.reshape(4, 4), lam00


def sl2c_to_lorentz(s: SL2CElement) -> LorentzMatrix:
    """Image of s under the 2-to-1 cover of the proper orthochronous group."""
    out, lam00 = _cover(s)
    return LorentzMatrix(out, _tolerance(lam00, lam00))


def su2_to_so3(u: SU2Element) -> np.ndarray:
    """3x3 rotation: the spatial block of the cover, in the Pauli basis."""
    return _PAULI_SIGNS * _cover(u.to_sl2c())[0][1:, 1:] + 0.0  # + 0.0: a flipped 0 stays +0


def sl2r_to_so21(s: SL2RElement) -> np.ndarray:
    """3x3 Lorentz matrix (signature -,+,+, top-left entry >= 1): the (x0, x3, x1) block."""
    return _cover(s)[0][np.ix_((0, 3, 1), (0, 3, 1))]


def su2_from_axis_angle(n: Iterable[float], phi: float) -> SU2Element:
    """cos(phi/2) I - i sin(phi/2) (n . sigma); covers the rotation R(n, phi)."""
    n = _unit_axis(n)
    if not math.isfinite(phi):
        raise RangeError(f"rotation angle must be finite, got {phi!r}")
    half = 0.5 * phi
    c, s = math.cos(half), math.sin(half)
    return SU2Element(complex(c, -n[2] * s), complex(-n[1] * s, -n[0] * s))


def _canonical_sign(a: complex, b: complex, c: complex, d: complex) -> SL2CElement:
    """The one of s = ((a, b), (c, d)) and -s whose first significant entry has
    positive real part, breaking near-imaginary ties by positive imaginary part."""
    scale = max(abs(a), abs(b), abs(c), abs(d))
    for e in (a, b, c, d):
        if abs(e) > 1e-12 * scale:
            positive = e.real > 0 if abs(e.real) > 1e-12 * abs(e) else e.imag > 0
            return SL2CElement(a, b, c, d) if positive else SL2CElement(-a, -b, -c, -d)
    return SL2CElement(a, b, c, d)  # pragma: no cover


def _rotation_cover(r) -> tuple[complex, complex, complex, complex]:
    """(a, b, c, d) covering the rotation with rows ``r``.  Shepperd: the row of 4 q q^T (linear
    in r) with the largest diagonal 4 q_k^2 >= 1, over 2 sqrt(4 q_k^2), is the quaternion q =
    (w, x, y, z); the tau basis flips x1, so the cover is w I - i(x s1 - y s2 - z s3)."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r
    diag = (1.0 + r00 + r11 + r22, 1.0 + r00 - r11 - r22,
            1.0 - r00 + r11 - r22, 1.0 - r00 - r11 + r22)
    k = diag.index(max(diag))
    row = ((diag[0], r21 - r12, r02 - r20, r10 - r01),
           (r21 - r12, diag[1], r01 + r10, r02 + r20),
           (r02 - r20, r01 + r10, diag[2], r12 + r21),
           (r10 - r01, r02 + r20, r12 + r21, diag[3]))[k]
    scale = 0.5 / math.sqrt(diag[k])
    w, x, y, z = [e * scale for e in row]
    return complex(w, z), complex(y, -x), complex(-y, -x), complex(w, -z)


def lift_lorentz_to_sl2c(lam: LorentzMatrix) -> SL2CElement:
    """Of the two preimages +-s of a proper orthochronous matrix, the one of canonical sign.

    With Q the cyclic rotation taking e3 to e1, :func:`standard_decompose`'s factors give
    lam = embed(r1 Q) . B3(chi) . embed(Q^T r2), and D = diag(e^(-chi/2), e^(chi/2)) covers
    B3, the boost along x3: s = u(r1 Q) . D . u(Q^T r2).  No entry of s is a cancellation,
    so ad - bc holds to ~ulp of |ad| + |bc| and the image to ~lam_00 ulp at any rapidity.
    """
    if classify_component(lam) is not ComponentLabel.PROPER_ORTHOCHRONOUS:
        raise WrongComponent("only proper orthochronous matrices have a spinor lift")
    n0, u0, v0, n1, u1, v1, n2, u2, v2, chi, *r2 = _factors(lam).tolist()
    a1, b1, c1, d1 = _rotation_cover(((u0, v0, n0), (u1, v1, n1), (u2, v2, n2)))  # r1 Q's rows
    a2, b2, c2, d2 = _rotation_cover((r2[3:6], r2[6:], r2[:3]))   # rows of Q^T r2
    em, ep = math.exp(-0.5 * chi), math.exp(0.5 * chi)
    a1, b1, c1, d1 = a1 * em, b1 * ep, c1 * em, d1 * ep
    return _canonical_sign(a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
                           c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)
