"""Double covers: SU(2) -> SO(3), SL(2,R) -> SO(2,1), SL(2,C) -> SO(3,1).

Each cover is the adjoint action on a trace-orthogonal matrix basis, read
off by trace pairing; all three are quadratic in the group element, so
S and -S map to the same image.  The 4d cover acts on Hermitian matrices
X = x^mu tau_mu with tau = (I, -sigma1, sigma2, sigma3); the sign on the
first Pauli matrix is what makes the induced sphere action come out as
z -> (a z + b)/(c z + d) with the same (a, b, c, d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import NotHermitian, NotLorentz, PrecisionLimit, RangeError, WrongComponent
from .minkowski import (DEFAULT_TOL, ComponentLabel, FourVector, LorentzMatrix, _tolerance,
                        _unit_axis, classify_component)

# Round-trip tolerance of the spinor lift (acceptance criterion 2).
_LIFT_TOL = 1e-8
_HERMITIAN_TOL = 1e-12
_SU2_NORM_TOL = 1e-10

#: The Pauli matrices sigma1, sigma2, sigma3.
_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
#: Basis of 2x2 Hermitian matrices carrying four-vector components.
TAU = np.stack([np.eye(2, dtype=complex), -_PAULI[0], _PAULI[1], _PAULI[2]])

#: Traceless real generators for the 3d cover; tr(t_mu t_nu) = 2 eta_mu_nu.
_SL2R_GEN = np.array([[[0.0, 1.0], [-1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]],
                      [[1.0, 0.0], [0.0, -1.0]]])


def _adjoint_form(basis: np.ndarray) -> np.ndarray:
    """Constant (k*k) x 16 matrix K of the adjoint action on ``basis``, by trace pairing."""
    # (K @ outer(s, t).ravel())[n*k + m] = 1/2 tr(basis_n s basis_m t^T), t = conj(s) or s^-T
    return 0.5 * np.einsum("nia,mbc->nmabic", basis, basis).reshape(len(basis) ** 2, 16)


_COVER = _adjoint_form(TAU)
_SO3_COVER = _adjoint_form(_PAULI)
# The sl2r cover lowers the first index with diag(-1, 1, 1).
_SO21_COVER = np.repeat([-1.0, 1.0, 1.0], 3)[:, None] * _adjoint_form(_SL2R_GEN)
# sum_{mu nu} lam_{mu nu} tau_mu tau_k tau_nu, as a 16 x 16 matrix acting on lam.ravel().
_LIFT = np.einsum("mab,kbc,ncd->kadmn", TAU, TAU, TAU).reshape(16, 16)
for _const in (TAU, _PAULI, _SL2R_GEN, _COVER, _SO3_COVER, _SO21_COVER, _LIFT):
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
        a, b, c, d = scalar(self.a), scalar(self.b), scalar(self.c), scalar(self.d)
        det = a * d - b * c
        if not abs(det - 1.0) <= DEFAULT_TOL:  # also refuses nan
            raise RangeError(f"determinant {det} is not 1 within {DEFAULT_TOL}")
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
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
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

    def inverse_matrix(self) -> np.ndarray:
        return np.array([[self.d, -self.b], [-self.c, self.a]])


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
        residual = float(np.abs(m - m.conj().T).max())
        if not residual <= _HERMITIAN_TOL:  # also refuses nan
            raise NotHermitian(f"Hermiticity residual {residual:.3e} exceeds {_HERMITIAN_TOL}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def det(self) -> float:
        m = self.matrix
        return float((m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real)


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
    m = x.matrix
    return FourVector(
        0.5 * (m[0, 0].real + m[1, 1].real),
        -m[0, 1].real,
        -m[0, 1].imag,
        0.5 * (m[0, 0].real - m[1, 1].real),
    )


def sl2c_to_lorentz(s: SL2CElement) -> LorentzMatrix:
    """Image of s under the 2-to-1 cover of the proper orthochronous group.

    Column mu holds the tau-basis components of s tau_mu s-dagger; entries
    are quadratic in (a, b, c, d), so s and -s give the same matrix.
    """
    # The sums below are at most lam_00 = |s|_F^2 / 2: refuse its overflow before numpy warns.
    lam00 = sum(0.5 * (x.real * x.real + x.imag * x.imag) for x in (s.a, s.b, s.c, s.d))
    if not math.isfinite(lam00):
        raise NotLorentz(math.inf, "matrix has non-finite entries")
    m = s.matrix
    out = (_COVER @ np.multiply.outer(m, m.conj()).ravel()).real.reshape(4, 4)
    return LorentzMatrix(out, _tolerance(lam00, lam00))


def su2_to_so3(u: SU2Element) -> np.ndarray:
    """3x3 rotation from the adjoint action on the Pauli basis."""
    m = u.matrix
    return (_SO3_COVER @ np.multiply.outer(m, m.conj()).ravel()).real.reshape(3, 3)


def sl2r_to_so21(s: SL2RElement) -> np.ndarray:
    """3x3 Lorentz matrix (signature -,+,+) from the adjoint action.

    The image preserves diag(-1, 1, 1) and has top-left entry >= 1.
    """
    return (_SO21_COVER @ np.multiply.outer(s.matrix, s.inverse_matrix().T).ravel()).reshape(3, 3)


def su2_from_axis_angle(n: Iterable[float], phi: float) -> SU2Element:
    """cos(phi/2) I - i sin(phi/2) (n . sigma); covers the rotation R(n, phi)."""
    n = _unit_axis(n)
    if not math.isfinite(phi):
        raise RangeError(f"rotation angle must be finite, got {phi!r}")
    half = 0.5 * phi
    c, s = math.cos(half), math.sin(half)
    return SU2Element(complex(c, -n[2] * s), complex(-n[1] * s, -n[0] * s))


def _canonical_sign(s: SL2CElement) -> SL2CElement:
    """Pick the representative of {s, -s} whose first significant entry has
    positive real part, breaking near-imaginary ties by positive imaginary part."""
    entries = (s.a, s.b, s.c, s.d)
    scale = max(abs(e) for e in entries)
    for e in entries:
        if abs(e) <= 1e-12 * scale:
            continue
        if abs(e.real) > 1e-12 * abs(e):
            return s if e.real > 0 else -s
        return s if e.imag > 0 else -s
    return s  # pragma: no cover


def lift_lorentz_to_sl2c(lam: LorentzMatrix) -> SL2CElement:
    """One of the two preimages of a proper orthochronous matrix under the cover.

    Closed form from the identity
    sum_{mu nu} lam_{mu nu} tau_mu tau_k tau_nu = 2 tr(s-dagger tau_k) s,
    so each M_k on the left is a multiple of s, and s = M_k / sqrt(det M_k).
    A single k can fail: the coefficient tr(s-dagger tau_k) vanishes for
    some s (k = 0 at the half-turn diag(-i, i)).  The four coefficients
    are the tau-basis components of s, whose squared moduli sum to
    2 |s|_F^2 >= 4, so the k with the largest |det M_k| = 4 |tr(s-dagger tau_k)|^2
    has |det M_k| >= 4 and is the best conditioned.  The sign of the result
    is canonicalized; the other preimage is its negative.

    Rounding puts the lift's image off by about lam_00 * 2^-52 relative;
    :class:`PrecisionLimit` is raised where that passes _LIFT_TOL, from
    rapidity ~18.3 on.
    """
    if classify_component(lam) is not ComponentLabel.PROPER_ORTHOCHRONOUS:
        raise WrongComponent("only proper orthochronous matrices have a spinor lift")
    if lam.entries[0, 0] * 2.0 ** -52 > _LIFT_TOL:
        raise PrecisionLimit(f"lam_00 = {lam.entries[0, 0]:.3e}: the lift would be off by "
                             f"~lam_00 * 2^-52, beyond its tolerance {_LIFT_TOL}")
    m = (_LIFT @ lam.entries.ravel()).reshape(4, 2, 2)
    det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    k = int(np.argmax(np.abs(det)))
    return _canonical_sign(SL2CElement.from_matrix(m[k] / np.sqrt(det[k])))
