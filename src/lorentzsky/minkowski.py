"""Four-vectors, the Minkowski interval, and Lorentz-matrix algebra.

Everything here works in units where c = 1: velocities are fractions of
the speed of light, rapidities are dimensionless, and x0 = ct carries
units of length.  Signature convention is (-,+,+,+).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import BadAxis, NotLorentz, RangeError, SpeedLimit

DEFAULT_TOL = 1e-9
#: 64 eps, eps = 2^-52: a Lorentz matrix's residual rounds by ~m00^2 ulp (7.73 m00^2 eps seen)
_ROUNDING_TOL = 64 * 2.0 ** -52
#: 16 eps: a residual past 16 eps m00^2 is more than the library's rounding leaves, a defect
_DEFECT_TOL = 16 * 2.0 ** -52

#: Metric matrix diag(-1, 1, 1, 1).
METRIC = np.diag([-1.0, 1.0, 1.0, 1.0])
METRIC.setflags(write=False)
_ETA_SIGNS = np.outer(METRIC.diagonal(), METRIC.diagonal())
_I3 = np.eye(3)

#: Rapidity is the additive boost parameter; a plain dimensionless float.
Rapidity = float


_COMPONENTS = ("x0", "x1", "x2", "x3")


def _number(kind: type, name: str, x: object):
    """kind(x), for kind float or complex; RangeError naming ``name`` when x is not a number
    or is an int past the double range."""
    try:
        return kind(x)
    except (TypeError, ValueError):
        raise RangeError(f"{name} must be a number, got {x!r}") from None
    except OverflowError:  # no repr: a long enough int's str() raises ValueError
        raise RangeError(f"{name} is past the double range") from None


def _finite_number(name: str, x: object) -> float:
    """float(x); RangeError naming ``name`` when x is not a finite number."""
    x = _number(float, name, x)
    if not math.isfinite(x):
        raise RangeError(f"{name} must be finite, got {x!r}")
    return x


def _array(kind: type, name: str, x: object) -> np.ndarray:
    """np.array(x, dtype=kind); RangeError naming ``name`` when x is not an array of numbers."""
    try:
        return np.array(x, dtype=kind)
    except (TypeError, ValueError) as exc:
        raise RangeError(f"{name} must be an array of numbers: {exc}") from None


def _require_finite(x: Sequence[float]) -> None:
    """RangeError naming the first non-finite component of (x0, x1, x2, x3)."""
    if math.isfinite(sum(x)):  # else a component is not finite, or the sum overflowed
        return
    for name, v in zip(_COMPONENTS, x):
        if not math.isfinite(v):
            raise RangeError(f"four-vector component {name} must be finite, got {v!r}")


@dataclass(frozen=True, slots=True)
class FourVector:
    """Spacetime displacement (x0, x1, x2, x3), all components in length units."""

    x0: float
    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        for name in _COMPONENTS:
            object.__setattr__(self, name, _number(float, name, getattr(self, name)))
        _require_finite((self.x0, self.x1, self.x2, self.x3))

    @classmethod
    def from_array(cls, arr: Iterable[float]) -> "FourVector":
        a = np.asarray(arr, dtype=float).reshape(4)
        return cls(a[0], a[1], a[2], a[3])

    def as_array(self) -> np.ndarray:
        return np.array([self.x0, self.x1, self.x2, self.x3])

    @property
    def spatial(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3])

    def __add__(self, other: "FourVector") -> "FourVector":
        return FourVector(self.x0 + other.x0, self.x1 + other.x1,
                          self.x2 + other.x2, self.x3 + other.x3)

    def __sub__(self, other: "FourVector") -> "FourVector":
        return FourVector(self.x0 - other.x0, self.x1 - other.x1,
                          self.x2 - other.x2, self.x3 - other.x3)

    def __neg__(self) -> "FourVector":
        return FourVector(-self.x0, -self.x1, -self.x2, -self.x3)


def interval_squared(dx: FourVector) -> float:
    """Squared interval -dx0^2 + dx1^2 + dx2^2 + dx3^2 (length squared).

    Raises :class:`RangeError` when it is past the double range.
    """
    s = -dx.x0 * dx.x0 + dx.x1 * dx.x1 + dx.x2 * dx.x2 + dx.x3 * dx.x3
    if not math.isfinite(s):   # inf, or nan from inf - inf
        raise RangeError(f"squared interval of {dx} overflows a double")
    return s


class ComponentLabel(Enum):
    """The four connected components, keyed by (sign det, sign of the 0-0 entry)."""

    PROPER_ORTHOCHRONOUS = "ProperOrthochronous"
    PROPER_ANTICHRONOUS = "ProperAntichronous"
    IMPROPER_ORTHOCHRONOUS = "ImproperOrthochronous"
    IMPROPER_ANTICHRONOUS = "ImproperAntichronous"


@dataclass(frozen=True, eq=False)
class LorentzMatrix:
    """A 4x4 matrix M with M^T eta M = eta within max(tol, _ROUNDING_TOL * M00^2) (max-norm),
    a finite bound kept as ``tol``: the given ``tol`` is only a floor on the rounding rule.

    Construction raises :class:`NotLorentz` when the residual exceeds it, when M00 is 0, or
    when |det|, as read by :func:`_det`, is not 1 within it (once it reaches 1, as a boost's
    does from chi ~ 16.6, that check no longer bounds det away from 0), and
    :class:`RangeError` when ``tol`` is not positive and finite or an entry is not a number.
    The residual, :meth:`apply` and products are summed in Python floats in one fixed order,
    so they are the same bits on every CPU.  Instances are immutable, and keep their label
    and factors; a copy is rebuilt through the constructor, without them.
    """

    entries: np.ndarray
    tol: float = DEFAULT_TOL
    residual: float = field(init=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LorentzMatrix):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)

    def __reduce__(self):
        # copy and pickle rebuild through the constructor: read-only entries, no cache
        return LorentzMatrix, (self.entries, self.tol)

    def __post_init__(self):
        m = _array(float, "entries", self.entries)
        if m.shape != (4, 4):
            raise RangeError(f"expected a 4x4 matrix, got shape {m.shape}")
        flat = m.ravel().tolist()
        # A nan or inf entry makes the sum non-finite; so can an overflow.
        size = sum(map(abs, flat))
        if not math.isfinite(size) and not np.isfinite(m).all():
            raise NotLorentz(math.inf, "matrix has non-finite entries")
        if not 0.0 < self.tol < math.inf:
            raise RangeError(f"tolerance must be positive and finite, got {self.tol!r}")
        tol = max(self.tol, _ROUNDING_TOL * (flat[0] * flat[0]))
        (m00, m01, m02, m03, m10, m11, m12, m13,
         m20, m21, m22, m23, m30, m31, m32, m33) = flat
        # The 10 distinct entries of m^T eta m - eta, (i, j) for columns i <= j, each summed
        # over rows 0 to 3.  An overflowing product is inf, and inf - inf nan, unwarned.
        gram = (-m00 * m00 + m10 * m10 + m20 * m20 + m30 * m30 + 1.0,
                -m01 * m01 + m11 * m11 + m21 * m21 + m31 * m31 - 1.0,
                -m02 * m02 + m12 * m12 + m22 * m22 + m32 * m32 - 1.0,
                -m03 * m03 + m13 * m13 + m23 * m23 + m33 * m33 - 1.0,
                -m00 * m01 + m10 * m11 + m20 * m21 + m30 * m31,
                -m00 * m02 + m10 * m12 + m20 * m22 + m30 * m32,
                -m00 * m03 + m10 * m13 + m20 * m23 + m30 * m33,
                -m01 * m02 + m11 * m12 + m21 * m22 + m31 * m32,
                -m01 * m03 + m11 * m13 + m21 * m23 + m31 * m33,
                -m02 * m03 + m12 * m13 + m22 * m23 + m32 * m33)
        residual = max(map(abs, gram))
        # max skips a nan that is not first; entries below 1e154 leave no product to overflow
        if size >= 1e154 and math.isnan(sum(map(abs, gram))):
            residual = math.nan
        if not residual <= tol < math.inf:  # "not" rejects a nan residual too
            raise NotLorentz(residual, f"metric-preservation residual {residual:.3e} " + (
                f"exceeds tolerance {tol:.3e}" if tol < math.inf
                else "has no finite tolerance: 64 eps m00^2 overflows a double"))
        # residual <= tol < 1 already gives |m00| >= sqrt(1 - tol); from tol = 1
        # on only this guard keeps _det from dividing by 0.
        if flat[0] == 0.0:
            raise NotLorentz(residual, "0-0 entry has magnitude below 1")
        if abs(abs(_det(flat)) - 1.0) > tol:
            raise NotLorentz(residual, "determinant is not +-1 within tolerance")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "tol", tol)
        object.__setattr__(self, "residual", residual)

    def apply(self, x: FourVector) -> FourVector:
        return FourVector(*_apply(self.entries.ravel().tolist(), x.x0, x.x1, x.x2, x.x3))

    def _defect(self, gain: float) -> float:
        """residual * gain for a residual past what rounding leaves (16 eps m00^2), else 0."""
        m00 = self.entries[0, 0].item()
        return self.residual * gain if self.residual > _DEFECT_TOL * (m00 * m00) else 0.0

    def inverse(self) -> "LorentzMatrix":
        # eta M^T eta, the exact inverse of a metric-preserving matrix: eta_i M_ji eta_j.  Its
        # residual M eta M^T - eta stretches M's defect by up to 7.47 m00^2, as a product does.
        m00 = abs(self.entries[0, 0].item())
        return _rounded(self.entries.T * _ETA_SIGNS, (self,), self._defect(7.47 * m00 * m00), m00)

    def __matmul__(self, other: "LorentzMatrix") -> "LorentzMatrix":
        a, bt = self.entries.ravel().tolist(), other.entries.T.ravel().tolist()
        p = [_apply(bt, *a[i:i + 4]) for i in (0, 4, 8, 12)]  # row i of A B is B^T (row i of A)
        scale = abs(a[0] * bt[0])
        if abs(p[0][0]) <= _ROUNDING_TOL * scale:  # all rounding: A A^-1 from chi ~ 16.6
            raise RangeError(f"product is past double precision: its 0-0 entry {p[0][0]:.3e} is "
                             f"within the rounding of a00 * b00 = {scale:.3e} (precision lost)")
        # P^T eta P - eta = B^T E_A B + E_B, and a Lorentz B's column |sums| are at most
        # (1 + sqrt 3) b00, (1 + sqrt 3)^2 < 7.47: a factor's defect is carried through B.
        carried = self._defect(7.47 * bt[0] * bt[0]) + other._defect(1.0)
        return _rounded(np.array(p), (self, other), carried, scale)


def _apply(m: list[float], x0: float, x1: float, x2: float,
           x3: float) -> tuple[float, float, float, float]:
    """m x for m given as its 16 entries row by row, each row's sum taken left to right in
    Python floats: the same bits on every CPU, and an overflow is inf or nan, unwarned."""
    return (m[0] * x0 + m[1] * x1 + m[2] * x2 + m[3] * x3,
            m[4] * x0 + m[5] * x1 + m[6] * x2 + m[7] * x3,
            m[8] * x0 + m[9] * x1 + m[10] * x2 + m[11] * x3,
            m[12] * x0 + m[13] * x1 + m[14] * x2 + m[15] * x3)


def _rounded(m: np.ndarray, factors: tuple = (), carried: float = 0.0,
             scale: float = 1.0) -> LorentzMatrix:
    """LorentzMatrix(m) of a cover, or of an inverse or product of ``factors``, at the rule plus
    their defect ``carried`` on the rounding of entries of size ``scale``.  Finite entries that
    fail the residual check lost precision, or a factor's defect was stretched past the bound."""
    tol = carried + max(DEFAULT_TOL, _ROUNDING_TOL * scale * scale) if carried else DEFAULT_TOL
    try:
        return LorentzMatrix(m, tol if tol < math.inf else DEFAULT_TOL)
    except NotLorentz as exc:
        m00 = m[0, 0].item()
        bound = max(tol, _ROUNDING_TOL * (m00 * m00))
        if exc.residual <= bound < math.inf or not np.isfinite(m).all():
            raise  # its determinant, or entries past the double range
        given = ", ".join(f"{f.residual:.3e}" for f in factors)
        raise RangeError(f"{('cover', 'inverse', 'product')[len(factors)]} is past double "
                         f"precision: residual {exc.residual:.3e} for a rounding bound of "
                         f"{bound:.3e} (precision lost" + (f"; factor residuals {given})"
                                                           if factors else ")")) from None


def validate_lorentz(m: np.ndarray | Iterable[Iterable[float]],
                     tol: float = DEFAULT_TOL) -> LorentzMatrix:
    """Accept ``m`` as a Lorentz matrix or raise :class:`NotLorentz`."""
    return LorentzMatrix(m, tol)


def _triple(a0: float, a1: float, a2: float, b0: float, b1: float, b2: float,
            c0: float, c1: float, c2: float) -> float:
    """a . (b x c): the determinant of the 3x3 matrix with rows a, b, c."""
    return a0 * (b1 * c2 - b2 * c1) + a1 * (b2 * c0 - b0 * c2) + a2 * (b0 * c1 - b1 * c0)


def _det(flat: list[float]) -> float:
    """det m of a Lorentz matrix m, given as its 16 entries, read as det m[1:, 1:] / m00.

    m^-1 = eta m^T eta, and comparing the 0-0 entries gives det m[1:, 1:] =
    det m * m00.  The 4x4 determinant reads 0 from rapidity ~17 on and
    overflows for an oblique boost from ~178; dividing the first block row by
    m00 before the triple product keeps every product below ~cosh^2 chi,
    finite up to |chi| ~ 355.3 (its sign is rounding from chi ~ 20 on).
    """
    m00 = flat[0]
    return _triple(flat[5] / m00, flat[6] / m00, flat[7] / m00, *flat[9:12], *flat[13:16])


def classify_component(lam: LorentzMatrix) -> ComponentLabel:
    """Component from the signs of det and of the 0-0 entry.

    det m = det m[1:, 1:] / m00.  The Schur complement of m00 is m[1:, 1:]^-T; its row i
    is w = m[i, 1:] - m[i, 0] m[0, 1:] / m00, and with b, c the rows of m[1:, 1:] after i
    (cyclically), (b x c) . w = |b x c|^2 / det m[1:, 1:].  For the i with the smallest
    |m[i, 0]|, |w| >= sqrt(2/3) (row 1 of a boost along x1 has w = (1/cosh chi, 0, 0)), so
    the sign holds to ~cosh(chi) ulp relative: the label holds for rotation . boost .
    rotation products to chi ~ 36, where the entries' own rounding reaches it.  The label is
    kept on ``lam``, which is immutable.
    """
    label = getattr(lam, "_component", None)
    if label is not None:
        return label
    flat = lam.entries.ravel().tolist()
    x, y, z = abs(flat[4]), abs(flat[8]), abs(flat[12])
    i = 4 if x <= y and x <= z else 8 if y <= z else 12  # row i of m starts at flat[i]
    j, k, r = 4 + i % 12, 4 + (i + 4) % 12, flat[i] / flat[0]
    orthochronous = flat[0] > 0
    w_bc = _triple(flat[i + 1] - r * flat[1], flat[i + 2] - r * flat[2], flat[i + 3] - r * flat[3],
                   flat[j + 1], flat[j + 2], flat[j + 3], flat[k + 1], flat[k + 2], flat[k + 3])
    if (w_bc > 0) == orthochronous:  # proper
        label = (ComponentLabel.PROPER_ORTHOCHRONOUS if orthochronous
                 else ComponentLabel.PROPER_ANTICHRONOUS)
    else:
        label = (ComponentLabel.IMPROPER_ORTHOCHRONOUS if orthochronous
                 else ComponentLabel.IMPROPER_ANTICHRONOUS)
    object.__setattr__(lam, "_component", label)
    return label


@dataclass(frozen=True, slots=True)
class PoincareTransform:
    """Inhomogeneous transformation x -> lorentz . x + translation."""

    lorentz: LorentzMatrix
    translation: FourVector

    @classmethod
    def identity(cls) -> "PoincareTransform":
        return cls(validate_lorentz(np.eye(4)), FourVector(0.0, 0.0, 0.0, 0.0))

    def apply(self, x: FourVector) -> FourVector:
        return self.lorentz.apply(x) + self.translation

    def inverse(self) -> "PoincareTransform":
        inv = self.lorentz.inverse()
        return PoincareTransform(inv, -inv.apply(self.translation))


def poincare_compose(g: PoincareTransform, gp: PoincareTransform) -> PoincareTransform:
    """Semi-direct product law (L, a) . (L', a') = (L L', a + L a')."""
    return PoincareTransform(g.lorentz @ gp.lorentz,
                             g.translation + g.lorentz.apply(gp.translation))


def gamma(v: float) -> float:
    """Time-dilation factor 1/sqrt(1 - v^2) for |v| < 1 (units of c)."""
    v = _number(float, "v", v)
    if not abs(v) < 1.0:
        raise SpeedLimit(f"|v| = {abs(v)} must be below 1 (units of c)")
    return 1.0 / math.sqrt(1.0 - v * v)


def rapidity_from_velocity(v: float) -> Rapidity:
    """chi = argtanh(v), the additive boost parameter."""
    v = _number(float, "v", v)
    if not abs(v) < 1.0:
        raise SpeedLimit(f"|v| = {abs(v)} must be below 1 (units of c)")
    return math.atanh(v)


def velocity_from_rapidity(chi: Rapidity) -> float:
    """v = tanh(chi) in units of c."""
    return math.tanh(_finite_number("rapidity", chi))


def add_velocities(v: float, w: float) -> float:
    """Relativistic composition (v + w)/(1 + v w) of collinear velocities."""
    v, w = _number(float, "v", v), _number(float, "w", w)
    if not (abs(v) < 1.0 and abs(w) < 1.0):
        raise SpeedLimit("velocities must be below 1 (units of c)")
    return (v + w) / (1.0 + v * w)


def _boost_terms(chi: Rapidity) -> tuple[float, float]:
    """cosh and sinh chi; RangeError for a chi not finite or whose cosh^2 overflows (~355.3)."""
    chi = _finite_number("rapidity", chi)
    try:
        ch, sh = math.cosh(chi), math.sinh(chi)
    except OverflowError:
        ch = sh = math.inf
    if not math.isfinite(ch * ch):
        raise RangeError(f"rapidity {chi!r} is out of range: cosh^2 overflows a double")
    return ch, sh


def boost_x(chi: Rapidity) -> LorentzMatrix:
    """Standard boost with rapidity chi along the x1 axis."""
    ch, sh = _boost_terms(chi)
    m = np.eye(4)
    m[0, 0] = m[1, 1] = ch
    m[0, 1] = m[1, 0] = -sh
    return LorentzMatrix(m)


def _unit_axis(n: Iterable[float]) -> np.ndarray:
    n = np.asarray(n, dtype=float).ravel()
    x = n.tolist()  # Python floats: a square past the double range is inf, unwarned
    if len(x) != 3 or not abs(x[0] * x[0] + x[1] * x[1] + x[2] * x[2] - 1.0) <= 2e-12:
        raise BadAxis(f"axis must be a unit 3-vector, got {x!r}")
    return n


def rotation_about_axis(n: Iterable[float], chi_or_angle: float) -> np.ndarray:
    """Rodrigues rotation c I + s K + (1 - c) n n^T about unit axis ``n`` by the given
    angle, with K the cross-product matrix of n (K^2 = n n^T - I)."""
    n, angle = _unit_axis(n), _finite_number("rotation angle", chi_or_angle)
    c, s = math.cos(angle), math.sin(angle)
    k = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    return c * _I3 + s * k + (1.0 - c) * np.outer(n, n)


def boost_axis(n: Iterable[float], chi: Rapidity) -> LorentzMatrix:
    """Boost with rapidity chi along the unit 3-vector ``n``.

    Closed form (Jackson, Classical Electrodynamics, 11.3): the 0-0 entry is
    cosh chi, the 0-i and i-0 entries are -sinh(chi) n_i, and the spatial
    block is delta_ij + (cosh chi - 1) n_i n_j.
    """
    n = _unit_axis(n)
    ch, sh = _boost_terms(chi)
    m = np.empty((4, 4))
    m[0, 0] = ch
    m[0, 1:] = m[1:, 0] = -sh * n
    m[1:, 1:] = np.eye(3) + (ch - 1.0) * np.outer(n, n)
    return LorentzMatrix(m)


def _is_rotation(r: Sequence[float], tol: float) -> bool:
    """The 3x3 matrix with rows r[0:3], r[3:6], r[6:9] has det > 0 by the triple product, and
    each entry of r^T r - I (symmetric bit for bit) is at most ``tol``.  In Python floats an
    overflowing product reads inf with no warning, and a nan refuses."""
    a0, a1, a2, b0, b1, b2, c0, c1, c2 = r
    gram = (a0 * a0 + b0 * b0 + c0 * c0 - 1.0, a1 * a1 + b1 * b1 + c1 * c1 - 1.0,
            a2 * a2 + b2 * b2 + c2 * c2 - 1.0, a0 * a1 + b0 * b1 + c0 * c1,
            a0 * a2 + b0 * b2 + c0 * c2, a1 * a2 + b1 * b2 + c1 * c2)
    return _triple(*r) > 0 and all(abs(e) <= tol for e in gram)


def rotation_embed(r: np.ndarray) -> LorentzMatrix:
    """Embed a 3x3 rotation as a spatial Lorentz transformation."""
    r = _array(float, "r", r)
    if r.shape != (3, 3) or not _is_rotation(r.ravel().tolist(), DEFAULT_TOL):
        raise RangeError("expected a 3x3 rotation matrix with det +1")
    m = np.eye(4)
    m[1:, 1:] = r
    return LorentzMatrix(m)


def parity() -> LorentzMatrix:
    """Spatial reflection diag(1, -1, -1, -1)."""
    return LorentzMatrix(np.diag([1.0, -1.0, -1.0, -1.0]))


def time_reversal() -> LorentzMatrix:
    """Time reflection diag(-1, 1, 1, 1)."""
    return LorentzMatrix(np.diag([-1.0, 1.0, 1.0, 1.0]))


def integrate_proper_acceleration(tau: np.ndarray, accel: np.ndarray) -> Rapidity:
    """Rapidity accumulated by an observer starting at rest.

    Trapezoidal integral of the sampled proper acceleration ``accel`` over
    the proper-time grid ``tau`` (both in c = 1 units, so the result is the
    dimensionless rapidity).  Step control is the caller's responsibility;
    repeated grid points are allowed and contribute nothing.
    """
    tau = np.asarray(tau, dtype=float)
    accel = np.asarray(accel, dtype=float)
    if tau.shape != accel.shape or tau.ndim != 1 or tau.size < 2:
        raise RangeError("tau and accel must be 1-d arrays of equal length >= 2")
    if not (np.all(np.isfinite(tau)) and np.all(np.isfinite(accel))):
        raise RangeError("samples must be finite")
    if np.any(np.diff(tau) < 0):
        raise RangeError("tau must be non-decreasing")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        chi = float(np.trapezoid(accel, tau))
    if not math.isfinite(chi):
        raise RangeError("the integrated rapidity overflows a double")
    return chi
