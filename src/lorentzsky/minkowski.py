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

#: Metric matrix diag(-1, 1, 1, 1).
METRIC = np.diag([-1.0, 1.0, 1.0, 1.0])
METRIC.setflags(write=False)
_ETA = METRIC.diagonal().copy()
_ETA_SIGNS = np.outer(_ETA, _ETA)
_I3 = np.eye(3)

#: Rapidity is the additive boost parameter; a plain dimensionless float.
Rapidity = float


_COMPONENTS = ("x0", "x1", "x2", "x3")


def _number(kind: type, name: str, x: object):
    """kind(x), for kind float or complex; RangeError naming ``name`` when x is not a number."""
    try:
        return kind(x)
    except (TypeError, ValueError):
        raise RangeError(f"{name} must be a number, got {x!r}") from None


def _require_finite(x: Sequence[float]) -> None:
    """RangeError naming the first non-finite component of (x0, x1, x2, x3)."""
    if math.isfinite(sum(x)):  # else a component is not finite, or the sum overflowed
        return
    for name, v in zip(_COMPONENTS, x):
        if not math.isfinite(v):
            raise RangeError(f"four-vector component {name} must be finite, got {v!r}")


@dataclass(frozen=True)
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
    """A validated 4x4 matrix M with M^T eta M = eta within ``tol`` (max-norm).

    Construction raises :class:`NotLorentz` when the metric-preservation
    residual exceeds ``tol``, when M00 is 0, or when |det|, as read by
    :func:`_det`, is not 1 within ``tol`` (once ``tol`` reaches 1, as a
    boost's does from chi ~ 11.05, that check no longer bounds det away
    from 0), and :class:`RangeError` when ``tol`` is not positive and finite
    or an entry is not a number.  Instances are immutable, and keep their label and factors.
    """

    entries: np.ndarray
    tol: float = DEFAULT_TOL
    residual: float = field(init=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LorentzMatrix):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)

    def __post_init__(self):
        try:
            m = np.array(self.entries, dtype=float)
        except (TypeError, ValueError) as exc:
            raise RangeError(f"matrix entries must be real numbers: {exc}") from None
        if m.shape != (4, 4):
            raise RangeError(f"expected a 4x4 matrix, got shape {m.shape}")
        flat = m.ravel().tolist()
        # A nan or inf entry makes the sum non-finite; so can an overflow.
        size = sum(map(abs, flat))
        if not math.isfinite(size) and not np.isfinite(m).all():
            raise NotLorentz(math.inf, "matrix has non-finite entries")
        if not 0.0 < self.tol < math.inf:  # an inf tolerance would accept an inf residual
            raise RangeError(f"tolerance must be positive and finite, got {self.tol!r}")
        # m^T eta is m^T with column 0 negated: the bits of m^T @ METRIC @ m.
        # "not <=" rejects a nan residual too (inf - inf from overflowing products).
        residual = float(np.abs(_matmul(m.T * _ETA, m, size) - METRIC).max())
        if not residual <= self.tol:
            raise NotLorentz(residual)
        # residual <= tol < 1 already gives |m00| >= sqrt(1 - tol); from tol = 1
        # on only this guard keeps _det from dividing by 0.
        if flat[0] == 0.0:
            raise NotLorentz(residual, "0-0 entry has magnitude below 1")
        if abs(abs(_det(flat)) - 1.0) > self.tol:
            raise NotLorentz(residual, "determinant is not +-1 within tolerance")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "residual", residual)

    def apply(self, x: FourVector) -> FourVector:
        v = x.x0, x.x1, x.x2, x.x3
        return FourVector(*_matmul(self.entries, np.array(v), sum(map(abs, v))).tolist())

    def inverse(self) -> "LorentzMatrix":
        # eta M^T eta, the exact inverse of a metric-preserving matrix: eta_i M_ji eta_j.  Its
        # residual M eta M^T - eta carries M's by up to 7.47 m00^2, as a product's does.
        m00 = abs(self.entries[0, 0].item())
        tol = max(self.tol, _tolerance(m00, m00, self.residual * 7.47 * m00 * m00))
        return LorentzMatrix(self.entries.T * _ETA_SIGNS, tol)

    def __matmul__(self, other: "LorentzMatrix") -> "LorentzMatrix":
        b = other.entries.ravel().tolist()  # for _matmul: self's validated entries < sqrt(DBL_MAX)
        product = _matmul(self.entries, other.entries, sum(map(abs, b)))
        # P^T eta P - eta = B^T E_A B + E_B, and a Lorentz B's column |sums| are at most
        # (1 + sqrt 3) b00, (1 + sqrt 3)^2 < 7.47: A's residual is carried through B and B's
        # added to the rule for entries of size a00 * b00; a loose factor's tol is a floor.
        carried = self.residual * 7.47 * b[0] * b[0] + other.residual
        a00 = self.entries[0, 0].item()
        tol = max(self.tol, other.tol, _tolerance(abs(a00 * b[0]), product[0, 0].item(), carried))
        # The rounding of entries of size a00 * b00 past the double range bounds nothing; an
        # overflowing product is refused for its non-finite entries instead.
        if tol == math.inf and np.isfinite(product).all():
            raise RangeError(f"product of 0-0 entries {a00!r} and {b[0]!r} is past double "
                             "precision: its rounding bound overflows a double")
        return LorentzMatrix(product, tol)


def _matmul(a: np.ndarray, b: np.ndarray, size: float) -> np.ndarray:
    """a @ b, for a's entries below sqrt(DBL_MAX) and ``size`` the sum of b's |entries|: under
    1e154 no sum overflows and no np.errstate (~2 us) is paid; past it, the caller refuses inf."""
    if size < 1e154:
        return a @ b
    with np.errstate(over="ignore", invalid="ignore"):
        return a @ b


def _tolerance(scale: float, m00: float, carried: float = 0.0) -> float:
    """From entries of size ``scale`` a Lorentz matrix rounds by ~scale ulp, its residual by
    ~scale * |m00| ulp (its largest entry), plus the residual ``carried`` in from validated
    factors; a carried bound past the double range bounds nothing and is left out.  Python
    floats: a rounding bound that overflows reads inf, refused."""
    tol = DEFAULT_TOL * max(1.0, scale * abs(m00))
    return tol + carried if carried < math.inf else tol


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


@dataclass(frozen=True)
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
    if not abs(v) < 1.0:
        raise SpeedLimit(f"|v| = {abs(v)} must be below 1 (units of c)")
    return 1.0 / math.sqrt(1.0 - v * v)


def rapidity_from_velocity(v: float) -> Rapidity:
    """chi = argtanh(v), the additive boost parameter."""
    if not abs(v) < 1.0:
        raise SpeedLimit(f"|v| = {abs(v)} must be below 1 (units of c)")
    return math.atanh(v)


def velocity_from_rapidity(chi: Rapidity) -> float:
    """v = tanh(chi) in units of c."""
    if not math.isfinite(chi):
        raise RangeError(f"rapidity must be finite, got {chi!r}")
    return math.tanh(chi)


def add_velocities(v: float, w: float) -> float:
    """Relativistic composition (v + w)/(1 + v w) of collinear velocities."""
    if not (abs(v) < 1.0 and abs(w) < 1.0):
        raise SpeedLimit("velocities must be below 1 (units of c)")
    return (v + w) / (1.0 + v * w)


def _boost_terms(chi: Rapidity) -> tuple[float, float]:
    """cosh and sinh chi; RangeError for a non-finite chi or one whose cosh^2 overflows (~355.3)."""
    if not math.isfinite(chi):
        raise RangeError(f"rapidity must be finite, got {chi!r}")
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
    return LorentzMatrix(m, _tolerance(ch, ch))


def _unit_axis(n: Iterable[float]) -> np.ndarray:
    n = np.asarray(n, dtype=float).ravel()
    if n.shape != (3,) or not abs(float(n @ n) - 1.0) <= 2e-12:
        raise BadAxis(f"axis must be a unit 3-vector, got {n.tolist()!r}")
    return n


def rotation_about_axis(n: Iterable[float], chi_or_angle: float) -> np.ndarray:
    """Rodrigues rotation c I + s K + (1 - c) n n^T about unit axis ``n`` by the given
    angle, with K the cross-product matrix of n (K^2 = n n^T - I)."""
    n = _unit_axis(n)
    if not math.isfinite(chi_or_angle):
        raise RangeError(f"rotation angle must be finite, got {chi_or_angle!r}")
    c, s = math.cos(chi_or_angle), math.sin(chi_or_angle)
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
    return LorentzMatrix(m, _tolerance(ch, ch))


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
    r = np.asarray(r, dtype=float)
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
