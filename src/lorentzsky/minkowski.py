"""Four-vectors, the Minkowski interval, and Lorentz-matrix algebra.

Everything here works in units where c = 1: velocities are fractions of
the speed of light, rapidities are dimensionless, and x0 = ct carries
units of length.  Signature convention is (-,+,+,+).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import BadAxis, NotLorentz, RangeError, SpeedLimit

DEFAULT_TOL = 1e-9

#: Metric matrix diag(-1, 1, 1, 1).
METRIC = np.diag([-1.0, 1.0, 1.0, 1.0])
METRIC.setflags(write=False)

#: Rapidity is the additive boost parameter; a plain dimensionless float.
Rapidity = float


@dataclass(frozen=True)
class FourVector:
    """Spacetime displacement (x0, x1, x2, x3), all components in length units."""

    x0: float
    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        for name in ("x0", "x1", "x2", "x3"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise RangeError(f"four-vector component {name} must be finite, got {v!r}")
            object.__setattr__(self, name, float(v))

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
    """Squared interval -dx0^2 + dx1^2 + dx2^2 + dx3^2 (length squared)."""
    return -dx.x0 * dx.x0 + dx.x1 * dx.x1 + dx.x2 * dx.x2 + dx.x3 * dx.x3


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
    residual exceeds ``tol``; |det| and |M00| are also checked, which pins
    down the component structure.  Instances are immutable.
    """

    entries: np.ndarray
    tol: float = DEFAULT_TOL
    residual: float = field(init=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LorentzMatrix):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        m = np.array(self.entries, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise NotLorentz(math.inf, "matrix has non-finite entries")
        residual = float(np.abs(m.T @ METRIC @ m - METRIC).max())
        if residual > self.tol:
            raise NotLorentz(residual)
        if abs(abs(float(np.linalg.det(m))) - 1.0) > self.tol:
            raise NotLorentz(residual, "determinant is not +-1 within tolerance")
        if abs(m[0, 0]) < 1.0 - self.tol:
            raise NotLorentz(residual, "0-0 entry has magnitude below 1")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "residual", residual)

    def component(self) -> ComponentLabel:
        return classify_component(self)

    def apply(self, x: FourVector) -> FourVector:
        return FourVector(*(self.entries @ x.as_array()).tolist())

    def inverse(self) -> "LorentzMatrix":
        # eta M^T eta is the exact inverse of a metric-preserving matrix.
        return LorentzMatrix(METRIC @ self.entries.T @ METRIC, self.tol)

    def __matmul__(self, other: "LorentzMatrix") -> "LorentzMatrix":
        product = self.entries @ other.entries
        # The metric residual of a product grows with the squared entry
        # scale even when both factors are exact; loosen proportionally.
        scale = float(np.abs(product).max())
        tol = max(self.tol, other.tol) * max(1.0, scale * scale)
        return LorentzMatrix(product, tol)


def validate_lorentz(m: np.ndarray | Iterable[Iterable[float]],
                     tol: float = DEFAULT_TOL) -> LorentzMatrix:
    """Accept ``m`` as a Lorentz matrix or raise :class:`NotLorentz`."""
    return LorentzMatrix(np.asarray(m, dtype=float), tol)


def classify_component(lam: LorentzMatrix) -> ComponentLabel:
    """Component from the signs of det and of the 0-0 entry.

    The determinant sign is read as sign(lam_00) * sign(det of the spatial
    3x3 block): lam^-1 = eta lam^T eta, and comparing the 0-0 entries gives
    det lam[1:, 1:] = det lam * lam_00, of magnitude at least 1.  The block
    has condition number ~cosh(chi), against e^(2 chi) for the 4x4
    determinant, which reads 0 from rapidity ~17 on; the block keeps the
    sign resolvable at least to chi = 34.
    """
    m = lam.entries
    orthochronous = m[0, 0] > 0
    proper = (float(m[1, 1:] @ _cross(m[2, 1:], m[3, 1:])) > 0) == orthochronous
    if proper:
        return (ComponentLabel.PROPER_ORTHOCHRONOUS if orthochronous
                else ComponentLabel.PROPER_ANTICHRONOUS)
    return (ComponentLabel.IMPROPER_ORTHOCHRONOUS if orthochronous
            else ComponentLabel.IMPROPER_ANTICHRONOUS)


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
    if abs(v) >= 1.0:
        raise SpeedLimit(f"|v| = {abs(v)} must be below 1 (units of c)")
    return 1.0 / math.sqrt(1.0 - v * v)


def rapidity_from_velocity(v: float) -> Rapidity:
    """chi = argtanh(v), the additive boost parameter."""
    if abs(v) >= 1.0:
        raise SpeedLimit(f"|v| = {abs(v)} must be below 1 (units of c)")
    return math.atanh(v)


def velocity_from_rapidity(chi: Rapidity) -> float:
    """v = tanh(chi) in units of c."""
    return math.tanh(chi)


def add_velocities(v: float, w: float) -> float:
    """Relativistic composition (v + w)/(1 + v w) of collinear velocities."""
    if abs(v) >= 1.0 or abs(w) >= 1.0:
        raise SpeedLimit("velocities must be below 1 (units of c)")
    return (v + w) / (1.0 + v * w)


def _cosh_sinh(chi: Rapidity) -> tuple[float, float]:
    """(cosh chi, sinh chi), RangeError past |chi| ~ 710.5; nan and inf pass through."""
    try:
        return math.cosh(chi), math.sinh(chi)
    except OverflowError:
        raise RangeError(f"rapidity {chi!r} is out of range: cosh overflows a double") from None


def boost_x(chi: Rapidity) -> LorentzMatrix:
    """Standard boost with rapidity chi along the x1 axis."""
    ch, sh = _cosh_sinh(chi)
    m = np.eye(4)
    m[0, 0] = m[1, 1] = ch
    m[0, 1] = m[1, 0] = -sh
    # cosh^2 - sinh^2 = 1 only up to rounding that grows with cosh^2.
    return LorentzMatrix(m, DEFAULT_TOL * max(1.0, ch * ch))


def _unit_axis(n: Iterable[float]) -> np.ndarray:
    n = np.asarray(n, dtype=float).reshape(3)
    if abs(float(n @ n) - 1.0) > 2e-12:
        raise BadAxis(f"axis must be a unit 3-vector, |n|^2 = {float(n @ n)!r}")
    return n


def rotation_about_axis(n: Iterable[float], chi_or_angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about unit axis ``n`` by the given angle."""
    n = _unit_axis(n)
    c, s = math.cos(chi_or_angle), math.sin(chi_or_angle)
    k = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    return np.eye(3) + s * k + (1.0 - c) * (k @ k)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b for 3-vectors: the products np.cross forms, without its ~30 us overhead."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def boost_axis(n: Iterable[float], chi: Rapidity) -> LorentzMatrix:
    """Boost with rapidity chi along the unit 3-vector ``n``.

    Closed form (Jackson, Classical Electrodynamics, 11.3): the 0-0 entry is
    cosh chi, the 0-i and i-0 entries are -sinh(chi) n_i, and the spatial
    block is delta_ij + (cosh chi - 1) n_i n_j.
    """
    n = _unit_axis(n)
    ch, sh = _cosh_sinh(chi)
    m = np.empty((4, 4))
    m[0, 0] = ch
    m[0, 1:] = m[1:, 0] = -sh * n
    m[1:, 1:] = np.eye(3) + (ch - 1.0) * np.outer(n, n)
    # The same cosh^2-scaled tolerance as boost_x.
    return LorentzMatrix(m, DEFAULT_TOL * max(1.0, ch * ch))


def _is_rotation(r: np.ndarray, tol: float) -> bool:
    """3x3, orthogonal within ``tol`` (max-norm), and det > 0 by the triple product."""
    return (r.shape == (3, 3) and np.abs(r.T @ r - np.eye(3)).max() <= tol
            and float(r[0] @ _cross(r[1], r[2])) > 0)


def rotation_embed(r: np.ndarray) -> LorentzMatrix:
    """Embed a 3x3 rotation as a spatial Lorentz transformation."""
    r = np.asarray(r, dtype=float)
    if not _is_rotation(r, 1e-9):
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
        raise ValueError("tau and accel must be 1-d arrays of equal length >= 2")
    if not (np.all(np.isfinite(tau)) and np.all(np.isfinite(accel))):
        raise ValueError("samples must be finite")
    if np.any(np.diff(tau) < 0):
        raise ValueError("tau must be non-decreasing")
    return float(np.trapezoid(accel, tau))
