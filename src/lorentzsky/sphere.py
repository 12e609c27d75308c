"""The Riemann sphere in homogeneous coordinates, projections, and Mobius maps.

A point is a pair (z1 : z2), never both zero, normalized to unit length;
the affine coordinate is z = z1/z2 and the pair (1 : 0) is the point at
infinity (the south pole of the stereographic picture).  Keeping the pair
rather than z itself makes the Mobius action, the antipodal map, and the
south pole entirely regular.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import InfinityPoint, NotOnSphere, RangeError
from .minkowski import _finite_number, _number
from .spin import SL2CElement

#: Two points are identified when |z1 w2 - z2 w1| is below this.
PHASE_TOL = 1e-10

_INFINITY_EPS = 1e-14
_NORM_SKIP = 1e-14


@dataclass(frozen=True, slots=True)
class PolarAngles:
    """Colatitude theta in [0, pi] and azimuth phi in [0, 2 pi)."""

    theta: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "theta", _number(float, "theta", self.theta))
        object.__setattr__(self, "phi", _number(float, "phi", self.phi))
        if not -1e-12 <= self.theta <= math.pi + 1e-12:
            raise RangeError(f"theta = {self.theta} outside [0, pi]")
        if not -1e-12 <= self.phi < 2.0 * math.pi + 1e-12:
            raise RangeError(f"phi = {self.phi} outside [0, 2 pi)")


def _affine_pair(z: complex) -> tuple[complex, complex]:
    """(z, 1), past |z| = 1 (1, 1/z) so that no |z|^2 overflows, and (1, 0) at infinity.
    A part above 1 decides before abs(z), which overflows near the double limit."""
    z = complex(z)
    if cmath.isinf(z):
        return 1.0, 0.0
    if abs(z.real) > 1.0 or abs(z.imag) > 1.0 or abs(z) > 1.0:
        return 1.0, 1.0 / z
    return z, 1.0


@dataclass(frozen=True, slots=True)
class SpherePoint:
    """Homogeneous pair (z1 : z2), stored with |z1|^2 + |z2|^2 = 1."""

    z1: complex
    z2: complex

    def __post_init__(self):
        z1, z2 = _number(complex, "z1", self.z1), _number(complex, "z2", self.z2)
        norm = math.hypot(abs(z1), abs(z2))
        if norm == 0.0 or not math.isfinite(norm):
            raise RangeError("homogeneous coordinates must be finite and not both zero")
        # Skip the division when already normalized so that exact identity
        # maps stay bit-identical.
        if abs(norm - 1.0) > _NORM_SKIP:
            z1, z2 = z1 / norm, z2 / norm
        object.__setattr__(self, "z1", z1)
        object.__setattr__(self, "z2", z2)

    @classmethod
    def from_complex(cls, z: complex) -> "SpherePoint":
        return cls(*_affine_pair(z))

    @classmethod
    def infinity(cls) -> "SpherePoint":
        return cls(1.0, 0.0)

    @property
    def is_infinity(self) -> bool:
        return abs(self.z2) <= _INFINITY_EPS

    def to_complex(self) -> complex:
        if self.is_infinity:
            raise InfinityPoint("the point at infinity has no affine coordinate")
        return self.z1 / self.z2

    def distance_to(self, other: "SpherePoint") -> float:
        """Projective distance |z1 w2 - z2 w1|; zero iff equal up to phase."""
        return abs(self.z1 * other.z2 - self.z2 * other.z1)

    def approx_equal(self, other: "SpherePoint", tol: float = PHASE_TOL) -> bool:
        return self.distance_to(other) <= tol


def from_polar(p: PolarAngles) -> SpherePoint:
    """z = e^{i phi} tan(theta/2); theta = pi lands on the point at infinity."""
    half = 0.5 * p.theta
    return SpherePoint(math.sin(half) * cmath.exp(1j * p.phi), math.cos(half))


def to_polar(q: SpherePoint) -> PolarAngles:
    """Inverse of :func:`from_polar`; phi is reported as 0 at either pole."""
    theta = 2.0 * math.atan2(abs(q.z1), abs(q.z2))
    w = q.z1 * q.z2.conjugate()
    phi = math.atan2(w.imag, w.real) % (2.0 * math.pi) if abs(w) > 0.0 else 0.0
    return PolarAngles(min(max(theta, 0.0), math.pi), phi)


def stereo_project(x1: float, x2: float, x3: float, r: float) -> SpherePoint:
    """Projection through the south pole: z = (x1 + i x2)/(r + x3).

    The input must satisfy (x / r)^2 = 1 within 1e-9, so that no square leaves
    the double range; the south pole itself maps to the point at infinity.
    """
    return _stereo_project(*map(_number, (float,) * 4, ("x1", "x2", "x3", "r"), (x1, x2, x3, r)))


def _stereo_project(x1: float, x2: float, x3: float, r: float) -> SpherePoint:
    """:func:`stereo_project` of four floats, as :func:`celestial._bondi` passes them."""
    if not 0 < r < math.inf:
        raise NotOnSphere(f"radius must be positive and finite, got {r!r}")
    y1, y2, y3 = x1 / r, x2 / r, x3 / r   # a far-off point's y * y reads inf, a nan point nan
    if not abs(y1 * y1 + y2 * y2 + y3 * y3 - 1.0) <= 1e-9:
        raise NotOnSphere(f"({x1}, {x2}, {x3}) is not on the sphere of radius {r}")
    # Equivalent homogeneous forms; pick the one whose second slot is large.
    if x3 >= 0.0:
        return SpherePoint(complex(x1, x2), complex(r + x3))
    return SpherePoint(complex(r - x3), complex(x1, -x2))


def inverse_stereo(q: SpherePoint, r: float) -> tuple[float, float, float]:
    """Cartesian point of the sphere of radius r with stereographic image q."""
    return _inverse_stereo(q, _number(float, "r", r))


def _inverse_stereo(q: SpherePoint, r: float) -> tuple[float, float, float]:
    """:func:`inverse_stereo` at a float r, as :func:`celestial._inertial` passes it."""
    if not 0 < r < math.inf:
        raise NotOnSphere(f"radius must be positive and finite, got {r!r}")
    w = q.z1 * q.z2.conjugate()
    # |w| <= 1/2: r (2 w) is (2 r) w bit for bit, and finite where 2 r is not.  Only a pair
    # left unnormalized within 1e-14, with |z1| or |z2| above 1, overflows, at r near the max.
    x1, x2, x3 = r * (2.0 * w.real), r * (2.0 * w.imag), r * (abs(q.z2) ** 2 - abs(q.z1) ** 2)
    if not (math.isfinite(x1) and math.isfinite(x2) and math.isfinite(x3)):
        raise RangeError(f"the point on the sphere of radius {r!r} overflows")
    return x1, x2, x3


def antipode(q: SpherePoint) -> SpherePoint:
    """Antipodal map z -> -1/conj(z); an involution (up to phase)."""
    return SpherePoint(-q.z2.conjugate(), q.z1.conjugate())


def sphere_metric_factor(q: SpherePoint, r: float) -> float:
    """Round-metric conformal factor 4 r^2 / (1 + z conj(z))^2 at a finite point."""
    if q.is_infinity:
        raise InfinityPoint("metric factor in the affine chart needs a finite point")
    r = _number(float, "r", r)
    if not 0 < r < math.inf:
        raise RangeError(f"radius must be positive and finite, got {r!r}")
    factor = 4.0 * r * r * abs(q.z2) ** 4
    if not math.isfinite(factor):
        raise RangeError(f"the metric factor at radius {r!r} overflows")
    return factor


@dataclass(frozen=True, slots=True)
class MoebiusTransform:
    """Orientation-preserving conformal map z -> (a z + b)/(c z + d), ad - bc = 1.

    Acts on homogeneous pairs, so the point at infinity needs no special
    handling; s and -s define the same map.
    """

    s: SL2CElement

    @classmethod
    def identity(cls) -> "MoebiusTransform":
        return cls(SL2CElement.identity())

    @classmethod
    def translation(cls, b: complex) -> "MoebiusTransform":
        return cls(SL2CElement(1.0, b, 0.0, 1.0))

    @classmethod
    def rotation(cls, theta: float) -> "MoebiusTransform":
        """z -> e^{-i theta} z."""
        half = cmath.exp(-0.5j * _finite_number("theta", theta))
        return cls(SL2CElement(half, 0.0, 0.0, 1.0 / half))

    @classmethod
    def dilation(cls, chi: float) -> "MoebiusTransform":
        """z -> e^{-chi} z; contraction toward z = 0 for chi > 0."""
        chi = _number(float, "rapidity", chi)
        try:
            half = math.exp(-0.5 * chi)
            inv = 1.0 / half
        except (OverflowError, ZeroDivisionError):  # e^{chi/2} or e^{-chi/2} overflows
            half = inv = math.inf
        if not math.isfinite(half + inv):  # also the inf reciprocal of a subnormal e^{-chi/2}
            raise RangeError(f"rapidity {chi!r} is out of range for a dilation")
        return cls(SL2CElement(half, 0.0, 0.0, inv))

    @classmethod
    def special(cls, b: complex) -> "MoebiusTransform":
        """z -> -b^2/z, swapping the poles; b must be non-zero."""
        b = _number(complex, "b", b)
        if b == 0:
            raise RangeError("special conformal parameter must be non-zero")
        return cls(SL2CElement(0.0, -b, 1.0 / b, 0.0))

    def apply(self, q: SpherePoint) -> SpherePoint:
        s = self.s
        return SpherePoint(s.a * q.z1 + s.b * q.z2, s.c * q.z1 + s.d * q.z2)

    def apply_complex(self, z: complex) -> complex:
        """Affine-chart action; returns complex infinity at the map's pole."""
        image = self.apply(SpherePoint.from_complex(z))
        if image.is_infinity:
            return complex(math.inf, 0.0)
        return image.to_complex()

    def compose(self, other: "MoebiusTransform") -> "MoebiusTransform":
        return MoebiusTransform(self.s @ other.s)

    def inverse(self) -> "MoebiusTransform":
        return MoebiusTransform(self.s.inverse())

