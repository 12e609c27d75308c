"""Bondi coordinates and the Lorentz action on the sphere of directions.

Bondi coordinates (u, r, q) label an event by its advanced time u = x0 + r,
its distance r from the spatial origin, and the stereographic image q of
its direction.  At fixed u and r -> infinity the exact Lorentz action on
(u, r, q) converges, with O(1/r) corrections, to a Mobius map of q plus
angle-dependent rescalings of r and u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotNull, NotOrthochronous, OriginDirectionUndefined, RangeError
from .minkowski import (FourVector, LorentzMatrix, Rapidity, _finite_number, _matmul, _number,
                        _require_finite)
from .sphere import (MoebiusTransform, SpherePoint, _affine_pair, _inverse_stereo,
                     _stereo_project)
from .spin import SL2CElement

_NULL_TOL = 1e-9
_ORIGIN_EPS = 1e-300


@dataclass(frozen=True, slots=True)
class BondiPoint:
    """Advanced time u, radius r >= 0, and direction q on the sphere."""

    u: float
    r: float
    q: SpherePoint

    def __post_init__(self):
        object.__setattr__(self, "u", _finite_number("u", self.u))
        object.__setattr__(self, "r", _finite_number("r", self.r))
        if self.r < 0:
            raise RangeError("r must be non-negative")


def _bondi(x0: float, x1: float, x2: float, x3: float) -> BondiPoint:
    r = math.hypot(x1, x2, x3)   # no square to overflow or underflow
    if r <= _ORIGIN_EPS:
        raise OriginDirectionUndefined("the spatial origin has no direction")
    return BondiPoint(x0 + r, r, _stereo_project(x1, x2, x3, r))


def _inertial(b: BondiPoint) -> tuple[float, float, float, float]:
    x1, x2, x3 = _inverse_stereo(b.q, b.r) if b.r > 0 else (0.0, 0.0, 0.0)
    return b.u - b.r, x1, x2, x3


def bondi_from_inertial(x: FourVector) -> BondiPoint:
    """(u, r, q) of an event; undefined at the spatial origin."""
    return _bondi(x.x0, x.x1, x.x2, x.x3)


def inertial_from_bondi(b: BondiPoint) -> FourVector:
    """Inverse of :func:`bondi_from_inertial`."""
    return FourVector(*_inertial(b))


def act_exact(lam: LorentzMatrix, b: BondiPoint) -> BondiPoint:
    """Exact finite-radius action: bondi_from_inertial(lam.apply(inertial_from_bondi(b))),
    bit for bit and with the same errors, without the intermediate four-vectors."""
    x = _inertial(b)
    _require_finite(x)
    # lam's entries square to its finite residual, so they are below sqrt(DBL_MAX).
    y = _matmul(lam.entries, np.array(x), sum(map(abs, x))).tolist()
    _require_finite(y)
    return _bondi(*y)


@dataclass(frozen=True, slots=True)
class AsymptoticAction:
    """Leading r -> infinity behavior of the action of a spin element.

    The direction moves by the Mobius map of the same (a, b, c, d); the
    radius is rescaled by ``radial_factor`` and advanced time by
    ``time_factor``, its reciprocal.
    """

    moebius: MoebiusTransform

    def radial_factor(self, z: complex) -> float:
        """F(z) = (|a z + b|^2 + |c z + d|^2) / (1 + z conj(z)); r' ~ r F.

        Read as (|a p + b q|^2 + |c p + d q|^2) / (|p|^2 + |q|^2) on the pair (p, q) that
        :meth:`SpherePoint.from_complex` takes: F(inf) = |a|^2 + |c|^2.  RangeError if not finite.
        """
        p, q = _affine_pair(z)
        s = self.moebius.s
        try:
            f = ((abs(s.a * p + s.b * q) ** 2 + abs(s.c * p + s.d * q) ** 2)
                 / ((p * p.conjugate()).real + (q * q.conjugate()).real))
        except OverflowError:   # a square past DBL_MAX
            f = math.inf
        if not math.isfinite(f):
            raise RangeError(f"radial factor at z = {z!r} is not finite")
        return f

    def time_factor(self, z: complex) -> float:
        """Advanced-time rescaling u' ~ u / F(z).

        The reciprocal of the radial factor: writing the event as
        u q + r w with q the image of the time axis and w the image of the
        ingoing null direction, metric orthogonality q . w = 1 forces the
        finite part of u' = x0' + r' to be u / F exactly.
        """
        return 1.0 / self.radial_factor(z)


def act_asymptotic(s: SL2CElement) -> AsymptoticAction:
    """Asymptotic action of the spin element s on (u, r, z)."""
    return AsymptoticAction(MoebiusTransform(s))


def _exp_rapidity(chi: Rapidity) -> tuple[float, float]:
    """(e^chi, e^-chi); RangeError when chi is not a finite number or either overflows."""
    chi = _finite_number("rapidity", chi)
    try:
        return math.exp(chi), math.exp(-chi)
    except OverflowError:
        raise RangeError(f"rapidity {chi!r} is out of range: e^|chi| overflows "
                         "a double") from None


def aberrate(chi: Rapidity, theta: float) -> float:
    """Apparent colatitude after a boost of rapidity chi toward theta = 0.

    Half-angle law tan(theta'/2) = e^{-chi} tan(theta/2); both poles are
    fixed points.  theta is the angle between the boost direction and the
    line of sight to the source.
    """
    theta = _number(float, "theta", theta)
    if not 0.0 <= theta <= math.pi:
        raise RangeError(f"theta = {theta} outside [0, pi]")
    exp_neg = _exp_rapidity(chi)[1]
    if theta == math.pi:
        return math.pi
    half = 0.5 * theta
    return 2.0 * math.atan2(exp_neg * math.sin(half), math.cos(half))


def doppler(chi: Rapidity, theta: float) -> float:
    """Frequency ratio E'/E = cosh chi + sinh chi cos theta; always positive.

    theta is measured from the boost direction to the line of sight, so a
    source dead ahead (theta = 0) is blueshifted by e^chi.  Evaluated in
    the half-angle form e^chi cos^2(theta/2) + e^-chi sin^2(theta/2),
    which has no cancellation and is manifestly positive.
    """
    theta = _number(float, "theta", theta)
    if not 0.0 <= theta <= math.pi:
        raise RangeError(f"theta = {theta} outside [0, pi]")
    exp_pos, exp_neg = _exp_rapidity(chi)
    if chi == 0.0:
        return 1.0
    half = 0.5 * theta
    return exp_pos * math.cos(half) ** 2 + exp_neg * math.sin(half) ** 2


@dataclass(frozen=True, slots=True)
class Photon4Momentum:
    """Light-like four-momentum with positive energy E = p0."""

    p: FourVector

    def __post_init__(self):
        e = self.p.x0
        if e <= 0:
            raise NotNull(f"photon energy must be positive, got {e}")
        # p^2 / E^2 from p / E, which stays in range for a null p of any size
        n1, n2, n3 = self.p.x1 / e, self.p.x2 / e, self.p.x3 / e
        ratio = -1.0 + n1 * n1 + n2 * n2 + n3 * n3   # inf far from null, never nan
        if not abs(ratio) <= _NULL_TOL:
            raise NotNull(f"four-momentum is not null: p^2 / E^2 = {ratio:.3e}")

    @property
    def energy(self) -> float:
        return self.p.x0


def boost_photon(lam: LorentzMatrix, photon: Photon4Momentum) -> Photon4Momentum:
    """p -> lam . p; orthochronous matrices keep the energy positive."""
    if lam.entries[0, 0] < 0:
        raise NotOrthochronous("photon transport needs an orthochronous matrix")
    return Photon4Momentum(lam.apply(photon.p))
