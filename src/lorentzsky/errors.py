"""Exception taxonomy shared across the package."""


class LorentzSkyError(Exception):
    """Base class for all validation failures raised by this package."""


class NotLorentz(LorentzSkyError):
    """A matrix does not preserve the Minkowski metric within tolerance."""

    def __init__(self, residual: float, message: str | None = None):
        self.residual = residual
        super().__init__(message or f"metric-preservation residual {residual:.3e} exceeds tolerance")


class SpeedLimit(LorentzSkyError):
    """A velocity reached or exceeded the speed of light."""


class BadAxis(LorentzSkyError):
    """A direction vector is not a unit 3-vector."""


class WrongComponent(LorentzSkyError):
    """Operation requires a proper orthochronous matrix."""


class NotHermitian(LorentzSkyError):
    """A 2x2 matrix fails the Hermiticity check."""


class NotOnSphere(LorentzSkyError):
    """Cartesian coordinates do not lie on the sphere of the given radius."""


class InfinityPoint(LorentzSkyError):
    """The point at infinity was passed where a finite point is required."""


class OriginDirectionUndefined(LorentzSkyError):
    """The spatial origin has no direction on the sphere."""


class NotNull(LorentzSkyError):
    """A four-momentum is not light-like within tolerance."""


class NotOrthochronous(LorentzSkyError):
    """Operation requires a time-orientation-preserving matrix."""


class ParseError(LorentzSkyError):
    """Malformed catalog input."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class RangeError(LorentzSkyError, ValueError):
    """An input (catalog field, rapidity, image size, element entry) is out of range."""


class PrecisionLimit(LorentzSkyError):
    """Double-precision rounding would exceed the tolerance a result promises."""

