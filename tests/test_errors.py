"""Every element-type check raises a LorentzSkyError (a RangeError, which is
also the ValueError these checks raised before)."""

import math

import numpy as np
import pytest

from lorentzsky import (FourVector, SL2CElement, SL2RElement, SpherePoint,
                        StandardDecomposition, SU2Element, aberrate, doppler,
                        rotation_embed)
from lorentzsky.celestial import BondiPoint
from lorentzsky.errors import LorentzSkyError, RangeError

Q = SpherePoint.from_complex(0.0)

SITES = {
    "four_vector_inf": lambda: FourVector(math.inf, 0, 0, 0),
    "four_vector_nan": lambda: FourVector(0, math.nan, 0, 0),
    "bondi_negative_r": lambda: BondiPoint(0.0, -1.0, Q),
    "bondi_nan_u": lambda: BondiPoint(math.nan, 1.0, Q),
    "sl2c_det": lambda: SL2CElement(2.0, 0.0, 0.0, 1.0),
    "sl2c_nan": lambda: SL2CElement(math.nan, 0.0, 0.0, 1.0),
    "su2_norm": lambda: SU2Element(1.0, 1.0),
    "su2_nan": lambda: SU2Element(math.nan, 0.0),
    "sl2r_det": lambda: SL2RElement(2.0, 0.0, 0.0, 1.0),
    "sl2r_nan": lambda: SL2RElement(1.0, math.nan, 0.0, 1.0),
    "decomposition_reflection": lambda: StandardDecomposition(np.diag([1.0, 1.0, -1.0]),
                                                              0.3, np.eye(3)),
    "decomposition_nan_rotation": lambda: StandardDecomposition(np.full((3, 3), math.nan),
                                                                0.3, np.eye(3)),
    "decomposition_negative_chi": lambda: StandardDecomposition(np.eye(3), -0.1, np.eye(3)),
    "rotation_embed_reflection": lambda: rotation_embed(np.diag([1.0, 1.0, -1.0])),
    "rotation_embed_scaled": lambda: rotation_embed(2 * np.eye(3)),
    "aberrate_theta": lambda: aberrate(1.0, -0.1),
    "aberrate_nan_theta": lambda: aberrate(1.0, math.nan),
    "doppler_theta": lambda: doppler(1.0, 4.0),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_element_checks_raise_lorentzsky_errors(site):
    with pytest.raises(LorentzSkyError) as exc_info:
        SITES[site]()
    assert isinstance(exc_info.value, RangeError)
    assert isinstance(exc_info.value, ValueError)
