"""Every element-type and argument check raises a LorentzSkyError (a RangeError, which is
also the ValueError these checks raised before, unless the function's other bad inputs
already raise another LorentzSkyError)."""

import math

import numpy as np
import pytest

from lorentzsky import (FourVector, HermitianSlot, LorentzMatrix, MoebiusTransform,
                        PolarAngles, RenderSpec, SL2CElement, SL2RElement, SpherePoint,
                        StandardDecomposition, SU2Element, aberrate, blackbody_rgb,
                        boost_x, disc_radius_px, doppler, integrate_proper_acceleration,
                        inverse_stereo, rotation_about_axis, rotation_embed, sl2c_to_lorentz,
                        sphere_metric_factor, stereo_project, su2_from_axis_angle,
                        validate_lorentz, velocity_from_rapidity)
from lorentzsky.celestial import BondiPoint, act_exact
from lorentzsky.errors import LorentzSkyError, NotHermitian, NotLorentz, NotOnSphere, RangeError

Q = SpherePoint.from_complex(0.0)

SITES = {
    "four_vector_inf": lambda: FourVector(math.inf, 0, 0, 0),
    "four_vector_nan": lambda: FourVector(0, math.nan, 0, 0),
    "bondi_negative_r": lambda: BondiPoint(0.0, -1.0, Q),
    "bondi_nan_u": lambda: BondiPoint(math.nan, 1.0, Q),
    "sl2c_det": lambda: SL2CElement(2.0, 0.0, 0.0, 1.0),
    "sl2c_nan": lambda: SL2CElement(math.nan, 0.0, 0.0, 1.0),
    "sl2c_from_matrix_shape": lambda: SL2CElement.from_matrix(np.eye(3)),
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
    "polar_theta": lambda: PolarAngles(4.0, 0.0),
    "polar_phi": lambda: PolarAngles(1.0, 7.0),
    "sphere_point_zero": lambda: SpherePoint(0.0, 0.0),
    "sphere_point_inf": lambda: SpherePoint(math.inf, 1.0),
    "sphere_metric_radius": lambda: sphere_metric_factor(Q, 0.0),
    "sphere_metric_radius_inf": lambda: sphere_metric_factor(Q, math.inf),
    "sphere_metric_radius_nan": lambda: sphere_metric_factor(Q, math.nan),
    "inverse_stereo_radius_nan": lambda: inverse_stereo(Q, math.nan),
    "inverse_stereo_radius_inf": lambda: inverse_stereo(Q, math.inf),
    "stereo_project_radius_inf": lambda: stereo_project(0.0, 0.0, 1.0, math.inf),
    "stereo_project_radius_nan": lambda: stereo_project(0.0, 0.0, 1.0, math.nan),
    "moebius_special_zero": lambda: MoebiusTransform.special(0.0),
    "moebius_dilation_underflow": lambda: MoebiusTransform.dilation(2000.0),
    "moebius_dilation_overflow": lambda: MoebiusTransform.dilation(-2000.0),
    "moebius_dilation_inf": lambda: MoebiusTransform.dilation(math.inf),
    "hermitian_shape": lambda: HermitianSlot(np.eye(3)),
    "hermitian_nan": lambda: HermitianSlot([[math.nan, 0.0], [0.0, 1.0]]),
    "lorentz_tolerance": lambda: LorentzMatrix(np.eye(4), 0.0),
    "lorentz_shape": lambda: LorentzMatrix(np.eye(3)),
    "lorentz_tolerance_nan": lambda: validate_lorentz(np.eye(4), tol=math.nan),
    # the squared entry scale that sets these tolerances overflows to inf
    "lorentz_tolerance_inf_cover": lambda: sl2c_to_lorentz(SL2CElement(1e78, 0, 0, 1e-78)),
    "lorentz_tolerance_inf_product": lambda: boost_x(300.0) @ boost_x(300.0),
    # products that overflow a double: the package error, with no numpy warning first
    "lorentz_non_finite_cover": lambda: sl2c_to_lorentz(SL2CElement(1e160, 0, 0, 1e-160)),
    "lorentz_residual_overflow": lambda: validate_lorentz(np.diag([1e200, 1.0, 1.0, 1.0])),
    "lorentz_product_overflow": lambda: boost_x(355.4) @ boost_x(355.4),
    "act_exact_overflow": lambda: act_exact(sl2c_to_lorentz(MoebiusTransform.dilation(20.0).s),
                                            BondiPoint(0.0, 1e300, Q)),
    "rotation_angle_inf": lambda: rotation_about_axis((0.0, 0.0, 1.0), math.inf),
    "su2_angle_inf": lambda: su2_from_axis_angle((0.0, 0.0, 1.0), math.inf),
    "su2_angle_nan": lambda: su2_from_axis_angle((0.0, 0.0, 1.0), math.nan),
    "proper_acceleration_shape": lambda: integrate_proper_acceleration([0.0], [1.0]),
    "proper_acceleration_nan": lambda: integrate_proper_acceleration([0.0, 1.0],
                                                                     [1.0, math.nan]),
    "proper_acceleration_order": lambda: integrate_proper_acceleration([1.0, 0.0],
                                                                       [1.0, 1.0]),
    "proper_acceleration_overflow": lambda: integrate_proper_acceleration([0.0, 1e308],
                                                                          [1e308, 1e308]),
    "velocity_rapidity_nan": lambda: velocity_from_rapidity(math.nan),
    "velocity_rapidity_inf": lambda: velocity_from_rapidity(math.inf),
    "render_spec_float_width": lambda: RenderSpec(width=800.5, format="ppm"),
    "render_spec_float_height": lambda: RenderSpec(height=100.0, format="ppm"),
    "render_spec_text_width": lambda: RenderSpec(width="100"),
    "blackbody_nan": lambda: blackbody_rgb(math.nan),
    "disc_radius_nan": lambda: disc_radius_px(math.nan),
}


# the sites whose check raises the error its other inputs already raise, not a RangeError
NOT_RANGE_ERRORS = {
    "hermitian_nan": NotHermitian,
    "lorentz_non_finite_cover": NotLorentz,
    "lorentz_residual_overflow": NotLorentz,
    "lorentz_product_overflow": NotLorentz,
    "inverse_stereo_radius_nan": NotOnSphere,
    "inverse_stereo_radius_inf": NotOnSphere,
    "stereo_project_radius_inf": NotOnSphere,
    "stereo_project_radius_nan": NotOnSphere,
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_element_checks_raise_lorentzsky_errors(site):
    with pytest.raises(LorentzSkyError) as exc_info:
        SITES[site]()
    if site in NOT_RANGE_ERRORS:
        assert type(exc_info.value) is NOT_RANGE_ERRORS[site]
        return
    assert isinstance(exc_info.value, RangeError)
    assert isinstance(exc_info.value, ValueError)
