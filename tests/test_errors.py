"""Every element-type and argument check raises a LorentzSkyError (a RangeError, which is
also the ValueError these checks raised before, unless the function's other bad inputs
already raise another LorentzSkyError)."""

import math
import sys

import numpy as np
import pytest

from lorentzsky import (FourVector, HermitianSlot, LorentzMatrix, MoebiusTransform,
                        PolarAngles, RenderSpec, SL2CElement, SL2RElement, SpherePoint,
                        StandardDecomposition, SU2Element, aberrate, blackbody_rgb,
                        boost_axis, boost_x, disc_radius_px, doppler,
                        four_vector_from_hermitian, hermitian_from_four_vector,
                        integrate_proper_acceleration, interval_squared, inverse_stereo,
                        lift_lorentz_to_sl2c, recompose, rotation_about_axis,
                        rotation_embed, sl2c_to_lorentz, sl2r_to_so21, sphere_metric_factor,
                        standard_decompose, stereo_project, su2_from_axis_angle,
                        validate_lorentz, velocity_from_rapidity)
from lorentzsky.celestial import BondiPoint, act_asymptotic, act_exact
from lorentzsky.errors import LorentzSkyError, NotHermitian, NotLorentz, NotOnSphere, RangeError

Q = SpherePoint.from_complex(0.0)


def rounded_away_r2():
    """A rotation . boost . rotation product, labelled proper, whose r2 is all rounding."""
    r1 = rotation_about_axis(np.array([1.0, 2.0, 3.0]) / np.linalg.norm([1.0, 2.0, 3.0]), 2.0)
    r2 = rotation_about_axis(np.array([3.0, -1.0, 2.0]) / np.linalg.norm([3.0, -1.0, 2.0]), 4.0)
    return recompose(StandardDecomposition(r1, 124.0, r2))


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
    "su2_norm_overflow": lambda: SU2Element(1e200, 0.0),
    "sl2r_det": lambda: SL2RElement(2.0, 0.0, 0.0, 1.0),
    "sl2r_nan": lambda: SL2RElement(1.0, math.nan, 0.0, 1.0),
    "decomposition_reflection": lambda: StandardDecomposition(np.diag([1.0, 1.0, -1.0]),
                                                              0.3, np.eye(3)),
    "decomposition_nan_rotation": lambda: StandardDecomposition(np.full((3, 3), math.nan),
                                                                0.3, np.eye(3)),
    "decomposition_negative_chi": lambda: StandardDecomposition(np.eye(3), -0.1, np.eye(3)),
    "decomposition_nan_chi": lambda: StandardDecomposition(np.eye(3), math.nan, np.eye(3)),
    "decomposition_inf_chi": lambda: StandardDecomposition(np.eye(3), math.inf, np.eye(3)),
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
    # off the sphere, though x1^2 + x2^2 + x3^2 - r^2 overflows (nan) or underflows (0)
    "stereo_project_off_sphere_huge": lambda: stereo_project(1e200, 0.0, 0.0, 2e200),
    "stereo_project_off_sphere_tiny": lambda: stereo_project(1e-200, 0.0, 0.0, 3e-200),
    "moebius_special_zero": lambda: MoebiusTransform.special(0.0),
    "moebius_dilation_underflow": lambda: MoebiusTransform.dilation(2000.0),
    "moebius_dilation_overflow": lambda: MoebiusTransform.dilation(-2000.0),
    "moebius_dilation_inf": lambda: MoebiusTransform.dilation(math.inf),
    "hermitian_shape": lambda: HermitianSlot(np.eye(3)),
    "hermitian_nan": lambda: HermitianSlot([[math.nan, 0.0], [0.0, 1.0]]),
    "hermitian_inf": lambda: HermitianSlot([[math.inf, 0.0], [0.0, 1.0]]),
    "hermitian_from_four_vector_overflow": lambda: hermitian_from_four_vector(
        FourVector(1e308, 0.0, 0.0, 1e308)),
    "four_vector_from_hermitian_overflow": lambda: four_vector_from_hermitian(
        np.array([[1e308, 0.0], [0.0, -1e308]])),
    # |z1|^2 = 1 + 1e-14 is left unnormalized, and r |z1|^2 overflows
    "inverse_stereo_overflow": lambda: inverse_stereo(SpherePoint(1.0 + 5e-15, 0.0),
                                                      sys.float_info.max),
    "sphere_metric_overflow": lambda: sphere_metric_factor(SpherePoint(0.0, 1.0), 1e155),
    "standard_decompose_rounded_away": lambda: standard_decompose(rounded_away_r2()),
    "lift_rounded_away": lambda: lift_lorentz_to_sl2c(rounded_away_r2()),
    "lorentz_tolerance": lambda: LorentzMatrix(np.eye(4), 0.0),
    "lorentz_shape": lambda: LorentzMatrix(np.eye(3)),
    "lorentz_tolerance_nan": lambda: validate_lorentz(np.eye(4), tol=math.nan),
    # the squared entry scale that sets these tolerances overflows to inf
    "lorentz_tolerance_inf_cover": lambda: sl2c_to_lorentz(SL2CElement(1e78, 0, 0, 1e-78)),
    "lorentz_tolerance_inf_product": lambda: boost_x(300.0) @ boost_x(300.0),
    # products that overflow a double: the package error, with no numpy warning first
    "lorentz_non_finite_cover": lambda: sl2c_to_lorentz(SL2CElement(1e160, 0, 0, 1e-160)),
    "sl2r_cover_overflow": lambda: sl2r_to_so21(SL2RElement(1e160, 0, 0, 1e-160)),
    "lorentz_residual_overflow": lambda: validate_lorentz(np.diag([1e200, 1.0, 1.0, 1.0])),
    "lorentz_product_overflow": lambda: boost_x(355.4) @ boost_x(355.4),
    "act_exact_overflow": lambda: act_exact(sl2c_to_lorentz(MoebiusTransform.dilation(20.0).s),
                                            BondiPoint(0.0, 1e300, Q)),
    "lorentz_apply_overflow": lambda: boost_x(20.0).apply(FourVector(1e300, -1e300, 0, 0)),
    "rotation_embed_overflow": lambda: rotation_embed(1e200 * np.eye(3)),
    "decomposition_rotation_overflow": lambda: StandardDecomposition(1e200 * np.eye(3),
                                                                     0.3, np.eye(3)),
    "radial_factor_nan": lambda: act_asymptotic(SL2CElement(2.0, 1.0, 1.0, 1.0))
                                 .radial_factor(complex(math.nan, 0.0)),
    "radial_factor_overflow": lambda: act_asymptotic(SL2CElement(1e160, 0.0, 0.0, 1e-160))
                                      .radial_factor(1.0),
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
    "boost_x_nan": lambda: boost_x(math.nan),
    "boost_axis_inf": lambda: boost_axis((0.0, 0.0, 1.0), math.inf),
    "interval_overflow": lambda: interval_squared(FourVector(1e200, 0.0, 0.0, 0.0)),
    "interval_inf_minus_inf": lambda: interval_squared(FourVector(1e200, 1e200, 0.0, 0.0)),
    "hermitian_det_overflow": lambda: HermitianSlot([[1e200, 0.0], [0.0, 1e200]]).det,
    "velocity_rapidity_nan": lambda: velocity_from_rapidity(math.nan),
    "velocity_rapidity_inf": lambda: velocity_from_rapidity(math.inf),
    "render_spec_float_width": lambda: RenderSpec(width=800.5, format="ppm"),
    "render_spec_float_height": lambda: RenderSpec(height=100.0, format="ppm"),
    "render_spec_text_width": lambda: RenderSpec(width="100"),
    # each of the two panels needs 16 pixels, as one panel does
    "render_spec_both_narrow": lambda: RenderSpec(width=16, height=16, hemisphere="both"),
    "blackbody_nan": lambda: blackbody_rgb(math.nan),
    "disc_radius_nan": lambda: disc_radius_px(math.nan),
    # non-numbers, which float(), complex() or numpy refused with a TypeError or ValueError
    "four_vector_text": lambda: FourVector("x", 0, 0, 0),
    "four_vector_none": lambda: FourVector(0, 0, 0, None),
    "polar_text": lambda: PolarAngles("a", 0),
    "bondi_text": lambda: BondiPoint("a", 1.0, Q),
    "sphere_point_text": lambda: SpherePoint(1, "a"),
    "sl2c_text": lambda: SL2CElement("a", 0, 0, 1),
    "su2_none": lambda: SU2Element(1.0, None),
    "lorentz_text": lambda: validate_lorentz([["a"] * 4] * 4),
}

# the field each non-number site names
NAMED_FIELDS = {"four_vector_text": "x0", "four_vector_none": "x3", "polar_text": "theta",
                "bondi_text": "u", "sphere_point_text": "z2", "sl2c_text": "a",
                "su2_none": "beta", "lorentz_text": "entries"}


# the sites whose check raises the error its other inputs already raise, not a RangeError
NOT_RANGE_ERRORS = {
    "hermitian_nan": NotHermitian,
    "hermitian_inf": NotHermitian,
    "hermitian_from_four_vector_overflow": NotHermitian,
    "lorentz_non_finite_cover": NotLorentz,
    "sl2r_cover_overflow": NotLorentz,
    "lorentz_residual_overflow": NotLorentz,
    "lorentz_product_overflow": NotLorentz,
    "inverse_stereo_radius_nan": NotOnSphere,
    "inverse_stereo_radius_inf": NotOnSphere,
    "stereo_project_radius_inf": NotOnSphere,
    "stereo_project_radius_nan": NotOnSphere,
    "stereo_project_off_sphere_huge": NotOnSphere,
    "stereo_project_off_sphere_tiny": NotOnSphere,
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


@pytest.mark.parametrize("site", sorted(NAMED_FIELDS))
def test_non_numbers_name_their_field(site):
    with pytest.raises(RangeError, match=rf"\b{NAMED_FIELDS[site]}\b"):
        SITES[site]()
