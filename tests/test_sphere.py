import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lorentzsky import (MoebiusTransform, PolarAngles, SpherePoint, antipode,
                        from_polar, inverse_stereo, sphere_metric_factor,
                        stereo_project, to_polar)
from lorentzsky.errors import InfinityPoint, NotOnSphere, RangeError
from lorentzsky.sampling import random_sl2c

finite_coords = st.floats(min_value=-5, max_value=5)


def test_polar_examples():
    assert from_polar(PolarAngles(0.0, 2.2)).to_complex() == 0.0
    assert from_polar(PolarAngles(math.pi / 2, 0.0)).to_complex() == pytest.approx(1.0)
    assert from_polar(PolarAngles(math.pi, 0.3)).is_infinity


def test_polar_angle_validation():
    with pytest.raises(ValueError):
        PolarAngles(-0.1, 0.0)
    with pytest.raises(ValueError):
        PolarAngles(math.pi + 0.1, 0.0)
    with pytest.raises(ValueError):
        PolarAngles(1.0, -0.5)


@given(st.floats(min_value=1e-6, max_value=math.pi - 1e-6),
       st.floats(min_value=0.0, max_value=2.0 * math.pi - 1e-9))
def test_polar_round_trip(theta, phi):
    p = to_polar(from_polar(PolarAngles(theta, phi)))
    assert p.theta == pytest.approx(theta, abs=1e-9)
    assert math.cos(p.phi - phi) == pytest.approx(1.0, abs=1e-9)


def test_to_polar_at_poles_reports_zero_phi():
    assert to_polar(SpherePoint.from_complex(0.0)).phi == 0.0
    assert to_polar(SpherePoint.infinity()).theta == pytest.approx(math.pi)


def test_stereo_projection_examples():
    assert stereo_project(0.0, 0.0, 2.0, 2.0).to_complex() == 0.0
    assert stereo_project(1.0, 0.0, 0.0, 1.0).to_complex() == pytest.approx(1.0)
    x = inverse_stereo(SpherePoint.from_complex(1.0), 1.0)
    assert np.abs(np.array(x) - np.array([1.0, 0.0, 0.0])).max() < 1e-12
    assert stereo_project(0.0, 0.0, -1.0, 1.0).is_infinity


def test_inverse_stereo_is_finite_to_the_largest_radius():
    # (2 r) w overflows past half the largest double; r (2 w) does not
    half = 0.7071067811865475  # both coordinates of SpherePoint(1, 1)
    assert inverse_stereo(SpherePoint(1.0, 1.0), 1e308) == (1e308 * (2.0 * half * half), 0.0, 0.0)


def test_stereo_rejects_off_sphere_points():
    with pytest.raises(NotOnSphere):
        stereo_project(1.0, 0.0, 0.0, 2.0)
    with pytest.raises(NotOnSphere):
        stereo_project(0.0, 0.0, 1.0, -1.0)


@given(st.floats(min_value=1e-3, max_value=math.pi - 1e-3),
       st.floats(min_value=0.0, max_value=2 * math.pi - 1e-9),
       st.floats(min_value=0.1, max_value=100.0))
def test_stereo_round_trip(theta, phi, r):
    x1 = r * math.sin(theta) * math.cos(phi)
    x2 = r * math.sin(theta) * math.sin(phi)
    x3 = r * math.cos(theta)
    q = stereo_project(x1, x2, x3, r)
    back = inverse_stereo(q, r)
    assert np.abs(np.array(back) - np.array([x1, x2, x3])).max() <= 1e-9 * r


def test_homogeneous_normalization_and_equality():
    q = SpherePoint(3.0 + 0j, 4.0 + 0j)
    assert abs(q.z1) ** 2 + abs(q.z2) ** 2 == pytest.approx(1.0)
    # equality holds up to a common phase
    w = cmath.exp(0.7j)
    assert q.approx_equal(SpherePoint(3.0 * w, 4.0 * w))
    with pytest.raises(ValueError):
        SpherePoint(0.0, 0.0)


def test_from_complex_handles_large_values():
    q = SpherePoint.from_complex(complex(1e10, 0.0))
    assert not q.is_infinity
    assert to_polar(q).theta == pytest.approx(math.pi, abs=1e-9)
    # beyond the infinity threshold the point collapses onto the pole
    huge = SpherePoint.from_complex(complex(1e300, 0.0))
    assert huge.is_infinity
    assert huge.approx_equal(SpherePoint.infinity())
    # abs() of this finite value overflows; the point is still infinity
    near_max = SpherePoint.from_complex(complex(1.2711610061536462e308, 1.2711610061536464e308))
    assert near_max.is_infinity
    assert SpherePoint.from_complex(complex(math.inf, 0.0)) == SpherePoint.infinity()
    with pytest.raises(InfinityPoint):
        huge.to_complex()


def test_moebius_examples():
    ident = MoebiusTransform.identity()
    q = SpherePoint.from_complex(0.3 - 0.8j)
    assert ident.apply(q) == q

    chi = 1.3
    dil = MoebiusTransform.dilation(chi)
    assert dil.apply_complex(1.0) == pytest.approx(math.exp(-chi))

    # the pole swap sends the origin to infinity
    from lorentzsky import SL2CElement
    swap = MoebiusTransform(SL2CElement(0.0, 1.0, -1.0, 0.0))
    assert swap.apply(SpherePoint.from_complex(0.0)).is_infinity


def test_moebius_special_swaps_poles():
    b = 0.5 + 0.2j
    t = MoebiusTransform.special(b)
    assert t.apply(SpherePoint.from_complex(0.0)).is_infinity
    assert t.apply(SpherePoint.infinity()).to_complex() == pytest.approx(0.0)
    z = 1.0 + 1.0j
    assert t.apply_complex(z) == pytest.approx(-b * b / z)
    assert t.apply_complex(0.0) == complex(math.inf, 0.0)  # the map's pole


def test_moebius_compose_and_invert(rng):
    for _ in range(100):
        t1 = MoebiusTransform(random_sl2c(rng))
        t2 = MoebiusTransform(random_sl2c(rng))
        q = SpherePoint.from_complex(complex(*rng.normal(size=2)))
        lhs = t1.compose(t2).apply(q)
        rhs = t1.apply(t2.apply(q))
        assert lhs.distance_to(rhs) <= 1e-10
        ident = t1.compose(t1.inverse())
        assert ident.apply(q).distance_to(q) <= 1e-10


def test_dilation_additivity_and_rotation_translation_example():
    d = MoebiusTransform.dilation(0.4).compose(MoebiusTransform.dilation(0.9))
    assert np.abs(d.s.matrix - MoebiusTransform.dilation(1.3).s.matrix).max() < 1e-12

    theta, b = 0.6, 0.25 - 0.5j
    t = MoebiusTransform.rotation(theta).compose(MoebiusTransform.translation(b))
    assert t.apply_complex(0.0) == pytest.approx(b * cmath.exp(-1j * theta))


@pytest.mark.parametrize("chi", [1419.57, 1430.0, 1490.0, 2000.0, -1419.57, -2000.0,
                                 math.inf, -math.inf, math.nan])
def test_dilation_out_of_range_names_the_rapidity(chi):
    # past chi ~ 1419.565 e^(-chi/2) is a subnormal below 1 / DBL_MAX, whose
    # reciprocal is inf with no exception; from ~ 1490 it is 0; below
    # ~ -1419.565 e^(-chi/2) overflows
    message = f"rapidity {chi!r} is out of range for a dilation"
    with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
        MoebiusTransform.dilation(chi)


def test_dilation_constructs_up_to_the_reciprocal_limit():
    s = MoebiusTransform.dilation(1419.56).s
    assert s.a.real * s.d.real == pytest.approx(1.0, abs=1e-9)


def test_sign_quotient_is_exact(rng):
    for _ in range(50):
        s = random_sl2c(rng)
        t_plus = MoebiusTransform(s)
        t_minus = MoebiusTransform(-s)
        q = SpherePoint.from_complex(complex(*rng.normal(size=2)))
        assert t_plus.apply(q).distance_to(t_minus.apply(q)) == 0.0


def test_antipode_examples():
    assert antipode(SpherePoint.from_complex(0.0)).is_infinity
    assert antipode(SpherePoint.from_complex(1.0)).to_complex() == pytest.approx(-1.0)
    q = SpherePoint.from_complex(0.3 + 2.2j)
    assert antipode(antipode(q)).distance_to(q) <= 1e-15
    # corresponds to the spatial parity map x -> -x
    x = inverse_stereo(q, 1.0)
    xa = inverse_stereo(antipode(q), 1.0)
    assert np.abs(np.array(x) + np.array(xa)).max() < 1e-12


def test_sphere_metric_factor_values():
    assert sphere_metric_factor(SpherePoint.from_complex(0.0), 1.0) == pytest.approx(4.0)
    assert sphere_metric_factor(SpherePoint.from_complex(1.0), 1.0) == pytest.approx(1.0)
    assert sphere_metric_factor(SpherePoint.from_complex(0.0), 2.0) == pytest.approx(16.0)
    with pytest.raises(InfinityPoint):
        sphere_metric_factor(SpherePoint.infinity(), 1.0)


def _fd_jacobian(t: MoebiusTransform, z: complex, h: float = 1e-5) -> np.ndarray:
    def f(zz: complex) -> complex:
        return t.apply_complex(zz)
    dx = (f(z + h) - f(z - h)) / (2 * h)
    dy = (f(z + 1j * h) - f(z - 1j * h)) / (2 * h)
    return np.array([[dx.real, dy.real], [dx.imag, dy.imag]])


def _well_conditioned_point(rng, t: MoebiusTransform) -> complex:
    s = t.s
    while True:
        z = complex(*rng.normal(size=2))
        if 0.3 <= abs(s.c * z + s.d) <= 3.0:
            return z


def test_conformality_cauchy_riemann(rng):
    # the planar differential of a conformal map is a scaled rotation
    for _ in range(100):
        t = MoebiusTransform(random_sl2c(rng))
        z = _well_conditioned_point(rng, t)
        j = _fd_jacobian(t, z)
        scale = float(np.linalg.norm(j))
        assert scale > 0
        assert abs(j[0, 0] - j[1, 1]) / scale <= 1e-5
        assert abs(j[0, 1] + j[1, 0]) / scale <= 1e-5


def test_metric_pullback_is_direction_independent(rng):
    # metric_factor(T z) |dZ/dz|^2 / metric_factor(z) is one positive number
    # per point, whichever direction the derivative is probed along.
    for _ in range(50):
        t = MoebiusTransform(random_sl2c(rng))
        z = _well_conditioned_point(rng, t)
        image = t.apply(SpherePoint.from_complex(z))
        if image.is_infinity:
            continue
        j = _fd_jacobian(t, z)
        base = sphere_metric_factor(SpherePoint.from_complex(z), 1.0)
        top = sphere_metric_factor(image, 1.0)
        along_x = top * (j[0, 0] ** 2 + j[1, 0] ** 2) / base
        along_y = top * (j[0, 1] ** 2 + j[1, 1] ** 2) / base
        assert along_x > 0
        assert along_x == pytest.approx(along_y, rel=1e-6)
