"""From Lorentz matrices to the celestial sphere.

Four-vector and Lorentz-matrix algebra, the rotation-boost-rotation
factorization, the spinor double covers, Mobius maps of the Riemann
sphere, the asymptotic action on directions at large radius, and a
relativistic star-field renderer with a CLI.
"""

from .celestial import (AsymptoticAction, BondiPoint, Photon4Momentum,
                        aberrate, act_asymptotic, act_exact,
                        bondi_from_inertial, boost_photon, doppler,
                        inertial_from_bondi)
from .decompose import StandardDecomposition, rapidity_of, recompose, standard_decompose
from .errors import (BadAxis, InfinityPoint, LorentzSkyError, NotHermitian,
                     NotLorentz, NotNull, NotOnSphere, NotOrthochronous,
                     OriginDirectionUndefined, ParseError, RangeError,
                     SpeedLimit, WrongComponent)
from .minkowski import (ComponentLabel, FourVector, LorentzMatrix, METRIC,
                        PoincareTransform, Rapidity, add_velocities,
                        boost_axis, boost_x, classify_component, gamma,
                        integrate_proper_acceleration, interval_squared,
                        parity, poincare_compose, rapidity_from_velocity,
                        rotation_about_axis, rotation_embed, time_reversal,
                        validate_lorentz, velocity_from_rapidity)
from .render import RenderSpec, blackbody_rgb, disc_radius_px, render
from .sphere import (MoebiusTransform, PolarAngles, SpherePoint, antipode,
                     from_polar, inverse_stereo, sphere_metric_factor,
                     stereo_project, to_polar)
from .spin import (HermitianSlot, SL2CElement, SL2RElement, SU2Element,
                   four_vector_from_hermitian, hermitian_from_four_vector,
                   lift_lorentz_to_sl2c, sl2c_to_lorentz, sl2r_to_so21,
                   su2_from_axis_angle, su2_to_so3)
from .starfield import BoostedCatalog, Catalog, load_catalog, transform_catalog

__version__ = "0.1.0"
