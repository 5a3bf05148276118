"""rsuncert: position/wavevector uncertainty relation Dr*Dk >= 5/2 for
electromagnetic fields in the Riemann-Silberstein formulation.

Variance conventions, the c = 1 unit system and the symmetric Fourier
normalization are documented in rsuncert.kspace and rsuncert.moments.
"""

from .analytic_fields import (
    SaturatingFieldSpec,
    boost,
    light_cone_vars,
    photon_wavefunctions,
    rotate,
    saturating_field_t0,
    saturating_rs_field,
    scalar_generator,
    simplest_field,
    write_field,
)
from .eigensolver import (
    RadialProblem,
    RadialSpectrum,
    analytic_eigenfunction,
    rayleigh_quotient,
    solve_radial,
)
from .errors import (
    AxisSingularityError,
    DegenerateFieldError,
    GridMismatchError,
    ResolutionError,
    RsfFormatError,
    SingularAmplitudeError,
    TruncationError,
)
from .kspace import (
    FieldGrid,
    Grid3D,
    HelicityAmplitudePair,
    PolynomialGaussianAmplitude,
    RadialProfileAmplitude,
    fourier_to_kspace,
    fourier_to_position,
    polarization,
    saturating_amplitudes,
    synthesize_kspace,
)
from .moments import (
    BOUND_EM,
    CylindricalRule,
    VarianceReport,
    massless_bound,
    uncertainty_product,
)
from .propagator import Trajectory, spreading_trajectory
from .rsfio import read_rsf, write_rsf
from .specfun import dawson, laguerre_general

__version__ = "0.1.0"
