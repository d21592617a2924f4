"""zonomed: zonotope medians and Steiner symmetrization of measures.

Four areas, one namespace:

* zonotopes built from point samples, with exact and Monte Carlo intrinsic
  volumes, the Wills functional, and 2D boundary realizations;
* the V_j-median family (L1, intermediate, Oja), Wills and polar medians;
* closed-form Steiner symmetrization of Gaussian laws, including the
  arithmetic/harmonic eigenvalue iteration to spherical symmetry;
* sample-based symmetrization with exact polygon symmetrals and isotropy
  diagnostics.
"""

__version__ = "0.1.0"

from .empirical import (
    EmpiricalSample,
    IsotropyReport,
    NormReduction,
    RegressorConfig,
    Theorem1Report,
    conjecture_explorer,
    norm_reduction_check,
    polygon_steiner_symmetral_2d,
    sample_uniform_polygon,
    symmetrize_sample,
    theorem1_check,
)
from .errors import (
    DegenerateCloudError,
    DegeneratePolygonError,
    FlatZonotopeError,
    ZonomedError,
)
from .gauss import (
    GaussianState,
    SymmetrizationStep,
    SymmetrizationTrace,
    complement_basis,
    double_mean_update,
    eigenpair_direction,
    regression_coefficient,
    sphere_iterate,
    symmetrize_gaussian,
)
from .medians import (
    MedianProblem,
    MedianResult,
    SolverOptions,
    grid_oracle,
    polar_median,
    v1_median,
    vd_median,
    vj_median,
    vj_objective,
    wills_median,
)
from .polygon import (
    ConvexPolygon2D,
    distances_to_polygon,
    steiner_polynomial_check_2d,
    wills_mc_check,
    zonotope_polygon_2d,
)
from .zonotope import (
    MonteCarloEstimate,
    PointCloud,
    Zonotope,
    intrinsic_volume,
    mc_intrinsic_volume,
    unit_ball_volume,
    wills_functional,
)
