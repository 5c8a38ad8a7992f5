"""Saddle-point optimization on Riemannian manifolds.

Geometry kernels (sphere, SPD, Euclidean, products), curvature comparison
constants, corrected-extragradient and gradient descent-ascent solvers with
their step-size schedules, benchmark problems, and a CLI experiment harness.
"""

from .manifolds import (
    Euclidean,
    GeodesicNotUniqueError,
    GeometryError,
    Manifold,
    NumericError,
    Point,
    Product,
    Spd,
    Sphere,
    Tangent,
    point_from_json,
    point_to_json,
)
from .curvature import (
    CurvatureConstants,
    GeodesicTriangle,
    constants_at,
    tau,
    tci_holds_lower,
    tci_holds_upper,
    xi_lower,
    xi_upper,
)
from .solvers import (
    NoiseModel,
    SaddleProblem,
    SolverState,
    Trace,
    TraceRow,
    initial_state,
    rceg_step,
    rgda_step,
    run,
    running_mean_update,
    schedule_practical,
    schedule_rceg_scsc,
    schedule_rgda_cc,
    schedule_rgda_scsc,
    schedule_srceg_cc,
    schedule_srceg_scsc,
    schedule_srgda_cc,
    stochastic_oracle,
)
from .problems import (
    BilinearInstance,
    KarcherInstance,
    MinibatchOracle,
    RpcaInstance,
    estimate_smoothness,
    estimate_strong_monotonicity,
    gen_spd_data,
    instance_from_json,
    instance_to_json,
    karcher_grad,
    karcher_value,
    make_bilinear,
    make_karcher,
    make_rpca,
    rpca_grad,
    rpca_value,
)

__version__ = "0.1.0"
