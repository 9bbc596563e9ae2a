"""Risk-averse optimal control of elliptic PDEs with uncertain fields.

The library builds quadratic expansions of the parameter-to-objective map,
computes their Gaussian mean and variance analytically with trace
estimation of covariance-preconditioned Hessians, and minimizes the
resulting risk objective over box-constrained well rates with an
adjoint-based gradient whose cost is independent of the parameter
dimension.  A sample-average baseline and Monte Carlo risk evaluation are
included for validation.
"""

from .errors import ConfigError, NumericalError
from .fem import (
    Mesh,
    SolveCounter,
    SpdSolver,
    assemble_mass,
    assemble_weighted_stiffness,
    build_mesh,
)
from .random_field import (
    EigenBasis,
    FieldSpace,
    GaussianField,
    field_on_mesh,
    field_on_neumann_boundary,
    neumann_trace_space,
    volume_space,
)
from .poisson import (
    PoissonFlowProblem,
    WellConfig,
    default_wells,
    grid_points,
    mollifier_fields,
    parabolic_target_profile,
)
from .semilinear import SemilinearProblem
from .surrogate import (
    QuadraticSurrogate,
    TraceEstimate,
    analytic_mean,
    analytic_variance,
    estimate_traces,
    truncation_rate_study,
)
from .optim import minimize_box_lbfgs
from .ouu import (
    OuuConfig,
    RiskAverseObjective,
    RiskReport,
    SaaObjective,
    evaluate_true_risk,
    optimize,
    optimize_saa,
)
from .config import (
    PROFILES,
    RunConfig,
    build_setup,
    config_from_dict,
    config_to_dict,
    resolve_config,
)

__version__ = "0.1.0"
