"""Sum rate, converse bound, and optimality certificates for the Gaussian
vacationing-CEO source-coding problem (two encoders observing a remote
source, two descriptions each, two individual receivers plus a central one).

All information quantities are in nats.
"""

from .bound import (
    LowerBoundResult,
    PBranch,
    condition_holds,
    in_P,
    lower_bound,
    project_to_P,
    r_fn,
    sup_sigma_z,
)
from .equivalence import (
    AlphaTriple,
    EquivalenceReport,
    FRegion,
    alphas,
    classify_F_k,
    construct_matching_scheme,
    g_fn,
    solve_a_star,
)
from .errors import (
    DegenerateConditioningError,
    DegenerateRegressionError,
    DomainError,
    InfeasibleTargetsError,
    InfiniteMutualInformationError,
    InstanceParseError,
    InternalContradictionError,
    InvalidParamsError,
    VceoError,
)
from .gaussmodel import (
    LabeledCov,
    SourceModel,
    build_joint_cov,
    conditional_cov,
    conditional_mi,
    gaussian_mi,
)
from .mc import JointSamples, McReport, McRow, empirical_mmse, mc_report, sample_joint
from .scheme import (
    BoundParams,
    DistortionTriple,
    OptimizeOptions,
    OptimizeResult,
    RateBreakdown,
    SchemeParams,
    central_distortion,
    full_mmse,
    marginal_params,
    optimize_sum_rate,
    rate_tuple,
    receiver_distortion,
    sum_rate,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaTriple",
    "BoundParams",
    "DistortionTriple",
    "EquivalenceReport",
    "FRegion",
    "JointSamples",
    "LabeledCov",
    "LowerBoundResult",
    "McReport",
    "McRow",
    "OptimizeOptions",
    "OptimizeResult",
    "PBranch",
    "RateBreakdown",
    "SchemeParams",
    "SourceModel",
    "VceoError",
    "DegenerateConditioningError",
    "DegenerateRegressionError",
    "DomainError",
    "InfeasibleTargetsError",
    "InfiniteMutualInformationError",
    "InstanceParseError",
    "InternalContradictionError",
    "InvalidParamsError",
    "alphas",
    "build_joint_cov",
    "central_distortion",
    "classify_F_k",
    "condition_holds",
    "conditional_cov",
    "conditional_mi",
    "construct_matching_scheme",
    "empirical_mmse",
    "full_mmse",
    "g_fn",
    "gaussian_mi",
    "in_P",
    "lower_bound",
    "marginal_params",
    "mc_report",
    "optimize_sum_rate",
    "project_to_P",
    "r_fn",
    "rate_tuple",
    "receiver_distortion",
    "sample_joint",
    "solve_a_star",
    "sum_rate",
    "sup_sigma_z",
]
