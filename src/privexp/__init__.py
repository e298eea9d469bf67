"""Error exponents for distributed hypothesis testing under privacy budgets.

The package computes the type-II error exponent achievable when a sensor
publishes only a sanitized view of its data (mutual-information leakage at
most L bits) and a transmitter forwards at most R bits per symbol to the
tester. Exact optimizers, closed forms, quadratic approximations, and Monte
Carlo simulations of the underlying coding schemes all live behind one
consistent bits-based convention defined in ``probcore``.
"""

__version__ = "0.1.0"

from .errors import (
    AlphabetMismatch,
    DegenerateConfig,
    DegenerateMarginal,
    DimensionMismatch,
    DomainError,
    EmptySample,
    Infeasible,
    InfeasibleBeta,
    InvalidDistribution,
    InvariantViolation,
    LengthMismatch,
    NonpositiveAlternative,
    SizeOverflow,
    SupportMismatch,
    TooLarge,
    ToolkitError,
    ZeroSupport,
)
from .probcore import (
    Channel,
    JointPmf,
    Pmf,
    binary_entropy,
    binary_entropy_inv,
    chain_joint,
    compose,
    dump_json,
    empirical_type,
    entropy,
    from_dict,
    is_typical,
    kl_divergence,
    load_json,
    marginalize,
    mutual_information,
    star,
    total_variation,
)
from .iproject import (
    IProjectionResult,
    MarginalConstraint,
    brute_force_i_project,
    i_project,
)
from .exponents import (
    ExponentResult,
    SearchConfig,
    binary_tai_exponent,
    corollary2_bound,
    tai_exponent,
    theorem1_lower_bound,
    zero_rate_exponent,
)
from .euclid import (
    EuclidResult,
    PerturbationSet,
    binary_euclid_approx,
    build_weighted_matrix,
    chi2_divergence_approx,
    euclid_tai_approx,
)
from .gaussian import (
    GaussianQuery,
    gaussian_achievable_at_beta,
    gaussian_tai_exponent,
)
from .simkit import (
    Codebook,
    SchemeConfig,
    SimReport,
    empirical_privacy,
    generate_codebook,
    run_general_scheme,
    run_memoryless_scheme,
    wilson_interval,
)

__all__ = [
    "__version__",
    # errors
    "ToolkitError",
    "InvalidDistribution",
    "LengthMismatch",
    "DimensionMismatch",
    "DomainError",
    "AlphabetMismatch",
    "Infeasible",
    "SupportMismatch",
    "TooLarge",
    "NonpositiveAlternative",
    "ZeroSupport",
    "DegenerateMarginal",
    "InfeasibleBeta",
    "SizeOverflow",
    "DegenerateConfig",
    "EmptySample",
    "InvariantViolation",
    # probability core
    "Pmf",
    "JointPmf",
    "Channel",
    "entropy",
    "kl_divergence",
    "mutual_information",
    "binary_entropy",
    "binary_entropy_inv",
    "star",
    "total_variation",
    "empirical_type",
    "is_typical",
    "compose",
    "marginalize",
    "chain_joint",
    "from_dict",
    "load_json",
    "dump_json",
    # I-projection
    "MarginalConstraint",
    "IProjectionResult",
    "i_project",
    "brute_force_i_project",
    # exponents
    "SearchConfig",
    "ExponentResult",
    "binary_tai_exponent",
    "tai_exponent",
    "zero_rate_exponent",
    "theorem1_lower_bound",
    "corollary2_bound",
    # quadratic approximation
    "chi2_divergence_approx",
    "build_weighted_matrix",
    "PerturbationSet",
    "EuclidResult",
    "euclid_tai_approx",
    "binary_euclid_approx",
    # Gaussian
    "GaussianQuery",
    "gaussian_tai_exponent",
    "gaussian_achievable_at_beta",
    # simulation
    "SchemeConfig",
    "Codebook",
    "SimReport",
    "generate_codebook",
    "run_general_scheme",
    "run_memoryless_scheme",
    "empirical_privacy",
    "wilson_interval",
]
