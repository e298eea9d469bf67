"""Error exponents for distributed hypothesis testing under privacy budgets.

The package computes the type-II error exponent achievable when a sensor
publishes only a sanitized view of its data (mutual-information leakage at
most L bits) and a transmitter forwards at most R bits per symbol to the
tester. Exact optimizers, closed forms, quadratic approximations, and Monte
Carlo simulations of the underlying coding schemes all live behind one
consistent bits-based convention defined in ``probcore``.

The top-level names are each module's ``__all__``, in the order below. A
name is imported from its module on first access, so ``import privexp``
loads no numpy and a caller loads only the modules whose names it uses.
"""

import importlib

__version__ = "0.1.0"

# each module's __all__, which is its public interface; a test checks that
# these lists are the modules' own
_EXPORTS = {
    "errors": ("ToolkitError", "InvalidDistribution", "LengthMismatch", "DimensionMismatch",
               "DomainError", "AlphabetMismatch", "Infeasible", "SupportMismatch", "TooLarge",
               "NonpositiveAlternative", "ZeroSupport", "DegenerateMarginal", "InfeasibleBeta",
               "SizeOverflow", "DegenerateConfig", "EmptySample", "InvariantViolation"),
    "probcore": ("Pmf", "JointPmf", "Channel", "entropy", "kl_divergence", "mutual_information",
                 "binary_entropy", "binary_entropy_inv", "star", "total_variation",
                 "empirical_type", "is_typical", "compose", "marginalize", "chain_joint",
                 "from_dict", "load_json", "dump_json"),
    "iproject": ("MarginalConstraint", "IProjectionResult", "i_project", "brute_force_i_project"),
    "exponents": ("ExponentResult", "binary_tai_exponent", "tai_exponent",
                  "symmetric_tai_exponent", "zero_rate_exponent", "theorem1_lower_bound",
                  "corollary2_bound"),
    "euclid": ("chi2_divergence_approx", "build_weighted_matrix", "PerturbationSet",
               "EuclidResult", "euclid_tai_approx", "binary_euclid_approx"),
    "gaussian": ("GaussianQuery", "gaussian_tai_exponent", "gaussian_achievable_at_beta"),
    "simkit": ("SchemeConfig", "Codebook", "SimReport", "generate_codebook",
               "run_general_scheme", "run_memoryless_scheme", "empirical_privacy",
               "wilson_interval"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
