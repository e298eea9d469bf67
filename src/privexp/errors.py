"""Exception hierarchy shared across the toolkit.

Every error raised by this package derives from ToolkitError so callers can
catch one base class at API boundaries (the CLI maps subclasses to exit
codes).
"""

__all__ = [
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
]


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDistribution(ToolkitError):
    """Probability vector fails validation (negative mass or bad total)."""


class LengthMismatch(ToolkitError):
    """Sequences that must share a common length do not."""


class DimensionMismatch(ToolkitError):
    """Array shapes or axis counts are inconsistent."""


class DomainError(ToolkitError):
    """Scalar argument outside the mathematically valid domain."""


class AlphabetMismatch(ToolkitError):
    """Two objects disagree on an alphabet that must be shared."""


class Infeasible(ToolkitError):
    """Constraint set is empty or residuals stopped shrinking above tol."""


class SupportMismatch(ToolkitError):
    """Constraints require mass where the reference distribution has none."""


class TooLarge(ToolkitError):
    """Problem exceeds a size cap: the exhaustive I-projection oracle's free
    dimension, a channel search on more than five source symbols, or the
    simulator's batch, trial, fixed-codebook or table cap (``SizeOverflow``)."""


class NonpositiveAlternative(ToolkitError):
    """Alternative joint law has a zero entry where positivity is required."""


class ZeroSupport(ToolkitError):
    """Denominator distribution has a zero entry."""


class DegenerateMarginal(ToolkitError):
    """A marginal needed for weighting has a zero entry."""


class InfeasibleBeta(ToolkitError):
    """Requested operating point lies outside the feasible interval."""


class SizeOverflow(TooLarge):
    """A codebook or a joint-type table enumeration exceeds the simulator's
    materialization cap; a ``TooLarge``, so the CLI exits 4 for it."""


class DegenerateConfig(ToolkitError):
    """Simulation configuration is inconsistent or vacuous."""


class EmptySample(ToolkitError):
    """An estimator was handed an empty sample."""


class InvariantViolation(ToolkitError):
    """An internal invariant (data processing, dual certificate) failed."""
