"""Error exponents for distributed hypothesis testing under privacy budgets.

The package computes the type-II error exponent achievable when a sensor
publishes only a sanitized view of its data (mutual-information leakage at
most L bits) and a transmitter forwards at most R bits per symbol to the
tester. Exact optimizers, closed forms, quadratic approximations, and Monte
Carlo simulations of the underlying coding schemes all live behind one
consistent bits-based convention defined in ``probcore``.
"""

__version__ = "0.1.0"

from . import errors, euclid, exponents, gaussian, iproject, probcore, simkit
from .errors import *  # noqa: F403 -- each module's __all__ is its public interface
from .probcore import *  # noqa: F403
from .iproject import *  # noqa: F403
from .exponents import *  # noqa: F403
from .euclid import *  # noqa: F403
from .gaussian import *  # noqa: F403
from .simkit import *  # noqa: F403

__all__ = ["__version__", *(name for module in (errors, probcore, iproject, exponents, euclid,
                                                 gaussian, simkit) for name in module.__all__)]
