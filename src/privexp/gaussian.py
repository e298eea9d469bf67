"""Exponent of Gaussian test channels for jointly Gaussian sources under both budgets.

With a Gaussian mechanism and a Gaussian quantizer, each budget B multiplies
the usable squared correlation by (1 - 2^{-2B}), so

    theta(rho, R, L) = -0.5 * log2(1 - rho^2 (1 - 2^{-2R}) (1 - 2^{-2L})).

This is an achievable exponent. It is the optimum at L = inf, the rate-only
Gaussian exponent (Rahman & Wagner 2012), and at R = inf, by the Gaussian
information bottleneck (Chechik, Globerson, Tishby & Weiss 2005). With both
budgets finite it is not proven optimal and can be beaten: at rho = 0.8 and
R = L = 1/4 the independence search on the 3x3 law of X and Y cut at their
tertiles reaches 0.048092 against the formula's 0.040733, and by data
processing that witness is a scheme for the Gaussian source too.

``math.inf`` is accepted for either budget and evaluates the analytic limit.
The one-parameter achievability curve below traces the same Gaussian channels
over the variance beta^2 of the quantization noise; its rate-feasible boundary
point recovers the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InfeasibleBeta
from .probcore import _number, check_budgets

__all__ = ["GaussianQuery", "gaussian_tai_exponent", "gaussian_achievable_at_beta"]


@dataclass(frozen=True)
class GaussianQuery:
    """Correlation under the null plus the two budgets, all in bits."""

    rho: float
    rate: float
    leak: float

    def __post_init__(self):
        _number(self.rho, "correlation", 0, 1)
        check_budgets(self.rate, self.leak)


def _shrink(budget: float) -> float:
    # 1 - 2^{-2B}, with B = inf giving exactly 1
    if math.isinf(budget):
        return 1.0
    return 1.0 - 2.0 ** (-2.0 * budget)


def gaussian_tai_exponent(q: GaussianQuery) -> float:
    inner = 1.0 - q.rho * q.rho * _shrink(q.rate) * _shrink(q.leak)
    if inner <= 0.0:
        return math.inf
    return -0.5 * math.log2(inner) + 0.0  # + 0.0: a zero exponent is 0.0, not -0.0


def gaussian_achievable_at_beta(q: GaussianQuery, beta_sq: float) -> float:
    """Exponent of the explicit auxiliary choice with quantization noise beta_sq.

    Feasibility: 2^{-2R} (1 - 2^{-2L}) <= beta_sq <= 1 - 2^{-2L}. The lower
    boundary saturates the rate budget and attains the closed form; the upper
    one leaves the description empty and yields zero.
    """
    _number(beta_sq, "beta_sq")  # its range is InfeasibleBeta's
    shrink_l = _shrink(q.leak)
    lo = (1.0 - _shrink(q.rate)) * shrink_l
    hi = shrink_l
    if not lo - 1e-15 <= beta_sq <= hi + 1e-15:
        raise InfeasibleBeta(
            f"beta_sq = {beta_sq!r} outside the feasible range "
            f"[{lo:.6g}, {hi:.6g}]"
        )
    inner = 1.0 - q.rho * q.rho * (shrink_l - beta_sq)
    if inner <= 0.0:
        return math.inf
    return -0.5 * math.log2(inner) + 0.0
