"""Small-rate, small-leak quadratic approximation of the independence exponent.

When both budgets are near zero, every conditional law is a local perturbation
of the corresponding marginal and each KL term collapses to a weighted squared
norm (Euclidean information theory). The exponent then becomes a bilinear
problem in the weighted channel matrix B(y, x) = P(x, y) / sqrt(P(x) P(y)),
whose top singular pair (sqrt-marginals, value 1) carries no information; the
curvature lives in the second singular value, so one SVD of B gives the value
and the optimal perturbations in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateMarginal,
    DimensionMismatch,
    DomainError,
    ZeroSupport,
)
from .probcore import JointPmf, Pmf, check_budgets

__all__ = [
    "chi2_divergence_approx",
    "build_weighted_matrix",
    "PerturbationSet",
    "EuclidResult",
    "euclid_tai_approx",
    "binary_euclid_approx",
]

_LOG2E = math.log2(math.e)


def chi2_divergence_approx(p, q) -> float:
    """Quadratic stand-in for KL(p || q): (log2 e / 2) * sum (p-q)^2 / q.

    Accurate when p is close to q. Entries must be finite and the reference
    strictly positive.
    """
    pa = np.asarray(p.probs if isinstance(p, Pmf) else p, dtype=float)
    qa = np.asarray(q.probs if isinstance(q, Pmf) else q, dtype=float)
    if pa.shape != qa.shape:
        raise DimensionMismatch(f"shape mismatch: {pa.shape} vs {qa.shape}")
    if not (np.all(np.isfinite(pa)) and np.all(np.isfinite(qa))):
        raise DomainError("both laws must have finite entries")
    if np.any(qa <= 0.0):
        raise ZeroSupport("reference law must be entrywise positive")
    return float(0.5 * _LOG2E * np.sum((pa - qa) ** 2 / qa))


def build_weighted_matrix(p_xy: JointPmf) -> np.ndarray:
    """Channel matrix in the whitened coordinates where KL looks Euclidean.

    Entry (y, x) is P(x, y) / sqrt(P(x) P(y)). Its largest singular value is
    always 1 with singular vectors sqrt(P_Y) and sqrt(P_X).
    """
    p = np.asarray(p_xy.probs, dtype=float)
    if p.ndim != 2:
        raise DimensionMismatch("expected a two-axis joint law")
    p_x = p.sum(axis=1)
    p_y = p.sum(axis=0)
    if np.any(p_x <= 0.0) or np.any(p_y <= 0.0):
        raise DegenerateMarginal("both marginals must be entrywise positive")
    return p.T / np.sqrt(np.outer(p_y, p_x))


@dataclass(frozen=True)
class PerturbationSet:
    """Optimal first-order perturbations in whitened coordinates.

    ``k_u`` rows perturb the quantizer around the intermediate marginal;
    ``k_xhat`` rows perturb the mechanism around the source marginal.
    """

    p_u: np.ndarray
    k_u: np.ndarray  # (|U|, |Xh|)
    p_xhat: np.ndarray
    k_xhat: np.ndarray  # (|Xh|, |X|)


@dataclass(frozen=True)
class EuclidResult:
    value: float
    perturbations: PerturbationSet

    def to_dict(self) -> dict:
        return {"theta_bits": self.value}


def euclid_tai_approx(p_xy: JointPmf, rate: float, leak: float) -> EuclidResult:
    """Approximate independence-testing exponent for small rate and leak.

    The value is 2 ln 2 * sigma_2^2 * rate * leak, with sigma_2 the second
    singular value of the whitened channel. Both perturbations point along g,
    the unit second right singular vector (orthogonal to sqrt(P_X)): the
    quantizer moves U = 0, 1 by +-g around P_Xh = P_X and the mechanism row
    of x by g(x) / sqrt(P_X(x)) * g. Both budgets are spent with equality and
    both marginals are preserved to first order. The intermediate alphabet
    mirrors the source alphabet.
    """
    check_budgets(rate, leak, finite=True)
    b = build_weighted_matrix(p_xy)
    kx = b.shape[1]
    p_xhat = np.asarray(p_xy.probs, dtype=float).sum(axis=1)
    p_u = np.array([0.5, 0.5])
    _, sing, vh = np.linalg.svd(b)
    sigma2_sq = float(sing[1]) ** 2 if sing.size > 1 else 0.0
    if rate == 0.0 or leak == 0.0 or sigma2_sq < 1e-15:
        # a zero budget, or a rank-one whitened channel: nothing to gain
        zero = PerturbationSet(p_u, np.zeros((2, kx)), p_xhat, np.zeros((kx, kx)))
        return EuclidResult(0.0, zero)

    # when sigma_2 = 1 the top two right singular vectors may both lean on
    # sqrt(P_X); the larger remainder after removing it is the direction g
    sqrt_px = np.sqrt(p_xhat)
    cand = vh[:2] - np.outer(vh[:2] @ sqrt_px, sqrt_px)
    g = cand[int(np.argmax(np.linalg.norm(cand, axis=1)))]
    g /= np.linalg.norm(g)
    rho_r = 2.0 * rate / _LOG2E
    rho_l = 2.0 * leak / _LOG2E
    k_u = math.sqrt(rho_r) * np.vstack([g, -g])
    k_xhat = math.sqrt(rho_l) * np.outer(g / sqrt_px, g)
    value = (2.0 / _LOG2E) * sigma2_sq * rate * leak
    return EuclidResult(value, PerturbationSet(p_u, k_u, p_xhat, k_xhat))


def binary_euclid_approx(q_noise: float, rate: float, leak: float) -> float:
    """Closed form of the quadratic approximation for the symmetric binary case."""
    if not 0.0 <= q_noise <= 1.0:
        raise DomainError(f"noise {q_noise!r} outside [0, 1]")
    check_budgets(rate, leak, finite=True)
    return (2.0 / _LOG2E) * (1.0 - 2.0 * q_noise) ** 2 * rate * leak
