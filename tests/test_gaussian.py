"""Gaussian closed form and its one-parameter achievability curve."""

import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm

from privexp import (
    DomainError,
    GaussianQuery,
    InfeasibleBeta,
    JointPmf,
    gaussian_achievable_at_beta,
    gaussian_tai_exponent,
    tai_exponent,
)


def closed_form(rho: float, rate: float, leak: float) -> float:
    shrink = lambda b: 1.0 if math.isinf(b) else 1.0 - 2.0 ** (-2.0 * b)
    return -0.5 * math.log2(1.0 - rho * rho * shrink(rate) * shrink(leak))


def beta_range(q: GaussianQuery) -> tuple[float, float]:
    hi = 1.0 - 2.0 ** (-2.0 * q.leak)
    lo = 2.0 ** (-2.0 * q.rate) * hi
    return lo, hi


def test_exponent_matches_direct_formula():
    q = GaussianQuery(0.8, 1.0, math.inf)
    assert gaussian_tai_exponent(q) == pytest.approx(
        closed_form(0.8, 1.0, math.inf), abs=1e-15
    )
    assert gaussian_tai_exponent(GaussianQuery(0.8, 1.0, 1.0)) == pytest.approx(
        closed_form(0.8, 1.0, 1.0), abs=1e-15
    )


def test_exponent_zero_and_infinite_budgets():
    assert gaussian_tai_exponent(GaussianQuery(0.8, 0.0, 1.0)) == 0.0
    assert gaussian_tai_exponent(GaussianQuery(0.8, 1.0, 0.0)) == 0.0
    both = gaussian_tai_exponent(GaussianQuery(0.8, math.inf, math.inf))
    assert both == pytest.approx(-0.5 * math.log2(1.0 - 0.64), abs=1e-15)
    # perfectly correlated source with unbounded budgets separates perfectly
    assert gaussian_tai_exponent(GaussianQuery(1.0, math.inf, math.inf)) == math.inf


@pytest.mark.parametrize("rho, rate, leak", [(0.8, 0.0, 1.0), (0.8, 1.0, 0.0), (0.0, 1.0, 1.0)],
                         ids=["zero-rate", "zero-leak", "zero-rho"])
def test_a_zero_exponent_is_positive_zero(rho, rate, leak):
    # -0.5 * log2(1.0) is -0.0, which each function once returned here
    q = GaussianQuery(rho, rate, leak)
    _, hi = beta_range(q)
    assert math.copysign(1.0, gaussian_tai_exponent(q)) == 1.0
    assert math.copysign(1.0, gaussian_achievable_at_beta(q, hi)) == 1.0


def test_exponent_symmetric_in_budgets():
    for r, l in [(0.3, 0.9), (0.1, 2.0)]:
        assert gaussian_tai_exponent(GaussianQuery(0.7, r, l)) == pytest.approx(
            gaussian_tai_exponent(GaussianQuery(0.7, l, r)), abs=1e-15
        )


def test_exponent_monotone_in_each_argument():
    base = gaussian_tai_exponent(GaussianQuery(0.6, 0.5, 0.5))
    assert gaussian_tai_exponent(GaussianQuery(0.7, 0.5, 0.5)) >= base
    assert gaussian_tai_exponent(GaussianQuery(0.6, 0.8, 0.5)) >= base
    assert gaussian_tai_exponent(GaussianQuery(0.6, 0.5, 0.8)) >= base


def test_large_leak_budget_reaches_the_limit():
    q30 = GaussianQuery(0.8, 0.7, 30.0)
    limit = 0.5 * math.log2(1.0 / (1.0 - 0.64 * (1.0 - 2.0 ** (-2.0 * 0.7))))
    assert gaussian_tai_exponent(q30) == pytest.approx(limit, abs=1e-9)


def test_beta_curve_max_is_the_closed_form():
    q = GaussianQuery(0.8, 1.0, 1.0)
    lo, hi = beta_range(q)
    grid = np.linspace(lo, hi, 401)
    values = [gaussian_achievable_at_beta(q, b) for b in grid]
    assert max(values) == pytest.approx(gaussian_tai_exponent(q), abs=1e-10)
    assert int(np.argmax(values)) == 0  # rate-saturating endpoint wins


def test_beta_curve_endpoints():
    q = GaussianQuery(0.8, 1.0, 1.0)
    lo, hi = beta_range(q)
    assert gaussian_achievable_at_beta(q, lo) == pytest.approx(
        gaussian_tai_exponent(q), abs=1e-12
    )
    assert gaussian_achievable_at_beta(q, hi) == pytest.approx(0.0, abs=1e-12)


def test_beta_curve_at_zero_noise_with_unit_correlation_is_infinite():
    # both budgets infinite: beta_sq = 0 is feasible and leaves no noise at all
    assert gaussian_achievable_at_beta(GaussianQuery(1.0, math.inf, math.inf), 0.0) == math.inf


def test_beta_curve_rejects_points_outside_range():
    q = GaussianQuery(0.8, 1.0, 1.0)
    lo, hi = beta_range(q)
    with pytest.raises(InfeasibleBeta):
        gaussian_achievable_at_beta(q, lo - 1e-6)
    with pytest.raises(InfeasibleBeta):
        gaussian_achievable_at_beta(q, hi + 1e-6)


def test_query_validation():
    with pytest.raises(DomainError):
        GaussianQuery(1.2, 1.0, 1.0)
    with pytest.raises(DomainError):
        GaussianQuery(-0.3, 1.0, 1.0)
    with pytest.raises(DomainError):
        GaussianQuery(0.5, -1.0, 1.0)


@pytest.mark.parametrize("field", ["rate", "leak"])
def test_nan_budget_is_a_domain_error(field):
    budgets = {"rate": 1.0, "leak": 1.0, field: math.nan}
    with pytest.raises(DomainError, match=f"^{field} nan"):
        GaussianQuery(0.8, **budgets)


def tertile_law(rho: float) -> np.ndarray:
    """The 3x3 law of a standard Gaussian pair with correlation rho, each
    coordinate cut at its tertiles: cell masses by inclusion-exclusion from
    the CDF on the cut grid, whose infinite edges are exact."""
    cuts = norm.ppf([1 / 3, 2 / 3])
    cdf = np.zeros((4, 4))
    cdf[3, 1:] = cdf[1:, 3] = [1 / 3, 2 / 3, 1.0]
    pair = multivariate_normal(cov=[[1.0, rho], [rho, 1.0]])
    cdf[1:3, 1:3] = [[pair.cdf([a, b], rng=0) for b in cuts] for a in cuts]
    return np.diff(np.diff(cdf, axis=0), axis=1)


def plain_mi(joint: np.ndarray) -> float:
    """I(row ; column) of a two-axis joint, in bits, in plain numpy."""
    rows, cols = joint.sum(axis=1, keepdims=True), joint.sum(axis=0, keepdims=True)
    cells = joint > 0
    return float((joint[cells] * np.log2(joint[cells] / (rows * cols)[cells])).sum())


def test_a_discretized_search_beats_the_formula_with_both_budgets_finite():
    # The tertile map followed by the returned channels is a scheme for the
    # Gaussian source too (data processing): it leaks I(X;Xh) and describes
    # I(U;Xh) bits, and the tester's I(U;Y) only grows when it sees Y itself.
    # So the formula is not the optimum at R = L = 1/4.
    p = tertile_law(0.8)
    found = tai_exponent(JointPmf(p, ("X", "Y")), 0.25, 0.25)
    mech, quant = found.mechanism.matrix, found.quantizer.matrix
    x_xh = p.sum(axis=1)[:, None] * mech
    xh_u = x_xh.sum(axis=0)[:, None] * quant
    u_y = quant.T @ mech.T @ p
    assert plain_mi(x_xh) <= 0.25 + 1e-9
    assert plain_mi(xh_u) <= 0.25 + 1e-9
    assert plain_mi(u_y) == pytest.approx(found.theta, abs=1e-12)
    assert found.theta == pytest.approx(0.048092, abs=1e-6)
    formula = gaussian_tai_exponent(GaussianQuery(0.8, 0.25, 0.25))
    assert formula == pytest.approx(0.040733, abs=1e-6)
    assert plain_mi(u_y) > formula + 0.007
