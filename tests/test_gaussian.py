"""Gaussian closed form and its one-parameter achievability curve."""

import math

import numpy as np
import pytest

from privexp import (
    DomainError,
    GaussianQuery,
    InfeasibleBeta,
    gaussian_achievable_at_beta,
    gaussian_tai_exponent,
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
