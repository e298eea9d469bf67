"""Quadratic small-budget approximation: closed form, solver, and geometry."""

import math

import numpy as np
import pytest

from privexp import (
    DegenerateMarginal,
    DomainError,
    JointPmf,
    ZeroSupport,
    binary_euclid_approx,
    binary_tai_exponent,
    build_weighted_matrix,
    chi2_divergence_approx,
    euclid_tai_approx,
)

LOG2E = math.log2(math.e)


def dsbs(eps: float) -> JointPmf:
    half = eps / 2.0
    return JointPmf(np.array([[0.5 - half, half], [half, 0.5 - half]]), ("X", "Y"))


# a 2x2, a 2x3 and a 3x3 law, and a 3x3 block law whose sigma_2 is 1
LAWS = [
    dsbs(0.1),
    JointPmf(np.array([[0.3, 0.1, 0.1], [0.05, 0.15, 0.3]]), ("X", "Y")),
    JointPmf(
        np.array([[0.2, 0.05, 0.05], [0.05, 0.2, 0.1], [0.1, 0.05, 0.2]]), ("X", "Y")
    ),
    JointPmf(np.array([[0.3, 0.1, 0.0], [0.1, 0.2, 0.0], [0.0, 0.0, 0.3]]), ("X", "Y")),
]


def quadratic_objective(p_xy: JointPmf, pert) -> float:
    """Quadratic I(U;Y) of the perturbations: (log2 e / 2) sum_u P(u) |B K k_u|^2."""
    b = build_weighted_matrix(p_xy)
    a = b @ pert.k_xhat.T @ (np.sqrt(pert.p_xhat)[:, None] * pert.k_u.T)
    return 0.5 * LOG2E * float(np.sum(pert.p_u * np.sum(a * a, axis=0)))


def test_chi2_matches_hand_computation():
    # 0.5 * log2(e) * sum (p-q)^2 / q with p = (0.51, 0.49), q = (1/2, 1/2)
    expected = 0.5 * LOG2E * (2 * 0.01**2 / 0.5)
    got = chi2_divergence_approx(np.array([0.51, 0.49]), np.array([0.5, 0.5]))
    assert got == pytest.approx(expected, abs=5e-16)
    assert chi2_divergence_approx(np.array([0.3, 0.7]), np.array([0.3, 0.7])) == 0.0


def test_chi2_requires_positive_reference():
    with pytest.raises(ZeroSupport):
        chi2_divergence_approx(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_chi2_refuses_non_finite_entries(bad):
    # a NaN entry once came back as a nan divergence
    with pytest.raises(DomainError, match="finite"):
        chi2_divergence_approx(np.array([0.5, bad]), np.array([0.5, 0.5]))
    with pytest.raises(DomainError, match="finite"):
        chi2_divergence_approx(np.array([0.5, 0.5]), np.array([bad, 0.5]))


def test_binary_closed_form_value():
    expected = (2.0 / LOG2E) * 0.8**2 * 1e-4
    assert binary_euclid_approx(0.1, 0.01, 0.01) == pytest.approx(expected, abs=1e-18)
    assert binary_euclid_approx(0.1, 0.0, 0.01) == 0.0
    with pytest.raises(DomainError):
        binary_euclid_approx(-0.1, 0.01, 0.01)


def test_weighted_matrix_spectrum():
    # for the symmetric binary pair the whitened channel is the bsc matrix
    # itself: singular values 1 and 1 - 2 eps
    b = build_weighted_matrix(dsbs(0.1))
    assert np.allclose(sorted(np.linalg.svd(b, compute_uv=False)), [0.8, 1.0])
    with pytest.raises(DegenerateMarginal):
        build_weighted_matrix(JointPmf(np.array([[0.5, 0.5], [0.0, 0.0]]), ("X", "Y")))


def test_solver_matches_binary_closed_form():
    res = euclid_tai_approx(dsbs(0.1), 0.01, 0.01)
    closed = binary_euclid_approx(0.1, 0.01, 0.01)
    assert abs(res.value - closed) / closed <= 0.05
    assert res.value == pytest.approx(closed, rel=1e-9)


def test_solver_tracks_exact_exponent_at_small_budgets():
    for budget in (0.005, 0.01, 0.02):
        exact = binary_tai_exponent(0.1, budget, budget)
        approx = binary_euclid_approx(0.1, budget, budget)
        assert abs(approx - exact) / exact <= 0.02


def test_solver_budget_scaling():
    # the quadratic value is bilinear in the two budgets
    small = euclid_tai_approx(dsbs(0.1), 0.005, 0.005).value
    large = euclid_tai_approx(dsbs(0.1), 0.01, 0.01).value
    assert large / small == pytest.approx(4.0, rel=1e-8)


def test_perturbations_satisfy_active_constraints():
    rate, leak = 0.008, 0.012
    for law in LAWS:
        res = euclid_tai_approx(law, rate, leak)
        pert = res.perturbations
        rate_spend = 0.5 * LOG2E * float(
            np.sum(pert.p_u * np.sum(pert.k_u**2, axis=1))
        )
        leak_spend = 0.5 * LOG2E * float(
            np.sum(pert.p_xhat * np.sum(pert.k_xhat**2, axis=1))
        )
        assert rate_spend == pytest.approx(rate, abs=1e-12)
        assert leak_spend == pytest.approx(leak, abs=1e-12)
        # perturbations carry no zeroth-order mass
        assert np.allclose(pert.p_u @ pert.k_u, 0.0, atol=1e-12)
        assert np.allclose(pert.p_xhat @ pert.k_xhat, 0.0, atol=1e-12)
        # the quantizer rows stay orthogonal to sqrt(P_Xh)
        assert np.allclose(pert.k_u @ np.sqrt(pert.p_xhat), 0.0, atol=1e-12)
        # and the perturbations reach the returned value
        assert res.value > 0.0
        assert quadratic_objective(law, pert) == pytest.approx(res.value, rel=1e-12)
    # the block law has sigma_2 = 1: the value is the unconstrained 2 ln 2 R L
    assert res.value == pytest.approx((2.0 / LOG2E) * rate * leak, rel=1e-12)


@pytest.mark.parametrize("budget", [math.nan, math.inf])
def test_non_finite_budgets_are_domain_errors(budget):
    with pytest.raises(DomainError):
        euclid_tai_approx(dsbs(0.1), budget, 0.01)
    with pytest.raises(DomainError):
        euclid_tai_approx(dsbs(0.1), 0.01, budget)
    with pytest.raises(DomainError):
        binary_euclid_approx(0.1, 0.01, budget)
    with pytest.raises(DomainError):
        binary_euclid_approx(0.1, budget, 0.5)


def test_singular_bound_caps_the_value():
    skew = JointPmf(np.array([[0.4, 0.1], [0.2, 0.3]]), ("X", "Y"))
    res = euclid_tai_approx(skew, 0.01, 0.01)
    assert 0.0 < res.value <= (2.0 / LOG2E) * 0.01 * 0.01 + 1e-15


def test_independent_source_gives_zero():
    indep = JointPmf(np.outer([0.3, 0.7], [0.6, 0.4]), ("X", "Y"))
    res = euclid_tai_approx(indep, 0.01, 0.01)
    assert res.value == 0.0


def test_zero_budget_short_circuits():
    res = euclid_tai_approx(dsbs(0.1), 0.0, 0.02)
    assert res.value == 0.0
    assert np.allclose(res.perturbations.k_xhat, 0.0)
    with pytest.raises(DomainError):
        euclid_tai_approx(dsbs(0.1), -0.01, 0.01)
