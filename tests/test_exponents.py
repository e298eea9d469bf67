"""Exponent optimizers: closed forms, search anchors, bounds, and witnesses."""

import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privexp import (
    AlphabetMismatch,
    Channel,
    DimensionMismatch,
    DomainError,
    Infeasible,
    InvalidDistribution,
    JointPmf,
    NonpositiveAlternative,
    SearchConfig,
    binary_entropy,
    binary_tai_exponent,
    chain_joint,
    corollary2_bound,
    kl_divergence,
    mutual_information,
    star,
    tai_exponent,
    theorem1_lower_bound,
    zero_rate_exponent,
)
from privexp import exponents
from privexp.exponents import (
    THM1_SEARCH,
    _TAI_BUDGETS,
    _THM1_BUDGETS,
    _ChannelPair,
    _InnerPair,
    _TaiSpace,
    _space_for,
)

# search values frozen from deterministic runs of this package's optimizer;
# the (1, 1) anchor coincides with the closed form 1 - h_b(0.1)
TAI_R1_L1 = 0.5310044064107188
TAI_R05_L05 = 0.17854234231423172
THM1_PRODUCT_R1_L1 = 0.5310044064107192
THM1_PRODUCT_R05_L05 = 0.17831301055264726
# independent numeric minimization of the zero-rate objective agrees to 5e-17
ZERO_RATE_MIXED = 0.15521622802476653
# general-alternative searches against the non-product law ALT, frozen from
# this package's optimizer; the search amplifies round-off, so these also pin
# the arithmetic order of the inner projection
NULL = [[0.4, 0.1], [0.1, 0.4]]
ALT = [[0.2, 0.3], [0.25, 0.25]]
THM1_ALT_R01_L01 = 0.018012384987284785
COR2_ALT_R025 = 0.12545780480224758
# the same three values from the earlier search, which refined coordinate-wise
# before its polish; a lower bound may rise past these but not fall below
THM1_PRODUCT_R05_L05_FLOOR = 0.16115613439575888
THM1_ALT_R01_L01_FLOOR = 0.016442348527723246
COR2_ALT_R025_FLOOR = 0.12545723572984857
# a ternary-X search value, frozen from the finite-difference polish on the
# grids the default budgets give (1000 x 1000 pairs); budgets of 200 collapse
# both grids to deterministic rows and return 0
TERNARY = [[0.20, 0.08, 0.04], [0.06, 0.22, 0.05], [0.03, 0.07, 0.25]]
TAI_TERNARY_R05_L025 = 0.06694984822589965


def dsbs(eps: float) -> JointPmf:
    half = eps / 2.0
    return JointPmf(np.array([[0.5 - half, half], [half, 0.5 - half]]), ("X", "Y"))


# ---------------------------------------------------------------------------
# binary closed form


def test_closed_form_full_budgets():
    assert binary_tai_exponent(0.1, 1.0, 1.0) == pytest.approx(
        1.0 - binary_entropy(0.1), abs=1e-14
    )


def test_closed_form_zero_budget_kills_exponent():
    assert binary_tai_exponent(0.1, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert binary_tai_exponent(0.1, 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_closed_form_symmetric_and_monotone():
    grid = [0.1, 0.3, 0.6, 1.0]
    for r in grid:
        for l in grid:
            assert binary_tai_exponent(0.1, r, l) == pytest.approx(
                binary_tai_exponent(0.1, l, r), abs=1e-14
            )
    vals = [binary_tai_exponent(0.1, r, 0.5) for r in grid]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_closed_form_domain_checks():
    with pytest.raises(DomainError):
        binary_tai_exponent(1.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        binary_tai_exponent(0.1, -0.2, 1.0)


@pytest.mark.parametrize("budget", ["rate", "leak"])
def test_nan_budgets_are_domain_errors(budget, dsbs01, product_uniform):
    # NaN compares false with everything, so `< 0` checks let it through;
    # the message names the budget, not a helper further down
    b = {"rate": 0.5, "leak": 0.5, budget: math.nan}
    match = f"^{budget} nan"
    with pytest.raises(DomainError, match=match):
        binary_tai_exponent(0.1, b["rate"], b["leak"])
    with pytest.raises(DomainError, match=match):
        tai_exponent(dsbs01, b["rate"], b["leak"])
    with pytest.raises(DomainError, match=match):
        theorem1_lower_bound(dsbs01, product_uniform, b["rate"], b["leak"])
    if budget == "rate":
        with pytest.raises(DomainError, match=match):
            corollary2_bound(dsbs01, product_uniform, math.nan)
    # an infinite budget saturates the closed form
    assert binary_tai_exponent(0.1, math.inf, math.inf) == binary_tai_exponent(
        0.1, 1.0, 1.0
    )


# ---------------------------------------------------------------------------
# seed pick


def _argsort_reference(masked, limit):
    order = np.argsort(-masked, axis=None, kind="stable")[:limit]
    return order[masked.reshape(-1)[order] >= 0.0]  # a prefix: sorted descending


def _space_from(vals, feasible):
    """A search space whose ranking sees ``vals`` as I(U;Y), within budgets
    0.5 exactly where ``feasible`` holds."""
    space = _TaiSpace.__new__(_TaiSpace)  # the ranking reads only these arrays
    nm, nq = vals.shape
    space.mechs = np.arange(float(nm)).reshape(nm, 1, 1)
    space.quants = np.arange(float(nq)).reshape(nq, 1, 1)
    space.i_xxh = np.zeros(nm)
    space.i_uxh = np.where(feasible, 0.0, 1.0)
    space.i_uy = vals
    return space


@pytest.mark.parametrize("limit", [1, 7, 200, 1000])
def test_ranked_matches_full_stable_argsort(limit):
    rng = np.random.default_rng(11)
    # coarse values force exact ties across the cut; -1 marks infeasible pairs,
    # and the largest limit exceeds the number of feasible ones
    vals = rng.integers(0, 5, size=(40, 30)) / 4.0
    feasible = rng.random(vals.shape) >= 0.3
    masked = np.where(feasible, vals, -1.0)
    got = _space_from(vals, feasible).ranked(0.5, 0.5)[:limit]
    np.testing.assert_array_equal(got, _argsort_reference(masked, limit))
    assert got.size == min(limit, int(feasible.sum()))


def test_ranked_with_few_feasible_entries():
    masked = np.full((6, 5), -1.0)
    masked.flat[[3, 17, 22, 9]] = [0.2, 0.5, 0.2, 0.0]
    # infeasible pairs carry the largest values, yet never rank
    vals = np.where(masked >= 0.0, masked, 0.9)
    space = _space_from(vals, masked >= 0.0)
    got = space.ranked(0.5, 0.5)
    np.testing.assert_array_equal(got, [17, 3, 22, 9])
    np.testing.assert_array_equal(got, _argsort_reference(masked, 10))
    mech, quant = space.pair(got[0])
    assert (mech.item(), quant.item()) == divmod(int(got[0]), 5)
    with pytest.raises(Infeasible, match="no feasible channel pair"):
        _space_from(np.ones((3, 3)), np.zeros((3, 3), dtype=bool)).ranked(0.5, 0.5)


# ---------------------------------------------------------------------------
# full search


def test_search_attains_closed_form_at_full_budgets():
    res = tai_exponent(dsbs(0.1), 1.0, 1.0)
    assert res.theta == pytest.approx(TAI_R1_L1, abs=1e-9)
    assert res.bound_kind == "exact"
    assert res.rate_mi <= 1.0 + 1e-9
    assert res.leak_mi <= 1.0 + 1e-9


def test_search_frozen_midpoint_anchor():
    res = tai_exponent(dsbs(0.1), 0.5, 0.5)
    assert res.theta == pytest.approx(TAI_R05_L05, abs=1e-9)
    # reported witness channels must actually satisfy both budgets
    chain = chain_joint(dsbs(0.1), res.mechanism, res.quantizer)
    assert mutual_information(chain.marginal("X", "Xh"), "X") <= 0.5 + 1e-6
    assert mutual_information(chain.marginal("U", "Xh")) <= 0.5 + 1e-6


def test_search_with_infinite_budgets_reaches_the_mutual_information():
    # scipy drops a constraint whose bounds are all infinite, and the polish
    # once ended in an IndexError inside minimize
    src = dsbs(0.1)
    res = tai_exponent(src, math.inf, math.inf)
    assert res.theta == pytest.approx(mutual_information(src), abs=1e-9)


def test_search_vanishes_at_zero_budgets():
    assert tai_exponent(dsbs(0.1), 0.0, 1.0).theta <= 1e-6
    assert tai_exponent(dsbs(0.1), 1.0, 0.0).theta <= 1e-6


def test_search_dominates_closed_form_on_sample_points():
    for r, l in [(0.25, 0.3), (0.5, 0.7)]:
        assert tai_exponent(dsbs(0.1), r, l).theta >= (
            binary_tai_exponent(0.1, r, l) - 1e-2
        )


def test_asymmetric_mechanism_beats_symmetric_closed_form():
    """A hand-built feasible point exceeds the all-symmetric value at R >> L.

    The mechanism leaks through a rare output symbol, leaving H(Xh) below the
    rate budget so a near-lossless ternary quantizer fits. The optimizer must
    do at least as well as this witness.
    """
    rate, leak = 0.5, 0.1
    mech = Channel(np.array([[0.0, 1.0], [0.18618897, 0.81381103]]))
    quant = Channel(np.array([[0.0, 1.0 / 3.0, 2.0 / 3.0], [1.0, 0.0, 0.0]]))
    chain = chain_joint(dsbs(0.1), mech, quant)
    leak_mi = mutual_information(chain.marginal("X", "Xh"), "X")
    rate_mi = mutual_information(chain.marginal("U", "Xh"))
    value = mutual_information(chain.marginal("U", "Y"))
    assert leak_mi <= leak
    assert rate_mi <= rate
    closed = binary_tai_exponent(0.1, rate, leak)
    assert value >= closed + 1.4e-2
    assert tai_exponent(dsbs(0.1), rate, leak).theta >= value - 5e-4


def test_bsc_restricted_search_recovers_closed_form():
    for r, l in [(0.5, 0.1), (0.5, 0.5)]:
        got = tai_exponent(dsbs(0.1), r, l, SearchConfig(restrict_bsc=True)).theta
        assert got == pytest.approx(binary_tai_exponent(0.1, r, l), abs=1e-9)


def test_search_monotone_in_budgets():
    lo = tai_exponent(dsbs(0.1), 0.25, 0.25).theta
    mid = tai_exponent(dsbs(0.1), 0.5, 0.5).theta
    hi = tai_exponent(dsbs(0.1), 1.0, 1.0).theta
    assert lo <= mid + 1e-9 <= hi + 2e-9


def test_ternary_search_anchor_and_binary_grid_size():
    res = tai_exponent(JointPmf(np.array(TERNARY), ("X", "Y")), 0.5, 0.25)
    assert res.theta == pytest.approx(TAI_TERNARY_R05_L025, abs=1e-9)
    space = _space_for(np.asarray(dsbs(0.1).probs), 3, SearchConfig(), _TAI_BUDGETS)
    assert space.mechs.shape[0] * space.quants.shape[0] <= 100_000


def test_default_grids_on_a_binary_law():
    # pins the per-method budget constants: a drifted one changes a grid size
    p = np.asarray(dsbs(0.1).probs)
    tai = _space_for(p, 3, SearchConfig(), _TAI_BUDGETS)
    assert (tai.mechs.shape[0], tai.quants.shape[0]) == (121, 784)
    assert (tai.mech_step, tai.quant_step) == (0.1, 1 / 6)
    thm1 = _space_for(p, 4, THM1_SEARCH, _THM1_BUDGETS)
    assert (thm1.mechs.shape[0], thm1.quants.shape[0]) == (81, 400)
    assert (thm1.mech_step, thm1.quant_step) == (1 / 8, 1 / 3)


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=40, deadline=None)
def test_channel_pair_jacobian_matches_central_differences(seed, bsc):
    rng = np.random.default_rng(seed)
    kx, ky = (2, int(rng.integers(2, 4))) if bsc else rng.integers(2, 4, size=2)
    p = rng.dirichlet(np.ones(kx * ky)).reshape(kx, ky)
    if bsc:
        pair = _ChannelPair(p, 2, 2, bsc)
        theta = rng.uniform(0.05, 0.45, size=2)
    else:
        kh, ku = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        # interior rows, so that no central-difference step leaves the simplex
        mech = 0.5 * rng.dirichlet(np.ones(kh), size=kx) + 0.5 / kh
        quant = 0.5 * rng.dirichlet(np.ones(ku), size=kh) + 0.5 / ku
        pair = _ChannelPair(p, kh, ku)
        theta = pair.free(mech, quant)
    jac = pair.jac(theta)
    step = 1e-6
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = step
        central = (np.array(pair.info(theta + e)) - np.array(pair.info(theta - e))) / (2 * step)
        np.testing.assert_allclose(jac[:, i], central, atol=1e-6)


def test_channel_pair_jacobian_into_unused_symbols_is_one_sided():
    # Xh symbol 1 and U symbol 1 are unused; a forward step moves mass into
    # them, and each information quantity grows linearly in the step there
    p = np.array([[0.30, 0.15, 0.05], [0.05, 0.15, 0.30]])
    mech = np.array([[0.6, 0.0, 0.4], [0.3, 0.0, 0.7]])
    quant = np.array([[0.5, 0.0, 0.5], [0.2, 0.0, 0.8], [0.7, 0.0, 0.3]])
    pair = _ChannelPair(p, 3, 3)
    theta = pair.free(mech, quant)
    jac = pair.jac(theta)
    base = np.array(pair.info(theta))
    step = 1e-7
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = step
        forward = (np.array(pair.info(theta + e)) - base) / step
        np.testing.assert_allclose(jac[:, i], forward, atol=1e-5)


def test_zero_row_and_column_give_a_finite_value_without_warnings():
    law = JointPmf(np.array([[0.4, 0.1, 0.0], [0.1, 0.4, 0.0], [0.0, 0.0, 0.0]]), ("X", "Y"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = tai_exponent(law, 0.5, 0.25)
        # a vertex of both channel simplices, where many log arguments are floored
        pair = _ChannelPair(np.asarray(law.probs), 3, 4)
        jac = pair.jac(pair.free(np.eye(3), np.eye(3, 4)))
    assert math.isfinite(res.theta) and 0.0 <= res.theta <= 0.25 + 1e-9
    assert np.all(np.isfinite(jac))


@pytest.mark.parametrize("field, value", [
    ("grid_step", 0.0), ("grid_step", -1.0), ("grid_step", 1.5),
    ("grid_step", float("nan")), ("grid_step", float("inf")),
])
def test_search_config_rejects_out_of_domain_fields(field, value):
    with pytest.raises(DomainError, match=field):
        SearchConfig(**{field: value})


def test_search_input_validation():
    with pytest.raises(DomainError):
        tai_exponent(dsbs(0.1), -1.0, 0.5)
    three = JointPmf(np.full((2, 2, 2), 0.125), ("X", "Y", "Z"))
    with pytest.raises(DimensionMismatch):
        tai_exponent(three, 1.0, 1.0)


# ---------------------------------------------------------------------------
# lower bound against a general alternative


def test_lower_bound_vanishes_when_laws_coincide():
    res = theorem1_lower_bound(dsbs(0.1), dsbs(0.1), 1.0, 1.0)
    assert res.bound_kind == "lower_bound"
    assert res.theta <= 1e-9


def test_lower_bound_recovers_independence_case(product_uniform):
    res = theorem1_lower_bound(dsbs(0.1), product_uniform, 1.0, 1.0)
    assert res.theta == pytest.approx(THM1_PRODUCT_R1_L1, abs=1e-9)
    assert res.theta == pytest.approx(TAI_R1_L1, abs=1e-6)


def test_lower_bound_is_below_the_search_value(product_uniform):
    res = theorem1_lower_bound(dsbs(0.1), product_uniform, 0.5, 0.5)
    assert res.theta == pytest.approx(THM1_PRODUCT_R05_L05, abs=1e-9)
    assert res.theta >= THM1_PRODUCT_R05_L05_FLOOR - 1e-9
    assert res.theta <= TAI_R05_L05 + 1e-9
    assert res.inner_witness is not None


def alt_pair() -> tuple[JointPmf, JointPmf]:
    return JointPmf(np.array(NULL), ("X", "Y")), JointPmf(np.array(ALT), ("X", "Y"))


def test_lower_bound_non_product_anchor():
    p, q = alt_pair()
    res = theorem1_lower_bound(p, q, 0.1, 0.1)
    assert res.theta == pytest.approx(THM1_ALT_R01_L01, abs=1e-12)
    assert res.theta >= THM1_ALT_R01_L01_FLOOR - 1e-9
    cor2 = corollary2_bound(p, q, 0.25).theta
    assert cor2 == pytest.approx(COR2_ALT_R025, abs=1e-12)
    assert cor2 >= COR2_ALT_R025_FLOOR - 1e-9


def test_lower_bound_reaches_the_divergence_at_full_budgets():
    # with R = L = H(X) = 1 bit, X itself can be sent, and the inner
    # projection collapses to D(P || Q)
    p, q = alt_pair()
    start = time.monotonic()
    res = theorem1_lower_bound(p, q, 1.0, 1.0)
    assert time.monotonic() - start < 10.0
    assert res.theta == pytest.approx(kl_divergence(p, q), abs=1e-9)


def test_lower_bound_with_infinite_budgets_reaches_the_divergence():
    # once an IndexError inside minimize, as for the independence search
    p, q = alt_pair()
    res = theorem1_lower_bound(p, q, math.inf, math.inf)
    assert res.theta == pytest.approx(kl_divergence(p, q), abs=1e-9)


def test_lower_bound_monotone_in_budgets():
    p, q = alt_pair()
    budgets = [0.1, 0.25, 0.5]
    theta = np.array([[theorem1_lower_bound(p, q, r, l).theta for l in budgets]
                      for r in budgets])
    assert np.all(np.diff(theta, axis=0) >= -1e-9), theta  # in R
    assert np.all(np.diff(theta, axis=1) >= -1e-9), theta  # in L


@pytest.mark.parametrize("rate", [0.25, 0.5])
def test_lower_bound_dominates_corollary2_once_identity_is_feasible(rate):
    # Corollary 2 is Theorem 1 at the identity mechanism, which leaks H(X) = 1 bit
    p, q = alt_pair()
    assert theorem1_lower_bound(p, q, rate, 1.0).theta >= (
        corollary2_bound(p, q, rate).theta - 1e-9
    )


def inner_pair(p, q, kh: int, ku: int) -> _InnerPair:
    p = np.asarray(p, dtype=float)
    q_xy = JointPmf(np.asarray(q, dtype=float), ("X", "Y"))
    return _InnerPair(p, q_xy, kh, ku)


def tight_values(monkeypatch):
    """Solve the inner projections that follow to residual 1e-13.

    The search solves them to 1e-9; its values then carry an error that is
    smooth only to about 1e-7 in the slope, more than the gradient's own
    (about 1e-10).
    """
    real = exponents.i_project
    monkeypatch.setattr(exponents, "i_project", lambda ref, cons, tol, max_iter:
                        real(ref, cons, tol=1e-13, max_iter=200_000))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_theorem1_gradient_matches_central_differences(seed):
    with pytest.MonkeyPatch.context() as monkeypatch:
        check_central_differences(seed, monkeypatch)


def check_central_differences(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    kx, ky = (int(k) for k in rng.integers(2, 4, size=2))
    p = rng.dirichlet(np.ones(kx * ky)).reshape(kx, ky)
    q = rng.dirichlet(np.ones(kx * ky)).reshape(kx, ky)
    ku = kx + 2
    # interior rows, so that no central-difference step leaves the simplex
    mech = 0.5 * rng.dirichlet(np.ones(kx), size=kx) + 0.5 / kx
    quant = 0.5 * rng.dirichlet(np.ones(ku), size=kx) + 0.5 / ku
    pair = inner_pair(p, q, kx, ku)
    theta = pair.free(mech, quant)
    grad = pair.grad(theta)
    tight_values(monkeypatch)
    pair = inner_pair(p, q, kx, ku)
    step = 1e-6
    central = [(pair.value(theta + e) - pair.value(theta - e)) / (2 * step)
               for e in step * np.eye(theta.size)]
    np.testing.assert_allclose(grad, central, atol=5e-9)


# (mechanism, quantizer) on the faces of the simplex, each row's last entry
# positive so that a forward step on any free parameter stays a channel
THM1_FACES = {
    "grid-face": ([[0.0, 1.0], [0.25, 0.75]],
                  [[0.5, 0.0, 0.25, 0.25], [0.0, 1 / 3, 1 / 3, 1 / 3]]),
    "zero-quantizer-cells": ([[0.8, 0.2], [0.3, 0.7]],
                             [[0.5, 0.0, 0.0, 0.5], [0.0, 0.3, 0.2, 0.5]]),
    "unused-u": ([[0.8, 0.2], [0.3, 0.7]],
                 [[0.5, 0.0, 0.2, 0.3], [0.2, 0.0, 0.3, 0.5]]),
    "unused-xh": ([[0.0, 1.0], [0.0, 1.0]],
                  [[0.5, 0.2, 0.1, 0.2], [0.2, 0.3, 0.4, 0.1]]),
    "unused-xh-and-u": ([[0.0, 1.0], [0.0, 1.0]],
                        [[0.5, 0.2, 0.1, 0.2], [0.2, 0.0, 0.4, 0.4]]),
}


@pytest.mark.parametrize("face", sorted(THM1_FACES))
def test_theorem1_gradient_on_simplex_faces_is_one_sided(face, monkeypatch):
    # a zero-target cell has dual -inf; the gradient completes it from the
    # cell's own optimality condition and must match the forward slope
    # (Richardson-extrapolated, so the check is exact to O(step^2))
    mech, quant = (np.array(m) for m in THM1_FACES[face])
    pair = inner_pair(NULL, ALT, 2, 4)
    theta = pair.free(mech, quant)
    grad = pair.grad(theta)
    assert np.all(np.isfinite(grad))
    tight_values(monkeypatch)
    pair = inner_pair(NULL, ALT, 2, 4)
    base = pair.value(theta)
    step = 1e-6
    forward = [2 * (pair.value(theta + e) - base) / step
               - (pair.value(theta + 2 * e) - base) / (2 * step)
               for e in step * np.eye(theta.size)]
    np.testing.assert_allclose(grad, forward, atol=5e-9)
    if face.startswith("unused-xh"):
        # the quantizer row of an unused Xh symbol does not move the value
        assert np.all(grad[2:5] == 0.0)


def test_failed_inner_projection_scores_the_sentinel_with_zero_gradient():
    # Q puts no mass on Y = 1, which the (U, Y) target of the null chain needs
    pair = inner_pair(NULL, [[0.5, 0.0], [0.5, 0.0]], 2, 4)
    theta = pair.free(np.full((2, 2), 0.5), np.full((2, 4), 0.25))
    assert pair.value(theta) == -1e3
    assert np.array_equal(pair.grad(theta), np.zeros(theta.size))


def test_theorem1_query_makes_few_projections(monkeypatch):
    # the finite-difference polish made 238 projections in this query, one
    # per free parameter per gradient; the exact gradient makes 110
    real = exponents.i_project
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(exponents, "i_project", counting)
    p, q = alt_pair()
    theorem1_lower_bound(p, q, 0.5, 0.5)
    assert len(calls) <= 130


def test_lower_bound_refuses_the_bsc_restriction(product_uniform):
    with pytest.raises(DomainError, match="restrict_bsc"):
        theorem1_lower_bound(dsbs(0.1), product_uniform, 0.5, 0.5,
                             replace(THM1_SEARCH, restrict_bsc=True))
    with pytest.raises(DomainError, match="restrict_bsc"):
        corollary2_bound(dsbs(0.1), product_uniform, 0.5,
                         replace(THM1_SEARCH, restrict_bsc=True))


@pytest.mark.parametrize("mech, match", [
    ([[1.0, 0.0], [np.nan, 0.5]], "row 1: non-finite"),
    ([[1.2, -0.2], [0.0, 1.0]], "row 0: negative"),
    ([[0.9, 0.9], [0.9, 0.9]], "row 0: total mass 1.8"),
], ids=["nan", "negative", "mass-1.8"])
def test_fixed_mechanism_must_be_a_channel(mech, match, product_uniform):
    with pytest.raises(InvalidDistribution, match=match):
        theorem1_lower_bound(dsbs(0.1), product_uniform, 0.5, 0.5,
                             fixed_mechanism=np.array(mech))


def test_lower_bound_validation(product_uniform):
    with pytest.raises(DomainError):
        theorem1_lower_bound(dsbs(0.1), product_uniform, -0.5, 0.5)
    wide = JointPmf(np.full((2, 3), 1.0 / 6.0), ("X", "Y"))
    with pytest.raises(AlphabetMismatch):
        theorem1_lower_bound(dsbs(0.1), wide, 0.5, 0.5)


# ---------------------------------------------------------------------------
# unconstrained-leak bound and zero-rate floor


def test_unconstrained_leak_bound_recovers_full_budget_value(product_uniform):
    res = corollary2_bound(dsbs(0.1), product_uniform, 1.0)
    assert res.theta == pytest.approx(THM1_PRODUCT_R1_L1, abs=1e-9)
    assert res.leak is None


def test_unconstrained_leak_bound_vanishes_when_laws_coincide():
    assert corollary2_bound(dsbs(0.1), dsbs(0.1), 1.0).theta <= 1e-9


def test_zero_rate_vanishes_for_independence_instances(dsbs01, product_uniform):
    assert zero_rate_exponent(dsbs01, product_uniform).theta == pytest.approx(
        0.0, abs=1e-12
    )


def test_zero_rate_mixed_instance_anchor(product_uniform):
    skew = JointPmf(np.outer([0.7, 0.3], [0.4, 0.6]), ("X", "Y"))
    res = zero_rate_exponent(product_uniform, skew)
    assert res.theta == pytest.approx(ZERO_RATE_MIXED, abs=1e-9)


def test_zero_rate_vanishes_when_alternative_matches_marginals(dsbs01):
    # an alternative sharing both marginals sits inside the feasible set
    assert zero_rate_exponent(dsbs01, dsbs(0.4)).theta <= 1e-9


def test_zero_rate_requires_positive_alternative(dsbs01):
    degenerate = JointPmf(np.array([[0.5, 0.0], [0.0, 0.5]]), ("X", "Y"))
    with pytest.raises(NonpositiveAlternative):
        zero_rate_exponent(dsbs01, degenerate)
    wide = JointPmf(np.full((2, 3), 1.0 / 6.0), ("X", "Y"))
    with pytest.raises(AlphabetMismatch):
        zero_rate_exponent(dsbs01, wide)
