"""Relations the exponents must satisfy between queries, whatever their values.

The searches run on the first three Dirichlet(1) draws of ``default_rng(11)``
and on DSBS(0.1); the optimum over binary symmetric channels on DSBS(0.1) and
on twelve Dirichlet(1) binary laws of ``default_rng(3)``. A miss here is a
defect: the tolerances sit above the round-off that was seen (1.45e-11 for
relabelling, 3.06e-9 for independence, 4.6e-13 for Theorem 1 above Corollary
2, 3e-16 for the witness's informations recomputed, 3.3e-14 for the
symmetric optimum against the binary closed form, 2.4e-15 for a zero-mass
symbol, 2.2e-15 for the search below the symmetric optimum, 6.7e-16 for
Theorem 1 above the divergence and none for it below the zero-rate
exponent) and are not to be widened to pass.
"""

import math

import numpy as np
import pytest

from privexp import (
    JointPmf,
    binary_tai_exponent,
    corollary2_bound,
    symmetric_tai_exponent,
    tai_exponent,
    theorem1_lower_bound,
    zero_rate_exponent,
)


def _laws() -> dict:
    rng = np.random.default_rng(11)
    return {f"{kx}x{ky}": rng.dirichlet(np.ones(kx * ky)).reshape(kx, ky)
            for kx, ky in ((2, 2), (2, 3), (3, 2))}


LAWS = _laws()
POINTS = [(0.25, 0.25), (0.5, 0.5), (0.25, 1.0)]


def joint(p) -> JointPmf:
    return JointPmf(np.asarray(p, dtype=float), ("X", "Y"))


def mi_bits(p: np.ndarray) -> float:
    """I(A;B) in bits of a joint table p[a, b], written apart from the package's kernel."""
    product = p.sum(axis=1, keepdims=True) * p.sum(axis=0, keepdims=True)
    mass = p > 0
    return float((p[mass] * np.log2(p[mass] / product[mass])).sum())


def kl_bits(p: np.ndarray, q: np.ndarray) -> float:
    """D(p || q) in bits of two positive tables, written apart from the package's kernel."""
    return float((p * np.log2(p / q)).sum())


@pytest.mark.parametrize("rate, leak", POINTS)
@pytest.mark.parametrize("law", sorted(LAWS))
def test_relabelling_both_alphabets_keeps_the_tai_exponent(law, rate, leak):
    p = LAWS[law]
    theta = tai_exponent(joint(p), rate, leak).theta
    relabelled = tai_exponent(joint(p[::-1, ::-1]), rate, leak).theta
    assert abs(relabelled - theta) <= 1e-9


@pytest.mark.parametrize("rate, leak", POINTS)
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("law", ["2x3", "3x2"])
def test_relabelling_one_alphabet_keeps_the_tai_exponent(law, axis, rate, leak):
    # a swap on the binary alphabet, a 3-cycle on the ternary one
    p = LAWS[law]
    cycle = np.roll(np.arange(p.shape[axis]), -1)
    theta = tai_exponent(joint(p), rate, leak).theta
    relabelled = tai_exponent(joint(np.take(p, cycle, axis=axis)), rate, leak).theta
    assert abs(relabelled - theta) <= 1e-9


@pytest.mark.parametrize("rate, leak", POINTS)
@pytest.mark.parametrize("law", sorted(LAWS))
def test_theorem1_against_the_product_of_marginals_is_the_tai_exponent(law, rate, leak):
    # testing against independence is Theorem 1 with Q = P_X x P_Y, where it is exact
    p = LAWS[law]
    product = np.outer(p.sum(axis=1), p.sum(axis=0))
    bound = theorem1_lower_bound(joint(p), joint(product), rate, leak).theta
    assert abs(bound - tai_exponent(joint(p), rate, leak).theta) <= 1e-8


@pytest.mark.parametrize("rate, leak", POINTS)
@pytest.mark.parametrize("law", sorted(LAWS))
def test_corollary2_is_at_least_theorem1(law, rate, leak):
    # Corollary 2 is Theorem 1 with the leak budget lifted and the mechanism
    # pinned to the identity; the alternative is halfway between the law and
    # the product of its marginals
    p = LAWS[law]
    q = 0.5 * p + 0.5 * np.outer(p.sum(axis=1), p.sum(axis=0))
    bound = theorem1_lower_bound(joint(p), joint(q), rate, leak).theta
    assert corollary2_bound(joint(p), joint(q), rate).theta >= bound - 1e-9


@pytest.mark.parametrize("rate, leak", POINTS)
def test_corollary2_is_at_least_theorem1_against_the_reversed_law(rate, leak):
    # the 2x2 law against itself reversed in both axes, where both bounds
    # read 0.540603 at every point; cyclic scaling, solved to 1e-9, once put
    # Corollary 2 up to 2.42e-9 below Theorem 1 here
    p = LAWS["2x2"]
    q = p[::-1, ::-1]
    bound = theorem1_lower_bound(joint(p), joint(q), rate, leak).theta
    assert corollary2_bound(joint(p), joint(q), rate).theta >= bound - 1e-9


# the alternatives of the Theorem-1 relations: halfway between the law and the
# product of its marginals, and the law reversed in both axes
ALTERNATIVES = {
    "halfway": lambda p: 0.5 * p + 0.5 * np.outer(p.sum(axis=1), p.sum(axis=0)),
    "reversed": lambda p: p[::-1, ::-1],
}


@pytest.mark.parametrize("rate, leak", POINTS)
@pytest.mark.parametrize("alt", sorted(ALTERNATIVES))
@pytest.mark.parametrize("law", sorted(LAWS))
def test_theorem1_lies_between_the_zero_rate_exponent_and_the_divergence(law, alt, rate, leak):
    # a constant quantizer scores the zero-rate exponent at any budgets, and
    # by data processing no channel pair scores above D(P || Q). The floor's
    # tolerance is that of its two projections, each solved to 1e-9; on the
    # reversed 2x2 law the floor is the ceiling
    p = LAWS[law]
    q = ALTERNATIVES[alt](p)
    floor = zero_rate_exponent(joint(p), joint(q)).theta
    bound = theorem1_lower_bound(joint(p), joint(q), rate, leak).theta
    assert floor - 2e-9 <= bound <= kl_bits(p, q) + 1e-12


@pytest.mark.parametrize("rate, leak", [*POINTS, (0.0, 0.0)])
@pytest.mark.parametrize("law", sorted(LAWS))
def test_the_returned_witness_obeys_data_processing(law, rate, leak):
    # Y - X - Xh - U through the returned mechanism and quantizer: its
    # informations are the reported ones, U learns no more of Y than of Xh,
    # and the reported budgets hold exactly, at zero budgets too
    p = LAWS[law]
    res = tai_exponent(joint(p), rate, leak)
    mech, quant = res.mechanism.matrix, res.quantizer.matrix
    x_xh = p.sum(axis=1)[:, None] * mech
    i_xxh = mi_bits(x_xh)
    i_uxh = mi_bits(x_xh.sum(axis=0)[:, None] * quant)
    i_uy = mi_bits(quant.T @ mech.T @ p)
    assert abs(i_xxh - res.leak_mi) <= 1e-12
    assert abs(i_uxh - res.rate_mi) <= 1e-12
    assert abs(i_uy - res.theta) <= 1e-12
    # the reported bits obey data processing and meet both budgets exactly;
    # at zero budgets the recomputed ones are round-off of 0, either sign
    assert res.theta <= res.rate_mi <= rate
    assert res.leak_mi <= leak
    assert i_uy <= mi_bits(p)


DSBS = [[0.45, 0.05], [0.05, 0.45]]
# criterion 1's grid of budgets
CRITERION_1 = [(rate, round(0.05 * k, 2)) for rate in (0.1, 0.25, 0.5, 1.0) for k in range(1, 21)]


@pytest.mark.parametrize("rate, leak", [
    (0.1, 0.1), (0.1, 0.5), (0.5, 0.1), (0.25, 0.25), (0.5, 0.5), (1.0, 1.0), (0.25, 1.0),
    (0.02, 0.02), (math.inf, 0.25), (0.25, math.inf)])
def test_a_zero_mass_source_symbol_keeps_the_tai_exponent(rate, leak):
    # the padded law is the same problem; on a grid its ternary X once
    # coarsened the lattice until only trivial pairs fitted: 0 at (0.1, 0.1)
    padded = np.vstack([DSBS, [0.0, 0.0]])
    theta = tai_exponent(joint(DSBS), rate, leak).theta
    assert abs(tai_exponent(joint(padded), rate, leak).theta - theta) <= 1e-9


def test_the_search_is_at_least_the_symmetric_optimum_and_below_the_sdpi_cap():
    # a pair of BSCs is a pair of channels, and I(U;Y) <= eta * min(R, L) for
    # the strong data-processing constant eta = (1 - 2q)^2 = 0.64 of BSC(0.1)
    source = joint(DSBS)
    for rate, leak in CRITERION_1:
        theta = tai_exponent(source, rate, leak).theta
        assert theta >= symmetric_tai_exponent(source, rate, leak).theta - 1e-12, (rate, leak)
        assert theta <= 0.64 * min(rate, leak), (rate, leak)


def test_small_budgets_leave_no_zero_search_values():
    # a grid search returned round-off (2.8e-16) on this law and 0 on DSBS(0.1)
    # at t = 0.01 and 0.005, where the rare-flag hull gives these values
    law = np.random.default_rng(3).dirichlet(np.ones(12)).reshape(4, 3)
    assert tai_exponent(joint(law), 0.25, 0.25).theta > 0.05
    for t, hull in ((0.01, 7.8598e-4), (0.005, 3.4296e-4)):
        assert abs(tai_exponent(joint(DSBS), t, t).theta - hull) <= 1e-6


# ---------------------------------------------------------------------------
# the optimum over binary symmetric channels (``symmetric_tai_exponent``)

# twelve Dirichlet(1) binary laws from default_rng(3), at five budget pairs
def _binary_laws() -> list:
    rng = np.random.default_rng(3)
    return [rng.dirichlet(np.ones(4)).reshape(2, 2) for _ in range(12)]


BINARY_LAWS = _binary_laws()
BINARY_POINTS = [(0.25, 0.25), (0.5, 0.1), (0.1, 0.5), (0.5, 0.5), (1.0, 0.25)]


def h2(t: np.ndarray) -> np.ndarray:
    """Binary entropy in bits, elementwise."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = [np.where(s > 0, -s * np.log2(s), 0.0) for s in (t, 1.0 - t)]
    return terms[0] + terms[1]


def conv(a, b):
    return a * (1.0 - b) + (1.0 - a) * b


def crossover_scan(p: np.ndarray, rate: float, leak: float, points: int = 201) -> float:
    """The best I(U;Y) over BSC(a) then BSC(b) on a points x points grid of
    crossovers in [0, 1/2], among the pairs within both budgets."""
    a = np.linspace(0.0, 0.5, points)[:, None]
    b = np.linspace(0.0, 0.5, points)[None, :]
    x1 = p[1].sum()  # P(X = 1)
    p_y = p.sum(axis=0)
    xh1 = conv(x1, a)  # P(Xh = 1)
    leak_mi = h2(xh1) - h2(a)
    rate_mi = h2(conv(xh1, b)) - h2(b)
    c = conv(a, b)  # U is X through BSC(c)
    value = h2(conv(x1, c)) - sum(w * h2(conv(p[1, y] / w, c)) for y, w in enumerate(p_y))
    within = (leak_mi <= leak) & (rate_mi <= rate)
    return float(value[within].max())


def test_symmetric_optimum_is_the_binary_closed_form_on_the_criterion_1_grid():
    source = joint(DSBS)
    for rate, leak in CRITERION_1:
        theta = symmetric_tai_exponent(source, rate, leak).theta
        assert abs(theta - binary_tai_exponent(0.1, rate, leak)) <= 1e-12, (rate, leak)


@pytest.mark.parametrize("law", range(len(BINARY_LAWS)))
def test_symmetric_optimum_is_non_decreasing_in_each_budget(law):
    p = joint(BINARY_LAWS[law])
    budgets = [0.0, 0.01, 0.1, 0.25, 0.5, 1.0, np.inf]
    for fixed in (0.1, 0.5):
        by_rate = [symmetric_tai_exponent(p, r, fixed).theta for r in budgets]
        by_leak = [symmetric_tai_exponent(p, fixed, l).theta for l in budgets]
        assert by_rate == sorted(by_rate) and by_leak == sorted(by_leak), (fixed, by_rate, by_leak)


@pytest.mark.parametrize("rate, leak", BINARY_POINTS)
@pytest.mark.parametrize("law", range(len(BINARY_LAWS)))
def test_symmetric_optimum_is_at_least_a_crossover_scan(law, rate, leak):
    # the scan's arithmetic is its own, so a tie may differ by round-off
    p = BINARY_LAWS[law]
    theta = symmetric_tai_exponent(joint(p), rate, leak).theta
    assert theta >= crossover_scan(p, rate, leak) - 1e-12


@pytest.mark.parametrize("rate, leak", BINARY_POINTS)
@pytest.mark.parametrize("law", range(len(BINARY_LAWS)))
def test_symmetric_witness_meets_both_budgets_exactly(law, rate, leak):
    p = BINARY_LAWS[law]
    res = symmetric_tai_exponent(joint(p), rate, leak)
    assert res.rate_mi <= rate and res.leak_mi <= leak
    # the witness is a pair of BSCs whose informations are the reported ones
    mech, quant = res.mechanism.matrix, res.quantizer.matrix
    for channel in (mech, quant):
        assert channel[0, 1] == channel[1, 0] and channel[0, 0] == channel[1, 1]
    x_xh = p.sum(axis=1)[:, None] * mech
    assert abs(mi_bits(x_xh) - res.leak_mi) <= 1e-12
    assert abs(mi_bits(x_xh.sum(axis=0)[:, None] * quant) - res.rate_mi) <= 1e-12
    assert abs(mi_bits(quant.T @ mech.T @ p) - res.theta) <= 1e-12
