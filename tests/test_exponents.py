"""Exponent optimizers: closed forms, search anchors, bounds, and witnesses."""

import math
import time
import tracemalloc
import warnings
from collections import Counter
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
    InvariantViolation,
    JointPmf,
    NonpositiveAlternative,
    SearchConfig,
    TooLarge,
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
from privexp import exponents, iproject
from privexp.exponents import (
    THM1_SEARCH,
    _TAI_BUDGETS,
    _THM1_BUDGETS,
    _ChannelPair,
    _fit_step,
    _MAX_GRID_PAIRS,
    _InnerPair,
    _TaiSpace,
    _bsc_grid,
    _lattice,
    _space_for,
)
from privexp.probcore import _mi_batch, _pair_joints

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
    space = _space_from(vals, feasible)
    for bounded in (False, True):
        ranked = space.ranked(0.5, 0.5, limit if bounded else None)
        got = ranked[:limit]
        np.testing.assert_array_equal(got, _argsort_reference(masked, limit))
        assert got.size == min(limit, int(feasible.sum()))
        # a bounded ranking is a prefix of the full one that keeps every tie at the cut
        np.testing.assert_array_equal(ranked, _argsort_reference(masked, ranked.size))
        if bounded and limit < feasible.sum():
            assert ranked.size == int(np.sum(masked >= vals.flat[got[-1]])) > limit


def test_ranked_with_few_feasible_entries():
    masked = np.full((6, 5), -1.0)
    masked.flat[[3, 17, 22, 9]] = [0.2, 0.5, 0.2, 0.0]
    # infeasible pairs carry the largest values, yet never rank
    vals = np.where(masked >= 0.0, masked, 0.9)
    space = _space_from(vals, masked >= 0.0)
    got = space.ranked(0.5, 0.5)
    np.testing.assert_array_equal(got, [17, 3, 22, 9])
    np.testing.assert_array_equal(got, _argsort_reference(masked, 10))
    # a limit above the feasible count keeps them all; a limit of 2 cuts
    # between the tied 3 and 22 and keeps both
    np.testing.assert_array_equal(space.ranked(0.5, 0.5, 10), got)
    np.testing.assert_array_equal(space.ranked(0.5, 0.5, 2), [17, 3, 22])
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


@pytest.mark.parametrize("step", [1e-300, 1e-4, 0.02, 0.1, 0.3, 0.4, 0.7, 1.0])
def test_bsc_crossovers_split_the_half_interval(step):
    mats, lattice = _bsc_grid(step, _TAI_BUDGETS[0])
    a = mats[:, 0, 1]
    assert a[0] == 0.0 and a[-1] == 0.5 and np.all(np.diff(a) > 0)
    assert np.allclose(np.diff(a), lattice, rtol=0.0, atol=1e-15)
    assert 3 <= len(a) <= _TAI_BUDGETS[0]
    assert np.array_equal(mats[:, 1, 0], a) and np.array_equal(mats[:, 0, 0], 1 - a)


@pytest.mark.parametrize("step", [0.01, 0.02, 0.05, 0.1, 1 / 8, 1 / 4])
def test_bsc_crossovers_at_a_step_that_divides_one_half_are_its_multiples(step):
    a = _bsc_grid(step, _TAI_BUDGETS[0])[0][:, 0, 1]
    assert np.array_equal(a, np.arange(round(0.5 / step) + 1) * step)


@pytest.mark.parametrize("step", [0.3, 0.7, 1.0])
def test_bsc_search_at_a_coarse_step_recovers_closed_form(step):
    # crossovers once ran past 1/2: {0, 0.7} at 0.7 gave 0.0119, and {0}
    # alone at 1.0 left no pair within the budgets
    cfg = SearchConfig(grid_step=step, restrict_bsc=True)
    res = tai_exponent(dsbs(0.1), 0.5, 0.5, cfg)
    assert res.theta == pytest.approx(binary_tai_exponent(0.1, 0.5, 0.5), abs=1e-9)
    assert res.grid_step == 0.25


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


def test_grid_cache_keeps_the_newest_grids(monkeypatch):
    monkeypatch.setattr(exponents, "_SPACE_CACHE", {})
    cap = exponents._SPACE_CACHE_MAX
    cfg = SearchConfig(grid_step=0.25, restrict_bsc=True)  # 3 x 3 BSC pairs
    laws = [np.asarray(dsbs(eps).probs) for eps in np.linspace(0.1, 0.5, cap + 1)]
    spaces = [_space_for(p, 2, cfg, _TAI_BUDGETS) for p in laws]
    assert len(exponents._SPACE_CACHE) == cap
    # a hit is the same object, found by value; the first law was evicted
    assert _space_for(laws[-1].copy(), 2, cfg, _TAI_BUDGETS) is spaces[-1]
    rebuilt = _space_for(laws[0], 2, cfg, _TAI_BUDGETS)
    assert rebuilt is not spaces[0]
    # rebuilding it evicted the oldest entry left, the second law
    assert len(exponents._SPACE_CACHE) == cap
    assert _space_for(laws[2], 2, cfg, _TAI_BUDGETS) is spaces[2]
    assert _space_for(laws[1], 2, cfg, _TAI_BUDGETS) is not spaces[1]


GRID_ARRAYS = ("mechs", "quants", "i_xxh", "i_uxh", "i_uy")


@pytest.mark.parametrize("shape, u_size, cfg, budgets", [
    ((2, 3), 3, SearchConfig(), _TAI_BUDGETS),
    ((3, 2), 5, THM1_SEARCH, _THM1_BUDGETS),
], ids=["tai-2x3", "thm1-3x2"])
def test_grid_arrays_do_not_depend_on_the_block_size(monkeypatch, shape, u_size, cfg, budgets):
    p = np.random.default_rng(5).dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)
    default = _TaiSpace(p, u_size, cfg, budgets)
    monkeypatch.setattr(exponents, "_BLOCK_CELLS", 1)  # one mechanism per block
    single = _TaiSpace(p, u_size, cfg, budgets)
    for name in GRID_ARRAYS:
        assert getattr(single, name).tobytes() == getattr(default, name).tobytes(), name


def test_the_grid_build_keeps_its_temporaries_small():
    # the 1000 x 1000 ternary grid keeps 15.4 MiB; built in blocks of 10^6
    # pairs, its temporaries once peaked at 447 MiB
    tracemalloc.start()
    try:
        space = _TaiSpace(np.array(TERNARY), 4, SearchConfig(), _TAI_BUDGETS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(getattr(space, name).nbytes for name in GRID_ARRAYS)
    assert space.i_uy.size == 10**6
    assert peak <= 2 * kept


def test_a_fault_in_the_last_block_still_fails_the_grid(monkeypatch):
    p = np.asarray(dsbs(0.1).probs)
    real = exponents._pair_joints
    blocks = []
    fault_at = [0]

    def joints(p_xy, mech, quant):
        blocks.append(len(mech))
        j_xxh, j_uxh, j_uy = real(p_xy, mech, quant)
        if len(blocks) == fault_at[0]:  # U = Y on the last pair: 1 bit > I(X;Y)
            j_uy = j_uy.copy()
            j_uy[-1, -1] = [[0.5, 0.0], [0.0, 0.5], [0.0, 0.0]]
        return j_xxh, j_uxh, j_uy

    monkeypatch.setattr(exponents, "_pair_joints", joints)
    _TaiSpace(p, 3, SearchConfig(), _TAI_BUDGETS)
    assert len(blocks) > 1 and sum(blocks) == 121
    fault_at[0], blocks[:] = len(blocks), []
    with pytest.raises(InvariantViolation, match="^data-processing violation in grid$"):
        _TaiSpace(p, 3, SearchConfig(), _TAI_BUDGETS)
    assert sum(blocks) == 121


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


def random_pair_point(seed: int, kind: str):
    """A law up to 3x3, a channel pair on it and a point of the given kind."""
    rng = np.random.default_rng(seed)
    kx, ky = (int(k) for k in rng.integers(2, 4, size=2))
    if kind == "bsc":
        kx = 2
    p = rng.dirichlet(np.ones(kx * ky)).reshape(kx, ky)
    if kind == "bsc":
        pair = _ChannelPair(p, 2, 2, True)
    else:
        pair = _ChannelPair(p, kx, int(rng.integers(2, 5)))
    return pair, random_point(rng, pair, kind)


def random_point(rng, pair: _ChannelPair, kind: str) -> np.ndarray:
    """A point of the given kind for ``pair``: BSC crossovers for a BSC pair."""
    if kind == "bsc":
        theta = rng.uniform(0.0, 0.5, size=2)
        theta[rng.integers(2)] = rng.choice([0.0, 0.5, theta[0]])
        return theta
    kx, kh, ku = pair.kx, pair.kh, pair.ku
    mech = rng.dirichlet(np.ones(kh), size=kx)
    quant = rng.dirichlet(np.ones(ku), size=kh)
    if kind == "face":
        mech[mech < 0.25] = 0.0
        quant[quant < 0.25] = 0.0
    elif kind == "unused-xh":
        mech[:, int(rng.integers(kh))] = 0.0
    elif kind == "unused-u":
        quant[:, int(rng.integers(ku))] = 0.0
    mech[mech.sum(axis=1) == 0, -1] = 1.0
    quant[quant.sum(axis=1) == 0, -1] = 1.0
    mech /= mech.sum(axis=1, keepdims=True)
    quant /= quant.sum(axis=1, keepdims=True)
    return pair.free(mech, quant)


POINT_KINDS = ["interior", "face", "unused-xh", "unused-u", "bsc"]


@given(st.integers(0, 2**32 - 1), st.sampled_from(POINT_KINDS))
@settings(max_examples=60, deadline=None)
def test_channel_pair_scores_a_point_with_the_grid_kernel(seed, kind):
    # the polish must score a grid pair with the grid's bits: the pair's
    # information quantities are the one MI kernel over the one joint kernel
    pair, theta = random_pair_point(seed, kind)
    joints = _pair_joints(pair.p_xy, *pair.channels(theta))
    assert pair.info(theta) == tuple(float(_mi_batch(j)) for j in joints)
    # the gradient is the same bits whichever call reaches the point first
    jac_first = pair.jac(theta).copy()
    other, _ = random_pair_point(seed, kind)
    other.value(theta)
    assert other.jac(theta).tobytes() == jac_first.tobytes()
    # a batch gives each member the bits of its own batch of one: this point
    # stacked with points of every kind the pair takes (BSC points for a BSC
    # pair), and members taken from the batch as the lockstep polish takes them
    rng = np.random.default_rng(seed)
    kinds = ["bsc"] * 4 if pair.bsc else [k for k in POINT_KINDS if k != "bsc"] * 2
    thetas = np.stack([theta, *(random_point(rng, pair, k) for k in kinds)])
    batch = pair.evaluate(thetas)
    jac = pair.jacobians(batch)
    rows = np.sort(rng.choice(len(thetas), size=int(rng.integers(1, len(thetas))), replace=False))
    taken = batch.take(rows)
    assert taken.info.tobytes() == batch.info[rows].tobytes()
    assert pair.jacobians(taken).tobytes() == jac[rows].tobytes()
    for i, t in enumerate(thetas):
        one = pair.evaluate(t[None])
        assert one.info.tobytes() == batch.info[i:i + 1].tobytes()
        assert pair.jacobians(one).tobytes() == jac[i:i + 1].tobytes()


def test_one_point_is_evaluated_once(monkeypatch):
    joint_calls, grad_calls = [], []
    real_joints, real_gradient = exponents._pair_joints, _ChannelPair._gradient

    def counting_joints(*args):
        joint_calls.append(1)
        return real_joints(*args)

    def counting_gradient(self, pts):
        grad_calls.append(1)
        return real_gradient(self, pts)

    monkeypatch.setattr(exponents, "_pair_joints", counting_joints)
    monkeypatch.setattr(_ChannelPair, "_gradient", counting_gradient)
    p = np.array([[0.35, 0.10, 0.05], [0.05, 0.10, 0.35]])
    pair = _ChannelPair(p, 2, 3)
    theta = pair.free(np.array([[0.8, 0.2], [0.3, 0.7]]),
                      np.array([[0.5, 0.3, 0.2], [0.1, 0.2, 0.7]]))
    pair.channels(theta)
    pair.value(theta)
    pair.grad(theta)
    pair.info(theta)
    pair.jac(theta)
    pair.value(theta)
    assert (len(joint_calls), len(grad_calls)) == (1, 1)
    # the memo keys on the point's values, not on the array object
    pair.jac(theta.copy())
    pair.info(np.array(theta.tolist()))
    assert (len(joint_calls), len(grad_calls)) == (1, 1)
    moved = theta.copy()
    moved[0] += 1e-3
    pair.info(moved)
    assert (len(joint_calls), len(grad_calls)) == (2, 1)
    pair.channels(theta)
    assert len(joint_calls) == 3


@pytest.mark.parametrize("hold", [False, True])
def test_one_polish_evaluates_each_slsqp_point_once(hold, monkeypatch):
    import scipy.optimize._slsqplib as slsqplib

    real_joints, real_gradient, real_kernel = (
        exponents._pair_joints, _ChannelPair._gradient, slsqplib.slsqp)
    joint_rows, grad_rows, asked = [], [], []

    def counting_joints(p, mech, quant):
        joint_rows.append(len(mech))
        return real_joints(p, mech, quant)

    def counting_gradient(self, pts):
        grad_rows.append(len(pts.info))
        return real_gradient(self, pts)

    def recording_kernel(state, *args):
        real_kernel(state, *args)
        asked.append((id(state), state["mode"]))

    monkeypatch.setattr(exponents, "_pair_joints", counting_joints)
    monkeypatch.setattr(_ChannelPair, "_gradient", counting_gradient)
    monkeypatch.setattr(slsqplib, "slsqp", recording_kernel)
    p = np.array([[0.35, 0.10, 0.05], [0.05, 0.10, 0.35]])
    pair = _ChannelPair(p, 2, 3)
    starts = np.stack([
        pair.free(np.array([[0.9, 0.1], [0.2, 0.8]]), np.array([[0.6, 0.3, 0.1], [0.1, 0.3, 0.6]])),
        pair.free(np.array([[0.7, 0.3], [0.4, 0.6]]), np.array([[0.2, 0.2, 0.6], [0.5, 0.4, 0.1]])),
        pair.free(np.eye(2), np.array([[0.8, 0.1, 0.1], [0.1, 0.1, 0.8]])),
    ])
    res = exponents.minimize(pair, starts, 0.25, 0.5, hold)
    assert np.all(res.nits > 3)
    modes = [mode for _, mode in asked]
    # one evaluation per start at the set-up, then at most one per point a
    # member asks for (a batch that repeats the last one is remembered), and
    # at least one per point that moved
    assert res.nfev <= sum(joint_rows) <= len(starts) + modes.count(1)
    assert sum(grad_rows) <= len(starts) + modes.count(-1)
    # and at most one batched evaluation and one batched gradient per round
    rounds = max(Counter(state for state, _ in asked).values())
    assert len(joint_rows) <= rounds + 1 and len(grad_rows) <= rounds + 1
    assert max(joint_rows[1:]) > 1 and max(grad_rows[1:]) > 1


def scipy_polish(theta0, pair, rate, leak, hold_mechanism=False):
    """One polish as scipy's public SLSQP runs it: the reference that
    ``exponents.minimize`` follows member by member.

    The constraints are inequality dicts with the arithmetic scipy derives
    from a bounded constraint: -(I - upper) for the two budgets, and each
    channel row's free sum in [0, 1] (``_row_sums``).
    """
    from scipy.optimize import minimize

    skip = pair.mech_params if hold_mechanism else 0

    def full(x):  # the whole parameter vector; x itself when nothing is held
        if not skip:
            return x
        t = theta0.copy()
        t[skip:] = x
        return t

    upper = np.array([leak, rate], dtype=float)
    upper[np.isinf(upper)] = math.log2(max(pair.kh, pair.ku)) + 1.0
    hi, rows = pair.feasible_set(skip)
    constraints = [{
        "type": "ineq",
        "fun": lambda x: -(np.asarray(pair.info(full(x))[:2]) - upper),
        "jac": lambda x: -pair.jac(full(x))[:2, skip:],
    }]
    if rows is not None:
        a, a_both = rows

        def row_sums(x):
            ax = np.dot(a, x)
            return np.concatenate([ax, -(ax - 1.0)])

        constraints.append({"type": "ineq", "fun": row_sums, "jac": lambda x: a_both})
    return minimize(
        lambda x: -pair.value(full(x)),
        theta0[skip:].copy(),
        jac=lambda x: -pair.grad(full(x))[skip:],
        method="SLSQP",
        bounds=[(0.0, hi)] * (theta0.size - skip),
        constraints=constraints,
        options={"maxiter": 200, "ftol": pair.ftol},
    )


def mixed_ternary_starts():
    """Starts on the TERNARY law at (R, L) = (0.25, 0.5): one converged, one
    of over 100 iterations, one that runs to the 200-iteration cap and one
    with an unused Xh symbol."""
    pair = _ChannelPair(np.array(TERNARY), 3, 4)
    rng = np.random.default_rng(0)
    draws = [(rng.dirichlet(np.ones(3), size=3), rng.dirichlet(np.ones(4), size=3))
             for _ in range(20)]
    long_start = pair.free(*draws[1])
    unused_xh = np.array([[0.6, 0.0, 0.4], [0.3, 0.0, 0.7], [0.2, 0.0, 0.8]])
    starts = [scipy_polish(long_start, pair, 0.25, 0.5).x, long_start, pair.free(*draws[19]),
              pair.free(unused_xh, draws[0][1])]
    return pair, np.stack(starts), 0.25, 0.5, False


def bsc_starts():
    pair = _ChannelPair(dsbs(0.1).probs, 2, 2, True)
    starts = np.array([[0.0, 0.5], [0.1, 0.3], [0.5, 0.0], [0.25, 0.25], [0.0, 0.0]])
    return pair, starts, 0.25, 0.5, False


def held_theorem1_start():
    pair = inner_pair(NULL, ALT, 2, 4)
    start = pair.free(np.array([[0.9, 0.1], [0.2, 0.8]]),
                      np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.25, 0.75, 0.0]]))
    return pair, start[None], 0.1, 0.1, True


@pytest.mark.parametrize("case", [mixed_ternary_starts, bsc_starts, held_theorem1_start],
                         ids=["ternary-mixed", "bsc", "theorem1-held"])
def test_lockstep_driver_follows_scipy_slsqp_member_by_member(case):
    pair, starts, rate, leak, hold = case()
    refs = [scipy_polish(s, pair, rate, leak, hold) for s in starts]
    got = exponents.minimize(pair, starts, rate, leak, hold)
    for i, ref in enumerate(refs):
        assert got.x[i].tobytes() == ref.x.tobytes(), f"member {i}"
        assert (got.nits[i], got.nfevs[i], got.status[i]) == (ref.nit, ref.nfev, ref.status)
    assert (got.nit, got.nfev) == (sum(r.nit for r in refs), sum(r.nfev for r in refs))
    if case is mixed_ternary_starts:
        nits = sorted(r.nit for r in refs)
        assert nits[0] < 10 and 100 <= nits[-2] < 200 and refs[2].status == 9


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
    ("grid_step", 5e-324),  # 1/step overflows; once an OverflowError traceback
])
def test_search_config_rejects_out_of_domain_fields(field, value):
    with pytest.raises(DomainError, match=field):
        SearchConfig(**{field: value})


def coarsening_loop(rows, k, step, budget):
    """The grid fit as a loop that coarsens the lattice one part at a time."""
    def row_count(s):
        return math.comb(max(1, round(1.0 / s)) + k - 1, k - 1)

    s = step
    while row_count(s) ** rows > budget and round(1.0 / s) > 1:  # stop at one part
        s = 1.0 / (round(1.0 / s) - 1)
    return s


@pytest.mark.parametrize("rows, k, budget", [
    (2, 2, 1000), (2, 3, 1000), (3, 3, 1000), (3, 4, 1000), (2, 2, 300),
    (2, 4, 800), (3, 5, 800), (2, 2, 1), (2, 3, 0),
])
def test_fit_step_matches_the_coarsening_loop(rows, k, budget):
    steps = [*np.geomspace(1e-4, 1.0, 120), 0.5, 0.505, 0.51, 0.6, 1 / 3, 1 / 7, 0.1, 1 / 8]
    for step in steps:
        assert _fit_step(rows, k, float(step), budget) == coarsening_loop(rows, k, float(step), budget)


def test_a_step_with_two_parts_is_coarsened_like_any_other():
    # round(1/step) is 2 up to a step of 2/3; from 0.51 such a step was once
    # kept, and at |X| = 4 asked for 10,000 x 50,625 pairs instead of 256 x 625
    for k_out in (4, 5):
        assert _lattice(4, k_out, 0.55, 1000) == _lattice(4, k_out, 0.5, 1000)
    assert _lattice(4, 4, 0.5, 1000) == (1, 256)
    assert _lattice(4, 5, 0.5, 1000) == (1, 625)


def test_a_tiny_grid_step_fits_at_once():
    # the loop above would coarsen about 1e300 times from a step of 1e-300;
    # both searches' grids (independence: |U| = |X| + 1, Theorem 1:
    # |U| = |X| + 2) take the finest lattice that fits, as a small step does
    start = time.perf_counter()
    for kx in (2, 3):
        for k_out, budget in ((kx, _TAI_BUDGETS[0]), (kx + 1, _TAI_BUDGETS[1]),
                              (kx, _THM1_BUDGETS[0]), (kx + 2, _THM1_BUDGETS[1])):
            assert _fit_step(kx, k_out, 1e-300, budget) == coarsening_loop(kx, k_out, 1e-3, budget)
    assert time.perf_counter() - start < 0.5


def _grid_pairs(kx, u_size, budgets, step):
    return _lattice(kx, kx, step, budgets[0])[1] * _lattice(kx, u_size, step, budgets[1])[1]


def test_the_grid_cap_keeps_every_grid_up_to_five_source_symbols():
    # a step cannot coarsen past 1, so from |X| = 5 the grids outgrow their budgets
    assert _grid_pairs(5, 6, _TAI_BUDGETS, 0.1) == 3125 * 7776
    assert _grid_pairs(5, 7, _THM1_BUDGETS, 1 / 8) == 3125 * 16807
    for kx in (2, 3, 4, 5):
        assert _grid_pairs(kx, kx + 1, _TAI_BUDGETS, 0.1) <= _MAX_GRID_PAIRS
        assert _grid_pairs(kx, kx + 2, _THM1_BUDGETS, 1 / 8) <= _MAX_GRID_PAIRS
    assert _grid_pairs(6, 7, _TAI_BUDGETS, 0.1) == 46656 * 117649 > _MAX_GRID_PAIRS


@pytest.mark.parametrize("kx", [6, 8])
@pytest.mark.parametrize("search", ["tai", "thm1"])
def test_a_grid_above_the_cap_is_refused_before_it_is_built(kx, search):
    # a 6x2 law once ended in a MemoryError for a 40.9 GiB grid array
    p = JointPmf(np.full((kx, 2), 1.0 / (2 * kx)), ("X", "Y"))
    start = time.perf_counter()
    with pytest.raises(TooLarge, match=rf"^the search grid for \|X\| = {kx} has [\d,]+ channel pairs"):
        if search == "tai":
            tai_exponent(p, 0.5, 0.5)
        else:
            theorem1_lower_bound(p, p, 0.5, 0.5)
    assert time.perf_counter() - start < 1.0


def test_search_input_validation():
    with pytest.raises(DomainError):
        tai_exponent(dsbs(0.1), -1.0, 0.5)
    three = JointPmf(np.full((2, 2, 2), 0.125), ("X", "Y", "Z"))
    with pytest.raises(DimensionMismatch):
        tai_exponent(three, 1.0, 1.0)
    # a channel was once an AttributeError: no attribute 'probs'
    match = "^expected a two-axis joint law, got Channel$"
    with pytest.raises(DimensionMismatch, match=match):
        tai_exponent(Channel.identity(2), 0.5, 0.5)
    with pytest.raises(DimensionMismatch, match=match):
        zero_rate_exponent(dsbs(0.1), Channel.identity(2))


def test_result_reports_the_lattice_searched():
    # a step of 0.3 puts the grid rows on thirds; it once reported 0.3
    assert tai_exponent(dsbs(0.1), 0.5, 0.5, SearchConfig(grid_step=0.3)).grid_step == 1 / 3


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
    # the tightly solved values still carry about 5e-14 of noise, which a
    # central difference divides by the step: at 1e-6 it failed 3 of seeds
    # 0-999, at 1e-5 1 of seeds 0-2999 and at 3e-5 none, where the O(step^2)
    # truncation stays below 5e-11
    step = 3e-5
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


def shortlist_pairs(p, q, rate, leak):
    """The Theorem-1 search's inner pair and its shortlisted (mechanism, quantizer) stacks."""
    p_xy, q_xy = (JointPmf(np.asarray(a, dtype=float), ("X", "Y")) for a in (p, q))
    kx = p_xy.shape[0]
    space = _space_for(p_xy.probs, kx + 2, THM1_SEARCH, _THM1_BUDGETS)
    order = space.ranked(rate, leak)
    shortlist = np.concatenate([order[:48], order[48::max(1, len(order) // 16)][:16]])
    return _InnerPair(p_xy.probs, q_xy, kx, kx + 2), *space.pair(shortlist)


def same_projection(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return (a.min_kl == b.min_kl and np.array_equal(a.argmin.probs, b.argmin.probs)
            and a.iterations == b.iterations and a.residual == b.residual
            and all(np.array_equal(x, y) for x, y in zip(a.duals, b.duals))
            and np.allclose(a.dual_trace, b.dual_trace, rtol=0.0, atol=1e-12))


TERNARY_ALT = [[0.10, 0.15, 0.08], [0.12, 0.05, 0.10], [0.15, 0.10, 0.15]]


@pytest.mark.parametrize("p, q, rate, leak", [
    (NULL, ALT, 0.25, 0.25),
    (NULL, ALT, 0.1, 1.0),
    (TERNARY, TERNARY_ALT, 0.25, 0.5),
], ids=["binary", "binary-wide-leak", "ternary"])
def test_batched_projections_match_one_pair_at_a_time(p, q, rate, leak):
    pair, mechs, quants = shortlist_pairs(p, q, rate, leak)
    batch = pair.project_many(mechs, quants)
    single = [pair.project(m, u) for m, u in zip(mechs, quants)]
    assert len(batch) == len(single) == len(mechs) > 16
    # grid pairs leave U symbols unused, so targets have zero cells
    assert any(np.any(res.duals[1] == -math.inf) for res in single)
    for i, (a, b) in enumerate(zip(batch, single)):
        assert same_projection(a, b), f"member {i}"


def test_a_failed_member_scores_none_in_the_batch_too():
    # Q(X=1, Y=0) = 0: with U = Xh = X the (U, Y) target needs mass at
    # (1, 0) where the reference has none, while mixing channels spread it
    pair = inner_pair([[0.2, 0.15, 0.15], [0.1, 0.2, 0.2]],
                      [[0.2, 0.2, 0.1], [0.0, 0.25, 0.25]], 2, 4)
    mechs = np.stack([np.full((2, 2), 0.5), np.eye(2), [[0.7, 0.3], [0.2, 0.8]]])
    quants = np.stack([np.full((2, 4), 0.25), np.eye(2, 4), [[0.4, 0.1, 0.5, 0.0]] * 2])
    batch = pair.project_many(mechs, quants)
    single = [pair.project(m, u) for m, u in zip(mechs, quants)]
    assert [res is None for res in single] == [False, True, False]
    for a, b in zip(batch, single):
        assert same_projection(a, b)


def test_theorem1_query_scores_its_shortlist_in_one_kernel_call(monkeypatch):
    real_scale, real_project = iproject._scale, exponents.i_project
    batches, singles = [], []

    def counting_scale(ref, *args, **kwargs):
        batches.append(len(ref))
        return real_scale(ref, *args, **kwargs)

    def counting_project(*args, **kwargs):
        singles.append(1)
        return real_project(*args, **kwargs)

    monkeypatch.setattr(iproject, "_scale", counting_scale)
    monkeypatch.setattr(exponents, "i_project", counting_project)
    p, q = alt_pair()
    theorem1_lower_bound(p, q, 0.25, 0.25)
    # every polish projection is a batch of one; the shortlist is the rest
    assert len(batches) == len(singles) + 1
    assert sorted(batches)[-1] == 64 and sorted(batches)[-2] == 1


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


def test_both_searches_call_the_solver_through_the_module_attribute(monkeypatch):
    # perfbench's exponents.slsqp metrics come from a probe on this attribute;
    # a search that imported scipy's minimize itself would leave them empty
    real = exponents.minimize
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(exponents, "minimize", counting)
    tai_exponent(dsbs(0.1), 0.5, 0.5, SearchConfig(restrict_bsc=True))
    tai_calls = len(calls)
    assert tai_calls > 0
    theorem1_lower_bound(*alt_pair(), 0.1, 0.1)
    assert len(calls) > tai_calls


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


@pytest.mark.parametrize("search, match", [
    (lambda p: tai_exponent(JointPmf(np.full((3, 2), 1 / 6), ("X", "Y")), 0.5, 0.5,
                            SearchConfig(restrict_bsc=True)),
     "BSC restriction needs binary alphabets"),
    (lambda p: theorem1_lower_bound(dsbs(0.1), p, 0.5, 0.5, fixed_mechanism=np.eye(3)),
     "fixed mechanism shape mismatch"),
], ids=["bsc-ternary", "fixed-mechanism-3x3"])
def test_searches_refuse_alphabets_that_do_not_fit(search, match, product_uniform):
    with pytest.raises(DimensionMismatch, match=f"^{match}$"):
        search(product_uniform)


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
