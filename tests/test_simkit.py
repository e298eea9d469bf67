"""Monte Carlo scheme simulation: determinism, cross-checks, and estimators.

The marginalized-codebook route is validated against an explicit simulator
written here from scratch: it draws a fresh codebook per trial, scans it for
a jointly typical codeword, and applies the same receiver test. The two
routes share no code beyond the config, so statistical agreement of their
acceptance rates checks the analytic encoder marginalization end to end.
"""

import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc, betaincinv

from privexp import (
    AlphabetMismatch,
    Channel,
    DegenerateConfig,
    DimensionMismatch,
    DomainError,
    EmptySample,
    JointPmf,
    Pmf,
    SchemeConfig,
    SizeOverflow,
    TooLarge,
    ToolkitError,
    binary_entropy,
    empirical_privacy,
    generate_codebook,
    run_general_scheme,
    run_memoryless_scheme,
    simkit,
    star,
    wilson_interval,
)

IDENT = Channel.identity(2)
BSC_HALF_BIT = Channel.bsc(0.11002786443835955)  # leaks exactly half a bit


def dsbs(eps: float) -> JointPmf:
    half = eps / 2.0
    return JointPmf(np.array([[0.5 - half, half], [half, 0.5 - half]]), ("X", "Y"))


def memoryless_cfg(**kw) -> SchemeConfig:
    base = dict(
        n=12, mu=0.3, rate=1.0, seed=5, trials=6000, hypothesis="alt",
        mechanism=IDENT, quantizer=IDENT, scheme_kind="memoryless",
    )
    base.update(kw)
    return SchemeConfig(**base)


# ---------------------------------------------------------------------------
# reproducibility


def test_same_seed_reproduces_report(dsbs01):
    cfg = memoryless_cfg()
    a = run_memoryless_scheme(cfg, dsbs01)
    b = run_memoryless_scheme(cfg, dsbs01)
    assert a.to_dict() == b.to_dict()
    c = run_memoryless_scheme(memoryless_cfg(seed=6), dsbs01)
    assert c.beta_hat != a.beta_hat


def test_fixed_codebook_mode_is_deterministic(dsbs01):
    cfg = memoryless_cfg(n=10, rate=0.5, seed=9, trials=4000, fixed_codebook=True)
    a = run_memoryless_scheme(cfg, dsbs01)
    b = run_memoryless_scheme(cfg, dsbs01)
    assert a.to_dict() == b.to_dict()
    assert a.beta_hat == pytest.approx(0.0605, abs=1e-12)


Q_NON_PRODUCT = [[0.2, 0.3], [0.25, 0.25]]
P_XY3 = np.array([[0.30, 0.15, 0.05], [0.05, 0.15, 0.30]])
Q3 = [[0.2, 0.2, 0.1], [0.1, 0.2, 0.2]]
MECH3 = [[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]]  # X to three sanitized symbols
QUANT3 = [[0.8, 0.2], [0.5, 0.5], [0.2, 0.8]]


def test_ensemble_streams_are_frozen(dsbs01):
    # pinned values: a change to any draw of the ensemble mode moves them
    rep = run_memoryless_scheme(memoryless_cfg(), dsbs01)
    assert rep.beta_hat == 706 / 6000
    assert rep.counters == {
        "observer_escapes": 0, "encoder_failures": 2352, "receiver_rejects": 2942,
    }
    cfg = SchemeConfig(n=12, mu=0.35, rate=0.5, seed=11, trials=6000, hypothesis="alt",
                       mechanism=BSC_HALF_BIT, quantizer=BSC_HALF_BIT,
                       scheme_kind="general")
    rep = run_general_scheme(cfg, dsbs01, JointPmf(np.array(Q_NON_PRODUCT), ("X", "Y")))
    assert rep.beta_hat == 2257 / 6000
    assert rep.counters == {
        "observer_escapes": 2308, "encoder_failures": 2948, "receiver_rejects": 795,
    }


@pytest.mark.parametrize("case", ["memoryless", "general", "ternary-y", "fixed", "log-space",
                                  "ternary-xhat", "ternary-xhat-general"])
def test_reports_do_not_depend_on_the_pass_size(case, dsbs01, monkeypatch):
    # the batch size fixes the streams, so a run of one trial per batch and
    # a run at the default size draw different trials from the same law: their
    # rates must agree within 4 sigma, read off their Wilson intervals. A
    # mechanism with three outputs gives class-size keys of three parts, which
    # the encoder renumbers between parts.
    q = JointPmf(np.array(Q_NON_PRODUCT), ("X", "Y"))
    mech = Channel(MECH)
    p3, q3 = (JointPmf(np.array(a), ("X", "Y")) for a in (P_XY3, Q3))
    three = dict(n=12, trials=3000, seed=1, mechanism=Channel(MECH3), quantizer=Channel(QUANT3))
    runs = {
        "memoryless": lambda: run_memoryless_scheme(memoryless_cfg(n=24), dsbs01),
        "general": lambda: run_general_scheme(
            memoryless_cfg(scheme_kind="general", mu=0.35, rate=0.5,
                           mechanism=BSC_HALF_BIT, quantizer=BSC_HALF_BIT), dsbs01, q),
        "ternary-y": lambda: run_memoryless_scheme(
            memoryless_cfg(n=10, rate=0.5, mechanism=mech, quantizer=mech),
            JointPmf(P_XY3, ("X", "Y"))),
        "fixed": lambda: run_memoryless_scheme(
            memoryless_cfg(n=10, rate=0.5, trials=2000, fixed_codebook=True), dsbs01),
        "log-space": lambda: run_memoryless_scheme(
            memoryless_cfg(n=60, rate=0.9, mu=0.35, trials=2000,
                           mechanism=BSC_HALF_BIT, quantizer=BSC_HALF_BIT), dsbs01),
        "ternary-xhat": lambda: run_memoryless_scheme(memoryless_cfg(**three), p3),
        "ternary-xhat-general": lambda: run_general_scheme(
            memoryless_cfg(scheme_kind="general", **three), p3, q3),
    }
    rates, sigmas = [], []
    for cells in (1, simkit.BATCH_CELLS):
        monkeypatch.setattr(simkit, "BATCH_CELLS", cells)
        rep = runs[case]()
        accepts = round(rep.beta_hat * rep.trials)
        lo, hi = wilson_interval(accepts, rep.trials)
        rates.append(accepts / rep.trials)
        sigmas.append((hi - lo) / (2 * 1.959963984540054))
    assert abs(rates[0] - rates[1]) <= 4.0 * math.hypot(*sigmas)


def test_a_run_opens_one_stream_per_batch(dsbs01, monkeypatch):
    # 6,000 trials at n = 24 with a binary mechanism fit 1,365 to a batch of
    # 2^16 cells: five batches, each one stream and, for binary U and Y, one
    # hypergeometric call. Batch b draws from spawn key b + 1
    keys, calls, batches = [], [], []
    open_stream, run_one = simkit._stream, simkit._Runner.run_batch

    class Counted(np.random.Generator):
        def hypergeometric(self, *args):
            calls.append(self.bit_generator.seed_seq.spawn_key)
            return super().hypergeometric(*args)

    def stream(seed, key):
        keys.append(key)
        return Counted(open_stream(seed, key).bit_generator)

    def run_batch(runner, b, trials):
        batches.append(b)
        return run_one(runner, b, trials)

    cfg = memoryless_cfg(n=24, trials=6000)
    plain = run_memoryless_scheme(cfg, dsbs01)
    with monkeypatch.context() as m:
        m.setattr(simkit._Runner, "run_batch", run_batch)
        m.setattr(simkit, "_stream", stream)
        counted = run_memoryless_scheme(cfg, dsbs01)
    assert counted == plain
    assert batches == [0, 1, 2, 3, 4]
    assert keys == [1, 2, 3, 4, 5]
    assert calls == [(1,), (2,), (3,), (4,), (5,)]


@pytest.mark.parametrize("size", [1, 2, 4, 9, 40, 255, 256, 257])
def test_categorical_is_the_capped_inverse_cdf(size):
    # the comparison count must match a binary search, including uniforms
    # that land exactly on a cdf entry or past its end, in the narrowest
    # type that holds the last symbol: one byte up to 256 symbols
    rng = np.random.default_rng(size)
    cdf = np.cumsum(rng.dirichlet(np.ones(size)))
    cdf[-1] = 1.0 - 1e-12
    uniforms = np.concatenate([rng.random(500), cdf, [0.0, 1.0 - 1e-13]])
    expected = np.minimum(np.searchsorted(cdf, uniforms, side="right"), size - 1)
    symbols = simkit._categorical(cdf, uniforms, np.min_scalar_type(size - 1))
    assert symbols.dtype == (np.uint8 if size <= 256 else np.uint16)
    assert np.array_equal(symbols, expected)


@pytest.mark.parametrize("kx, ky, ka, kind", [
    (2, 2, 128, np.uint8),  # x ka + xh and xh ky + y reach 255
    (257, 1, 1, np.uint16),  # x ky + y and x ka + xh reach 256
    (2, 2, 129, np.uint16),  # x ka + xh and xh ky + y reach 257
])
def test_narrow_symbols_match_an_int64_recomputation(kx, ky, ka, kind, monkeypatch):
    # a batch holds its symbols in the narrowest type that holds its largest
    # code, where numpy arithmetic would wrap without a word; from the same
    # draws, every symbol and count must equal the int64 computation. One
    # quantizer output and a radius that covers the simplex encode every trial
    n, trials, seed = 8, 40, 3
    rng = np.random.default_rng(kx * ka)
    law = JointPmf(rng.dirichlet(np.ones(kx * ky)).reshape(kx, ky), ("X", "Y"))
    mech = rng.dirichlet(np.ones(ka), size=kx)
    cfg = memoryless_cfg(n=n, trials=trials, seed=seed, mu=2.0, hypothesis="null",
                         mechanism=Channel(mech), quantizer=Channel(np.ones((ka, 1))))
    runner = simkit._Runner(cfg, law, None)
    assert runner.symbol_type == kind

    draws = simkit._stream(seed, 1).random((trials, 2 * n))
    law_cdf = np.cumsum(law.probs.reshape(-1))
    x, y = np.divmod(np.minimum(np.searchsorted(law_cdf, draws[:, :n], side="right"),
                                kx * ky - 1), ky)
    cdf = np.cumsum(mech, axis=1)[x][..., :-1]
    xhat = np.sum(cdf < draws[:, n:, None], axis=-1)
    pool = np.zeros((kx, ka), dtype=np.int64)
    np.add.at(pool, (x, xhat), 1)
    n_a = np.stack([np.sum(xhat == a, axis=1) for a in range(ka)], axis=1)
    class_y = np.stack([np.sum((xhat == a) & (y == v), axis=1)
                        for a in range(ka) for v in range(ky)], axis=1).reshape(-1, ka, ky)

    stream = simkit._stream(seed, 1)
    live, got_xhat, got_y, got_pool = runner._sanitize(stream, trials)
    assert live.all() and got_xhat.dtype == got_y.dtype == kind
    assert np.array_equal(got_xhat, xhat) and np.array_equal(got_y, y)
    assert np.array_equal(got_pool, pool)
    seen = []
    monkeypatch.setattr(runner, "_allocate",
                        lambda k_tables, remaining, rng: seen.append((k_tables, remaining.copy())))
    runner._encode_ensemble(got_xhat, got_y, stream, live)
    [(k_tables, remaining)] = seen
    assert np.array_equal(k_tables[:, 0, :], n_a)
    assert np.array_equal(remaining, class_y)


# ---------------------------------------------------------------------------
# explicit-codebook cross-check of the marginalized encoder

P_XY = np.array([[0.45, 0.05], [0.05, 0.45]])
MECH = np.array([[0.89, 0.11], [0.11, 0.89]])
CROSS_N, CROSS_RATE, CROSS_MU, CROSS_TRIALS = 10, 0.5, 0.3, 20_000


def _explicit_accept_rate(law: np.ndarray, seed: int, p_xy: np.ndarray = P_XY) -> float:
    """Brute-force scheme run: materialize a fresh codebook every trial.

    ``p_xy`` is the null law (binary X, any Y alphabet) that fixes the
    receiver's target; ``law`` is the law the trials are drawn from.
    """
    n, mu, trials = CROSS_N, CROSS_MU, CROSS_TRIALS
    ky = p_xy.shape[1]
    m_count = int(np.floor(2.0 ** (n * CROSS_RATE)))
    p_x = p_xy.sum(axis=1)
    p_xhat = p_x @ MECH
    target_ua = (p_xhat[:, None] * MECH).T  # quantizer equals the mechanism
    p_uy = np.einsum("xy,xu->uy", p_xy, MECH @ MECH)
    p_u = target_ua.sum(axis=1)
    target_flat = np.array(
        [target_ua[0, 0], target_ua[1, 0], target_ua[0, 1], target_ua[1, 1]]
    )

    rng = np.random.default_rng(seed)
    flat = rng.choice(2 * ky, size=(trials, n), p=law.ravel())
    x, y = flat // ky, flat % ky
    xhat = (rng.random((trials, n)) < MECH[x, 1]).astype(np.int8)
    accepted = 0
    for t in range(trials):
        codebook = (rng.random((m_count, n)) < p_u[1]).astype(np.int8)
        ones = int(xhat[t].sum())
        match = codebook == xhat[t]
        c11 = match[:, xhat[t] == 1].sum(axis=1)
        c00 = match[:, xhat[t] == 0].sum(axis=1)
        counts = np.stack([c00, n - ones - c00, ones - c11, c11], axis=1) / n
        tv = 0.5 * np.abs(counts - target_flat).sum(axis=1)
        hits = np.nonzero(tv <= mu / 2 + 1e-12)[0]
        if hits.size == 0:
            continue
        u = codebook[hits[0]]
        uy = np.bincount(u * ky + y[t], minlength=2 * ky).reshape(2, ky)
        if 0.5 * np.abs(uy / n - p_uy).sum() <= mu + 1e-12:
            accepted += 1
    return accepted / trials


@pytest.mark.parametrize("hypothesis", ["null", "alt"])
def test_marginalized_route_matches_explicit_codebooks(hypothesis):
    joint = JointPmf(P_XY, ("X", "Y"))
    chan = Channel(MECH)
    cfg = SchemeConfig(
        n=CROSS_N, mu=CROSS_MU, rate=CROSS_RATE, seed=555, trials=CROSS_TRIALS,
        hypothesis=hypothesis, mechanism=chan, quantizer=chan,
        scheme_kind="memoryless",
    )
    rep = run_memoryless_scheme(cfg, joint)
    marg = (1.0 - rep.alpha_hat) if hypothesis == "null" else rep.beta_hat
    p_x = P_XY.sum(axis=1)
    law = P_XY if hypothesis == "null" else np.outer(p_x, P_XY.sum(axis=0))
    explicit = _explicit_accept_rate(law, seed=777)
    sigma = math.sqrt(
        marg * (1 - marg) / CROSS_TRIALS + explicit * (1 - explicit) / CROSS_TRIALS
    )
    assert abs(marg - explicit) <= 4.0 * sigma


@pytest.mark.parametrize("hypothesis", ["null", "alt"])
def test_ternary_side_information_matches_explicit_codebooks(hypothesis):
    # a Y alphabet of 3 takes two links of the hypergeometric allocation
    # chain per codeword symbol, where a binary Y takes one
    chan = Channel(MECH)
    cfg = SchemeConfig(
        n=CROSS_N, mu=CROSS_MU, rate=CROSS_RATE, seed=556, trials=CROSS_TRIALS,
        hypothesis=hypothesis, mechanism=chan, quantizer=chan,
        scheme_kind="memoryless",
    )
    rep = run_memoryless_scheme(cfg, JointPmf(P_XY3, ("X", "Y")))
    marg = (1.0 - rep.alpha_hat) if hypothesis == "null" else rep.beta_hat
    law = P_XY3 if hypothesis == "null" else np.outer(P_XY3.sum(axis=1), P_XY3.sum(axis=0))
    explicit = _explicit_accept_rate(law, seed=778, p_xy=P_XY3)
    sigma = math.sqrt(
        marg * (1 - marg) / CROSS_TRIALS + explicit * (1 - explicit) / CROSS_TRIALS
    )
    assert abs(marg - explicit) <= 4.0 * sigma


# ---------------------------------------------------------------------------
# counter bookkeeping


@pytest.mark.parametrize(
    "kind, fixed, n, rate",
    [
        ("memoryless", False, 12, 1.0),
        ("general", False, 12, 0.5),
        ("memoryless", True, 10, 0.5),
        ("general", True, 10, 0.5),
        ("memoryless", False, 60, 0.9),  # n*R = 54: log-space failure branch
    ],
)
def test_counters_partition_the_trials(kind, fixed, n, rate, dsbs01, monkeypatch):
    cfg = SchemeConfig(n=n, mu=0.35, rate=rate, seed=11, trials=600,
                       hypothesis="alt", mechanism=BSC_HALF_BIT,
                       quantizer=BSC_HALF_BIT, scheme_kind=kind,
                       fixed_codebook=fixed)
    q = JointPmf(np.array([[0.2, 0.3], [0.25, 0.25]]), ("X", "Y"))
    alt = q if kind == "general" else None
    # batches of at most 18 trials: 34 of them, of 18 or 17 trials, so each
    # unit checked below is a many-trial batch of an uneven split
    monkeypatch.setattr(simkit, "BATCH_CELLS", 18 * n * 2)
    runner = simkit._Runner(cfg, dsbs01, alt)
    assert (runner.m_count is None) == (n * rate >= 53)
    totals = dict.fromkeys(
        ["accepts", "observer_escapes", "encoder_failures", "receiver_rejects"], 0
    )
    sizes = simkit._split_trials(cfg.trials, runner.batches)
    assert len(sizes) == 34 and sorted(set(sizes)) == [17, 18]
    for b, t in enumerate(sizes):
        res = runner.run_batch(b, t)
        # an escape is also an encoder failure, and every trial ends once
        assert res.accepts + res.encoder_failures + res.receiver_rejects == t
        assert res.observer_escapes <= res.encoder_failures
        # the plug-in pool holds the n symbol pairs of each non-escaped trial
        assert res.pool.sum() == n * (t - res.observer_escapes)
        for key in totals:
            totals[key] += getattr(res, key)
    assert totals["accepts"] > 0 and totals["receiver_rejects"] > 0
    assert (totals["observer_escapes"] > 0) == (kind == "general")

    run = run_general_scheme if kind == "general" else run_memoryless_scheme
    rep = run(cfg, dsbs01, alt) if alt is not None else run(cfg, dsbs01)
    assert rep.beta_hat == totals.pop("accepts") / cfg.trials
    assert rep.counters == totals


# ---------------------------------------------------------------------------
# codebook materialization


def test_codebook_sizes_and_determinism():
    assert len(generate_codebook(Pmf.uniform(2), 6, 0.0, 1)) == 1
    cb = generate_codebook(Pmf.uniform(2), 4, 0.5, 1)
    assert cb.entries.shape == (4, 4)
    again = generate_codebook(Pmf.uniform(2), 4, 0.5, 1)
    assert np.array_equal(cb.entries, again.entries)


@pytest.mark.parametrize("rate", [-0.5, math.nan])
def test_codebook_rejects_bad_rate(rate):
    # NaN once reached int(floor(2**nan)) and raised a bare ValueError
    with pytest.raises(DomainError, match="^rate"):
        generate_codebook(Pmf.uniform(2), 4, rate, 1)


def test_codebook_cap_reports_feasible_blocklength():
    with pytest.raises(SizeOverflow, match="largest feasible blocklength is n = 24"):
        generate_codebook(Pmf.uniform(2), 100, 1.0, 1)


@pytest.mark.parametrize("args, error, match", [
    ((Pmf.uniform(2), 4, 0.5, -3), DomainError, r"seed -3 outside \[0, inf\]"),
    ((Pmf.uniform(2), 4, 0.5, 1.5), DomainError, "seed 1.5 must be an integer"),
    ((Pmf.uniform(2), 2.5, 0.5, 1), DomainError, "blocklength 2.5 must be an integer"),
    ((Pmf.uniform(2), 4, "0.5", 1), DomainError, "rate '0.5' must be a number"),
    ((JointPmf(np.full((2, 2), 0.25), ("U", "V")), 4, 0.5, 1), DimensionMismatch,
     "p_u must be a Pmf, got JointPmf"),
    ((Pmf.uniform(2), 10**12, 0.0, 1), SizeOverflow,
     "blocklength 1000000000000 exceeds the cap of 67108864 codebook entries"),
    ((Pmf.uniform(2), 24, 1.0, 1), SizeOverflow,
     "16777216 codewords of length 24 exceed the cap of 67108864 codebook entries"),
], ids=["seed-negative", "seed-fraction", "n-fraction", "rate-text", "joint-law", "n-huge",
        "entries"])
def test_codebook_refuses_inputs_it_cannot_draw(args, error, match):
    # a bare ValueError, TypeErrors, a law flattened into 4 symbols and a
    # 7.28 TiB MemoryError before
    with pytest.raises(error, match=f"^{match}$"):
        generate_codebook(*args)


def test_fixed_mode_cap(dsbs01):
    cfg = memoryless_cfg(n=40, rate=0.5, fixed_codebook=True)
    with pytest.raises(TooLarge):
        run_memoryless_scheme(cfg, dsbs01)


def test_trial_count_is_capped():
    # at about 3 us per trial, a run at the cap takes about 5 minutes
    assert memoryless_cfg(trials=simkit.TRIAL_CAP).trials == 10**8
    with pytest.raises(TooLarge, match=f"^{10**8 + 1} trials exceed the cap of {10**8}"):
        memoryless_cfg(trials=simkit.TRIAL_CAP + 1)


def test_batch_count_grows_only_past_the_cell_cap(dsbs01, monkeypatch):
    # 2^16 cells hold 1,365 trials at n = 24 with 2 mechanism outputs: 1,365
    # trials run as one batch, one more trial needs two. A trial of more than
    # 2^16 cells is a batch of its own, and one of more than 2^22 is refused
    run_one = simkit._Runner.run_batch

    def sizes(**kw):
        seen = []

        def run_batch(runner, b, trials):
            seen.append(trials)
            return run_one(runner, b, trials)

        with monkeypatch.context() as m:
            m.setattr(simkit._Runner, "run_batch", run_batch)
            run_memoryless_scheme(memoryless_cfg(**kw), dsbs01)
        return seen

    assert sizes(n=24, trials=1365) == [1365]
    assert sizes(n=24, trials=1366) == [683, 683]
    assert sizes(n=24, trials=6000) == [1200] * 5
    assert sizes(trials=37) == [37]
    # one codeword, scanned per trial: the ensemble's tables would pass their budget
    assert sizes(n=2**15 + 1, rate=0.0, trials=3, fixed_codebook=True) == [1, 1, 1]
    with pytest.raises(TooLarge, match="reduce the blocklength$"):
        sizes(n=2**21 + 1, trials=1)  # one trial alone is 2n > 2^22 cells
    with pytest.raises(TooLarge, match="reduce the blocklength$"):
        sizes(n=10**400, trials=1)  # once an OverflowError from n * rate


@given(st.integers(1, 2**20), st.integers(1, 4), st.integers(1, 200_000))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_batches_split_the_trials_within_the_cell_budget(n, ka, trials):
    # the fewest batches of at most BATCH_CELLS cells, or of one trial each
    cfg = memoryless_cfg(n=n, trials=trials, mechanism=Channel(np.full((2, ka), 1 / ka)),
                         quantizer=Channel(np.full((ka, 2), 0.5)))
    runner = simkit._Runner(cfg, dsbs(0.1), None)
    sizes = simkit._split_trials(trials, runner.batches)
    assert sum(sizes) == trials and min(sizes) >= 1
    assert all(t * n * ka <= simkit.BATCH_CELLS or t == 1 for t in sizes)
    per_batch = max(1, simkit.BATCH_CELLS // (n * ka))
    assert (runner.batches - 1) * per_batch < trials


# ---------------------------------------------------------------------------
# statistical behaviour


def test_identical_hypotheses_make_error_rates_complementary(dsbs01):
    # with P = Q both runs share one acceptance probability p, so the
    # empirical alpha = 1 - p and beta = p must sum to one up to noise
    base = dict(n=12, mu=0.4, rate=1.0, trials=20_000, mechanism=IDENT,
                quantizer=IDENT, scheme_kind="general")
    null = run_general_scheme(
        SchemeConfig(seed=31, hypothesis="null", **base), dsbs01, dsbs01
    )
    alt = run_general_scheme(
        SchemeConfig(seed=32, hypothesis="alt", **base), dsbs01, dsbs01
    )
    total = null.alpha_hat + alt.beta_hat
    sigma = math.sqrt(
        null.alpha_hat * (1 - null.alpha_hat) / null.trials
        + alt.beta_hat * (1 - alt.beta_hat) / alt.trials
    )
    assert abs(total - 1.0) <= 3.0 * sigma


def test_vanishing_radius_rejects_everything(dsbs01, product_uniform):
    cfg = SchemeConfig(n=8, mu=1e-6, rate=0.5, seed=3, trials=3000,
                       hypothesis="null", mechanism=IDENT, quantizer=IDENT,
                       scheme_kind="general")
    rep = run_general_scheme(cfg, dsbs01, product_uniform)
    assert rep.alpha_hat == 1.0
    assert rep.counters["observer_escapes"] > rep.trials / 2
    assert rep.counters["observer_escapes"] <= rep.counters["encoder_failures"]


def test_observer_gate_is_a_closed_ball(dsbs01, product_uniform):
    # at n = 40 the gate radius mu/4 = 0.025 is reached exactly by the X
    # types with 19 or 21 ones, whose tv computes a hair past it; the gate
    # once let only k = 20 through (about 12.5% of null trials)
    trials = 20000
    cfg = SchemeConfig(n=40, mu=0.1, rate=0.5, seed=1, trials=trials, hypothesis="null",
                       mechanism=IDENT, quantizer=IDENT, scheme_kind="general")
    rep = run_general_scheme(cfg, dsbs01, product_uniform)
    passed = 1.0 - rep.counters["observer_escapes"] / trials
    exact = sum(math.comb(40, k) for k in (19, 20, 21)) / 2**40  # 0.3642
    sigma = math.sqrt(exact * (1.0 - exact) / trials)
    assert abs(passed - exact) <= 4.0 * sigma


def test_type_one_error_decays_with_blocklength(dsbs01):
    alphas = []
    for n in (100, 200, 400, 800):
        cfg = SchemeConfig(n=n, mu=0.05, rate=0.55, seed=2024, trials=4000,
                           hypothesis="null", mechanism=BSC_HALF_BIT,
                           quantizer=BSC_HALF_BIT, scheme_kind="memoryless")
        alphas.append(run_memoryless_scheme(cfg, dsbs01).alpha_hat)
    assert all(b < a for a, b in zip(alphas, alphas[1:]))
    assert alphas[-1] <= 0.2


def test_type_two_error_decays_with_blocklength():
    source = dsbs(0.02)
    reports = []
    for n in (8, 12, 16, 20, 24):
        cfg = SchemeConfig(n=n, mu=0.25, rate=1.0, seed=2024, trials=20_000,
                           hypothesis="alt", mechanism=IDENT, quantizer=IDENT,
                           scheme_kind="memoryless")
        reports.append(run_memoryless_scheme(cfg, source))
    betas = [r.beta_hat for r in reports]
    assert betas[-1] < betas[0]
    # no confidence-separated inversion anywhere along the curve
    inversions = sum(
        1 for a, b in zip(reports, reports[1:]) if b.beta_ci95[0] > a.beta_ci95[1]
    )
    assert inversions == 0


def test_general_scheme_approaches_design_exponent(dsbs01, product_uniform):
    # both channels leak half a bit, so the design exponent of the realized
    # pair is the symmetric closed form at budgets (1/2, 1/2)
    eps = 0.11002786443835955
    design = 1.0 - binary_entropy(star(star(0.1, eps), eps))
    reports = {}
    for n in (8, 24):
        cfg = SchemeConfig(n=n, mu=0.2, rate=0.55, seed=2024, trials=40_000,
                           hypothesis="alt", mechanism=BSC_HALF_BIT,
                           quantizer=BSC_HALF_BIT, scheme_kind="general")
        reports[n] = run_general_scheme(cfg, dsbs01, product_uniform)

    rep = reports[24]
    assert rep.empirical_exponent is not None
    assert abs(rep.empirical_exponent - design) / design <= 0.25
    # finite-blocklength estimate must not beat the theory beyond noise
    exp_hi = -math.log2(rep.beta_ci95[0]) / rep.n
    sigma = (exp_hi - rep.empirical_exponent) / 1.959963984540054
    assert rep.empirical_exponent <= design + 2.0 * sigma

    # zero observed type-II errors: no exponent, Clopper-Pearson upper bound
    small = reports[8]
    assert small.beta_hat == 0.0
    assert small.empirical_exponent is None
    assert small.beta_upper95 == pytest.approx(
        1.0 - 0.05 ** (1.0 / small.trials), rel=1e-9
    )

    for rep in reports.values():
        assert rep.privacy_bound_bits >= rep.privacy_plugin_bits


def test_privacy_accounting_matches_documented_formula(dsbs01, product_uniform):
    mu = 0.2
    cfg = SchemeConfig(n=10, mu=mu, rate=0.5, seed=1, trials=500,
                       hypothesis="null", mechanism=BSC_HALF_BIT,
                       quantizer=BSC_HALF_BIT, scheme_kind="general")
    rep = run_general_scheme(cfg, dsbs01, product_uniform)
    leak_exact = 1.0 - binary_entropy(0.11002786443835955)
    mu_prime = 2.0 * mu
    mu_second = 1.0 - (1.0 - mu_prime) ** 2 * (1.0 - mu)
    assert rep.privacy_bound_bits == pytest.approx(
        leak_exact + mu_second * 1.0, abs=1e-12
    )
    # the memoryless report carries the exact mechanism leakage instead
    mcfg = memoryless_cfg(mechanism=BSC_HALF_BIT, quantizer=BSC_HALF_BIT,
                          trials=500)
    mrep = run_memoryless_scheme(mcfg, dsbs01)
    assert mrep.privacy_bound_bits == pytest.approx(leak_exact, abs=1e-12)


# ---------------------------------------------------------------------------
# plug-in privacy estimator


def test_empirical_privacy_extremes():
    rng = np.random.default_rng(0)
    x = rng.integers(0, 2, 100_000)
    assert empirical_privacy(IDENT, [(x, x)]) >= 0.999
    other = rng.integers(0, 2, 100_000)
    assert empirical_privacy(IDENT, [(x, other)]) <= 0.005


def test_empirical_privacy_half_bit_mechanism():
    rng = np.random.default_rng(0)
    x = rng.integers(0, 2, 100_000)
    eps = 0.11002786443835955
    xhat = np.where(rng.random(100_000) < eps, 1 - x, x)
    got = empirical_privacy(Channel.bsc(eps), [(x, xhat)])
    assert abs(got - 0.5) <= 0.02


def test_empirical_privacy_validation():
    with pytest.raises(EmptySample):
        empirical_privacy(IDENT, [])
    with pytest.raises(DomainError):
        empirical_privacy(IDENT, [([0, 1], [0])])


@pytest.mark.parametrize("pair, match", [
    (([0, 2], [0, 1]), "symbol 2 outside the mechanism's input"),
    (([0, 1], [0, -1]), "symbol -1 outside the mechanism's output"),
    (([0.9, 1.5], [0.2, 1.7]), "symbol 0.9 is not an integer"),
    (([0, 1], [0, 1.5]), "symbol 1.5 is not an integer"),
], ids=["input", "output", "float-pairs", "float-output"])
def test_empirical_privacy_refuses_symbols_outside_the_mechanism(pair, match):
    # once a bare numpy ValueError from bincount, or a count in the wrong
    # cell; float symbols were truncated, and the pairs above read as 1.0 bit
    with pytest.raises(DomainError, match=match):
        empirical_privacy(IDENT, [pair])


@pytest.mark.parametrize("samples", [[1], [([0], [0], [0])]], ids=["number", "triple"])
def test_empirical_privacy_refuses_a_sample_that_is_not_a_pair(samples):
    # once a bare TypeError or ValueError from unpacking the sample
    match = r"^each sample must be a \(raw, sanitized\) pair"
    with pytest.raises(DimensionMismatch, match=match):
        empirical_privacy(IDENT, samples)


# ---------------------------------------------------------------------------
# interval helpers and config validation


def test_wilson_interval_anchor():
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.4038315, abs=1e-6)
    assert hi == pytest.approx(0.5961685, abs=1e-6)
    assert wilson_interval(0, 50)[0] == 0.0
    assert wilson_interval(50, 50)[1] == 1.0
    assert wilson_interval(np.int64(50), np.int64(100)) == (lo, hi)
    with pytest.raises(DomainError):
        wilson_interval(1, 0)


def test_wilson_interval_at_the_ends_holds_its_estimate():
    # round-off once put the bound at k = 0 above 0 (2.8e-17) and the one at
    # k = n below 1 (0.9999999999999999) in 1,695 of these 6,000 cases
    for trials in range(1, 3001):
        for successes in (0, trials):
            lo, hi = wilson_interval(successes, trials)
            assert 0.0 <= lo <= successes / trials <= hi <= 1.0
    assert wilson_interval(0, 7)[0] == 0.0 and wilson_interval(7, 7)[1] == 1.0


@given(st.integers(1, simkit.TRIAL_CAP).flatmap(
    lambda n: st.tuples(st.integers(0, n), st.just(n))))
@settings(max_examples=500, derandomize=True, deadline=None)
def test_wilson_interval_holds_its_estimate(counts):
    successes, trials = counts
    lo, hi = wilson_interval(successes, trials)
    assert 0.0 <= lo <= successes / trials <= hi <= 1.0


@pytest.mark.parametrize("successes, trials, z, match", [
    (5, 10, math.nan, "^z nan "),
    (5, 10, math.inf, "^z inf "),
    (5, 10, 0.0, "^z 0.0 "),
    (5, 10, -1.96, "^z -1.96 "),
    (2.5, 10, 1.96, "^successes 2.5 must be an integer"),
    (5, 10.0, 1.96, "^trials 10.0 must be an integer"),
    (True, 10, 1.96, "^successes True must be an integer"),
], ids=["5-10-nan-^z nan ", "5-10-inf-^z inf ", "5-10-0.0-^z 0.0 ", "5-10--1.96-^z -1.96 ",
        # the ids the cases were first collected under, kept stable
        "2.5-10-1.96-^successes 2.5 is not", "5-10.0-1.96-^trials 10.0 is not",
        "True-10-1.96-^successes True is not"])
def test_wilson_interval_refuses_bad_counts_and_z(successes, trials, z, match):
    # once z = nan gave (0.0, 1.0) and 2.5 successes gave an interval
    with pytest.raises(DomainError, match=match):
        wilson_interval(successes, trials, z)


@pytest.mark.parametrize("successes", [11, -1])
def test_wilson_interval_refuses_counts_outside_the_trials(successes):
    # once a bare math domain error from the square root
    with pytest.raises(DomainError, match=f"^successes {successes} "):
        wilson_interval(successes, 10)


@pytest.mark.parametrize("successes, trials", [(1, 10), (7, 1500), (160, 1500), (999, 1000)])
def test_clopper_pearson_upper_is_the_beta_quantile(successes, trials):
    # P(Beta(k + 1, n - k) <= upper) = 0.95, checked through the cdf
    upper = simkit._clopper_pearson_upper(successes, trials)
    assert successes / trials < upper < 1.0
    assert betainc(successes + 1, trials - successes, upper) == pytest.approx(0.95, abs=1e-12)


@pytest.mark.parametrize("successes", [11, -1])
def test_clopper_pearson_upper_refuses_counts_outside_the_trials(successes):
    # once -1 gave nan and 11 gave 1.0
    with pytest.raises(DomainError, match=f"^successes {successes} "):
        simkit._clopper_pearson_upper(successes, 10)


@pytest.mark.parametrize("trials", [1, 10, 1500, 6000, 10**5, simkit.TRIAL_CAP])
def test_clopper_pearson_upper_matches_betaincinv(trials):
    # scipy's betaincinv is the oracle. At the trial cap it is itself off by
    # 1.03e-9 of the bound at k = 1 against a 50-digit reference, so the cap's
    # tolerance is twice that; k = 0 and k = 1 are also checked without scipy
    tol = 1e-12 if trials <= 10**5 else 2e-9
    for k in sorted({0, min(1, trials - 1), trials // 2, trials - 1}):
        upper = simkit._clopper_pearson_upper(k, trials)
        assert upper == pytest.approx(betaincinv(k + 1, trials - k, 0.95), rel=tol, abs=0), k
    # at k = 0, (1 - u)^n = 0.05: u = 1 - 0.05^(1/n), checked in logs, since
    # forming that difference directly loses 9e-11 of u at the trial cap
    u = simkit._clopper_pearson_upper(0, trials)
    assert trials * math.log1p(-u) == pytest.approx(math.log(0.05), rel=1e-14, abs=0)


@pytest.mark.parametrize("trials", [3, 10, 1500, 6000, 10**5, 10**6, simkit.TRIAL_CAP])
def test_clopper_pearson_upper_at_one_success_solves_its_two_term_cdf(trials):
    # P(Bin(n, u) <= 1) = (1 - u)^(n - 1) (1 + (n - 1) u) = 0.05, in logs. Its
    # slope in ln u is about -4, so 1e-14 here is a few 1e-15 of u; betaincinv's
    # bound at the trial cap misses by 4e-9
    u = simkit._clopper_pearson_upper(1, trials)
    log_cdf = (trials - 1) * math.log1p(-u) + math.log1p((trials - 1) * u)
    assert abs(log_cdf - math.log(0.05)) <= 1e-14


def test_config_validation():
    with pytest.raises(DomainError):
        memoryless_cfg(n=0)
    with pytest.raises(DomainError):
        memoryless_cfg(trials=0)
    with pytest.raises(DomainError):
        memoryless_cfg(mu=-0.1)
    with pytest.raises(DomainError):
        memoryless_cfg(hypothesis="maybe")
    with pytest.raises(DomainError):
        memoryless_cfg(scheme_kind="hybrid")
    with pytest.raises(DomainError):
        memoryless_cfg(quantizer=Channel.identity(3))
    with pytest.raises(DomainError):
        memoryless_cfg(mu_prime=0.1)  # below mu


@pytest.mark.parametrize("field", ["mu", "rate", "mu_prime"])
def test_config_rejects_nan(field):
    # NaN compares false with everything, so it must not slip past the checks
    with pytest.raises(DomainError):
        memoryless_cfg(**{field: math.nan})


def test_scheme_kind_mismatch(dsbs01, product_uniform):
    general = memoryless_cfg(scheme_kind="general")
    with pytest.raises(DomainError):
        run_memoryless_scheme(general, dsbs01)
    with pytest.raises(DomainError):
        run_general_scheme(memoryless_cfg(), dsbs01, product_uniform)


@pytest.mark.parametrize("kind", ["memoryless", "general"])
def test_a_radius_covering_the_simplex_always_encodes(kind, dsbs01, product_uniform):
    # at mu >= 2 every count table is typical, so a codeword always fits;
    # log1p(-1) once ended such a run in a bare ValueError
    cfg = memoryless_cfg(mu=2.0, trials=200, scheme_kind=kind)
    if kind == "memoryless":
        report = run_memoryless_scheme(cfg, dsbs01)
    else:
        report = run_general_scheme(cfg, dsbs01, product_uniform)
    assert report.counters["encoder_failures"] == report.counters["observer_escapes"]
    assert report.counters["receiver_rejects"] == 0


def test_general_gate_cannot_cover_the_simplex(dsbs01, product_uniform):
    cfg = memoryless_cfg(scheme_kind="general", mu=4.5)
    with pytest.raises(DegenerateConfig):
        run_general_scheme(cfg, dsbs01, product_uniform)


# ---------------------------------------------------------------------------
# the input contract: a config is checked once, here, and the CLI relies on it


@pytest.mark.parametrize("field, value, match", [
    ("fixed_codebook", "no", "config key 'fixed_codebook' must be true or false, got 'no'"),
    ("mu", True, "config key 'mu' True must be a number"),
    ("n", True, "config key 'n' True must be an integer"),
    ("n", 2.9, "config key 'n' 2.9 must be an integer"),
    ("trials", 10.5, "config key 'trials' 10.5 must be an integer"),
    ("seed", 1.5, "config key 'seed' 1.5 must be an integer"),
    ("seed", -1, "config key 'seed' -1 outside [0, inf]"),
    ("rate", 10**400, "config key 'rate' is too large for a float"),
    ("mechanism", np.eye(2), "config key 'mechanism' must be a channel, got ndarray"),
    ("quantizer", IDENT.to_dict(), "config key 'quantizer' must be a channel, got dict"),
], ids=["string-bool", "bool-mu", "bool-n", "float-n", "float-trials", "float-seed",
        "negative-seed", "huge-rate", "array-mechanism", "dict-quantizer"])
def test_config_refuses_bad_field_kinds(field, value, match):
    # each was once built: "no" switched fixed-codebook mode on and True ran
    # as 1; the float counts ended in a bare TypeError inside the run, seed -1
    # in numpy's ValueError, the array in an AttributeError and the huge rate
    # in an OverflowError
    with pytest.raises(DomainError, match=f"^{re.escape(match)}$"):
        memoryless_cfg(**{field: value})


def test_numpy_counts_are_stored_as_python_numbers(dsbs01):
    cfg = memoryless_cfg(n=np.int64(12), seed=np.int64(5), trials=np.int64(6000),
                         mu=np.float64(0.3), rate=1)
    assert [type(v) for v in (cfg.n, cfg.seed, cfg.trials, cfg.mu, cfg.rate)] == \
        [int, int, int, float, float]
    report = run_memoryless_scheme(cfg, dsbs01).to_dict()
    assert report == run_memoryless_scheme(memoryless_cfg(), dsbs01).to_dict()


def test_general_scheme_needs_an_alternative(dsbs01):
    # once ran against the product law without a word
    with pytest.raises(DomainError, match="^the general scheme needs q_xy"):
        run_general_scheme(memoryless_cfg(scheme_kind="general"), dsbs01, None)


@pytest.mark.parametrize("law, got", [
    (IDENT, "Channel"),
    (JointPmf(np.full((2, 2, 2), 0.125), ("X", "Y", "Z")), "shape (2, 2, 2)"),
], ids=["channel", "three-axes"])
def test_runs_refuse_a_law_that_is_not_two_axis(law, got, dsbs01):
    # a channel once ended in an AttributeError, three axes in a ValueError
    match = f"^expected a two-axis joint law, got {re.escape(got)}$"
    general = memoryless_cfg(scheme_kind="general")
    with pytest.raises(DimensionMismatch, match=match):
        run_memoryless_scheme(memoryless_cfg(), law)
    with pytest.raises(DimensionMismatch, match=match):
        run_general_scheme(general, law, dsbs01)
    with pytest.raises(DimensionMismatch, match=match):
        run_general_scheme(general, dsbs01, law)


THREE_OUTPUTS = Channel(np.full((2, 3), 1 / 3))


@pytest.mark.parametrize("run, error, match", [
    (lambda p: run_memoryless_scheme(memoryless_cfg(mechanism=Channel(np.full((3, 2), 0.5))), p),
     DomainError, "mechanism input does not match the source alphabet"),
    (lambda p: run_general_scheme(memoryless_cfg(scheme_kind="general"), p,
                                  JointPmf(np.full((2, 3), 1 / 6), ("X", "Y"))),
     AlphabetMismatch, r"joint shapes differ: \(2, 2\) vs \(2, 3\)"),
    (lambda p: generate_codebook(Pmf.uniform(2), 0, 1.0, 1),
     DomainError, r"blocklength 0 outside \[1, inf\]"),
    (lambda p: run_memoryless_scheme(
        memoryless_cfg(n=60, rate=0.5, mechanism=THREE_OUTPUTS,
                       quantizer=Channel(np.full((3, 3), 1 / 3))), p),
     SizeOverflow, "joint-type enumeration needs more than 2000000 tables"),
], ids=["mechanism-inputs", "alternative-shape", "codebook-n0", "table-budget"])
def test_runs_refuse_inputs_that_do_not_fit(run, error, match, dsbs01):
    with pytest.raises(error, match=f"^{match}"):
        run(dsbs01)


ONE_OUTPUT = Channel(np.ones((2, 1)))
SEVEN_OUTPUTS = Channel(np.full((1, 7), 1 / 7))


@pytest.mark.parametrize("n", [33, 60])
def test_the_table_budget_is_checked_before_any_class_is_enumerated(n, dsbs01, monkeypatch):
    # one class of n samples over 7 codeword symbols has comb(n + 6, 6)
    # count vectors: 3.3M at n = 33 and 91M at n = 60, past the 2M budget.
    # Enumerated first, they took 15 s and 540 MB at n = 33, and at n = 60
    # would take about 5 GB
    def enumerate_(*args):
        raise AssertionError("a class was enumerated")

    monkeypatch.setattr(simkit, "_compositions", enumerate_)
    cfg = memoryless_cfg(n=n, trials=10, mechanism=ONE_OUTPUT, quantizer=SEVEN_OUTPUTS)
    start = time.perf_counter()
    with pytest.raises(SizeOverflow, match="^joint-type enumeration needs more than 2000000"):
        run_memoryless_scheme(cfg, dsbs01)
    assert time.perf_counter() - start < 1.0


def test_a_size_overflow_is_a_size_cap_refusal():
    # the CLI maps every TooLarge to exit 4
    assert issubclass(SizeOverflow, TooLarge)


CONFIG_FIELDS = ["n", "mu", "rate", "seed", "trials", "hypothesis", "mechanism", "quantizer",
                 "scheme_kind", "mu_prime", "fixed_codebook"]
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400, "alt", "null", "general"]),
    st.integers(-3, 40),
    st.floats(-3.0, 40.0),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
)


@given(st.dictionaries(st.sampled_from(CONFIG_FIELDS), JSON_SCALARS, max_size=3))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_config_construction_refuses_or_normalizes(overrides):
    # a field as a JSON file could give it: never a bare TypeError,
    # ValueError or AttributeError, and counts and radii of one type each
    try:
        cfg = memoryless_cfg(**overrides)
    except ToolkitError:
        return
    assert [type(v) for v in (cfg.n, cfg.seed, cfg.trials, cfg.mu, cfg.rate)] == \
        [int, int, int, float, float]
    assert cfg.mu_prime is None or type(cfg.mu_prime) is float
    assert type(cfg.fixed_codebook) is bool
