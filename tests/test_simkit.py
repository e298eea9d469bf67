"""Monte Carlo scheme simulation: determinism, cross-checks, and estimators.

The marginalized-codebook route is validated against an explicit simulator
written here from scratch: it draws a fresh codebook per trial, scans it for
a jointly typical codeword, and applies the same receiver test. The two
routes share no code beyond the config, so statistical agreement of their
acceptance rates checks the analytic encoder marginalization end to end.
"""

import math

import numpy as np
import pytest
from scipy.special import betainc

from privexp import (
    Channel,
    DegenerateConfig,
    DomainError,
    EmptySample,
    JointPmf,
    Pmf,
    SchemeConfig,
    SizeOverflow,
    TooLarge,
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
    assert a.beta_hat == pytest.approx(0.05525, abs=1e-12)


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


P_XY3 = np.array([[0.30, 0.15, 0.05], [0.05, 0.15, 0.30]])


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
def test_counters_partition_the_trials(kind, fixed, n, rate, dsbs01):
    cfg = SchemeConfig(n=n, mu=0.35, rate=rate, seed=11, trials=600,
                       hypothesis="alt", mechanism=BSC_HALF_BIT,
                       quantizer=BSC_HALF_BIT, scheme_kind=kind,
                       fixed_codebook=fixed)
    q = JointPmf(np.array([[0.2, 0.3], [0.25, 0.25]]), ("X", "Y"))
    alt = q if kind == "general" else None
    runner = simkit._Runner(cfg, dsbs01, alt)
    assert (runner.m_count is None) == (n * rate >= 53)
    totals = dict.fromkeys(
        ["accepts", "observer_escapes", "encoder_failures", "receiver_rejects"], 0
    )
    for b, t in enumerate(simkit._split_trials(cfg.trials, runner.batches)):
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


def test_fixed_mode_cap(dsbs01):
    cfg = memoryless_cfg(n=40, rate=0.5, fixed_codebook=True)
    with pytest.raises(TooLarge):
        run_memoryless_scheme(cfg, dsbs01)


def test_trial_count_is_capped():
    # at about 12 us per trial, a run at the cap takes about 20 minutes
    assert memoryless_cfg(trials=simkit.TRIAL_CAP).trials == 10**8
    with pytest.raises(TooLarge, match=f"^{10**8 + 1} trials exceed the cap of {10**8}"):
        memoryless_cfg(trials=simkit.TRIAL_CAP + 1)


def test_batch_count_grows_only_past_the_cell_cap(dsbs01):
    # the cap holds 87,381 trials per batch at n = 24 with 2 mechanism
    # outputs: 100 batches cover 8,738,100 trials, one more trial needs 101
    def batches(**kw):
        return simkit._Runner(memoryless_cfg(**kw), dsbs01, None).batches

    assert batches(n=24, trials=8_738_100) == 100
    assert batches(n=24, trials=8_738_101) == 101
    assert batches(trials=37) == 37
    with pytest.raises(TooLarge, match="reduce the blocklength$"):
        batches(n=2**21 + 1, trials=1)  # one trial alone is 2n > 2^22 cells


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


@pytest.mark.parametrize("successes, trials, z, match", [
    (5, 10, math.nan, "^z nan "),
    (5, 10, math.inf, "^z inf "),
    (5, 10, 0.0, "^z 0.0 "),
    (5, 10, -1.96, "^z -1.96 "),
    (2.5, 10, 1.96, "^successes 2.5 is not"),
    (5, 10.0, 1.96, "^trials 10.0 is not"),
    (True, 10, 1.96, "^successes True is not"),
])
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


def test_general_gate_cannot_cover_the_simplex(dsbs01, product_uniform):
    cfg = memoryless_cfg(scheme_kind="general", mu=4.5)
    with pytest.raises(DegenerateConfig):
        run_general_scheme(cfg, dsbs01, product_uniform)
