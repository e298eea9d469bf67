"""End-to-end acceptance battery.

Each test evaluates one numbered contract point, records a PASS/FAIL line for
the terminal summary, and then asserts. Tolerances are fixed here and are not
to be loosened. Criterion 1 reports the grid points where the unrestricted
search beats the symmetric closed form and checks each one's witness
channels. Criterion 6 fails: its typicality receiver at mu = 0.35 accepts
types close to the independent alternative, so its type-II error neither
decays monotonically at n = 8..24 nor reaches the exponent floor.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from privexp import (
    Channel,
    GaussianQuery,
    JointPmf,
    MarginalConstraint,
    Pmf,
    SchemeConfig,
    binary_euclid_approx,
    binary_tai_exponent,
    brute_force_i_project,
    chain_joint,
    empirical_privacy,
    euclid_tai_approx,
    gaussian_achievable_at_beta,
    gaussian_tai_exponent,
    i_project,
    mutual_information,
    run_general_scheme,
    run_memoryless_scheme,
    symmetric_tai_exponent,
    tai_exponent,
    zero_rate_exponent,
)

Q_NOISE = 0.1


def dsbs(eps: float) -> JointPmf:
    half = eps / 2.0
    return JointPmf(np.array([[0.5 - half, half], [half, 0.5 - half]]), ("X", "Y"))


def test_criterion_1_closed_form_vs_search_grid(criterion):
    """Closed form vs search on an 80-point grid.

    The unrestricted search may not fall more than 1e-2 below the symmetric
    closed form, and every point where it lands more than 1e-2 above must
    carry a witness pair that meets both budgets and attains the reported
    value. An asymmetric mechanism can beat the closed form when R far
    exceeds L (see test_asymmetric_mechanism_beats_symmetric_closed_form).
    The closed form is the optimum over symmetric pairs, so the exponent
    restricted to them (two root solves, no grid) must match it within 1e-2
    on both sides.
    """
    source = dsbs(Q_NOISE)
    rates = [0.1, 0.25, 0.5, 1.0]
    leaks = [round(0.05 * k, 2) for k in range(1, 21)]
    start = time.monotonic()
    over, under = [], []
    results = {}
    for r in rates:
        for l in leaks:
            res = tai_exponent(source, r, l)
            results[r, l] = res
            diff = res.theta - binary_tai_exponent(Q_NOISE, r, l)
            if diff > 1e-2:
                over.append((r, l, diff))
            elif diff < -1e-2:
                under.append((r, l, diff))
    elapsed = time.monotonic() - start

    unverified = []
    for r, l, _ in over:
        res = results[r, l]
        chain = chain_joint(source, res.mechanism, res.quantizer)
        leak_mi = mutual_information(chain.marginal("X", "Xh"), "X")
        rate_mi = mutual_information(chain.marginal("U", "Xh"))
        value = mutual_information(chain.marginal("U", "Y"))
        if leak_mi > l + 1e-6 or rate_mi > r + 1e-6 or abs(value - res.theta) > 1e-9:
            unverified.append((r, l, leak_mi, rate_mi, value, res.theta))

    bsc_gap = max(
        abs(symmetric_tai_exponent(source, r, l).theta - binary_tai_exponent(Q_NOISE, r, l))
        for r in rates
        for l in leaks
    )

    worst = max((d for _, _, d in over), default=0.0)
    detail = (
        f"80 grid points, {80 - len(over) - len(under)} within 1e-2; "
        f"{len(over)} above (max +{worst:.2e}), "
        f"{len(over) - len(unverified)} with a verified witness; "
        f"{len(under)} below; {elapsed:.0f}s; "
        f"symmetric-pair search max gap {bsc_gap:.1e} <= 1e-2"
    )
    ok = not under and not unverified and bsc_gap <= 1e-2 and elapsed < 120.0
    criterion(1, ok, detail)
    assert elapsed < 120.0
    assert not under, f"search fell below the closed form: {under}"
    assert not unverified, (
        "reported witnesses miss a budget or the reported value "
        f"(R, L, I(X;Xh), I(U;Xh), I(U;Y), theta): {unverified}"
    )
    assert bsc_gap <= 1e-2, (
        f"symmetric-pair search is {bsc_gap:.2e} from the closed form, "
        "which is its optimum"
    )


def test_criterion_2_zero_budget_and_zero_rate(criterion):
    source = dsbs(Q_NOISE)
    skew = JointPmf(np.array([[0.4, 0.1], [0.2, 0.3]]), ("X", "Y"))
    worst_tai = max(
        tai_exponent(source, 0.0, 1.0).theta,
        tai_exponent(source, 1.0, 0.0).theta,
        tai_exponent(skew, 0.0, 0.5).theta,
        tai_exponent(skew, 0.5, 0.0).theta,
    )
    worst_zero_rate = 0.0
    for law in (source, skew):
        p = np.asarray(law.probs)
        product = JointPmf(np.outer(p.sum(axis=1), p.sum(axis=0)), ("X", "Y"))
        worst_zero_rate = max(worst_zero_rate, zero_rate_exponent(law, product).theta)

    ok = worst_tai <= 1e-6 and worst_zero_rate <= 1e-9
    criterion(
        2, ok,
        f"zero-budget search max {worst_tai:.1e} <= 1e-6; "
        f"independence zero-rate max {worst_zero_rate:.1e} <= 1e-9",
    )
    assert worst_tai <= 1e-6
    assert worst_zero_rate <= 1e-9


def test_criterion_3_projection_oracle_and_monotonicity(criterion):
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    worst = 0.0
    for k in range(50):
        shape = (2, 2) if k % 2 == 0 else (2, 3)
        ref = JointPmf(
            rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape), ("X", "Y")
        )
        other = rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)
        constraints = [
            MarginalConstraint(("X",), other.sum(axis=1), "x"),
            MarginalConstraint(("Y",), other.sum(axis=0), "y"),
        ]
        fast = i_project(ref, constraints)
        slow = brute_force_i_project(ref, constraints, grid_step=1e-3)
        worst = max(worst, abs(fast.min_kl - slow.min_kl))
        trace = np.asarray(fast.dual_trace)
        assert np.all(np.diff(trace) >= -1e-8), f"certificate dipped, instance {k}"
    elapsed = time.monotonic() - start

    ok = worst <= 1e-3 and elapsed < 60.0
    criterion(
        3, ok,
        f"50 instances vs exhaustive oracle, max gap {worst:.2e} <= 1e-3; "
        f"certificate monotone every sweep; {elapsed:.0f}s",
    )
    assert worst <= 1e-3
    assert elapsed < 60.0


def test_criterion_4_quadratic_approximation(criterion):
    start = time.monotonic()
    rels = []
    for budget in (0.005, 0.01, 0.02):
        exact = binary_tai_exponent(Q_NOISE, budget, budget)
        rels.append(abs(binary_euclid_approx(Q_NOISE, budget, budget) - exact) / exact)
    solver = euclid_tai_approx(dsbs(Q_NOISE), 0.01, 0.01).value
    closed = binary_euclid_approx(Q_NOISE, 0.01, 0.01)
    solver_gap = abs(solver - closed) / closed
    elapsed = time.monotonic() - start

    ok = max(rels) <= 0.15 and solver_gap <= 0.05 and elapsed < 60.0
    criterion(
        4, ok,
        f"closed-form rel err max {max(rels):.4f} <= 0.15; solver vs closed "
        f"form {solver_gap:.2e} <= 0.05; {elapsed:.0f}s",
    )
    assert max(rels) <= 0.15
    assert solver_gap <= 0.05
    assert elapsed < 60.0


def test_criterion_5_gaussian_curve_and_limit(criterion):
    q = GaussianQuery(0.8, 1.0, 1.0)
    hi = 1.0 - 2.0 ** (-2.0 * q.leak)
    lo = 2.0 ** (-2.0 * q.rate) * hi
    grid_max = max(
        gaussian_achievable_at_beta(q, b) for b in np.linspace(lo, hi, 401)
    )
    curve_gap = abs(grid_max - gaussian_tai_exponent(q))

    limit_gap = 0.0
    for r in (0.25, 0.5, 1.0):
        limit = 0.5 * math.log2(1.0 / (1.0 - 0.64 * (1.0 - 2.0 ** (-2.0 * r))))
        got = gaussian_tai_exponent(GaussianQuery(0.8, r, math.inf))
        limit_gap = max(limit_gap, abs(got - limit))

    ok = curve_gap <= 1e-10 and limit_gap <= 1e-9
    criterion(
        5, ok,
        f"beta-curve max vs closed form {curve_gap:.1e} <= 1e-10; "
        f"unbounded-leak limit gap {limit_gap:.1e} <= 1e-9",
    )
    assert curve_gap <= 1e-10
    assert limit_gap <= 1e-9


def test_criterion_6_memoryless_scheme_at_design_point(criterion):
    """Simulated error decay at the full-budget optimum (identity channels).

    The decay and floor clauses ask more than this receiver promises at
    mu = 0.35, and the test fails on them. The receiver accepts when the
    joint type of (U, Y) lies within total variation mu of P_UY. Under the
    alternative U and Y are independent, and the ball holds the type
    [[.275, .225], [.225, .275]], only 0.0072 bits from P_U x P_Y; by
    Sanov's theorem for a convex set the type-II exponent tends to at most
    0.0072 bits as n grows, not to the design value. Exact enumeration with
    U = X gives beta = 0.315, 0.342, 0.388, 0.408, 0.268 at n = 8..24: the
    rises and the exponent near 0.08 at n = 24 come from the lattice of
    types inside the ball, not from the simulator.
    """
    theta_design = binary_tai_exponent(Q_NOISE, 1.0, 1.0)  # 0.531 bits
    source = dsbs(Q_NOISE)
    ident = Channel.identity(2)
    blocklengths = (8, 12, 16, 20, 24)
    start = time.monotonic()
    reports = []
    for n in blocklengths:
        cfg = SchemeConfig(n=n, mu=0.35, rate=1.0, seed=2024, trials=100_000,
                           hypothesis="alt", mechanism=ident, quantizer=ident,
                           scheme_kind="memoryless")
        reports.append(run_memoryless_scheme(cfg, source))
    null_cfg = SchemeConfig(n=24, mu=0.35, rate=1.0, seed=2024, trials=100_000,
                            hypothesis="null", mechanism=ident, quantizer=ident,
                            scheme_kind="memoryless")
    alpha_24 = run_memoryless_scheme(null_cfg, source).alpha_hat
    elapsed = time.monotonic() - start

    rises = [
        (a.n, b.n) for a, b in zip(reports, reports[1:])
        if b.beta_ci95[0] > a.beta_ci95[1]
    ]
    strictly_decreasing = not rises

    cap_ok = True
    for rep in reports:
        exp_hi = -math.log2(rep.beta_ci95[0]) / rep.n
        sigma = (exp_hi - rep.empirical_exponent) / 1.959963984540054
        cap_ok &= rep.empirical_exponent <= theta_design + 2.0 * sigma
    exp_24 = reports[-1].empirical_exponent
    floor_ok = exp_24 >= 0.25
    alpha_ok = alpha_24 <= 0.1

    ok = strictly_decreasing and cap_ok and floor_ok and alpha_ok and elapsed < 600.0
    criterion(
        6, ok,
        f"exponent cap {'ok' if cap_ok else 'violated'}, alpha(24)="
        f"{alpha_24:.3f} {'<=' if alpha_ok else '>'} 0.1; beta decay "
        f"{'monotone' if strictly_decreasing else f'rises at n={rises}'}, "
        f"exponent(24)={exp_24:.3f} {'>=' if floor_ok else '<'} 0.25; "
        f"{elapsed:.0f}s",
    )
    assert elapsed < 600.0
    assert cap_ok, "estimated exponent exceeds the design value beyond noise"
    assert alpha_ok, f"type-I error {alpha_24} above 0.1 at n=24"
    assert strictly_decreasing, (
        f"type-II error rises with confidence separation at {rises}; at these "
        "short blocklengths the typicality radius dominates the decay"
    )
    assert floor_ok, (
        f"empirical exponent {exp_24:.3f} at n=24 is below the 0.25 floor; the "
        "mu=0.35 acceptance ball holds a type 0.0072 bits from the independent "
        "alternative, so the exponent tends to at most 0.0072 bits as n grows"
    )


def test_criterion_7_privacy_estimates(criterion, dsbs01, product_uniform):
    start = time.monotonic()
    eps = 0.11002786443835955  # h_b^{-1}(1 - 0.5)
    rng = np.random.default_rng(0)
    x = rng.integers(0, 2, 100_000)
    xhat = np.where(rng.random(100_000) < eps, 1 - x, x)
    plugin = empirical_privacy(Channel.bsc(eps), [(x, xhat)])
    plugin_ok = abs(plugin - 0.5) <= 0.02

    bound_ok = True
    for seed in (1, 2, 3):
        cfg = SchemeConfig(n=10, mu=0.25, rate=0.5, seed=seed, trials=2000,
                           hypothesis="alt", mechanism=Channel.bsc(eps),
                           quantizer=Channel.bsc(eps), scheme_kind="general")
        rep = run_general_scheme(cfg, dsbs01, product_uniform)
        bound_ok &= rep.privacy_bound_bits >= rep.privacy_plugin_bits
    elapsed = time.monotonic() - start

    ok = plugin_ok and bound_ok and elapsed < 60.0
    criterion(
        7, ok,
        f"half-bit mechanism plug-in {plugin:.4f} within 0.5 +/- 0.02; "
        f"accounting bound >= plug-in on every run: {bound_ok}; {elapsed:.0f}s",
    )
    assert plugin_ok
    assert bound_ok
    assert elapsed < 60.0


def test_criterion_8_selftest_determinism(criterion, tmp_path):
    blobs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "privexp.cli", "selftest", "--seed", "2024",
             "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1]
    criterion(8, ok, f"two selftest runs, same master seed: "
                     f"{'byte-identical' if ok else 'reports differ'}")
    assert ok
