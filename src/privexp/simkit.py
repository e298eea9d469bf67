"""Monte Carlo runs of the two coding schemes at finite blocklength.

Both schemes share a pipeline: draw (X^n, Y^n) from the hypothesis law, pass
X^n through the memoryless mechanism, encode the sanitized sequence with the
first jointly typical codeword, and let the receiver accept when the chosen
codeword is jointly typical with its side information. The general scheme
adds an observer gate in front: source sequences with an atypical type are
replaced by the all-zero escape sequence (symbol index 0), after which
encoding fails and the receiver declares the alternative.

Error rates are random-coding averages. Rather than materializing a fresh
codebook per trial, each trial integrates the codebook out exactly: the
per-codeword success probability is a sum over jointly typical count tables
(one multinomial block per sanitized-symbol class), encoder failure is a
Bernoulli draw with probability (1 - p_succ)^M, and the accepted codeword's
joint type with Y^n is sampled by hypergeometric allocation inside each
class. This is distributionally identical to drawing M = floor(2^{nR})
codewords per trial and scanning them. An explicit single-codebook mode
(``fixed_codebook``) exists for small M as an independent cross-check; only
that mode and ``generate_codebook`` are bound by the materialization caps.

Trials are split into batches that run in order; batch b consumes its own
counter-based stream (spawn key b+1, key 0 is reserved for codebook
generation), so a report is reproducible bit-for-bit from its seed. The
batch count is derived, not configured: ``DEFAULT_BATCHES`` (or one batch
per trial below that), raised only as far as ``BATCH_CELL_CAP`` requires.

A batch runs as array operations over its trials, drawing in this order:

1. one ``(trials, 2n)`` block of uniforms; columns ``[0, n)`` sample
   (X, Y) by inverse cdf and columns ``[n, 2n)`` push X through the
   mechanism. The general scheme's observer gate is a TV test on the rows'
   X types; escaped rows skip everything below.
2. ``trials`` encoder-failure uniforms. Trials are grouped by their
   class-size vector n_a, whose typical tables are built once per run.
3. ``trials`` table uniforms, turned into count tables by one
   ``searchsorted`` per group.
4. the allocation chain: one array-valued ``hypergeometric`` call per
   (u, y) link, over every class of every encoded trial.

The receiver's decision is then a TV distance per row. In fixed-codebook
mode steps 2-4 are replaced by a per-trial scan of the codebook, so the
memoryless scheme draws exactly 2n uniforms per trial, as a trial-by-trial
loop would. A batch holds the arrays of all its trials at once, so
``BATCH_CELL_CAP`` bounds trials per batch x n x mechanism outputs in
every mode; a blocklength at which a single trial passes it is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv, gammaln

from .errors import (
    DegenerateConfig,
    DomainError,
    EmptySample,
    SizeOverflow,
    TooLarge,
)
from .probcore import Channel, JointPmf, Pmf, _compositions, _pair_joints, _symbols
from .probcore import _mi_bits  # plug-in estimates share the exact MI kernel

__all__ = [
    "SchemeConfig",
    "Codebook",
    "SimReport",
    "generate_codebook",
    "run_general_scheme",
    "run_memoryless_scheme",
    "empirical_privacy",
    "wilson_interval",
]

CODEBOOK_CAP = 2**24
FIXED_MODE_CAP = 2**18
TABLE_BUDGET = 2_000_000
# trials per batch x n x mechanism outputs; a batch peaks at about 40 bytes
# per cell (ka = 2), so about 170 MB at the cap
BATCH_CELL_CAP = 2**22
# batches of a run that fits the cap; the count fixes each report's streams
DEFAULT_BATCHES = 100
# trials of one run; at about 12 us per trial the cap is about 20 minutes
TRIAL_CAP = 10**8


@dataclass(frozen=True)
class SchemeConfig:
    """Full description of one simulation run (seed included)."""

    n: int
    mu: float
    rate: float
    seed: int
    trials: int
    hypothesis: str  # "null" or "alt"
    mechanism: Channel
    quantizer: Channel
    scheme_kind: str  # "general" or "memoryless"
    mu_prime: float | None = None  # conditional radius; defaults to 2*mu
    fixed_codebook: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("blocklength must be at least 1")
        if self.trials < 1:
            raise DomainError("need at least one trial")
        if self.trials > TRIAL_CAP:
            raise TooLarge(f"{self.trials} trials exceed the cap of {TRIAL_CAP} per run")
        # written so that NaN fails each check
        if not self.mu >= 0.0:
            raise DomainError(f"typicality radius {self.mu!r} must be nonnegative")
        if not self.rate >= 0.0:
            raise DomainError(f"rate {self.rate!r} must be nonnegative")
        if self.hypothesis not in ("null", "alt"):
            raise DomainError(f"unknown hypothesis {self.hypothesis!r}")
        if self.scheme_kind not in ("general", "memoryless"):
            raise DomainError(f"unknown scheme kind {self.scheme_kind!r}")
        if self.mechanism.matrix.shape[1] != self.quantizer.matrix.shape[0]:
            raise DomainError("mechanism output and quantizer input sizes differ")
        if self.mu_prime is not None and not self.mu_prime > self.mu:
            raise DomainError(f"conditional radius {self.mu_prime!r} must exceed mu")


@dataclass(frozen=True)
class Codebook:
    entries: np.ndarray  # (M, n) symbol indices, rows indexed 1..M
    seed: int

    def __len__(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SimReport:
    scheme: str
    hypothesis: str
    n: int
    trials: int
    mu: float
    rate: float
    seed: int
    alpha_hat: float | None
    beta_hat: float | None
    beta_ci95: tuple[float, float] | None
    beta_upper95: float | None
    empirical_exponent: float | None
    privacy_bound_bits: float
    privacy_plugin_bits: float | None
    counters: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "hypothesis": self.hypothesis,
            "n": self.n,
            "trials": self.trials,
            "mu": self.mu,
            "rate_bits": self.rate,
            "seed": self.seed,
            "alpha_hat": self.alpha_hat,
            "beta_hat": self.beta_hat,
            "beta_ci95": None if self.beta_ci95 is None else list(self.beta_ci95),
            "beta_upper95": self.beta_upper95,
            "empirical_exponent": self.empirical_exponent,
            "privacy_bound_bits": self.privacy_bound_bits,
            "privacy_plugin_bits": self.privacy_plugin_bits,
            "counters": dict(sorted(self.counters.items())),
        }


def wilson_interval(
    successes: int, trials: int, z: float = 1.959963984540054
) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    for name, count in (("successes", successes), ("trials", trials)):
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
            raise DomainError(f"{name} {count!r} is not an integer count")
    if not (math.isfinite(z) and z > 0.0):
        raise DomainError(f"z {z!r} must be finite and positive")
    if trials < 1:
        raise DomainError("trials must be positive")
    if not 0 <= successes <= trials:
        raise DomainError(f"successes {successes!r} outside [0, {trials}]")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def _clopper_pearson_upper(successes: int, trials: int) -> float:
    """One-sided 95% Clopper-Pearson bound, the 0.95 quantile of Beta(k + 1, n - k)."""
    if successes >= trials:
        return 1.0
    return float(betaincinv(successes + 1, trials - successes, 0.95))


def _stream(seed: int, key: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))
    )


def _categorical(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-cdf symbols for an array of uniforms."""
    return np.minimum(np.searchsorted(cdf, uniforms, side="right"), cdf.size - 1)


def _row_counts(codes: np.ndarray, k: int) -> np.ndarray:
    """Histogram of each row of a (rows, n) array of codes in [0, k)."""
    rows = codes.shape[0]
    offsets = np.arange(rows)[:, None] * k
    return np.bincount((codes + offsets).ravel(), minlength=rows * k).reshape(rows, k)


def generate_codebook(p_u: Pmf, n: int, rate: float, seed: int) -> Codebook:
    """Draw floor(2^{n rate}) i.i.d. codewords from p_u, reproducibly.

    Refuses configurations whose codebook does not fit the materialization
    cap and reports the largest blocklength that would.
    """
    if n < 1:
        raise DomainError("blocklength must be at least 1")
    if not rate >= 0.0:  # NaN fails too
        raise DomainError(f"rate {rate!r} must be nonnegative")
    exponent = n * rate
    if exponent > math.log2(CODEBOOK_CAP) + 1e-9:
        max_n = int(math.log2(CODEBOOK_CAP) / rate)
        raise SizeOverflow(
            f"2^(n*rate) = 2^{exponent:.2f} codewords exceeds the {CODEBOOK_CAP} "
            f"cap; at rate {rate} the largest feasible blocklength is n = {max_n}"
        )
    m = max(1, int(math.floor(2.0**exponent)))
    rng = _stream(seed, 0)
    cdf = np.cumsum(np.asarray(p_u.probs, dtype=float))
    entries = _categorical(cdf, rng.random((m, n))).astype(np.int16)
    return Codebook(entries=entries, seed=seed)


# ---------------------------------------------------------------------------
# marginalized codebook machinery


class _TypicalTables:
    """Jointly typical (U, Xh) count tables for one class-size vector.

    ``tables`` holds every count table passing the encoder's typicality test
    and ``log_p_succ`` the log-chance that a single random codeword is
    jointly typical with a sanitized sequence of these class sizes. Per-table
    weights are kept shifted by their maximum so sampling stays exact at
    blocklengths where the absolute probabilities underflow.
    """

    __slots__ = ("tables", "cum", "log_p_succ")

    def __init__(self, tables: np.ndarray, logw: np.ndarray):
        self.tables = tables
        if logw.size == 0 or np.max(logw) == -math.inf:
            self.cum = np.zeros(0)
            self.log_p_succ = -math.inf
            return
        shifted = np.exp(logw - np.max(logw))
        self.cum = np.cumsum(shifted)
        self.log_p_succ = float(np.max(logw) + math.log(self.cum[-1]))


def _build_tables(
    n_a: tuple[int, ...],
    log_pu: np.ndarray,
    target_ua: np.ndarray,
    n: int,
    radius: float,
) -> _TypicalTables:
    ku = log_pu.size
    per_class = []
    total = 1
    for na in n_a:
        comps = _compositions(na, ku)
        total *= comps.shape[0]
        if total > TABLE_BUDGET:
            raise SizeOverflow(
                f"joint-type enumeration needs more than {TABLE_BUDGET} tables; "
                "reduce the blocklength or the alphabet sizes"
            )
        logw = gammaln(na + 1) - gammaln(comps + 1).sum(axis=1) + comps @ log_pu
        per_class.append((comps, logw))

    tables = np.zeros((1, ku, len(n_a)), dtype=np.int64)
    logw = np.zeros(1)
    for a, (comps, w) in enumerate(per_class):
        c = comps.shape[0]
        t = tables.shape[0]
        tables = np.repeat(tables, c, axis=0)
        tables[:, :, a] = np.tile(comps, (t, 1))
        logw = (logw[:, None] + w[None, :]).ravel()

    tv = 0.5 * np.abs(tables / n - target_ua[None, :, :]).sum(axis=(1, 2))
    mask = tv <= radius + 1e-12
    return _TypicalTables(tables[mask], logw[mask])


@dataclass
class _BatchResult:
    pool: np.ndarray
    accepts: int
    observer_escapes: int
    encoder_failures: int
    receiver_rejects: int


class _Runner:
    """Shared per-run state: laws, targets, and the table cache."""

    def __init__(self, cfg: SchemeConfig, p_xy: JointPmf, q_xy: JointPmf | None):
        self.cfg = cfg
        p = np.asarray(p_xy.probs, dtype=float)
        self.kx, self.ky = p.shape
        mech = cfg.mechanism.matrix
        quant = cfg.quantizer.matrix
        if mech.shape[0] != self.kx:
            raise DomainError("mechanism input does not match the source alphabet")
        self.ka = mech.shape[1]
        self.ku = quant.shape[1]
        self.p_x = p.sum(axis=1)
        self.p_xy = p
        if q_xy is None:
            self.q_xy = np.outer(self.p_x, p.sum(axis=0))
        else:
            self.q_xy = np.asarray(q_xy.probs, dtype=float)
            if self.q_xy.shape != p.shape:
                raise DomainError("alternative law shape does not match the null")
        # design-time targets, always built from the null law
        _, self.target_ua, self.p_uy = _pair_joints(p, mech, quant)  # (U, A), (U, Y)
        self.p_u = self.target_ua.sum(axis=1)
        # zero-probability symbols get a finite sentinel so k * log p stays
        # -huge for k > 0 and exactly 0 for k = 0
        self.log_pu = np.full(self.ku, -1e30)
        np.log(self.p_u, out=self.log_pu, where=self.p_u > 0)
        self.mech_cdf = np.cumsum(mech, axis=1)
        law = p if cfg.hypothesis == "null" else self.q_xy
        self.law_cdf = np.cumsum(law.reshape(-1))
        # codeword count: exact below 2^53 so the no-cover Bernoulli matches
        # an explicit codebook bit for bit; beyond that only log M is needed
        exponent = cfg.n * cfg.rate
        if exponent < 53.0:
            self.m_count: float | None = float(max(1, math.floor(2.0**exponent)))
            self.log_m = math.log(self.m_count)
        else:
            self.m_count = None
            self.log_m = exponent * math.log(2.0)
        # a batch holds arrays of trials x n x ka entries
        max_rows = BATCH_CELL_CAP // (cfg.n * self.ka)
        if max_rows == 0:
            raise TooLarge(
                f"one trial at n = {cfg.n} with {self.ka} mechanism outputs "
                f"exceeds the {BATCH_CELL_CAP}-cell batch cap; reduce the blocklength"
            )
        self.batches = max(min(DEFAULT_BATCHES, cfg.trials), -(-cfg.trials // max_rows))
        self.tables: dict[tuple[int, ...], _TypicalTables] = {}
        self.codebook = None
        if cfg.fixed_codebook:
            if exponent > math.log2(FIXED_MODE_CAP) + 1e-9:
                raise TooLarge(
                    f"fixed-codebook mode scans every codeword per trial and "
                    f"is capped at {FIXED_MODE_CAP} entries; use the ensemble "
                    f"mode for larger codebooks"
                )
            self.codebook = generate_codebook(Pmf(self.p_u), cfg.n, cfg.rate, cfg.seed)

    def tables_for(self, n_a: tuple[int, ...]) -> _TypicalTables:
        tab = self.tables.get(n_a)
        if tab is None:
            tab = _build_tables(
                n_a, self.log_pu, self.target_ua, self.cfg.n, self.cfg.mu / 2.0
            )
            self.tables[n_a] = tab
        return tab

    def run_batch(self, batch_idx: int, trials: int) -> _BatchResult:
        """Run one batch of trials as array operations on its own stream."""
        cfg = self.cfg
        n = cfg.n
        rng = _stream(cfg.seed, batch_idx + 1)
        draws = rng.random((trials, 2 * n))
        x, y = np.divmod(_categorical(self.law_cdf, draws[:, :n]), self.ky)
        live = np.ones(trials, dtype=bool)
        if cfg.scheme_kind == "general":
            # escape sequence 0^n: no codeword can be jointly typical with it
            # at any sane radius, so the decision is Hhat = 1
            tv_x = 0.5 * np.abs(_row_counts(x, self.kx) / n - self.p_x).sum(axis=1)
            live = tv_x <= cfg.mu / 4.0
        x, y = x[live], y[live]
        xhat = np.minimum(
            (draws[live, n:, None] > self.mech_cdf[x]).sum(axis=2), self.ka - 1
        )
        pool = np.bincount(
            (x * self.ka + xhat).ravel(), minlength=self.kx * self.ka
        ).reshape(self.kx, self.ka)
        if self.codebook is None:
            encoded, uy = self._encode_ensemble(xhat, y, rng, trials, live)
        else:
            encoded, uy = self._encode_fixed_batch(xhat, y)
        tv_uy = 0.5 * np.abs(uy / n - self.p_uy).reshape(-1, self.ku * self.ky).sum(axis=1)
        accepts = int(np.count_nonzero(tv_uy <= cfg.mu + 1e-12))
        escapes = trials - int(np.count_nonzero(live))
        return _BatchResult(
            pool=pool,
            accepts=accepts,
            observer_escapes=escapes,
            encoder_failures=trials - encoded,
            receiver_rejects=encoded - accepts,
        )

    def _fail_prob(self, tab: _TypicalTables) -> float:
        """Chance that none of the M random codewords is jointly typical."""
        if self.m_count is not None:
            p_succ = min(math.exp(tab.log_p_succ), 1.0)
            log_fail = self.m_count * math.log1p(-p_succ)
        else:
            # (1-p)^M with astronomical M: -M*p in log space
            log_fail = -math.exp(min(self.log_m + tab.log_p_succ, 700.0))
        return math.exp(log_fail)

    def _encode_ensemble(self, xhat, y, rng, trials, live):
        """Encoder failure, table draw and allocation with the codebook
        integrated out; returns the number of encoded trials and their
        (U, Y) count tables."""
        n_a = _row_counts(xhat, self.ka)
        _, first, group = np.unique(
            n_a, axis=0, return_index=True, return_inverse=True
        )
        tabs = [self.tables_for(tuple(n_a[i].tolist())) for i in first]
        fail_u, table_u = rng.random((2, trials))[:, live]
        p_fail = np.array([self._fail_prob(tab) for tab in tabs])
        ok = fail_u >= p_fail[group]
        k_tables = np.empty((xhat.shape[0], self.ku, self.ka), dtype=np.int64)
        for g, tab in enumerate(tabs):
            sel = np.nonzero(ok & (group == g))[0]
            if sel.size:
                idx = np.searchsorted(tab.cum, table_u[sel] * tab.cum[-1], side="right")
                k_tables[sel] = tab.tables[np.minimum(idx, tab.cum.size - 1)]
        uy = self._allocate(k_tables[ok], xhat[ok], y[ok], rng)
        return int(np.count_nonzero(ok)), uy

    def _allocate(self, k_tables, xhat, y, rng) -> np.ndarray:
        """Joint (U, Y) counts of the accepted codewords.

        Inside class a the codeword places k_tables[:, u, a] copies of each u
        on the class's positions uniformly at random, so the Y values under
        each u follow a multivariate hypergeometric law. It is drawn as a
        chain of univariate draws over (u, y); each link is one array-valued
        call over every encoded trial and class.
        """
        rows = xhat.shape[0]
        ky = self.ky
        # Y counts of each class not yet covered by a codeword symbol
        remaining = _row_counts(xhat * ky + y, self.ka * ky).reshape(rows, self.ka, ky)
        uy = np.zeros((rows, self.ku, ky), dtype=np.int64)
        for u in range(self.ku - 1):
            take = k_tables[:, u, :].copy()
            rest = remaining.sum(axis=2)
            for v in range(ky - 1):
                rest -= remaining[:, :, v]
                h = rng.hypergeometric(remaining[:, :, v], rest, take)
                remaining[:, :, v] -= h
                take -= h
                uy[:, u, v] = h.sum(axis=1)
            remaining[:, :, ky - 1] -= take
            uy[:, u, ky - 1] = take.sum(axis=1)
        uy[:, self.ku - 1] = remaining.sum(axis=1)
        return uy

    def _encode_fixed_batch(self, xhat, y):
        """Scan the fixed codebook trial by trial; returns the number of
        encoded trials and their (U, Y) count tables."""
        m_idx = np.array([self._encode_fixed(row) for row in xhat], dtype=np.int64)
        ok = m_idx >= 0
        u_seq = self.codebook.entries[m_idx[ok]].astype(np.int64)
        uy = _row_counts(u_seq * self.ky + y[ok], self.ku * self.ky)
        return int(np.count_nonzero(ok)), uy.reshape(-1, self.ku, self.ky)

    def _encode_fixed(self, xhat: np.ndarray) -> int:
        cb = self.codebook.entries
        counts = np.zeros((cb.shape[0], self.ku, self.ka), dtype=np.int64)
        for a in range(self.ka):
            cols = cb[:, xhat == a]
            if cols.shape[1] == 0:
                continue
            for u in range(self.ku):
                counts[:, u, a] = (cols == u).sum(axis=1)
        tv = 0.5 * np.abs(counts / self.cfg.n - self.target_ua[None]).sum(axis=(1, 2))
        hits = np.nonzero(tv <= self.cfg.mu / 2.0 + 1e-12)[0]
        return int(hits[0]) if hits.size else -1


def _split_trials(trials: int, batches: int) -> list[int]:
    base, extra = divmod(trials, batches)
    return [base + (1 if i < extra else 0) for i in range(batches)]


def _plugin_mi_bits(counts: np.ndarray) -> float:
    total = counts.sum()
    if total <= 0:
        raise EmptySample("no pooled symbol pairs")
    return _mi_bits(counts / total)


def _execute(runner: _Runner) -> SimReport:
    cfg = runner.cfg
    plan = _split_trials(cfg.trials, runner.batches)
    results = [runner.run_batch(i, t) for i, t in enumerate(plan)]

    accepts = sum(r.accepts for r in results)
    counters = {
        "observer_escapes": sum(r.observer_escapes for r in results),
        "encoder_failures": sum(r.encoder_failures for r in results),
        "receiver_rejects": sum(r.receiver_rejects for r in results),
    }
    pool_counts = sum(r.pool for r in results)

    mech_joint = runner.p_x[:, None] * cfg.mechanism.matrix
    leak_exact = _mi_bits(mech_joint)
    if cfg.scheme_kind == "general":
        mu_p = cfg.mu_prime if cfg.mu_prime is not None else 2.0 * cfg.mu
        mu_pp = 1.0 - (1.0 - min(mu_p, 1.0)) ** 2 * (1.0 - min(cfg.mu, 1.0))
        privacy_bound = leak_exact + mu_pp * math.log2(runner.ka)
    else:
        privacy_bound = leak_exact
    plugin = (
        _plugin_mi_bits(pool_counts.astype(float)) if pool_counts.sum() > 0 else None
    )

    if cfg.hypothesis == "null":
        alpha_hat = 1.0 - accepts / cfg.trials
        beta_hat = ci = upper = exponent = None
    else:
        alpha_hat = None
        beta_hat = accepts / cfg.trials
        ci = wilson_interval(accepts, cfg.trials)
        upper = _clopper_pearson_upper(accepts, cfg.trials)
        exponent = (-math.log2(beta_hat) / cfg.n) if beta_hat > 0 else None

    return SimReport(
        scheme=cfg.scheme_kind,
        hypothesis=cfg.hypothesis,
        n=cfg.n,
        trials=cfg.trials,
        mu=cfg.mu,
        rate=cfg.rate,
        seed=cfg.seed,
        alpha_hat=alpha_hat,
        beta_hat=beta_hat,
        beta_ci95=ci,
        beta_upper95=upper,
        empirical_exponent=exponent,
        privacy_bound_bits=privacy_bound,
        privacy_plugin_bits=plugin,
        counters=counters,
    )


def run_general_scheme(cfg: SchemeConfig, p_xy: JointPmf, q_xy: JointPmf) -> SimReport:
    """Simulate the gated scheme against an arbitrary alternative law."""
    if cfg.scheme_kind != "general":
        raise DomainError("config is not for the general scheme")
    if cfg.mu / 4.0 >= 1.0:
        raise DegenerateConfig(
            "radius mu/4 covers the whole simplex, the observer gate can "
            "never trigger"
        )
    return _execute(_Runner(cfg, p_xy, q_xy))


def run_memoryless_scheme(cfg: SchemeConfig, p_xy: JointPmf) -> SimReport:
    """Simulate the ungated scheme; the alternative is the product law."""
    if cfg.scheme_kind != "memoryless":
        raise DomainError("config is not for the memoryless scheme")
    return _execute(_Runner(cfg, p_xy, None))


def empirical_privacy(mechanism: Channel, samples) -> float:
    """Plug-in mutual information of pooled (raw, sanitized) symbol pairs."""
    kx, ka = mechanism.matrix.shape
    counts = np.zeros((kx, ka), dtype=np.int64)
    for x_seq, xhat_seq in samples:
        xa = _symbols(x_seq)
        ha = _symbols(xhat_seq)
        if xa.shape != ha.shape:
            raise DomainError("paired sequences must have equal length")
        for seq, k, side in ((xa, kx, "input"), (ha, ka, "output")):
            bad = seq[(seq < 0) | (seq >= k)]
            if bad.size:
                raise DomainError(
                    f"symbol {int(bad[0])} outside the mechanism's {side} alphabet of size {k}"
                )
        counts += np.bincount(xa * ka + ha, minlength=kx * ka).reshape(kx, ka)
    if counts.sum() == 0:
        raise EmptySample("no symbol pairs supplied")
    return _plugin_mi_bits(counts.astype(float))
