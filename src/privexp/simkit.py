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

Trials are split into batches, and a batch is one array pass. Batch b
draws from its own counter-based stream (spawn key b+1, key 0 is reserved
for codebook generation), so a report is reproducible bit-for-bit from its
seed. The batch count is derived, not configured: a batch takes as many
trials as fit in ``BATCH_CELLS`` cells (trials x n x mechanism outputs), at
least one, and a run splits its trials evenly over the fewest batches that
hold them. So the batch size fixes the streams: another ``BATCH_CELLS``
gives other draws from the same law.

Each batch draws from its stream in this order:

1. one ``(trials, 2n)`` block of uniforms; columns ``[0, n)`` sample
   (X, Y) by inverse cdf and columns ``[n, 2n)`` push X through the
   mechanism. The general scheme's observer gate is a TV test on the rows'
   X types; escaped rows skip everything below.
2. ``trials`` encoder-failure uniforms. Trials are grouped by their
   class-size vector n_a, whose typical tables are built once per run.
3. ``trials`` table uniforms, turned into count tables by one
   ``searchsorted`` per group.
4. the allocation chain: one array-valued ``hypergeometric`` call per
   (u, y) link, over every class of every encoded trial of the batch.

The receiver's decision is then a TV distance per row. In fixed-codebook
mode steps 2-4 are replaced by a per-trial scan of the codebook, so the
memoryless scheme draws exactly 2n uniforms per trial, as a trial-by-trial
loop would. A batch holds the arrays of all its trials at once; a
blocklength at which a single trial passes ``BATCH_CELL_CAP`` cells is
refused.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._kernels import gammaln
from .errors import (
    DegenerateConfig,
    DimensionMismatch,
    DomainError,
    EmptySample,
    InvariantViolation,
    SizeOverflow,
    TooLarge,
)
from .probcore import (Channel, JointPmf, Pmf, _as_joint2, _as_joint_pair, _compositions,
                       _in_ball, _pair_joints)
from .probcore import _mi_bits, _symbols  # plug-in estimates share the exact MI kernel

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
# codeword entries of a materialized codebook: each entry is drawn from a
# float64 uniform, so a codebook at the cap peaks at about 1.2 GB
CODEBOOK_ENTRY_CAP = 2**26
FIXED_MODE_CAP = 2**18
TABLE_BUDGET = 2_000_000
# trials per batch x n x mechanism outputs: a batch is one array pass of up
# to this many cells, or of one trial. On the 6,000-trial runs of the
# benchmark 2^14 measured slower; 2^17 and 2^18 were up to 10% faster but
# raised the peak memory by 1.5 and 4 MB
BATCH_CELLS = 2**16
# n x mechanism outputs of one trial; a batch peaks at about 40 bytes per
# cell (ka = 2), so a one-trial batch at the cap takes about 170 MB
BATCH_CELL_CAP = 2**22
# trials of one run; a 10^5-trial memoryless run at n = 24 takes 74 batches
# and about 0.3 s on 2 cores, 3.0 us per trial, so the cap is about 5 minutes
TRIAL_CAP = 10**8
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)


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
        # kinds first, as a JSON config gives them: a bool is an int, and a
        # float count would be truncated
        for key in ("n", "seed", "trials", "mu", "rate", "mu_prime"):
            value, count = getattr(self, key), key in ("n", "seed", "trials")
            kind, what = (numbers.Integral, "an integer") if count else (numbers.Real, "a number")
            if value is None and key == "mu_prime":
                continue
            if isinstance(value, bool) or not isinstance(value, kind):
                raise DomainError(f"config key {key!r} must be {what}, got {value!r}")
            try:  # float() of an integer past the float range overflows
                object.__setattr__(self, key, int(value) if count else float(value))
            except OverflowError:
                raise DomainError(f"config key {key!r} is too large for a float") from None
        if not isinstance(self.fixed_codebook, bool):
            raise DomainError(
                f"config key 'fixed_codebook' must be true or false, got {self.fixed_codebook!r}"
            )
        for key in ("mechanism", "quantizer"):
            if not isinstance(getattr(self, key), Channel):
                got = type(getattr(self, key)).__name__
                raise DomainError(f"config key {key!r} must be a channel, got {got}")
        if self.seed < 0:
            raise DomainError(f"seed {self.seed} must be nonnegative")
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


def _check_counts(successes: int, trials: int) -> None:
    """Refuse a binomial count pair other than integers 0 <= successes <= trials, trials >= 1."""
    for name, count in (("successes", successes), ("trials", trials)):
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
            raise DomainError(f"{name} {count!r} is not an integer count")
    if trials < 1:
        raise DomainError("trials must be positive")
    if not 0 <= successes <= trials:
        raise DomainError(f"successes {successes!r} outside [0, {trials}]")


def wilson_interval(
    successes: int, trials: int, z: float = 1.959963984540054
) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    _check_counts(successes, trials)
    if not (math.isfinite(z) and z > 0.0):
        raise DomainError(f"z {z!r} must be finite and positive")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    # center and half agree at k = 0 and k = n only up to round-off, which
    # left the estimate outside its own interval; the bounds there are 0 and 1
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def _stirling_error(z: float) -> float:
    """ln Gamma(z) - [(z - 1/2) ln z - z + ln sqrt(2 pi)], by lgamma below 15 and
    by five terms of its asymptotic series, accurate to round-off, above."""
    if z < 15.0:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - _HALF_LN_2PI
    r = 1.0 / (z * z)
    return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / z


def _binomial_cdf_and_density(k: int, n: int, x: float) -> tuple[float, float]:
    """P(Bin(n, x) <= k) and its slope's magnitude, the Beta(k + 1, n - k) density at x.

    For 0 < k < n and k / (n + 1) <= x < 1. The density comes from Stirling's
    formula with each ln Gamma's remainder kept, so its large terms, of order
    n ln n, cancel in closed form rather than in floating point: at k = 1 of
    10^5 trials, lgamma differences lose 3e-10 of ln B(k + 1, n - k) and
    scipy's ``betaln`` 5e-11, which moves the bound by 1e-11 of itself.

    The cdf is the binomial term j = k, the density times (1 - x) / (n - k),
    times the sum of the terms j <= k relative to it. All are positive, and
    term k - i is at most prod_{l < i} (1 - l / k) of term k, so the terms
    past the first 10 sqrt(k) add less than 1e-18 of the sum for any k up to
    ``TRIAL_CAP``.
    """
    a, b = k + 1.0, float(n - k)
    y = 1.0 - x
    t = x * b - a * y  # (n + 1) x - a, without rounding (n + 1) x
    # ln(x^a y^b / B(a, b))
    log_front = (a * math.log1p(t / a) + b * math.log1p(-t / b) + 0.5 * math.log(a * b / (n + 1.0))
                 - _HALF_LN_2PI - _stirling_error(a) - _stirling_error(b) + _stirling_error(n + 1.0))
    density = math.exp(log_front) / (x * y)
    j = np.arange(k, max(k - math.ceil(10.0 * math.sqrt(k)), 0), -1, dtype=float)
    relative = 1.0 + float(np.cumprod(j * y / ((n + 1.0 - j) * x)).sum())
    return density * y / b * relative, density


def _clopper_pearson_upper(successes: int, trials: int) -> float:
    """One-sided 95% Clopper-Pearson bound, the 0.95 quantile of Beta(k + 1, n - k).

    It is the u with P(Bin(n, u) <= k) = 0.05, in closed form at k = 0 and
    k = n - 1. Otherwise Newton's method on that cdf starts at the Beta mode
    k / (n - 1), where the cdf is well above 0.05. Right of the mode the cdf
    is decreasing and convex, so every step lands short of the root and the
    steps shrink until round-off stops them.
    """
    _check_counts(successes, trials)
    k, n = int(successes), int(trials)
    if k == n:
        return 1.0
    if k == 0:
        return -math.expm1(math.log(0.05) / n)
    if k == n - 1:
        return math.exp(math.log(0.95) / n)
    u = k / (n - 1)
    for _ in range(64):
        cdf, density = _binomial_cdf_and_density(k, n, u)
        step = (cdf - 0.05) / density
        if step <= 4 * np.finfo(float).eps * u:
            return u + step
        u += step
    raise InvariantViolation(f"Clopper-Pearson bound of {k} in {n} did not converge")


def _stream(seed: int, key: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))
    )


def _categorical(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-cdf symbols for an array of uniforms.

    A symbol is the count of cdf entries at or below its uniform, capped at
    the last symbol. Over the few symbols of a law one comparison per entry
    is cheaper than a binary search per uniform.
    """
    symbols = np.zeros(uniforms.shape, dtype=np.intp)
    for c in cdf[:-1]:
        symbols += uniforms >= c
    return symbols


def _row_counts(codes: np.ndarray, k: int) -> np.ndarray:
    """Histogram of each row of a (rows, n) array of codes in [0, k)."""
    rows = codes.shape[0]
    offsets = np.arange(rows)[:, None] * k
    return np.bincount((codes + offsets).ravel(), minlength=rows * k).reshape(rows, k)


def generate_codebook(p_u: Pmf, n: int, rate: float, seed: int) -> Codebook:
    """Draw floor(2^{n rate}) i.i.d. codewords from p_u, reproducibly.

    Refuses configurations whose codebook does not fit the materialization
    cap and reports the largest blocklength that would, and codebooks of
    more than ``CODEBOOK_ENTRY_CAP`` entries.
    """
    if not isinstance(p_u, Pmf):
        raise DimensionMismatch(f"p_u must be a Pmf, got {type(p_u).__name__}")
    for key, value in (("blocklength", n), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise DomainError(f"{key} must be an integer, got {value!r}")
    if n < 1:
        raise DomainError("blocklength must be at least 1")
    if seed < 0:
        raise DomainError(f"seed {seed} must be nonnegative")
    # NaN fails too
    if isinstance(rate, bool) or not isinstance(rate, numbers.Real) or not rate >= 0.0:
        raise DomainError(f"rate {rate!r} must be a nonnegative number")
    if n > CODEBOOK_ENTRY_CAP:  # checked first, so that n * rate below is a float
        raise SizeOverflow(f"blocklength {n} exceeds the cap of {CODEBOOK_ENTRY_CAP} "
                           f"codebook entries")
    exponent = n * rate
    if exponent > math.log2(CODEBOOK_CAP) + 1e-9:
        max_n = int(math.log2(CODEBOOK_CAP) / rate)
        raise SizeOverflow(
            f"2^(n*rate) = 2^{exponent:.2f} codewords exceeds the {CODEBOOK_CAP} "
            f"cap; at rate {rate} the largest feasible blocklength is n = {max_n}"
        )
    m = max(1, int(math.floor(2.0**exponent)))
    if m * n > CODEBOOK_ENTRY_CAP:
        raise SizeOverflow(f"{m} codewords of length {n} exceed the cap of "
                           f"{CODEBOOK_ENTRY_CAP} codebook entries")
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
    mask = _in_ball(tv, radius)
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
        p, q = (_as_joint2(p_xy), None) if q_xy is None else _as_joint_pair(p_xy, q_xy)
        self.kx, self.ky = p.shape
        mech = cfg.mechanism.matrix
        quant = cfg.quantizer.matrix
        if mech.shape[0] != self.kx:
            raise DomainError("mechanism input does not match the source alphabet")
        self.ka = mech.shape[1]
        self.ku = quant.shape[1]
        self.p_x = p.sum(axis=1)
        self.p_xy = p
        self.q_xy = np.outer(self.p_x, p.sum(axis=0)) if q_xy is None else q
        # design-time targets, always built from the null law
        (_, self.target_ua, self.p_uy), _ = _pair_joints(p, mech, quant)  # (U, A), (U, Y)
        self.p_u = self.target_ua.sum(axis=1)
        # zero-probability symbols get a finite sentinel so k * log p stays
        # -huge for k > 0 and exactly 0 for k = 0
        self.log_pu = np.full(self.ku, -1e30)
        np.log(self.p_u, out=self.log_pu, where=self.p_u > 0)
        self.mech_cdf = np.cumsum(mech, axis=1)
        law = p if cfg.hypothesis == "null" else self.q_xy
        self.law_cdf = np.cumsum(law.reshape(-1))
        # a trial holds arrays of n x ka entries; checked before n meets a
        # float, which a huge integer n would overflow
        per_trial = cfg.n * self.ka
        if per_trial > BATCH_CELL_CAP:
            raise TooLarge(
                f"one trial at n = {cfg.n} with {self.ka} mechanism outputs "
                f"exceeds the {BATCH_CELL_CAP}-cell batch cap; reduce the blocklength"
            )
        self.batches = -(-cfg.trials // max(1, BATCH_CELLS // per_trial))
        # codeword count: exact below 2^53 so the no-cover Bernoulli matches
        # an explicit codebook bit for bit; beyond that only log M is needed
        exponent = cfg.n * cfg.rate
        if exponent < 53.0:
            self.m_count: float | None = float(max(1, math.floor(2.0**exponent)))
            self.log_m = math.log(self.m_count)
        else:
            self.m_count = None
            self.log_m = exponent * math.log(2.0)
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

    def run_batch(self, b: int, trials: int) -> _BatchResult:
        """Run batch b of ``trials`` trials as one array pass.

        The batch draws only from its own stream b + 1, in the order of the
        module docstring.
        """
        cfg = self.cfg
        rng = _stream(cfg.seed, b + 1)
        live, xhat, y, pool = self._sanitize(rng, trials)
        if self.codebook is None:
            encoded, uy = self._encode_ensemble(xhat, y, rng, live)
        else:
            encoded, uy = self._encode_fixed_rows(xhat, y)
        tv_uy = 0.5 * np.abs(uy / cfg.n - self.p_uy).reshape(-1, self.ku * self.ky).sum(axis=1)
        accepts = int(np.count_nonzero(_in_ball(tv_uy, cfg.mu)))
        escapes = trials - int(np.count_nonzero(live))
        return _BatchResult(
            pool=pool,
            accepts=accepts,
            observer_escapes=escapes,
            encoder_failures=trials - encoded,
            receiver_rejects=encoded - accepts,
        )

    def _sanitize(self, rng, trials):
        """Source draw, observer gate and mechanism of a batch.

        Returns the rows that pass the gate, their sanitized and Y
        sequences, and the pooled (X, Xh) symbol counts.
        """
        cfg = self.cfg
        n = cfg.n
        draws = rng.random((trials, 2 * n))
        x, y = np.divmod(_categorical(self.law_cdf, draws[:, :n]), self.ky)
        mech_u = draws[:, n:]
        live = np.ones(trials, dtype=bool)
        if cfg.scheme_kind == "general":
            # escape sequence 0^n: no codeword can be jointly typical with it
            # at any sane radius, so the decision is Hhat = 1
            tv_x = 0.5 * np.abs(_row_counts(x, self.kx) / n - self.p_x).sum(axis=1)
            live = _in_ball(tv_x, cfg.mu / 4.0)
            x, y, mech_u = x[live], y[live], mech_u[live]
        # inverse cdf of each symbol's mechanism row: the count of its cdf
        # entries below the uniform, the last entry left out as the cap
        xhat = np.zeros(x.shape, dtype=np.intp)
        for col in self.mech_cdf[:, :-1].T:
            xhat += mech_u > col[x]
        pool = np.bincount(
            (x * self.ka + xhat).ravel(), minlength=self.kx * self.ka
        ).reshape(self.kx, self.ka)
        return live, xhat, y, pool

    def _fail_prob(self, tab: _TypicalTables) -> float:
        """Chance that none of the M random codewords is jointly typical."""
        if self.m_count is not None:
            p_succ = min(math.exp(tab.log_p_succ), 1.0)
            # p_succ is 1 when the encoder's ball covers the simplex (mu >= 2)
            log_fail = self.m_count * math.log1p(-p_succ) if p_succ < 1.0 else -math.inf
        else:
            # (1-p)^M with astronomical M: -M*p in log space
            log_fail = -math.exp(min(self.log_m + tab.log_p_succ, 700.0))
        return math.exp(log_fail)

    def _encode_ensemble(self, xhat, y, rng, live):
        """Encoder failure, table draw and allocation with the codebook
        integrated out; returns the number of encoded trials and their
        (U, Y) count tables."""
        n_a = _row_counts(xhat, self.ka)
        # one integer key per class-size vector, renumbered densely after
        # each class so it cannot overflow; the last size follows from n
        key = n_a[:, 0]
        for col in n_a[:, 1:-1].T:
            key = np.unique(key, return_inverse=True)[1] * (self.cfg.n + 1) + col
        _, first, group = np.unique(key, return_index=True, return_inverse=True)
        tabs = [self.tables_for(tuple(n_a[i].tolist())) for i in first]
        fail_u, table_u = rng.random((2, live.size))[:, live]
        p_fail = np.array([self._fail_prob(tab) for tab in tabs])
        ok = fail_u >= p_fail[group]
        k_tables = np.empty((xhat.shape[0], self.ku, self.ka), dtype=np.int64)
        for g, tab in enumerate(tabs):
            sel = np.nonzero(ok & (group == g))[0]
            if sel.size:
                idx = np.searchsorted(tab.cum, table_u[sel] * tab.cum[-1], side="right")
                k_tables[sel] = tab.tables[np.minimum(idx, tab.cum.size - 1)]
        # Y counts of each class of each encoded trial
        class_y = _row_counts(xhat * self.ky + y, self.ka * self.ky).reshape(-1, self.ka, self.ky)
        uy = self._allocate(k_tables[ok], class_y[ok], rng)
        return int(np.count_nonzero(ok)), uy

    def _allocate(self, k_tables, remaining, rng) -> np.ndarray:
        """Joint (U, Y) counts of the accepted codewords.

        Inside class a the codeword places k_tables[:, u, a] copies of each u
        on the class's positions uniformly at random, so the Y values under
        each u follow a multivariate hypergeometric law. It is drawn as a
        chain of univariate draws over (u, y); each link is one array-valued
        call over every encoded trial and class of the batch. ``remaining``
        holds the Y counts of each class not yet covered by a codeword
        symbol and is used up in place.
        """
        rows = remaining.shape[0]
        ky = self.ky
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

    def _encode_fixed_rows(self, xhat, y):
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
        hits = np.nonzero(_in_ball(tv, self.cfg.mu / 2.0))[0]
        return int(hits[0]) if hits.size else -1


def _split_trials(trials: int, batches: int) -> list[int]:
    base, extra = divmod(trials, batches)
    return [base + (1 if i < extra else 0) for i in range(batches)]


def _plugin_mi_bits(counts: np.ndarray) -> float:
    """Plug-in MI of a nonempty count table; its callers refuse an empty sample."""
    return _mi_bits(counts / counts.sum())


def _execute(runner: _Runner) -> SimReport:
    cfg = runner.cfg
    results = [runner.run_batch(b, trials)
               for b, trials in enumerate(_split_trials(cfg.trials, runner.batches))]

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
        # + 0.0 turns the -0.0 of beta_hat = 1 into 0.0 and keeps every other value
        exponent = (-math.log2(beta_hat) / cfg.n + 0.0) if beta_hat > 0 else None

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
    if q_xy is None:
        raise DomainError("the general scheme needs q_xy, its alternative law, got None")
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
