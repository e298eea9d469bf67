"""Type-II error exponents for rate- and privacy-constrained testing.

The single-letter objects here are optimizations over two finite channels: a
privacy mechanism (X to Xh) constrained by I(X;Xh) <= L and a quantizer
(Xh to U) constrained by I(U;Xh) <= R. ``tai_exponent`` maximizes I(U;Y)
(testing against independence, where this is exact); ``theorem1_lower_bound``
maximizes an inner I-projection value against a general alternative. The
inner value builds the (U, Xh, X, Y) chains under both laws with one
``einsum`` each and takes its (U, Y) and (U, Xh) targets as axis sums of the
null chain. The search amplifies round-off, so this arithmetic order is part
of its result.

Search strategy: a coarse lexicographic grid over channel rows (candidates
violating a constraint are discarded, never relaxed) supplies seeds, and a
sequential-quadratic (SLSQP) polish takes a seed along the active-constraint
ridge. Both searches see a channel pair through ``_ChannelPair``: free
parameters mapped by ``_channels``, which clips them at zero and
renormalizes each row, so a finite-difference step past a simplex face still
scores a valid channel pair. ``tai_exponent`` polishes its distinct leading
grid values with the exact gradients of I(U;Y), I(U;Xh) and I(X;Xh), each
seed from three start depths. ``theorem1_lower_bound``, whose inner value is
an I-projection, scores its shortlisted grid pairs and polishes the best one
with finite differences twice: the quantizer alone, then both channels.
The grid stage is deterministic and ties break toward the lexicographically
smallest parameter vector. Alphabet sizes, grid budgets, the seed count and
the shortlist are fixed per method; a ``SearchConfig`` sets only the grid
step and the BSC restriction. Grid information quantities are cached per
(law, cardinality, step, budgets); a binary-X independence grid has about
95,000 pairs and builds in a fraction of a second, but a ternary-X grid
takes seconds, so repeated queries against one instance pay only a masked
reduction and a partial sort.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np
from scipy.optimize import LinearConstraint, NonlinearConstraint, minimize

from .errors import (
    AlphabetMismatch,
    DimensionMismatch,
    DomainError,
    InvariantViolation,
    NonpositiveAlternative,
)
from .iproject import Infeasible, MarginalConstraint, SupportMismatch, i_project
from .probcore import (
    Channel,
    JointPmf,
    Pmf,
    _compositions,
    _mi_batch,
    binary_entropy,
    binary_entropy_inv,
    chain_joint,  # unused here; kept as a module attribute for perfbench's probe
    check_budgets,
    star,
)

__all__ = [
    "SearchConfig",
    "THM1_SEARCH",
    "ExponentResult",
    "binary_tai_exponent",
    "tai_exponent",
    "zero_rate_exponent",
    "theorem1_lower_bound",
    "corollary2_bound",
]

log = logging.getLogger(__name__)

_LOG2E = math.log2(math.e)
FEAS_SLACK = 1e-9


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the grid-plus-polish channel search."""

    grid_step: float = 0.1
    restrict_bsc: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.grid_step) and 0.0 < self.grid_step <= 1.0):
            raise DomainError(f"grid_step {self.grid_step!r} outside (0, 1]")


# defaults of the Theorem-1 and Corollary-2 searches
THM1_SEARCH = SearchConfig(grid_step=1 / 8)

# (mechanism, quantizer) caps on the number of candidates per channel grid;
# the effective step is coarsened until the grid fits. Ternary X needs 1000
# each: at 200 both grids collapse to deterministic rows and the search finds
# nothing. The Theorem-1 inner I-projection makes every grid pair costly.
_TAI_BUDGETS = (1000, 1000)
_THM1_BUDGETS = (300, 800)
# distinct grid values polished by the independence-testing search
_TOP_K = 4
# general-alternative search: shortlisted pairs that get the inner solver
_INNER_SHORTLIST = 48


@dataclass(frozen=True, eq=False)
class ExponentResult:
    theta: float
    bound_kind: str  # "exact" or "lower_bound"
    rate: float | None = None
    leak: float | None = None
    mechanism: Channel | None = None
    quantizer: Channel | None = None
    inner_witness: JointPmf | None = None
    rate_mi: float | None = None
    leak_mi: float | None = None
    grid_step: float | None = None

    def to_dict(self) -> dict:
        def flag(x):
            if x is None:
                return None
            if math.isinf(x):
                return {"flag": "infinity"}
            return x

        return {
            "theta_bits": flag(self.theta),
            "bound_kind": self.bound_kind,
            "rate_bits": flag(self.rate),
            "leak_bits": flag(self.leak),
            "rate_mi_bits": flag(self.rate_mi),
            "leak_mi_bits": flag(self.leak_mi),
            "grid_step": self.grid_step,
            "mechanism": None if self.mechanism is None else self.mechanism.to_dict(),
            "quantizer": None if self.quantizer is None else self.quantizer.to_dict(),
        }


# ---------------------------------------------------------------------------
# closed forms


def binary_tai_exponent(q_noise: float, rate: float, leak: float) -> float:
    """Optimal binary symmetric exponent 1 - h(q * hinv(1-L) * hinv(1-R)).

    Rates and leaks above one bit saturate; the binary alphabets cannot use
    more.
    """
    if not 0.0 <= q_noise <= 1.0:
        raise DomainError(f"noise {q_noise!r} outside [0, 1]")
    check_budgets(rate, leak)
    r = min(rate, 1.0)
    l = min(leak, 1.0)
    p_mech = binary_entropy_inv(1.0 - l)
    p_quant = binary_entropy_inv(1.0 - r)
    return 1.0 - binary_entropy(star(q_noise, star(p_mech, p_quant)))


# ---------------------------------------------------------------------------
# channel grids


def _row_count(k: int, step: float) -> int:
    m = max(1, round(1.0 / step))
    return math.comb(m + k - 1, k - 1)


def _fit_step(rows: int, k: int, step: float, budget: int) -> float:
    """Coarsen step until the row-product grid fits the budget."""
    s = step
    while _row_count(k, s) ** rows > budget and s < 0.51:
        m = max(1, round(1.0 / s) - 1)
        if m == round(1.0 / s):
            break
        s = 1.0 / m
    return s


def _channel_grid(n_in: int, n_out: int, step: float, budget: int) -> tuple[np.ndarray, float]:
    eff = _fit_step(n_in, n_out, step, budget)
    m = max(1, round(1.0 / eff))
    rows = _compositions(m, n_out) / m  # pmf rows on the 1/m lattice, lexicographic
    idx = list(product(range(rows.shape[0]), repeat=n_in))
    mats = rows[np.asarray(idx)]  # (N, n_in, n_out), lexicographic
    return mats, eff


def _bsc_grid(step: float, budget: int) -> tuple[np.ndarray, float]:
    eff = step
    while round(0.5 / eff) + 1 > budget:
        eff *= 2.0
    a = np.arange(0.0, 0.5 + eff / 2, eff)
    mats = np.stack([np.stack([1 - a, a], axis=1), np.stack([a, 1 - a], axis=1)], axis=1)
    return mats, eff


class _TaiSpace:
    """Grid candidates and their information quantities for one instance.

    Mechanisms map X to an Xh of the same size; ``budgets`` caps the
    (mechanism, quantizer) grid sizes.
    """

    def __init__(self, p_xy: np.ndarray, u_size: int, cfg: SearchConfig,
                 budgets: tuple[int, int], mechs_override: np.ndarray | None = None):
        self.p_xy = p_xy
        kx, ky = p_xy.shape
        self.p_x = p_xy.sum(axis=1)
        self.i_xy = _mi_batch(p_xy)
        mech_budget, quant_budget = budgets
        if cfg.restrict_bsc:
            if kx != 2 or u_size != 2:
                raise DimensionMismatch("BSC restriction needs binary alphabets")
            self.mechs, self.mech_step = _bsc_grid(cfg.grid_step, mech_budget)
            self.quants, self.quant_step = _bsc_grid(cfg.grid_step, quant_budget)
        else:
            if mechs_override is not None:
                self.mechs, self.mech_step = mechs_override, cfg.grid_step
            else:
                self.mechs, self.mech_step = _channel_grid(
                    kx, kx, cfg.grid_step, mech_budget
                )
            self.quants, self.quant_step = _channel_grid(
                kx, u_size, cfg.grid_step, quant_budget
            )
        nm = self.mechs.shape[0]
        nq = self.quants.shape[0]
        self.i_xxh = _mi_batch(self.p_x[None, :, None] * self.mechs)
        self.i_uxh = np.empty((nm, nq))
        self.i_uy = np.empty((nm, nq))
        block = max(1, int(1e6 // max(nq, 1)))
        for lo in range(0, nm, block):
            hi = min(lo + block, nm)
            A = self.mechs[lo:hi]
            p_xh = np.einsum("x,bxh->bh", self.p_x, A)
            j_uxh = p_xh[:, None, :, None] * self.quants[None, :, :, :]
            self.i_uxh[lo:hi] = _mi_batch(np.swapaxes(j_uxh, -1, -2))
            u_given_x = np.einsum("bxh,qhu->bqxu", A, self.quants)
            j_uy = np.einsum("xy,bqxu->bquy", p_xy, u_given_x)
            self.i_uy[lo:hi] = _mi_batch(j_uy)
        # data-processing sanity: I(U;Y) can exceed neither I(U;Xh) nor I(X;Y)
        cap = np.minimum(self.i_uxh, self.i_xy)
        if not np.all(self.i_uy <= cap + 1e-8):
            raise InvariantViolation("data-processing violation in grid")


_SPACE_CACHE: dict = {}
_SPACE_CACHE_MAX = 4


def _space_for(
    p_xy: np.ndarray,
    u_size: int,
    cfg: SearchConfig,
    budgets: tuple[int, int],
    mechs_override: np.ndarray | None = None,
) -> _TaiSpace:
    key = (
        p_xy.tobytes(),
        p_xy.shape,
        u_size,
        cfg.grid_step,
        budgets,
        cfg.restrict_bsc,
        None if mechs_override is None else mechs_override.tobytes(),
    )
    space = _SPACE_CACHE.get(key)
    if space is None:
        space = _TaiSpace(p_xy, u_size, cfg, budgets, mechs_override)
        if len(_SPACE_CACHE) >= _SPACE_CACHE_MAX:
            _SPACE_CACHE.pop(next(iter(_SPACE_CACHE)))
        _SPACE_CACHE[key] = space
    return space


# ---------------------------------------------------------------------------
# local polish


def _free_params(mech: np.ndarray, quant: np.ndarray, bsc: bool) -> np.ndarray:
    if bsc:
        return np.array([mech[0, 1], quant[0, 1]])
    return np.concatenate([mech[:, :-1].reshape(-1), quant[:, :-1].reshape(-1)])


def _channels(theta: np.ndarray, shapes, bsc: bool) -> tuple[np.ndarray, np.ndarray]:
    """(mechanism, quantizer) of the free parameters, clipped at 0 and row-normalized.

    Each row's last entry is one minus the row's free entries. A point off
    the simplex, such as a finite-difference step past a face, still maps to
    two channels, so the polish never meets an invalid pair; every row sums
    to at least 1 before the division.
    """
    (kx, kh), (kh2, ku) = shapes
    if bsc:
        a, b = theta
        mech = np.array([[1 - a, a], [a, 1 - a]])
        quant = np.array([[1 - b, b], [b, 1 - b]])
    else:
        nm = kx * (kh - 1)
        mfree = theta[:nm].reshape(kx, kh - 1)
        qfree = theta[nm:].reshape(kh2, ku - 1)
        mech = np.concatenate([mfree, 1 - mfree.sum(axis=1, keepdims=True)], axis=1)
        quant = np.concatenate([qfree, 1 - qfree.sum(axis=1, keepdims=True)], axis=1)
    mech = np.clip(mech, 0.0, None)
    quant = np.clip(quant, 0.0, None)
    return mech / mech.sum(axis=1, keepdims=True), quant / quant.sum(axis=1, keepdims=True)


def _single_point(p_xy, p_x, mech, quant):
    p_xh = p_x @ mech
    i_xxh = _mi_batch(p_x[:, None] * mech)
    i_uxh = _mi_batch((p_xh[:, None] * quant).T)
    u_given_x = mech @ quant
    j_uy = np.einsum("xy,xu->uy", p_xy, u_given_x)
    i_uy = _mi_batch(j_uy)
    return float(i_xxh), float(i_uxh), float(i_uy)


# floor of the log arguments in the gradient: the derivative of MI at a zero
# joint entry is -inf, and a floor near the underflow limit stalls SLSQP
_LOG_FLOOR = 1e-12


def _log(a: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(a, _LOG_FLOOR))


def _mi_grad(joint: np.ndarray) -> np.ndarray:
    """d I / d joint in nats, up to a constant that cancels on the simplex.

    The exact derivative is log J(a,b) - log r(a) - log c(b) - 1 for row sums
    r and column sums c; every direction that keeps each channel row summing
    to one moves the total mass by zero, so the -1 drops out.
    """
    return _log(joint) - _log(joint.sum(axis=1, keepdims=True)) - _log(joint.sum(axis=0))


class _ChannelPair:
    """A (mechanism, quantizer) pair on one law as a function of its free parameters.

    The free parameters are every channel row but its last entry, or the two
    crossovers of a BSC pair; ``channels`` maps them through ``_channels``.
    ``info`` gives (I(X;Xh), I(U;Xh), I(U;Y)) in bits and ``jac`` their exact
    gradients, one row each. All three share a memo of the last point, so the
    objective, the constraint and their Jacobians at one SLSQP iterate cost
    one evaluation and one gradient. The gradient is that of the unclipped
    map, exact inside the simplex where the polish moves; into an unused
    symbol it is the one-sided derivative.
    """

    def __init__(self, p_xy: np.ndarray, shapes, bsc: bool):
        self.p_xy = p_xy
        self.p_x = p_xy.sum(axis=1)
        self.shapes = shapes
        self.bsc = bsc
        self._theta = None
        self._info = self._jac = None

    def _at(self, theta: np.ndarray) -> None:
        if self._theta is None or not np.array_equal(theta, self._theta):
            self._theta = np.array(theta, dtype=float)
            self._mech, self._quant = _channels(self._theta, self.shapes, self.bsc)
            self._info = self._jac = None

    def channels(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        self._at(theta)
        return self._mech, self._quant

    def info(self, theta: np.ndarray) -> tuple[float, float, float]:
        self._at(theta)
        if self._info is None:
            self._info = _single_point(self.p_xy, self.p_x, self._mech, self._quant)
        return self._info

    def jac(self, theta: np.ndarray) -> np.ndarray:
        self._at(theta)
        if self._jac is None:
            self._jac = self._gradient()
        return self._jac

    def _gradient(self) -> np.ndarray:
        p, p_x, mech, quant = self.p_xy, self.p_x, self._mech, self._quant
        p_xh = p_x @ mech
        j_uy = np.einsum("xy,xu->uy", p, mech @ quant)
        g_xxh = _mi_grad(p_x[:, None] * mech)
        g_xhu = _mi_grad(p_xh[:, None] * quant)
        h = p @ _mi_grad(j_uy).T  # (x, u)
        # A row of a joint with no mass (an unused Xh or U symbol) has no
        # conditional of its own: mass moved into it brings the conditional of
        # where it came from, and log J - log r takes that conditional's log.
        # For Xh that is the quantizer row; for U it is P(Y|x) when the
        # mechanism moves and P(Y|Xh=h) when the quantizer does.
        unused_xh = p_xh <= 0
        g_xhu[unused_xh] = (_log(quant) - _log(p_xh @ quant))[unused_xh]
        unused_u = j_uy.sum(axis=1) <= 0
        h[:, unused_u] = (p * _mi_grad(p)).sum(axis=1, keepdims=True)
        d_mech = np.stack([
            p_x[:, None] * g_xxh,
            # I(U;Xh) sees the mechanism only through the Xh marginal
            p_x[:, None] * (quant * g_xhu).sum(axis=1),
            h @ quant.T,
        ])
        d_quant = np.stack([np.zeros_like(quant), p_xh[:, None] * g_xhu, mech.T @ h])
        a_hy = mech.T @ p  # joint of (Xh, Y)
        d_quant[2][:, unused_u] = (a_hy * _mi_grad(a_hy)).sum(axis=1, keepdims=True)
        if self.bsc:
            flip = np.array([[-1.0, 1.0], [1.0, -1.0]])
            free = np.stack([(d_mech * flip).sum(axis=(1, 2)),
                             (d_quant * flip).sum(axis=(1, 2))], axis=1)
        else:
            free = np.concatenate([
                (d_mech[..., :-1] - d_mech[..., -1:]).reshape(3, -1),
                (d_quant[..., :-1] - d_quant[..., -1:]).reshape(3, -1),
            ], axis=1)
        return free * _LOG2E


def _slsqp_polish(theta0, pair, skip, value, rate, leak, ftol, grad=None):
    """SLSQP maximization of ``value`` from ``theta0``, within both budgets.

    The optimum sits where the information constraints are active, and
    moving along that boundary needs the mechanism and the quantizer to move
    together, which a sequential-quadratic step does. The first ``skip`` free
    parameters are held fixed. ``grad`` is the exact gradient of ``value``;
    with it the constraint takes ``pair``'s exact Jacobian too, and without
    it both are finite differences. ``ftol`` should sit above the noise of
    ``value``: an objective solved only to some residual cannot be polished
    below it, and a tighter ``ftol`` just runs to the 200-iteration cap.
    Returns (value, theta) of the final point when it meets both budgets,
    else None; the caller keeps whichever point scores higher.
    """
    free = theta0.size - skip
    if free <= 0:
        return None

    def full(x):
        t = theta0.copy()
        t[skip:] = x
        return t

    constraints = [
        NonlinearConstraint(
            lambda x: np.asarray(pair.info(full(x))[:2]),
            -np.inf,
            np.array([leak, rate]),
            jac="2-point" if grad is None else (lambda x: pair.jac(full(x))[:2, skip:]),
        )
    ]
    if pair.bsc:
        bounds = [(0.0, 0.5)] * free
    else:
        (kx, kh), (kh2, ku) = pair.shapes
        nm = kx * (kh - 1)
        rows = []
        for r0 in range(kx):
            lo = r0 * (kh - 1)
            if lo >= skip and kh > 1:
                row = np.zeros(free)
                row[lo - skip:lo - skip + kh - 1] = 1.0
                rows.append(row)
        for r0 in range(kh2):
            lo = nm + r0 * (ku - 1)
            if lo >= skip and ku > 1:
                row = np.zeros(free)
                row[lo - skip:lo - skip + ku - 1] = 1.0
                rows.append(row)
        if rows:
            constraints.append(LinearConstraint(np.array(rows), 0.0, 1.0))
        bounds = [(0.0, 1.0)] * free

    try:
        res = minimize(
            lambda x: -value(full(x)),
            theta0[skip:].copy(),
            jac=None if grad is None else (lambda x: -grad(full(x))[skip:]),
            method="SLSQP",
            bounds=bounds,
            constraints=constraints,
            options={"maxiter": 200, "ftol": ftol},
        )
    except (ValueError, FloatingPointError):  # pragma: no cover - solver hiccup
        return None
    theta = full(np.clip(res.x, 0.0, None))
    got_leak, got_rate, _ = pair.info(theta)
    if got_leak > leak + FEAS_SLACK or got_rate > rate + FEAS_SLACK:
        return None
    return float(value(theta)), theta


# ---------------------------------------------------------------------------
# testing against independence

# grid pairs scanned for distinct seed values, best first
_SEED_SCAN = 4096
# Each seed is polished from the grid pair and from copies mixed this far
# toward uniform rows. A grid pair sits on simplex faces, where the exact
# slopes are the floored -inf of the log; from there the polish can stop in
# a worse basin than a start just inside does, and which start wins varies
# by law (on 3x3 laws the grid pair alone lost up to 0.02 bits against the
# finite-difference polish; these three starts lost nothing).
_START_DEPTHS = (0.0, 1e-6, 1e-3)


def _leading_pairs(masked: np.ndarray, limit: int) -> np.ndarray:
    """Flat indices of the ``limit`` largest nonnegative entries, best first.

    Equal to the nonnegative prefix of the first ``limit`` entries of a
    stable descending argsort over the whole array (ties keep index order),
    but only the entries at or above the cut are sorted.
    """
    flat = masked.reshape(-1)
    k = min(limit, flat.size)
    cut = max(np.partition(flat, flat.size - k)[flat.size - k], 0.0)
    idx = np.flatnonzero(flat >= cut)
    return idx[np.argsort(-flat[idx], kind="stable")][:limit]


def _as_joint2(p_xy: JointPmf) -> np.ndarray:
    p = np.asarray(p_xy.probs, dtype=float)
    if p.ndim != 2:
        raise DimensionMismatch("expected a two-axis joint law")
    return p


def tai_exponent(
    p_xy: JointPmf,
    rate: float,
    leak: float,
    cfg: SearchConfig | None = None,
) -> ExponentResult:
    """Optimal exponent against the product alternative (independence testing).

    Maximizes I(U;Y) over mechanism and quantizer grids subject to
    I(U;Xh) <= rate and I(X;Xh) <= leak, with |Xh| = |X| and |U| = |X| + 1
    (2 under ``cfg.restrict_bsc``). Each of the ``_TOP_K`` distinct leading
    grid values seeds SLSQP polishes of both channels with exact gradients;
    the best feasible point wins.
    """
    cfg = cfg or SearchConfig()
    check_budgets(rate, leak)
    p = _as_joint2(p_xy)
    kx, ky = p.shape
    u_size = 2 if cfg.restrict_bsc else kx + 1
    space = _space_for(p, u_size, cfg, _TAI_BUDGETS)

    feasible = (space.i_xxh[:, None] <= leak + FEAS_SLACK) & (
        space.i_uxh <= rate + FEAS_SLACK
    )
    if not feasible.any():
        raise Infeasible("no feasible channel pair on the search grid")
    masked = np.where(feasible, space.i_uy, -1.0)
    # relabelings of one channel pair tie exactly, so near-equal grid values
    # mark the same basin; seeding only distinct values spreads the restarts
    seeds: list[int] = []
    seed_vals: list[float] = []
    for i in _leading_pairs(masked, _SEED_SCAN):
        v = masked.flat[i]
        if all(abs(v - w) > 1e-10 for w in seed_vals):
            seeds.append(int(i))
            seed_vals.append(float(v))
        if len(seeds) >= _TOP_K:
            break
    if not seeds:
        seeds = [int(np.argmax(feasible))]

    pair = _ChannelPair(p, ((kx, kx), (kx, u_size)), cfg.restrict_bsc)

    def value(theta):
        return pair.info(theta)[2]

    def grad(theta):
        return pair.jac(theta)[2]

    best_val = -1.0
    best_theta = None
    nq = space.quants.shape[0]
    for s in seeds:
        mech, quant = space.mechs[s // nq], space.quants[s % nq]
        theta = _free_params(mech, quant, cfg.restrict_bsc)
        val = value(theta)
        for eps in _START_DEPTHS:
            start = _free_params((1 - eps) * mech + eps / mech.shape[1],
                                 (1 - eps) * quant + eps / quant.shape[1], cfg.restrict_bsc)
            polished = _slsqp_polish(start, pair, 0, value, rate, leak, 1e-12, grad)
            if polished is not None and polished[0] > val:
                val, theta = polished
        if val > best_val:
            best_val, best_theta = val, theta

    mech, quant = pair.channels(best_theta)
    i_xxh, i_uxh, i_uy = pair.info(best_theta)
    if not i_uy <= min(i_uxh, space.i_xy) + 1e-8:
        raise InvariantViolation(
            f"data-processing violation at the returned point: I(U;Y)={i_uy!r}"
        )
    return ExponentResult(
        theta=max(best_val, 0.0),
        bound_kind="exact",
        rate=rate,
        leak=leak,
        mechanism=Channel(mech, p_xy.alphabets[0]),
        quantizer=Channel(quant),
        rate_mi=i_uxh,
        leak_mi=i_xxh,
        grid_step=space.mech_step,
    )


# ---------------------------------------------------------------------------
# zero rate


def zero_rate_exponent(p_xy: JointPmf, q_xy: JointPmf) -> ExponentResult:
    """Exact zero-rate exponent: min D(. || Q) over couplings of P's marginals.

    Requires the alternative to be entrywise positive.
    """
    p = _as_joint2(p_xy)
    q = _as_joint2(q_xy)
    if p.shape != q.shape:
        raise AlphabetMismatch(f"joint shapes differ: {p.shape} vs {q.shape}")
    if np.any(q <= 0):
        raise NonpositiveAlternative("alternative law must be entrywise positive")
    res = i_project(
        q_xy,
        [
            MarginalConstraint((q_xy.axes[0],), p.sum(axis=1), "x-marginal"),
            MarginalConstraint((q_xy.axes[1],), p.sum(axis=0), "y-marginal"),
        ],
        tol=1e-11,
    )
    return ExponentResult(
        theta=res.min_kl,
        bound_kind="exact",
        rate=0.0,
        inner_witness=res.argmin,
    )


# ---------------------------------------------------------------------------
# general alternative (lower bound)


def _inner_min(ref_chain: JointPmf, constraints) -> tuple[float, JointPmf | None]:
    try:
        res = i_project(ref_chain, constraints, tol=1e-9, max_iter=20_000)
    except (Infeasible, SupportMismatch) as e:
        log.info("inner projection skipped: %s", e)
        return math.inf, None
    return res.min_kl, res.argmin


def _thm1_inner_value(q_xy: JointPmf, shapes, p):
    """Inner I-projection value of a (mechanism, quantizer) pair, with its witness."""
    q = _as_joint2(q_xy)
    (_, xhat_size), (_, u_size) = shapes
    axes = ("U", "Xh", "X", "Y")
    alphabets = (tuple(range(u_size)), tuple(range(xhat_size)), *q_xy.alphabets)
    x_marginal = MarginalConstraint(("X",), p.sum(axis=1), "x-marginal")

    def inner_value(mech: np.ndarray, quant: np.ndarray):
        null_chain = np.einsum("hu,xh,xy->uhxy", quant, mech, p)
        ref = np.einsum("hu,xh,xy->uhxy", quant, mech, q)
        cons = [
            x_marginal,
            MarginalConstraint(("U", "Y"), null_chain.sum(axis=(1, 2)), "uy"),
            MarginalConstraint(("U", "Xh"), null_chain.sum(axis=(2, 3)), "uxh"),
        ]
        return _inner_min(JointPmf(ref, axes, alphabets), cons)

    return inner_value


def theorem1_lower_bound(
    p_xy: JointPmf,
    q_xy: JointPmf,
    rate: float,
    leak: float,
    cfg: SearchConfig | None = None,
    fixed_mechanism: np.ndarray | None = None,
) -> ExponentResult:
    """Achievable exponent against a general alternative.

    Outer search over (mechanism, quantizer); the inner value is the
    I-projection of the reference chain onto the three coupling constraints.
    Grid pairs are shortlisted by their I(U;Y) before the inner solver runs,
    since the projection is the expensive step. The best shortlisted pair is
    polished by SLSQP with the mechanism held fixed, then over both channels.
    ``fixed_mechanism`` pins the mechanism and keeps only the first pass.
    The search runs with |Xh| = |X| and |U| = |X| + 2; it has no BSC
    restriction and refuses ``cfg.restrict_bsc``.
    """
    cfg = cfg or THM1_SEARCH
    check_budgets(rate, leak)
    if cfg.restrict_bsc:
        raise DomainError("restrict_bsc applies only to the independence-testing search")
    p = _as_joint2(p_xy)
    q = _as_joint2(q_xy)
    if p.shape != q.shape:
        raise AlphabetMismatch(f"joint shapes differ: {p.shape} vs {q.shape}")
    kx, ky = p.shape
    u_size = kx + 2
    override = None
    if fixed_mechanism is not None:
        override = Channel(fixed_mechanism).matrix[None]
        if override.shape[1:] != (kx, kx):
            raise DimensionMismatch("fixed mechanism shape mismatch")
    space = _space_for(p, u_size, cfg, _THM1_BUDGETS, override)

    feasible = (space.i_xxh[:, None] <= leak + FEAS_SLACK) & (
        space.i_uxh <= rate + FEAS_SLACK
    )
    masked = np.where(feasible, space.i_uy, -np.inf)
    order = np.argsort(-masked, axis=None, kind="stable")
    order = order[np.isfinite(masked.reshape(-1)[order])].tolist()
    if not order:
        raise Infeasible("no feasible channel pair on the search grid")
    shortlist = order[:_INNER_SHORTLIST]
    if len(order) > _INNER_SHORTLIST:
        stride = max(1, len(order) // 16)
        shortlist += order[_INNER_SHORTLIST::stride][:16]

    shapes = ((kx, kx), (kx, u_size))
    inner_value = _thm1_inner_value(q_xy, shapes, p)

    # shortlisted pairs are feasible grid points, so only the inner value ranks them
    nq = space.quants.shape[0]
    best_val, best_theta = -math.inf, None
    for s in shortlist:
        mech, quant = space.mechs[s // nq], space.quants[s % nq]
        val, _ = inner_value(mech, quant)
        if best_val < val < math.inf:
            best_val, best_theta = val, _free_params(mech, quant, False)
    if best_theta is None:
        raise Infeasible("inner projection failed on every shortlisted pair")

    pair = _ChannelPair(p, shapes, False)

    def value(theta):
        val, _ = inner_value(*pair.channels(theta))
        return -1e3 if math.isinf(val) else val

    # the quantizer alone first: a joint pass from the grid point can stop in
    # a worse basin; the inner value is solved to residual 1e-9, hence ftol
    mech_params = kx * (kx - 1)
    passes = (mech_params,) if fixed_mechanism is not None else (mech_params, 0)
    for skip in passes:
        polished = _slsqp_polish(best_theta, pair, skip, value, rate, leak, 1e-11)
        if polished is not None and polished[0] > best_val:
            best_val, best_theta = polished

    mech, quant = pair.channels(best_theta)
    theta_val, witness = inner_value(mech, quant)
    i_xxh, i_uxh, _ = pair.info(best_theta)
    return ExponentResult(
        theta=max(float(theta_val), 0.0),
        bound_kind="lower_bound",
        rate=rate,
        leak=leak,
        mechanism=Channel(mech, p_xy.alphabets[0]),
        quantizer=Channel(quant),
        inner_witness=witness,
        rate_mi=i_uxh,
        leak_mi=i_xxh,
        grid_step=space.quant_step,
    )


def corollary2_bound(
    p_xy: JointPmf,
    q_xy: JointPmf,
    rate: float,
    cfg: SearchConfig | None = None,
) -> ExponentResult:
    """General-alternative lower bound with the mechanism pinned to identity.

    Models an unconstrained privacy budget (at least H(X) bits), where
    disclosing the source verbatim is allowed and only the rate constraint
    binds. The reported result carries no leak budget.
    """
    kx = _as_joint2(p_xy).shape[0]
    res = theorem1_lower_bound(
        p_xy, q_xy, rate, math.log2(kx) + 1.0, cfg, fixed_mechanism=np.eye(kx)
    )
    return replace(res, leak=None, leak_mi=None)
