"""Type-II error exponents for rate- and privacy-constrained testing.

The single-letter objects here are optimizations over two finite channels: a
privacy mechanism (X to Xh) constrained by I(X;Xh) <= L and a quantizer
(Xh to U) constrained by I(U;Xh) <= R. ``tai_exponent`` maximizes I(U;Y)
(testing against independence, where this is exact); ``theorem1_lower_bound``
maximizes an inner I-projection value against a general alternative. Every
joint of a channel pair but the Theorem-1 chains comes from one kernel,
``probcore._pair_joints``, and every information has ``_mi_batch``'s bits.
The search amplifies round-off, so this arithmetic order is part of its
result: summing the polished pair's marginals in another order moved values
by up to 0.069 bits, and summing the grid's reordered near-tied pairs moved
one value by 0.075 bits (CHANGES.md).

Search strategy: a coarse lexicographic grid over channel rows (candidates
violating a constraint are discarded, never relaxed) supplies seeds, ranked
by ``_TaiSpace.ranked``: the pairs within both budgets, best I(U;Y) first,
ties in index order, so ties break toward the lexicographically smallest
parameter vector. A sequential-quadratic (SLSQP) polish takes a seed along
the active-constraint ridge. Both searches see a channel pair through
``_ChannelPair`` (``_InnerPair`` for Theorem 1), which scores a batch of
points at once, a point with the same bits in a batch of any size, and
polish a batch of starts in lockstep with ``minimize`` (from ``lockstep``).
``tai_exponent`` polishes the ``_TOP_K`` distinct leading values of the
ranking, each from three start depths, in one ``minimize`` call.
``theorem1_lower_bound`` projects a shortlist of the ranking in one batch
and polishes the best pair twice, the quantizer alone and then both
channels. ``symmetric_tai_exponent`` searches nothing: the optimum over
pairs of binary symmetric channels comes from two root solves
(``_symmetric_optimum``).

Alphabet sizes, grid budgets, the seed count and the shortlist are fixed
per method; a search's one setting is its ``grid_step``, checked by
``_check_grid_step``. Grid information quantities are cached per (law,
cardinality, step, budgets), so repeated queries against one instance pay only a
feasibility mask and a sort of the feasible pairs: a binary-X independence
grid has about 95,000 pairs and builds in a fraction of a second, a
ternary-X grid takes over a second. A grid is built in blocks of whole
mechanisms (``_BLOCK_CELLS``), so its temporaries take a few megabytes.
Infinite budgets are accepted. A grid of more than 2**26 pairs, which every
|X| >= 6 law needs, is refused with ``TooLarge`` before it is built.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    Infeasible,
    InvariantViolation,
    NonpositiveAlternative,
    SupportMismatch,
    TooLarge,
)
from .iproject import MarginalConstraint, _i_project_batch, i_project
# the searches call the module attribute, which perfbench's exponents.slsqp probe wraps
from .lockstep import minimize
from .probcore import (
    Channel,
    JointPmf,
    Pmf,
    _as_joint2,
    _as_joint_pair,
    _compositions,
    _joint_views,
    _mi_batch,
    _mi_cells,
    _pair_cells,
    _pair_joints,
    _number,
    _sum_index,
    binary_entropy,
    binary_entropy_inv,
    chain_joint,  # unused here; kept as a module attribute for perfbench's probe
    check_budgets,
    star,
)

__all__ = [
    "ExponentResult",
    "binary_tai_exponent",
    "tai_exponent",
    "symmetric_tai_exponent",
    "zero_rate_exponent",
    "theorem1_lower_bound",
    "corollary2_bound",
]

log = logging.getLogger(__name__)

_LOG2E = math.log2(math.e)
FEAS_SLACK = 1e-9


# (mechanism, quantizer) caps on the number of candidates per channel grid;
# the effective step is coarsened until the grid fits. Ternary X needs 1000
# each: at 200 both grids collapse to deterministic rows and the search finds
# nothing. The Theorem-1 inner I-projection makes every grid pair costly.
_TAI_BUDGETS = (1000, 1000)
_THM1_BUDGETS = (300, 800)
# cap on a search grid's (mechanism, quantizer) pairs. A step cannot coarsen
# past 1, so from |X| = 5 the grids outgrow their budgets; the cap keeps every
# |X| <= 5 grid (Theorem 1 at |X| = 5: 3,125 x 16,807 pairs) and refuses
# |X| >= 6 (5.5e9 pairs for the independence search) before building it.
_MAX_GRID_PAIRS = 2**26
# joint cells per block of the grid build. A block is whole mechanisms, as
# many as keep the block's widest joints within this many cells, or one
# mechanism when its pairs alone need more; the build's temporaries scale
# with a block, not with the grid
_BLOCK_CELLS = 2**16
# distinct grid values polished by the independence-testing search
_TOP_K = 4
# general-alternative search: shortlisted pairs that get the inner solver
_INNER_SHORTLIST = 48


@dataclass(frozen=True, eq=False)
class ExponentResult:
    """An exponent in bits and, from a channel search, its witness, with
    ``rate_mi`` = I(U;Xh) and ``leak_mi`` = I(X;Xh) at the returned channels.

    ``grid_step`` is the lattice actually searched: the mechanism lattice
    for ``tai_exponent``, the quantizer lattice for ``theorem1_lower_bound``
    and ``corollary2_bound``, and None for a closed form,
    ``symmetric_tai_exponent`` included.
    """

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
    _number(q_noise, "noise", 0, 1)
    check_budgets(rate, leak)
    r = min(rate, 1.0)
    l = min(leak, 1.0)
    p_mech = binary_entropy_inv(1.0 - l)
    p_quant = binary_entropy_inv(1.0 - r)
    return 1.0 - binary_entropy(star(q_noise, star(p_mech, p_quant)))


# ---------------------------------------------------------------------------
# channel grids


def _fit_step(rows: int, k: int, step: float, budget: int) -> float:
    """Coarsen step until the row-product grid fits the budget.

    A grid on the 1/m lattice, m = round(1/step), has
    comb(m + k - 1, k - 1) ** rows candidates. A step whose grid fits, or
    whose lattice has one part (a step above 2/3), is returned unchanged;
    otherwise the step is 1/m for the largest m below round(1/step) whose
    grid fits, or 1 when none does.
    """
    def fits(m: int) -> bool:
        return math.comb(m + k - 1, k - 1) ** rows <= budget

    m = max(1, round(1.0 / step))
    if m == 1 or fits(m):
        return step
    # past here k >= 2, so the count is at least m + 1: a grid that fits has m < budget
    m = max(1, min(m - 1, budget))
    while m > 1 and not fits(m):
        m -= 1
    return 1.0 / m


def _lattice(n_in: int, n_out: int, step: float, budget: int) -> tuple[int, int]:
    """The parts m of the channel grid's 1/m lattice and its candidate count."""
    m = max(1, round(1.0 / _fit_step(n_in, n_out, step, budget)))
    return m, math.comb(m + n_out - 1, n_out - 1) ** n_in


def _channel_grid(n_in: int, n_out: int, m: int) -> tuple[np.ndarray, float]:
    rows = _compositions(m, n_out) / m  # pmf rows on the 1/m lattice, lexicographic
    idx = list(product(range(rows.shape[0]), repeat=n_in))
    mats = rows[np.asarray(idx)]  # (N, n_in, n_out), lexicographic
    return mats, 1.0 / m  # the lattice searched: a step of 0.3 gives thirds


class _TaiSpace:
    """Grid candidates and their information quantities for one instance.

    Mechanisms map X to an Xh of the same size; ``budgets`` caps the
    (mechanism, quantizer) grid sizes. A pair is a flat index into the
    (mechanism, quantizer) product, mechanism-major.
    """

    def __init__(self, p_xy: np.ndarray, u_size: int, grid_step: float,
                 budgets: tuple[int, int], mechs_override: np.ndarray | None = None):
        kx = p_xy.shape[0]
        self.i_xy = _mi_batch(p_xy)
        mech_budget, quant_budget = budgets
        mech_m, n_mechs = _lattice(kx, kx, grid_step, mech_budget)
        quant_m, n_quants = _lattice(kx, u_size, grid_step, quant_budget)
        if mechs_override is not None:
            n_mechs = len(mechs_override)
        if n_mechs * n_quants > _MAX_GRID_PAIRS:
            raise TooLarge(f"the search grid for |X| = {kx} has {n_mechs * n_quants:,} "
                           f"channel pairs, above the cap of 2**26")
        self.mechs, self.mech_step = (
            _channel_grid(kx, kx, mech_m) if mechs_override is None
            else (mechs_override, grid_step))
        self.quants, self.quant_step = _channel_grid(kx, u_size, quant_m)
        nm = self.mechs.shape[0]
        nq = self.quants.shape[0]
        self.i_xxh = np.empty(nm)
        self.i_uxh = np.empty((nm, nq))
        self.i_uy = np.empty((nm, nq))
        # cells in the widest joints of one mechanism's pairs: (U, Xh), (U, Y)
        # or the (X, U) channel product, one per quantizer
        cells = nq * self.quants.shape[2] * max(p_xy.shape)
        block = max(1, _BLOCK_CELLS // cells)
        for lo in range(0, nm, block):
            hi = lo + block
            (j_xxh, j_uxh, j_uy), _ = _pair_joints(p_xy, self.mechs[lo:hi, None], self.quants)
            self.i_xxh[lo:hi] = _mi_batch(j_xxh[:, 0])
            self.i_uxh[lo:hi] = _mi_batch(j_uxh)
            self.i_uy[lo:hi] = _mi_batch(j_uy)
            # data-processing sanity: I(U;Y) can exceed neither I(U;Xh) nor I(X;Y)
            cap = np.minimum(self.i_uxh[lo:hi], self.i_xy)
            if not np.all(self.i_uy[lo:hi] <= cap + 1e-8):
                raise InvariantViolation("data-processing violation in grid")

    def ranked(self, rate: float, leak: float, limit: int | None = None) -> np.ndarray:
        """Flat indices of the pairs within both budgets, best I(U;Y) first.

        The sort is stable, so ties keep index order and the lexicographically
        smallest pair leads. With ``limit`` only a prefix of that order comes
        back: the ``limit`` best pairs and every pair tied with the last of
        them, cut by ``np.partition`` before the sort. Never empty: with no
        pair within the budgets it raises ``Infeasible``.
        """
        feasible = np.flatnonzero(
            (self.i_xxh[:, None] <= leak + FEAS_SLACK) & (self.i_uxh <= rate + FEAS_SLACK)
        )
        if feasible.size == 0:
            raise Infeasible("no feasible channel pair on the search grid")
        keys = -self.i_uy.reshape(-1)[feasible]
        if limit is not None and limit < keys.size:
            kept = keys <= np.partition(keys, limit - 1)[limit - 1]
            feasible, keys = feasible[kept], keys[kept]
        order = np.argsort(keys, kind="stable")
        del keys  # before the gather, which would otherwise hold one more grid-sized array
        return feasible[order]

    def pair(self, i) -> tuple[np.ndarray, np.ndarray]:
        """(mechanism, quantizer) of the flat index ``i``, or stacked ones of an index array."""
        m, q = np.divmod(i, self.quants.shape[0])
        return self.mechs[m], self.quants[q]


def _check_grid_step(grid_step: float) -> None:
    """Refuse a grid step that is not a number in (0, 1] with a finite
    1/step, which the lattice needs."""
    if math.isinf(1.0 / _number(grid_step, "grid_step", 0, 1, lo_open=True)):
        raise DomainError(f"grid_step {grid_step!r} is too small: 1/step overflows")


_SPACE_CACHE: dict = {}
_SPACE_CACHE_MAX = 4


def _space_for(
    p_xy: np.ndarray,
    u_size: int,
    grid_step: float,
    budgets: tuple[int, int],
    mechs_override: np.ndarray | None = None,
) -> _TaiSpace:
    _check_grid_step(grid_step)
    key = (
        p_xy.tobytes(),
        p_xy.shape,
        u_size,
        grid_step,
        budgets,
        None if mechs_override is None else mechs_override.tobytes(),
    )
    space = _SPACE_CACHE.get(key)
    if space is None:
        space = _TaiSpace(p_xy, u_size, grid_step, budgets, mechs_override)
        if len(_SPACE_CACHE) >= _SPACE_CACHE_MAX:
            _SPACE_CACHE.pop(next(iter(_SPACE_CACHE)))
        _SPACE_CACHE[key] = space
    return space


# ---------------------------------------------------------------------------
# local polish


# floor of the log arguments in the gradient: the derivative of MI at a zero
# joint entry is -inf, and a floor near the underflow limit stalls SLSQP
_LOG_FLOOR = 1e-12


def _log(a: np.ndarray, floor: float = _LOG_FLOOR) -> np.ndarray:
    return np.log(np.maximum(a, floor))


def _mi_grad(joint: np.ndarray, floor: float = _LOG_FLOOR) -> np.ndarray:
    """d I / d joint in nats, up to a constant that cancels on the simplex.

    The exact derivative is log J(a,b) - log r(a) - log c(b) - 1 for row sums
    r and column sums c; every direction that keeps each channel row summing
    to one moves the total mass by zero, so the -1 drops out.
    """
    r, c = joint.sum(axis=-1, keepdims=True), joint.sum(axis=-2, keepdims=True)
    return _log(joint, floor) - _log(r, floor) - _log(c, floor)


class _Points:
    """Channel pairs of one ``_ChannelPair`` evaluated as a batch, member i in row i.

    ``mech`` (B, X, Xh) and ``quant`` (B, Xh, U) are the channels and
    ``p_xh`` (B, Xh) the Xh marginal. ``cells`` (B, n) holds their (X, Xh),
    (U, Xh) and (U, Y) joints back to back, from ``probcore._pair_cells``
    (the first two alone for the Theorem-1 pair), ``shapes`` the joints'
    (a, b), ``sums`` (B, m) the row and column sums ``probcore._mi_cells``
    divided each joint by, and ``info`` (B, k) the k MI values of those
    joints in bits. The pair fills ``jac``, ``projections`` and ``grads`` on
    first use.
    """

    def __init__(self, mech, quant, p_xh, cells, shapes, sums, info):
        self.mech, self.quant, self.p_xh = mech, quant, p_xh
        self.cells, self.shapes, self.sums, self.info = cells, shapes, sums, info
        self.jac = self.projections = self.grads = None

    def take(self, rows: np.ndarray) -> _Points:
        """The members ``rows`` as a batch of their own, with nothing filled yet."""
        return _Points(self.mech[rows], self.quant[rows], self.p_xh[rows], self.cells[rows],
                       self.shapes, self.sums[rows], self.info[rows])


class _ChannelPair:
    """A (mechanism, quantizer) pair on one law as a function of its free parameters.

    The free parameters are every channel row but its last entry, the
    mechanism's ``mech_params`` first; ``free`` builds them. ``evaluate``
    maps stacked parameter vectors, one per row, to a ``_Points`` batch: the
    channels, clipped at 0 and each row divided by its sum, so a point off
    the simplex, such as an SLSQP iterate just past a face, still maps to
    two channels (every row sums to at least 1 before the division); their
    joints from the grid's joint kernel,
    written into one buffer (``probcore._pair_cells``), and (I(X;Xh),
    I(U;Xh), I(U;Y)) in bits from ``probcore._mi_cells``, which has the bits
    of the grid's ``_mi_batch``, so the polish scores a grid pair with the
    grid's bits. ``jacobians`` gives their exact gradients, one row each,
    computed once per batch from the same joints and their row and column
    sums, whose floored logs take one pass over each buffer. A pair that
    does not score I(U;Y) (``scores_uy`` false), as the Theorem-1 pair does
    not, evaluates the first two joints alone and gets the first two values
    and rows, with the same bits. The polish maximizes ``values``, here
    I(U;Y), with gradients ``gradients`` to ``ftol``. A member gets the same bits in a
    batch of any size, so a single point is a batch of one: ``channels``
    and ``info`` read one.

    The pair remembers its last batch, keyed on the bytes of the float64
    parameters, so the objective, the constraints and their Jacobians at
    one point cost one evaluation and at most one gradient.
    The gradient is that of the unclipped map, exact inside the simplex
    where the polish moves; into an unused symbol it is the one-sided
    derivative. Into a zero cell of a joint it is the log of ``log_floor``
    in place of -inf.
    """

    log_floor = _LOG_FLOOR
    ftol = 1e-12
    scores_uy = True

    def __init__(self, p_xy: np.ndarray, kh: int, ku: int):
        self.p_xy = p_xy
        self.p_x = p_xy.sum(axis=1)
        self.kx, self.kh, self.ku = p_xy.shape[0], kh, ku
        self.mech_params = self.kx * (kh - 1)
        self.n_free = self.mech_params + kh * (ku - 1)
        # the (x, 1) slope of I(U;Y) into an unused U symbol through the
        # mechanism, a constant of the law (see ``_gradient``)
        self._fresh_u = (p_xy * _mi_grad(p_xy, self.log_floor)).sum(axis=1, keepdims=True)
        self._key = self._last = None

    def free(self, mech: np.ndarray, quant: np.ndarray) -> np.ndarray:
        return np.concatenate([mech[:, :-1].reshape(-1), quant[:, :-1].reshape(-1)])

    def _free_grad(self, d_mech: np.ndarray, d_quant: np.ndarray) -> np.ndarray:
        """Chain gradients over full channel matrices to the free parameters.

        Leading axes are kept. A free entry moves its own cell and, the other
        way, the last entry of its row.
        """
        return np.concatenate([
            (d_mech[..., :-1] - d_mech[..., -1:]).reshape(*d_mech.shape[:-2], -1),
            (d_quant[..., :-1] - d_quant[..., -1:]).reshape(*d_quant.shape[:-2], -1),
        ], axis=-1)

    def row_sums(self, skip: int) -> tuple[np.ndarray, np.ndarray]:
        """``_row_sums`` of the free parameters after the first ``skip``."""
        return _row_sums(self.kx, self.kh, self.ku, skip)

    def evaluate(self, thetas: np.ndarray) -> _Points:
        """The batch of the parameter vectors stacked in ``thetas`` (B, n_free);
        the same bytes as the last call return the same batch."""
        key = thetas.tobytes()
        if key == self._key:
            return self._last
        mfree = thetas[:, :self.mech_params].reshape(-1, self.kx, self.kh - 1)
        qfree = thetas[:, self.mech_params:].reshape(-1, self.kh, self.ku - 1)
        mech = np.concatenate([mfree, 1 - mfree.sum(axis=-1, keepdims=True)], axis=-1)
        quant = np.concatenate([qfree, 1 - qfree.sum(axis=-1, keepdims=True)], axis=-1)
        mech = np.maximum(mech, 0.0)  # what np.clip(mech, 0.0, None) calls
        quant = np.maximum(quant, 0.0)
        mech = mech / mech.sum(axis=-1, keepdims=True)
        quant = quant / quant.sum(axis=-1, keepdims=True)
        cells, joints, p_xh = _pair_cells(self.p_xy, mech, quant, self.scores_uy)
        info, sums = _mi_cells(cells, joints)
        self._key = key
        self._last = _Points(mech, quant, p_xh, cells, tuple(j.shape[-2:] for j in joints), sums,
                             info)
        return self._last

    def jacobians(self, pts: _Points) -> np.ndarray:
        """(B, k, n_free) gradients of the k values in ``pts.info``."""
        if pts.jac is None:
            pts.jac = self._gradient(pts)
        return pts.jac

    def values(self, pts: _Points) -> np.ndarray:
        return pts.info[:, 2]

    def gradients(self, pts: _Points) -> np.ndarray:
        return self.jacobians(pts)[:, 2]

    def _at(self, theta: np.ndarray) -> _Points:
        return self.evaluate(np.asarray(theta, dtype=float)[None])

    def channels(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = self._at(theta)
        return pts.mech[0], pts.quant[0]

    def info(self, theta: np.ndarray) -> tuple[float, float, float]:
        return tuple(float(i) for i in self._at(theta).info[0])

    def _gradient(self, pts: _Points) -> np.ndarray:
        p, p_x, mech, quant, p_xh = self.p_xy, self.p_x, pts.mech, pts.quant, pts.p_xh
        fl = self.log_floor
        # every joint's log J - log r - log c (``_mi_grad``) in one pass over
        # the batch's cells, from the floored logs of all cells and all sums
        first, second = _log_sums_index(pts.shapes)
        log_sums = _log(pts.sums, fl)
        g = (_log(pts.cells, fl) - np.take(log_sums, first, axis=-1)) - np.take(
            log_sums, second, axis=-1)
        g_xxh, g_uxh, *g_uy = _joint_views(g, pts.shapes)
        g_xhu = g_uxh.mT  # (B, h, u)
        # A row of a joint with no mass (an unused Xh or U symbol) has no
        # conditional of its own: mass moved into it brings the conditional of
        # where it came from, and log J - log r takes that conditional's log.
        # For Xh that is the quantizer row; for U it is P(Y|x) when the
        # mechanism moves and P(Y|Xh=h) when the quantizer does.
        unused_xh = p_xh <= 0
        if unused_xh.any():
            g_xhu[unused_xh] = (_log(quant, fl) - _log(p_xh[:, None] @ quant, fl))[unused_xh]
        # row k of d_mech and d_quant: the slopes of value k over each channel
        rows = 2 + len(g_uy)
        d_mech = np.empty((len(mech), rows, *mech.shape[1:]))
        d_quant = np.empty((len(quant), rows, *quant.shape[1:]))
        np.multiply(p_x[:, None], g_xxh, out=d_mech[:, 0])
        # I(U;Xh) sees the mechanism only through the Xh marginal
        np.multiply(p_x[:, None], (quant * g_xhu).sum(axis=-1)[:, None], out=d_mech[:, 1])
        d_quant[:, 0] = 0.0
        np.multiply(p_xh[..., None], g_xhu, out=d_quant[:, 1])
        if g_uy:  # the pair scores I(U;Y) too
            h = p @ g_uy[0].mT  # (B, x, u)
            lo = sum(a + b for a, b in pts.shapes[:2])  # where the (U, Y) row sums start
            unused_u = pts.sums[:, lo:lo + self.ku] <= 0  # (B, u)
            if unused_u.any():
                np.copyto(h, self._fresh_u, where=unused_u[:, None])
            np.matmul(h, quant.mT, out=d_mech[:, 2])
            np.matmul(mech.mT, h, out=d_quant[:, 2])
            if unused_u.any():
                a_hy = mech.mT @ p  # joints of (Xh, Y)
                np.copyto(d_quant[:, 2], (a_hy * _mi_grad(a_hy, fl)).sum(axis=-1, keepdims=True),
                          where=unused_u[:, None])
        return self._free_grad(d_mech, d_quant) * _LOG2E


@functools.cache
def _log_sums_index(shapes: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Per cell of a batch's joints, the positions in its sums of the two
    sums whose logs ``_ChannelPair._gradient`` subtracts, first and second.

    Row then column, as ``_mi_grad`` takes them, but for the (U, Xh) joint,
    the second of ``shapes``: its gradient is taken over (Xh, U), so its
    Xh sum goes first.
    """
    rows, cols = _sum_index(shapes)
    swap = np.zeros(len(rows), dtype=bool)
    lo = shapes[0][0] * shapes[0][1]
    swap[lo:lo + shapes[1][0] * shapes[1][1]] = True
    first, second = np.where(swap, cols, rows), np.where(swap, rows, cols)
    first.setflags(write=False)  # shared by every batch of these shapes
    second.setflags(write=False)
    return first, second


@functools.cache
def _row_sums(kx: int, kh: int, ku: int, skip: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-sum matrix A of the free parameters after ``skip``, and [A; -A].

    Row i of A sums the free entries of channel row i, mechanism rows
    first; a row of held parameters only is left out. Each sum lies in
    [0, 1]: the SLSQP inequalities A x >= 0 and -(A x - 1) >= 0, whose
    Jacobian is [A; -A].
    """
    owner = np.concatenate([np.repeat(np.arange(kx), kh - 1),
                            kx + np.repeat(np.arange(kh), ku - 1)])[skip:]
    # owner is non-decreasing and from 0, so its distinct values are where it
    # steps; a bare np.unique would import numpy.ma (10-15 ms) on first use
    rows = (owner[np.diff(owner, prepend=-1) != 0][:, None] == owner).astype(float)
    both = np.vstack([rows, -rows])
    rows.setflags(write=False)  # shared by every polish of this shape
    both.setflags(write=False)
    return rows, both


def _slsqp_polish(starts, pair, rate, leak, hold_mechanism=False) -> list:
    """SLSQP maximization of ``pair.value`` from each row of ``starts``, within both budgets.

    The optimum sits where the information constraints are active, and
    moving along that boundary needs the mechanism and the quantizer to move
    together, which a sequential-quadratic step does. ``hold_mechanism``
    keeps the mechanism's parameters at those of each start. The objective
    and the budget constraints take ``pair``'s exact gradients. ``pair.ftol``
    sits above the noise of its value: an objective solved only to some
    residual cannot be polished below it, and a tighter ``ftol`` just runs
    to the 200-iteration cap. All starts run in one ``minimize`` call.
    Returns, per start, (value, theta) of the final point when it meets both
    budgets, else None; the caller keeps whichever point scores higher.
    """
    res = minimize(pair, starts, rate, leak, hold_mechanism)
    thetas = starts.copy()
    thetas[:, pair.mech_params if hold_mechanism else 0:] = np.clip(res.x, 0.0, None)
    pts = pair.evaluate(thetas)
    keep = ~((pts.info[:, 0] > leak + FEAS_SLACK) | (pts.info[:, 1] > rate + FEAS_SLACK))
    values = np.zeros(len(thetas))
    if keep.any():  # an empty batch is not scored
        values[keep] = pair.values(pts if keep.all() else pts.take(np.flatnonzero(keep)))
    return [(float(v), theta) if ok else None for v, theta, ok in zip(values, thetas, keep)]


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


def _symmetric_optimum(p: np.ndarray, rate: float, leak: float):
    """The best pair of binary symmetric channels and its (I(X;Xh), I(U;Xh), I(U;Y)).

    On [0, 1/2] a larger crossover degrades a BSC, and BSC(a) then BSC(b)
    is BSC(a * b), so I(X;Xh) falls in the mechanism's a, I(U;Y) falls in
    a and b, and I(U;Xh) rises in a. The optimum is the smallest a within
    the leak budget, then the smallest b within the rate budget: bisections
    that keep their feasible end (1/2, a constant channel, counts as one),
    on the bits that give the reported values, so both budgets hold exactly.
    """
    if p.shape[0] != 2:
        raise DimensionMismatch("BSC restriction needs binary alphabets")

    def bsc(a: float) -> np.ndarray:  # Channel.bsc's checks would quadruple the solve's time
        return np.array([[1.0 - a, a], [a, 1.0 - a]])

    def mi(a: float, b: float, k: int) -> float:  # I(X;Xh), I(U;Xh), I(U;Y) for k = 0, 1, 2
        return float(_mi_batch(_pair_joints(p, bsc(a), bsc(b), k == 2)[0][k]))

    def smallest(feasible) -> float:
        lo, hi = 0.0, 0.5
        if feasible(lo):
            return lo
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (lo, mid) if feasible(mid) else (mid, hi)
        return hi

    a = smallest(lambda a: mi(a, 0.0, 0) <= leak)
    b = smallest(lambda b: mi(a, b, 1) <= rate)
    return bsc(a), bsc(b), [mi(a, b, k) for k in range(3)]


def _tai_result(p_xy: JointPmf, p: np.ndarray, rate: float, leak: float, theta: float,
                mech: np.ndarray, quant: np.ndarray, info, step: float | None) -> ExponentResult:
    """The independence-testing result at the returned pair, whose
    (I(X;Xh), I(U;Xh), I(U;Y)) is ``info``, after a data-processing check."""
    i_xxh, i_uxh, i_uy = info
    if not i_uy <= min(i_uxh, float(_mi_batch(p))) + 1e-8:
        raise InvariantViolation(
            f"data-processing violation at the returned point: I(U;Y)={i_uy!r}"
        )
    return ExponentResult(
        theta=max(theta, 0.0),
        bound_kind="exact",
        rate=rate,
        leak=leak,
        mechanism=Channel(mech, p_xy.alphabets[0]),
        quantizer=Channel(quant),
        rate_mi=i_uxh,
        leak_mi=i_xxh,
        grid_step=step,
    )


def tai_exponent(
    p_xy: JointPmf,
    rate: float,
    leak: float,
    grid_step: float = 0.1,
) -> ExponentResult:
    """Optimal exponent against the product alternative (independence testing).

    Maximizes I(U;Y) over mechanism and quantizer grids on the
    ``grid_step`` lattice subject to I(U;Xh) <= rate and I(X;Xh) <= leak,
    with |Xh| = |X| and |U| = |X| + 1. Each of the ``_TOP_K`` distinct
    leading grid values seeds SLSQP polishes of both channels with exact
    gradients, one from each of the ``_START_DEPTHS``; all of them run in
    lockstep in one ``minimize`` call, and the best feasible point wins,
    compared seed by seed and depth by depth. ``symmetric_tai_exponent``
    gives the optimum over symmetric pairs instead.
    """
    check_budgets(rate, leak)
    p = _as_joint2(p_xy)
    pair = _ChannelPair(p, p.shape[0], p.shape[0] + 1)
    space = _space_for(p, pair.ku, grid_step, _TAI_BUDGETS)

    # relabelings of one channel pair tie exactly, so near-equal grid values
    # mark the same basin; seeding only distinct values spreads the restarts
    seeds: list[int] = []
    seed_vals: list[float] = []
    for i in space.ranked(rate, leak, _SEED_SCAN)[:_SEED_SCAN]:
        v = space.i_uy.flat[i]
        if all(abs(v - w) > 1e-10 for w in seed_vals):
            seeds.append(int(i))
            seed_vals.append(float(v))
        if len(seeds) >= _TOP_K:
            break

    mechs, quants = space.pair(np.array(seeds))
    grid = np.array([pair.free(mech, quant) for mech, quant in zip(mechs, quants)])
    starts = np.array([pair.free((1 - eps) * mech + eps / mech.shape[1],
                                 (1 - eps) * quant + eps / quant.shape[1])
                       for mech, quant in zip(mechs, quants) for eps in _START_DEPTHS])
    polished = _slsqp_polish(starts, pair, rate, leak)
    best_val = -1.0
    best_theta = None
    for k, (theta, val) in enumerate(zip(grid, pair.values(pair.evaluate(grid)))):
        val = float(val)
        for res in polished[k * len(_START_DEPTHS):(k + 1) * len(_START_DEPTHS)]:
            if res is not None and res[0] > val:
                val, theta = res
        if val > best_val:
            best_val, best_theta = val, theta

    mech, quant = pair.channels(best_theta)
    return _tai_result(p_xy, p, rate, leak, best_val, mech, quant, pair.info(best_theta),
                       space.mech_step)


def symmetric_tai_exponent(p_xy: JointPmf, rate: float, leak: float) -> ExponentResult:
    """Optimal exponent against independence over pairs of binary symmetric
    channels (binary X), from ``_symmetric_optimum``'s two root solves.

    Not a search: the result has ``grid_step`` None, and both budgets hold
    exactly at the returned pair.
    """
    check_budgets(rate, leak)
    p = _as_joint2(p_xy)
    mech, quant, info = _symmetric_optimum(p, rate, leak)
    return _tai_result(p_xy, p, rate, leak, info[2], mech, quant, info, None)


# ---------------------------------------------------------------------------
# zero rate


def zero_rate_exponent(p_xy: JointPmf, q_xy: JointPmf) -> ExponentResult:
    """Exact zero-rate exponent: min D(. || Q) over couplings of P's marginals.

    Requires the alternative to be entrywise positive.
    """
    p, q = _as_joint_pair(p_xy, q_xy)
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


def _xlog_ratio(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a log(a / b), zero where a is zero and floored where b is."""
    return np.where(a > 0, a * (_log(a) - _log(b)), 0.0)


def _thm1_gradient(p, q, mech, quant, duals) -> tuple[np.ndarray, np.ndarray]:
    """Gradient in bits of the inner value over the full (mechanism, quantizer) matrices.

    The inner value is the dual optimum of a linear-family I-projection, so
    by the envelope theorem its derivative is sum_c <lam_c, dt_c> - E_P*[d
    log R], for the constraint targets t_c, their duals lam_c (X, (U,Y) and
    (U,Xh), natural-log scaling factors), the reference chain R and the
    projection P* = R exp(lam). The expectation is taken from the scales,
    E_P*[d log R / d mech(x,h)] = sum_{u,y} quant(h,u) q(x,y) F(u,h,x,y),
    so a zero channel entry needs no division.

    A zero-target cell has lam = -inf. A step off a simplex face gives such
    cells mass proportional to the step, and their duals are then those
    that maximize the dual's first-order term, each from its own optimality
    condition; the slope is one-sided. Three cases:
    - a zero quantizer cell (u,h) with u and h used:
      F_uxh = p_xh(h) / sum_{x,y} mech(x,h) q(x,y) F_x(x) F_uy(u,y);
    - an unused Xh symbol h, moved into by mech(x,h):
      F_uxh = p_x(x) / sum_y q(x,y) F_x(x) F_uy(u,y);
    - an unused U symbol u, moved into by quant(h,u) or mech(x,h): the
      (U,Y) and (U,Xh) duals of u combine to
      F_uy F_uxh = a(h,y) / sum_x mech(x,h) q(x,y) F_x(x), or
      p(x,y) / (q(x,y) F_x(x)), for the (Xh,Y) joint a.
    The rows of an unused Xh symbol get a zero quantizer gradient.
    """
    lam_x, lam_uy, lam_uxh = duals
    f_x, f_uy, f_uxh = np.exp(lam_x), np.exp(lam_uy), np.exp(lam_uxh)
    p_x = p.sum(axis=1)
    p_xh = p_x @ mech
    # a pair inside both simplices has no zero-target cell and skips every
    # face term below
    neg_uy, neg_uxh = np.isneginf(lam_uy), np.isneginf(lam_uxh)
    on_face = np.count_nonzero(neg_uy) + np.count_nonzero(neg_uxh)
    if on_face:
        unused_u = neg_uy.all(axis=1)
        open_uxh = neg_uxh & ~unused_u[:, None]  # (u, h)
        lam_uy = np.where(np.isfinite(lam_uy), lam_uy, math.log(_LOG_FLOOR))
        lam_uxh = np.where(np.isfinite(lam_uxh), lam_uxh, 0.0)

    # per (x, u): sum_y p lam_uy and F_x sum_y q F_uy
    a_xu = p @ lam_uy.T
    b_xu = f_x[:, None] * (q @ f_uy.T)
    # d/d mech(x,h) = sum_u quant(h,u) g(x,h,u)
    g = lam_uxh.T[None] * p_x[:, None, None] - b_xu[:, None, :] * f_uxh.T[None]
    # d/d quant(h,u): the same terms summed over x with weight mech(x,h)
    a_hu = mech.T @ a_xu
    k_hu = mech.T @ b_xu
    d_quant = lam_uxh.T * p_xh[:, None] - k_hu * f_uxh.T
    if on_face:
        g = np.where(open_uxh.T[None],
                     p_x[:, None, None] * (_log(p_x)[:, None, None] - _log(b_xu)[:, None, :] - 1.0),
                     g)
        d_quant = np.where(open_uxh.T, p_xh[:, None] * (_log(p_xh)[:, None] - _log(k_hu) - 1.0),
                           d_quant)
    g = a_xu[:, None, :] + g
    d_quant = a_hu + d_quant
    if on_face and unused_u.any():
        g[:, :, unused_u] = (_xlog_ratio(p, q * f_x[:, None]).sum(axis=1) - p_x)[:, None, None]
        a_hy = mech.T @ p
        m_hy = mech.T @ (q * f_x[:, None])
        d_quant[:, unused_u] = (_xlog_ratio(a_hy, m_hy).sum(axis=1) - p_xh)[:, None]
    # the einsum's summation order follows g's layout, which np.where makes C order
    d_mech = np.einsum("hu,xhu->xh", quant, np.where(quant[None] > 0, g, 0.0))
    return d_mech * _LOG2E, d_quant * _LOG2E


_CHAIN_AXES = ("U", "Xh", "X", "Y")
_INNER_SOLVER = {"tol": 1e-9, "max_iter": 20_000}
# a pair whose inner projection fails this way scores None
_INNER_FAILURES = (Infeasible, SupportMismatch)


class _InnerPair(_ChannelPair):
    """A channel pair scored by the Theorem-1 inner value, with its exact gradient.

    Every Theorem-1 projection goes through ``project_many``, one batched
    iterative-scaling call for stacked pairs, whose failures come back as
    None. ``projections`` scores a ``_Points`` batch with one such call on
    first use, and the batch keeps the results and their gradients, so one
    SLSQP iterate costs one projection. A pair whose projection fails
    scores -1e3, below every inner value, with a zero gradient.

    An SLSQP iterate computes the two channels, the (X, Xh) and (U, Xh)
    joints and their MI values, which are the two budgets SLSQP constrains,
    and one projection, a batch of one on the layout every iterate shares.
    When SLSQP asks for slopes it adds the two budget rows of the Jacobian
    and the inner value's gradient from that projection's duals. It computes
    no I(U;Y), which nothing in Theorem 1 reads, and no witness: the search
    reads ``argmin`` only at the pair it returns.

    Into a zero cell, the slopes of the two budget constraints are -inf and
    a floor stands in for them. SLSQP's steps are far longer than the
    floor, so it sets how steep the constraint model is on a face, and with
    it which basin the polish ends in. On 200 queries over eight laws
    (CHANGES.md), a floor of 1e-7 kept every value within 1e-8 of the
    finite-difference polish or above it, where 1e-12 and 1e-8 each fell
    below it by up to 8e-3 and 1.7e-3 bits on some.
    """

    log_floor = 1e-7
    ftol = 1e-11  # the inner value is solved to residual 1e-9
    scores_uy = False  # the search reads the two budgets, not I(U;Y)

    def __init__(self, p: np.ndarray, q_xy: JointPmf, kh: int, ku: int):
        super().__init__(p, kh, ku)
        self.q = _as_joint2(q_xy)
        self._alphabets = (tuple(range(ku)), tuple(range(kh)), *q_xy.alphabets)

    def _problems(self, mechs: np.ndarray, quants: np.ndarray):
        """Reference chains and (axes, targets) constraints of stacked pairs."""
        null_chain = np.einsum("nhu,nxh,xy->nuhxy", quants, mechs, self.p_xy)
        ref = np.einsum("nhu,nxh,xy->nuhxy", quants, mechs, self.q)
        return ref, [
            (("X",), np.broadcast_to(self.p_x, (len(ref), self.kx))),
            (("U", "Y"), null_chain.sum(axis=(2, 3))),
            (("U", "Xh"), null_chain.sum(axis=(3, 4))),
        ]

    def project_many(self, mechs: np.ndarray, quants: np.ndarray) -> list:
        """Inner I-projections of stacked (mechanism, quantizer) pairs in one
        batched iterative-scaling call, None for each pair whose projection fails."""
        ref, cons = self._problems(mechs, quants)
        out = _i_project_batch(ref, _CHAIN_AXES, self._alphabets, cons, **_INNER_SOLVER)
        for i, res in enumerate(out):
            if isinstance(res, _INNER_FAILURES):
                log.info("inner projection skipped: %s", res)
                out[i] = None
        return out

    def projections(self, pts: _Points) -> list:
        """``project_many`` of the members of ``pts``, computed once per batch."""
        if pts.projections is None:
            pts.projections = self.project_many(pts.mech, pts.quant)
        return pts.projections

    def values(self, pts: _Points) -> np.ndarray:
        return np.array([-1e3 if res is None else res.min_kl for res in self.projections(pts)])

    def gradients(self, pts: _Points) -> np.ndarray:
        if pts.grads is None:
            pts.grads = np.stack([
                np.zeros(self.n_free) if res is None else self._free_grad(
                    *_thm1_gradient(self.p_xy, self.q, mech, quant, res.duals))
                for mech, quant, res in zip(pts.mech, pts.quant, self.projections(pts))])
        return pts.grads


def theorem1_lower_bound(
    p_xy: JointPmf,
    q_xy: JointPmf,
    rate: float,
    leak: float,
    grid_step: float = 1 / 8,
) -> ExponentResult:
    """Achievable exponent against a general alternative.

    Outer search over (mechanism, quantizer); the inner value is the
    I-projection of the reference chain onto the three coupling constraints.
    Grid pairs are shortlisted by their I(U;Y) before the inner solver runs,
    since the projection is the expensive step, and the shortlist is
    projected as one batch. The best shortlisted pair is polished by SLSQP
    with the mechanism held fixed, then over both channels.
    The search runs with |Xh| = |X| and |U| = |X| + 2, its grids on the
    ``grid_step`` lattice.
    """
    return _theorem1_search(p_xy, q_xy, rate, leak, grid_step, pin_identity=False)


def _theorem1_search(p_xy, q_xy, rate, leak, grid_step, pin_identity: bool) -> ExponentResult:
    """``theorem1_lower_bound``'s search, or with ``pin_identity`` its
    first pass alone over quantizers behind the identity mechanism."""
    check_budgets(rate, leak)
    p, _ = _as_joint_pair(p_xy, q_xy)
    kx, ky = p.shape
    u_size = kx + 2
    override = np.eye(kx)[None] if pin_identity else None
    space = _space_for(p, u_size, grid_step, _THM1_BUDGETS, override)

    order = space.ranked(rate, leak)
    shortlist = order[:_INNER_SHORTLIST]
    if len(order) > _INNER_SHORTLIST:
        stride = max(1, len(order) // 16)
        shortlist = np.concatenate([shortlist, order[_INNER_SHORTLIST::stride][:16]])

    pair = _InnerPair(p, q_xy, kx, u_size)

    # shortlisted pairs are feasible grid points, so only the inner value ranks them
    best_val, best_theta = -math.inf, None
    mechs, quants = space.pair(shortlist)
    for mech, quant, res in zip(mechs, quants, pair.project_many(mechs, quants)):
        if res is not None and res.min_kl > best_val:
            best_val, best_theta = res.min_kl, pair.free(mech, quant)
    if best_theta is None:
        raise Infeasible("inner projection failed on every shortlisted pair")

    # the quantizer alone first: a joint pass from the grid point can stop in
    # a worse basin
    for hold in (True,) if pin_identity else (True, False):
        (polished,) = _slsqp_polish(best_theta[None], pair, rate, leak, hold)
        if polished is not None and polished[0] > best_val:
            best_val, best_theta = polished

    # a polished point is the pair's last batch, whose projection is read, not redone
    mech, quant = pair.channels(best_theta)
    (res,) = pair.projections(pair.evaluate(best_theta[None]))
    if res is None:
        raise Infeasible("inner projection failed at the returned channel pair")
    i_xxh, i_uxh = pair.info(best_theta)
    return ExponentResult(
        theta=max(float(res.min_kl), 0.0),
        bound_kind="lower_bound",
        rate=rate,
        leak=leak,
        mechanism=Channel(mech, p_xy.alphabets[0]),
        quantizer=Channel(quant),
        inner_witness=res.argmin,
        rate_mi=i_uxh,
        leak_mi=i_xxh,
        grid_step=space.quant_step,
    )


def corollary2_bound(
    p_xy: JointPmf,
    q_xy: JointPmf,
    rate: float,
    grid_step: float = 1 / 8,
) -> ExponentResult:
    """General-alternative lower bound with the mechanism pinned to identity.

    Models an unconstrained privacy budget (at least H(X) bits), where
    disclosing the source verbatim is allowed and only the rate constraint
    binds. The reported result carries no leak budget.
    """
    kx = _as_joint2(p_xy).shape[0]
    res = _theorem1_search(p_xy, q_xy, rate, math.log2(kx) + 1.0, grid_step, pin_identity=True)
    return replace(res, leak=None, leak_mi=None)
