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

Search strategy. A sequential-quadratic (SLSQP) polish takes a start along
the active-constraint ridge, where the two channels move together. Both
searches see a channel pair through ``_ChannelPair`` (``_InnerPair`` for
Theorem 1), which scores a batch of points at once, each with the bits it
gets alone, and polish a batch of starts in lockstep with ``minimize``
(from ``lockstep``). ``tai_exponent`` builds no grid: it polishes the
identity pair and one rare-flag pair per source symbol, each contracted
into the budgets (``_contract``), and contracts the best polished point
again, so its witness meets both budgets exactly. ``theorem1_lower_bound`` seeds
from a coarse lexicographic grid over channel rows (a pair over a budget is
discarded, never relaxed), ranked by ``_TaiSpace.ranked``, best I(U;Y)
first, ties in index order; it projects a shortlist of the ranking in one
batch and polishes the best pair, the quantizer alone and then both
channels. ``symmetric_tai_exponent`` searches nothing: the optimum over
pairs of binary symmetric channels is two root solves.

No search takes a setting. Sizes, grid budgets and the shortlist are fixed
per method, and a channel grid takes the finest lattice, up to eighths, that
fits its budget (``_lattice``). Grids are cached per (law, cardinality,
budgets) and built in blocks of whole mechanisms (``_BLOCK_CELLS``).
Infinite budgets are accepted. Every search refuses |X| > ``_MAX_X`` = 5
with ``TooLarge`` (``_source_size``).
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
# each grid takes the finest lattice that fits (``_lattice``). The Theorem-1
# inner I-projection makes every grid pair costly.
_THM1_BUDGETS = (300, 800)
# the largest |X| of every search. An independence-search start's lockstep
# buffers hold about 8 n^2 floats for n = |X|(2|X| - 1); a lattice cannot
# coarsen past one part, so from |X| = 5 the Theorem-1 grids outgrow their
# budgets (3,125 x 16,807 pairs at |X| = 5, 1.2e10 at |X| = 6)
_MAX_X = 5
# joint cells per block of the grid build. A block is whole mechanisms, as
# many as keep the block's widest joints within this many cells, or one
# mechanism when its pairs alone need more; the build's temporaries scale
# with a block, not with the grid
_BLOCK_CELLS = 2**16
# general-alternative search: shortlisted pairs that get the inner solver
_INNER_SHORTLIST = 48
# shortlisted inner values this close to the best tie with it
_TIE = 1e-12


@dataclass(frozen=True, eq=False)
class ExponentResult:
    """An exponent in bits and, from a channel search, its witness, with
    ``rate_mi`` = I(U;Xh) and ``leak_mi`` = I(X;Xh) at the returned channels.

    ``grid_step`` is the lattice actually searched, the quantizer lattice of
    ``theorem1_lower_bound`` and ``corollary2_bound``; it is None for
    ``tai_exponent``, which builds no grid, and for a closed form.
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


def _source_size(p: np.ndarray) -> int:
    """|X| of a search's law, refused with ``TooLarge`` above ``_MAX_X``."""
    kx = p.shape[0]
    if kx > _MAX_X:
        raise TooLarge(f"the channel searches take |X| <= {_MAX_X}, not |X| = {kx}")
    return kx


def _lattice(n_in: int, n_out: int, budget: int) -> tuple[int, int]:
    """The parts m of a channel grid's 1/m lattice and its candidate count.

    A grid of n_in-row channels on the 1/m lattice has
    comb(m + n_out - 1, n_out - 1) ** n_in candidates; m is the largest
    m <= 8 whose grid fits the budget, or 1 when none does.
    """
    def count(m: int) -> int:
        return math.comb(m + n_out - 1, n_out - 1) ** n_in

    m = next((m for m in range(8, 1, -1) if count(m) <= budget), 1)
    return m, count(m)


def _channel_grid(n_in: int, n_out: int, m: int) -> np.ndarray:
    rows = _compositions(m, n_out) / m  # pmf rows on the 1/m lattice, lexicographic
    idx = list(product(range(rows.shape[0]), repeat=n_in))
    return rows[np.asarray(idx)]  # (N, n_in, n_out), lexicographic


class _TaiSpace:
    """Grid candidates and their information quantities for one instance.

    Mechanisms map X to an Xh of the same size; ``budgets`` caps the
    (mechanism, quantizer) grid sizes (``_lattice``). A pair is a flat index
    into the (mechanism, quantizer) product, mechanism-major.
    """

    def __init__(self, p_xy: np.ndarray, u_size: int, budgets: tuple[int, int],
                 mechs_override: np.ndarray | None = None):
        kx = p_xy.shape[0]
        self.i_xy = _mi_batch(p_xy)
        mech_m, quant_m = (_lattice(kx, k, b)[0] for k, b in zip((kx, u_size), budgets))
        self.mechs = _channel_grid(kx, kx, mech_m) if mechs_override is None else mechs_override
        self.quants = _channel_grid(kx, u_size, quant_m)
        self.quant_step = 1.0 / quant_m  # the lattice searched
        nm, nq = len(self.mechs), len(self.quants)
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

    def ranked(self, rate: float, leak: float) -> np.ndarray:
        """Flat indices of the pairs within both budgets, best I(U;Y) first.

        The sort is stable, so ties keep index order and the lexicographically
        smallest pair leads. Never empty: with no pair within the budgets it
        raises ``Infeasible``.
        """
        feasible = np.flatnonzero(
            (self.i_xxh[:, None] <= leak + FEAS_SLACK) & (self.i_uxh <= rate + FEAS_SLACK)
        )
        if feasible.size == 0:
            raise Infeasible("no feasible channel pair on the search grid")
        keys = -self.i_uy.reshape(-1)[feasible]
        order = np.argsort(keys, kind="stable")
        del keys  # before the gather, which would otherwise hold one more grid-sized array
        return feasible[order]

    def pair(self, i) -> tuple[np.ndarray, np.ndarray]:
        """(mechanism, quantizer) of the flat index ``i``, or stacked ones of an index array."""
        m, q = np.divmod(i, self.quants.shape[0])
        return self.mechs[m], self.quants[q]


_SPACE_CACHE: dict = {}
_SPACE_CACHE_MAX = 4


def _space_for(p_xy: np.ndarray, u_size: int, budgets: tuple[int, int],
               mechs_override: np.ndarray | None = None) -> _TaiSpace:
    """The cached grid of these arguments."""
    key = (p_xy.tobytes(), p_xy.shape, u_size, budgets,
           None if mechs_override is None else mechs_override.tobytes())
    space = _SPACE_CACHE.get(key)
    if space is None:
        space = _TaiSpace(p_xy, u_size, budgets, mechs_override)
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
    channels, clipped at 0 and each row divided by its sum (so an SLSQP
    iterate just past a face still maps to two channels), their joints in
    one buffer (``probcore._pair_cells``) and (I(X;Xh), I(U;Xh), I(U;Y)) in
    bits from ``probcore._mi_cells``, with the bits of the grid's
    ``_mi_batch``, so a grid pair scores its grid bits. ``jacobians`` gives
    their exact gradients, one row each, once per batch from the same joints
    and sums, whose floored logs take one pass over each buffer. A pair
    that does not score I(U;Y) (``scores_uy`` false, the Theorem-1 pair)
    evaluates the first two joints alone, with the same bits. The polish
    maximizes ``values``, here I(U;Y), with ``gradients`` to ``ftol``. A
    member gets the same bits in a batch of any size, so a single point is
    a batch of one: ``channels`` and ``info`` read one.

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
        """The free parameters of ``mech`` and ``quant``, whose leading axes broadcast."""
        lead = np.broadcast_shapes(mech.shape[:-2], quant.shape[:-2])
        parts = [c[..., :-1] for c in (mech, quant)]
        return np.concatenate([np.broadcast_to(c, (*lead, *c.shape[-2:])).reshape(*lead, -1)
                               for c in parts], axis=-1)

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
        mfree = thetas[:, :self.mech_params].reshape(len(thetas), self.kx, self.kh - 1)
        qfree = thetas[:, self.mech_params:].reshape(len(thetas), self.kh, self.ku - 1)
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


def _polish(pair, starts, rate, leak, hold_mechanism=False):
    """SLSQP maximization of ``pair.values`` from each row of ``starts``,
    in lockstep, within both budgets.

    The optimum sits where the information constraints are active, and
    moving along that boundary needs the mechanism and the quantizer to move
    together, which a sequential-quadratic step does. ``hold_mechanism``
    keeps the mechanism's parameters at those of each start. The objective
    and the budget constraints take ``pair``'s exact gradients. ``pair.ftol``
    sits above the noise of its value: an objective solved only to some
    residual cannot be polished below it, and a tighter ``ftol`` just runs
    to the 200-iteration cap. Returns the polished points (B, n_free), their
    batch and their values, -inf where a budget is exceeded by more than
    ``FEAS_SLACK``; a batch with no point within the budgets is not scored,
    so a Theorem-1 pair projects none of it.
    """
    thetas = starts.copy()
    thetas[:, pair.mech_params if hold_mechanism else 0:] = np.clip(
        minimize(pair, starts, rate, leak, hold_mechanism).x, 0.0, None)
    pts = pair.evaluate(thetas)
    near = (pts.info[:, 0] <= leak + FEAS_SLACK) & (pts.info[:, 1] <= rate + FEAS_SLACK)
    return thetas, pts, np.where(near, pair.values(pts) if near.any() else 0.0, -np.inf)


# ---------------------------------------------------------------------------
# testing against independence

# Each start is polished from itself and from copies mixed this far toward
# uniform rows: from a simplex face (slopes of floored -inf) the polish can stop
# in a worse basin, and on 176 queries no two depths did the work of three.
_START_DEPTHS = (0.0, 1e-6, 1e-3)
# the mixing weights ``_contract`` scores first, dense at both ends, and the
# points it then scores inside the rung where a channel first fits
_LADDER = np.concatenate([[0.0], 2.0 ** np.arange(-52, 0), 1.0 - 2.0 ** np.arange(-2, -53, -1),
                          [1.0]])
_RUNG_POINTS = 64


def _contract(pair: _ChannelPair, mech, quant, rate: float, leak: float, mech_to=None,
              quant_to=None) -> np.ndarray:
    """Free parameters of the stacked pairs ``mech`` (B, X, Xh) and ``quant``
    (B, Xh, U), each channel mixed toward constant rows until its budget holds.

    First the mechanism, toward rows ``mech_to`` (B, Xh), by the smallest
    weight w with I(X;Xh) <= leak; then the quantizer, toward rows
    ``quant_to`` (B, U), until I(U;Xh) <= rate. Rows default to the
    channel's own output marginal, which the mixing leaves fixed, so each
    step moves its own budget alone. An information is convex along the
    segment and 0 at its constant end, so w = 1 fits, but for round-off at
    a zero budget. Each w is tested on the bits the pair reports, so both
    budgets hold exactly in floating point: the first rung of ``_LADDER``
    that fits, then the first of ``_RUNG_POINTS`` points inside it.
    """
    mech_to = pair.p_x @ mech if mech_to is None else mech_to
    quant_to = (mech_to[:, None] @ quant)[:, 0] if quant_to is None else quant_to

    def mixed(chan, to, k, budget, free):
        def first_fit(w):  # per member, the first of its weights (B, W) that fits, else its last
            mix = (1 - w)[..., None, None] * chan[:, None] + w[..., None, None] * to[:, None, None]
            info = pair.evaluate(free(mix).reshape(-1, pair.n_free)).info[:, k]
            fits = info.reshape(w.shape) <= budget
            return w[np.arange(len(w)), np.where(fits.any(axis=1), fits.argmax(axis=1), -1)]

        hi = first_fit(np.broadcast_to(_LADDER, (len(chan), len(_LADDER))))
        lo = _LADDER[np.maximum(np.searchsorted(_LADDER, hi) - 1, 0)]
        inside = np.arange(1, _RUNG_POINTS + 1) / _RUNG_POINTS
        w = first_fit(lo[:, None] + (hi - lo)[:, None] * inside)
        return (1 - w)[:, None, None] * chan + w[:, None, None] * to[:, None]

    mech = mixed(mech, mech_to, 0, leak, lambda m: pair.free(m, quant[:, None]))
    quant = mixed(quant, quant_to, 1, rate, lambda q: pair.free(mech[:, None], q))
    return pair.free(mech, quant)


def _tai_starts(p_x: np.ndarray, ku: int):
    """``_contract``'s arguments for the independence search's starts: the
    identity pair toward the product of its marginals, then per source
    symbol x a rare flag, x to Xh = 1 and every other symbol to 0, with
    U = Xh, toward all-to-0 channels."""
    kx = len(p_x)
    labels = np.eye(kx, dtype=int)[range(kx) if kx > 1 else []]  # flag x: x to 1, the rest to 0
    mech = np.concatenate([np.eye(kx)[None], np.eye(kx)[labels]])
    mech_to, quant_to = np.zeros((len(mech), kx)), np.zeros((len(mech), ku))
    mech_to[0], quant_to[0, :kx] = p_x, p_x
    mech_to[1:, 0] = quant_to[1:, 0] = 1.0
    return mech, np.tile(np.eye(kx, ku), (len(mech), 1, 1)), mech_to, quant_to


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


def _tai_result(p_xy: JointPmf, p: np.ndarray, rate: float, leak: float, mech: np.ndarray,
                quant: np.ndarray, info) -> ExponentResult:
    """The independence-testing result at the returned pair, whose
    (I(X;Xh), I(U;Xh), I(U;Y)) is ``info``, after a data-processing check.
    Theta is clamped to [0, min(R, L)], where data processing puts I(U;Y):
    past a budget it is round-off, as at a constant pair at a zero budget."""
    i_xxh, i_uxh, i_uy = info
    if not i_uy <= min(i_uxh, float(_mi_batch(p))) + 1e-8:
        raise InvariantViolation(
            f"data-processing violation at the returned point: I(U;Y)={i_uy!r}"
        )
    return ExponentResult(
        theta=min(max(i_uy, 0.0), rate, leak),
        bound_kind="exact",
        rate=rate,
        leak=leak,
        mechanism=Channel(mech, p_xy.alphabets[0]),
        quantizer=Channel(quant),
        rate_mi=i_uxh,
        leak_mi=i_xxh,
    )


def tai_exponent(p_xy: JointPmf, rate: float, leak: float) -> ExponentResult:
    """Optimal exponent against the product alternative (independence testing).

    Maximizes I(U;Y) subject to I(U;Xh) <= rate and I(X;Xh) <= leak, with
    |Xh| = |X| and |U| = |X| + 1. The ``_tai_starts``, contracted into the
    budgets, seed SLSQP polishes of both channels with exact gradients, one
    from each of the ``_START_DEPTHS``, in lockstep in one ``minimize``
    call. The best polished point is contracted into the budgets toward its
    own marginals and competes with the starts, so the pair returned meets
    both budgets exactly. No grid is built: ``grid_step`` is None.
    """
    check_budgets(rate, leak)
    p = _as_joint2(p_xy)
    kx = _source_size(p)
    pair = _ChannelPair(p, kx, kx + 1)
    mech, quant, mech_to, quant_to = _tai_starts(pair.p_x, pair.ku)
    starts = _contract(pair, mech, quant, rate, leak, mech_to, quant_to)
    pts = pair.evaluate(starts)
    eps = np.array(_START_DEPTHS)[:, None, None]
    deep = pair.free((1 - eps) * pts.mech[:, None] + eps / kx,
                     (1 - eps) * pts.quant[:, None] + eps / pair.ku)
    _, pts, values = _polish(pair, deep.reshape(-1, pair.n_free), rate, leak)
    top = [np.argmax(values)]  # its best point within FEAS_SLACK, contracted
    thetas = np.concatenate([starts, _contract(pair, pts.mech[top], pts.quant[top], rate, leak)])
    # round-off can leave a zero budget unmet even at a constant pair, which
    # then ends the contraction; such a pair wins only when every pair is one
    info = pair.evaluate(thetas).info
    fits = (info[:, 0] <= leak) & (info[:, 1] <= rate)
    best = thetas[np.argmax(np.where(fits | ~fits.any(), info[:, 2], -np.inf))]
    return _tai_result(p_xy, p, rate, leak, *pair.channels(best), pair.info(best))


def symmetric_tai_exponent(p_xy: JointPmf, rate: float, leak: float) -> ExponentResult:
    """Optimal exponent against independence over pairs of binary symmetric
    channels (binary X), from ``_symmetric_optimum``'s two root solves.

    Not a search: the result has ``grid_step`` None, and both budgets hold
    exactly at the returned pair.
    """
    check_budgets(rate, leak)
    p = _as_joint2(p_xy)
    mech, quant, info = _symmetric_optimum(p, rate, leak)
    return _tai_result(p_xy, p, rate, leak, mech, quant, info)


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
    (U,Xh), in natural logs), the reference chain R and the
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
# a projection takes 3-6 Newton steps, the last one after its residual is
# within tol; on a face, where the dual optimum is at infinity, the residual
# falls about e-fold a step (20 steps from the face's reference), and a
# member that has not halved it in 20 steps has plateaued, so the cap only
# bounds a projection that crawls
_INNER_SOLVER = {"tol": 1e-9, "max_iter": 200}
# a pair whose inner projection fails this way scores None
_INNER_FAILURES = (Infeasible, SupportMismatch)


class _InnerPair(_ChannelPair):
    """A channel pair scored by the Theorem-1 inner value, with its exact gradient.

    Every Theorem-1 projection goes through ``project_many``, one batched
    damped-Newton call for stacked pairs, whose failures come back as
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
    ftol = 1e-11  # the inner value is solved to residual 1e-9, then one more Newton step
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
        batched damped-Newton call, None for each pair whose projection fails."""
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


def theorem1_lower_bound(p_xy: JointPmf, q_xy: JointPmf, rate: float,
                         leak: float) -> ExponentResult:
    """Achievable exponent against a general alternative.

    Outer search over (mechanism, quantizer); the inner value is the
    I-projection of the reference chain onto the three coupling constraints.
    Grid pairs are shortlisted by their I(U;Y) before the inner solver runs,
    since the projection is the expensive step, and the shortlist is
    projected as one batch. The best shortlisted pair is polished by SLSQP
    with the mechanism held fixed, then over both channels.
    The search runs with |Xh| = |X| and |U| = |X| + 2, its grids on the
    finest lattices, up to eighths, within ``_THM1_BUDGETS``.
    """
    return _theorem1_search(p_xy, q_xy, rate, leak, pin_identity=False)


def _theorem1_search(p_xy, q_xy, rate, leak, pin_identity: bool) -> ExponentResult:
    """``theorem1_lower_bound``'s search, or with ``pin_identity`` its
    first pass alone over quantizers behind the identity mechanism."""
    check_budgets(rate, leak)
    p, _ = _as_joint_pair(p_xy, q_xy)
    kx = _source_size(p)
    u_size = kx + 2
    override = np.eye(kx)[None] if pin_identity else None
    space = _space_for(p, u_size, _THM1_BUDGETS, override)

    order = space.ranked(rate, leak)
    shortlist = order[:_INNER_SHORTLIST]
    if len(order) > _INNER_SHORTLIST:
        stride = max(1, len(order) // 16)
        shortlist = np.concatenate([shortlist, order[_INNER_SHORTLIST::stride][:16]])

    pair = _InnerPair(p, q_xy, kx, u_size)

    # shortlisted pairs are feasible grid points, so only the inner value
    # ranks them. Values within round-off of the best tie with it (pairs
    # that relabel U do), and the first of those in shortlist order is the
    # start, unless every value ties, as when no feasible grid pair is
    # informative: the shortlist then ranks nothing, and the start is the
    # identity pair contracted into the budgets.
    mechs, quants = space.pair(shortlist)
    values = np.array([-math.inf if res is None else res.min_kl
                       for res in pair.project_many(mechs, quants)])
    if values.max() == -math.inf:
        raise Infeasible("inner projection failed on every shortlisted pair")
    tied = values >= values.max() - _TIE
    best = int(np.argmax(tied))
    best_val, best_theta = values[best], pair.free(mechs[best], quants[best])
    if np.count_nonzero(tied) == np.count_nonzero(values > -math.inf):
        mech, quant, mech_to, quant_to = _tai_starts(pair.p_x, u_size)
        start = _contract(pair, mech[:1], quant[:1], rate, leak, mech_to[:1], quant_to[:1])
        value = pair.values(pair.evaluate(start))[0]
        if value > -1e3:  # its projection did not fail
            best_val, best_theta = value, start[0]

    # the quantizer alone first: a joint pass from the grid point can stop in
    # a worse basin
    for hold in (True,) if pin_identity else (True, False):
        (theta,), _, (value,) = _polish(pair, best_theta[None], rate, leak, hold)
        if value > best_val:
            best_val, best_theta = value, theta

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


def corollary2_bound(p_xy: JointPmf, q_xy: JointPmf, rate: float) -> ExponentResult:
    """General-alternative lower bound with the mechanism pinned to identity.

    Models an unconstrained privacy budget (at least H(X) bits), where
    disclosing the source verbatim is allowed and only the rate constraint
    binds. The reported result carries no leak budget.
    """
    kx = _as_joint2(p_xy).shape[0]
    res = _theorem1_search(p_xy, q_xy, rate, math.log2(kx) + 1.0, pin_identity=True)
    return replace(res, leak=None, leak_mi=None)
