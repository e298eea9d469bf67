"""Information projection onto intersections of fixed-marginal families.

``i_project`` runs cyclic iterative scaling: each step rescales the current
tensor so one marginal matches its target exactly. For linear
(fixed-marginal) constraint families this is coordinate ascent on the
concave dual of the projection problem, so the dual objective is
nondecreasing step by step and converges to the primal minimum. A sweep
costs one reduction, one ratio, one in-place rescale and one dual increment
per constraint. The dual value is recorded every sweep and a decrease
raises ``InvariantViolation``; the primal value D(iterate || ref), which is
not monotone in general, is computed once, at convergence.

Around the sweeps a call does little. The layout of a set of constraints
(axes to sum out, broadcast shapes, the transposes of the targets) is
planned once per (axis names, shape, constraint axes) and cached
(``_plan``), so the Theorem-1 polish, which projects on one layout at every
iterate, plans nothing. The references and targets of a batch are checked
with one sum and one minimum per array, and only a batch that fails is
checked member by member, for the message that names the bad member. The
primal value and the duals skip their zero-cell masks when every cell is
positive, with the same sums in the same order. The witness ``argmin`` is
built, and validated as a ``JointPmf``, only when a caller reads it.

The scaling loop (``_scale``) runs on a batch: references and targets
carry a leading batch axis, and every member shares the reference axes
and the constraint axes. ``i_project`` is a batch of one, and
``_i_project_batch`` projects many problems in one call and returns a
member's failure as a value. The Theorem-1 search makes every projection
through it: its shortlist in one call and each polish iterate as a batch of
one; ``zero_rate_exponent`` calls ``i_project``. Every check holds per member:
references and targets must be distributions (``InvalidDistribution``
otherwise), and a member leaves the batch when it converges, fails the
support check before the first sweep, loses support during scaling,
plateaus or reaches ``max_iter``; the others sweep on. Its dual trace is
checked when it leaves, so a decrease in any sweep it completed raises
``InvariantViolation``. A member takes the same sweeps and gets the same
bits as it would alone, since each member's cells are reduced in the order
of a lone C-contiguous array. A sweep's dual increment is a dot product
over all of a constraint's cells, zero-target cells included, and the
next sweep starts from the first constraint's marginal that the residual
check has just summed.

The dual variables are the accumulated natural-log scaling factors, one
array per constraint in its target layout: the projection is
``ref * exp(sum of the duals broadcast over the reference axes)``, and
``sum_c <t_c, duals_c>`` is ``min_kl`` in nats. A cell with zero target has
dual ``-inf``. Because the projection value is the dual optimum, these are
its derivatives with respect to the targets (the envelope theorem), which
the Theorem-1 search uses for its gradient.

``brute_force_i_project`` is the independent oracle: it parameterizes the
feasible polytope explicitly (particular solution plus null-space basis) and
takes an exhaustive grid minimum. It refuses problems with more than three
free dimensions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass

import numpy as np

from ._kernels import xlogy
from .errors import (
    DimensionMismatch,
    Infeasible,
    InvariantViolation,
    SupportMismatch,
    TooLarge,
    ToolkitError,
)
from .probcore import (MASS_ATOL, JointPmf, _check_weights, _count, _floats, _kl_bits, _law,
                       _number)

__all__ = [
    "MarginalConstraint",
    "IProjectionResult",
    "i_project",
    "brute_force_i_project",
]

_LOG2E = math.log2(math.e)

PLATEAU_SWEEPS = 100
ORACLE_MAX_FREE_DIM = 3


@dataclass(frozen=True, eq=False)
class MarginalConstraint:
    """Fixes the marginal over ``axes`` (names in the reference) to ``target``."""

    axes: tuple[str, ...]
    target: np.ndarray
    name: str = ""

    def __post_init__(self):
        t = _floats(self.target, "constraint target")
        object.__setattr__(self, "target", t)
        object.__setattr__(self, "axes", tuple(self.axes))
        if t.ndim != len(self.axes):
            raise DimensionMismatch(
                f"target rank {t.ndim} does not match {len(self.axes)} axes"
            )
        _check_weights(t.reshape(-1), f"constraint target {self.name or self.axes}")


class _BuiltOnRead:
    """A dataclass field that may be given a zero-argument builder in place
    of its value: the first read calls the builder and keeps what it returns.
    Without ``default`` the field is required."""

    def __init__(self, default=MISSING):
        self.default = default

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:  # the dataclass asks the class for the field's default
            if self.default is MISSING:
                raise AttributeError(self.slot)
            return self.default
        value = obj.__dict__[self.slot]
        if callable(value):
            value = obj.__dict__[self.slot] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.slot] = value


@dataclass(frozen=True, eq=False)
class IProjectionResult:
    min_kl: float
    # a JointPmf; the projections build theirs when it is first read
    argmin: JointPmf = _BuiltOnRead()
    iterations: int
    converged: bool
    residual: float = 0.0
    # dual ascent certificate, one value per sweep (nondecreasing); the
    # projections build it, and the duals, when first read
    dual_trace: tuple = _BuiltOnRead(())
    # natural-log scaling factor of each constraint, in its target layout
    duals: tuple = _BuiltOnRead(())


@functools.lru_cache(maxsize=64)
def _plan(names: tuple[str, ...], shape: tuple[int, ...], layout: tuple) -> tuple:
    """The layout of constraints on the axes in ``layout`` (one tuple of names
    per constraint) over a reference with axis ``names`` and cell ``shape``.

    One entry per constraint: (ascending axis ids, its targets' cell shape,
    the transpose that reorders a batch of targets to ascending axis order,
    the permutation that restores one member's own layout, the axes to sum
    out of a batch of references and the broadcast shape of a target).
    Every projection on one layout shares it, so a polish iterate plans
    nothing."""
    plans = []
    for axes in layout:
        missing = [a for a in axes if a not in names]
        if missing:
            raise DimensionMismatch(f"no axis named {missing[0]!r} in {names}")
        ids = tuple(names.index(a) for a in axes)
        if len(set(ids)) != len(ids):
            raise DimensionMismatch(f"constraint repeats an axis: {axes}")
        order = sorted(range(len(ids)), key=lambda i: ids[i])
        keep = tuple(ids[i] for i in order)
        plans.append((
            keep,
            tuple(shape[i] for i in ids),
            (0, *(i + 1 for i in order)),
            tuple(sorted(range(len(order)), key=order.__getitem__)),
            tuple(i + 1 for i in range(len(shape)) if i not in keep),
            (-1, *(k if i in keep else 1 for i, k in enumerate(shape))),
        ))
    return tuple(plans)


def _constraint_views(names: tuple[str, ...], shape: tuple[int, ...], constraints) -> list[tuple]:
    """Resolve axis names and reorder targets to ascending axis order.

    ``constraints`` are (axes, targets) pairs whose targets carry a leading
    batch axis. Each view is (ascending axis ids, axes to sum out, broadcast
    shape, reordered targets, the permutation that restores one member's own
    layout); all but the targets come from ``_plan``."""
    plans = _plan(names, shape, tuple(axes for axes, _ in constraints))
    views = []
    for (axes, targets), (keep, own, order, restore, drop, bshape) in zip(constraints, plans):
        if targets.shape[1:] != own:
            raise DimensionMismatch(
                f"constraint on {axes}: target shape {targets.shape[1:]} "
                f"does not match reference axes {tuple(shape[i] for i in keep)}"
            )
        views.append((keep, drop, bshape, np.transpose(targets, order), restore))
    return views


def _rows(a: np.ndarray) -> np.ndarray:
    """One row per batch member."""
    return a.reshape(len(a), -1)


def _check_dual(trace: np.ndarray) -> None:
    """Raise ``InvariantViolation`` at the first sweep whose dual value fell by more than 1e-8."""
    fell = np.flatnonzero(~(trace[1:] >= trace[:-1] - 1e-8))
    if fell.size:
        sweep = int(fell[0]) + 2
        raise InvariantViolation(
            f"dual certificate decreased at sweep {sweep}: "
            f"{trace[sweep - 2]} -> {trace[sweep - 1]}"
        )


def _scale(ref: np.ndarray, views, tol: float, max_iter: int) -> list:
    """Cyclic iterative scaling of a batch of references under one constraint layout.

    ``ref`` and every view's targets carry a leading batch axis. Each member
    runs exactly the sweeps it would run alone and leaves the batch when it
    converges, loses support, plateaus or reaches ``max_iter``. Returns one
    entry per member: (projection, log2 scaling factor per constraint in
    its broadcast shape, sweeps, residual, dual trace), or the
    SupportMismatch or Infeasible that ended it. A member whose dual value
    fell during the sweeps it completed raises ``InvariantViolation`` when
    it leaves.
    """
    keeps, drops = [v[0] for v in views], [v[1] for v in views]
    # Members sit on the leading axis of C-contiguous arrays, so every
    # reduction sums each member's cells in the order of a lone C array and
    # a member gets the same bits in any batch. Targets, their positive
    # cells and the log2 scaling factors are kept in broadcast shape.
    target = [np.ascontiguousarray(targets).reshape(bshape) for _, _, bshape, targets, _ in views]
    pos = [t > 0 for t in target]
    out: list = [None] * len(ref)
    for keep, drop, p in zip(keeps, drops, pos):
        short = p & (np.add.reduce(ref, axis=drop, keepdims=True) <= 0)
        # np.count_nonzero is much cheaper than .all() or .any() on tiny arrays
        if np.count_nonzero(short):
            for i in np.flatnonzero(_rows(short).any(axis=1)):
                out[i] = out[i] or SupportMismatch(
                    f"constraint on axes {keep} requires mass outside the reference support"
                )
    ids = np.array([i for i, o in enumerate(out) if o is None], dtype=int)
    n = ids.size
    if not n:
        return out
    if n == len(ref):
        P = np.array(ref, order="C")
    else:
        P = np.array(ref[ids], order="C")
        target = [t[ids] for t in target]
        pos = [p[ids] for p in pos]
    trows = [_rows(t) for t in target]
    # 1 where a target is zero, where the ratio is 0: log2(ratio + fill)
    # makes the step 0 there without a warning
    fills = [None if np.count_nonzero(p) == p.size else np.where(p, 0.0, 1.0) for p in pos]
    log2_scales = [np.zeros(t.shape) for t in target]
    dual = np.zeros(n)
    trace = np.empty((n, min(int(max_iter), 64)))
    best = np.full(n, math.inf)
    last = np.zeros(n, dtype=int)  # sweep of the last residual improvement

    first = None  # the first constraint's marginal, kept from the residual check
    for sweep in range(1, int(max_iter) + 1):
        lost = None
        for keep, drop, t, trow, p, fill, lam in zip(
            keeps, drops, target, trows, pos, fills, log2_scales
        ):
            if first is None:
                cur = np.add.reduce(P, axis=drop, keepdims=True)
            else:
                cur, first = first, None
            if np.count_nonzero(cur) == cur.size:
                ratio = t / cur
            else:
                empty = p & (cur <= 0)
                if np.count_nonzero(empty):
                    gone = _rows(empty).any(axis=1)
                    lost = gone if lost is None else lost | gone
                    for i in ids[gone]:
                        out[i] = out[i] or SupportMismatch(
                            f"constraint on axes {keep} lost support during scaling; "
                            "constraints are jointly unsatisfiable on this reference"
                        )
                ratio = np.where(cur > 0, t / np.where(cur > 0, cur, 1.0), 0.0)
                if lost is not None:
                    ratio[lost] = 1.0  # a member that lost support stays put
            P *= ratio
            step = np.log2(ratio if fill is None else ratio + fill)
            dual += np.vecdot(trow, step.reshape(n, -1))
            lam += step

        resid = None
        for drop, t in zip(drops, target):
            marginal = np.add.reduce(P, axis=drop, keepdims=True)
            r = np.add.reduce(np.abs(marginal - t).reshape(n, -1), axis=1)
            if resid is None:
                resid, first = r, marginal
            else:
                resid = np.maximum(resid, r)
        resid *= 0.5
        if sweep > trace.shape[1]:
            trace = np.concatenate([trace, np.empty_like(trace)], axis=1)
        trace[:, sweep - 1] = dual

        done = resid <= tol
        better = resid < best - 1e-14
        if np.count_nonzero(better) == n:
            best = resid
            last.fill(sweep)
            leave = done
        else:
            np.copyto(best, resid, where=better)
            last[better] = sweep
            leave = done | (sweep - last >= PLATEAU_SWEEPS)
        if lost is not None:
            leave = leave | lost
        if not np.count_nonzero(leave):
            continue
        for k in np.flatnonzero(leave):
            i = ids[k]
            if out[i] is not None:  # lost support during this sweep
                _check_dual(trace[k, :sweep - 1])
                continue
            _check_dual(trace[k, :sweep])
            if done[k]:
                out[i] = (P[k], [lam[k] for lam in log2_scales], sweep, float(resid[k]),
                          trace[k, :sweep])
            else:
                out[i] = Infeasible(
                    f"residual plateaued at {resid[k]:.3e} > tol={tol:.1e} "
                    f"after {sweep} sweeps"
                )
        stay = ~leave
        if not np.count_nonzero(stay):
            return out
        ids, P, first, dual, trace, best, last = (
            a[stay] for a in (ids, P, first, dual, trace, best, last)
        )
        target = [t[stay] for t in target]
        trows = [_rows(t) for t in target]
        pos = [p[stay] for p in pos]
        fills = [None if f is None else f[stay] for f in fills]
        log2_scales = [lam[stay] for lam in log2_scales]
        n = ids.size

    for k, i in enumerate(ids):
        _check_dual(trace[k, :sweep])
        out[i] = Infeasible(f"residual {best[k]:.3e} still above tol after {max_iter} sweeps")
    return out


def _duals(targets: np.ndarray, lam: np.ndarray, restore: tuple) -> np.ndarray:
    """One member's natural-log scaling factors in its target's own layout,
    ``-inf`` on zero-target cells."""
    dual = lam.reshape(targets.shape) / _LOG2E
    if np.count_nonzero(targets) < targets.size:
        dual = np.where(targets > 0, dual, -np.inf)
    return np.transpose(dual, restore)


def _listed(trace: np.ndarray) -> tuple:
    return tuple(trace.tolist())


def _member_duals(views, i: int, log2_scales) -> tuple:
    """Member ``i``'s duals, one per constraint of ``views``."""
    return tuple(_duals(targets[i], lam, restore)
                 for (_, _, _, targets, restore), lam in zip(views, log2_scales))


def _project(names, alphabets, ref: np.ndarray, constraints, tol: float, max_iter: int) -> list:
    """Projections of a batch of references; a failed member is its error.

    A result's ``argmin`` is built, and validated as a ``JointPmf``, when it
    is first read, and so are its ``dual_trace`` and ``duals``: a search that
    ranks projections reads only ``min_kl``."""
    views = _constraint_views(names, ref.shape[1:], constraints)
    if not views:
        return [IProjectionResult(0.0, functools.partial(JointPmf, r, names, alphabets),
                                  0, True, 0.0, (), ()) for r in ref]
    out = _scale(ref, views, tol, max_iter)
    for i, member in enumerate(out):
        if isinstance(member, ToolkitError):
            continue
        P, log2_scales, sweeps, resid, trace = member
        total = P.sum()
        P = P / total  # guards float drift only; mass is 1 by construction
        out[i] = IProjectionResult(
            min_kl=_kl_bits(P.reshape(-1), ref[i].reshape(-1)),
            argmin=functools.partial(JointPmf, P, names, alphabets),
            iterations=sweeps,
            converged=True,
            residual=resid,
            dual_trace=functools.partial(_listed, trace),
            duals=functools.partial(_member_duals, views, i, log2_scales),
        )
    return out


def _checked(reference, constraints) -> list:
    """``constraints`` as a list, refusing a reference that is not a
    ``JointPmf`` and a constraint that is not a ``MarginalConstraint``."""
    _law(reference, JointPmf, "reference")
    try:
        constraints = list(constraints)
    except TypeError:  # not iterable
        raise DimensionMismatch(f"constraints must be a collection, got "
                                f"{type(constraints).__name__}") from None
    return [_law(c, MarginalConstraint, "constraint") for c in constraints]


def i_project(
    reference: JointPmf,
    constraints,
    tol: float = 1e-9,
    max_iter: int = 100_000,
) -> IProjectionResult:
    """Minimize D(P || reference) over all P matching the constraint marginals.

    Raises SupportMismatch when a constraint needs mass where the reference
    marginal has none, and Infeasible when residuals stop shrinking above
    ``tol`` (contradictory constraints) or ``max_iter`` sweeps pass.
    """
    _number(tol, "tol", 0, math.inf, lo_open=True, hi_open=True)
    _count(max_iter, "max_iter", 1)
    constraints = _checked(reference, constraints)
    ref = np.asarray(reference.probs, dtype=float)
    (res,) = _project(reference.axes, reference.alphabets, ref[None],
                      [(c.axes, c.target[None]) for c in constraints], tol, max_iter)
    if isinstance(res, ToolkitError):
        raise res
    return res


def _check_members(w: np.ndarray, what: str) -> None:
    """``_check_weights`` on every member of a batch (the leading axis).

    One sum and one minimum per member decide: a NaN or a negative entry
    fails the minimum, an infinite one the sum. Only a batch that fails runs
    ``_check_weights``, member by member, for the message that names the bad
    one."""
    rows = _rows(w)
    with np.errstate(all="ignore"):
        ok = ((np.minimum.reduce(rows, axis=1, initial=0.0) >= 0.0)
              & (np.abs(np.add.reduce(rows, axis=1) - 1.0) <= MASS_ATOL))
    if np.count_nonzero(ok) == ok.size:
        return
    for b in np.flatnonzero(~ok):
        _check_weights(rows[b], f"{what}, batch member {b}")


def _i_project_batch(
    refs: np.ndarray,
    names: tuple[str, ...],
    alphabets: tuple,
    constraints,
    tol: float = 1e-9,
    max_iter: int = 100_000,
) -> list:
    """``i_project`` of a batch of references that share axes and constraint axes.

    ``refs`` stacks the references on a leading axis, and ``constraints``
    are (axes, targets) pairs whose targets stack one target per member.
    Every member gets the same sweeps and the same bits as its own
    ``i_project`` call. Returns one entry per member: its
    ``IProjectionResult``, or the ``SupportMismatch`` or ``Infeasible``
    that ended it (returned, not raised). A member that is not a
    distribution raises ``InvalidDistribution``.
    """
    _number(tol, "tol", 0, math.inf, lo_open=True, hi_open=True)
    _count(max_iter, "max_iter", 1)
    refs = np.asarray(refs, dtype=float)
    if refs.ndim < 3:
        raise DimensionMismatch(f"a batch of references needs >= 3 axes, got {refs.shape}")
    _check_members(refs, "reference")
    checked = []
    for axes, targets in constraints:
        targets = np.asarray(targets, dtype=float)
        if targets.ndim != len(axes) + 1 or len(targets) != len(refs):
            raise DimensionMismatch(
                f"constraint on {tuple(axes)}: targets of shape {targets.shape} "
                f"for {len(refs)} references"
            )
        _check_members(targets, f"constraint target {tuple(axes)}")
        checked.append((tuple(axes), targets))
    return _project(tuple(names), tuple(alphabets), refs, checked, tol, max_iter)


# ---------------------------------------------------------------------------
# exhaustive oracle


def _constraint_system(reference: JointPmf, views) -> tuple[np.ndarray, np.ndarray]:
    """Linear system A p = b over flattened tensors (includes total mass)."""
    shape = reference.shape
    ncells = int(np.prod(shape))
    rows = [np.ones(ncells)]
    rhs = [1.0]
    for keep, _, _, targets, _ in views:
        target = targets[0]
        grid = np.indices(shape).reshape(len(shape), ncells)
        for cell in np.ndindex(target.shape):
            sel = np.ones(ncells, dtype=bool)
            for axis, value in zip(keep, cell):
                sel &= grid[axis] == value
            rows.append(sel.astype(float))
            rhs.append(float(target[cell]))
    return np.vstack(rows), np.asarray(rhs)


def brute_force_i_project(
    reference: JointPmf,
    constraints,
    grid_step: float = 1e-3,
) -> IProjectionResult:
    """Exhaustive grid minimum of D(P || reference) over the feasible polytope.

    The polytope is written as ``x0 + N t`` with ``N`` an orthonormal
    null-space basis, so ``grid_step`` is a Euclidean step in probability
    space. Free dimension above ORACLE_MAX_FREE_DIM raises TooLarge.
    """
    _number(grid_step, "grid_step", 0, math.inf, lo_open=True, hi_open=True)
    constraints = _checked(reference, constraints)
    from scipy.linalg import null_space
    from scipy.optimize import linprog

    ref = np.asarray(reference.probs, dtype=float).reshape(-1)
    views = _constraint_views(reference.axes, reference.shape,
                              [(c.axes, c.target[None]) for c in constraints])
    A, b = _constraint_system(reference, views)

    feas = linprog(
        c=np.zeros(A.shape[1]), A_eq=A, b_eq=b, bounds=(0.0, 1.0), method="highs"
    )
    if not feas.success:
        raise Infeasible("constraint polytope is empty")
    x0 = np.clip(feas.x, 0.0, None)

    N = null_space(A)
    d = N.shape[1]
    if d > ORACLE_MAX_FREE_DIM:
        raise TooLarge(f"free dimension {d} exceeds oracle limit {ORACLE_MAX_FREE_DIM}")

    if d == 0:
        cand = x0[None, :]
    else:
        spans = []
        for i in range(d):
            lo = linprog(
                c=np.eye(d)[i], A_ub=-N, b_ub=x0, bounds=(None, None), method="highs"
            )
            hi = linprog(
                c=-np.eye(d)[i], A_ub=-N, b_ub=x0, bounds=(None, None), method="highs"
            )
            if not (lo.success and hi.success):
                raise Infeasible("could not bound the feasible polytope")
            spans.append((float(lo.x[i]) - grid_step, float(hi.x[i]) + grid_step))
        axes_pts = [
            np.arange(lo, hi + grid_step / 2, grid_step) for lo, hi in spans
        ]
        mesh = np.meshgrid(*axes_pts, indexing="ij")
        T = np.stack([m.reshape(-1) for m in mesh], axis=1)
        cand = x0[None, :] + T @ N.T

    ok = np.all(cand >= -1e-12, axis=1)
    cand = np.clip(cand[ok], 0.0, None)
    if cand.shape[0] == 0:
        raise Infeasible("no grid point fell inside the polytope; shrink grid_step")

    support = ref > 0
    values = np.full(cand.shape[0], np.inf)
    leak = cand[:, ~support].sum(axis=1) if (~support).any() else np.zeros(cand.shape[0])
    inside = leak <= 1e-12
    block = cand[inside][:, support]
    with np.errstate(divide="ignore", invalid="ignore"):
        contrib = xlogy(block, block / ref[support]).sum(axis=1) * _LOG2E
    values[inside] = contrib

    best = int(np.argmin(values))  # first occurrence: lexicographic tie-break
    total = cand[best].sum()
    argmin = (cand[best] / total).reshape(reference.shape)
    return IProjectionResult(
        min_kl=float(values[best]),
        argmin=JointPmf(argmin, reference.axes, reference.alphabets),
        iterations=int(cand.shape[0]),
        converged=True,
        residual=0.0,
    )
