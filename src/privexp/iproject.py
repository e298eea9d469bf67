"""Information projection onto intersections of fixed-marginal families.

``i_project`` runs cyclic iterative scaling: each step rescales the current
tensor so one marginal matches its target exactly. For linear
(fixed-marginal) constraint families this is coordinate ascent on the
concave dual of the projection problem, so the dual objective is
nondecreasing step by step and converges to the primal minimum. Each call
plans every constraint once (axes to sum out, broadcast shape, positive
cells of the target), so a sweep costs one reduction, one ratio, one
in-place rescale and one dual increment per constraint. The dual value is
recorded every sweep and a decrease raises ``InvariantViolation``; the
primal value D(iterate || ref), which is not monotone in general, is
computed once, at convergence.

The scaling loop (``_scale``) runs on a batch: references and targets
carry a leading batch axis, and every member shares the reference axes
and the constraint axes. ``i_project`` is a batch of one, and
``_i_project_batch`` projects many problems in one call, which is how the
Theorem-1 search scores its shortlist. Every check holds per member:
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

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import xlogy

from .errors import (
    DimensionMismatch,
    DomainError,
    Infeasible,
    InvariantViolation,
    SupportMismatch,
    TooLarge,
    ToolkitError,
)
from .probcore import MASS_ATOL, JointPmf, _check_weights, _kl_bits

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
        t = np.asarray(self.target, dtype=float)
        object.__setattr__(self, "target", t)
        object.__setattr__(self, "axes", tuple(self.axes))
        if t.ndim != len(self.axes):
            raise DimensionMismatch(
                f"target rank {t.ndim} does not match {len(self.axes)} axes"
            )
        _check_weights(t.reshape(-1), f"constraint target {self.name or self.axes}")


@dataclass(frozen=True, eq=False)
class IProjectionResult:
    min_kl: float
    argmin: JointPmf
    iterations: int
    converged: bool
    residual: float = 0.0
    # dual ascent certificate, one value per sweep (nondecreasing)
    dual_trace: tuple = field(default_factory=tuple)
    # natural-log scaling factor of each constraint, in its target layout
    duals: tuple = field(default_factory=tuple)


def _constraint_views(names: tuple[str, ...], shape: tuple[int, ...], constraints) -> list[tuple]:
    """Resolve axis names and reorder targets to ascending axis order.

    ``constraints`` are (axes, targets) pairs whose targets carry a leading
    batch axis. Each view is (ascending axis ids, reordered targets, the
    permutation that restores one member's own layout)."""
    views = []
    for axes, targets in constraints:
        missing = [a for a in axes if a not in names]
        if missing:
            raise DimensionMismatch(f"no axis named {missing[0]!r} in {names}")
        ids = tuple(names.index(a) for a in axes)
        if len(set(ids)) != len(ids):
            raise DimensionMismatch(f"constraint repeats an axis: {axes}")
        order = sorted(range(len(ids)), key=lambda i: ids[i])
        sorted_ids = tuple(ids[i] for i in order)
        want = tuple(shape[i] for i in sorted_ids)
        if targets.shape[1:] != tuple(shape[i] for i in ids):
            raise DimensionMismatch(
                f"constraint on {axes}: target shape {targets.shape[1:]} "
                f"does not match reference axes {want}"
            )
        reordered = np.transpose(targets, (0, *(i + 1 for i in order)))
        views.append((sorted_ids, reordered, tuple(np.argsort(order))))
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
    shape = ref.shape[1:]
    keeps = [keep for keep, _, _ in views]
    drops = [tuple(i + 1 for i in range(len(shape)) if i not in keep) for keep in keeps]
    bshapes = [(-1, *(k if i in keep else 1 for i, k in enumerate(shape))) for keep in keeps]
    out: list = [None] * len(ref)
    for keep, drop, bshape, (_, targets, _) in zip(keeps, drops, bshapes, views):
        short = (targets.reshape(bshape) > 0) & (np.add.reduce(ref, axis=drop, keepdims=True) <= 0)
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

    # Members sit on the leading axis of C-contiguous arrays, so every
    # reduction sums each member's cells in the order of a lone C array and
    # a member gets the same bits in any batch. Targets, their positive
    # cells and the log2 scaling factors are kept in broadcast shape.
    sub = slice(None) if n == len(ref) else ids
    P = np.array(ref[sub], order="C")
    target = [np.ascontiguousarray(targets[sub]).reshape(bshape)
              for (_, targets, _), bshape in zip(views, bshapes)]
    trows = [_rows(t) for t in target]
    pos = [t > 0 for t in target]
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


def _project(names, alphabets, ref: np.ndarray, constraints, tol: float, max_iter: int) -> list:
    """Projections of a batch of references; a failed member is its error."""
    views = _constraint_views(names, ref.shape[1:], constraints)
    if not views:
        return [IProjectionResult(0.0, JointPmf(r, names, alphabets), 0, True, 0.0, (), ())
                for r in ref]
    out = _scale(ref, views, tol, max_iter)
    for i, member in enumerate(out):
        if isinstance(member, ToolkitError):
            continue
        P, log2_scales, sweeps, resid, trace = member
        total = P.sum()
        P = P / total  # guards float drift only; mass is 1 by construction
        out[i] = IProjectionResult(
            min_kl=_kl_bits(P.reshape(-1), ref[i].reshape(-1)),
            argmin=JointPmf(P, names, alphabets),
            iterations=sweeps,
            converged=True,
            residual=resid,
            dual_trace=tuple(trace.tolist()),
            duals=tuple(
                np.transpose(np.where(targets[i] > 0,
                                      lam.reshape(targets.shape[1:]) / _LOG2E, -np.inf), restore)
                for (_, targets, restore), lam in zip(views, log2_scales)
            ),
        )
    return out


def _check_solver(tol: float, max_iter: int) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol {tol!r} must be finite and positive")
    if not max_iter >= 1:
        raise DomainError(f"max_iter {max_iter!r} must be at least 1")


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
    _check_solver(tol, max_iter)
    ref = np.asarray(reference.probs, dtype=float)
    (res,) = _project(reference.axes, reference.alphabets, ref[None],
                      [(c.axes, c.target[None]) for c in constraints], tol, max_iter)
    if isinstance(res, ToolkitError):
        raise res
    return res


def _check_members(w: np.ndarray, what: str) -> None:
    """``_check_weights`` on every member of a batch (the leading axis)."""
    rows = _rows(w)
    with np.errstate(all="ignore"):
        ok = (np.isfinite(rows).all(axis=1) & (rows >= 0).all(axis=1)
              & (np.abs(rows.sum(axis=1) - 1.0) <= MASS_ATOL))
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
    _check_solver(tol, max_iter)
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
    for keep, targets, _ in views:
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
    if not (math.isfinite(grid_step) and grid_step > 0.0):
        raise DomainError(f"grid_step {grid_step!r} must be finite and positive")
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
