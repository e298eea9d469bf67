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
from scipy.linalg import null_space
from scipy.optimize import linprog
from scipy.special import xlogy

from .errors import (
    DimensionMismatch,
    DomainError,
    Infeasible,
    InvariantViolation,
    SupportMismatch,
    TooLarge,
)
from .probcore import JointPmf, _check_weights, _kl_bits

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


def _constraint_views(reference: JointPmf, constraints) -> list[tuple]:
    """Resolve axis names and reorder targets to ascending axis order.

    Each view is (ascending axis ids, reordered target, the permutation that
    restores the constraint's own layout)."""
    views = []
    for c in constraints:
        ids = tuple(reference.axis_index(a) for a in c.axes)
        if len(set(ids)) != len(ids):
            raise DimensionMismatch(f"constraint repeats an axis: {c.axes}")
        order = sorted(range(len(ids)), key=lambda i: ids[i])
        target = np.transpose(np.asarray(c.target, dtype=float), axes=order)
        sorted_ids = tuple(ids[i] for i in order)
        shape = tuple(reference.shape[i] for i in sorted_ids)
        if target.shape != shape:
            raise DimensionMismatch(
                f"constraint on {c.axes}: target shape {c.target.shape} "
                f"does not match reference axes {shape}"
            )
        views.append((sorted_ids, target, tuple(np.argsort(order))))
    return views


def _plan(shape: tuple[int, ...], views) -> list[tuple]:
    """Per constraint: kept axes, axes to sum out, broadcast shape, target,
    its positive cells and their values."""
    plan = []
    for keep, target, _ in views:
        drop = tuple(i for i in range(len(shape)) if i not in keep)
        bshape = tuple(k if i in keep else 1 for i, k in enumerate(shape))
        pos = target > 0
        plan.append((keep, drop, bshape, target, pos, target[pos]))
    return plan


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
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol {tol!r} must be finite and positive")
    if not max_iter >= 1:
        raise DomainError(f"max_iter {max_iter!r} must be at least 1")
    ref = np.asarray(reference.probs, dtype=float)
    views = _constraint_views(reference, constraints)
    if not views:
        return IProjectionResult(0.0, reference, 0, True, 0.0, (), ())
    plan = _plan(ref.shape, views)

    for keep, drop, _, _, pos, _ in plan:
        if np.any(pos & (np.add.reduce(ref, axis=drop) <= 0)):
            raise SupportMismatch(
                f"constraint on axes {keep} requires mass outside the reference support"
            )

    P = ref.copy()
    log2_scales = [np.zeros(target.shape) for _, _, _, target, _, _ in plan]
    dual = 0.0
    dual_trace: list[float] = []
    best_resid = math.inf
    stall = 0

    for sweep in range(1, int(max_iter) + 1):
        for (keep, drop, bshape, target, pos, target_pos), lam in zip(plan, log2_scales):
            cur = np.add.reduce(P, axis=drop)
            if cur.all():
                ratio = target / cur
            else:
                if np.any(pos & (cur <= 0)):
                    raise SupportMismatch(
                        f"constraint on axes {keep} lost support during scaling; "
                        "constraints are jointly unsatisfiable on this reference"
                    )
                ratio = np.where(cur > 0, target / np.where(cur > 0, cur, 1.0), 0.0)
            P *= ratio.reshape(bshape)
            step = np.log2(ratio[pos])
            dual += float((target_pos * step).sum())
            lam[pos] += step

        resid = max(
            0.5 * np.abs(np.add.reduce(P, axis=drop) - target).sum()
            for _, drop, _, target, _, _ in plan
        )
        if dual_trace and not dual >= dual_trace[-1] - 1e-8:
            raise InvariantViolation(
                f"dual certificate decreased at sweep {sweep}: "
                f"{dual_trace[-1]} -> {dual}"
            )
        dual_trace.append(dual)

        if resid <= tol:
            total = P.sum()
            P = P / total  # guards float drift only; mass is 1 by construction
            return IProjectionResult(
                min_kl=_kl_bits(P.reshape(-1), ref.reshape(-1)),
                argmin=JointPmf(P, reference.axes, reference.alphabets),
                iterations=sweep,
                converged=True,
                residual=float(resid),
                dual_trace=tuple(dual_trace),
                duals=tuple(
                    np.transpose(np.where(pos, lam / _LOG2E, -np.inf), restore)
                    for (_, _, restore), (_, _, _, _, pos, _), lam
                    in zip(views, plan, log2_scales)
                ),
            )

        if resid < best_resid - 1e-14:
            best_resid = resid
            stall = 0
        else:
            stall += 1
            if stall >= PLATEAU_SWEEPS:
                raise Infeasible(
                    f"residual plateaued at {resid:.3e} > tol={tol:.1e} "
                    f"after {sweep} sweeps"
                )

    raise Infeasible(f"residual {best_resid:.3e} still above tol after {max_iter} sweeps")


# ---------------------------------------------------------------------------
# exhaustive oracle


def _constraint_system(reference: JointPmf, views) -> tuple[np.ndarray, np.ndarray]:
    """Linear system A p = b over flattened tensors (includes total mass)."""
    shape = reference.shape
    ncells = int(np.prod(shape))
    rows = [np.ones(ncells)]
    rhs = [1.0]
    for keep, target, _ in views:
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
    ref = np.asarray(reference.probs, dtype=float).reshape(-1)
    views = _constraint_views(reference, constraints)
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
