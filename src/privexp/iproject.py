"""Information projection onto intersections of fixed-marginal families.

``i_project`` runs damped Newton ascent on the concave dual of the
projection (Csiszar 1975),

    max_lam  sum_c <t_c, lam_c> - log sum R exp(sum_c lam_c),

with one dual per constraint cell, t_c the targets and R the reference.
The iterate is the distribution p = R exp(A'lam) / Z, where A' sums each
constraint's duals into the reference cells; the dual's gradient is the
targets less p's marginals, and its Hessian is A diag(p) A' less a rank-one
term. A step solves the Hessian system without that term (the solution
differs only in the direction that shifts every dual of one constraint,
which does not move p), scaled to a unit diagonal plus a ridge of 1e-12,
and a backtracking line search halves the step until the dual rises by a
share of its slope. Near the optimum the steps are full and converge
quadratically; where the optimum lies on a face of the simplex, and the
dual optimum is at infinity, the residual falls about e-fold a step. The
dual value after each step is recorded and a decrease raises
``InvariantViolation``; the primal value D(iterate || ref) is computed
once, at convergence.

Before the first step a call drops every cell with a zero reference or
under a zero target: those cells stay 0, a zero-target cell's dual is
``-inf``, and a positive target cell left with no cell is a
``SupportMismatch``. The constraints are redundant (every constraint fixes
the mass; two constraints may fix one marginal), so the Newton step moves
only a basis of the duals: in order, each dual whose live cells are
independent of those before it (``_basis``, cached per support pattern).
The others keep their start value. A member stops one step after its
residual, the largest total-variation gap between a constrained marginal
and its target, first falls within ``tol``, which puts the residual near
round-off. A member whose residual has not halved in ``PLATEAU_STEPS``
steps, or that reaches ``max_iter``, is ``Infeasible``.

Around the steps a call does little. The layout of a set of constraints
(axes to sum out, broadcast shapes, the transposes of the targets) is
planned once per (axis names, shape, constraint axes) and cached
(``_plan``), and so is the 0/1 matrix A of each layout (``_design``), so
the Theorem-1 polish, which projects on one layout at every iterate, plans
nothing. The references and targets of a batch are checked together, with
one minimum and one sum per member and array, and only a batch that fails
is checked array by array and member by member, for the message that
names the bad member. The witness ``argmin`` is built, and validated as a
``JointPmf``, only when a caller reads it.

The solver (``_solve``) runs on a batch: references and targets carry a
leading batch axis, and every member shares the reference axes and the
constraint axes. ``i_project`` is a batch of one, and ``_i_project_batch``
projects many problems in one call and returns a member's failure as a
value. The Theorem-1 search makes every projection through it: its
shortlist in one call and each polish iterate as a batch of one;
``zero_rate_exponent`` and ``privexp selftest`` call ``i_project``. Every
check holds per member: references and targets must be distributions
(``InvalidDistribution`` otherwise), and a member leaves the batch when it
converges, fails the support check, plateaus or reaches ``max_iter``; the
others step on, with stacked Hessian solves and a line search per member.
Its dual trace is checked when it leaves. A member takes the same steps
and gets the same bits as it would alone: its rows are reduced, multiplied
and solved as a lone member's are.

The duals are returned in natural logs, one array per constraint in its
target layout, with log Z taken into the first constraint's: the projection
is ``ref * exp(sum of the duals broadcast over the reference axes)``, and
``sum_c <t_c, duals_c>`` is the last dual value, in nats. A cell with zero
target has dual ``-inf``. Because the projection value is the dual optimum,
these are its derivatives with respect to the targets (the envelope
theorem), which the Theorem-1 search uses for its gradient.

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
# the stacked LAPACK solve under np.linalg.solve, without its wrapper's
# checks: a singular matrix gives NaN, which the line search refuses
from numpy.linalg._umath_linalg import solve1 as _lapack_solve

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

PLATEAU_STEPS = 20  # a member whose residual has not halved in this many steps fails
RIDGE = 1e-12  # added to the unit diagonal of the scaled Newton matrix
ARMIJO = 1e-4  # the share of the dual's slope a step must gain
DUAL_NOISE = 1e-14  # round-off of a dual value, which a step may lose
MAX_HALVINGS = 40  # line-search halvings before a member stays put for a step
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
    iterations: int  # Newton steps
    converged: bool
    residual: float = 0.0
    # dual ascent certificate, in bits, one value per Newton step
    # (nondecreasing); the projections build it, and the duals, when first read
    dual_trace: tuple = _BuiltOnRead(())
    # natural-log dual of each constraint, in its target layout
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


@dataclass(frozen=True, eq=False)
class _Design:
    """What every Newton step on one constraint layout shares.

    ``M`` is the 0/1 matrix that sums the cells of a reference (rows, in C
    order) into the cells of the constraints (columns, constraint after
    constraint, each in its ascending layout), and ``MT`` its transpose;
    ``starts`` holds the first column of each constraint and ``first`` the
    end of the first constraint's columns. ``eye`` is the identity of a
    Newton matrix's size and ``ridged`` is 1 with ``1 + RIDGE`` on the
    diagonal."""

    M: np.ndarray
    MT: np.ndarray
    starts: np.ndarray
    first: int
    eye: np.ndarray
    ridged: np.ndarray


@functools.lru_cache(maxsize=64)
def _design(shape: tuple[int, ...], keeps: tuple) -> _Design:
    """The ``_Design`` of the constraints on the ascending axis ids ``keeps``
    over a reference of cell ``shape``."""
    n = math.prod(shape)
    cells = np.indices(shape).reshape(len(shape), n)
    blocks, starts = [], [0]
    for keep in keeps:
        own = tuple(shape[i] for i in keep)
        block = np.zeros((n, math.prod(own)))
        block[np.arange(n), np.ravel_multi_index(tuple(cells[i] for i in keep), own)
              if keep else 0] = 1.0
        blocks.append(block)
        starts.append(starts[-1] + block.shape[1])
    M = np.hstack(blocks)
    m = M.shape[1]
    return _Design(M, np.ascontiguousarray(M.T), np.array(starts[:-1]), starts[1],
                   np.eye(m), 1.0 + RIDGE * np.eye(m))


@functools.lru_cache(maxsize=1024)
def _basis(shape: tuple[int, ...], keeps: tuple, live: bytes) -> np.ndarray:
    """The duals that the Newton step moves: the columns of ``_design``'s
    ``M``, restricted to the ``live`` cells (one byte per cell), that are
    independent of the columns before them. The others are redundant, since
    every constraint fixes the mass and two constraints may fix one
    marginal, or have no live cell; they stay where they are."""
    cols = _design(shape, keeps).M[np.frombuffer(live, dtype=bool)]
    kept = np.zeros(cols.shape[1], dtype=bool)
    basis = np.empty((cols.shape[0], 0))
    for j, col in enumerate(cols.T):
        size = np.linalg.norm(col)
        if not size:
            continue
        for _ in range(2):  # Gram-Schmidt, twice for round-off
            col = col - basis @ (basis.T @ col)
        rest = np.linalg.norm(col)
        if rest > 1e-8 * size:
            kept[j] = True
            basis = np.column_stack([basis, col / rest])
    return kept


def _check_dual(trace: np.ndarray) -> None:
    """Raise ``InvariantViolation`` at the first step whose dual value fell by more than 1e-8."""
    fell = np.flatnonzero(~(trace[1:] >= trace[:-1] - 1e-8))
    if fell.size:
        step = int(fell[0]) + 2
        raise InvariantViolation(
            f"dual certificate decreased at step {step}: "
            f"{trace[step - 2]} -> {trace[step - 1]}"
        )


def _support(R: np.ndarray, t: np.ndarray, design: _Design, keeps, out: list):
    """The live cells of each member, or None when every cell of every
    member is live: positive reference, and no zero target among the
    constraint cells they sum into. A member with a positive target cell
    that has no reference mass, or no live cell, gets its
    ``SupportMismatch`` in ``out``."""
    if np.count_nonzero(R) == R.size and np.count_nonzero(t) == t.size:
        return None
    live = (R > 0) & ((t <= 0).astype(float) @ design.MT == 0)
    for cells, why in ((R > 0, "requires mass outside the reference support"),
                       (live, "lost support to the zero targets of the others; constraints "
                              "are jointly unsatisfiable on this reference")):
        short = (t > 0) & (cells.astype(float) @ design.M == 0)
        for i in np.flatnonzero(short.any(axis=1)):
            col = np.flatnonzero(short[i])[0]
            keep = keeps[np.searchsorted(design.starts, col, side="right") - 1]
            out[i] = out[i] or SupportMismatch(f"constraint on axes {keep} {why}")
    return live


def _solve(ref: np.ndarray, views, tol: float, max_iter: int) -> list:
    """Damped Newton ascent on the dual of a batch of projections that share
    one constraint layout.

    ``ref`` and every view's targets carry a leading batch axis. Each member
    runs exactly the steps it would run alone and leaves the batch when it
    converges, plateaus or reaches ``max_iter``. Returns one entry per
    member: (projection, natural-log duals as one row over the columns of
    ``_design``'s ``M``, steps, residual, dual trace), or the
    SupportMismatch or Infeasible that ended it. A member whose dual value
    fell during its steps raises ``InvariantViolation`` when it leaves.
    """
    keeps = tuple(v[0] for v in views)
    shape = ref.shape[1:]
    design = _design(shape, keeps)
    M, first = design.M, design.first
    t = np.concatenate([_rows(np.ascontiguousarray(v[3])) for v in views], axis=1)
    R = np.ascontiguousarray(_rows(ref))
    out: list = [None] * len(ref)
    live = _support(R, t, design, keeps, out)
    ids = np.array([i for i, o in enumerate(out) if o is None], dtype=int)
    if not ids.size:
        return out
    if ids.size < len(ref):
        R, t, live = R[ids], t[ids], live[ids]
    if live is None:
        free = _basis(shape, keeps, b"\1" * R.shape[1])[None]
    else:
        masks = [_basis(shape, keeps, row.tobytes()) for row in live]
        # members that share their moving duals share one row
        free = masks[0][None] if all(m is masks[0] for m in masks) else np.stack(masks)
    # the Newton matrix is H * keep + fixed: the rows and columns of the
    # moving duals, their diagonal raised by the ridge, and 1 on the
    # diagonal of the others
    freef = free.astype(float)
    keep = freef[:, :, None] * freef[:, None, :] * design.ridged
    fixed = design.eye * (1.0 - freef)[:, None, :]

    # log 0 and an overflowing trial step are inf, which the line search refuses
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # the duals start at 0, less log Z on the first constraint, so that the
        # iterate p = R exp(A'lam) is a distribution; ``shift`` keeps log Z
        s = np.log(R) if live is None else np.where(live, np.log(R), -np.inf)
        e = np.exp(s)
        Z = np.add.reduce(e, axis=1)
        shift = np.log(Z)
        s -= shift[:, None]
        p = e / Z[:, None]
        dual0 = -shift
        lam = np.zeros(t.shape)
        n = ids.size
        width = min(int(max_iter), 16) + 1
        gains = np.empty((n, width))  # the dual's rise at each step
        hist = np.empty((n, width))  # twice the residual before each step
        armed = None
        steps = 0
        while True:
            H = design.MT @ (p[:, :, None] * M)
            a = H.diagonal(0, 1, 2)  # the constrained marginals
            g = t - a
            err = np.add.reduceat(np.abs(g), design.starts, axis=1).max(axis=1)
            within = err <= 2.0 * tol
            if steps == hist.shape[1]:
                gains, hist = (np.concatenate([x, np.empty_like(x)], axis=1) for x in (gains, hist))
            hist[:, steps] = err
            if steps:
                done = armed & within
                leave = done
                if steps >= PLATEAU_STEPS:  # the residual has not halved in that many steps
                    leave = leave | ~(err <= 0.5 * hist[:, steps - PLATEAU_STEPS])
                if steps >= max_iter:
                    leave = np.ones(n, dtype=bool)
                if np.count_nonzero(leave):
                    for k in np.flatnonzero(leave):
                        trace = (dual0[k] + np.cumsum(gains[k, :steps])) * _LOG2E
                        _check_dual(trace)
                        resid = 0.5 * err[k]
                        if done[k]:
                            duals = lam[k].copy()
                            duals[:first] -= shift[k]
                            out[ids[k]] = (p[k].reshape(shape), duals, steps, float(resid), trace)
                        elif steps >= max_iter:
                            out[ids[k]] = Infeasible(
                                f"not converged after {max_iter} steps: residual "
                                f"{resid:.3e}, tol={tol:.1e} and one more step")
                        else:
                            out[ids[k]] = Infeasible(
                                f"residual plateaued at {resid:.3e} > tol={tol:.1e} "
                                f"after {steps} steps")
                    stay = ~leave
                    if not np.count_nonzero(stay):
                        return out
                    ids, t, s, p, H, a, g, within, lam, shift, dual0, gains, hist = (
                        x[stay] for x in (ids, t, s, p, H, a, g, within, lam, shift, dual0, gains,
                                          hist))
                    if len(freef) > 1:
                        freef, keep, fixed = freef[stay], keep[stay], fixed[stay]
                    n = ids.size
            # a member takes one more step once its residual is within tol
            armed = within

            # the Newton step on the moving duals, scaled to a unit diagonal
            rs = 1.0 / np.sqrt(np.maximum(a, 1e-300))
            d = _lapack_solve(H * keep * rs[:, :, None] * rs[:, None, :] + fixed, g * rs * freef,
                              signature="dd->d") * rs
            w = np.matmul(M, d[..., None])[..., 0]  # the step summed into each cell
            td, gd = np.vecdot(t, d), np.vecdot(g, d)

            # a full step, unless the dual rises by less than a share of its slope
            s_new = s + w
            e = np.exp(s_new)
            Z = np.add.reduce(e, axis=1)
            logz = np.log(Z)
            gain = td - logz
            ok = gain >= ARMIJO * gd - DUAL_NOISE
            if np.count_nonzero(ok) < n:
                alpha, r = np.ones(n), np.flatnonzero(~ok)
                for _ in range(MAX_HALVINGS):
                    alpha[r] *= 0.5
                    s_new[r] = s[r] + alpha[r, None] * w[r]
                    e[r] = np.exp(s_new[r])
                    Z[r] = np.add.reduce(e[r], axis=1)
                    logz[r] = np.log(Z[r])
                    gain[r] = alpha[r] * td[r] - logz[r]
                    r = r[~(gain[r] >= ARMIJO * alpha[r] * gd[r] - DUAL_NOISE)]
                    if not r.size:
                        break
                # no step raises the dual: the member stays put
                alpha[r], s_new[r], e[r], Z[r], logz[r], gain[r] = 0.0, s[r], p[r], 1.0, 0.0, 0.0
                d = d * alpha[:, None]
            gains[:, steps] = gain
            s = s_new - logz[:, None]
            p = e / Z[:, None]
            lam += d
            shift += logz
            steps += 1


def _listed(trace: np.ndarray) -> tuple:
    return tuple(trace.tolist())


def _member_duals(views, i: int, lam: np.ndarray) -> tuple:
    """Member ``i``'s duals, one per constraint of ``views``, each in its
    target's own layout, ``-inf`` on zero-target cells."""
    duals, lo = [], 0
    for _, _, _, targets, restore in views:
        target = targets[i]
        dual = lam[lo:lo + target.size].reshape(target.shape)
        lo += target.size
        if np.count_nonzero(target) < target.size:
            dual = np.where(target > 0, dual, -np.inf)
        duals.append(np.transpose(dual, restore))
    return tuple(duals)


def _project(names, alphabets, ref: np.ndarray, constraints, tol: float, max_iter: int) -> list:
    """Projections of a batch of references; a failed member is its error.

    A result's ``argmin`` is built, and validated as a ``JointPmf``, when it
    is first read, and so are its ``dual_trace`` and ``duals``: a search that
    ranks projections reads only ``min_kl``."""
    views = _constraint_views(names, ref.shape[1:], constraints)
    if not views:
        return [IProjectionResult(0.0, functools.partial(JointPmf, r, names, alphabets),
                                  0, True, 0.0, (), ()) for r in ref]
    out = _solve(ref, views, tol, max_iter)
    for i, member in enumerate(out):
        if isinstance(member, ToolkitError):
            continue
        P, lam, steps, resid, trace = member
        P = P / P.sum()  # guards float drift only; the iterate is normalized
        out[i] = IProjectionResult(
            min_kl=_kl_bits(P.reshape(-1), ref[i].reshape(-1)),
            argmin=functools.partial(JointPmf, P, names, alphabets),
            iterations=steps,
            converged=True,
            residual=resid,
            dual_trace=functools.partial(_listed, trace),
            duals=functools.partial(_member_duals, views, i, lam),
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
    max_iter: int = 1_000,
) -> IProjectionResult:
    """Minimize D(P || reference) over all P matching the constraint marginals.

    Raises SupportMismatch when a constraint needs mass where the reference,
    less the cells under zero targets, has none, and Infeasible when the
    residual stops shrinking above ``tol`` (contradictory constraints, or an
    optimum on a face that Newton steps do not reach) or ``max_iter`` Newton
    steps pass.
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


def _all_fit(refs: np.ndarray, checked) -> bool:
    """Whether every (axes, targets) pair of ``checked`` stacks one target
    per reference and every member of ``refs`` and of the targets is a
    distribution, from one minimum and one sum per member and array."""
    arrays = [refs, *(targets for _, targets in checked)]
    if not all(t.ndim == len(axes) + 1 and len(t) == len(refs) and t[0].size
               for axes, t in checked):
        return False
    sizes = [a[0].size for a in arrays]
    rows = np.concatenate([_rows(a) for a in arrays], axis=1)
    with np.errstate(all="ignore"):
        return bool(rows.min() >= 0.0 and np.abs(
            np.add.reduceat(rows, np.cumsum([0, *sizes[:-1]]), axis=1) - 1.0).max() <= MASS_ATOL)


def _i_project_batch(
    refs: np.ndarray,
    names: tuple[str, ...],
    alphabets: tuple,
    constraints,
    tol: float = 1e-9,
    max_iter: int = 1_000,
) -> list:
    """``i_project`` of a batch of references that share axes and constraint axes.

    ``refs`` stacks the references on a leading axis, and ``constraints``
    are (axes, targets) pairs whose targets stack one target per member.
    Every member gets the same steps and the same bits as its own
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
    checked = [(tuple(axes), np.asarray(targets, dtype=float)) for axes, targets in constraints]
    if not _all_fit(refs, checked):  # find the first failure, in the order of the checks
        _check_members(refs, "reference")
        for axes, targets in checked:
            if targets.ndim != len(axes) + 1 or len(targets) != len(refs):
                raise DimensionMismatch(
                    f"constraint on {axes}: targets of shape {targets.shape} "
                    f"for {len(refs)} references"
                )
            _check_members(targets, f"constraint target {axes}")
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
