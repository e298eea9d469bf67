"""SLSQP from many starts in lockstep, on scipy's reverse-communication kernel.

``minimize`` runs the iterations ``scipy.optimize.minimize(method="SLSQP")``
would run from each start of a batch, one batch per channel pair, and
evaluates the pair once per round for every start that asks. It drives
``scipy.optimize._slsqplib.slsqp``, the C kernel that scipy's own SLSQP loop
calls since scipy 1.16, and copies that loop's set-up (``_minimize_slsqp``):
this module is the one place that depends on scipy's private SLSQP
interface. The exponent searches call it as ``exponents.minimize``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class _Minimized:
    """Per-member outcome of one ``minimize`` call: the final free parameters
    ``x`` (B, n), SLSQP's exit ``status``, its iterations ``nits`` and its
    objective evaluations ``nfevs``; ``nit`` and ``nfev`` sum them."""

    x: np.ndarray
    status: np.ndarray
    nits: np.ndarray
    nfevs: np.ndarray

    @property
    def nit(self) -> int:
        return int(self.nits.sum())

    @property
    def nfev(self) -> int:
        return int(self.nfevs.sum())


def minimize(pair, starts: np.ndarray, rate: float, leak: float,
             hold_mechanism: bool = False) -> _Minimized:
    """SLSQP minimization of -``pair.values`` from each row of ``starts``, in lockstep.

    ``pair`` is an ``exponents._ChannelPair`` and ``starts`` (B, n_free)
    stacks full parameter vectors. Each member runs the iterations
    ``scipy.optimize.minimize(method="SLSQP")`` runs from its start, with
    the set-up of scipy's ``_minimize_slsqp``: the start clipped to the
    bounds, ``acc = pair.ftol``, 200 iterations at most, its buffer and
    index sizes, and the constraints as the inequality rows -(I - upper)
    for the (leak, rate) budgets, then A x and -(A x - 1) for the row sums A
    of ``pair.feasible_set``. A round calls scipy's
    reverse-communication kernel once per live member, then evaluates every
    member that asked for its objective and constraints in one
    ``pair.evaluate`` and every member that asked for gradients in one
    ``pair.jacobians``. A member counts an objective evaluation only at a
    point unequal to its last one, as scipy's ``ScalarFunction`` does.
    ``hold_mechanism`` keeps the mechanism's parameters at those of each
    start; ``x`` holds the rest. An infinite budget is replaced by a finite
    one no channel pair on these alphabets can reach, so SLSQP never sees an
    infinite constraint value.

    The kernel is imported on the first call, so that commands without a
    search never load ``scipy.optimize``.
    """
    from scipy.optimize._slsqplib import slsqp

    skip = pair.mech_params if hold_mechanism else 0
    hi, row_sums = pair.feasible_set(skip)
    count, n = starts.shape[0], starts.shape[1] - skip
    m = 2 if row_sums is None else 2 + 2 * len(row_sums[0])
    upper = np.array([leak, rate], dtype=float)
    upper[np.isinf(upper)] = math.log2(max(pair.kh, pair.ku)) + 1.0

    x = np.clip(starts[:, skip:], 0.0, hi)  # row i is member i's iterate
    xl, xu = np.zeros(n), np.full(n, hi)
    f = np.empty(count)
    g = np.empty((count, n))
    big_c = np.zeros((count, n, m)).swapaxes(1, 2)  # each member's (m, n) in Fortran order
    d = np.empty((count, m))
    if row_sums is not None:
        big_c[:, 2:] = row_sums[1]
    mult = np.zeros((count, m + 2 * n + 2))
    buffer = np.zeros((count, n * (n + 1) // 2 + 3 * m * n + 9 * m + 8 * n * n + 35 * n + 28))
    indices = np.zeros((count, m + 2 * n + 2), dtype=np.int32)
    states = [{"acc": pair.ftol, "alpha": 0.0, "f0": 0.0, "gs": 0.0, "h1": 0.0, "h2": 0.0,
               "h3": 0.0, "h4": 0.0, "t": 0.0, "t0": 0.0, "tol": 10.0 * pair.ftol, "exact": 0,
               "inconsistent": 0, "reset": 0, "iter": 0, "itermax": 200, "line": 0, "m": m,
               "meq": 0, "mode": 0, "n": n} for _ in range(count)]

    def evaluated(sel: list):
        thetas = starts[sel]
        thetas[:, skip:] = x[sel]
        pts = pair.evaluate(thetas)
        f[sel] = -pair.values(pts)
        d[sel, :2] = -(pts.info[:, :2] - upper)
        if row_sums is not None:
            ax = np.array([np.dot(row_sums[0], x[i]) for i in sel])
            d[sel, 2:] = np.concatenate([ax, -(ax - 1.0)], axis=1)
        return pts

    def differentiated(pts, sel: list) -> None:
        g[sel] = -pair.gradients(pts)[:, skip:]
        big_c[sel, :2] = -pair.jacobians(pts)[:, :2, skip:]

    live = list(range(count))
    last = evaluated(live)
    differentiated(last, live)
    row_of = dict(zip(live, live))  # each member's row in ``last``
    seen = x.copy()  # each member's point at its last objective evaluation
    nfevs = np.ones(count, dtype=int)
    kernel_args = [(g[i], big_c[i], d[i], x[i], mult[i], xl, xu, buffer[i], indices[i])
                   for i in range(count)]
    while live:
        to_differentiate, to_evaluate = [], []
        for i in live:
            slsqp(states[i], f[i], *kernel_args[i])
            if states[i]["mode"] == -1:
                to_differentiate.append(i)
            elif states[i]["mode"] == 1:
                to_evaluate.append(i)
        # SLSQP asks for gradients only at the point it asked to evaluate last round
        if to_differentiate:
            rows_asked = [row_of[i] for i in to_differentiate]
            differentiated(last if len(rows_asked) == len(last.info) else last.take(rows_asked),
                           to_differentiate)
        if to_evaluate:
            nfevs[to_evaluate] += (x[to_evaluate] != seen[to_evaluate]).any(axis=1)
            seen[to_evaluate] = x[to_evaluate]
            last = evaluated(to_evaluate)
            row_of = {i: k for k, i in enumerate(to_evaluate)}
        live = [i for i in live if abs(states[i]["mode"]) == 1]
    return _Minimized(x, np.array([s["mode"] for s in states]),
                      np.array([s["iter"] for s in states]), nfevs)
