"""SLSQP from many starts in lockstep, on scipy's reverse-communication kernel.

``minimize`` runs the iterations ``scipy.optimize.minimize(method="SLSQP")``
would run from each start of a batch, one batch per channel pair. A start
that receives its gradients goes on to its next point in the same round,
so a round evaluates the pair once, for every start still running. It drives
``scipy.optimize._slsqplib.slsqp``, the C kernel that scipy's own SLSQP loop
calls since scipy 1.16, and copies that loop's set-up (``_minimize_slsqp``):
this module is the one place that depends on that kernel's calling
convention, as ``_kernels`` is the one that knows where scipy keeps it. The
exponent searches call it as ``exponents.minimize``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import slsqplib


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


def _rows(sel: list) -> slice | list:
    """The ascending members ``sel`` as a basic slice when they are
    consecutive, as a lone start always is, else ``sel`` itself."""
    return slice(sel[0], sel[-1] + 1) if sel[-1] - sel[0] == len(sel) - 1 else sel


def minimize(pair, starts: np.ndarray, rate: float, leak: float,
             hold_mechanism: bool = False) -> _Minimized:
    """SLSQP minimization of -``pair.values`` from each row of ``starts``, in lockstep.

    ``pair`` is an ``exponents._ChannelPair`` and ``starts`` (B, n_free)
    stacks full parameter vectors. Each member runs the iterations
    ``scipy.optimize.minimize(method="SLSQP")`` runs from its start, with
    the set-up of scipy's ``_minimize_slsqp``: the start clipped to the
    bounds, ``acc = pair.ftol``, 200 iterations at most, its buffer and
    index sizes, the free parameters bounded to [0, 1], and the constraints
    as the inequality rows -(I - upper) for the (leak, rate) budgets, then
    A x and -(A x - 1) for the row sums A of ``pair.row_sums``. A round
    calls scipy's reverse-communication kernel once per live member. The
    members that ask for gradients (SLSQP asks for them at the point it
    evaluated last) get them in one ``pair.jacobians`` of the last batch, or
    of the rows it holds for them, and the kernel is called again for each
    of them at once; then every live member has asked for its next point, and all of
    them are evaluated in one ``pair.evaluate`` of views of one array of full
    parameter vectors. A member gets the values and gradients it gets on its
    own, in the order it asks for them, so it ends on the same bits; only the
    number of batches falls. A member counts an objective evaluation only at
    a point unequal to its last one, as scipy's ``ScalarFunction`` does.
    ``hold_mechanism`` keeps the mechanism's parameters at those of each
    start; ``x`` holds the rest. An infinite budget is replaced by a finite
    one no channel pair on these alphabets can reach, so SLSQP never sees an
    infinite constraint value.

    The kernel is read from its compiled module once per call. ``_kernels``
    loads that module alone, so no command loads the ``scipy.optimize``
    package.
    """
    slsqp = slsqplib.slsqp
    skip = pair.mech_params if hold_mechanism else 0
    row_sums, both_sums = pair.row_sums(skip)
    count, n = starts.shape[0], starts.shape[1] - skip
    m = 2 + 2 * len(row_sums)
    upper = np.array([leak, rate], dtype=float)
    upper[np.isinf(upper)] = math.log2(max(pair.kh, pair.ku)) + 1.0

    thetas = starts.copy()  # row i is member i's full parameter vector
    x = thetas[:, skip:]  # and its free part, member i's iterate, moved by the kernel in place
    np.clip(x, 0.0, 1.0, out=x)
    xl, xu = np.zeros(n), np.ones(n)
    f = np.empty(count)
    g = np.empty((count, n))
    big_c = np.zeros((count, n, m)).swapaxes(1, 2)  # each member's (m, n) in Fortran order
    d = np.empty((count, m))
    big_c[:, 2:] = both_sums
    mult = np.zeros((count, m + 2 * n + 2))
    buffer = np.zeros((count, n * (n + 1) // 2 + 3 * m * n + 9 * m + 8 * n * n + 35 * n + 28))
    indices = np.zeros((count, m + 2 * n + 2), dtype=np.int32)
    states = [{"acc": pair.ftol, "alpha": 0.0, "f0": 0.0, "gs": 0.0, "h1": 0.0, "h2": 0.0,
               "h3": 0.0, "h4": 0.0, "t": 0.0, "t0": 0.0, "tol": 10.0 * pair.ftol, "exact": 0,
               "inconsistent": 0, "reset": 0, "iter": 0, "itermax": 200, "line": 0, "m": m,
               "meq": 0, "mode": 0, "n": n} for _ in range(count)]
    kernel_args = [(g[i], big_c[i], d[i], x[i], mult[i], xl, xu, buffer[i], indices[i])
                   for i in range(count)]

    def evaluated(sel: list):
        rows = _rows(sel)
        pts = pair.evaluate(thetas[rows])
        f[rows] = -pair.values(pts)
        d[rows, :2] = -(pts.info[:, :2] - upper)
        # a matrix-vector product per member, as np.dot(A, x) computes it
        ax = np.matmul(row_sums, x[rows, :, None])[..., 0]
        d[rows, 2:] = np.concatenate([ax, -(ax - 1.0)], axis=1)
        return pts

    def differentiated(pts, sel: list) -> None:
        rows = _rows(sel)
        g[rows] = -pair.gradients(pts)[:, skip:]
        big_c[rows, :2] = -pair.jacobians(pts)[:, :2, skip:]

    def stepped(sel: list) -> list:
        """Call the kernel once for each member of ``sel``; those that ask for gradients."""
        for i in sel:
            slsqp(states[i], f[i], *kernel_args[i])
        return [i for i in sel if states[i]["mode"] == -1]

    live = list(range(count))
    last = evaluated(live)
    differentiated(last, live)
    row_of = dict(zip(live, live))  # each member's row in ``last``
    seen = x.copy()  # each member's point at its last objective evaluation
    nfevs = np.ones(count, dtype=int)
    while live:
        # SLSQP asks for gradients only at the point it evaluated last; a
        # member that gets them is stepped again at once, so every live member
        # asks for its next point in the round's one evaluation
        asking = stepped(live)
        while asking:
            differentiated(last if len(asking) == len(last.info)
                           else last.take([row_of[i] for i in asking]), asking)
            asking = stepped(asking)
        live = [i for i in live if states[i]["mode"] == 1]
        if live:
            rows = _rows(live)
            nfevs[rows] += (x[rows] != seen[rows]).any(axis=1)
            seen[rows] = x[rows]
            last = evaluated(live)
            row_of = {i: k for k, i in enumerate(live)}
    return _Minimized(x, np.array([s["mode"] for s in states]),
                      np.array([s["iter"] for s in states]), nfevs)
