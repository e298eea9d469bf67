"""The four benchmark workloads: set-up, a fixed item list, and output checks.

Every workload runs as a closed loop: one process issues one item at a time
and waits for it. ``load`` imports what the items call, ``prepare`` builds
the inputs from the seed and warms every cache, and the returned items are
what a timed pass runs. Items call the package through module attributes
(``exponents.tai_exponent``, not a name bound at import), so the tracing
probes see the benchmark's own calls. No item passes ``threads=``; the
simulator runs on its default single thread.
"""

from __future__ import annotations

import contextlib
import json
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
from tracing import IMPORT, Tracer

DSBS_Q = 0.1
DSBS = [[0.45, 0.05], [0.05, 0.45]]
# the fixed 2x3 law of tai-sweep and the base of the seeded ones; each seed
# mixes in 1% of a Dirichlet(1) draw, so every seed gives another law while
# the mean exponent stays comparable
LAW_BASE = [[0.35, 0.10, 0.05], [0.05, 0.10, 0.35]]
LAW_MIX = 0.01


def random_law(seed: int, tag: str) -> list[list[float]]:
    """A 2x3 joint law near ``LAW_BASE``, fixed by (seed, tag)."""
    rng = random.Random(f"{tag}:{seed}")
    draw = [rng.gammavariate(1.0, 1.0) for _ in range(6)]
    total = sum(draw)
    flat = [(1 - LAW_MIX) * b + LAW_MIX * d / total
            for b, d in zip((v for r in LAW_BASE for v in r), draw)]
    return [flat[:3], flat[3:]]


@dataclass
class Outcome:
    theta: float | None = None  # exponent in bits, for exponent items
    problems: list[str] = field(default_factory=list)


@dataclass
class Item:
    name: str
    run: Callable[[Tracer | None], Outcome]


@dataclass
class Context:
    root: Path  # checkout root, holding src/
    work: Path  # scratch directory inside the checkout, removed at exit
    seed: int


class Workload:
    name = ""
    setup_repeats = 3

    def load(self, tracer: Tracer | None) -> None:
        """Import the package; the import is part of set-up."""
        with tracer.span(IMPORT) if tracer else contextlib.nullcontext():
            import privexp.cli  # noqa: F401
        import privexp.exponents  # noqa: F401
        import privexp.simkit  # noqa: F401

    def prepare(self, ctx: Context) -> list[Item]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# in-process exponent searches


class TaiSweep(Workload):
    """``tai_exponent`` on a subset of the criterion-1 (R, L) grid, grids prebuilt.

    Both laws are fixed, not seeded. The warm query's cost is chaotic in the
    law: across five 1% perturbations of ``LAW_BASE`` one point took from
    0.98 s to 1.9 s, which spread ``wall_s`` over runs by a third.
    """

    name = "tai-sweep"
    setup_repeats = 2  # one set-up builds two 5.3M-pair grids, about 9 s each
    POINTS = ((0.25, 0.5), (1.0, 0.25))
    WARM_UP = (0.5, 0.5)

    def prepare(self, ctx):
        from privexp import JointPmf, exponents
        import numpy as np

        laws = [("dsbs", DSBS, DSBS_Q), ("law2x3", LAW_BASE, None)]
        items = []
        for tag, joint, q in laws:
            pmf = JointPmf(np.array(joint), ("X", "Y"))
            exponents.tai_exponent(pmf, *self.WARM_UP)  # builds this law's grid
            for rate, leak in self.POINTS:
                items.append(Item(f"{tag}@R={rate},L={leak}",
                                  self._item(pmf, joint, rate, leak, q)))
        return items

    @staticmethod
    def _item(pmf, joint, rate, leak, q):
        def run(tracer):
            from privexp import exponents

            res = exponents.tai_exponent(pmf, rate, leak)
            return Outcome(res.theta, checks.check_tai(
                res.theta, res.rate_mi, res.leak_mi, joint, rate, leak, q))
        return run


class Thm1Alt(Workload):
    """Theorem 1 and Corollary 2 against a non-product alternative, fixed points."""

    name = "thm1-alt"
    P = [[0.4, 0.1], [0.1, 0.4]]
    Q = [[0.2, 0.3], [0.25, 0.25]]
    # R = L = 1 is left out for run length: one query takes 352 s, 1.87M sweeps
    THM1_POINTS = ((0.5, 0.5), (0.25, 0.25), (0.1, 0.1))
    COR2_RATES = (0.25, 0.5)

    def prepare(self, ctx):
        from privexp import JointPmf, exponents
        import numpy as np

        p = JointPmf(np.array(self.P), ("X", "Y"))
        q = JointPmf(np.array(self.Q), ("X", "Y"))
        # both searches cache a grid on first use; the cheapest queries build them
        exponents.theorem1_lower_bound(p, q, 0.1, 0.1)
        exponents.corollary2_bound(p, q, 0.5)
        items = [Item(f"thm1@R={r},L={l}", self._item(p, q, "thm1", (r, l)))
                 for r, l in self.THM1_POINTS]
        items += [Item(f"cor2@R={r}", self._item(p, q, "cor2", (r,)))
                  for r in self.COR2_RATES]
        return items

    def _item(self, p, q, method, budget):
        p_x = [sum(r) for r in self.P]

        def run(tracer):
            from privexp import exponents
            import numpy as np

            if method == "thm1":
                res = exponents.theorem1_lower_bound(p, q, *budget)
            else:
                res = exponents.corollary2_bound(p, q, *budget)
            witness_x = None
            if res.inner_witness is not None:
                w = res.inner_witness
                probs = np.moveaxis(np.asarray(w.probs), w.axes.index("X"), 0)
                witness_x = probs.reshape(probs.shape[0], -1).sum(axis=1).tolist()
            return Outcome(res.theta, checks.check_general_alternative(
                res.theta, self.P, self.Q, witness_x, p_x))
        return run


# ---------------------------------------------------------------------------
# in-process simulation


class SimSchemes(Workload):
    """Both simulators at the criterion-6 design point and a gated variant."""

    name = "sim-schemes"
    TRIALS = 6000
    MU = 0.35
    BLOCKLENGTHS = (8, 12, 16, 20, 24)
    Q = [[0.2, 0.3], [0.25, 0.25]]  # non-product alternative for the gated scheme
    GATED = {"n": 12, "mu": 0.35, "rate": 0.5, "bsc": 0.11002786443835955}

    def prepare(self, ctx):
        from privexp import Channel, JointPmf, SchemeConfig, simkit
        import numpy as np

        rng = random.Random(f"sim-schemes:{ctx.seed}")
        p = JointPmf(np.array(DSBS), ("X", "Y"))
        q = JointPmf(np.array(self.Q), ("X", "Y"))
        ident = Channel.identity(2)
        design = checks.dsbs_closed_form(DSBS_Q, 1.0, 1.0)

        def memoryless(n, hypothesis, trials):
            return SchemeConfig(n=n, mu=self.MU, rate=1.0, seed=rng.randrange(2**31),
                                trials=trials, hypothesis=hypothesis, mechanism=ident,
                                quantizer=ident, scheme_kind="memoryless")

        simkit.run_memoryless_scheme(memoryless(8, "alt", 200), p)  # warm-up
        items = [Item(f"memoryless-alt@n={n}",
                      self._item(memoryless(n, "alt", self.TRIALS), p, None,
                                 design_theta=design))
                 for n in self.BLOCKLENGTHS]
        items.append(Item("memoryless-null@n=24",
                          self._item(memoryless(24, "null", self.TRIALS), p, None,
                                     alpha_cap=0.1)))
        g = self.GATED
        gated = SchemeConfig(n=g["n"], mu=g["mu"], rate=g["rate"],
                             seed=rng.randrange(2**31), trials=self.TRIALS,
                             hypothesis="alt", mechanism=Channel.bsc(g["bsc"]),
                             quantizer=Channel.bsc(g["bsc"]), scheme_kind="general")
        items.append(Item(f"general-alt@n={g['n']}", self._item(gated, p, q)))
        return items

    @staticmethod
    def _item(cfg, p, q, design_theta=None, alpha_cap=None):
        def run(tracer):
            from privexp import simkit

            if q is None:
                rep = simkit.run_memoryless_scheme(cfg, p)
            else:
                rep = simkit.run_general_scheme(cfg, p, q)
            d = rep.to_dict()
            return Outcome(d["empirical_exponent"],
                           checks.check_simulation(d, design_theta, alpha_cap))
        return run


# ---------------------------------------------------------------------------
# fresh command-line processes


class CliOneShot(Workload):
    """Fresh ``python -m privexp.cli`` processes: selftest twice, one cold tai query."""

    name = "cli-oneshot"
    RATE, LEAK = 0.5, 0.5

    def load(self, tracer):
        pass  # every item is a fresh process that imports the package itself

    def prepare(self, ctx):
        law = random_law(ctx.seed, "cli-oneshot")
        path = ctx.work / "law.json"
        path.write_text(json.dumps({
            "kind": "joint", "axes": ["X", "Y"], "shape": [2, 3],
            "probs": [v for r in law for v in r],
        }))
        proc = self._cli(ctx, ["--version"], None)  # warm-up: loads the files once
        if proc.returncode != 0:
            raise RuntimeError(f"privexp --version failed: {proc.stderr}")
        selftest = ["selftest", "--seed", str(random.Random(f"cli:{ctx.seed}").randrange(2**31))]
        tai = ["exponent", "--method", "tai", "--null", str(path),
               "--rate", str(self.RATE), "--leak", str(self.LEAK)]
        first: dict = {}

        def run_selftest_a(tracer):
            proc = self._cli(ctx, selftest, tracer)
            first["stdout"] = proc.stdout
            return Outcome(None, checks.check_process(proc.returncode, proc.stderr))

        def run_selftest_b(tracer):
            proc = self._cli(ctx, selftest, tracer)
            return Outcome(None, checks.check_process(proc.returncode, proc.stderr)
                           + checks.check_identical(first.pop("stdout", b""), proc.stdout))

        def run_tai(tracer):
            proc = self._cli(ctx, tai, tracer)
            problems = checks.check_process(proc.returncode, proc.stderr)
            if problems:
                return Outcome(None, problems)
            payload = json.loads(proc.stdout)
            theta = payload["theta_bits"]
            return Outcome(theta, checks.check_tai(
                theta, payload["rate_mi_bits"], payload["leak_mi_bits"], law,
                self.RATE, self.LEAK))

        return [Item("selftest-a", run_selftest_a), Item("selftest-b", run_selftest_b),
                Item("exponent-tai", run_tai)]

    @staticmethod
    def _cli(ctx: Context, argv: list[str], tracer: Tracer | None):
        if tracer is None:
            cmd = [sys.executable, "-m", "privexp.cli", *argv]
        else:
            spans = ctx.work / "spans.json"
            cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
                   str(spans), *argv]
        proc = subprocess.run(cmd, cwd=ctx.root, capture_output=True, timeout=170)
        proc.stderr = proc.stderr.decode(errors="replace")
        if tracer is not None:
            tracer.merge(json.loads(spans.read_text()))
            spans.unlink()
        return proc


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (TaiSweep(), Thm1Alt(), SimSchemes(), CliOneShot())
}
