"""In-memory spans around the package's public functions.

A probe replaces one module attribute, such as ``privexp.exponents.i_project``,
with a wrapper that records a span for every call: name, start, end, the
span that caused it and the workload item it belongs to. Functions are
probed where their callers look them up, so ``tai_exponent`` is probed both
in ``privexp.exponents`` (the benchmark's own calls) and in ``privexp.cli``
(the command line's calls). Nothing in the package is edited; ``traced``
puts every original back when it exits.

``layer_metrics`` turns the spans of a traced run into the per-layer
numbers. A layer's self time is its span's duration minus the part of that
interval its direct child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    sid: int
    parent: int | None
    phase: str
    item: str | None
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return dict(self.__dict__)


class Tracer:
    """Collects spans; ``phase`` and ``item`` tag every span opened under them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self.item: str | None = None
        self.seen: set = set()  # (law, search config) keys already solved once
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        span = Span(
            name=name,
            sid=len(self.spans),
            parent=self._stack[-1] if self._stack else None,
            phase=self.phase,
            item=self.item,
        )
        self.spans.append(span)
        self._stack.append(span.sid)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def call(self, name: str, fn: Callable, args, kwargs, describe: Callable | None):
        s = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:
            s.attrs["error"] = type(e).__name__
            raise
        finally:
            self._close(s)
        if describe is not None:
            s.attrs.update(describe(self, args, kwargs, result))
        return result

    def merge(self, dicts: list[dict]) -> None:
        """Append spans recorded by another process, renumbered after ours."""
        offset = len(self.spans)
        for d in dicts:
            s = Span(**d)
            s.sid += offset
            if s.parent is not None:
                s.parent += offset
            s.phase = self.phase
            s.item = self.item
            self.spans.append(s)


# ---------------------------------------------------------------------------
# probes


def _describe_tai(tracer, args, kwargs, result) -> dict:
    import numpy as np

    law = args[0] if args else kwargs["p_xy"]
    cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
    key = (np.asarray(law.probs).tobytes(), repr(cfg))
    cold = key not in tracer.seen
    tracer.seen.add(key)
    return {"cold": cold}


def _describe_minimize(tracer, args, kwargs, result) -> dict:
    return {"nfev": int(getattr(result, "nfev", 0)), "nit": int(getattr(result, "nit", 0))}


def _describe_projection(tracer, args, kwargs, result) -> dict:
    return {"sweeps": int(result.iterations)}


def _describe_simulation(tracer, args, kwargs, result) -> dict:
    return {"trials": int(result.trials), **{k: int(v) for k, v in result.counters.items()}}


@dataclass(frozen=True)
class Probe:
    module: str
    attr: str
    span: str
    describe: Callable | None = None


TAI = "exponents.tai_exponent"
THM1 = "exponents.theorem1_lower_bound"
COR2 = "exponents.corollary2_bound"
SLSQP = "exponents.slsqp"
IPROJ = "iproject.i_project"
CHAIN = "probcore.chain_joint"
LOAD = "probcore.load_json"
MEMLESS = "simkit.run_memoryless_scheme"
GENERAL = "simkit.run_general_scheme"
EUCLID = "euclid.euclid_tai_approx"
GAUSS = "gaussian"
MAIN = "cli.main"
IMPORT = "cli.import"

PROBES: tuple[Probe, ...] = (
    Probe("privexp.exponents", "tai_exponent", TAI, _describe_tai),
    Probe("privexp.cli", "tai_exponent", TAI, _describe_tai),
    Probe("privexp.exponents", "theorem1_lower_bound", THM1),
    Probe("privexp.cli", "theorem1_lower_bound", THM1),
    Probe("privexp.exponents", "corollary2_bound", COR2),
    Probe("privexp.cli", "corollary2_bound", COR2),
    # scipy's minimize as the exponent searches call it (their SLSQP polish)
    Probe("privexp.exponents", "minimize", SLSQP, _describe_minimize),
    Probe("privexp.exponents", "i_project", IPROJ, _describe_projection),
    Probe("privexp.cli", "i_project", IPROJ, _describe_projection),
    Probe("privexp.exponents", "chain_joint", CHAIN),
    Probe("privexp.cli", "load_json", LOAD),
    Probe("privexp.simkit", "run_memoryless_scheme", MEMLESS, _describe_simulation),
    Probe("privexp.cli", "run_memoryless_scheme", MEMLESS, _describe_simulation),
    Probe("privexp.simkit", "run_general_scheme", GENERAL, _describe_simulation),
    Probe("privexp.cli", "run_general_scheme", GENERAL, _describe_simulation),
    Probe("privexp.cli", "euclid_tai_approx", EUCLID),
    Probe("privexp.cli", "gaussian_tai_exponent", GAUSS),
    Probe("privexp.cli", "gaussian_achievable_at_beta", GAUSS),
    Probe("privexp.cli", "main", MAIN),
)


def _wrapper(tracer: Tracer, probe: Probe, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        return tracer.call(probe.span, fn, args, kwargs, probe.describe)

    return wrapped


@contextlib.contextmanager
def traced(tracer: Tracer, probes=PROBES):
    """Install every probe whose attribute exists; restore all on exit.

    Yields the probes that could not be installed, so a package that drops
    or renames a function loses that layer's numbers, not the benchmark.
    """
    saved: list[tuple[object, str, object]] = []
    missing: list[Probe] = []
    try:
        for probe in probes:
            module = importlib.import_module(probe.module)
            original = getattr(module, probe.attr, None)
            if original is None:
                missing.append(probe)
                continue
            saved.append((module, probe.attr, original))
            setattr(module, probe.attr, _wrapper(tracer, probe, original))
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# arithmetic


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - covered(children.get(s.sid, []), s.start, s.end)
        for s in spans
    }


def busy(spans: list[Span], name: str) -> float:
    """Wall time inside ``name``: outermost spans only, so recursion counts once."""
    by_id = {s.sid: s for s in spans}

    def nested(s: Span) -> bool:
        p = s.parent
        while p is not None and p in by_id:
            if by_id[p].name == name:
                return True
            p = by_id[p].parent
        return False

    return sum(s.duration for s in spans if s.name == name and not nested(s))


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def pass_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer numbers for the spans of one traced pass over the items."""
    own = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def self_sum(name):
        return sum(own[s.sid] for s in named(name))

    proj = named(IPROJ)
    proj_ok = [s for s in proj if "error" not in s.attrs]
    sweeps = sum(s.attrs["sweeps"] for s in proj_ok)
    slsqp = named(SLSQP)
    sims = named(MEMLESS) + named(GENERAL)
    trials = sum(s.attrs.get("trials", 0) for s in sims)

    def sim_frac(counter):
        return sum(s.attrs.get(counter, 0) for s in sims) / trials if trials else 0.0

    def us_per_trial(name):
        n = sum(s.attrs.get("trials", 0) for s in named(name))
        return busy(spans, name) / n * 1e6 if n else 0.0

    euclid_s = busy(spans, EUCLID)
    gauss_s = busy(spans, GAUSS)
    return {
        "cli.main.self_s": self_sum(MAIN),
        "exponents.tai_exponent.self_s": self_sum(TAI),
        "tai_cold_s": sum(s.duration for s in named(TAI) if s.attrs.get("cold")),
        "exponents.slsqp.calls": float(len(slsqp)),
        "exponents.slsqp.busy_s": busy(spans, SLSQP),
        "exponents.slsqp.nfev": float(sum(s.attrs.get("nfev", 0) for s in slsqp)),
        "exponents.slsqp.nit": float(sum(s.attrs.get("nit", 0) for s in slsqp)),
        "exponents.theorem1_lower_bound.self_s": self_sum(THM1),
        "exponents.corollary2_bound.busy_s": busy(spans, COR2),
        "iproject.i_project.calls": float(len(proj)),
        "iproject.i_project.busy_s": busy(spans, IPROJ),
        "iproject.i_project.sweeps": float(sweeps),
        "iproject.i_project.sweeps_per_call": sweeps / len(proj_ok) if proj_ok else 0.0,
        "iproject.i_project.failed_frac": (len(proj) - len(proj_ok)) / len(proj) if proj else 0.0,
        "probcore.chain_joint.busy_s": busy(spans, CHAIN),
        "probcore.load_json.busy_s": busy(spans, LOAD),
        "simkit.run_memoryless_scheme.us_per_trial": us_per_trial(MEMLESS),
        "simkit.run_general_scheme.us_per_trial": us_per_trial(GENERAL),
        "simkit.encoder_fail_frac": sim_frac("encoder_failures"),
        "simkit.receiver_reject_frac": sim_frac("receiver_rejects"),
        "simkit.observer_escape_frac": sim_frac("observer_escapes"),
        "euclid.euclid_tai_approx.busy_s": euclid_s,
        "euclid.euclid_tai_approx.share": euclid_s / wall_s,
        "gaussian.busy_s": gauss_s,
        "gaussian.share": gauss_s / wall_s,
    }


def layer_metrics(
    spans: list[Span], traced_walls: list[float], untraced_walls: list[float]
) -> dict[str, float]:
    """Per-layer numbers for a traced run.

    Sums are per pass over the workload's items, the median over traced
    passes. ``cold_s`` adds the cold ``tai_exponent`` calls made during
    set-up, where the in-process workloads build their grids. The tracing
    overhead is the median traced pass minus the median untraced pass.
    """
    setup = [s for s in spans if s.phase == "setup"]
    per_pass = [
        pass_metrics([s for s in spans if s.phase == f"pass{i}"], wall)
        for i, wall in enumerate(traced_walls)
    ]
    out = {k: _median([m[k] for m in per_pass]) for k in per_pass[0]}
    cold_pass = out.pop("tai_cold_s")
    out["exponents.tai_exponent.cold_s"] = cold_pass + sum(
        s.duration for s in setup if s.name == TAI and s.attrs.get("cold")
    )
    out["exponents.tai_exponent.warm_p50_s"] = _median(
        [s.duration for s in spans if s.name == TAI and s.phase != "setup"
         and not s.attrs.get("cold")]
    )
    out["cli.import_s"] = _median([s.duration for s in spans if s.name == IMPORT])
    out["trace.traced_wall_s"] = _median(traced_walls)
    out["trace.untraced_wall_s"] = _median(untraced_walls)
    out["trace.overhead_s"] = out["trace.traced_wall_s"] - out["trace.untraced_wall_s"]
    return out
