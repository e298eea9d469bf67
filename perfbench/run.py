"""Benchmark for privexp: four closed-loop workloads and a traced per-layer run.

    python3 perfbench/run.py --workload tai-sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
A run sets the workload up ``setup_repeats`` times (all but the last in
fresh processes), then repeats timed passes over the workload's fixed item
list until ``--seconds`` have passed. Every item's output is checked.
Around set-ups and after every item it times the fixed work of
``calibration.py``.

``--trace 0`` prints the end-to-end metrics. Their times are given at the
reference speed of ``calibration.py``: set-up times scaled by the speed
measured around the set-ups, pass and item times by the speed measured
between items. The raw seconds are printed above them. ``--trace 1`` sets up
once with the probes of ``tracing.py`` installed, then alternates untraced
and traced passes and prints the per-layer metrics in raw seconds, the
tracing overhead among them.
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
from calibration import Calibrator
from workloads import WORKLOADS, Context, Outcome, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END_UNITS = {
    "wall_s": "s",
    "item_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "theta_mean_bits": "bits",
}

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "exponents.tai_exponent.cold_s": "s",
    "exponents.tai_exponent.warm_p50_s": "s",
    "exponents.tai_exponent.self_s": "s",
    "exponents.slsqp.calls": "count",
    "exponents.slsqp.busy_s": "s",
    "exponents.slsqp.nfev": "count",
    "exponents.slsqp.nit": "count",
    "exponents.theorem1_lower_bound.self_s": "s",
    "exponents.corollary2_bound.busy_s": "s",
    "iproject.i_project.calls": "count",
    "iproject.i_project.busy_s": "s",
    "iproject.i_project.sweeps": "count",
    "iproject.i_project.sweeps_per_call": "count",
    "iproject.i_project.failed_frac": "ratio",
    "probcore.chain_joint.busy_s": "s",
    "probcore.load_json.busy_s": "s",
    "simkit.run_memoryless_scheme.us_per_trial": "us",
    "simkit.run_general_scheme.us_per_trial": "us",
    "simkit.encoder_fail_frac": "ratio",
    "simkit.receiver_reject_frac": "ratio",
    "simkit.observer_escape_frac": "ratio",
    "euclid.euclid_tai_approx.busy_s": "s",
    "euclid.euclid_tai_approx.share": "ratio",
    "gaussian.busy_s": "s",
    "gaussian.share": "ratio",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once, print {\"setup_s\": ...} and exit")
    return ap.parse_args(argv)


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _environment(threads_env: str | None) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "commit": _commit() or "unknown: not a git checkout",
        "PRIVEXP_THREADS": "unset" if threads_env is None
        else f"removed (was {threads_env!r})",
    }


def _peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _set_up(wl: Workload, ctx: Context, tracer: tracing.Tracer | None):
    start = time.perf_counter()
    wl.load(tracer)
    if tracer is None:
        items = wl.prepare(ctx)
    else:
        with tracing.traced(tracer):
            items = wl.prepare(ctx)
    return time.perf_counter() - start, items


def _set_up_elsewhere(wl: Workload, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", wl.name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def _run_pass(items, tracer: tracing.Tracer | None, calib: Calibrator):
    """Run each item once; a pass's wall time is the sum of its item times."""
    times: list[float] = []
    outcomes: list[Outcome] = []
    for item in items:
        if tracer is not None:
            tracer.item = item.name
        t = time.perf_counter()
        try:
            out = item.run(tracer)
        except Exception as e:  # an item that raises is a failed item, not a crash
            traceback.print_exc()
            out = Outcome(None, [f"{type(e).__name__}: {e}"])
        times.append(time.perf_counter() - t)
        outcomes.append(out)
        for problem in out.problems:
            print(f"check failed: {item.name}: {problem}", file=sys.stderr)
        calib.sample(3)
    return sum(times), times, outcomes


def _measure(wl, ctx, seconds: float, trace: bool):
    """Set up, then run passes until ``seconds`` pass (traced ones interleaved)."""
    tracer = tracing.Tracer() if trace else None
    # set-ups and passes are scaled by the speed measured around each
    setup_calib, pass_calib = Calibrator(), Calibrator()
    setup_calib.sample(5)
    setups = []
    for _ in range(0 if trace else wl.setup_repeats - 1):
        setups.append(_set_up_elsewhere(wl, ctx.seed))
        setup_calib.sample(5)
    setup_s, items = _set_up(wl, ctx, tracer)
    setups.append(setup_s)
    setup_calib.sample(5)
    pass_calib.sample(3)

    walls: list[float] = []
    traced_walls: list[float] = []
    times: list[float] = []
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    while True:
        if trace and len(walls) > len(traced_walls):
            tracer.phase = f"pass{len(traced_walls)}"
            with tracing.traced(tracer):
                wall, t, o = _run_pass(items, tracer, pass_calib)
            traced_walls.append(wall)
        else:
            wall, t, o = _run_pass(items, None, pass_calib)
            walls.append(wall)
        times += t
        outcomes += o
        done = time.perf_counter() - start >= seconds
        if done and (not trace or traced_walls):
            break
    return {
        "items": items, "setups": setups, "walls": walls, "traced_walls": traced_walls,
        "times": times, "outcomes": outcomes, "tracer": tracer,
        "setup_scale": setup_calib.scale(), "pass_scale": pass_calib.scale(),
        "calibrations": len(setup_calib.samples) + len(pass_calib.samples),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "privexp" / "__init__.py").is_file():
        print("perfbench: no package source under src/privexp in this checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    threads_env = os.environ.pop("PRIVEXP_THREADS", None)
    os.environ["PYTHONPATH"] = str(src)
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True

    wl = WORKLOADS[args.workload]
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        ctx = Context(root=ROOT, work=work, seed=args.seed)
        if args.setup_only:
            setup_s, _ = _set_up(wl, ctx, None)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        run = _measure(wl, ctx, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = run["outcomes"]
    failed = sum(1 for o in outcomes if o.problems)
    thetas = [o.theta for o in outcomes if o.theta is not None]
    n_items = len(run["items"])
    print(f"perfbench {wl.name}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
          "closed loop, one process issuing one item at a time")
    print("env " + json.dumps(_environment(threads_env), sort_keys=True))
    print(f"items per pass {n_items}; untraced passes {len(run['walls'])}; "
          f"traced passes {len(run['traced_walls'])}; set-ups {len(run['setups'])}")
    print("raw timings s " + json.dumps({k: [round(v, 4) for v in run[k]]
                                           for k in ("setups", "walls", "traced_walls")}))
    print(f"reference-speed scale: set-ups {run['setup_scale']:.4f}, passes "
          f"{run['pass_scale']:.4f}, from {run['calibrations']} calibrations")
    print(f"attempted {len(outcomes)}; failed {failed}")

    if args.trace:
        values = tracing.layer_metrics(run["tracer"].spans, run["traced_walls"], run["walls"])
        metrics = {k: _metric(values[k], u) for k, u in PER_LAYER_UNITS.items()}
    else:
        values = {
            "wall_s": statistics.median(run["walls"]) * run["pass_scale"],
            "item_p50_s": statistics.median(run["times"]) * run["pass_scale"],
            "setup_s": statistics.median(run["setups"]) * run["setup_scale"],
            "peak_rss_mb": _peak_rss_mb(),
            "theta_mean_bits": statistics.fmean(thetas) if thetas else 0.0,
        }
        metrics = {k: _metric(values[k], u) for k, u in END_TO_END_UNITS.items()}
        print(f"  (times at the reference speed; wall_s: median of {len(run['walls'])} passes "
              f"of {n_items} items; item_p50_s: median of {len(run['times'])} items; setup_s: "
              f"median of {len(run['setups'])} set-ups; theta_mean_bits: mean of "
              f"{len(thetas)} exponents)")
    # failed_frac is printed, not a result metric: a bounded metric may not read 0
    for name, m in {**metrics, "failed_frac": _metric(failed / len(outcomes), "ratio")}.items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
