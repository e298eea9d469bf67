"""Command-line front end.

Subcommands map one-to-one onto the library surface: ``exponent`` for single
queries, ``sweep`` and ``approx`` and ``gaussian`` for CSV curves, ``simulate``
for Monte Carlo runs, ``selftest`` for a deterministic end-to-end battery.
Each command returns its result, a dict for JSON or a CSV header and rows,
and ``main`` alone writes it: to stdout, or to ``--out`` with a sibling
``<name>.manifest.json`` (none for ``selftest``) recording the resolved
configuration, toolkit version, seed, and wall-clock duration, so a run can be
reproduced from its artifacts alone. Exit codes: 0 success, 2 configuration
problems, 3 solver infeasibility, 4 size-cap refusals.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import json
import math
import sys
import time
from dataclasses import fields
from typing import Callable, NamedTuple

from . import __version__
from .errors import DomainError, Infeasible, TooLarge, ToolkitError

CONFIG_EXIT = 2
INFEASIBLE_EXIT = 3
SIZE_EXIT = 4

# the library names the commands call, by module. None is imported here:
# ``__getattr__`` binds a name on first access and ``main`` binds those of the
# command it runs, so that ``--version``, ``--help`` and a usage error load no
# numpy, and ``exponent`` loads neither the simulator nor the approximations
_LIBRARY = {
    "numpy": ("np",),
    "privexp.probcore": ("Channel", "JointPmf", "_json_of", "_read_json", "from_dict",
                         "load_json"),
    "privexp.iproject": ("MarginalConstraint", "i_project"),
    "privexp.exponents": ("binary_tai_exponent", "corollary2_bound", "symmetric_tai_exponent",
                          "tai_exponent", "theorem1_lower_bound", "zero_rate_exponent"),
    "privexp.euclid": ("binary_euclid_approx", "euclid_tai_approx"),
    "privexp.gaussian": ("GaussianQuery", "gaussian_achievable_at_beta", "gaussian_tai_exponent"),
    "privexp.simkit": ("SchemeConfig", "run_general_scheme", "run_memoryless_scheme"),
}
_MODULE_OF = {name: module for module, names in _LIBRARY.items() for name in names}
# the modules whose names each command calls
_COMMAND_MODULES = {
    "exponent": ("privexp.probcore", "privexp.exponents"),
    "sweep": ("privexp.probcore", "privexp.exponents"),
    "approx": ("privexp.exponents", "privexp.euclid"),
    "gaussian": ("privexp.gaussian",),
    "simulate": ("privexp.probcore", "privexp.simkit"),
    "selftest": tuple(_LIBRARY),
}
# the most points a range spec may hold
MAX_RANGE_POINTS = 10**6


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(_MODULE_OF[name])
    value = module if name == "np" else getattr(module, name)
    globals()[name] = value
    return value


def _parse_values(spec: str) -> list[float]:
    """Accept '0:1:0.02' ranges (inclusive), '{a,b,c}' sets, or single numbers.

    ``inf`` is a valid set member but not a range bound; a range runs upward.
    """
    spec = spec.strip().strip("{}")
    try:
        values = [float(p) for p in spec.split(":" if ":" in spec else ",")]
    except ValueError:
        raise DomainError(f"values {spec!r} are not numbers") from None
    if ":" in spec:
        if len(values) != 3:
            raise DomainError(f"range {spec!r} must be start:stop:step")
        start, stop, step = values
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise DomainError(f"range {spec!r} needs a finite start, stop and step")
        if step <= 0:
            raise DomainError(f"range {spec!r} needs a positive step")
        if stop < start:
            raise DomainError(f"range {spec!r} has its stop below its start")
        span = (stop - start) / step
        if not math.isfinite(span):
            raise DomainError(f"range {spec!r} has too many points")
        count = int(math.floor(span + 1e-9)) + 1
        if count > MAX_RANGE_POINTS:
            raise TooLarge(f"range {spec!r} has {count:.7g} points, more than {MAX_RANGE_POINTS}")
        return [round(start + k * step, 12) for k in range(count)]
    return values


def _load_joint(path: str) -> JointPmf:
    obj = load_json(path)
    if not isinstance(obj, JointPmf):
        raise DomainError(f"{path} does not hold a joint law")
    return obj


def _write(result: dict | tuple[list[str], list[tuple]], fh) -> None:
    """A command's result to ``fh``: a dict as JSON, or a (header, rows) pair
    as CSV with the rows sorted on every column but the last."""
    if isinstance(result, dict):
        fh.write(json.dumps(result, indent=2, sort_keys=True) + "\n")
        return
    header, rows = result
    writer = csv.writer(fh)
    writer.writerow(header)
    for row in sorted(rows, key=lambda r: r[: len(header) - 1]):
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _emit_manifest(args: argparse.Namespace, started: float) -> None:
    resolved = {
        k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None
    }
    manifest = {
        "command": args.command,
        "config": resolved,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "outputs": [args.out],
        "duration_s": round(time.monotonic() - started, 3),
    }
    with open(args.out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands


class _Method(NamedTuple):
    """An exponent method: the flags it needs and its call, which gets the
    needed values in order (laws loaded)."""

    needs: tuple[str, ...]
    call: Callable  # a lambda, so that it finds the module's names at call time


_METHODS = {
    "thm1": _Method(("--null", "--alt", "--rate", "--leak"),
                    lambda *a: theorem1_lower_bound(*a)),
    "tai": _Method(("--null", "--rate", "--leak"), lambda *a: tai_exponent(*a)),
    "bsc": _Method(("--null", "--rate", "--leak"), lambda *a: symmetric_tai_exponent(*a)),
    "zero-rate": _Method(("--null", "--alt"), lambda *a: zero_rate_exponent(*a)),
    "binary": _Method(("--q", "--rate", "--leak"), lambda *a: binary_tai_exponent(*a)),
    "cor2": _Method(("--null", "--alt", "--rate"), lambda *a: corollary2_bound(*a)),
}
# the methods whose needs the sweep subcommand's flags cover
_SWEEP_METHODS = [m for m, e in _METHODS.items()
                  if set(e.needs) <= {"--q", "--null", "--rate", "--leak"}]


def _flag_value(args, flag: str):
    """The flag's value, or None when it is not given (``--q 0`` is given)."""
    return getattr(args, flag[2:].replace("-", "_"), None)


def _method_inputs(args) -> tuple[_Method, dict]:
    """The method's entry and its call's arguments keyed by flag, in order.

    A flag the entry does not take is refused, and then a needed flag that
    is missing; laws are loaded last.
    """
    method = _METHODS[args.method]
    for flag in ("--q", "--null", "--alt", "--rate", "--leak"):
        if _flag_value(args, flag) is not None and flag not in method.needs:
            raise DomainError(f"{flag} does not apply to method {args.method!r}")
    values = {flag: _flag_value(args, flag) for flag in method.needs}
    for flag, value in values.items():
        if value is None:
            raise DomainError(f"{flag} is required for method {args.method!r}")
    for flag in ("--null", "--alt"):
        if flag in values:
            values[flag] = _load_joint(values[flag])
    return method, values


def _cmd_exponent(args) -> dict:
    method, values = _method_inputs(args)
    res = method.call(*values.values())
    body = {"theta_bits": res} if isinstance(res, float) else res.to_dict()
    return {"method": args.method, **body}


def _cmd_sweep(args) -> tuple[list[str], list[tuple]]:
    method, values = _method_inputs(args)
    leaks = _parse_values(args.leak)
    rows = []
    for r in _parse_values(args.rate):
        for l in leaks:
            res = method.call(*{**values, "--rate": r, "--leak": l}.values())
            rows.append((r, l, res if isinstance(res, float) else res.theta))
    return ["rate", "leak", "theta_bits"], rows


def _cmd_approx(args) -> tuple[list[str], list[tuple]]:
    points = _parse_values(args.grid)
    rows = []
    for r in points:
        exact = binary_tai_exponent(args.q, r, r)
        approx = binary_euclid_approx(args.q, r, r)
        rel = abs(approx - exact) / exact if exact > 0 else 0.0
        rows.append((r, r, exact, approx, rel))
    return ["rate", "leak", "theta_bits", "theta_approx_bits", "rel_err"], rows


def _cmd_gaussian(args) -> tuple[list[str], list[tuple]]:
    rows = []
    for rho in _parse_values(args.rho):
        for r in _parse_values(args.rate):
            for l in _parse_values(args.leak):
                theta = gaussian_tai_exponent(GaussianQuery(rho, r, l))
                rows.append((rho, r, l, theta))
    return ["rho", "rate", "leak", "theta_bits"], rows


def _scheme_config(args) -> tuple[SchemeConfig, JointPmf, JointPmf | None]:
    """The run's config, null law and alternative (None when not given);
    flags override the file, and ``SchemeConfig`` checks every field."""
    raw = _json_of(_read_json(args.config), dict, "a simulation config")
    # a config holds the laws and the SchemeConfig fields, the kind as "scheme"
    keys = {"p_xy", "q_xy", "scheme"} | {f.name for f in fields(SchemeConfig)} - {"scheme_kind"}
    unknown = sorted(set(raw) - keys)
    if unknown:
        raise DomainError(f"unknown config key {unknown[0]!r}")
    for key in ("p_xy", "mechanism", "quantizer"):
        if key not in raw:
            raise DomainError(f"a simulation config has no {key!r} field")
    p_xy, mechanism, quantizer = (from_dict(raw[k]) for k in ("p_xy", "mechanism", "quantizer"))
    q_xy = from_dict(raw["q_xy"]) if raw.get("q_xy") is not None else None
    flags = ("n", "mu", "seed", "trials", "hypothesis", "scheme")  # named as their keys
    raw = {"seed": 0, "fixed_codebook": False, **raw,
           **{key: getattr(args, key) for key in flags if getattr(args, key) is not None}}
    raw.update(mechanism=mechanism, quantizer=quantizer, scheme_kind=raw.get("scheme"))
    cfg = SchemeConfig(**{f.name: raw.get(f.name) for f in fields(SchemeConfig)})
    return cfg, p_xy, q_xy


def _cmd_simulate(args) -> dict:
    cfg, p_xy, q_xy = _scheme_config(args)
    if cfg.scheme_kind == "general":
        return run_general_scheme(cfg, p_xy, q_xy).to_dict()
    return run_memoryless_scheme(cfg, p_xy).to_dict()


def _cmd_selftest(args) -> dict:
    seed = args.seed if args.seed is not None else 0
    dsbs = JointPmf(np.array([[0.45, 0.05], [0.05, 0.45]]), ("X", "Y"))
    results: dict = {"master_seed": seed, "version": __version__}

    results["binary_tai"] = {
        "r1_l1": binary_tai_exponent(0.1, 1.0, 1.0),
        "r05_l05": binary_tai_exponent(0.1, 0.5, 0.5),
    }
    results["gaussian"] = {
        "rho08_r1_linf": gaussian_tai_exponent(GaussianQuery(0.8, 1.0, math.inf)),
        "beta_mid": gaussian_achievable_at_beta(GaussianQuery(0.8, 1.0, 1.0), 0.5),
    }
    ref = JointPmf(np.array([[0.28, 0.42], [0.18, 0.12]]), ("X", "Y"))
    proj = i_project(
        ref,
        [
            MarginalConstraint(("X",), np.array([0.5, 0.5]), "x"),
            MarginalConstraint(("Y",), np.array([0.5, 0.5]), "y"),
        ],
    )
    results["i_projection"] = {
        "min_kl_bits": proj.min_kl,
        "converged": proj.converged,
    }
    results["euclid"] = {
        "binary_closed_form": binary_euclid_approx(0.1, 0.01, 0.01),
        "solver": euclid_tai_approx(dsbs, 0.01, 0.01).value,
    }
    results["tai_search_bsc"] = symmetric_tai_exponent(dsbs, 0.5, 0.5).theta

    mech = Channel.identity(2)
    cfg = SchemeConfig(
        n=12,
        mu=0.3,
        rate=1.0,
        seed=seed,
        trials=1500,
        hypothesis="alt",
        mechanism=mech,
        quantizer=Channel.identity(2),
        scheme_kind="memoryless",
    )
    results["simulation"] = run_memoryless_scheme(cfg, dsbs).to_dict()
    return results


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privexp",
        description="error exponents for privacy-constrained distributed testing",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponent", help="single exponent query")
    p.add_argument("--method", required=True, choices=list(_METHODS))
    p.add_argument("--null", help="JSON file with the null joint law")
    p.add_argument("--alt", help="JSON file with the alternative joint law")
    p.add_argument("--rate", type=float)
    p.add_argument("--leak", type=float)
    p.add_argument("--q", type=float, help="crossover for the binary method")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_exponent)

    p = sub.add_parser("sweep", help="exponent curves as CSV")
    p.add_argument("--method", default="binary", choices=_SWEEP_METHODS)
    p.add_argument("--rate", required=True, help="values: list or start:stop:step")
    p.add_argument("--leak", required=True)
    p.add_argument("--q", type=float)
    p.add_argument("--null")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("approx", help="closed form vs quadratic approximation")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--grid", default="0.005:0.02:0.005",
                   help="diagonal rate=leak values")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("gaussian", help="Gaussian test-channel exponent sweep as CSV "
                       "(optimal at an infinite budget, not proven when both are finite)")
    p.add_argument("--rho", required=True)
    p.add_argument("--rate", required=True)
    p.add_argument("--leak", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gaussian)

    p = sub.add_parser("simulate", help="Monte Carlo scheme simulation")
    p.add_argument("--config", required=True, help="JSON run description")
    p.add_argument("--n", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--mu", type=float)
    p.add_argument("--scheme", choices=["general", "memoryless"])
    p.add_argument("--hypothesis", choices=["null", "alt"])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("selftest", help="deterministic end-to-end battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    module = sys.modules[__name__]
    for name in (n for m in _COMMAND_MODULES[args.command] for n in _LIBRARY[m]):
        getattr(module, name)  # binds a name not bound yet; a bound one, such as a probe, stays
    started = time.monotonic()
    try:
        result = args.func(args)
        if args.out is None:
            _write(result, sys.stdout)
        else:
            with open(args.out, "w", newline="") as fh:
                _write(result, fh)
            if args.command != "selftest":
                _emit_manifest(args, started)
    except (ToolkitError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, TooLarge):
            return SIZE_EXIT
        return INFEASIBLE_EXIT if isinstance(e, Infeasible) else CONFIG_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
