"""Command-line front end.

Subcommands map one-to-one onto the library surface: ``exponent`` for single
queries, ``sweep`` and ``approx`` and ``gaussian`` for CSV curves, ``simulate``
for Monte Carlo runs, ``selftest`` for a deterministic end-to-end battery.
Every file output gets a sibling ``<name>.manifest.json`` recording the
resolved configuration, toolkit version, seed, and wall-clock duration, so a
run can be reproduced from its artifacts alone. Exit codes: 0 success, 2
configuration problems, 3 solver infeasibility, 4 size-cap refusals.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .errors import DomainError, Infeasible, SizeOverflow, TooLarge, ToolkitError
from .euclid import binary_euclid_approx, euclid_tai_approx
from .exponents import (
    THM1_SEARCH,
    SearchConfig,
    binary_tai_exponent,
    corollary2_bound,
    tai_exponent,
    theorem1_lower_bound,
    zero_rate_exponent,
)
from .gaussian import GaussianQuery, gaussian_achievable_at_beta, gaussian_tai_exponent
from .iproject import MarginalConstraint, i_project
from .probcore import Channel, JointPmf, Pmf, from_dict, load_json
from .simkit import SchemeConfig, run_general_scheme, run_memoryless_scheme

CONFIG_EXIT = 2
INFEASIBLE_EXIT = 3
SIZE_EXIT = 4


def _parse_values(spec: str) -> list[float]:
    """Accept '0:1:0.02' ranges (inclusive), '{a,b,c}' sets, or single numbers.

    ``inf`` is a valid set member but not a range bound.
    """
    spec = spec.strip().strip("{}")
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:stop:step, got {spec!r}")
        start, stop, step = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise DomainError(f"range {spec!r} needs a finite start, stop and step")
        if step <= 0:
            raise ValueError("range step must be positive")
        span = (stop - start) / step
        if not math.isfinite(span):
            raise DomainError(f"range {spec!r} has too many points")
        count = int(math.floor(span + 1e-9)) + 1
        return [round(start + k * step, 12) for k in range(count)]
    return [float(p) for p in spec.split(",")]


def _load_joint(path: str) -> JointPmf:
    obj = load_json(path)
    if not isinstance(obj, JointPmf):
        raise ToolkitError(f"{path} does not hold a joint law")
    return obj


def _write_json(payload: dict, out: str | None) -> list[str]:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
        return []
    with open(out, "w") as fh:
        fh.write(text)
    return [out]


def _write_csv(header: list[str], rows: list[tuple], out: str | None) -> list[str]:
    rows = sorted(rows, key=lambda r: r[: len(header) - 1])
    target = open(out, "w", newline="") if out else sys.stdout
    try:
        writer = csv.writer(target)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    finally:
        if out:
            target.close()
    return [out] if out else []


def _emit_manifest(args: argparse.Namespace, outputs: list[str], started: float) -> None:
    if not outputs:
        return
    resolved = {
        k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None
    }
    manifest = {
        "command": args.command,
        "config": resolved,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "outputs": outputs,
        "duration_s": round(time.monotonic() - started, 3),
    }
    path = outputs[0] + ".manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_exponent(args) -> tuple[dict, list[str]]:
    method = args.method
    if method in ("binary", "zero-rate"):
        _refuse_search_flags(args)
    if method == "binary":
        if args.q is None:
            raise ToolkitError("--q is required for the binary method")
        theta = binary_tai_exponent(args.q, _req(args, "rate"), _req(args, "leak"))
        payload = {"method": method, "theta_bits": theta}
    elif method == "tai":
        res = tai_exponent(
            _null(args), _req(args, "rate"), _req(args, "leak"), _search_config(args)
        )
        payload = {"method": method, **res.to_dict()}
    elif method == "zero-rate":
        res = zero_rate_exponent(_null(args), _alt(args))
        payload = {"method": method, **res.to_dict()}
    elif method == "thm1":
        res = theorem1_lower_bound(
            _null(args), _alt(args), _req(args, "rate"), _req(args, "leak"),
            _search_config(args),
        )
        payload = {"method": method, **res.to_dict()}
    else:  # cor2
        res = corollary2_bound(
            _null(args), _alt(args), _req(args, "rate"), _search_config(args)
        )
        payload = {"method": method, **res.to_dict()}
    return payload, _write_json(payload, args.out)


def _req(args, name: str) -> float:
    val = getattr(args, name)
    if val is None:
        raise ToolkitError(f"--{name} is required for method {args.method!r}")
    return val


def _null(args) -> JointPmf:
    if args.null is None:
        raise ToolkitError("--null is required for this method")
    return _load_joint(args.null)


def _alt(args) -> JointPmf:
    if args.alt is None:
        raise ToolkitError("--alt is required for this method")
    return _load_joint(args.alt)


def _refuse_search_flags(args) -> None:
    """Refuse the search flags for a method that runs no grid search."""
    for flag, given in (("--grid-step", args.grid_step is not None),
                        ("--restrict-bsc", args.restrict_bsc)):
        if given:
            raise DomainError(f"{flag} does not apply to method {args.method!r}")


def _search_config(args) -> SearchConfig:
    """The method's default search config with the given flags applied."""
    base = THM1_SEARCH if args.method in ("thm1", "cor2") else SearchConfig()
    kwargs = {}
    if getattr(args, "grid_step", None) is not None:
        kwargs["grid_step"] = args.grid_step
    if getattr(args, "restrict_bsc", False):
        kwargs["restrict_bsc"] = True
    return replace(base, **kwargs)


def _cmd_sweep(args) -> tuple[dict, list[str]]:
    rates = _parse_values(args.rate)
    leaks = _parse_values(args.leak)
    rows = []
    if args.method == "binary":
        _refuse_search_flags(args)
        if args.q is None:
            raise ToolkitError("--q is required for the binary method")
        for r in rates:
            for l in leaks:
                rows.append((r, l, binary_tai_exponent(args.q, r, l)))
    else:  # tai
        cfg = _search_config(args)
        p_xy = _null(args)
        for r in rates:
            for l in leaks:
                rows.append((r, l, tai_exponent(p_xy, r, l, cfg).theta))
    outputs = _write_csv(["rate", "leak", "theta_bits"], rows, args.out)
    return {"rows": len(rows)}, outputs


def _cmd_approx(args) -> tuple[dict, list[str]]:
    points = _parse_values(args.grid)
    rows = []
    for r in points:
        exact = binary_tai_exponent(args.q, r, r)
        approx = binary_euclid_approx(args.q, r, r)
        rel = abs(approx - exact) / exact if exact > 0 else 0.0
        rows.append((r, r, exact, approx, rel))
    outputs = _write_csv(
        ["rate", "leak", "theta_bits", "theta_approx_bits", "rel_err"], rows, args.out
    )
    return {"rows": len(rows)}, outputs


def _cmd_gaussian(args) -> tuple[dict, list[str]]:
    rows = []
    for rho in _parse_values(args.rho):
        for r in _parse_values(args.rate):
            for l in _parse_values(args.leak):
                theta = gaussian_tai_exponent(GaussianQuery(rho, r, l))
                rows.append((rho, r, l, theta))
    outputs = _write_csv(["rho", "rate", "leak", "theta_bits"], rows, args.out)
    return {"rows": len(rows)}, outputs


def _scheme_config(args) -> tuple[SchemeConfig, JointPmf, JointPmf | None]:
    with open(args.config) as fh:
        raw = json.load(fh)
    p_xy = from_dict(raw["p_xy"])
    q_xy = from_dict(raw["q_xy"]) if raw.get("q_xy") is not None else None
    mechanism = from_dict(raw["mechanism"])
    quantizer = from_dict(raw["quantizer"])
    if not isinstance(p_xy, JointPmf) or not isinstance(mechanism, Channel) \
            or not isinstance(quantizer, Channel):
        raise ToolkitError("config fields have the wrong kinds")

    def pick(flag, key, default=None):
        if flag is not None:
            return flag
        return raw.get(key, default)

    cfg = SchemeConfig(
        n=int(pick(args.n, "n")),
        mu=float(pick(args.mu, "mu")),
        rate=float(raw["rate"]),
        seed=int(pick(args.seed, "seed", 0)),
        trials=int(pick(args.trials, "trials")),
        hypothesis=pick(args.hypothesis, "hypothesis"),
        mechanism=mechanism,
        quantizer=quantizer,
        scheme_kind=pick(args.scheme, "scheme"),
        mu_prime=raw.get("mu_prime"),
        batches=int(raw.get("batches", 100)),
        fixed_codebook=bool(raw.get("fixed_codebook", False)),
    )
    return cfg, p_xy, q_xy


def _cmd_simulate(args) -> tuple[dict, list[str]]:
    cfg, p_xy, q_xy = _scheme_config(args)
    if cfg.scheme_kind == "general":
        if q_xy is None:
            raise ToolkitError("the general scheme needs q_xy in the config")
        report = run_general_scheme(cfg, p_xy, q_xy)
    else:
        report = run_memoryless_scheme(cfg, p_xy)
    payload = report.to_dict()
    return payload, _write_json(payload, args.out)


def _cmd_selftest(args) -> tuple[dict, list[str]]:
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
    results["tai_search_bsc"] = tai_exponent(
        dsbs, 0.5, 0.5, SearchConfig(restrict_bsc=True)
    ).theta

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

    return results, _write_json(results, args.out)


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privexp",
        description="error exponents for privacy-constrained distributed testing",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common_search(p):
        p.add_argument("--grid-step", type=float, default=None)
        p.add_argument("--restrict-bsc", action="store_true",
                       help="binary tai search only: both channels symmetric")

    p = sub.add_parser("exponent", help="single exponent query")
    p.add_argument("--method", required=True,
                   choices=["thm1", "tai", "zero-rate", "binary", "cor2"])
    p.add_argument("--null", help="JSON file with the null joint law")
    p.add_argument("--alt", help="JSON file with the alternative joint law")
    p.add_argument("--rate", type=float)
    p.add_argument("--leak", type=float)
    p.add_argument("--q", type=float, help="crossover for the binary method")
    p.add_argument("--out")
    common_search(p)
    p.set_defaults(func=_cmd_exponent)

    p = sub.add_parser("sweep", help="exponent curves as CSV")
    p.add_argument("--method", default="binary", choices=["binary", "tai"])
    p.add_argument("--rate", required=True, help="values: list or start:stop:step")
    p.add_argument("--leak", required=True)
    p.add_argument("--q", type=float)
    p.add_argument("--null")
    p.add_argument("--out")
    common_search(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("approx", help="closed form vs quadratic approximation")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--grid", default="0.005:0.02:0.005",
                   help="diagonal rate=leak values")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("gaussian", help="Gaussian exponent sweep as CSV")
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
    started = time.monotonic()
    try:
        _, outputs = args.func(args)
    except (SizeOverflow, TooLarge) as e:
        print(f"error: {e}", file=sys.stderr)
        return SIZE_EXIT
    except Infeasible as e:
        print(f"error: {e}", file=sys.stderr)
        return INFEASIBLE_EXIT
    except (ToolkitError, ValueError, OSError, KeyError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return CONFIG_EXIT
    if args.command != "selftest":
        _emit_manifest(args, outputs, started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
