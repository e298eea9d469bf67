"""Output checks that hold for any correct optimizer or simulator.

Each check returns a list of problems; an empty list means the output
passed. The checks use bounds from the mathematics, computed here without
the package, never frozen iterates or draws, so they stay valid when a
later change alters a search path or the order of random numbers.
"""

from __future__ import annotations

import math

SLACK = 1e-9  # the search's own feasibility slack
DSBS_TOL = 1e-2  # tai search may not fall further below the binary closed form
THM1_TOL = 1e-6  # inner projections stop at a 1e-9 residual
MARGINAL_TOL = 1e-7
Z95 = 1.959963984540054


def _log2_ratio_sum(p, q) -> float:
    return sum(a * math.log2(a / b) for a, b in zip(p, q) if a > 0)


def mutual_information(joint: list[list[float]]) -> float:
    """I(X;Y) in bits of a joint law given as rows over X."""
    rows = [sum(r) for r in joint]
    cols = [sum(c) for c in zip(*joint)]
    flat = [v for r in joint for v in r]
    prod = [a * b for a in rows for b in cols]
    return max(_log2_ratio_sum(flat, prod), 0.0)


def kl_divergence(p: list[list[float]], q: list[list[float]]) -> float:
    """D(P || Q) in bits."""
    return _log2_ratio_sum([v for r in p for v in r], [v for r in q for v in r])


def _h(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def _h_inv(y: float) -> float:
    """The x in [0, 1/2] with h(x) = y, by bisection."""
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = (lo + hi) / 2
        if _h(mid) < y:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _star(a: float, b: float) -> float:
    return a * (1 - b) + b * (1 - a)


def dsbs_closed_form(q: float, rate: float, leak: float) -> float:
    """1 - h(q * h^-1(1 - L) * h^-1(1 - R)), budgets saturating at one bit."""
    a = _h_inv(1.0 - min(leak, 1.0))
    b = _h_inv(1.0 - min(rate, 1.0))
    return 1.0 - _h(_star(q, _star(a, b)))


def check_tai(theta, rate_mi, leak_mi, joint, rate, leak, dsbs_q=None) -> list[str]:
    """Independence-testing exponent: feasible, below its caps, near the closed form."""
    problems = []
    if not math.isfinite(theta) or theta < 0.0:
        problems.append(f"theta {theta!r} is not a finite nonnegative number")
        return problems
    cap = min(mutual_information(joint), rate, leak)
    if theta > cap + SLACK:
        problems.append(f"theta {theta:.6g} above min(I(X;Y), R, L) = {cap:.6g}")
    if rate_mi is None or rate_mi > rate + SLACK:
        problems.append(f"rate_mi {rate_mi!r} over the rate budget {rate}")
    if leak_mi is None or leak_mi > leak + SLACK:
        problems.append(f"leak_mi {leak_mi!r} over the leakage budget {leak}")
    if dsbs_q is not None:
        closed = dsbs_closed_form(dsbs_q, rate, leak)
        if theta < closed - DSBS_TOL:
            problems.append(f"theta {theta:.6g} below the closed form {closed:.6g} - 1e-2")
    return problems


def check_general_alternative(theta, p, q, witness_x, p_x) -> list[str]:
    """Theorem 1 / Corollary 2: 0 <= theta <= D(P||Q); witness keeps P's X marginal."""
    problems = []
    d = kl_divergence(p, q)
    if not math.isfinite(theta) or theta < 0.0:
        problems.append(f"theta {theta!r} is not a finite nonnegative number")
    elif theta > d + THM1_TOL:
        problems.append(f"theta {theta:.6g} above D(P||Q) = {d:.6g}")
    if witness_x is None:
        problems.append("no inner witness returned")
    else:
        gap = max(abs(a - b) for a, b in zip(witness_x, p_x))
        if len(witness_x) != len(p_x) or gap > MARGINAL_TOL:
            problems.append(f"witness X marginal off p_X by {gap:.3g}")
    return problems


def check_simulation(report: dict, design_theta=None, alpha_cap=None) -> list[str]:
    """SimReport (as its dict): outcomes partition the trials, bounds hold.

    ``design_theta`` applies the criterion-6 exponent cap (estimate at most
    the design exponent plus two standard errors); ``alpha_cap`` the type-I
    cap of a null run.
    """
    problems = []
    trials = report["trials"]
    if report["hypothesis"] == "null":
        accepts = (1.0 - report["alpha_hat"]) * trials
    else:
        accepts = report["beta_hat"] * trials
    c = report["counters"]
    total = round(accepts) + c["encoder_failures"] + c["receiver_rejects"]
    if abs(accepts - round(accepts)) > 1e-6 or total != trials:
        problems.append(
            f"accepts {accepts:.6g} + encoder failures + receiver rejects = "
            f"{total}, not the {trials} trials"
        )
    if report["scheme"] == "general":
        plugin = report["privacy_plugin_bits"]
        if plugin is not None and report["privacy_bound_bits"] < plugin:
            problems.append(
                f"privacy bound {report['privacy_bound_bits']:.6g} below the "
                f"plug-in estimate {plugin:.6g}"
            )
    if design_theta is not None:
        exp, ci = report["empirical_exponent"], report["beta_ci95"]
        if exp is None:
            problems.append("no accepted trial, so no exponent estimate")
        else:
            sigma = (-math.log2(ci[0]) / report["n"] - exp) / Z95
            if exp > design_theta + 2.0 * sigma:
                problems.append(
                    f"exponent {exp:.4f} above design {design_theta:.4f} + 2 sigma"
                )
    if alpha_cap is not None and report["alpha_hat"] > alpha_cap:
        problems.append(f"type-I error {report['alpha_hat']:.4f} above {alpha_cap}")
    return problems


def check_process(returncode: int, stderr: str) -> list[str]:
    if returncode != 0:
        return [f"exit code {returncode}: {stderr.strip()[-300:]}"]
    return []


def check_identical(first: bytes, second: bytes) -> list[str]:
    if first != second:
        return ["two selftest runs with one seed printed different bytes"]
    return []
