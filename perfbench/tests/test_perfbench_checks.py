"""Each output check on one passing and one failing input."""

import math
import subprocess
import sys
import shutil

import pytest

import checks
import workloads

DSBS = [[0.45, 0.05], [0.05, 0.45]]
P = [[0.4, 0.1], [0.1, 0.4]]
Q = [[0.2, 0.3], [0.25, 0.25]]


def test_information_helpers():
    assert checks.mutual_information([[0.25, 0.25], [0.25, 0.25]]) == pytest.approx(0.0)
    assert checks.mutual_information(DSBS) == pytest.approx(1 - checks._h(0.1))
    assert checks.kl_divergence(P, Q) == pytest.approx(0.3805397024842033, abs=1e-12)
    assert checks.dsbs_closed_form(0.1, 1.0, 1.0) == pytest.approx(0.5310044064107188, abs=1e-12)
    assert checks.dsbs_closed_form(0.1, 0.5, 0.5) == pytest.approx(0.17831301055259974, abs=1e-12)


def test_tai_passes_a_feasible_value_near_the_closed_form():
    assert checks.check_tai(0.1785, 0.4999, 0.5, DSBS, 0.5, 0.5, dsbs_q=0.1) == []


@pytest.mark.parametrize("theta, rate_mi, leak_mi, word", [
    (0.52, 0.5, 0.5, "above min"),        # over min(I(X;Y), R, L) = 0.5
    (0.17, 0.51, 0.5, "rate budget"),
    (0.17, 0.5, 0.5 + 1e-6, "leakage budget"),
    (0.16, 0.5, 0.5, "closed form"),      # more than 1e-2 below 0.1783
    (math.nan, 0.5, 0.5, "finite"),
])
def test_tai_failures(theta, rate_mi, leak_mi, word):
    problems = checks.check_tai(theta, rate_mi, leak_mi, DSBS, 0.5, 0.5, dsbs_q=0.1)
    assert any(word in p for p in problems), problems


def test_general_alternative_pass_and_fail():
    p_x = [0.5, 0.5]
    assert checks.check_general_alternative(0.1286, P, Q, [0.5, 0.5], p_x) == []
    # the R = L = 1 optimum sits on D(P||Q) itself
    assert checks.check_general_alternative(0.3805397, P, Q, p_x, p_x) == []
    assert "above D" in checks.check_general_alternative(0.39, P, Q, p_x, p_x)[0]
    assert "finite" in checks.check_general_alternative(-0.1, P, Q, p_x, p_x)[0]
    assert "witness" in checks.check_general_alternative(0.1, P, Q, [0.51, 0.49], p_x)[0]
    assert "witness" in checks.check_general_alternative(0.1, P, Q, None, p_x)[0]


def report(**over):
    base = {
        "scheme": "memoryless", "hypothesis": "alt", "n": 12, "trials": 1000,
        "beta_hat": 0.3, "alpha_hat": None, "beta_ci95": [0.272, 0.329],
        "empirical_exponent": -math.log2(0.3) / 12,
        "privacy_bound_bits": 1.0, "privacy_plugin_bits": 0.99,
        "counters": {"encoder_failures": 200, "receiver_rejects": 500,
                     "observer_escapes": 0},
    }
    base.update(over)
    return base


def test_simulation_passes():
    assert checks.check_simulation(report(), design_theta=0.531) == []
    null = report(hypothesis="null", beta_hat=None, alpha_hat=0.06,
                  counters={"encoder_failures": 50, "receiver_rejects": 10})
    assert checks.check_simulation(null, alpha_cap=0.1) == []
    gated = report(scheme="general", privacy_bound_bits=1.4, privacy_plugin_bits=0.5)
    assert checks.check_simulation(gated) == []


def test_simulation_failures():
    broken = report(counters={"encoder_failures": 200, "receiver_rejects": 499})
    assert "not the 1000 trials" in checks.check_simulation(broken)[0]
    gated = report(scheme="general", privacy_bound_bits=0.4, privacy_plugin_bits=0.5)
    assert "privacy bound" in checks.check_simulation(gated)[0]
    assert "design" in checks.check_simulation(report(), design_theta=0.05)[0]
    null = report(hypothesis="null", beta_hat=None, alpha_hat=0.2,
                  counters={"encoder_failures": 150, "receiver_rejects": 50})
    assert "type-I" in checks.check_simulation(null, alpha_cap=0.1)[0]
    none = report(beta_hat=0.0, empirical_exponent=None,
                  counters={"encoder_failures": 500, "receiver_rejects": 500})
    assert "no accepted" in checks.check_simulation(none, design_theta=0.5)[0]


def test_process_checks():
    assert checks.check_process(0, "") == []
    assert "exit code 2" in checks.check_process(2, "error: bad flag\n")[0]
    assert checks.check_identical(b"{}\n", b"{}\n") == []
    assert checks.check_identical(b"{}\n", b"{ }\n") != []


def test_random_law_is_fixed_by_seed():
    a = workloads.random_law(7, "cli-oneshot")
    assert a == workloads.random_law(7, "cli-oneshot")
    assert a != workloads.random_law(8, "cli-oneshot")
    assert sum(map(sum, a)) == pytest.approx(1.0)
    assert min(min(r) for r in a) > 0.0


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(workloads.Path(workloads.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests", ".work-*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-schemes",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
