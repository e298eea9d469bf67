"""Command-line surface: payloads, manifests, exit codes, reproducibility."""

import ast
import csv
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privexp import (
    Channel,
    Infeasible,
    JointPmf,
    Pmf,
    SchemeConfig,
    TooLarge,
    binary_tai_exponent,
    cli,
    corollary2_bound,
    dump_json,
    mutual_information,
    run_general_scheme,
    symmetric_tai_exponent,
    tai_exponent,
    theorem1_lower_bound,
    zero_rate_exponent,
)

# a non-product alternative, entrywise positive
ALT = [[0.2, 0.3], [0.25, 0.25]]


@pytest.fixture
def null_law_path(tmp_path, dsbs01):
    path = tmp_path / "null.json"
    dump_json(dsbs01, path)
    return str(path)


@pytest.fixture
def alt_law_path(tmp_path):
    path = tmp_path / "alt.json"
    dump_json(JointPmf(np.array(ALT), ("X", "Y")), path)
    return str(path)


@pytest.fixture
def sim_config_path(tmp_path, dsbs01):
    cfg = {
        "p_xy": dsbs01.to_dict(),
        "n": 10,
        "mu": 0.3,
        "rate": 0.5,
        "seed": 7,
        "trials": 1500,
        "hypothesis": "alt",
        "scheme": "memoryless",
        "mechanism": Channel.identity(2).to_dict(),
        "quantizer": Channel.identity(2).to_dict(),
    }
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def as_json(payload):
    """A payload as it reads back from the JSON the CLI writes."""
    return json.loads(json.dumps(payload))


# ---------------------------------------------------------------------------
# payloads and manifests


def test_exponent_binary_payload_and_manifest(tmp_path):
    out = tmp_path / "b.json"
    code = cli.main(
        ["exponent", "--method", "binary", "--q", "0.1", "--rate", "1",
         "--leak", "1", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["theta_bits"] == pytest.approx(
        binary_tai_exponent(0.1, 1.0, 1.0), abs=1e-15
    )
    manifest = json.loads((tmp_path / "b.json.manifest.json").read_text())
    assert manifest["command"] == "exponent"
    assert manifest["outputs"] == [str(out)]
    assert {"config", "version", "seed", "duration_s"} <= manifest.keys()


def test_exponent_search_payload(tmp_path, null_law_path):
    out = tmp_path / "t.json"
    code = cli.main(
        ["exponent", "--method", "tai", "--null", null_law_path, "--rate", "0.5",
         "--leak", "0.5", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["bound_kind"] == "exact"
    assert payload["theta_bits"] == pytest.approx(0.17854234231423172, abs=1e-9)


@pytest.mark.parametrize("method", ["zero-rate", "thm1", "cor2"])
def test_general_alternative_payloads_match_the_library(
        method, dsbs01, null_law_path, alt_law_path, capsys):
    alt = JointPmf(np.array(ALT), ("X", "Y"))
    argv = ["exponent", "--method", method, "--null", null_law_path, "--alt", alt_law_path]
    if method == "zero-rate":
        res = zero_rate_exponent(dsbs01, alt)
    elif method == "thm1":
        argv += ["--rate", "0.1", "--leak", "0.1"]
        res = theorem1_lower_bound(dsbs01, alt, 0.1, 0.1)
    else:
        argv += ["--rate", "0.25"]
        res = corollary2_bound(dsbs01, alt, 0.25)
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out) == as_json({"method": method, **res.to_dict()})


@pytest.mark.parametrize("method", ["tai", "bsc"])
def test_independence_payloads_match_the_library(method, dsbs01, null_law_path, capsys):
    # neither takes a grid step: the payload is the library's result as it is
    call = {"tai": tai_exponent, "bsc": symmetric_tai_exponent}[method]
    assert cli.main(["exponent", "--method", method, "--null", null_law_path,
                     "--rate", "0.25", "--leak", "0.5"]) == 0
    res = call(dsbs01, 0.25, 0.5)
    assert json.loads(capsys.readouterr().out) == as_json({"method": method, **res.to_dict()})


def test_infinite_budgets_are_accepted(dsbs01, null_law_path, capsys):
    # the polish once crashed with an IndexError traceback (exit 1)
    assert cli.main(["exponent", "--method", "tai", "--null", null_law_path,
                     "--rate", "inf", "--leak", "inf"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rate_bits"] == payload["leak_bits"] == {"flag": "infinity"}
    assert payload["theta_bits"] == pytest.approx(mutual_information(dsbs01), abs=1e-9)


def test_stdout_when_no_output_file(capsys):
    assert cli.main(["exponent", "--method", "binary", "--q", "0.1",
                     "--rate", "1", "--leak", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "binary"


def test_sweep_rows_are_sorted(tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli.main(
        ["sweep", "--method", "binary", "--q", "0.1", "--rate", "0.25",
         "--leak", "0.3,0.1,0.2", "--out", str(out)]
    )
    assert code == 0
    rows = read_rows(out)
    assert rows[0] == ["rate", "leak", "theta_bits"]
    leaks = [float(r[1]) for r in rows[1:]]
    assert leaks == sorted(leaks) == [0.1, 0.2, 0.3]
    thetas = [float(r[2]) for r in rows[1:]]
    assert thetas == [binary_tai_exponent(0.1, 0.25, l) for l in leaks]


def test_tai_sweep_rows_match_the_library(tmp_path, dsbs01, null_law_path):
    out = tmp_path / "tai.csv"
    assert cli.main(["sweep", "--method", "tai", "--null", null_law_path,
                     "--rate", "0.5", "--leak", "0.5,0.25", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0] == ["rate", "leak", "theta_bits"]
    assert [[float(v) for v in r] for r in rows[1:]] == [
        [0.5, l, tai_exponent(dsbs01, 0.5, l).theta] for l in (0.25, 0.5)
    ]


def test_approx_curve_tracks_closed_form(tmp_path):
    out = tmp_path / "approx.csv"
    assert cli.main(["approx", "--q", "0.1", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0][-1] == "rel_err"
    assert all(float(r[-1]) <= 0.01 for r in rows[1:])


def test_gaussian_sweep(tmp_path):
    out = tmp_path / "g.csv"
    assert cli.main(["gaussian", "--rho", "0.8", "--rate", "1.0",
                     "--leak", "inf", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 2
    assert float(rows[1][3]) == pytest.approx(0.4717082358168162, abs=1e-12)


def test_simulate_report_and_overrides(tmp_path, sim_config_path):
    out = tmp_path / "run.json"
    code = cli.main(["simulate", "--config", sim_config_path, "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["scheme"] == "memoryless"
    assert report["trials"] == 1500
    assert 0.0 <= report["beta_hat"] <= 1.0

    out2 = tmp_path / "run2.json"
    code = cli.main(["simulate", "--config", sim_config_path,
                     "--trials", "600", "--seed", "9", "--out", str(out2)])
    assert code == 0
    report2 = json.loads(out2.read_text())
    assert report2["trials"] == 600
    assert report2["seed"] == 9


def test_simulate_general_scheme_matches_the_library(tmp_path, dsbs01, capsys):
    raw = {
        "p_xy": dsbs01.to_dict(),
        "q_xy": JointPmf(np.array(ALT), ("X", "Y")).to_dict(),
        "n": 10, "mu": 0.35, "rate": 0.5, "seed": 3, "trials": 400,
        "hypothesis": "alt", "scheme": "general",
        "mechanism": Channel.identity(2).to_dict(),
        "quantizer": Channel.identity(2).to_dict(),
    }
    path = tmp_path / "general.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["simulate", "--config", str(path)]) == 0
    cfg = SchemeConfig(n=10, mu=0.35, rate=0.5, seed=3, trials=400, hypothesis="alt",
                       mechanism=Channel.identity(2), quantizer=Channel.identity(2),
                       scheme_kind="general")
    report = run_general_scheme(cfg, dsbs01, JointPmf(np.array(ALT), ("X", "Y")))
    assert json.loads(capsys.readouterr().out) == as_json(report.to_dict())

    del raw["q_xy"]
    path.write_text(json.dumps(raw))
    assert cli.main(["simulate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: the general scheme needs q_xy")


def test_simulate_same_seed_same_bytes(tmp_path, sim_config_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert cli.main(["simulate", "--config", sim_config_path,
                         "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_simulate_reports_a_zero_exponent_without_a_sign(tmp_path, sim_config_path):
    # at mu = 1 every trial is accepted, so beta_hat = 1, whose exponent
    # -log2(1) / n once printed as -0.0
    out = tmp_path / "run.json"
    assert cli.main(["simulate", "--config", sim_config_path, "--mu", "1",
                     "--out", str(out)]) == 0
    text = out.read_text()
    assert '"beta_hat": 1.0' in text
    assert '"empirical_exponent": 0.0' in text and "-0.0" not in text
    assert json.loads(text)["beta_ci95"][1] == 1.0


def test_gaussian_prints_a_zero_exponent_without_a_sign(capsys):
    # -0.5 * log2(1) once printed as -0.0 wherever R, L or rho made the exponent 0
    assert cli.main(["gaussian", "--rho", "0,0.8", "--rate", "0,1", "--leak", "0,1"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows].count("0.0") == 7
    assert not any("-0.0" in row for row in rows)


# ---------------------------------------------------------------------------
# selftest


def test_selftest_writes_no_manifest(tmp_path):
    out = tmp_path / "self.json"
    assert cli.main(["selftest", "--seed", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["master_seed"] == 3
    assert {"binary_tai", "gaussian", "i_projection", "euclid",
            "simulation"} <= report.keys()
    assert not (tmp_path / "self.json.manifest.json").exists()


def test_selftest_reports_are_byte_identical(tmp_path):
    blobs = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "privexp.cli", "selftest", "--seed", "11",
             "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------------------
# exit codes


def test_missing_input_file_is_a_config_error(tmp_path):
    code = cli.main(["exponent", "--method", "tai", "--null",
                     str(tmp_path / "nope.json"), "--rate", "1", "--leak", "1"])
    assert code == 2


def test_domain_violation_is_a_config_error():
    assert cli.main(["exponent", "--method", "binary", "--q", "1.5",
                     "--rate", "1", "--leak", "1"]) == 2


def test_an_alternative_no_pair_can_project_onto_exits_three(tmp_path, capsys):
    # Q puts no mass on Y = 1, so every shortlisted inner projection fails
    null, alt = tmp_path / "null.json", tmp_path / "alt.json"
    dump_json(JointPmf(np.array([[0.4, 0.1], [0.1, 0.4]]), ("X", "Y")), null)
    dump_json(JointPmf(np.array([[0.5, 0.0], [0.5, 0.0]]), ("X", "Y")), alt)
    assert cli.main(["exponent", "--method", "thm1", "--null", str(null), "--alt", str(alt),
                     "--rate", "0.5", "--leak", "0.5"]) == cli.INFEASIBLE_EXIT
    assert capsys.readouterr().err.startswith(
        "error: inner projection failed on every shortlisted pair")


def test_missing_method_argument_is_a_config_error():
    # binary method without --q
    assert cli.main(["exponent", "--method", "binary",
                     "--rate", "1", "--leak", "1"]) == 2


@pytest.mark.parametrize("law, argv, match", [
    (Pmf(np.array([0.5, 0.5])), ["--method", "zero-rate", "--alt", "{alt}"],
     "{null} does not hold a joint law"),
    (JointPmf(np.full((3, 2), 1 / 6), ("X", "Y")),
     ["--method", "bsc", "--rate", "0.5", "--leak", "0.5"],
     "BSC restriction needs binary alphabets"),
], ids=["null-is-a-pmf", "bsc-ternary"])
def test_a_null_law_that_does_not_fit_is_a_config_error(law, argv, match, tmp_path,
                                                        alt_law_path, capsys):
    null = tmp_path / "law.json"
    dump_json(law, null)
    argv = [a.replace("{alt}", alt_law_path) for a in argv]
    assert cli.main(["exponent", "--null", str(null), *argv]) == cli.CONFIG_EXIT
    assert capsys.readouterr().err.startswith(f"error: {match.replace('{null}', str(null))}")


def test_a_search_grid_above_the_cap_exits_four(tmp_path, capsys):
    # a 6x2 law once ended in a MemoryError traceback and exit 1
    null = tmp_path / "six.json"
    dump_json(JointPmf(np.full((6, 2), 1 / 12), ("X", "Y")), null)
    for method in (["tai"], ["thm1", "--alt", str(null)]):
        assert cli.main(["exponent", "--method", *method, "--null", str(null),
                         "--rate", "0.5", "--leak", "0.5"]) == cli.SIZE_EXIT
        assert capsys.readouterr().err == "error: the channel searches take |X| <= 5, not |X| = 6\n"


@pytest.mark.parametrize("command", ["exponent", "sweep"])
def test_refinement_flag_is_unknown(command, null_law_path, capsys):
    # no search refines coordinate-wise any more, so its flag is gone
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--method", "tai", "--null", null_law_path,
                  "--rate", "0.5", "--leak", "0.5", "--refine-rounds", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --refine-rounds" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--grid-step", "0.3"]], ids=["grid-step"])
@pytest.mark.parametrize("argv", [
    ["exponent", "--method", "binary", "--q", "0.1", "--rate", "0.5", "--leak", "0.5"],
    ["exponent", "--method", "zero-rate", "--rate", "0.5", "--leak", "0.5"],
    ["sweep", "--method", "binary", "--q", "0.1", "--rate", "0.5", "--leak", "0.5"],
    ["exponent", "--method", "tai", "--rate", "0.5", "--leak", "0.5"],
], ids=["exponent-binary", "exponent-zero-rate", "sweep-binary", "exponent-tai"])
def test_search_flags_are_refused_without_a_search(argv, flag, null_law_path, capsys):
    # these methods run no grid search; they once printed a value and ignored
    # the flag. No search takes a setting now, so no subcommand has the flag
    if "zero-rate" in argv:
        argv = argv + ["--null", null_law_path, "--alt", null_law_path]
    assert _exit_code(argv + flag) == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag[0]}" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    (["exponent", "--method", "binary", "--q", "0.1", "--rate", "0.5", "--leak", "0.5",
      "--null", "LAW"], "--null"),
    (["exponent", "--method", "binary", "--q", "0.1", "--rate", "0.5", "--leak", "0.5",
      "--alt", "LAW"], "--alt"),
    (["exponent", "--method", "tai", "--null", "LAW", "--rate", "0.5", "--leak", "0.5",
      "--q", "0"], "--q"),
    (["exponent", "--method", "tai", "--null", "LAW", "--rate", "0.5", "--leak", "0.5",
      "--alt", "LAW"], "--alt"),
    (["exponent", "--method", "zero-rate", "--null", "LAW", "--alt", "LAW",
      "--q", "0.1"], "--q"),
    (["exponent", "--method", "zero-rate", "--null", "LAW", "--alt", "LAW",
      "--rate", "0.5"], "--rate"),
    (["exponent", "--method", "zero-rate", "--null", "LAW", "--alt", "LAW",
      "--leak", "0"], "--leak"),
    (["exponent", "--method", "thm1", "--null", "LAW", "--alt", "LAW", "--rate", "0.5",
      "--leak", "0.5", "--q", "0.1"], "--q"),
    (["exponent", "--method", "cor2", "--null", "LAW", "--alt", "LAW", "--rate", "0.25",
      "--q", "0.1"], "--q"),
    (["exponent", "--method", "cor2", "--null", "LAW", "--alt", "LAW", "--rate", "0.25",
      "--leak", "0.3"], "--leak"),
    (["sweep", "--method", "tai", "--null", "LAW", "--rate", "0.5", "--leak", "0.5",
      "--q", "0.1"], "--q"),
    (["sweep", "--method", "binary", "--q", "0.1", "--rate", "0.5", "--leak", "0.5",
      "--null", "LAW"], "--null"),
], ids=["binary-null", "binary-alt", "tai-q", "tai-alt", "zero-rate-q", "zero-rate-rate",
        "zero-rate-leak", "thm1-q", "cor2-q", "cor2-leak", "sweep-tai-q",
        "sweep-binary-null"])
def test_unused_flags_are_refused(argv, flag, null_law_path, capsys):
    # each of these once printed a value and ignored the flag
    argv = [null_law_path if a == "LAW" else a for a in argv]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} does not apply")


# each method's complete flags, and the method flags a command line of its
# subcommand may carry: the subcommand's own, and --grid-step, which the grid
# searches took and argparse now refuses
_METHOD_ARGV = {
    ("exponent", "binary"): {"--q": "0.1", "--rate": "0.5", "--leak": "0.5"},
    ("exponent", "tai"): {"--null": "LAW", "--rate": "0.5", "--leak": "0.5"},
    ("exponent", "bsc"): {"--null": "LAW", "--rate": "0.5", "--leak": "0.5"},
    ("exponent", "zero-rate"): {"--null": "LAW", "--alt": "LAW"},
    ("exponent", "thm1"): {"--null": "LAW", "--alt": "LAW", "--rate": "0.5", "--leak": "0.5"},
    ("exponent", "cor2"): {"--null": "LAW", "--alt": "LAW", "--rate": "0.25"},
    ("sweep", "binary"): {"--q": "0.1", "--rate": "0.5", "--leak": "0.5"},
    ("sweep", "tai"): {"--null": "LAW", "--rate": "0.5", "--leak": "0.5"},
    ("sweep", "bsc"): {"--null": "LAW", "--rate": "0.5", "--leak": "0.5"},
}
_SUBCOMMAND_FLAGS = {
    "exponent": {"--grid-step": "0.3", "--q": "0", "--null": "LAW", "--alt": "LAW",
                 "--rate": "0.5", "--leak": "0"},
    "sweep": {"--grid-step": "0.3", "--q": "0", "--null": "LAW"},
}
# flags no subcommand has, which argparse refuses with its own message
_REMOVED_FLAGS = {"--grid-step"}


def _argv(command, method, flags, law):
    argv = [command, "--method", method]
    for flag, value in flags.items():
        argv += [flag, law if value == "LAW" else value]
    return argv


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse's own refusal
        return exc.code


@pytest.mark.parametrize("command, method, flag", [
    (c, m, f) for (c, m), flags in _METHOD_ARGV.items() for f in flags
])
def test_each_needed_flag_is_required(command, method, flag, null_law_path, capsys):
    flags = {f: v for f, v in _METHOD_ARGV[command, method].items() if f != flag}
    assert _exit_code(_argv(command, method, flags, null_law_path)) == 2
    err = capsys.readouterr().err
    if command == "sweep" and flag in ("--rate", "--leak"):  # required by the parser
        assert f"the following arguments are required: {flag}" in err
    else:
        assert err == f"error: {flag} is required for method {method!r}\n"


@pytest.mark.parametrize("command, method, flag", [
    (c, m, f) for (c, m), flags in _METHOD_ARGV.items() for f in _SUBCOMMAND_FLAGS[c]
    if f not in flags
])
def test_each_flag_outside_the_method_is_refused(command, method, flag, null_law_path,
                                                 tmp_path, capsys):
    flags = {**_METHOD_ARGV[command, method], flag: _SUBCOMMAND_FLAGS[command][flag]}
    out = tmp_path / "out"
    assert _exit_code(_argv(command, method, flags, null_law_path) + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    if flag in _REMOVED_FLAGS:
        assert f"unrecognized arguments: {flag}" in err and "Traceback" not in err
    else:
        assert err == f"error: {flag} does not apply to method {method!r}\n"
    assert not out.exists()


# the library parameter each needed flag's value is passed as
_PARAMETER_OF = {"--q": "q_noise", "--null": "p_xy", "--alt": "q_xy", "--rate": "rate",
                 "--leak": "leak"}


def test_each_method_takes_exactly_the_values_its_needs_supply():
    # the function a method's call runs has one positional parameter per
    # needed flag, in the table's order, and no other: no search takes a setting
    for name, method in cli._METHODS.items():
        (function,) = method.call.__code__.co_names
        params = inspect.signature(getattr(cli, function)).parameters.values()
        assert [p.name for p in params] == [_PARAMETER_OF[f] for f in method.needs], name
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty
                   for p in params), name


# values drawn for a flag of a fuzzed command line; a law flag may also name the law file
_FUZZ_VALUES = ["0", "0.5", "1", "inf", "-1", "nan", "5e-324", "abc", ""]
_FUZZ_FLAGS = sorted(set().union(*(m.needs for m in cli._METHODS.values())))


@pytest.fixture(scope="module")
def fuzz_law_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "dsbs.json"
    dump_json(JointPmf(np.array([[0.45, 0.05], [0.05, 0.45]]), ("X", "Y")), path)
    return str(path)


@st.composite
def _fuzzed_argv(draw, law):
    """A command line of a method from the table: any of its needed flags
    left out and any other flag added, so that whole queries are drawn too."""
    command = draw(st.sampled_from(["exponent", "sweep"]))
    methods = list(cli._METHODS) if command == "exponent" else cli._SWEEP_METHODS
    method = draw(st.sampled_from(methods))
    needs = cli._METHODS[method].needs
    left_out = draw(st.sets(st.sampled_from(needs)))
    added = draw(st.sets(st.sampled_from([f for f in _FUZZ_FLAGS if f not in needs])))
    argv = [command, "--method", method]
    for flag in _FUZZ_FLAGS:
        if flag in added or (flag in needs and flag not in left_out):
            values = st.sampled_from(_FUZZ_VALUES)
            if flag in ("--null", "--alt"):
                values = st.just(law) | values
            argv += [flag, draw(values)]
    return argv


@given(data=st.data())
@settings(max_examples=500, derandomize=True, deadline=None)
def test_fuzzed_method_flags_never_end_in_a_traceback(fuzz_law_path, data):
    # every flag of every method present or absent, with numbers, non-numbers
    # and the law file as values: a result, a config error, an infeasible
    # query or a size cap, and never an exception out of main
    argv = data.draw(_fuzzed_argv(fuzz_law_path))
    assert _exit_code(argv) in (0, 2, 3, 4), argv


def test_a_zero_needed_value_is_given(capsys):
    # 0 == False, so a check written as `not in (None, False)` would lose it
    assert cli.main(["exponent", "--method", "binary", "--q", "0", "--rate", "0.5",
                     "--leak", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["theta_bits"] == binary_tai_exponent(0, 0.5, 0)


@pytest.mark.parametrize("argv", [
    ["sweep", "--q", "0.1", "--rate", "1:0:0.1", "--leak", "0.5"],
    ["gaussian", "--rho", "0.8", "--rate", "1", "--leak", "2:1:0.5"],
    ["approx", "--q", "0.1", "--grid", "0.02:0.01:0.005"],
], ids=["sweep", "gaussian", "approx"])
def test_descending_range_is_refused(argv, tmp_path, capsys):
    # each once wrote a CSV header with no rows and exited 0
    out = tmp_path / "curve.csv"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: range '")
    assert not out.exists()


@pytest.mark.parametrize("spec", ["0:1:0", "0:1:-0.5"])
def test_range_without_a_positive_step_is_refused(spec, tmp_path, capsys):
    # once a bare ValueError whose message did not name the range
    out = tmp_path / "curve.csv"
    argv = ["sweep", "--method", "binary", "--q", "0.1", "--rate", spec, "--leak", "0.5"]
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: range {spec!r} needs a positive step\n"
    assert not out.exists()


@pytest.mark.parametrize("spec, message", [
    ("0:1", "range '0:1' must be start:stop:step"),
    ("a,b", "values 'a,b' are not numbers"),
], ids=["two-parts", "not-numbers"])
def test_malformed_value_list_is_refused(spec, message, tmp_path, capsys):
    # each once a bare ValueError; the second did not name the list
    out = tmp_path / "curve.csv"
    argv = ["sweep", "--method", "binary", "--q", "0.1", "--rate", spec, "--leak", "0.5"]
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_simulate_refuses_a_mu_past_the_float_range(tmp_path, sim_config_path, capsys):
    # a 400-digit integer once ended in an OverflowError traceback
    text = open(sim_config_path).read().replace('"mu": 0.3', '"mu": ' + "1" * 400)
    path = tmp_path / "huge.json"
    path.write_text(text)
    assert cli.main(["simulate", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: config key 'mu' is too large for a float\n"


@pytest.mark.parametrize("key, value, match", [
    ("fixed_codebok", True, "unknown config key 'fixed_codebok'"),
    ("fixed_codebook", "no", "config key 'fixed_codebook' must be true or false"),
    ("trials", 2.9, "config key 'trials' 2.9 must be an integer"),
    ("n", 10.0, "config key 'n' 10.0 must be an integer"),
    ("seed", "7", "config key 'seed' '7' must be an integer"),
    ("mu", True, "config key 'mu' True must be a number"),
    ("rate", "0.5", "config key 'rate' '0.5' must be a number"),
    ("mu_prime", True, "config key 'mu_prime' True must be a number"),
    ("mu_prime", "0.8", "config key 'mu_prime' '0.8' must be a number"),
], ids=["misspelt-key", "string-bool", "float-trials", "float-n", "string-seed",
        "bool-mu", "string-rate", "bool-mu-prime", "string-mu-prime"])
def test_bad_simulate_config_values_are_refused(key, value, match, tmp_path,
                                                sim_config_path, capsys):
    # a misspelt key was ignored, "no" read as true, and 2.9 trials ran 2;
    # true ran as mu = 1, "0.5" as a rate, and "0.8" failed inside a comparison
    raw = json.loads(open(sim_config_path).read())
    raw[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["simulate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {match}")


def test_missing_rate_is_named(tmp_path, sim_config_path, capsys):
    raw = json.loads(open(sim_config_path).read())
    del raw["rate"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["simulate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: config key 'rate' None must be a number")


def test_integer_mu_is_accepted_as_a_number(tmp_path, sim_config_path):
    raw = json.loads(open(sim_config_path).read())
    raw.update(mu=1, mu_prime=2, trials=10)
    path = tmp_path / "int.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 0


def test_bsc_method_is_the_closed_form_without_a_grid(null_law_path, capsys):
    assert cli.main(["exponent", "--method", "bsc", "--null", null_law_path, "--rate", "0.5",
                     "--leak", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["theta_bits"] == pytest.approx(binary_tai_exponent(0.1, 0.5, 0.5), abs=1e-12)
    assert payload["grid_step"] is None


@pytest.mark.parametrize("step", ["0", "-1", "nan", "5e-324"])
def test_bad_grid_step_is_a_config_error(step, null_law_path, alt_law_path, capsys):
    # the grid searches no longer take a step, so every step is refused
    for method in (["thm1", "--leak", "0.5"], ["cor2"]):
        code = _exit_code(["exponent", "--method", *method, "--null", null_law_path,
                           "--alt", alt_law_path, "--rate", "0.5", "--grid-step", step])
        assert code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --grid-step" in err
        assert "Traceback" not in err


def test_nan_radius_is_a_config_error(sim_config_path, capsys):
    code = cli.main(["simulate", "--config", sim_config_path, "--mu", "nan"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config key 'mu' nan outside [0, inf]")
    assert "Traceback" not in err


def test_nan_gaussian_rate_is_a_config_error(capsys):
    # once wrote the row 0.8,nan,1.0,nan and exited 0
    code = cli.main(["gaussian", "--rho", "0.8", "--rate", "nan", "--leak", "1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: rate nan")


def test_nan_binary_rate_names_the_rate(capsys):
    # once named binary_entropy_inv, the helper the NaN reached
    code = cli.main(["exponent", "--method", "binary", "--q", "0.1",
                     "--rate", "nan", "--leak", "1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: rate nan")


def test_nan_tai_rate_is_a_config_error(null_law_path, capsys):
    # once raised Infeasible (exit 3) after building the search grid
    code = cli.main(["exponent", "--method", "tai", "--null", null_law_path,
                     "--rate", "nan", "--leak", "0.5"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: rate nan")


@pytest.mark.parametrize("argv", [
    ["sweep", "--rate", "0:inf:0.1", "--leak", "0.5", "--q", "0.1"],
    ["sweep", "--rate", "0.5", "--leak=-inf:1:0.5", "--q", "0.1"],
    ["sweep", "--rate", "0:1:nan", "--leak", "0.5", "--q", "0.1"],
    ["gaussian", "--rho", "0.5", "--rate", "0:inf:1", "--leak", "1"],
    ["gaussian", "--rho", "0:1:inf", "--rate", "1", "--leak", "1"],
    ["approx", "--q", "0.1", "--grid", "nan:0.02:0.005"],
    ["sweep", "--rate", "0:1e300:1e-300", "--leak", "0.5", "--q", "0.1"],
], ids=["sweep-inf-stop", "sweep-minus-inf-start", "sweep-nan-step",
        "gaussian-inf-stop", "gaussian-inf-step", "approx-nan-start",
        "sweep-overflowing-count"])
def test_non_finite_range_is_a_config_error(argv, capsys):
    # an infinite bound, or a point count past the float range, once ended in
    # an OverflowError traceback (exit 1)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: range '")
    assert "Traceback" not in err


# one command in a fresh interpreter whose address space is capped, so that
# a range built without a cap ends in a MemoryError, not in this machine's
# memory; the library is loaded before the clock starts
_TIMED_COMMAND = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))
import privexp.cli, privexp.euclid, privexp.exponents
started = time.monotonic()
code = privexp.cli.main(sys.argv[1:])
print(json.dumps([code, time.monotonic() - started]))
"""


@pytest.mark.parametrize("argv", [
    ["sweep", "--rate", "0:1:1e-300", "--leak", "0.1", "--q", "0.1"],
    ["approx", "--q", "0.1", "--grid", "0:1:1e-12"],
], ids=["sweep", "approx"])
def test_a_range_past_the_point_cap_exits_four(argv):
    # the sweep once ran until killed and the approx grid ended in a
    # MemoryError traceback (exit 1)
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", _TIMED_COMMAND, *argv], capture_output=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    code, seconds = json.loads(proc.stdout.decode().splitlines()[-1])
    assert code == cli.SIZE_EXIT
    assert seconds < 1.0
    assert re.fullmatch(r"error: range '0:1:1e-(300|12)' has 1e\+(300|12) points, more than "
                        r"1000000\n", proc.stderr.decode())


def test_a_range_holds_at_most_the_point_cap():
    cap = cli.MAX_RANGE_POINTS
    assert len(cli._parse_values(f"1:{cap}:1")) == cap
    with pytest.raises(TooLarge, match=f"'0:{cap}:1' has {cap + 1} points, more than {cap}"):
        cli._parse_values(f"0:{cap}:1")


def test_malformed_config_is_a_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"p_xy": {"kind": "joint"}}))
    assert cli.main(["simulate", "--config", str(bad)]) == 2


@pytest.mark.parametrize("flag", ["--null", "--alt"])
def test_law_file_that_is_not_an_object_is_a_config_error(flag, tmp_path, null_law_path,
                                                          alt_law_path, capsys):
    # a JSON array once ended in an AttributeError traceback
    bad = tmp_path / "list.json"
    bad.write_text("[0.5, 0.5]")
    laws = {"--null": null_law_path, "--alt": alt_law_path, flag: str(bad)}
    assert cli.main(["exponent", "--method", "zero-rate", "--null", laws["--null"],
                     "--alt", laws["--alt"]]) == 2
    assert capsys.readouterr().err == "error: a law must be a JSON object, got an array\n"


@pytest.mark.parametrize("text, match", [
    ("[1, 2]", "a simulation config must be a JSON object, got an array"),
    ("5", "a simulation config must be a JSON object, got a number"),
    ("law", "a law must be a JSON object, got an array"),
    ("no-law", "a simulation config has no 'p_xy' field"),
], ids=["array", "number", "array-law", "missing-law"])
def test_config_of_the_wrong_shape_is_a_config_error(text, match, tmp_path,
                                                     sim_config_path, capsys):
    # [1, 2] read as "unknown config key 1", 5 as "'int' object is not
    # iterable", a law [1] ended in an AttributeError traceback, and a
    # missing law was reported as the bare KeyError 'p_xy'
    if text in ("law", "no-law"):
        raw = json.loads(open(sim_config_path).read())
        if text == "law":
            raw["p_xy"] = [1]
        else:
            del raw["p_xy"]
        text = json.dumps(raw)
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert cli.main(["simulate", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {match}\n"


@pytest.mark.parametrize("data, match", [
    (b'{"kind": "joint", "probs": [0.5,', "{path} is not UTF-8 JSON: Expecting value"),
    (b'{"kind": "joint", "axes": ["X", "\xe9"]}', "{path} is not UTF-8 JSON: 'utf-8' codec"),
    (json.dumps({"kind": "joint", "probs": [0.45, 0.05, 0.05, 0.45], "shape": [-1, 2]}).encode(),
     r"joint 'shape' must hold positive integers, got \[-1, 2\]"),
], ids=["not-json", "not-utf8", "negative-shape"])
def test_malformed_law_file_is_a_config_error(data, match, tmp_path, alt_law_path, capsys):
    # the negative shape once ran as a 2x2 law and exited 0
    bad = tmp_path / "null.json"
    bad.write_bytes(data)
    assert cli.main(["exponent", "--method", "zero-rate", "--null", str(bad),
                     "--alt", alt_law_path]) == cli.CONFIG_EXIT
    err = capsys.readouterr().err
    assert re.match(f"error: {match.replace('{path}', re.escape(str(bad)))}", err), err


def test_an_internal_fault_is_not_a_config_error(monkeypatch):
    # only a ToolkitError or an OSError is the input's fault; anything else
    # ends in a traceback rather than in exit 2
    def boom(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "binary_tai_exponent", boom)
    with pytest.raises(ValueError, match="internal fault"):
        cli.main(["exponent", "--method", "binary", "--q", "0.1", "--rate", "1", "--leak", "1"])


def test_infeasible_maps_to_exit_three(monkeypatch):
    def boom(*args, **kwargs):
        raise Infeasible("no feasible point")

    monkeypatch.setattr(cli, "binary_tai_exponent", boom)
    assert cli.main(["exponent", "--method", "binary", "--q", "0.1",
                     "--rate", "1", "--leak", "1"]) == 3


def test_size_cap_maps_to_exit_four(tmp_path, dsbs01):
    cfg = {
        "p_xy": dsbs01.to_dict(),
        "n": 40,
        "mu": 0.3,
        "rate": 0.5,
        "seed": 1,
        "trials": 10,
        "hypothesis": "alt",
        "scheme": "memoryless",
        "mechanism": Channel.identity(2).to_dict(),
        "quantizer": Channel.identity(2).to_dict(),
        "fixed_codebook": True,
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["simulate", "--config", str(path)]) == 4


def test_a_run_past_the_table_budget_exits_four(tmp_path, dsbs01):
    # 3.3M count tables of one class: refused before any is built
    cfg = {
        "p_xy": dsbs01.to_dict(), "n": 33, "mu": 0.3, "rate": 0.5, "seed": 1, "trials": 10,
        "hypothesis": "alt", "scheme": "memoryless",
        "mechanism": Channel(np.ones((2, 1))).to_dict(),
        "quantizer": Channel(np.full((1, 7), 1 / 7)).to_dict(),
    }
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["simulate", "--config", str(path)]) == 4


def test_trial_cap_maps_to_exit_four(sim_config_path, capsys):
    raw = json.loads(open(sim_config_path).read())
    raw["trials"] = 10**8 + 1
    with open(sim_config_path, "w") as fh:
        json.dump(raw, fh)
    assert cli.main(["simulate", "--config", sim_config_path]) == cli.SIZE_EXIT
    assert capsys.readouterr().err.startswith("error: 100000001 trials exceed the cap")


# Commands without a search, a closed-form inverse or the oracle, then a
# search; run in a fresh interpreter, since this one has long since loaded
# scipy.optimize.
_LIGHT_COMMANDS = """
import contextlib, io, json, sys
import numpy as np
from privexp import Channel, JointPmf, SchemeConfig, cli
from privexp import run_memoryless_scheme, theorem1_lower_bound
null, alt = sys.argv[1:3]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(["--version"])
    except SystemExit:
        pass
    assert cli.main(["gaussian", "--rho", "0.8", "--rate", "0:1:0.5", "--leak", "0.5"]) == 0
    assert cli.main(["exponent", "--method", "zero-rate", "--null", null, "--alt", alt]) == 0
p = JointPmf(np.array([[0.45, 0.05], [0.05, 0.45]]), ("X", "Y"))
ident = Channel.identity(2)
run_memoryless_scheme(SchemeConfig(n=8, mu=0.35, rate=1.0, seed=1, trials=20,
                                   hypothesis="alt", mechanism=ident, quantizer=ident,
                                   scheme_kind="memoryless"), p)
loaded = lambda: sorted(m for m in ("scipy.optimize", "scipy.linalg") if m in sys.modules)
before = loaded()
theorem1_lower_bound(p, p, 0.5, 0.5)
print(json.dumps([before, loaded(), "scipy.optimize._slsqplib" in sys.modules]))
"""


def test_commands_without_a_search_do_not_load_the_optimizer(null_law_path, alt_law_path):
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", _LIGHT_COMMANDS, null_law_path,
                           alt_law_path], capture_output=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr.decode()
    before, after_search, kernel = json.loads(proc.stdout.decode().splitlines()[-1])
    assert before == []
    assert after_search == []  # a search runs SLSQP's compiled kernel alone
    assert kernel  # which is registered under its canonical name, so the checks can fail


def test_version_flag():
    proc = subprocess.run(
        [sys.executable, "-m", "privexp.cli", "--version"], capture_output=True
    )
    assert proc.returncode == 0
    assert proc.stdout.decode().strip() == "0.1.0"


def _cli_calls() -> dict[str, set[str]]:
    """Each function of the cli module: the names it calls, and "sys.stdout"
    where it touches that."""
    tree = ast.parse(Path(cli.__file__).read_text())
    calls = {}
    for fn in (node for node in tree.body if isinstance(node, ast.FunctionDef)):
        names = calls.setdefault(fn.name, set())
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                names.add(node.func.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and (node.value.id, node.attr) == ("sys", "stdout")):
                names.add("sys.stdout")
    return calls


def test_commands_return_their_results_and_main_writes_them():
    calls = _cli_calls()

    def writes(name, seen=frozenset()):
        # the function, or one of the module's functions it calls, writes output
        own = calls[name]
        return bool(own & {"open", "print", "sys.stdout"}) or any(
            writes(c, seen | {name}) for c in own if c in calls and c not in seen)

    commands = [name for name in calls if name.startswith("_cmd_")]
    assert len(commands) == 6
    assert [name for name in commands if writes(name)] == []
    assert [name for name, own in calls.items() if "_write" in own] == ["main"]
