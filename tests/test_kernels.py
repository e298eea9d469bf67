"""The scipy kernels loaded without their packages and the modules each command
loads, each in a fresh interpreter, and the private numpy solve the
I-projection takes its Newton steps with.

This interpreter has long since imported ``scipy.special`` and
``scipy.optimize`` through the tests, so every check of what a process loads
runs in a subprocess. The root ``scipy`` package counts among them: its
``__init__`` takes about 8 ms, and the kernels load without it. ``numpy.ma``
is checked with the scipy packages: numpy imports it on a bare ``np.unique``'s
first call, and it costs 10-15 ms.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

import privexp
from privexp import Channel, binary_entropy, binary_entropy_inv, dump_json

SRC = str(Path(privexp.__file__).parents[1])

PACKAGES = ("scipy", "scipy.special", "scipy.optimize", "scipy.linalg", "numpy.ma")


def run(script: str, *args: str) -> str:
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode().splitlines()[-1]


_COLD_COMMAND = """
import contextlib, io, json, sys
import privexp.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = privexp.cli.main(sys.argv[1:])
    except SystemExit as e:  # argparse's --version, --help and usage errors
        code = e.code
print(json.dumps([code, sorted(sys.modules)]))
"""


@pytest.mark.parametrize("argv, code", [(["--version"], 0), (["--help"], 0),
                                        (["exponent", "--method"], 2)],
                         ids=["version", "help", "usage-error"])
def test_a_command_that_calls_no_library_loads_no_numpy(argv, code):
    got, modules = json.loads(run(_COLD_COMMAND, *argv))
    assert got == code
    assert [m for m in modules if m == "numpy" or m.startswith("numpy.")] == []
    assert [m for m in modules if m.startswith("privexp")] == [
        "privexp", "privexp.cli", "privexp.errors"]


def test_a_cold_tai_query_loads_no_scipy_package(tmp_path, dsbs01):
    law = tmp_path / "null.json"
    dump_json(dsbs01, law)
    code, modules = json.loads(run(_COLD_COMMAND, "exponent", "--method", "tai", "--null",
                                   str(law), "--rate", "0.5", "--leak", "0.5"))
    assert code == 0
    assert [m for m in PACKAGES if m in modules] == []
    # the kernel's module is registered under its canonical name, so the check can fail
    assert "scipy.optimize._slsqplib" in modules
    # the command loads the modules whose names it calls, and no other
    assert [m for m in ("privexp.simkit", "privexp.euclid", "privexp.gaussian")
            if m in modules] == []


def test_selftest_and_an_alternative_simulation_load_no_scipy_package(tmp_path, dsbs01):
    # both once imported all of scipy.special for the Clopper-Pearson bound
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({
        "p_xy": dsbs01.to_dict(), "n": 10, "mu": 0.3, "rate": 0.5, "seed": 7, "trials": 1500,
        "hypothesis": "alt", "scheme": "memoryless",
        "mechanism": Channel.identity(2).to_dict(), "quantizer": Channel.identity(2).to_dict(),
    }))
    for argv in (["selftest", "--seed", "3"], ["simulate", "--config", str(config)]):
        code, modules = json.loads(run(_COLD_COMMAND, *argv))
        assert code == 0, argv
        assert [m for m in PACKAGES if m in modules] == [], argv
        assert "scipy.special._special_ufuncs" in modules, argv


_SAME_OBJECTS = """
import json, sys
if sys.argv[1] == "scipy first":
    import scipy.optimize, scipy.special
    from privexp import _kernels
else:
    from privexp import _kernels
    import scipy.optimize, scipy.special
from scipy.optimize import _slsqplib, _zeros
print(json.dumps([_kernels.xlogy is scipy.special.xlogy,
                  _kernels.gammaln is scipy.special.gammaln,
                  _kernels.slsqplib.slsqp is _slsqplib.slsqp,
                  _kernels._brentq is _zeros._brentq]))
"""


def test_the_kernels_are_scipys_own_objects_in_either_import_order():
    for order in ("scipy first", "privexp first"):
        assert json.loads(run(_SAME_OBJECTS, order)) == [True] * 4, order


def test_binary_entropy_inverse_is_public_brentq_bit_for_bit():
    hs = np.linspace(0.0, 1.0, 2001)[1:-1].tolist()
    public = [brentq(lambda p, h=h: binary_entropy(p) - h, 0.0, 0.5, xtol=1e-13) for h in hs]
    assert [binary_entropy_inv(h) for h in hs] == public


def test_a_missing_kernel_file_refuses_the_import_naming_the_scipy_floor():
    from privexp import _kernels

    with pytest.raises(ImportError, match=r"scipy>=1\.16"):
        _kernels._extension("scipy.optimize._no_such_kernel")
    assert "scipy.optimize._no_such_kernel" not in sys.modules


# scipy releases checked against what ``_kernels`` and ``lockstep`` take from
# scipy's private modules: the three extension files ``_kernels`` loads and
# the calling convention of the SLSQP kernel ``lockstep`` drives
CHECKED_SCIPY = ("1.17.1",)


def test_scipy_is_a_release_the_private_kernels_were_checked_on():
    import scipy

    assert scipy.__version__ in CHECKED_SCIPY, (
        f"scipy {scipy.__version__} is not among the checked releases {CHECKED_SCIPY}. "
        "Re-verify that tests/test_exponents.py::"
        "test_lockstep_driver_follows_scipy_slsqp_member_by_member passes and that "
        "privexp._kernels loads scipy.special._special_ufuncs, scipy.optimize._slsqplib "
        "and scipy.optimize._zeros (the other tests of this file), then add the release "
        "to CHECKED_SCIPY and to the README's dependency paragraph")


# numpy releases checked against what ``iproject._solve`` takes from numpy's
# private modules: the stacked LAPACK solve ``numpy.linalg._umath_linalg.solve1``
CHECKED_NUMPY = ("2.4.6",)


def test_numpy_is_a_release_the_private_solve_was_checked_on():
    assert np.__version__ in CHECKED_NUMPY, (
        f"numpy {np.__version__} is not among the checked releases {CHECKED_NUMPY}. "
        "Re-verify that tests/test_kernels.py::"
        "test_a_singular_member_of_a_stacked_solve_is_nan_and_the_others_are_exact passes "
        "and that tests/test_iproject.py and the Theorem-1 bit tests of "
        "tests/test_exponents.py pass, then add the release to CHECKED_NUMPY and to the "
        "README's dependency paragraph")


def test_a_singular_member_of_a_stacked_solve_is_nan_and_the_others_are_exact():
    # what iproject._solve relies on: one singular matrix in a batch gives NaN
    # for its own member, which the line search refuses, and leaves every
    # other member with np.linalg.solve's bits, in place of an exception for
    # the whole batch
    from numpy.linalg._umath_linalg import solve1

    rng = np.random.default_rng(0)
    a = rng.random((4, 3, 3))
    a[2] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]
    b = rng.random((4, 3))
    with np.errstate(invalid="ignore"):
        x = solve1(a, b, signature="dd->d")
    assert np.isnan(x[2]).all()
    for i in (0, 1, 3):
        assert x[i].tobytes() == np.linalg.solve(a[i], b[i]).tobytes(), i
    # without the errstate the NaN is a RuntimeWarning, which this suite makes an error
    with pytest.warns(RuntimeWarning, match="invalid value encountered in solve1"):
        solve1(a, b, signature="dd->d")
