"""The compiled scipy kernels privexp calls, loaded without scipy's package imports.

``import scipy.special`` and ``import scipy.optimize`` each take about 0.3 s,
almost all of it in modules privexp never calls. This module loads the three
extension files that hold the four functions it does call straight from their
paths in scipy's package directory, which it finds without importing scipy, so
no package ``__init__`` runs, not even the root ``scipy`` one. Each is
registered in ``sys.modules`` under its canonical name, and an entry already
there is reused, so a process that also imports ``scipy.special`` or
``scipy.optimize`` holds the very same ufunc and kernel objects. It is the one
place that depends on where scipy (1.16 or later) keeps them.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

# scipy's package directory, found without running its __init__
_spec = importlib.util.find_spec("scipy")
if _spec is None:
    raise ModuleNotFoundError("privexp needs scipy>=1.16, found none", name="scipy")
_SCIPY = _spec.submodule_search_locations[0]


def _extension(name: str):
    """The compiled module ``name`` of scipy, loaded by path without its package."""
    if name in sys.modules:
        return sys.modules[name]
    stem = os.path.join(_SCIPY, *name.split(".")[1:])
    path = next((stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES
                 if os.path.exists(stem + suffix)), None)
    if path is None:
        from importlib.metadata import version  # slow to import, so only on this path

        raise ImportError(f"no compiled {name} in {_SCIPY}: "
                          f"privexp needs scipy>=1.16, found {version('scipy')}", name=name)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


_special_ufuncs = _extension("scipy.special._special_ufuncs")
xlogy, gammaln = _special_ufuncs.xlogy, _special_ufuncs.gammaln
slsqplib = _extension("scipy.optimize._slsqplib")  # holds the SLSQP kernel ``slsqp``
_brentq = _extension("scipy.optimize._zeros")._brentq
