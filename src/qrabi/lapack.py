"""The compiled scipy routines the package calls: the five LAPACK routines
``dstebz``, ``dstein``, ``dgttrf``, ``dgttrs`` and ``dsyev``, and L-BFGS-B's
``setulb`` (``lbfgsb``).

They are scipy's own wrappers from its ``_flapack`` and ``_lbfgsb``
extensions, loaded by file so that neither ``scipy/linalg/__init__.py`` nor
``scipy/optimize/__init__.py`` runs: those imports cost about 0.3 s of
start-up each, most of it machinery the package never uses, and
``scipy.optimize`` another 41 MB of memory. Each module is registered under
its own name, ``scipy.linalg._flapack`` and ``scipy.optimize._lbfgsb``, so a
later ``import scipy.linalg`` or ``import scipy.optimize`` reuses it and
both see the same routine objects. ``_flapack`` is loaded at import;
``_lbfgsb`` at the first L-BFGS-B run, so that the ED commands never load
it. Both are private to scipy; when a file is not found or does not load,
the routines come from ``scipy.linalg.lapack`` and
``scipy.optimize._lbfgsb``, the package imports of the same extensions.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys


def _load_extension(subpackage: str, name: str):
    """scipy's extension module ``scipy.<subpackage>.<name>`` without importing
    ``scipy.<subpackage>``, or None when its file is not found or does not load."""
    full_name = f"scipy.{subpackage}.{name}"
    if full_name in sys.modules:
        return sys.modules[full_name]
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    directory = os.path.join(spec.submodule_search_locations[0], subpackage)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, name + suffix)
        if not os.path.isfile(path):
            continue
        loader = importlib.machinery.ExtensionFileLoader(full_name, path)
        module_spec = importlib.util.spec_from_file_location(full_name, path, loader=loader)
        try:
            module = importlib.util.module_from_spec(module_spec)
            loader.exec_module(module)
        except (ImportError, OSError):
            return None
        sys.modules[full_name] = module
        return module
    return None


_flapack = _load_extension("linalg", "_flapack")
if _flapack is None:
    from scipy.linalg.lapack import dgttrf, dgttrs, dstebz, dstein, dsyev
else:
    dgttrf, dgttrs, dstebz, dstein, dsyev = (
        _flapack.dgttrf, _flapack.dgttrs, _flapack.dstebz, _flapack.dstein, _flapack.dsyev)


def lbfgsb():
    """scipy's ``_lbfgsb`` extension module, whose ``setulb`` runs L-BFGS-B by
    reverse communication; loaded at the first call and found in
    ``sys.modules`` after it."""
    module = _load_extension("optimize", "_lbfgsb")
    if module is None:
        from scipy.optimize import _lbfgsb as module
    return module


__all__ = ["dgttrf", "dgttrs", "dstebz", "dstein", "dsyev"]
