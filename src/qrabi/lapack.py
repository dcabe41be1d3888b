"""The five LAPACK routines the package calls: ``dstebz``, ``dstein``,
``dgttrf``, ``dgttrs`` and ``dsyev``.

They are scipy's own f2py wrappers from its ``_flapack`` extension, loaded
by file so that ``scipy/linalg/__init__.py`` does not run: that import costs
about 0.3 s of start-up, most of it array-API machinery the package never
uses. The module is registered under its own name, ``scipy.linalg._flapack``,
so a later ``import scipy.linalg`` (the PP optimizer's ``scipy.optimize``)
reuses it and both see the same routine objects. ``_flapack`` is private to
scipy; when the file is not found or does not load, the routines come from
``scipy.linalg.lapack``, which wraps the same extension.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

_NAME = "scipy.linalg._flapack"


def _load_flapack():
    """scipy's ``_flapack`` extension module without importing ``scipy.linalg``,
    or None when its file is not found or does not load."""
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    linalg = os.path.join(spec.submodule_search_locations[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(linalg, "_flapack" + suffix)
        if not os.path.isfile(path):
            continue
        loader = importlib.machinery.ExtensionFileLoader(_NAME, path)
        module_spec = importlib.util.spec_from_file_location(_NAME, path, loader=loader)
        try:
            module = importlib.util.module_from_spec(module_spec)
            loader.exec_module(module)
        except (ImportError, OSError):
            return None
        sys.modules[_NAME] = module
        return module
    return None


_flapack = _load_flapack()
if _flapack is None:
    from scipy.linalg.lapack import dgttrf, dgttrs, dstebz, dstein, dsyev
else:
    dgttrf, dgttrs, dstebz, dstein, dsyev = (
        _flapack.dgttrf, _flapack.dgttrs, _flapack.dstebz, _flapack.dstein, _flapack.dsyev)

__all__ = ["dgttrf", "dgttrs", "dstebz", "dstein", "dsyev"]
