"""The three compiled scipy kernels the package calls, loaded without their packages.

The solver needs LAPACK's tridiagonal ``gtsv``/``gttrf``/``gttrs``
(:data:`lapack`), and its modal tail pocketfft's DST (:func:`dst`,
:func:`prev_fast_len`); :func:`model.psi` needs ``erfc``.  Importing
``scipy.linalg``, ``scipy.fft`` and ``scipy.special`` for them would also load
those packages' pure-Python layers and, through them, ``numpy.f2py``,
``numpy.testing``, ``numpy.ma`` and ``numpy.random``.  So the three extension
modules are loaded from their files beside ``scipy/__init__.py``, each under
its canonical name in ``sys.modules``: a later ``import scipy.special`` (or
``scipy.linalg``, ``scipy.fft``) reuses the same module, so its public names
are the very objects used here.  (Loaded before its package, such a module
is not an attribute of the package: ``from scipy.linalg import _flapack``
finds it, ``scipy.linalg._flapack`` does not.)  If a file is missing or does
not load, or ``erfc`` is not in ``_special_ufuncs`` (older scipy), the public
names are imported instead; both paths call the same kernels with the same
arguments.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import scipy


def _extension(name: str):
    """The extension module ``name`` (``scipy.<package>.<module>``), loaded once."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    stem = Path(scipy.__file__).parent.joinpath(*name.split(".")[1:])
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = stem.with_name(stem.name + suffix)
        if path.is_file():
            break
    else:
        raise ImportError(f"no extension file for {name}", name=name)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


try:
    erfc = _extension("scipy.special._special_ufuncs").erfc
    lapack = _extension("scipy.linalg._flapack")
    _pocketfft = _extension("scipy.fft._pocketfft.pypocketfft")
except (ImportError, AttributeError):
    from scipy.fft import dst, prev_fast_len
    from scipy.linalg import lapack
    from scipy.special import erfc
else:
    def dst(x, type):
        """``scipy.fft.dst(x, type=type)`` of a float64 array: the call it makes,
        along the last axis, without normalisation, on one thread."""
        return _pocketfft.dst(x, type, (-1,), 0, None, 1, None)

    def prev_fast_len(n):
        """``scipy.fft.prev_fast_len(n)``: the largest fast length ``<= n``."""
        return _pocketfft.prev_good_size(n, False)
