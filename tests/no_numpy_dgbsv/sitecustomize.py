"""Hide numpy's ``dgbsv`` from every process that has this directory on
``PYTHONPATH``, as on a numpy whose BLAS library does not export it
(numpy 1.x, a system or MKL BLAS, Windows). ``chcontrol.kernels`` then
solves every 1D step with SciPy's public ``dgbsv``, so that the tier-1
suite, run as

    PYTHONPATH=src:tests/no_numpy_dgbsv python -m pytest -q

checks the fallback path on a machine whose numpy has the routine.
"""

import ctypes

_getattr = ctypes.CDLL.__getattr__


def _hide_numpy_dgbsv(lib, name):
    if name == "scipy_dgbsv_64_":
        raise AttributeError(name)
    return _getattr(lib, name)


ctypes.CDLL.__getattr__ = _hide_numpy_dgbsv
