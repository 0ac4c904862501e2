"""Skip Graph overlay simulator with churn stabilization and availability prediction.

The package root exports nothing.  Callers import the submodules:
``skipchurn.cli`` for the ``run``, ``predict-bench`` and ``analyze`` commands,
and ``skipchurn.engine``, ``skipchurn.overlay``, ``skipchurn.stabilizers``,
``skipchurn.predictors``, ``skipchurn.churn``, ``skipchurn.bench`` and
``skipchurn.analytics`` for their parts.

BLAS runs on one thread.  OpenBLAS solves a system of 128 states or more to
different bits with one thread than with several, so a result would depend on
the machine's core count; the small SW-DBG solves also gain nothing from a
second thread.  Importing the package therefore sets ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1, overriding the environment,
which covers numpy imported later and spawned workers.  When numpy was
imported first, the variables come too late, and the package sets the thread
count of the OpenBLAS bundled in numpy's wheel directly; where numpy has no
such library (a conda or distribution build, say), it warns that the thread
count is unknown.
"""

import os
import sys
import warnings

__version__ = "0.1.0"


def _pin_loaded_openblas() -> bool:
    """Set the thread count of the OpenBLAS that numpy already loaded to 1;
    False if numpy bundles no OpenBLAS with that setter."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        set_threads = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None)
        if set_threads is not None:
            set_threads.argtypes = [ctypes.c_int]
            set_threads.restype = None
            set_threads(1)
            return True
    return False


for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
if "numpy" in sys.modules and not _pin_loaded_openblas():
    warnings.warn(
        "numpy was imported before skipchurn and its BLAS thread count could not be set; "
        "results may depend on the core count unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS "
        "and MKL_NUM_THREADS are 1 before numpy is imported",
        RuntimeWarning,
    )
