"""numpy, loaded with a one-thread OpenBLAS pool and the garbage collector paused.

Every partialflow module that uses numpy takes ``np`` from here, so the
first of them to load numpy pins the pool, and commands that need no numpy
never load it.
"""

import gc
import os
import sys

# numpy's OpenBLAS starts a second thread at load that spins idle: ~0.13 s of CPU per
# command on a 2-vCPU host, for BLAS calls too small to use it. OpenBLAS reads the count
# only at load, so the variable is removed again and no child process inherits it.
# The import's ~29 cyclic collections (~5.5 ms) free next to nothing, so they are skipped.
if "numpy" not in sys.modules and not {
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    collecting = gc.isenabled()
    gc.disable()
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
        if collecting:
            gc.enable()

import numpy as np  # noqa: E402
