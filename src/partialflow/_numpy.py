"""numpy, loaded on first use with a one-thread OpenBLAS pool.

Every partialflow module that uses numpy takes ``np`` from here: a stand-in
that imports numpy when one of its attributes is first read. So importing a
module loads no numpy, the first layer that runs numpy pins the pool, and
commands that run no numpy layer never load it.
"""

import os
import sys


class _Numpy:
    """Looks each name up on numpy once, then holds it as its own attribute."""

    def __getattr__(self, name: str):
        # numpy's OpenBLAS starts a second thread at load that spins idle: ~0.13 s of CPU per
        # command on a 2-vCPU host, for BLAS calls too small to use it. OpenBLAS reads the
        # count only at load, so the variable is removed again and no child process inherits it.
        if "numpy" not in sys.modules and not {
                "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
            try:
                import numpy  # noqa: F401
            finally:
                del os.environ["OPENBLAS_NUM_THREADS"]
        import numpy

        setattr(self, name, getattr(numpy, name))
        return self.__dict__[name]


np = _Numpy()
