"""The one-BLAS-thread pin shared by the command-line entry points.

lm_train runs its record blocks on threads of its own; OpenBLAS threads on
top of them would oversubscribe the cores and make the trained weights
depend on the machine's BLAS thread count.  The pin only takes effect if
it runs before numpy loads, so this module imports nothing that loads it.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Set each BLAS thread variable the environment leaves unset to 1."""
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
