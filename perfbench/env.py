"""Process environment for the benchmark: BLAS pinning and the source path.

Imported before numpy by every benchmark process, because OpenBLAS reads
its thread count once, when the library loads.
"""

import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

# One BLAS thread: the machine the benchmark was written on has two cores,
# and with two threads `train` converges to different weights (not only
# different timings) while running no faster.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(RuntimeError):
    """The checkout does not hold what the benchmark needs."""


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS


def use_checkout_source() -> None:
    """Put the checkout's `src` first on the path and check smibctrl loads from it."""
    if not os.path.isdir(os.path.join(SRC, "smibctrl")):
        raise SetupError(f"no smibctrl package under {SRC}")
    sys.path.insert(0, SRC)
    import smibctrl

    where = os.path.realpath(smibctrl.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SetupError(f"smibctrl was imported from {where}, not from {SRC}")


def git_revision() -> str:
    """HEAD of the checkout read from .git, or a note when it is not a git tree."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _openblas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def describe() -> dict:
    """Versions and thread settings of this process, after numpy is loaded."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads_runtime": _openblas_threads(),
    }
