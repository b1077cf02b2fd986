"""Bounds-constrained L2 polynomial approximation in the Bernstein basis."""

import os
import sys

# BLAS threads only add overhead on the package's small matrices, and cost
# several times over when another process holds a core.  The pool is sized
# when numpy loads, so pin it only if numpy is not loaded yet; a thread
# count set in the environment is kept.
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")
    del _var

from .bernstein import PolyCoeffs, evaluate, poly  # noqa: E402

__all__ = ["PolyCoeffs", "evaluate", "poly"]
