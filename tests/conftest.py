"""Test-session setup.

BLAS is pinned to one thread before anything imports numpy, as in
``perfbench``.  Threaded OpenBLAS leaves its workers spinning after a large
product (criterion 9's tensor quadrature), and they take the CPU from the
timed windows that follow, such as criterion 11's speedup ratio.  A caller
that sets these variables keeps its own values.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
