"""Sub-optimal moving horizon estimation in closed loop.

Solves each estimation window for a fixed number of projected-gradient
iterations, warm-started from the previous step, and feeds the resulting
estimate to a Lipschitz state-feedback law. The analysis side computes the
small-gain iteration budget that certifies input-to-state stability of the
interconnection and checks the per-step inequalities as runtime monitors.

BLAS defaults to one thread before numpy is first imported, since every
matrix here is window-sized; a value already in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
