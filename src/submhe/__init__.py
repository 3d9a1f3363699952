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

from .analysis import (AnalysisParams, GainLedger, budget_constants,
                       build_params, compute_rho, ledger_at, min_iterations)
from .controller import (FeedbackLaw, assert_stabilizing, closed_loop_gain,
                         evaluate)
from .harness import (LipschitzProbe, ScenarioConfig, TrajectoryLog,
                      lipschitz_probe, monitor_step, run_closed_loop,
                      sample_disturbance_arrays)
from .mhe import (MheProblem, build_problem, compute_weight, extract_estimate,
                  sigma_lift)
from .model import (Box, IossCertificate, LtiSystem, find_certificate,
                    validate_system, verify_ioss_lmi, w_delta)
from .solver import (KERNEL_BACKEND, OracleReport, SolveReport,
                     solve_fixed_iters, solve_oracle)
from .config import ConfigDocument, load_config

__version__ = "0.1.0"

__all__ = [
    "AnalysisParams", "Box", "ConfigDocument", "FeedbackLaw",
    "GainLedger", "IossCertificate", "KERNEL_BACKEND", "LipschitzProbe",
    "LtiSystem", "MheProblem", "OracleReport", "ScenarioConfig", "SolveReport",
    "TrajectoryLog",
    "budget_constants", "assert_stabilizing", "build_params", "build_problem",
    "closed_loop_gain", "compute_rho", "compute_weight", "evaluate",
    "extract_estimate", "find_certificate", "ledger_at", "lipschitz_probe",
    "load_config", "min_iterations", "monitor_step", "run_closed_loop",
    "sample_disturbance_arrays", "sigma_lift", "solve_fixed_iters",
    "solve_oracle", "validate_system", "verify_ioss_lmi", "w_delta",
]
