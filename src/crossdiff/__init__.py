"""crossdiff: finite-volume simulation and estimate-verifying diagnostics
for a two-species cross-diffusion system with fast-diffusion pressure on
the periodic unit interval."""

from .grid import Field, GridSpec, integrate, make_grid
from .model import Nonlinearity, PotentialPair, ProblemSpec, build_potentials
from .transforms import shifted_gradient, to_sum_ratio
from .solver import SolverError, StepLog, StepRecord, Trajectory, advance, cfl_dt, run
from .diagnostics import (DiagnosticsReport, TestFunctionBank, build_report,
                          bv_norms, dissipation_beta, energy, entropy,
                          equicontinuity_moduli, lebesgue_norms,
                          make_test_bank, weak_residual)
from .study import StudyPlan, StudyReport, fit_rate, prolong, run_study

__version__ = "0.1.0"

__all__ = [
    "Field", "GridSpec", "integrate", "make_grid",
    "Nonlinearity", "PotentialPair", "ProblemSpec", "build_potentials",
    "shifted_gradient", "to_sum_ratio",
    "SolverError", "StepLog", "StepRecord", "Trajectory", "advance", "cfl_dt", "run",
    "DiagnosticsReport", "TestFunctionBank", "build_report", "bv_norms",
    "dissipation_beta", "energy", "entropy", "equicontinuity_moduli",
    "lebesgue_norms", "make_test_bank", "weak_residual",
    "StudyPlan", "StudyReport", "fit_rate", "prolong", "run_study",
    "__version__",
]
