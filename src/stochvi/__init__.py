"""Solvers, constants and verification oracles for unconstrained stochastic
variational inequalities over finite-sum operators."""

from . import constants, experiments, numerics, operators, sampling, solvers, verify
from .operators import CosineOperator, FiniteSumOperator, QuadraticGame
from .sampling import SamplingScheme
from .solvers import (
    ConstantSchedule,
    RunTrace,
    SwitchingSchedule,
    run_batch,
)

__version__ = "0.1.0"

__all__ = [
    "CosineOperator",
    "FiniteSumOperator",
    "QuadraticGame",
    "SamplingScheme",
    "ConstantSchedule",
    "SwitchingSchedule",
    "RunTrace",
    "run_batch",
    "constants",
    "experiments",
    "numerics",
    "operators",
    "sampling",
    "solvers",
    "verify",
]
