"""Basic retiming engine: FEAS, min-period, min-cost-flow min-area."""

from .constraints import Constraint, InfeasibleError
from .dense import (
    dense_period_system,
    feasible_retiming_dense,
    min_area_dense,
    min_period_dense,
)
from .feas import clock_period, feas
from .minarea import AreaResult, min_area
from .minperiod import (
    FeasibilityResult,
    MinPeriodResult,
    base_system,
    check_period,
    feasible_retiming,
    min_period,
)
from .sharing_model import (
    SharingModel,
    build_sharing_model,
    shared_register_count,
)
from .wd import candidate_periods, wd_from_source, wd_matrices

__all__ = [
    "AreaResult",
    "Constraint",
    "FeasibilityResult",
    "InfeasibleError",
    "MinPeriodResult",
    "SharingModel",
    "base_system",
    "build_sharing_model",
    "candidate_periods",
    "check_period",
    "clock_period",
    "dense_period_system",
    "feasible_retiming_dense",
    "min_area_dense",
    "min_period_dense",
    "feas",
    "feasible_retiming",
    "min_area",
    "min_period",
    "shared_register_count",
    "wd_from_source",
    "wd_matrices",
]
