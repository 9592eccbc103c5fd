"""Delay models and static timing analysis."""

from .delay_models import (
    DelayModel,
    UNIT_DELAY,
    XC4000E_DELAY,
    XC4000EDelayModel,
)
from .sta import TimingResult, analyze, combinational_depth

__all__ = [
    "DelayModel",
    "TimingResult",
    "UNIT_DELAY",
    "XC4000E_DELAY",
    "XC4000EDelayModel",
    "analyze",
    "combinational_depth",
]
