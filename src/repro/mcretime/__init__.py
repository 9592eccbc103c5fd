"""Multiple-class retiming — the paper's contribution.

Public surface:

* :func:`mc_retime` — the full six-step engine (Sec. 5).
* :class:`Classifier` / :class:`RegisterClass` — Def. 1 classification.
* :func:`compute_bounds` — maximal fwd/bwd retiming bounds (Sec. 4.1).
* :func:`apply_sharing_transform` — separation vertices (Sec. 4.2).
* :func:`relocate` — register relocation with reset justification
  (Sec. 5.2).
"""

from .bounds import BoundsError, BoundsResult, compute_bounds
from .classes import Classifier, RegisterClass
from .engine import MCRetimeResult, mc_retime
from .relocate import (
    JustificationConflict,
    RelocationError,
    RelocationResult,
    merge_shareable_registers,
    relocate,
)
from .report import RetimeReport, format_table, report_from_result
from .reset import JustificationStats, implied_value, justify_pins
from .sharing import (
    Separation,
    SharingTransformResult,
    apply_sharing_transform,
)

__all__ = [
    "BoundsError",
    "BoundsResult",
    "Classifier",
    "JustificationConflict",
    "JustificationStats",
    "MCRetimeResult",
    "RegisterClass",
    "RelocationError",
    "RelocationResult",
    "RetimeReport",
    "Separation",
    "SharingTransformResult",
    "apply_sharing_transform",
    "compute_bounds",
    "format_table",
    "merge_shareable_registers",
    "implied_value",
    "justify_pins",
    "mc_retime",
    "relocate",
    "report_from_result",
]
