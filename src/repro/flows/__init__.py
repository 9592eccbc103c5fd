"""Synthesis-script flows mirroring the paper's experimental setups."""

from .script import (
    FlowResult,
    baseline_flow,
    cslow_flow,
    decomposed_enable_flow,
    pipeline_flow,
    retime_flow,
    run_flow,
)

__all__ = [
    "FlowResult",
    "baseline_flow",
    "cslow_flow",
    "decomposed_enable_flow",
    "pipeline_flow",
    "retime_flow",
    "run_flow",
]
