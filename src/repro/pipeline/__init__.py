"""Throughput transforms built on multiple-class retiming.

Pipelining (insert K output register layers, retime to balance) and
C-slow (replicate every register C times for C-way thread interleaving,
retime to spread the chains).  Both run as a step of the one retime
flow (:func:`repro.flows.run_flow` with ``transform="pipeline"`` or
``"cslow"``).  See ``docs/PIPELINE.md`` for the per-register-class
legality argument and the verification strategy.
"""

from .transform import PipelineError, cslow_transform, insert_pipeline_layers

__all__ = [
    "PipelineError",
    "cslow_transform",
    "insert_pipeline_layers",
]
