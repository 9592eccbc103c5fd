"""Compiled integer-indexed kernels for the retiming hot loops.

A graph is interned once into flat index arrays (:mod:`.compiled_graph`)
and the three hot sweeps — CP/Δ (:mod:`.delta`), the
difference-constraint solver (:mod:`.diffsys`) and min-cost flow
(:mod:`.mcf`) — run over integers with incremental re-evaluation
between lazy-constraint rounds.  The min-period and min-area loops in
:mod:`repro.retime` are built on them.  :mod:`.sim` is the bit-parallel
sequential simulator the verification subsystem runs on: 64 stimulus
lanes per Python-int word over an interned netlist, with full
generic-register (EN/SR/AR) and ternary semantics.
"""

from __future__ import annotations

from .compiled_graph import CompiledGraph, compile_graph
from .delta import KernelSweep, delta_sweep, refresh
from .diffsys import CompiledSystem
from .mcf import IntMinCostFlow
from .sim import (
    BitSimulator,
    CompiledCircuit,
    broadcast,
    compile_circuit,
    pack_lanes,
    pack_vectors,
    unpack_lane,
)

__all__ = [
    "BitSimulator",
    "CompiledCircuit",
    "CompiledGraph",
    "CompiledSystem",
    "IntMinCostFlow",
    "KernelSweep",
    "broadcast",
    "compile_circuit",
    "compile_graph",
    "delta_sweep",
    "pack_lanes",
    "pack_vectors",
    "unpack_lane",
    "refresh",
]
