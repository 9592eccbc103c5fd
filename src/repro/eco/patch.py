"""Dirty-region patching of interned CSR snapshots and dict graphs.

A topology-preserving edit leaves every array of the base design's
compiled work graph valid except the per-vertex ``delay`` column (gate
retypes change cell delays; everything else — names, edge arrays, CSR
adjacency, movability flags — is structure, which the edit preserved).
Instead of re-walking the dict graph, :func:`patch_compiled_delays`
builds a copy-on-write
:class:`~repro.kernels.CompiledGraph` that shares **every** array with
the base snapshot by reference and carries a freshly patched ``delay``
list — an O(dirty) operation independent of design size.

:func:`gate_delay_updates` computes which vertices are dirty and their
new delays from the edited circuit (vertex delay = cell delay + output
net delay; fanout counts are unchanged under a topology-preserving
edit, so only the cell term can move).
"""

from __future__ import annotations

from collections.abc import Iterable

from ..kernels import CompiledGraph
from ..netlist import Circuit
from ..timing.delay_models import DelayModel


def gate_delay_updates(
    edited: Circuit,
    delay_model: DelayModel,
    cg: CompiledGraph,
    gate_names: Iterable[str],
) -> dict[int, float]:
    """New delay per compiled-graph vertex id for the named gates.

    Only entries whose delay actually changed are returned, so an edit
    that re-types a gate without moving its delay (e.g. AND → OR under
    the unit-delay model) produces an empty patch and the caller can
    reuse the base solve outright.
    """
    updates: dict[int, float] = {}
    for name in gate_names:
        i = cg.index.get(name)
        if i is None:
            continue
        gate = edited.gates[name]
        fanout = len(edited.readers(gate.output))
        delay = delay_model.gate_delay(gate) + delay_model.net_delay(fanout)
        if delay != cg.delay[i]:
            updates[i] = delay
    return updates


def patch_compiled_delays(
    cg: CompiledGraph, updates: dict[int, float]
) -> CompiledGraph:
    """Copy-on-write delay patch of a compiled snapshot.

    Returns *cg* itself when *updates* is empty; otherwise a new
    :class:`~repro.kernels.CompiledGraph` sharing every array with *cg*
    by reference except ``delay``, which is a patched copy.  The base
    snapshot is never mutated, so every later edit starts from it.
    """
    if not updates:
        return cg
    patched = CompiledGraph()
    for slot in CompiledGraph.__slots__:
        setattr(patched, slot, getattr(cg, slot))
    delay = list(cg.delay)
    for i, value in updates.items():
        delay[i] = value
    patched.delay = delay
    return patched


def patch_graph_delays(graph, updates_by_name: dict[str, float]):
    """Patch vertex delays on a copy of a dict retiming graph.

    Used for the solver-facing work graph: the copy feeds the exact
    same ``min_period`` / ``min_area`` entry points as a cold solve, so
    the trajectory (and hence the result) is bit-identical to a cold
    build of the edited design.
    """
    copy = graph.copy()
    for name, delay in updates_by_name.items():
        vertex = copy.vertices.get(name)
        if vertex is not None:
            vertex.delay = delay
    return copy
