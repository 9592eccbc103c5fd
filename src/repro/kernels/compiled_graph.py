"""Interned, integer-indexed form of a :class:`RetimingGraph` (CSR).

The dict-based graph is ideal for construction and transformation but
terrible for the retiming hot loops: every CP/Δ sweep, every SPFA
relaxation and every min-cost-flow build re-hashes vertex-name strings
millions of times.  ``compile_graph`` walks the graph once and produces
flat integer arrays:

* ``names`` / ``index`` — the vertex interning table (ids follow the
  graph's vertex insertion order, so kernel iteration orders, and with
  them every result, never depend on string hashing);
* ``eu/ev/ew`` — per-edge source / target / weight arrays in edge
  *insertion* order (the order ``graph.edges.values()`` yields);
* CSR adjacency (``out_start``/``out_edges`` and ``in_start`` /
  ``in_edges``) for incremental cone traversals.

The edge arrays are also mirrored as ``int64`` ndarrays so the
per-sweep retimed-weight evaluation of large graphs vectorises.

A compiled graph is a *snapshot*: mutating the source graph (including
in-place ``edge.w`` edits, which mc-steps perform) invalidates it.
Callers compile once per solver invocation, which is exactly the
pattern the retiming loops need — one compile, thousands of sweeps.
"""

from __future__ import annotations

import numpy as _np

from .. import obs
from ..graph.retiming_graph import HOST, RetimingGraph


class CompiledGraph:
    """Flat integer-array snapshot of a retiming graph."""

    __slots__ = (
        "n",
        "m",
        "names",
        "index",
        "delay",
        "movable",
        "is_mirror",
        "host",
        "through_host",
        "eu",
        "ev",
        "ew",
        "src_host",
        "out_start",
        "out_edges",
        "in_start",
        "in_edges",
        "eu_np",
        "ev_np",
        "ew_np",
        "src_host_np",
    )

    def r_array(self, r: dict[str, int] | None) -> list[int]:
        """Densify a (possibly partial) retiming dict into an id-indexed list."""
        out = [0] * self.n
        if r:
            index = self.index
            for name, value in r.items():
                i = index.get(name)
                if i is not None and value:
                    out[i] = value
        return out

    def r_dict(self, r: list[int]) -> dict[str, int]:
        """Inverse of :meth:`r_array`, preserving vertex insertion order."""
        names = self.names
        return {names[i]: r[i] for i in range(self.n)}


def compile_graph(graph: RetimingGraph) -> CompiledGraph:
    """Snapshot *graph* into a :class:`CompiledGraph`."""
    obs.count("kernels.compile_graph")
    cg = CompiledGraph()
    names = list(graph.vertices)
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    cg.n = n
    cg.names = names
    cg.index = index
    cg.delay = [graph.vertices[name].delay for name in names]
    cg.movable = bytearray(
        1 if graph.vertices[name].movable else 0 for name in names
    )
    cg.is_mirror = bytearray(
        1 if graph.vertices[name].kind == "mirror" else 0 for name in names
    )
    cg.host = index.get(HOST, -1)
    cg.through_host = graph.combinational_host

    # edge arrays in graph edge order
    eu: list[int] = []
    ev: list[int] = []
    ew: list[int] = []
    src_host = bytearray()
    for edge in graph.edges.values():
        ui = index[edge.u]
        eu.append(ui)
        ev.append(index[edge.v])
        ew.append(edge.w)
        src_host.append(1 if graph.vertices[edge.u].kind == "host" else 0)
    m = len(eu)
    cg.m = m
    cg.eu = eu
    cg.ev = ev
    cg.ew = ew
    cg.src_host = src_host

    # CSR adjacency (edge indices), per-vertex lists in edge order
    out_count = [0] * n
    in_count = [0] * n
    for k in range(m):
        out_count[eu[k]] += 1
        in_count[ev[k]] += 1
    out_start = [0] * (n + 1)
    in_start = [0] * (n + 1)
    for i in range(n):
        out_start[i + 1] = out_start[i] + out_count[i]
        in_start[i + 1] = in_start[i] + in_count[i]
    out_edges = [0] * m
    in_edges = [0] * m
    out_fill = list(out_start[:n])
    in_fill = list(in_start[:n])
    for k in range(m):
        u, v = eu[k], ev[k]
        out_edges[out_fill[u]] = k
        out_fill[u] += 1
        in_edges[in_fill[v]] = k
        in_fill[v] += 1
    cg.out_start = out_start
    cg.out_edges = out_edges
    cg.in_start = in_start
    cg.in_edges = in_edges

    if m:
        cg.eu_np = _np.asarray(eu, dtype=_np.int64)
        cg.ev_np = _np.asarray(ev, dtype=_np.int64)
        cg.ew_np = _np.asarray(ew, dtype=_np.int64)
        cg.src_host_np = _np.frombuffer(bytes(src_host), dtype=_np.uint8) != 0
    else:
        cg.eu_np = cg.ev_np = cg.ew_np = cg.src_host_np = None
    return cg
