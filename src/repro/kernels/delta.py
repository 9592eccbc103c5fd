"""CP/Δ sweeps over a compiled graph, full and incremental.

``delta_sweep`` is the clock-period sweep (paper Sec. 2): Δ(v), the
largest delay of a register-free path ending at v, computed over a
topological order of the retimed zero-weight subgraph.  Its iteration
orders are fixed by vertex and edge ids (zero-in lists in edge order, a
LIFO Kahn queue, strict-greater argmax tie-breaking), so Δ, the
critical-path predecessors and the topological order are deterministic,
and so are the constraints the lazy loops generate from them.

``refresh`` is the incremental mode: given the previous sweep and a new
retiming that differs on a subset of vertices, it recomputes Δ only in
the forward cone (over the new zero-weight subgraph) of the vertices
whose zero-edge neighbourhood changed.  Values outside the cone are
provably unchanged, so the refreshed arrays equal a full re-sweep —
the lazy loops in min-period exploit this between rounds, where a solve
typically moves only a few vertices.
"""

from __future__ import annotations

import numpy as _np

from .. import obs
from ..graph.retiming_graph import GraphError
from .compiled_graph import CompiledGraph

#: Below this edge count the vectorised zero-edge scan is not worth the
#: ndarray round-trip.
_NUMPY_MIN_EDGES = 64

#: Above this fraction of changed vertices a refresh falls back to a
#: full sweep (the cone walk would visit most of the graph anyway).
_REFRESH_FRACTION = 0.25

#: At or below this vertex count a refresh goes straight to a full
#: sweep: the cone bookkeeping costs as much as sweeping everything,
#: and on tiny graphs the cone usually exceeds the fraction anyway.
_REFRESH_MIN_N = 96


class KernelSweep:
    """Result of a Δ sweep: id-indexed arrays plus the retiming used."""

    __slots__ = ("delta", "pred", "order", "r", "_period")

    def __init__(
        self,
        delta: list[float],
        pred: list[int],
        order: list[int] | None,
        r: list[int],
    ) -> None:
        self.delta = delta
        self.pred = pred
        #: full-sweep Kahn order (None after a refresh — the refresh
        #: does not maintain a global order, only correct values; use
        #: :meth:`topo_order` to recover one on demand)
        self.order = order
        self.r = r
        self._period: float | None = None

    @property
    def period(self) -> float:
        """Max Δ over all vertices (order-independent, refresh-safe)."""
        if self._period is None:
            self._period = max(self.delta, default=0.0)
        return self._period

    def topo_order(
        self, cg: CompiledGraph, through_host: bool | None = None
    ) -> list[int]:
        """Topological order of the zero-weight subgraph at ``self.r``.

        After a :func:`refresh`, ``self.order`` is ``None`` — the cone
        walk does not maintain a global order.  Consumers that iterate
        a topo order (e.g. the min-area constraint builder) call this
        instead of touching ``.order`` directly: it returns the cached
        full-sweep order when present, and otherwise recomputes one
        with the same Kahn queue discipline as :func:`delta_sweep`, so
        the result is bit-identical to the order a full sweep at the
        same retiming would have produced.  The recomputed order is
        cached on the sweep.
        """
        if self.order is None:
            if through_host is None:
                through_host = cg.through_host
            _, _, self.order = _zero_structure(cg, self.r, through_host)
        return self.order

    def trace_start(self, v: int) -> int:
        """Walk predecessors to the start of v's critical path."""
        pred = self.pred
        while pred[v] >= 0:
            v = pred[v]
        return v

    def path(self, v: int) -> list[int]:
        """v's critical path (register-free, maximal delay), start first."""
        pred = self.pred
        chain = [v]
        while pred[v] >= 0:
            v = pred[v]
            chain.append(v)
        chain.reverse()
        return chain


def _zero_edges(
    cg: CompiledGraph, r: list[int], through_host: bool
) -> list[int]:
    """Indices of zero-retimed-weight edges, in edge order.

    Raises :class:`GraphError` on the first negative retimed weight in
    edge order.
    """
    m = cg.m
    if cg.ew_np is not None and m >= _NUMPY_MIN_EDGES:
        ra = _np.asarray(r, dtype=_np.int64)
        wr = cg.ew_np + ra[cg.ev_np] - ra[cg.eu_np]
        neg = wr < 0
        if neg.any():
            k = int(_np.flatnonzero(neg)[0])
            u, v = cg.names[cg.eu[k]], cg.names[cg.ev[k]]
            raise GraphError(
                f"negative retimed weight on {u}->{v} (w={int(wr[k])})"
            )
        mask = wr == 0
        if not through_host:
            mask &= ~cg.src_host_np
        return _np.flatnonzero(mask).tolist()
    eu, ev, ew, src_host = cg.eu, cg.ev, cg.ew, cg.src_host
    zero: list[int] = []
    for k in range(m):
        w = ew[k] + r[ev[k]] - r[eu[k]]
        if w < 0:
            u, v = cg.names[eu[k]], cg.names[ev[k]]
            raise GraphError(f"negative retimed weight on {u}->{v} (w={w})")
        if w == 0 and (through_host or not src_host[k]):
            zero.append(k)
    return zero


def _zero_structure(
    cg: CompiledGraph, r: list[int], through_host: bool
) -> tuple[list[int], list[int], list[int]]:
    """Zero-in CSR and Kahn topological order of the zero subgraph.

    Returns ``(zin_start, zin, order)``.  Edge-order zero-in lists, an
    id-order zero-out build and a LIFO Kahn queue make the order
    deterministic; it is shared between :func:`delta_sweep` and
    :meth:`KernelSweep.topo_order`.
    """
    n = cg.n
    eu, ev = cg.eu, cg.ev
    zero = _zero_edges(cg, r, through_host)

    # zero-in CSR, per-vertex lists in edge order
    zin_count = [0] * n
    for k in zero:
        zin_count[ev[k]] += 1
    zin_start = [0] * (n + 1)
    for i in range(n):
        zin_start[i + 1] = zin_start[i] + zin_count[i]
    zin = [0] * len(zero)
    fill = list(zin_start[:n])
    for k in zero:
        v = ev[k]
        zin[fill[v]] = k
        fill[v] += 1

    # zero-out: iterate vertices in id order, appending each target to
    # its predecessors' out lists — this fixes the Kahn push order,
    # hence the topological order.
    zout: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        for p in range(zin_start[v], zin_start[v + 1]):
            zout[eu[zin[p]]].append(v)

    indeg = list(zin_count)
    queue = [i for i in range(n) if indeg[i] == 0]
    order: list[int] = []
    while queue:
        v = queue.pop()
        order.append(v)
        for s in zout[v]:
            indeg[s] -= 1
            if indeg[s] == 0:
                queue.append(s)
    if len(order) != n:
        raise GraphError("zero-weight subgraph is cyclic")
    return zin_start, zin, order


def delta_sweep(
    cg: CompiledGraph, r: list[int], through_host: bool | None = None
) -> KernelSweep:
    """Full CP sweep at retiming *r* (one value per vertex id).

    Unless the graph models a combinational environment
    (``through_host``, by default ``cg.through_host``), zero-weight
    edges *leaving* the host are skipped: real combinational paths never
    run through the environment, and keeping them would close a
    spurious zero-weight cycle PO → host → PI on any register-free
    input-to-output path.  Classic FEAS, which treats the host as an
    ordinary vertex, passes ``through_host=True``.

    Raises :class:`GraphError` on a negative retimed weight or a cyclic
    zero-weight subgraph (which legality of *r* rules out whenever every
    original cycle carries a register).
    """
    obs.count("delta.sweeps")
    if through_host is None:
        through_host = cg.through_host
    n = cg.n
    eu = cg.eu
    zin_start, zin, order = _zero_structure(cg, r, through_host)

    delay = cg.delay
    delta = [0.0] * n
    pred = [-1] * n
    for v in order:
        best = 0.0
        best_pred = -1
        for p in range(zin_start[v], zin_start[v + 1]):
            u = eu[zin[p]]
            if delta[u] > best:
                best = delta[u]
                best_pred = u
        delta[v] = best + delay[v]
        pred[v] = best_pred
    return KernelSweep(delta, pred, order, list(r))


def refresh(
    cg: CompiledGraph,
    sweep: KernelSweep,
    r: list[int],
    through_host: bool | None = None,
    extra_seeds: "set[int] | frozenset[int] | None" = None,
) -> KernelSweep:
    """Incremental re-sweep after a retiming change.

    Recomputes Δ/pred only for vertices in the forward cone (over the
    *new* zero-weight subgraph) of the vertices whose zero-in edge set
    changed; everything else keeps its previous — provably identical —
    value.  Falls back to :func:`delta_sweep` when most of the graph
    moved.  Returns a new :class:`KernelSweep` (``order`` is ``None``:
    consumers needing the global topological order should call
    :meth:`KernelSweep.topo_order`).

    *extra_seeds* forces additional vertices into the recompute cone
    even when their zero-edge neighbourhood did not change.  The ECO
    path uses this after patching vertex *delays* in place: a delay
    change alters Δ at the vertex and everything downstream without
    moving any retiming, which the r-diff seeding alone cannot see.
    """
    if through_host is None:
        through_host = cg.through_host
    r_old = sweep.r
    n = cg.n
    extra = {i for i in extra_seeds if 0 <= i < n} if extra_seeds else set()
    changed = [i for i in range(n) if r[i] != r_old[i]]
    if not changed and not extra:
        return sweep
    obs.count("delta.refreshes")
    if n <= _REFRESH_MIN_N or len(changed) + len(extra) > n * _REFRESH_FRACTION:
        obs.count("delta.refresh_full")
        return delta_sweep(cg, r, through_host)

    eu, ev, ew, src_host = cg.eu, cg.ev, cg.ew, cg.src_host
    in_start, in_edges = cg.in_start, cg.in_edges
    out_start, out_edges = cg.out_start, cg.out_edges

    # seeds: targets of edges whose zero status flipped
    seed: set[int] = set()
    seen_edge = bytearray(cg.m)
    for i in changed:
        for p in range(out_start[i], out_start[i + 1]):
            seen_edge[out_edges[p]] = 1
        for p in range(in_start[i], in_start[i + 1]):
            seen_edge[in_edges[p]] = 1
    for k in range(cg.m):
        if not seen_edge[k]:
            continue
        if not through_host and src_host[k]:
            continue
        ui, vi = eu[k], ev[k]
        w_new = ew[k] + r[vi] - r[ui]
        if w_new < 0:
            u, v = cg.names[ui], cg.names[vi]
            raise GraphError(
                f"negative retimed weight on {u}->{v} (w={w_new})"
            )
        if (w_new == 0) != (ew[k] + r_old[vi] - r_old[ui] == 0):
            seed.add(vi)
    seed |= extra

    if not seed:
        # no zero edge flipped: the zero subgraph is unchanged, so Δ is
        # unchanged (Δ depends only on zero-subgraph structure + delays)
        return KernelSweep(sweep.delta, sweep.pred, sweep.order, list(r))

    # forward closure of the seeds over new zero edges
    in_cone = bytearray(n)
    stack = list(seed)
    for i in stack:
        in_cone[i] = 1
    while stack:
        v = stack.pop()
        for p in range(out_start[v], out_start[v + 1]):
            k = out_edges[p]
            if not through_host and src_host[k]:
                continue
            if ew[k] + r[ev[k]] - r[eu[k]] == 0:
                t = ev[k]
                if not in_cone[t]:
                    in_cone[t] = 1
                    stack.append(t)

    cone = [i for i in range(n) if in_cone[i]]
    if obs.enabled():
        obs.gauge("delta.cone", len(cone))
    if len(cone) > n * _REFRESH_FRACTION:
        obs.count("delta.refresh_full")
        return delta_sweep(cg, r, through_host)

    # restricted Kahn: indegree counts only zero edges from cone vertices
    indeg = {v: 0 for v in cone}
    for v in cone:
        for p in range(in_start[v], in_start[v + 1]):
            k = in_edges[p]
            if not through_host and src_host[k]:
                continue
            if ew[k] + r[ev[k]] - r[eu[k]] == 0 and in_cone[eu[k]]:
                indeg[v] += 1
    queue = [v for v in cone if indeg[v] == 0]

    delta = list(sweep.delta)
    pred = list(sweep.pred)
    delay = cg.delay
    processed = 0
    while queue:
        v = queue.pop()
        processed += 1
        best = 0.0
        best_pred = -1
        for p in range(in_start[v], in_start[v + 1]):
            k = in_edges[p]
            if not through_host and src_host[k]:
                continue
            if ew[k] + r[ev[k]] - r[eu[k]] != 0:
                continue
            u = eu[k]
            if delta[u] > best:
                best = delta[u]
                best_pred = u
        delta[v] = best + delay[v]
        pred[v] = best_pred
        for p in range(out_start[v], out_start[v + 1]):
            k = out_edges[p]
            if not through_host and src_host[k]:
                continue
            if ew[k] + r[ev[k]] - r[eu[k]] == 0:
                t = ev[k]
                if in_cone[t]:
                    indeg[t] -= 1
                    if indeg[t] == 0:
                        queue.append(t)
    if processed != len(cone):
        raise GraphError("zero-weight subgraph is cyclic")
    return KernelSweep(delta, pred, None, list(r))
