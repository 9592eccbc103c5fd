"""W and D matrices (paper Sec. 2), for small graphs and cross-checks.

``W(u, v)`` is the minimum register count over all u→v paths and
``D(u, v)`` the maximum path delay among those minimum-weight paths.
Computed by one Dijkstra per source over the lexicographic key
``(weight, −delay)``.  Quadratic memory — intended for unit tests and
for the exact candidate-period enumeration used to validate the binary
search, not for big circuits (the production solvers never need W/D
thanks to lazy constraint generation).
"""

from __future__ import annotations

import heapq

from ..graph.retiming_graph import RetimingGraph


def wd_from_source(
    graph: RetimingGraph, source: str, through_host: bool | None = None
) -> dict[str, tuple[int, float]]:
    """(W, D) from *source* to every reachable vertex.

    D includes the delay of both endpoints, matching the paper.  Unless
    the graph models a combinational environment, paths are not allowed
    to continue *through* the host: they may start there and end there,
    and a path that returns to the host ends.  So when *source* is the
    host, ``(W, D)(host, host)`` is the trivial path unless a
    register-free cycle runs through the host; then W is 0 and D is the
    largest delay of such a cycle — a primary-input-to-output path that
    no retiming can cut, because the host is pinned.
    """
    if through_host is None:
        through_host = graph.combinational_host
    d_src = graph.vertices[source].delay
    best: dict[str, tuple[int, float]] = {source: (0, d_src)}
    heap: list[tuple[int, float, str]] = [(0, -d_src, source)]
    start = True  # the first entry popped is the source itself
    while heap:
        w, neg_d, u = heapq.heappop(heap)
        if (w, -neg_d) != best.get(u, (None, None)):
            continue
        if not (start or through_host) and graph.vertices[u].kind == "host":
            continue
        start = False
        for edge in graph.out_edges(u):
            v = edge.v
            nw = w + edge.w
            nd = -neg_d + graph.vertices[v].delay
            cur = best.get(v)
            if cur is None or (nw, -nd) < (cur[0], -cur[1]):
                best[v] = (nw, nd)
                heapq.heappush(heap, (nw, -nd, v))
    return best


def wd_matrices(
    graph: RetimingGraph, through_host: bool | None = None
) -> tuple[dict[tuple[str, str], int], dict[tuple[str, str], float]]:
    """All-pairs W and D (reachable pairs only)."""
    W: dict[tuple[str, str], int] = {}
    D: dict[tuple[str, str], float] = {}
    for source in graph.vertices:
        hits = wd_from_source(graph, source, through_host)
        for target, (w, d) in hits.items():
            W[source, target] = w
            D[source, target] = d
    return W, D


def candidate_periods(graph: RetimingGraph) -> list[float]:
    """Sorted distinct D(u, v) values — the possible optimal periods."""
    _, D = wd_matrices(graph)
    return sorted(set(D.values()))
