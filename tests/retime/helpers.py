"""Shared graph builders for retiming-engine tests."""

from __future__ import annotations

import random

from repro.graph import HOST, RetimingGraph


def correlator() -> RetimingGraph:
    """The Leiserson–Saxe digital correlator (their running example).

    Comparators delay 3, adders delay 7; original period 24; the
    minimum feasible period is 13.
    """
    g = RetimingGraph("correlator")
    g.combinational_host = True  # the textbook environment model
    g.add_host()
    for name in ("v1", "v2", "v3", "v4"):
        g.add_vertex(name, 3.0)
    for name in ("v5", "v6", "v7"):
        g.add_vertex(name, 7.0)
    g.add_edge(HOST, "v1", 1)
    g.add_edge("v1", "v2", 1)
    g.add_edge("v2", "v3", 1)
    g.add_edge("v3", "v4", 1)
    g.add_edge("v4", "v5", 0)
    g.add_edge("v5", "v6", 0)
    g.add_edge("v6", "v7", 0)
    g.add_edge("v7", HOST, 0)
    g.add_edge("v3", "v5", 0)
    g.add_edge("v2", "v6", 0)
    g.add_edge("v1", "v7", 0)
    return g


def random_graph(
    seed: int,
    n_vertices: int = 8,
    n_edges: int = 16,
    max_w: int = 3,
    max_delay: int = 5,
) -> RetimingGraph:
    """Random legal retiming graph.

    Vertices are placed in a random topological order; edges that go
    "backward" in that order always carry at least one register, which
    gives every cycle that avoids the host positive weight (retimeable).
    A cycle through the host may carry none: ``$host→v0`` and
    ``v{n-1}→$host`` can both be register-free, and then a register-free
    forward path closes a combinational input-to-output loop, which is
    legal because the host is pinned (e.g. seed 59 at 6×11).
    """
    rng = random.Random(seed)
    g = RetimingGraph(f"rand{seed}")
    g.add_host()
    names = [f"v{i}" for i in range(n_vertices)]
    for name in names:
        g.add_vertex(name, float(rng.randint(1, max_delay)))
    order = {name: i for i, name in enumerate(names)}
    g.add_edge(HOST, names[0], rng.randint(0, max_w))
    g.add_edge(names[-1], HOST, rng.randint(0, max_w))
    for _ in range(n_edges):
        u, v = rng.sample(names, 2)
        w = rng.randint(0, max_w)
        if order[u] >= order[v]:
            w = max(w, 1)
        g.add_edge(u, v, w)
    return g


def legal(graph: RetimingGraph, r: dict[str, int]) -> bool:
    """All retimed edge weights non-negative."""
    return all(graph.retimed_weight(e, r) >= 0 for e in graph.edges.values())
