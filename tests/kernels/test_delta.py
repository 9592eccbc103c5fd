"""CP/Δ sweeps against an independent longest-path oracle.

Δ(v) is the largest delay of a register-free path ending at v.  The
oracle computes it over networkx's topological order of the retimed
zero-weight subgraph, with the same left-to-right float additions, so
full sweeps and incremental refreshes must match it exactly; every
critical path a sweep traces must be register-free and re-sum to its Δ.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.graph import HOST, GraphError, RetimingGraph
from repro.kernels import compile_graph, delta_sweep, refresh
from repro.retime.minperiod import min_period
from tests.retime.helpers import correlator, random_graph


def _zero_subgraph(graph, r, through_host=None) -> nx.DiGraph:
    """The zero-retimed-weight edges (host fanout only when the host is
    combinational, or *through_host* says so)."""
    if through_host is None:
        through_host = graph.combinational_host
    z = nx.DiGraph()
    z.add_nodes_from(graph.vertices)
    for e in graph.edges.values():
        w = e.w + r.get(e.v, 0) - r.get(e.u, 0)
        if w == 0 and (through_host or graph.vertices[e.u].kind != "host"):
            z.add_edge(e.u, e.v)
    return z


def _oracle_delta(graph, r, through_host=None) -> dict[str, float]:
    """Longest register-free path delay ending at each vertex."""
    z = _zero_subgraph(graph, r, through_host)
    delta: dict[str, float] = {}
    for v in nx.topological_sort(z):
        best = max([0.0, *(delta[u] for u in z.predecessors(v))])
        delta[v] = best + graph.vertices[v].delay
    return delta


def _assert_sweep_is_exact(graph, cg, sweep, r_dict, through_host=None):
    """Δ equals the oracle bit for bit; the order is topological; every
    critical path is register-free, starts at ``trace_start`` and
    re-sums to its Δ."""
    z = _zero_subgraph(graph, r_dict, through_host)
    expected = _oracle_delta(graph, r_dict, through_host)
    names = cg.names
    assert {names[i]: d for i, d in enumerate(sweep.delta)} == expected
    assert sweep.period == max(expected.values(), default=0.0)
    order = sweep.topo_order(cg, through_host)
    position = {names[v]: k for k, v in enumerate(order)}
    assert sorted(position) == sorted(graph.vertices)
    assert all(position[u] < position[v] for u, v in z.edges)
    for v in range(cg.n):
        path = sweep.path(v)
        assert path[0] == sweep.trace_start(v) and path[-1] == v
        assert all(z.has_edge(names[a], names[b]) for a, b in zip(path, path[1:]))
        acc = 0.0
        for i in path:
            acc += cg.delay[i]
        assert acc == sweep.delta[v]


def _assert_sweeps_equal(graph, r_dict):
    cg = compile_graph(graph)
    ks = delta_sweep(cg, cg.r_array(r_dict))
    _assert_sweep_is_exact(graph, cg, ks, r_dict)
    return cg, ks


def test_correlator_zero_sweep():
    g = correlator()
    _, ks = _assert_sweeps_equal(g, {})
    assert ks.period == 24.0


def test_correlator_min_period_retiming():
    g = correlator()
    best = min_period(g)
    assert best.phi == 13.0
    _assert_sweeps_equal(g, best.r)


@pytest.mark.parametrize("seed", range(6))
def test_random_graphs_zero_and_retimed(seed):
    g = random_graph(seed, n_vertices=12, n_edges=30)
    _assert_sweeps_equal(g, {})
    best = min_period(g)
    _assert_sweeps_equal(g, best.r)


def test_trace_start_matches_dict():
    """Each vertex's traced critical path starts where no zero edge
    reaches it and re-sums (from 0.0, left to right) to its Δ."""
    g = correlator()
    cg, ks = _assert_sweeps_equal(g, {})
    z = _zero_subgraph(g, {})
    for v in range(cg.n):
        start = cg.names[ks.trace_start(v)]
        assert ks.delta[cg.index[start]] == cg.delay[cg.index[start]]
        assert z.in_degree(start) == 0 or all(
            ks.delta[cg.index[u]] == 0.0 for u in z.predecessors(start)
        )
    assert cg.names[ks.trace_start(cg.index["v7"])] == "v4"


def test_refresh_no_change_returns_same_sweep():
    g = random_graph(2)
    cg = compile_graph(g)
    base = delta_sweep(cg, [0] * cg.n)
    assert refresh(cg, base, [0] * cg.n) is base


def _single_step_retimings(graph):
    """Legal one-vertex retimings r(v)=+1 from zero (all out-edges of v
    carry a register so no weight goes negative)."""
    out = []
    for name, vertex in graph.vertices.items():
        if not vertex.movable:
            continue
        if all(e.w >= 1 for e in graph.out_edges(name)):
            out.append(name)
    return out


@pytest.mark.parametrize("seed", range(6))
def test_refresh_equals_full_sweep(seed, monkeypatch):
    # force the cone path: small graphs normally shortcut to full sweeps
    from repro.kernels import delta as delta_module

    monkeypatch.setattr(delta_module, "_REFRESH_MIN_N", 0)
    g = random_graph(seed, n_vertices=14, n_edges=32)
    cg = compile_graph(g)
    base = delta_sweep(cg, [0] * cg.n)
    moved = _single_step_retimings(g)
    if not moved:
        pytest.skip("no legal single-vertex step in this random graph")
    for name in moved:
        r = [0] * cg.n
        r[cg.index[name]] = 1
        inc = refresh(cg, base, r)
        full = delta_sweep(cg, r)
        _assert_sweep_is_exact(g, cg, inc, {name: 1})
        assert inc.delta == full.delta
        assert inc.pred == full.pred
        assert inc.r == full.r


def test_refresh_equals_full_sweep_large_graph():
    """Above the small-graph shortcut, the cone path runs for real."""
    g = random_graph(11, n_vertices=150, n_edges=420)
    cg = compile_graph(g)
    base = delta_sweep(cg, [0] * cg.n)
    for name in _single_step_retimings(g)[:8]:
        r = [0] * cg.n
        r[cg.index[name]] = 1
        inc = refresh(cg, base, r)
        full = delta_sweep(cg, r)
        assert inc.delta == full.delta
        assert inc.pred == full.pred
        assert inc.delta == [_oracle_delta(g, {name: 1})[v] for v in cg.names]


def test_refresh_multi_vertex_change(monkeypatch):
    from repro.kernels import delta as delta_module

    monkeypatch.setattr(delta_module, "_REFRESH_MIN_N", 0)
    g = random_graph(4, n_vertices=12, n_edges=28)
    cg = compile_graph(g)
    best = min_period(g)
    base = delta_sweep(cg, [0] * cg.n)
    r = cg.r_array(best.r)
    inc = refresh(cg, base, r)  # may fall back to a full sweep: still exact
    full = delta_sweep(cg, r)
    _assert_sweep_is_exact(g, cg, inc, best.r)
    assert inc.delta == full.delta
    assert inc.pred == full.pred


def _forced_cone_refresh(monkeypatch):
    """Force the incremental cone path on small graphs."""
    from repro.kernels import delta as delta_module

    monkeypatch.setattr(delta_module, "_REFRESH_MIN_N", 0)
    monkeypatch.setattr(delta_module, "_REFRESH_FRACTION", 1.0)


def test_refreshed_sweep_order_is_none_but_recoverable(monkeypatch):
    """Satellite regression: ``order`` is None after a refresh, and
    ``topo_order`` recovers the exact full-sweep order on demand."""
    _forced_cone_refresh(monkeypatch)
    g = random_graph(3, n_vertices=14, n_edges=32)
    cg = compile_graph(g)
    base = delta_sweep(cg, [0] * cg.n)
    moved = _single_step_retimings(g)
    if not moved:
        pytest.skip("no legal single-vertex step in this random graph")
    r = [0] * cg.n
    r[cg.index[moved[0]]] = 1
    inc = refresh(cg, base, r)
    full = delta_sweep(cg, r)
    if inc.order is None:
        # the cone path ran: period and order must still be usable
        assert inc.period == full.period
        assert inc.topo_order(cg) == full.order
        # recomputed order is cached on the sweep
        assert inc.order == full.order
    # full sweeps hand back their own order without recomputation
    assert full.topo_order(cg) is full.order


def test_constraint_generation_off_refreshed_sweep(monkeypatch):
    """The min-area lazy loop's constraint scan (trace_start over the
    topo order) produces identical constraints from a refreshed sweep
    and from a full sweep at the same retiming."""
    _forced_cone_refresh(monkeypatch)
    g = random_graph(7, n_vertices=20, n_edges=48)
    cg = compile_graph(g)
    base = delta_sweep(cg, [0] * cg.n)
    moved = _single_step_retimings(g)
    if not moved:
        pytest.skip("no legal single-vertex step in this random graph")
    r = [0] * cg.n
    r[cg.index[moved[0]]] = 1
    inc = refresh(cg, base, r)
    full = delta_sweep(cg, r)

    def constraints(sweep):
        limit = sweep.period / 2  # force some violations
        return [
            (sweep.trace_start(v), v)
            for v in sweep.topo_order(cg)
            if sweep.delta[v] > limit and not cg.is_mirror[v]
        ]

    assert constraints(inc) == constraints(full)


def test_refresh_extra_seeds_propagates_delay_patch(monkeypatch):
    """After patching a vertex delay in place, ``extra_seeds`` makes the
    refresh re-sweep the patched vertex's forward cone; without it the
    r-diff seeding sees no change and returns stale values."""
    _forced_cone_refresh(monkeypatch)
    g = random_graph(5, n_vertices=16, n_edges=36)
    cg = compile_graph(g)
    r = [0] * cg.n
    base = delta_sweep(cg, r)
    # pick a movable vertex and bump its delay
    target = next(
        i for i in range(cg.n) if cg.movable[i] and not cg.is_mirror[i]
    )
    cg.delay[target] += 3.0
    full = delta_sweep(cg, r)
    assert full.delta != base.delta  # the patch is visible
    stale = refresh(cg, base, r)
    assert stale is base  # r unchanged: refresh alone cannot see it
    inc = refresh(cg, base, r, extra_seeds={target})
    assert inc.delta == full.delta
    assert inc.pred == full.pred
    assert inc.period == full.period


def test_negative_weight_error_is_identical():
    """The first negative retimed weight is named, in edge order."""
    g = correlator()
    cg = compile_graph(g)
    r_dict = {"v5": -1}  # v4->v5 has w=0: retimed weight -1
    with pytest.raises(GraphError) as err:
        delta_sweep(cg, cg.r_array(r_dict))
    assert str(err.value) == "negative retimed weight on v4->v5 (w=-1)"


def test_cyclic_zero_subgraph_error_is_identical():
    g = RetimingGraph("loop")
    g.add_vertex("a", 1.0)
    g.add_vertex("b", 1.0)
    g.add_edge("a", "b", 0)
    g.add_edge("b", "a", 0)
    cg = compile_graph(g)
    assert not nx.is_directed_acyclic_graph(_zero_subgraph(g, {}))
    with pytest.raises(GraphError) as err:
        delta_sweep(cg, [0, 0])
    assert str(err.value) == "zero-weight subgraph is cyclic"


def test_host_edges_skipped_unless_combinational():
    g = correlator()
    g.combinational_host = False  # flip the environment model
    _assert_sweeps_equal(g, {})
    cg = compile_graph(g)
    assert not cg.through_host
    # the explicit override sweeps through the host's fanout too
    ks = delta_sweep(cg, [0] * cg.n, through_host=True)
    _assert_sweep_is_exact(g, cg, ks, {}, through_host=True)
    # a register-free PO -> host -> PI path counts only through the host
    io = RetimingGraph("io")
    io.add_host()
    io.add_vertex("a", 1.0)
    io.add_vertex("b", 2.0)
    io.add_edge(HOST, "a", 0)
    io.add_edge("a", "b", 1)
    io.add_edge("b", HOST, 0)
    io.combinational_host = False
    cg = compile_graph(io)
    skipped = delta_sweep(cg, [0] * cg.n)
    through = delta_sweep(cg, [0] * cg.n, through_host=True)
    _assert_sweep_is_exact(io, cg, skipped, {})
    _assert_sweep_is_exact(io, cg, through, {}, through_host=True)
    assert skipped.delta[cg.index["a"]] == 1.0
    assert through.delta[cg.index["a"]] == 3.0
