"""Kernel CP/Δ sweeps vs the dict ``compute_delta`` — bit-identical.

Equality here is exact (floats included): the kernels replicate the
dict sweep's iteration orders and float addition order, so the
constraints the lazy loops generate do not depend on which one swept.
"""

from __future__ import annotations

import pytest

from repro.graph import HOST, GraphError, RetimingGraph
from repro.kernels import compile_graph, delta_sweep, refresh
from repro.retime.feas import compute_delta
from repro.retime.minperiod import min_period
from tests.retime.helpers import correlator, random_graph


def _assert_sweeps_equal(graph, r_dict):
    cg = compile_graph(graph)
    ks = delta_sweep(cg, cg.r_array(r_dict))
    ds = compute_delta(graph, r_dict)
    assert {cg.names[i]: ks.delta[i] for i in range(cg.n)} == ds.delta
    pred = {
        cg.names[i]: (cg.names[p] if p >= 0 else None)
        for i, p in enumerate(ks.pred)
    }
    assert pred == ds.pred
    assert [cg.names[i] for i in ks.order] == ds.order
    assert ks.period == ds.period
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
    g = correlator()
    cg = compile_graph(g)
    ks = delta_sweep(cg, [0] * cg.n)
    ds = compute_delta(g, {})
    for i, name in enumerate(cg.names):
        assert cg.names[ks.trace_start(i)] == ds.trace_start(name)


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
    g = correlator()
    cg = compile_graph(g)
    r_dict = {"v5": -1}  # v4->v5 has w=0: retimed weight -1
    with pytest.raises(GraphError) as dict_err:
        compute_delta(g, r_dict)
    with pytest.raises(GraphError) as kernel_err:
        delta_sweep(cg, cg.r_array(r_dict))
    assert str(kernel_err.value) == str(dict_err.value)


def test_cyclic_zero_subgraph_error_is_identical():
    g = RetimingGraph("loop")
    g.add_vertex("a", 1.0)
    g.add_vertex("b", 1.0)
    g.add_edge("a", "b", 0)
    g.add_edge("b", "a", 0)
    cg = compile_graph(g)
    with pytest.raises(GraphError) as dict_err:
        compute_delta(g, {})
    with pytest.raises(GraphError) as kernel_err:
        delta_sweep(cg, [0, 0])
    assert str(kernel_err.value) == str(dict_err.value)


def test_host_edges_skipped_unless_combinational():
    g = correlator()
    g.combinational_host = False  # flip the environment model
    _assert_sweeps_equal(g, {})
    cg = compile_graph(g)
    assert not cg.through_host
    # explicit override mirrors the dict through_host argument
    ks = delta_sweep(cg, [0] * cg.n, through_host=True)
    ds = compute_delta(g, {}, through_host=True)
    assert {cg.names[i]: ks.delta[i] for i in range(cg.n)} == ds.delta


def test_order_reuse_in_dict_engine():
    """compute_delta accepts a prior topological order and must produce
    the identical sweep with or without it; stale orders are rejected."""
    g = random_graph(8, n_vertices=12, n_edges=26)
    fresh = compute_delta(g, {})
    again = compute_delta(g, {}, order=fresh.order)
    assert again.delta == fresh.delta
    assert again.pred == fresh.pred
    assert again.order == fresh.order
    # an order from a different retiming may be stale: result still exact
    best = min_period(g)
    moved = compute_delta(g, best.r, order=fresh.order)
    reference = compute_delta(g, best.r)
    assert moved.delta == reference.delta
    assert moved.pred == reference.pred
    # wrong length / unknown names fall back cleanly too
    short = compute_delta(g, {}, order=fresh.order[:-1])
    assert short.delta == fresh.delta
