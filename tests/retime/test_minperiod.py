"""Tests for CP/Δ, FEAS, and the lazy min-period solver."""

import pytest

from repro.graph import HOST, GraphError, RetimingGraph
from repro.kernels import compile_graph, delta_sweep
from repro.retime import (
    candidate_periods,
    clock_period,
    feas,
    feasible_retiming,
    min_period,
)

from .helpers import correlator, legal, random_graph


def sweep_of(graph, r=None):
    """The CP sweep of *graph* at retiming *r*, with name-keyed views."""
    cg = compile_graph(graph)
    sweep = delta_sweep(cg, cg.r_array(r))
    delta = {cg.names[i]: d for i, d in enumerate(sweep.delta)}

    def trace_start(name):
        return cg.names[sweep.trace_start(cg.index[name])]

    return sweep, delta, trace_start


class TestDelta:
    def test_correlator_period_24(self):
        assert clock_period(correlator()) == pytest.approx(24.0)

    def test_delta_values(self):
        _, delta, _ = sweep_of(correlator())
        assert delta["v4"] == pytest.approx(3.0)
        assert delta["v7"] == pytest.approx(24.0)

    def test_trace_start(self):
        _, _, trace_start = sweep_of(correlator())
        assert trace_start("v7") == "v4"

    def test_retimed_delta(self):
        g = correlator()
        r = feasible_retiming(g, 13.0)
        assert r is not None
        sweep, _, _ = sweep_of(g, r)
        assert sweep.period <= 13.0 + 1e-9
        # the adder chain (7+7+7 = 21) must have been broken
        assert any(
            g.retimed_weight(e, r) >= 1
            for e in g.edges.values()
            if (e.u, e.v) in (("v4", "v5"), ("v5", "v6"), ("v6", "v7"))
        )

    def test_negative_weight_rejected(self):
        g = correlator()
        with pytest.raises(GraphError):
            clock_period(g, {"v5": 5})

    def test_zero_weight_cycle_rejected(self):
        g = RetimingGraph()
        g.add_vertex("a", 1.0)
        g.add_vertex("b", 1.0)
        g.add_edge("a", "b", 0)
        g.add_edge("b", "a", 0)
        with pytest.raises(GraphError):
            clock_period(g)


class TestFeas:
    def test_correlator_13_feasible(self):
        g = correlator()
        r = feas(g, 13.0, normalize=HOST)
        assert r is not None
        assert legal(g, r)
        assert clock_period(g, r) <= 13.0 + 1e-9

    def test_correlator_12_infeasible(self):
        assert feas(correlator(), 12.0) is None

    def test_below_max_gate_delay_infeasible(self):
        assert feas(correlator(), 6.9) is None


class TestFeasibleRetiming:
    def test_correlator_13(self):
        g = correlator()
        r = feasible_retiming(g, 13.0)
        assert r is not None and legal(g, r)
        assert r[HOST] == 0
        assert clock_period(g, r) <= 13.0 + 1e-9

    def test_correlator_12_infeasible(self):
        assert feasible_retiming(correlator(), 12.0) is None

    def test_bounds_restrict_solution(self):
        g = correlator()
        # forbid all movement: only the original period is achievable
        bounds = {v: (0, 0) for v in g.gate_vertices()}
        assert feasible_retiming(g, 23.0, bounds) is None
        r = feasible_retiming(g, 24.0, bounds)
        assert r is not None
        assert all(r[v] == 0 for v in g.gate_vertices())

    def test_partial_bounds(self):
        g = correlator()
        bounds = {v: (-3, 3) for v in g.gate_vertices()}
        r = feasible_retiming(g, 13.0, bounds)
        assert r is not None
        assert all(-3 <= r[v] <= 3 for v in g.gate_vertices())


class TestMinPeriod:
    def test_correlator_optimum_13(self):
        result = min_period(correlator())
        assert result.phi == pytest.approx(13.0)
        assert legal(correlator(), result.r)

    def test_correlator_with_frozen_vertices(self):
        g = correlator()
        bounds = {v: (0, 0) for v in g.gate_vertices()}
        result = min_period(g, bounds)
        assert result.phi == pytest.approx(24.0)

    def test_single_gate(self):
        g = RetimingGraph()
        g.add_host()
        g.add_vertex("a", 4.0)
        g.add_edge(HOST, "a", 1)
        g.add_edge("a", HOST, 1)
        result = min_period(g)
        assert result.phi == pytest.approx(4.0)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_graphs_optimal(self, seed):
        """The binary-searched φ must be legal, achieved, and minimal
        among the candidate D(u,v) values."""
        g = random_graph(seed)
        result = min_period(g)
        assert legal(g, result.r)
        assert clock_period(g, result.r) <= result.phi + 1e-9
        # no candidate period strictly below is feasible
        candidates = [c for c in candidate_periods(g) if c < result.phi - 1e-9]
        if candidates:
            probe = max(candidates)
            assert feasible_retiming(g, probe) is None

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_feas_when_unpinned(self, seed):
        """On graphs whose IO pinning doesn't bite, the lazy solver and
        classic FEAS agree on feasibility at the found optimum."""
        g = random_graph(seed + 100)
        result = min_period(g)
        # FEAS has no pinning, so it can only do as well or better
        assert feas(g, result.phi + 1e-9) is not None
