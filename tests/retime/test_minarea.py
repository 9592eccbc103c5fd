"""Tests for the sharing model and min-cost-flow min-area retiming."""

import itertools
import random

import networkx as nx
import pytest

from repro.graph import HOST, RetimingGraph
from repro.kernels import CompiledSystem
from repro.retime import (
    InfeasibleError,
    build_sharing_model,
    clock_period,
    min_area,
    min_period,
    shared_register_count,
)
from repro.retime.minarea import lazy_min_area, lp_supply, solve_lp

from .helpers import correlator, legal, random_graph


class TestSharingModel:
    def test_single_fanout_costs(self):
        g = RetimingGraph()
        g.add_host()
        g.add_vertex("a", 1.0)
        g.add_vertex("b", 1.0)
        g.add_edge(HOST, "a", 0)
        g.add_edge("a", "b", 2)
        g.add_edge("b", HOST, 0)
        model = build_sharing_model(g)
        # chain: no mirror vertices anywhere
        assert model.mirrors == {}
        assert model.objective({v: 0 for v in g.vertices}) == 2

    def test_mirror_for_multifanout(self):
        g = RetimingGraph()
        g.add_host()
        g.add_vertex("a", 1.0)
        g.add_vertex("b", 1.0)
        g.add_vertex("c", 1.0)
        g.add_edge(HOST, "a", 0)
        g.add_edge("a", "b", 2)
        g.add_edge("a", "c", 3)
        g.add_edge("b", HOST, 0)
        g.add_edge("c", HOST, 0)
        model = build_sharing_model(g)
        assert "a" in model.mirrors
        mirror = model.mirrors["a"]
        assert model.graph.vertices[mirror].kind == "mirror"
        # mirror edges have weight w_bar - w_i
        weights = sorted(e.w for e in model.graph.in_edges(mirror))
        assert weights == [0, 1]
        # shared count of a's fanouts = max(2, 3) = 3
        assert model.objective({v: 0 for v in model.graph.vertices}) >= 3

    def test_objective_tracks_retiming(self):
        g = RetimingGraph()
        g.add_host()
        g.add_vertex("a", 1.0)
        g.add_vertex("b", 1.0)
        g.add_edge(HOST, "a", 1)
        g.add_edge("a", "b", 1)
        g.add_edge("b", HOST, 0)
        model = build_sharing_model(g)
        zero = {v: 0 for v in model.graph.vertices}
        assert model.objective(zero) == shared_register_count(g)
        # move a register forward across b: weight a->b drops by 1
        r = dict(zero, b=-1)
        assert model.objective(r) == shared_register_count(g, r)

    def test_shared_count_examples(self):
        g = RetimingGraph()
        g.add_vertex("a", 1.0)
        g.add_vertex("b", 1.0)
        g.add_vertex("c", 1.0)
        g.add_edge("a", "b", 2)
        g.add_edge("a", "c", 1)
        assert shared_register_count(g) == 2  # max(2,1)
        assert g.total_weight() == 3


def brute_force_min_area(graph, phi, radius=2):
    """Exhaustive min shared-count over r in a small box (tests only)."""
    movable = graph.movable_vertices()
    best = None
    for combo in itertools.product(range(-radius, radius + 1), repeat=len(movable)):
        r = dict(zip(movable, combo))
        if not legal(graph, r):
            continue
        try:
            if clock_period(graph, r) > phi + 1e-9:
                continue
        except Exception:
            continue
        count = shared_register_count(graph, r)
        if best is None or count < best:
            best = count
    return best


class TestMinArea:
    def test_correlator_at_24_not_worse(self):
        g = correlator()
        before = shared_register_count(g)
        result = min_area(g, 24.0)
        assert result.period <= 24.0 + 1e-9
        assert result.registers <= before
        assert legal(g, result.r)

    def test_correlator_at_13(self):
        g = correlator()
        result = min_area(g, 13.0)
        assert result.period <= 13.0 + 1e-9
        assert legal(g, result.r)
        # the optimum from min_period should never use fewer registers
        mp = min_period(g)
        assert result.registers <= shared_register_count(g, mp.r)

    def test_infeasible_period_raises(self):
        with pytest.raises(InfeasibleError):
            min_area(correlator(), 6.0)

    def test_respects_bounds(self):
        g = correlator()
        bounds = {v: (0, 0) for v in g.gate_vertices()}
        result = min_area(g, 24.0, bounds)
        assert all(result.r[v] == 0 for v in g.gate_vertices())

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        g = random_graph(seed, n_vertices=5, n_edges=9, max_w=2)
        phi = min_period(g).phi
        result = min_area(g, phi)
        assert result.period <= phi + 1e-9
        assert legal(g, result.r)
        expected = brute_force_min_area(g, phi)
        assert expected is not None
        assert result.registers == expected

    @pytest.mark.parametrize("seed", [20, 21, 22, 23])
    def test_relaxed_period_never_costs_more(self, seed):
        g = random_graph(seed, n_vertices=6, n_edges=12)
        phi_min = min_period(g).phi
        tight = min_area(g, phi_min)
        loose = min_area(g, phi_min * 2)
        assert loose.registers <= tight.registers

    @pytest.mark.parametrize("seed", range(30, 36))
    def test_improves_or_matches_original(self, seed):
        g = random_graph(seed)
        before = shared_register_count(g)
        phi0 = clock_period(g)
        result = min_area(g, phi0)
        assert result.registers <= before


class TestCanonicalOptimum:
    """``solve_lp`` returns one optimum, whatever found the flow."""

    @staticmethod
    def final_lp(seed: int) -> tuple[CompiledSystem, list[int]]:
        """The last lazy round's system and supplies for a random graph."""
        g = random_graph(seed, n_vertices=9, n_edges=18)
        model = build_sharing_model(g)
        loop = lazy_min_area(g, min_period(g).phi, None, model)
        return loop.system, lp_supply(loop.system, model)

    @pytest.mark.parametrize("seed", range(8))
    def test_unchanged_under_shuffled_insertion(self, seed):
        csys, supply = self.final_lp(seed)
        r, _ = solve_lp(csys, supply)
        rng = random.Random(seed)
        for _ in range(3):
            slots = list(range(len(csys)))
            rng.shuffle(slots)
            shuffled = CompiledSystem(csys.names, csys.index)
            for slot in slots:
                shuffled.add(csys.arc_u[slot], csys.arc_v[slot], csys.arc_b[slot])
            assert solve_lp(shuffled, supply)[0] == r

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_canonical_answer_of_network_simplex(self, seed):
        """The maximal non-positive dual of networkx's optimal flow,
        computed here by plain Bellman-Ford, negated and host-normalised."""
        csys, supply = self.final_lp(seed)
        r, _ = solve_lp(csys, supply)
        arcs = list(zip(csys.arc_u, csys.arc_v, csys.arc_b))
        g = nx.DiGraph()
        for i, s in enumerate(supply):
            g.add_node(i, demand=-s)
        for u, v, b in arcs:
            g.add_edge(u, v, weight=b)
        _, flow = nx.network_simplex(g)
        # residual arcs as relaxations x→y of weight w: π(y) ≤ π(x) + w
        residual = [(u, v, b) for u, v, b in arcs]
        residual += [(v, u, -b) for u, v, b in arcs if flow[u][v]]
        pi = [0] * csys.n
        for _ in range(csys.n + 1):
            changed = False
            for x, y, w in residual:
                if pi[x] + w < pi[y]:
                    pi[y] = pi[x] + w
                    changed = True
            if not changed:
                break
        assert not changed
        assert r == [pi[csys.host] - p for p in pi]
