"""Tests for the difference-constraint solver and the min-cost flow core."""

import networkx as nx
import pytest

from repro.kernels import CompiledSystem, IntMinCostFlow
from repro.kernels.mcf import FlowInfeasibleError


def system(*names):
    """An empty system over *names* (more are declared on first use)."""
    return CompiledSystem(list(names), {n: i for i, n in enumerate(names)})


def solution(s):
    """The solved system as a name -> value dict (None if infeasible)."""
    r = s.solve()
    return None if r is None else dict(zip(s.names, r))


def violated(s, r):
    """Constraints of *s* that the name-keyed assignment *r* violates."""
    return [c for c in s if r.get(c.u, 0) - r.get(c.v, 0) > c.bound]


class TestDifferenceSystem:
    def test_simple_solution(self):
        s = system("a", "b")
        s.add_named("a", "b", 2)  # r(a) - r(b) <= 2
        r = solution(s)
        assert r is not None
        assert r["a"] - r["b"] <= 2

    def test_negative_cycle_detected(self):
        s = system()
        s.add_named("a", "b", -1)
        s.add_named("b", "a", -1)
        assert s.solve() is None

    def test_negative_self_loop(self):
        s = system()
        s.add_named("a", "a", -1)
        assert s.solve() is None

    def test_vacuous_self_loop_dropped(self):
        s = system()
        assert not s.add_named("a", "a", 0)
        assert solution(s) == {"a": 0}

    def test_tightening(self):
        s = system()
        assert s.add_named("a", "b", 5, "circuit")
        assert not s.add_named("a", "b", 7, "pin")  # looser: ignored
        assert s.add_named("a", "b", 3, "period")  # tighter: kept
        assert [(c.u, c.v, c.bound, c.tag) for c in s] == [
            ("a", "b", 3, "period")
        ]

    def test_chain_propagation(self):
        s = system()
        s.add_named("a", "b", -2)  # r(a) <= r(b) - 2
        s.add_named("b", "c", -3)
        r = solution(s)
        assert r["a"] - r["c"] <= -5

    def test_check_reports_violations(self):
        s = system()
        s.add_named("a", "b", 1)
        a, b = s.index["a"], s.index["b"]
        assert s.violated([5, 0]) == [(a, b, 1)]
        assert s.violated([1, 0]) == []
        assert violated(s, {"a": 5, "b": 0})[0].bound == 1

    def test_copy_independent(self):
        s = system()
        s.add_named("a", "b", 1)
        t = s.copy()
        t.add_named("a", "b", 0)
        assert [c.bound for c in s] == [1]
        assert [c.bound for c in t] == [0]

    def test_solution_satisfies_all(self):
        s = system()
        edges = [("a", "b", 3), ("b", "c", -1), ("c", "a", 0), ("a", "c", 4)]
        for u, v, b in edges:
            s.add_named(u, v, b)
        r = solution(s)
        assert violated(s, r) == []


def network(supply, arcs):
    """An IntMinCostFlow over nodes 0..len(supply)-1."""
    f = IntMinCostFlow(len(supply))
    f.supply = list(supply)
    for arc in arcs:
        f.add_arc(*arc)
    return f


def solve_cost(f, initial_potentials=None):
    """Solve and return the total cost of the routed flow."""
    f.solve(initial_potentials)
    return sum(cost * flow for _, _, cost, flow in f.arcs())


class TestMinCostFlow:
    def test_direct_route(self):
        f = network([3, -3], [(0, 1, 5)])
        assert solve_cost(f) == 15
        assert f.arcs() == [(0, 1, 5, 3)]

    def test_chooses_cheap_path(self):
        f = network([2, -2], [(0, 1, 1), (0, 1, 10)])
        assert solve_cost(f) == 2
        assert [a[3] for a in f.arcs()] == [2, 0]

    def test_capacity_forces_split(self):
        f = network([4, -4], [(0, 1, 1, 3), (0, 1, 5)])
        assert solve_cost(f) == 3 * 1 + 1 * 5
        assert [a[3] for a in f.arcs()] == [3, 1]

    def test_transit_node(self):
        f = network([1, 0, -1], [(0, 1, 2), (1, 2, 3)])
        assert solve_cost(f) == 5

    def test_unbalanced_rejected(self):
        f = network([1], [])
        with pytest.raises(FlowInfeasibleError):
            f.solve()

    def test_unreachable_demand(self):
        f = network([1, -1], [])
        with pytest.raises(FlowInfeasibleError):
            f.solve()

    def test_negative_cost_needs_potentials(self):
        f = network([1, -1], [(0, 1, -2)])
        with pytest.raises(ValueError):
            f.solve()
        f2 = network([1, -1], [(0, 1, -2)])
        assert solve_cost(f2, [0, -2]) == -2

    def test_matches_networkx(self):
        import random

        rng = random.Random(7)
        for trial in range(10):
            n = 6
            supplies = [0] * n
            for i in range(n - 1):
                amount = rng.randint(0, 3)
                supplies[i] += amount
                supplies[-1] -= amount
            arcs = []
            for _ in range(14):
                u, v = rng.sample(range(n), 2)
                arcs.append((u, v, rng.randint(0, 9), rng.randint(1, 6)))
            f = network(supplies, arcs)
            # a MultiDiGraph keeps parallel arcs apart
            g = nx.MultiDiGraph()
            for i in range(n):
                g.add_node(i, demand=-supplies[i])
            for u, v, cost, cap in arcs:
                g.add_edge(u, v, weight=cost, capacity=cap)
            try:
                expected, _ = nx.network_simplex(g)
            except nx.NetworkXUnfeasible:
                with pytest.raises(FlowInfeasibleError):
                    f.solve()
                continue
            assert solve_cost(f) == expected
