"""IntMinCostFlow against networkx, plus LP optimality of its potentials.

networkx's network simplex is the oracle for the optimal cost.  The
returned node potentials are the LP dual the retiming caller consumes,
so they are checked directly for reduced-cost optimality: no residual
arc has a negative reduced cost, which makes the reduced cost of every
arc carrying flow below its capacity exactly zero.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro import obs
from repro.kernels import IntMinCostFlow
from repro.kernels.mcf import INF, FlowInfeasibleError


def _network(seed: int, n: int = 8, max_amount: int = 4):
    """A random feasible network; returns (flow, supply, capacities)."""
    rng = random.Random(seed)
    supply = [0] * n
    for _ in range(3):
        a, b = rng.sample(range(n), 2)
        amount = rng.randint(1, max_amount)
        supply[a] += amount
        supply[b] -= amount
    arcs = []
    for i in range(n):  # uncapacitated ring: always feasible
        arcs.append((i, (i + 1) % n, rng.randint(0, 5), INF))
    for _ in range(2 * n):
        u, v = rng.sample(range(n), 2)
        cap = INF if rng.random() < 0.5 else float(rng.randint(1, 5))
        arcs.append((u, v, rng.randint(0, 8), cap))
    flow = IntMinCostFlow(n)
    flow.supply = list(supply)
    for u, v, cost, cap in arcs:
        flow.add_arc(u, v, cost, cap)
    return flow, supply, [cap for *_, cap in arcs]


def total_cost(flow: IntMinCostFlow) -> int:
    return sum(cost * f for _, _, cost, f in flow.arcs())


def networkx_cost(supply, flow: IntMinCostFlow, capacities) -> int:
    g = nx.MultiDiGraph()
    for i, s in enumerate(supply):
        g.add_node(i, demand=-s)
    for (u, v, cost, _), cap in zip(flow.arcs(), capacities):
        if cap == INF:
            g.add_edge(u, v, weight=cost)
        else:
            g.add_edge(u, v, weight=cost, capacity=int(cap))
    cost, _ = nx.network_simplex(g)
    return cost


def assert_optimal_potentials(flow: IntMinCostFlow, capacities) -> None:
    pot = flow.potential
    for (u, v, cost, f), cap in zip(flow.arcs(), capacities):
        reduced = cost + pot[u] - pot[v]
        if f < cap:  # forward residual arc
            assert reduced >= -1e-9, (u, v, reduced)
        if f > 0:  # backward residual arc
            assert reduced <= 1e-9, (u, v, reduced)


@pytest.mark.parametrize("seed", range(10))
def test_matches_networkx_with_optimal_potentials(seed):
    flow, supply, caps = _network(seed)
    flow.solve()
    assert total_cost(flow) == networkx_cost(supply, flow, caps)
    assert_optimal_potentials(flow, caps)


@pytest.mark.parametrize("seed", range(20))
def test_large_supplies_route_multi_unit_paths(seed):
    """Supplies of tens of units: still optimal, and an augmenting path
    carries as many units as its bottleneck allows, not one."""
    flow, supply, caps = _network(seed + 100, n=10, max_amount=40)
    with obs.session() as tracer:
        flow.solve()
    assert total_cost(flow) == networkx_cost(supply, flow, caps)
    assert_optimal_potentials(flow, caps)
    units = sum(s for s in supply if s > 0)
    assert tracer.counters["mcf.augmentations"] < units


@pytest.mark.parametrize("seed", range(4))
def test_initial_potentials_respected(seed):
    plain, supply, caps = _network(seed)
    plain.solve()
    shifted, _, _ = _network(seed)
    # a uniform shift keeps every reduced cost unchanged, so it is valid
    # and the search runs exactly as without it
    shifted.solve([1.0] * shifted.n)
    assert total_cost(shifted) == networkx_cost(supply, shifted, caps)
    assert shifted.potential == [p + 1.0 for p in plain.potential]
    assert_optimal_potentials(shifted, caps)


def test_unbalanced_supplies_rejected():
    flow = IntMinCostFlow(2)
    flow.supply[0] = 1
    flow.add_arc(0, 1, 1)
    with pytest.raises(FlowInfeasibleError):
        flow.solve()


def test_negative_reduced_cost_rejected():
    flow = IntMinCostFlow(2)
    flow.supply = [1, -1]
    flow.add_arc(0, 1, -2)
    with pytest.raises(ValueError):
        flow.solve()
    # the same arc is fine once the potentials absorb its cost
    flow = IntMinCostFlow(2)
    flow.supply = [1, -1]
    flow.add_arc(0, 1, -2)
    flow.solve([0.0, -2.0])
    assert flow.arcs() == [(0, 1, -2, 1)]
    assert_optimal_potentials(flow, [INF])


def test_unreachable_demand_rejected():
    flow = IntMinCostFlow(2)
    flow.supply = [1, -1]  # no arc 0->1 at all
    with pytest.raises(FlowInfeasibleError):
        flow.solve()
