"""The difference-constraint solver against an independent oracle.

The maximal non-positive solution of a difference system is unique: it
is the vector of shortest-path distances from a virtual source with a
0-weight arc to every variable, each constraint ``r(u) − r(v) ≤ b``
being an arc ``v → u`` of weight ``b``.  networkx's Bellman-Ford
computes exactly that, so every solving path the kernel picks — cold
SPFA, warm list rounds, vectorised rounds — must return its answer,
and an infeasible system must be one networkx finds a negative cycle
in.  Every negative cycle the solver returns must chain and sum below
zero.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.kernels import CompiledSystem
from repro.kernels import diffsys as diffsys_module
from repro.retime.minperiod import base_system
from tests.retime.helpers import correlator


def _system(n_vars: int) -> CompiledSystem:
    names = [f"x{i}" for i in range(n_vars)]
    return CompiledSystem(names, {name: i for i, name in enumerate(names)})


def _oracle(n: int, constraints) -> list[int] | None:
    """Maximal non-positive solution by networkx Bellman-Ford from a
    virtual source, or None when the system has a negative cycle."""
    g = nx.DiGraph()
    g.add_node("source")
    for i in range(n):
        g.add_edge("source", i, weight=0)
    for u, v, b in constraints:
        if u == v:
            if b < 0:
                return None
            continue
        if not g.has_edge(v, u) or b < g[v][u]["weight"]:
            g.add_edge(v, u, weight=b)
    try:
        dist = nx.single_source_bellman_ford_path_length(g, "source")
    except nx.NetworkXUnbounded:
        return None
    return [dist[i] for i in range(n)]


def _assert_certificate(cs: CompiledSystem) -> None:
    """An infeasible system's negative cycle chains and sums below 0."""
    cycle = cs.negative_cycle()
    assert cycle
    for i, c in enumerate(cycle):
        assert c.v == cycle[(i + 1) % len(cycle)].u
    assert sum(c.bound for c in cycle) < 0
    # every entry is a constraint of the system, with its current bound
    current = {(c.u, c.v): c for c in cs}
    assert all(current[c.u, c.v] == c for c in cycle)


def _assert_solves_like_oracle(cs: CompiledSystem, constraints) -> None:
    expected = _oracle(cs.n, constraints)
    got = cs.solve()
    if expected is None:
        assert got is None
        _assert_certificate(cs)
    else:
        assert got == expected
        assert cs.negative_cycle() is None


def _random_arcs(seed: int, n: int, m: int, lo: int, hi: int):
    rng = random.Random(seed)
    return [
        (rng.randrange(n), rng.randrange(n), rng.randint(lo, hi))
        for _ in range(m)
    ]


@pytest.mark.parametrize("seed", range(8))
def test_cold_solve_matches_dict(seed):
    """A cold solve equals the networkx oracle; ``add`` reports exactly
    the constraints that tightened their ordered pair."""
    cs = _system(12)
    best: dict[tuple[int, int], int] = {}
    arcs = _random_arcs(seed, 12, 30, -3, 6)
    for u, v, b in arcs:
        tightens = not (u == v and b >= 0) and b < best.get((u, v), b + 1)
        if tightens:
            best[u, v] = b
        assert cs.add(u, v, b) == tightens
    assert len(cs) == len(best)
    _assert_solves_like_oracle(cs, arcs)


@pytest.mark.parametrize("seed", range(6))
def test_warm_resolve_matches_fresh_dict_solve(seed):
    """Incremental re-solves from the previous fixed point equal a fresh
    oracle solve at every stage — the lazy-loop contract."""
    cs = _system(10)
    # non-negative bounds: the zero vector is feasible, so stage 0 solves
    arcs = _random_arcs(seed, 10, 20, 0, 5)
    for u, v, b in arcs:
        cs.add(u, v, b)
    _assert_solves_like_oracle(cs, arcs)
    rng = random.Random(seed + 1000)
    for _ in range(6):  # tighten a few arcs, re-solve warm each time
        u, v = rng.randrange(10), rng.randrange(10)
        b = rng.randint(-4, 2)
        cs.add(u, v, b)
        arcs.append((u, v, b))
        _assert_solves_like_oracle(cs, arcs)
        if cs.dist is None:
            break


def test_tighten_and_dedup_semantics():
    cs = _system(4)
    assert cs.add(0, 1, 5, "circuit")
    # looser bound on the same pair is a no-op, tag included
    assert not cs.add(0, 1, 7, "pin")
    assert cs.add(0, 1, 2)  # untagged tightening keeps the tag
    assert len(cs) == 1
    assert [(c.u, c.v, c.bound, c.tag) for c in cs] == [
        ("x0", "x1", 2, "circuit")
    ]
    assert cs.add(0, 1, 1, "period")
    assert [c.tag for c in cs] == ["period"]
    # vacuous non-negative self-pair is dropped
    assert not cs.add(2, 2, 0)
    assert len(cs) == 1 and not cs.self_negative
    # negative self-pair makes the system infeasible
    assert cs.add(3, 3, -1, "class")
    assert cs.self_negative
    assert cs.solve() is None
    assert [(c.u, c.v, c.bound, c.tag) for c in cs.negative_cycle()] == [
        ("x3", "x3", -1, "class")
    ]


def test_negative_cycle_detected():
    cs = _system(3)
    for u, v, b in [(0, 1, -1), (1, 2, -1), (2, 0, -1)]:
        cs.add(u, v, b, "circuit")
    assert cs.solve() is None
    _assert_certificate(cs)
    assert sorted(c.u for c in cs.negative_cycle()) == ["x0", "x1", "x2"]
    # warm path must also detect it: feasible first, then close the cycle
    cs = _system(3)
    cs.add(0, 1, -2)
    cs.add(1, 2, -2)
    assert cs.solve() == _oracle(3, [(0, 1, -2), (1, 2, -2)])
    cs.add(2, 0, 3, "period")  # total weight -1: negative cycle
    assert cs.solve() is None
    _assert_certificate(cs)
    assert "period" in {c.tag for c in cs.negative_cycle()}


@pytest.mark.parametrize("seed", range(6))
def test_random_negative_cycles_are_certificates(seed):
    """Random systems with negative bounds: the solver and networkx
    agree on infeasibility, and every certificate re-validates."""
    arcs = _random_arcs(seed + 77, 8, 24, -4, 3)
    cs = _system(8)
    for u, v, b in arcs:
        cs.add(u, v, b, f"t{u}")
    _assert_solves_like_oracle(cs, arcs)


def test_copy_is_independent():
    cs = _system(5)
    for u, v, b in _random_arcs(42, 5, 10, 0, 4):
        cs.add(u, v, b)
    before = list(cs.solve())
    clone = cs.copy()
    clone.add(0, 4, -3)
    clone.solve()
    assert cs.solve() == before  # original unaffected
    assert len(clone) >= len(cs)


def test_violated_matches_dict_check():
    """``violated`` lists exactly the constraints (tightest bound per
    pair) that a brute-force check of the assignment finds broken."""
    cs = _system(6)
    best: dict[tuple[int, int], int] = {}
    for u, v, b in _random_arcs(9, 6, 14, -2, 4):
        cs.add(u, v, b)
        if u != v or b < 0:
            best[u, v] = min(b, best.get((u, v), b))
    rng = random.Random(77)
    r = [rng.randint(-3, 3) for _ in range(6)]
    expected = {
        (u, v, b) for (u, v), b in best.items() if r[u] - r[v] > b
    }
    assert expected  # the check is not vacuous
    assert set(cs.violated(r)) == expected


@pytest.mark.parametrize("seed", range(4))
def test_list_fallback_matches_vectorized(seed, monkeypatch):
    """Vectorised rounds and the list path (cold SPFA, then warm list
    rounds) each land on the oracle's fixed point at every stage."""

    def run():
        cs = _system(40)
        arcs = _random_arcs(seed, 40, 220, 0, 5)
        for u, v, b in arcs:
            cs.add(u, v, b)
        _assert_solves_like_oracle(cs, arcs)
        for u, v, b in _random_arcs(seed + 500, 40, 8, -3, 3):
            cs.add(u, v, b)
            arcs.append((u, v, b))
            _assert_solves_like_oracle(cs, arcs)
            if cs.dist is None:
                break

    assert 220 >= diffsys_module._NUMPY_MIN_ARCS
    run()  # vectorised rounds, cold and warm
    monkeypatch.setattr(diffsys_module, "_NUMPY_MIN_ARCS", 10**9)
    run()  # forced list path


def test_base_system_matches_networkx_on_real_graph():
    g = correlator()
    cs = base_system(g)
    assert [c.tag for c in cs][: len(g.edges)] == ["circuit"] * len(g.edges)
    constraints = [
        (cs.index[c.u], cs.index[c.v], c.bound) for c in cs
    ]
    assert cs.solve() == _oracle(cs.n, constraints)
    normalized = cs.normalized(cs.dist)
    assert normalized[cs.host] == 0


def test_add_variable_forks_the_shared_universe():
    g = correlator()
    cs = base_system(g)
    shared = cs.names
    cs.solve()
    n_graph = len(shared)
    i = cs.add_variable("$extra")
    assert i == cs.n - 1
    assert len(shared) == n_graph  # the graph's table is untouched
    assert len(cs.dist) == cs.n  # previous solution extended
    assert cs.add_variable("$extra") == i  # idempotent
    cs.add(i, cs.index["$host"], 3)
    assert cs.solve() is not None
