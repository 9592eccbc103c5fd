"""CompiledSystem vs DifferenceSystem: identical semantics and fixed points.

The maximal non-positive solution of a difference system is unique, so
every solving strategy the kernel picks — cold SPFA, warm list
Bellman-Ford, vectorised rounds — must return exactly the dict solver's
answer.  These tests pin that down, including the forced list fallback
and forced vectorised paths.
"""

from __future__ import annotations

import random

import pytest

from repro.kernels import CompiledSystem, compile_graph
from repro.kernels import diffsys as diffsys_module
from repro.retime.constraints import DifferenceSystem
from repro.retime.minperiod import base_system
from tests.retime.helpers import correlator


def _mirrored(n_vars: int):
    names = [f"x{i}" for i in range(n_vars)]
    ds = DifferenceSystem(names)
    cs = CompiledSystem(list(names), {name: i for i, name in enumerate(names)})
    return names, ds, cs


def _add_both(names, ds, cs, u: int, v: int, b: int) -> tuple[bool, bool]:
    return ds.add(names[u], names[v], b), cs.add(u, v, b)


def _assert_same_solution(names, ds, cs):
    expected = ds.solve()
    got = cs.solve()
    if expected is None:
        assert got is None
    else:
        assert got == [expected[name] for name in names]


def _random_arcs(seed: int, n: int, m: int, lo: int, hi: int):
    rng = random.Random(seed)
    return [
        (rng.randrange(n), rng.randrange(n), rng.randint(lo, hi))
        for _ in range(m)
    ]


@pytest.mark.parametrize("seed", range(8))
def test_cold_solve_matches_dict(seed):
    names, ds, cs = _mirrored(12)
    for u, v, b in _random_arcs(seed, 12, 30, -3, 6):
        tightened_d, tightened_k = _add_both(names, ds, cs, u, v, b)
        assert tightened_d == tightened_k
    assert len(ds) == len(cs)
    _assert_same_solution(names, ds, cs)


@pytest.mark.parametrize("seed", range(6))
def test_warm_resolve_matches_fresh_dict_solve(seed):
    """Incremental re-solves from the previous fixed point must equal a
    cold dict solve at every stage — the lazy-loop contract."""
    names, ds, cs = _mirrored(10)
    # non-negative bounds: the zero vector is feasible, so stage 0 solves
    for u, v, b in _random_arcs(seed, 10, 20, 0, 5):
        _add_both(names, ds, cs, u, v, b)
    _assert_same_solution(names, ds, cs)
    rng = random.Random(seed + 1000)
    for _ in range(6):  # tighten a few arcs, re-solve warm each time
        u, v = rng.randrange(10), rng.randrange(10)
        b = rng.randint(-4, 2)
        _add_both(names, ds, cs, u, v, b)
        _assert_same_solution(names, ds, cs)
        if cs.self_negative:
            break


def test_tighten_and_dedup_semantics():
    names, ds, cs = _mirrored(4)
    assert _add_both(names, ds, cs, 0, 1, 5) == (True, True)
    # looser bound on the same pair is a no-op in both
    assert _add_both(names, ds, cs, 0, 1, 7) == (False, False)
    assert _add_both(names, ds, cs, 0, 1, 2) == (True, True)
    assert len(ds) == len(cs) == 1
    assert cs.arc_b[cs.pair[(0, 1)]] == ds.bound(names[0], names[1]) == 2
    # vacuous non-negative self-pair is dropped
    assert _add_both(names, ds, cs, 2, 2, 0) == (False, False)
    assert len(cs) == 1 and not cs.self_negative
    # negative self-pair makes the system infeasible
    assert _add_both(names, ds, cs, 3, 3, -1) == (True, True)
    assert cs.self_negative
    _assert_same_solution(names, ds, cs)  # both None


def test_negative_cycle_detected():
    names, ds, cs = _mirrored(3)
    for u, v, b in [(0, 1, -1), (1, 2, -1), (2, 0, -1)]:
        _add_both(names, ds, cs, u, v, b)
    assert ds.solve() is None
    assert cs.solve() is None
    # warm path must also detect it: feasible first, then close the cycle
    names, ds, cs = _mirrored(3)
    _add_both(names, ds, cs, 0, 1, -2)
    _add_both(names, ds, cs, 1, 2, -2)
    _assert_same_solution(names, ds, cs)
    _add_both(names, ds, cs, 2, 0, 3)  # total weight -1: negative cycle
    assert ds.solve() is None
    assert cs.solve() is None


def test_copy_is_independent():
    names, ds, cs = _mirrored(5)
    for u, v, b in _random_arcs(42, 5, 10, 0, 4):
        _add_both(names, ds, cs, u, v, b)
    before = list(cs.solve())
    clone = cs.copy()
    clone.add(0, 4, -3)
    clone.solve()
    assert cs.solve() == before  # original unaffected
    assert len(clone) >= len(cs)


def test_violated_matches_dict_check():
    names, ds, cs = _mirrored(6)
    for u, v, b in _random_arcs(9, 6, 14, -2, 4):
        _add_both(names, ds, cs, u, v, b)
    rng = random.Random(77)
    r_list = [rng.randint(-3, 3) for _ in range(6)]
    r_dict = {names[i]: r_list[i] for i in range(6)}
    got = {(names[u], names[v], b) for u, v, b in cs.violated(r_list)}
    expected = {(c.u, c.v, c.bound) for c in ds.check(r_dict)}
    assert got == expected


@pytest.mark.parametrize("seed", range(4))
def test_list_fallback_matches_vectorized(seed, monkeypatch):
    """Cold SPFA, warm list rounds and vectorised rounds all land on the
    same (unique) fixed point at every incremental stage."""

    def run():
        names, _, cs = _mirrored(10)
        for u, v, b in _random_arcs(seed, 10, 25, 0, 5):
            cs.add(u, v, b)
        stages = [list(cs.solve())]
        for u, v, b in _random_arcs(seed + 500, 10, 8, -3, 3):
            cs.add(u, v, b)
            got = cs.solve()
            stages.append(None if got is None else list(got))
            if got is None:
                break
        return stages

    default = run()
    monkeypatch.setattr(diffsys_module, "_NUMPY_MIN_ARCS", 10**9)
    forced_list = run()
    assert forced_list == default
    monkeypatch.setattr(diffsys_module, "_NUMPY_MIN_ARCS", 1)
    forced_vec = run()
    assert forced_vec == default


def test_from_system_matches_dict_on_real_graph():
    g = correlator()
    cg = compile_graph(g)
    system = base_system(g)
    cs = CompiledSystem.from_system(system, cg)
    expected = system.solve()
    got = cs.solve()
    assert got == [expected[name] for name in cs.names]
    normalized = cs.normalized(got)
    assert normalized[cs.host] == 0


def test_add_variable_forks_the_shared_universe():
    g = correlator()
    cg = compile_graph(g)
    cs = CompiledSystem.from_system(base_system(g), cg)
    cs.solve()
    n_graph = len(cg.names)
    i = cs.add_variable("$extra")
    assert i == cs.n - 1
    assert len(cg.names) == n_graph  # the graph's table is untouched
    assert len(cs.dist) == cs.n  # previous solution extended
    assert cs.add_variable("$extra") == i  # idempotent
    cs.add(i, cs.index["$host"], 3)
    assert cs.solve() is not None
