"""CompiledGraph interning: ids, edge order, CSR indexes, round-trips."""

from __future__ import annotations

from repro.graph import HOST
from repro.kernels import CompiledGraph, compile_graph
from tests.retime.helpers import correlator, random_graph


def test_vertex_interning_follows_insertion_order():
    g = correlator()
    cg = compile_graph(g)
    assert cg.names == list(g.vertices)
    assert cg.index == {name: i for i, name in enumerate(cg.names)}
    assert cg.n == len(g.vertices)
    assert cg.delay == [g.vertices[name].delay for name in cg.names]
    assert cg.host == cg.index[HOST]
    assert cg.through_host == g.combinational_host


def test_edge_arrays_follow_dict_iteration_order():
    g = random_graph(3)
    cg = compile_graph(g)
    edges = list(g.edges.values())
    assert cg.m == len(edges)
    assert [cg.names[u] for u in cg.eu] == [e.u for e in edges]
    assert [cg.names[v] for v in cg.ev] == [e.v for e in edges]
    assert cg.ew == [e.w for e in edges]
    assert list(cg.src_host) == [
        1 if g.vertices[e.u].kind == "host" else 0 for e in edges
    ]


def test_csr_adjacency_matches_edge_order():
    g = random_graph(7, n_vertices=10, n_edges=25)
    cg = compile_graph(g)
    for i in range(cg.n):
        out = cg.out_edges[cg.out_start[i] : cg.out_start[i + 1]]
        assert out == [k for k in range(cg.m) if cg.eu[k] == i]
        inc = cg.in_edges[cg.in_start[i] : cg.in_start[i + 1]]
        assert inc == [k for k in range(cg.m) if cg.ev[k] == i]
    assert cg.out_start[cg.n] == cg.m
    assert cg.in_start[cg.n] == cg.m


def test_movable_flags_match_graph():
    g = correlator()
    cg = compile_graph(g)
    for i, name in enumerate(cg.names):
        assert bool(cg.movable[i]) == g.vertices[name].movable
        assert bool(cg.is_mirror[i]) == (g.vertices[name].kind == "mirror")


def test_r_array_round_trip():
    g = correlator()
    cg = compile_graph(g)
    r = {"v1": 2, "v5": -1, "not-a-vertex": 9}
    dense = cg.r_array(r)
    assert dense[cg.index["v1"]] == 2
    assert dense[cg.index["v5"]] == -1
    assert sum(1 for x in dense if x) == 2  # unknown names are dropped
    back = cg.r_dict(dense)
    assert list(back) == cg.names  # vertex insertion order preserved
    assert back["v1"] == 2 and back["v5"] == -1 and back["v2"] == 0
    assert cg.r_array(None) == [0] * cg.n
    assert cg.r_array({}) == [0] * cg.n


def test_graph_compiled_method():
    g = random_graph(1)
    cg = g.compiled()
    assert isinstance(cg, CompiledGraph)
    assert cg.names == list(g.vertices)


def test_numpy_mirrors_match_lists():
    g = random_graph(5, n_vertices=12, n_edges=30)
    cg = compile_graph(g)
    assert cg.eu_np.tolist() == cg.eu
    assert cg.ev_np.tolist() == cg.ev
    assert cg.ew_np.tolist() == cg.ew
    assert cg.src_host_np.tolist() == [bool(b) for b in cg.src_host]
