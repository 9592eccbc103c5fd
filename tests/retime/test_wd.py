"""Tests for the W/D matrices (paper Sec. 2 definitions)."""

import signal

import pytest

from repro.graph import HOST, RetimingGraph
from repro.retime import (
    candidate_periods,
    clock_period,
    min_period,
    wd_from_source,
    wd_matrices,
)

from .helpers import correlator, random_graph


def guarded(fn, *args, seconds: float = 5.0):
    """*fn(*args)*, failing with TimeoutError instead of running forever."""

    def expire(signum, frame):
        raise TimeoutError(f"{fn.__name__} ran for over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestWD:
    def test_correlator_known_values(self):
        g = correlator()
        W, D = wd_matrices(g)
        # v1 -> v7 direct edge: zero registers, delay 3 + 7
        assert W["v1", "v7"] == 0
        assert D["v1", "v7"] == pytest.approx(10.0)
        # v1 -> v4 along the comparator chain: three registers
        assert W["v1", "v4"] == 3
        # diagonal: trivial path
        assert W["v1", "v1"] == 0
        assert D["v1", "v1"] == pytest.approx(3.0)

    def test_d_is_max_delay_over_min_weight_paths(self):
        g = RetimingGraph()
        g.add_vertex("a", 1.0)
        g.add_vertex("b", 2.0)
        g.add_vertex("c", 5.0)
        g.add_vertex("d", 1.0)
        # two zero-weight routes a->d: via b (delay 4) and via c (delay 7)
        g.add_edge("a", "b", 0)
        g.add_edge("b", "d", 0)
        g.add_edge("a", "c", 0)
        g.add_edge("c", "d", 0)
        W, D = wd_matrices(g)
        assert W["a", "d"] == 0
        assert D["a", "d"] == pytest.approx(7.0)

    def test_min_weight_beats_delay(self):
        g = RetimingGraph()
        g.add_vertex("a", 1.0)
        g.add_vertex("b", 1.0)
        g.add_vertex("c", 9.0)
        # route with register (weight 1, short) vs zero-weight via c
        g.add_edge("a", "b", 1)
        g.add_edge("a", "c", 0)
        g.add_edge("c", "b", 0)
        W, D = wd_matrices(g)
        assert W["a", "b"] == 0  # the register-free route wins on weight
        assert D["a", "b"] == pytest.approx(11.0)

    def test_unreachable_pairs_absent(self):
        g = RetimingGraph()
        g.add_vertex("a", 1.0)
        g.add_vertex("b", 1.0)
        g.add_edge("a", "b", 0)
        best = wd_from_source(g, "b")
        assert "a" not in best

    def test_candidate_periods_contains_optimum(self):
        g = correlator()
        candidates = candidate_periods(g)
        assert any(abs(c - 13.0) < 1e-9 for c in candidates)
        assert candidates == sorted(candidates)

    @pytest.mark.parametrize("seed", range(5))
    def test_optimum_is_a_candidate(self, seed):
        g = random_graph(seed + 50)
        phi = min_period(g).phi
        candidates = candidate_periods(g)
        assert any(abs(c - phi) < 1e-6 for c in candidates)

    @pytest.mark.parametrize("seed", range(5))
    def test_w_triangle_inequality(self, seed):
        g = random_graph(seed + 70, n_vertices=6, n_edges=12)
        # textbook semantics: paths may run through the environment, so
        # the triangle inequality holds for every intermediate vertex
        g.combinational_host = True
        W, _ = wd_matrices(g)
        vs = list(g.vertices)
        for u in vs:
            for x in vs:
                for v in vs:
                    if (u, x) in W and (x, v) in W and (u, v) in W:
                        assert W[u, v] <= W[u, x] + W[x, v]


class TestHostCycle:
    """A register-free cycle through the host: ``$host→v0→v2→v5→$host``.

    Paths from the host used to re-expand the host on every return, with
    ever larger delay, and never terminated.
    """

    @staticmethod
    def graph():
        return random_graph(59, n_vertices=6, n_edges=11)

    def test_path_back_to_host_ends_there(self):
        g = self.graph()
        W, D = guarded(wd_matrices, g)
        # the cycle carries no register; its delay is v0 + v2 + v5
        assert W[HOST, HOST] == 0
        assert D[HOST, HOST] == pytest.approx(2.0 + 4.0 + 3.0)
        # every other pair matches a single-source run that never
        # re-enters the host
        assert guarded(wd_from_source, g, "v0")["v5"] == (W["v0", "v5"], D["v0", "v5"])

    def test_the_cycle_bounds_the_period(self):
        """No retiming cuts the cycle (the host is pinned), so its delay
        is both a candidate and the optimum."""
        g = self.graph()
        candidates = guarded(candidate_periods, g)
        assert min_period(g).phi == pytest.approx(9.0)
        assert any(abs(c - 9.0) < 1e-9 for c in candidates)
