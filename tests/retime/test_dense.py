"""Dense (W/D) solvers must agree with the lazy production solvers."""

import pytest

from repro.retime import (
    clock_period,
    feasible_retiming,
    feasible_retiming_dense,
    min_area,
    min_area_dense,
    min_period,
    min_period_dense,
)

from .helpers import correlator, legal, random_graph


class TestDenseMinPeriod:
    def test_correlator_optimum(self):
        result = min_period_dense(correlator())
        assert result.phi == pytest.approx(13.0)
        assert legal(correlator(), result.r)

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_lazy(self, seed):
        g = random_graph(seed, n_vertices=7, n_edges=14)
        lazy = min_period(g)
        dense = min_period_dense(g)
        assert dense.phi == pytest.approx(lazy.phi, abs=1e-6)
        assert legal(g, dense.r)

    @pytest.mark.parametrize("seed", [3, 5, 9])
    def test_feasibility_agrees(self, seed):
        g = random_graph(seed + 20)
        phi = min_period(g).phi
        assert feasible_retiming_dense(g, phi) is not None
        below = phi - 0.5
        assert (feasible_retiming(g, below) is None) == (
            feasible_retiming_dense(g, below) is None
        )

    def test_bounds_respected(self):
        g = correlator()
        bounds = {v: (0, 0) for v in g.gate_vertices()}
        result = min_period_dense(g, bounds)
        assert result.phi == pytest.approx(24.0)


class TestDenseMinArea:
    @pytest.mark.parametrize("seed", range(60))
    def test_agrees_with_lazy(self, seed):
        """Both solvers return the canonical optimum — the identical r,
        not just an equal register count — although the dense LP has
        every period constraint and the lazy one only those it needed."""
        for n_vertices, n_edges in ((6, 11), (9, 18)):
            g = random_graph(seed, n_vertices=n_vertices, n_edges=n_edges)
            phi = min_period(g).phi
            lazy = min_area(g, phi)
            dense = min_area_dense(g, phi)
            assert dense.r == lazy.r
            assert dense.registers == lazy.registers
            assert dense.period <= phi + 1e-9
            assert legal(g, dense.r)

    def test_constraint_counts_larger(self):
        """Dense materialises far more constraints than the lazy path
        ends up needing — the Shenoy–Rudell motivation."""
        g = random_graph(77, n_vertices=10, n_edges=22)
        phi = min_period(g).phi
        lazy = min_area(g, phi)
        dense = min_area_dense(g, phi)
        assert dense.constraints >= lazy.constraints

    def test_infeasible_raises(self):
        from repro.retime import InfeasibleError

        with pytest.raises(InfeasibleError):
            min_area_dense(correlator(), 6.0)


class TestBoundsPruning:
    """The Maheshwari–Sapatnekar reduction the paper anticipates."""

    def test_pruning_preserves_optimum(self):
        from repro.retime.dense import dense_period_system

        g = random_graph(42, n_vertices=8, n_edges=16)
        bounds = {v: (-1, 1) for v in g.gate_vertices()}
        phi = min_period_dense(g, bounds).phi
        pruned = dense_period_system(g, phi, bounds, prune_with_bounds=True)
        full = dense_period_system(g, phi, bounds, prune_with_bounds=False)
        assert pruned.pruned_constraints > 0
        assert len(pruned) + pruned.pruned_constraints == len(full)
        # both systems admit solutions achieving the same period
        for system in (pruned, full):
            dist = system.solve()
            assert dist is not None
            r = dict(zip(system.names, system.normalized(dist)))
            assert clock_period(g, r) <= phi + 1e-9

    def test_tight_bounds_prune_everything(self):
        from repro.retime.dense import dense_period_system

        g = random_graph(43)
        bounds = {v: (0, 0) for v in g.gate_vertices()}
        phi = min_period_dense(g, bounds).phi
        system = dense_period_system(g, phi, bounds)
        # with all lags pinned at 0, every satisfiable period constraint
        # is implied by the bounds (and an unsatisfiable one would make
        # phi infeasible, contradiction) — so all are pruned
        assert all(c.tag != "period-dense" for c in system)
