"""Edge-case tests for the min-cost-flow accessors and ternary guards."""

import pytest

from repro.kernels import IntMinCostFlow
from repro.logic.functions import MAX_EXACT_UNKNOWNS, eval_table
from repro.logic.ternary import T1, TX
from repro.netlist import Gate, GateFn


class TestFlowAccessors:
    def test_potentials_after_solve(self):
        f = IntMinCostFlow(2)
        f.supply = [2, -2]
        f.add_arc(0, 1, 3)
        f.solve()
        pots = f.potential
        assert len(pots) == 2
        # reduced cost of the saturating arc is tight
        assert 3 + pots[0] - pots[1] == pytest.approx(0.0)

    def test_arcs_view_updated(self):
        f = IntMinCostFlow(2)
        f.supply = [1, -1]
        f.add_arc(0, 1, 2)
        assert f.arcs() == [(0, 1, 2, 0)]
        f.solve()
        assert f.arcs() == [(0, 1, 2, 1)]

    def test_zero_supply_trivial(self):
        f = IntMinCostFlow(2)
        f.add_arc(0, 1, 5)
        f.solve()
        assert [flow for *_, flow in f.arcs()] == [0]


class TestWideGateGuard:
    def test_exact_guard_returns_x(self):
        """Past MAX_EXACT_UNKNOWNS unknown pins the sweep is skipped."""
        n = MAX_EXACT_UNKNOWNS + 1
        table = (1 << (1 << n)) - 1  # constant 1 — but too wide to prove
        assert eval_table(table, [TX] * n) == TX

    def test_exact_at_the_limit(self):
        n = MAX_EXACT_UNKNOWNS
        table = (1 << (1 << n)) - 1
        assert eval_table(table, [TX] * n) == T1
