"""End-to-end tests of the six-step mc-retiming engine (Sec. 5)."""

import pytest

from repro.logic.ternary import T0, T1
from repro.mcretime import mc_retime
from repro.netlist import Circuit, GateFn, check_circuit
from repro.timing import UNIT_DELAY, analyze

from .test_relocate import all_vectors, equivalent_after_reset


def deep_enable_pipeline() -> Circuit:
    """Registers at the input of a 4-gate chain; retiming should spread
    them to cut the critical path."""
    c = Circuit("deep")
    for net in ("clk", "en", "rs", "a", "b"):
        c.add_input(net)
    c.add_register(d="a", q="qa", clk="clk", en="en", sr="rs", sval=T0, name="ra")
    c.add_register(d="b", q="qb", clk="clk", en="en", sr="rs", sval=T0, name="rb")
    c.add_gate(GateFn.AND, ["qa", "qb"], "n1", name="g1")
    c.add_gate(GateFn.NOT, ["n1"], "n2", name="g2")
    c.add_gate(GateFn.XOR, ["n2", "qa"], "n3", name="g3")
    c.add_gate(GateFn.OR, ["n3", "n2"], "n4", name="g4")
    c.add_register(d="n4", q="qo", clk="clk", en="en", sr="rs", sval=T0, name="ro")
    c.add_output("qo")
    return c


class TestEngine:
    def test_improves_period(self):
        c = deep_enable_pipeline()
        result = mc_retime(c)
        check_circuit(result.circuit)
        assert result.period_after < result.period_before
        assert result.steps_moved > 0
        assert result.steps_possible >= result.steps_moved

    def test_period_matches_sta(self):
        c = deep_enable_pipeline()
        result = mc_retime(c)
        sta = analyze(result.circuit, UNIT_DELAY)
        assert sta.max_delay == pytest.approx(result.period_after)

    def test_single_class(self):
        result = mc_retime(deep_enable_pipeline())
        assert result.n_classes == 1

    def test_equivalence(self):
        c = deep_enable_pipeline()
        result = mc_retime(c)
        assert equivalent_after_reset(
            c, result.circuit, "rs", all_vectors(["en", "a", "b"], 24)
        )

    def test_minperiod_objective(self):
        c = deep_enable_pipeline()
        area = mc_retime(c, objective="minarea")
        speed = mc_retime(c, objective="minperiod")
        assert speed.period_after == pytest.approx(area.period_after)
        assert area.ff_after <= speed.ff_after

    def test_target_period(self):
        c = deep_enable_pipeline()
        relaxed = mc_retime(c, target_period=4.0)
        assert relaxed.period_after <= 4.0 + 1e-9

    def test_infeasible_target_raises(self):
        from repro.retime import InfeasibleError

        with pytest.raises(InfeasibleError):
            mc_retime(deep_enable_pipeline(), target_period=0.5)

    def test_infeasible_minperiod_target_certified_by_one_check(self):
        """An infeasible min-period target is decided and certified by a
        single lazy feasibility run: its grown system yields the
        negative cycle, the check is not re-run to find one."""
        from pathlib import Path

        from repro import obs
        from repro.netlist import read_blif
        from repro.retime.constraints import InfeasibleConstraints

        data = Path(__file__).resolve().parent.parent / "data"
        circuit = read_blif((data / "c3_small.blif").read_text())
        tracer = obs.start()
        try:
            with pytest.raises(InfeasibleConstraints) as err:
                mc_retime(circuit, objective="minperiod", target_period=0.5)
        finally:
            obs.stop()
        assert tracer.snapshot()["span_counts"]["minperiod.feas"] == 1
        assert str(err.value) == "target period 0.5 infeasible for 'C3'"
        assert err.value.certificate() == {
            "kind": "negative_cycle",
            "period": 0.5,
            "sum": -1,
            "constraints": [
                {
                    "u": "lut$en2_net",
                    "v": "lut$en2_net",
                    "bound": -1,
                    "tag": "period",
                }
            ],
        }

    def test_mixed_classes_restrict(self):
        """With two different enables, registers cannot merge across the
        class boundary: the engine must respect the bounds."""
        c = Circuit("mixed")
        for net in ("clk", "e1", "e2", "a", "b"):
            c.add_input(net)
        c.add_register(d="a", q="qa", clk="clk", en="e1", name="ra")
        c.add_register(d="b", q="qb", clk="clk", en="e2", name="rb")
        c.add_gate(GateFn.AND, ["qa", "qb"], "n1", name="g1")
        c.add_gate(GateFn.NOT, ["n1"], "n2", name="g2")
        c.add_register(d="n2", q="qo", clk="clk", en="e1", name="ro")
        c.add_output("qo")
        result = mc_retime(c)
        check_circuit(result.circuit)
        assert result.n_classes == 2
        # the mixed input layer cannot cross g1: r(g1) >= 0 moves only
        assert result.r["g1"] >= 0

    def test_timings_recorded(self):
        result = mc_retime(deep_enable_pipeline())
        assert set(result.timings) >= {
            "build",
            "bounds",
            "sharing",
            "minperiod",
            "minarea",
            "relocate",
        }
        fractions = result.timing_fractions()
        assert abs(sum(fractions.values()) - 1.0) < 0.2  # phases cover most

    def test_no_register_circuit(self):
        c = Circuit("comb")
        c.add_input("a")
        c.add_gate(GateFn.NOT, ["a"], "y", name="g")
        c.add_output("y")
        result = mc_retime(c)
        assert result.ff_after == 0
        assert result.steps_moved == 0

    def test_conflict_fallback_produces_valid_result(self):
        """A design whose min-area solution requires an unjustifiable
        backward move must converge via bound clamping."""
        c = Circuit("clash")
        for net in ("clk", "rs", "a", "b"):
            c.add_input(net)
        c.add_gate(GateFn.AND, ["a", "b"], "n", name="g")
        # two conflicting registers at the same position: any backward
        # move across g is unjustifiable
        c.add_register(d="n", q="q1", clk="clk", sr="rs", sval=T1, name="r1")
        c.add_register(d="n", q="q2", clk="clk", sr="rs", sval=T0, name="r2")
        c.add_gate(GateFn.NOT, ["q1"], "y1", name="s1")
        c.add_gate(GateFn.NOT, ["q2"], "y2", name="s2")
        c.add_output("y1")
        c.add_output("y2")
        result = mc_retime(c)
        check_circuit(result.circuit)
        # either it never tried the bad move, or it recovered from it
        assert result.r.get("g", 0) == 0
