"""Tests for the logic optimisation passes."""

import itertools

from repro.logic.simulate import eval_nets
from repro.logic.ternary import T0, T1
from repro.netlist import CONST0, CONST1, Circuit, GateFn, check_circuit
from repro.opt import (
    collapse_buffers,
    optimize,
    propagate_constants,
    share_structural,
    sweep_dead,
)


def outputs_equal(a: Circuit, b: Circuit, input_nets: list[str]) -> bool:
    """Exhaustive combinational equivalence over shared inputs."""
    for combo in itertools.product((T0, T1), repeat=len(input_nets)):
        vec = dict(zip(input_nets, combo))
        va = eval_nets(a, vec)
        vb = eval_nets(b, vec)
        for na, nb in zip(a.outputs, b.outputs):
            if va[na] != vb[nb]:
                return False
    return True


class TestConstants:
    def test_and_with_const1_becomes_buffer_then_wire(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate(GateFn.AND, ["a", CONST1], "y", name="g")
        c.add_output("y")
        propagate_constants(c)
        collapse_buffers(c)
        assert c.gates == {}
        assert c.outputs == ["a"]

    def test_and_with_const0_is_const0(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate(GateFn.AND, ["a", CONST0], "y", name="g")
        c.add_output("y")
        propagate_constants(c)
        assert c.outputs == [CONST0]

    def test_dropped_constant_pin_renumbers_readers(self):
        """Regression: folding a constant pin out of a gate must renumber
        the gate's later pins in the reader index, even when the index
        was consulted before the fold."""
        c = Circuit()
        c.add_input("a")
        c.add_input("b")
        c.add_gate(GateFn.AND, [CONST1, "a", "b"], "y", name="g")
        c.add_output("y")
        assert c.readers("b") == [("gate", "g", 2)]
        propagate_constants(c)
        assert c.gates["g"].inputs == ["a", "b"]
        assert c.readers("a") == [("gate", "g", 0)]
        assert c.readers("b") == [("gate", "g", 1)]
        assert c.readers(CONST1) == []

    def test_constants_flow_through_chain(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate(GateFn.OR, ["a", CONST1], "n1", name="g1")  # = 1
        c.add_gate(GateFn.XOR, ["n1", "a"], "n2", name="g2")  # = NOT a
        c.add_output("n2")
        before = c.clone()
        propagate_constants(c)
        check_circuit(c)
        assert len(c.gates) == 1
        assert outputs_equal(before, c, ["a"])

    def test_xor_self_not_folded_without_sharing(self):
        # XOR(a, a) = 0 is not visible to constant propagation (the pin
        # nets are equal but non-constant); it IS a constant gate though
        c = Circuit()
        c.add_input("a")
        g = c.add_gate(GateFn.XOR, ["a", "a"], "y", name="g")
        c.add_output("y")
        # truth table of XOR is not constant; the pass leaves it alone
        propagate_constants(c)
        assert "g" in c.gates


class TestBuffersAndSharing:
    def test_double_inverter_collapses(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate(GateFn.NOT, ["a"], "n1", name="i1")
        c.add_gate(GateFn.NOT, ["n1"], "n2", name="i2")
        c.add_gate(GateFn.AND, ["n2", "a"], "y", name="g")
        c.add_output("y")
        before = c.clone()
        optimize(c)
        check_circuit(c)
        assert len(c.gates) == 1  # only the AND remains
        assert outputs_equal(before, c, ["a"])

    def test_share_identical_gates(self):
        c = Circuit()
        c.add_input("a")
        c.add_input("b")
        c.add_gate(GateFn.AND, ["a", "b"], "n1", name="g1")
        c.add_gate(GateFn.AND, ["a", "b"], "n2", name="g2")
        c.add_gate(GateFn.OR, ["n1", "n2"], "y", name="g3")
        c.add_output("y")
        n = share_structural(c)
        assert n == 1
        check_circuit(c)
        assert len(c.gates) == 2

    def test_sharing_cascades(self):
        c = Circuit()
        c.add_input("a")
        c.add_input("b")
        c.add_gate(GateFn.AND, ["a", "b"], "n1", name="g1")
        c.add_gate(GateFn.AND, ["a", "b"], "n2", name="g2")
        c.add_gate(GateFn.NOT, ["n1"], "m1", name="h1")
        c.add_gate(GateFn.NOT, ["n2"], "m2", name="h2")
        c.add_gate(GateFn.OR, ["m1", "m2"], "y", name="g3")
        c.add_output("y")
        optimize(c)
        assert len(c.gates) == 3  # AND, NOT, OR


class TestSweep:
    def test_dead_gate_removed(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate(GateFn.NOT, ["a"], "dead", name="g1")
        c.add_gate(GateFn.BUF, ["a"], "y", name="g2")
        c.add_output("y")
        assert sweep_dead(c) == 1
        assert "g1" not in c.gates

    def test_dead_register_chain_removed(self):
        c = Circuit()
        c.add_input("clk")
        c.add_input("a")
        c.add_register(d="a", q="q1", clk="clk", name="r1")
        c.add_register(d="q1", q="q2", clk="clk", name="r2")
        c.add_output("a")
        assert sweep_dead(c) == 2
        assert c.registers == {}

    def test_control_cone_stays_alive(self):
        c = Circuit()
        c.add_input("clk")
        c.add_input("a")
        c.add_input("e")
        en = c.add_gate(GateFn.NOT, ["e"], "en", name="gen").output
        c.add_register(d="a", q="q", clk="clk", en=en, name="r")
        c.add_output("q")
        assert sweep_dead(c) == 0
        assert "gen" in c.gates

    def test_dead_sequential_ring_removed(self):
        c = Circuit()
        c.add_input("clk")
        c.add_input("a")
        c.add_gate(GateFn.NOT, ["q"], "d", name="loop")
        c.add_register(d="d", q="q", clk="clk", name="r")
        c.add_output("a")
        sweep_dead(c)
        assert c.registers == {} and c.gates == {}


class TestOptimize:
    def test_fixed_point_idempotent(self):
        c = Circuit()
        c.add_input("a")
        c.add_input("b")
        c.add_gate(GateFn.AND, ["a", CONST1], "n1", name="g1")
        c.add_gate(GateFn.AND, ["n1", "b"], "y", name="g2")
        c.add_gate(GateFn.NOT, ["y"], "dead", name="g3")
        c.add_output("y")
        before = c.clone()
        assert optimize(c) > 0
        assert optimize(c) == 0
        check_circuit(c)
        assert outputs_equal(before, c, ["a", "b"])


class TestRegisterRingProtection:
    def test_buffer_anchoring_a_loop_is_kept(self):
        """A buffer that is the only combinational cell on a sequential
        loop must survive collapsing (bypassing it would create a pure
        register ring the retiming graph rejects)."""
        from repro.graph import build_mcgraph

        c = Circuit()
        c.add_input("clk")
        c.add_register(d="b", q="q", clk="clk", name="r")
        c.add_gate(GateFn.BUF, ["q"], "b", name="buf")
        c.add_output("q")
        assert collapse_buffers(c) == 0
        assert "buf" in c.gates
        build_mcgraph(c)  # still representable

    def test_two_register_ring_protected(self):
        c = Circuit()
        c.add_input("clk")
        c.add_register(d="q2", q="q1", clk="clk", name="r1")
        c.add_register(d="b", q="q2", clk="clk", name="r2")
        c.add_gate(GateFn.BUF, ["q1"], "b", name="buf")
        c.add_output("q2")
        assert collapse_buffers(c) == 0
        assert "buf" in c.gates

    def test_harmless_buffer_between_registers_collapses(self):
        """A buffer between two registers NOT on a common loop is fair
        game."""
        c = Circuit()
        c.add_input("clk")
        c.add_input("a")
        c.add_register(d="a", q="q1", clk="clk", name="r1")
        c.add_gate(GateFn.BUF, ["q1"], "b", name="buf")
        c.add_register(d="b", q="q2", clk="clk", name="r2")
        c.add_output("q2")
        assert collapse_buffers(c) == 1
        assert c.registers["r2"].d == "q1"
