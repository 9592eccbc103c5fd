"""Unit tests for the Circuit container: indexes, surgery, topo order."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist import (
    CONST0,
    CONST1,
    Circuit,
    GateFn,
    NetlistError,
    check_circuit,
    is_const,
    is_valid,
)
from tests.netlist.helpers import assert_readers_fresh, rebuilt_readers


def small_circuit() -> Circuit:
    c = Circuit("t")
    c.add_input("a")
    c.add_input("b")
    c.add_input("clk")
    c.add_gate(GateFn.AND, ["a", "b"], "n1", name="g1")
    c.add_gate(GateFn.NOT, ["n1"], "n2", name="g2")
    c.add_register(d="n2", q="q1", clk="clk", name="r1")
    c.add_gate(GateFn.OR, ["q1", "a"], "y", name="g3")
    c.add_output("y")
    return c


class TestConstruction:
    def test_counts(self):
        c = small_circuit()
        assert c.counts() == {"gates": 3, "registers": 1, "inputs": 3, "outputs": 1}

    def test_driver_kinds(self):
        c = small_circuit()
        assert c.driver("a") == ("input", "a")
        assert c.driver("n1") == ("gate", "g1")
        assert c.driver("q1") == ("register", "r1")
        assert c.driver(CONST1) == ("const", CONST1)
        assert c.driver("nope") is None

    def test_driver_gate_and_register(self):
        c = small_circuit()
        assert c.driver_gate("n1").name == "g1"
        assert c.driver_gate("q1") is None
        assert c.driver_register("q1").name == "r1"
        assert c.driver_register("n1") is None

    def test_double_driver_rejected(self):
        c = small_circuit()
        with pytest.raises(NetlistError):
            c.add_gate(GateFn.NOT, ["a"], "n1")
        with pytest.raises(NetlistError):
            c.add_register(d="a", q="n1", clk="clk")
        with pytest.raises(NetlistError):
            c.add_input("n1")

    def test_duplicate_cell_name_rejected(self):
        c = small_circuit()
        with pytest.raises(NetlistError):
            c.add_gate(GateFn.NOT, ["a"], name="g1")
        with pytest.raises(NetlistError):
            c.add_register(d="a", clk="clk", name="r1")

    def test_auto_names_unique(self):
        c = Circuit()
        c.add_input("a")
        g1 = c.add_gate(GateFn.NOT, ["a"])
        g2 = c.add_gate(GateFn.NOT, ["a"])
        assert g1.name != g2.name
        assert g1.output != g2.output

    def test_validation_passes(self):
        check_circuit(small_circuit())

    def test_readers(self):
        c = small_circuit()
        readers = c.readers("a")
        assert ("gate", "g1", 0) in readers
        assert ("gate", "g3", 1) in readers
        assert c.readers("y") == [("output", "y", 0)]
        # register pin indexing: 0=D 1=CLK
        assert ("register", "r1", 0) in c.readers("n2")
        assert ("register", "r1", 1) in c.readers("clk")


class TestSurgery:
    def test_set_gate_input_refreshes_readers(self):
        c = small_circuit()
        assert ("gate", "g1", 0) in c.readers("a")  # index now built
        c.set_gate_input(c.gates["g1"], 0, "b")
        assert ("gate", "g1", 0) not in c.readers("a")
        assert ("gate", "g1", 0) in c.readers("b")

    def test_remove_gate(self):
        c = small_circuit()
        c.remove_gate("g3")
        assert "g3" not in c.gates
        assert c.driver("y") is None
        assert not is_valid(c)  # output y now undriven

    def test_replace_net(self):
        c = small_circuit()
        n = c.replace_net("a", "b")
        assert n == 2  # g1 pin and g3 pin
        assert c.gates["g1"].inputs == ["b", "b"]

    def test_replace_net_on_register_pins(self):
        c = Circuit()
        c.add_input("d")
        c.add_input("clk")
        c.add_input("e")
        c.add_register(d="d", q="q", clk="clk", en="e", sr="e", name="r")
        n = c.replace_net("e", "d")
        assert n == 2
        r = c.registers["r"]
        assert r.en == "d" and r.sr == "d"

    def test_replace_net_output_port(self):
        c = small_circuit()
        c.replace_net("y", "q1")
        assert c.outputs == ["q1"]

    def test_rewire_gate_output(self):
        c = small_circuit()
        g = c.gates["g3"]
        c.rewire_gate_output(g, "y2")
        assert c.driver("y2") == ("gate", "g3")
        assert c.driver("y") is None

    def test_clone_independence(self):
        c = small_circuit()
        d = c.clone()
        d.remove_gate("g3")
        assert "g3" in c.gates
        check_circuit(c)


class TestTopoOrder:
    def test_respects_dependencies(self):
        c = small_circuit()
        order = [g.name for g in c.topo_gates()]
        assert order.index("g1") < order.index("g2")

    def test_registers_break_cycles(self):
        c = Circuit()
        c.add_input("clk")
        c.add_input("a")
        # q feeds g which feeds register d: sequential loop, no comb cycle
        c.add_gate(GateFn.AND, ["q", "a"], "n", name="g")
        c.add_register(d="n", q="q", clk="clk", name="r")
        c.add_output("q")
        order = c.topo_gates()
        assert [g.name for g in order] == ["g"]
        check_circuit(c)

    def test_combinational_cycle_detected(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate(GateFn.AND, ["a", "n2"], "n1", name="g1")
        c.add_gate(GateFn.NOT, ["n1"], "n2", name="g2")
        with pytest.raises(NetlistError):
            c.topo_gates()

    def test_deep_chain_no_recursion_limit(self):
        c = Circuit()
        c.add_input("a")
        prev = "a"
        for i in range(5000):
            prev = c.add_gate(GateFn.NOT, [prev]).output
        c.add_output(prev)
        assert len(c.topo_gates()) == 5000

    def test_transitive_fanin(self):
        c = small_circuit()
        cone = [g.name for g in c.transitive_fanin_gates(["n2"])]
        assert cone == ["g1", "g2"]


class TestQueries:
    def test_nets(self):
        c = small_circuit()
        assert {"a", "b", "clk", "n1", "n2", "q1", "y"} <= c.nets()

    def test_clock_and_control_nets(self):
        c = Circuit()
        c.add_input("clk")
        c.add_input("clk2")
        c.add_input("e")
        c.add_input("d")
        c.add_register(d="d", clk="clk", en="e")
        c.add_register(d="d", clk="clk2")
        assert c.clock_nets() == ["clk", "clk2"]
        assert c.control_nets() == ["e"]

    def test_map_nets_renames_consistently(self):
        c = small_circuit()
        c.map_nets(lambda n: "p_" + n)
        assert c.inputs == ["p_a", "p_b", "p_clk"]
        assert c.driver("p_n1") == ("gate", "g1")
        check_circuit(c)


class TestReaderIndex:
    """Every mutator keeps ``readers()`` equal to a scan of the cells."""

    def test_readers_returns_a_copy(self):
        c = small_circuit()
        c.readers("a").clear()
        assert c.readers("a") == [("gate", "g1", 0), ("gate", "g3", 1)]

    def test_remove_gate_input_shifts_later_pins(self):
        c = small_circuit()
        g = c.add_gate(GateFn.AND, ["a", "b", "a", "n1"], "w", name="g4")
        assert c.remove_gate_input(g, 1) == "b"
        assert g.inputs == ["a", "a", "n1"]
        assert ("gate", "g4", 1) in c.readers("a")
        assert ("gate", "g4", 2) in c.readers("n1")
        assert_readers_fresh(c)

    def test_register_pin_and_output_edits(self):
        c = small_circuit()
        reg = c.registers["r1"]
        c.set_register_pin(reg, "en", "a")
        c.set_register_pin(reg, "d", "n1")
        assert reg.en == "a" and reg.d == "n1"
        c.set_register_pin(reg, "en", None)
        with pytest.raises(NetlistError):
            c.set_register_pin(reg, "clk", None)
        c.add_output("n2")
        c.set_output(0, "q1")
        assert c.remove_output(0) == "q1"
        assert c.outputs == ["n2"]
        assert c.readers("n2") == [("output", "n2", 0)]
        assert_readers_fresh(c)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_random_mutations_keep_the_index_fresh(self, data):
        c = Circuit("fuzz")
        for net in ("clk", "a", "b", "c"):
            c.add_input(net)
        undriven = ["u0", "u1", "u2"]
        clones = []

        def pick(options):
            return data.draw(st.sampled_from(sorted(options)))

        def any_net():
            pool = set(c.inputs) | set(undriven) | {CONST0, CONST1}
            pool |= {g.output for g in c.gates.values()}
            pool |= {r.q for r in c.registers.values()}
            return pick(pool)

        def control():
            return data.draw(st.none() | st.just(any_net()))

        for _ in range(data.draw(st.integers(1, 40))):
            ops = ["add_gate", "add_register", "add_output", "replace_net",
                   "map_nets", "clone"]
            if c.gates:
                ops += ["remove_gate", "set_gate_input", "remove_gate_input",
                        "rewire_gate_output"]
            if c.registers:
                ops += ["remove_register", "set_register_pin"]
            if c.outputs:
                ops += ["set_output", "remove_output"]
            op = pick(ops)
            if op == "add_gate":
                n = data.draw(st.integers(1, 4))
                c.add_gate(GateFn.AND, [any_net() for _ in range(n)])
            elif op == "add_register":
                c.add_register(
                    any_net(), clk=any_net(), en=control(), sr=control(),
                    ar=control(),
                )
            elif op == "add_output":
                c.add_output(any_net())
            elif op == "replace_net":
                c.replace_net(any_net(), any_net())
            elif op == "map_nets":
                if data.draw(st.booleans()):
                    c.map_nets(lambda n: n if is_const(n) else "p_" + n)
                    undriven = ["p_" + n for n in undriven]
                else:  # merge one undriven net into another net
                    victim, target = pick(undriven), any_net()
                    c.map_nets(lambda n: target if n == victim else n)
            elif op == "clone":
                clones.append((c, rebuilt_readers(c)))
                c = c.clone()
            elif op == "remove_gate":
                c.remove_gate(pick(c.gates))
            elif op == "set_gate_input":
                gate = c.gates[pick(c.gates)]
                pin = data.draw(st.integers(0, gate.n_inputs - 1))
                c.set_gate_input(gate, pin, any_net())
            elif op == "remove_gate_input":
                gate = c.gates[pick(c.gates)]
                if gate.n_inputs > 1:
                    c.remove_gate_input(
                        gate, data.draw(st.integers(0, gate.n_inputs - 1))
                    )
            elif op == "rewire_gate_output":
                c.rewire_gate_output(c.gates[pick(c.gates)], c.new_net("w"))
            elif op == "remove_register":
                c.remove_register(pick(c.registers))
            elif op == "set_register_pin":
                reg = c.registers[pick(c.registers)]
                pin = pick(["d", "clk", "en", "sr", "ar"])
                net = any_net() if pin in ("d", "clk") else control()
                c.set_register_pin(reg, pin, net)
            elif op == "set_output":
                c.set_output(data.draw(st.integers(0, len(c.outputs) - 1)), any_net())
            elif op == "remove_output":
                c.remove_output(data.draw(st.integers(0, len(c.outputs) - 1)))
            assert_readers_fresh(c)
        # edits to a clone never reach the circuit it was copied from
        for original, scanned in clones:
            assert rebuilt_readers(original) == scanned
            assert_readers_fresh(original)
