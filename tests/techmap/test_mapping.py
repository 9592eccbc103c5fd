"""Tests for decomposition passes, cut enumeration, and LUT mapping."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.simulate import SequentialSimulator, eval_nets
from repro.logic.ternary import T0, T1, TX
from repro.netlist import Circuit, GateFn, check_circuit
from repro.techmap import (
    ArchitectureError,
    XC4000E_ARCH,
    cone_truth_table,
    decompose_enables,
    decompose_sync_resets,
    decompose_to_two_input,
    enumerate_cuts,
    map_luts,
    remap,
)
from tests.opt.test_passes import outputs_equal


def random_logic(seed: int, n_inputs: int = 4, n_gates: int = 12) -> Circuit:
    rng = random.Random(seed)
    c = Circuit(f"rand{seed}")
    nets = [c.add_input(f"i{k}") for k in range(n_inputs)]
    fns = [GateFn.AND, GateFn.OR, GateFn.XOR, GateFn.NAND, GateFn.NOT]
    for k in range(n_gates):
        fn = rng.choice(fns)
        arity = 1 if fn is GateFn.NOT else rng.randint(2, 4)
        ins = [rng.choice(nets) for _ in range(arity)]
        nets.append(c.add_gate(fn, ins).output)
    for net in nets[-3:]:
        c.add_output(net)
    return c


class TestDecomposeRegisters:
    def test_sync_clear(self):
        c = Circuit()
        for n in ("clk", "rs", "d"):
            c.add_input(n)
        c.add_register(d="d", q="q", clk="clk", sr="rs", sval=T0, name="r")
        c.add_output("q")
        assert decompose_sync_resets(c) == 1
        reg = c.registers["r"]
        assert reg.sr is None
        # behavior: rs=1 clears
        sim = SequentialSimulator(c, state={"r": T1})
        sim.step({"d": T1, "rs": T1})
        assert sim.state["r"] == T0
        sim.step({"d": T1, "rs": T0})
        assert sim.state["r"] == T1

    def test_constant_sync_reset_pin_leaves_the_reader_index(self):
        """Regression: dropping a constant-0 SR pin must remove the
        register from the constant net's readers, even when the index
        was consulted before the drop."""
        from repro.netlist import CONST0

        c = Circuit()
        for n in ("clk", "d"):
            c.add_input(n)
        c.add_register(d="d", q="q", clk="clk", sr=CONST0, sval=T0, name="r")
        c.add_output("q")
        assert c.readers(CONST0) == [("register", "r", 3)]
        assert decompose_sync_resets(c) == 0
        assert c.registers["r"].sr is None
        assert c.readers(CONST0) == []

    def test_sync_set(self):
        c = Circuit()
        for n in ("clk", "rs", "d"):
            c.add_input(n)
        c.add_register(d="d", q="q", clk="clk", sr="rs", sval=T1, name="r")
        c.add_output("q")
        decompose_sync_resets(c)
        sim = SequentialSimulator(c, state={"r": T0})
        sim.step({"d": T0, "rs": T1})
        assert sim.state["r"] == T1

    def test_sync_reset_with_enable(self):
        """Reset must win even when the enable is low."""
        c = Circuit()
        for n in ("clk", "rs", "en", "d"):
            c.add_input(n)
        c.add_register(
            d="d", q="q", clk="clk", en="en", sr="rs", sval=T0, name="r"
        )
        c.add_output("q")
        decompose_sync_resets(c)
        sim = SequentialSimulator(c, state={"r": T1})
        sim.step({"d": T1, "rs": T1, "en": T0})
        assert sim.state["r"] == T0

    def test_enable_decomposition_behavior(self):
        c = Circuit()
        for n in ("clk", "en", "d"):
            c.add_input(n)
        c.add_register(d="d", q="q", clk="clk", en="en", name="r")
        c.add_output("q")
        assert decompose_enables(c) == 1
        reg = c.registers["r"]
        assert reg.en is None
        sim = SequentialSimulator(c, state={"r": T0})
        sim.step({"d": T1, "en": T0})
        assert sim.state["r"] == T0  # hold
        sim.step({"d": T1, "en": T1})
        assert sim.state["r"] == T1  # load

    def test_enable_decomposition_adds_mux(self):
        c = Circuit()
        for n in ("clk", "en", "d"):
            c.add_input(n)
        c.add_register(d="d", q="q", clk="clk", en="en", name="r")
        c.add_output("q")
        gates_before = len(c.gates)
        decompose_enables(c)
        assert len(c.gates) == gates_before + 1
        check_circuit(c)


class TestDecomposeWide:
    @pytest.mark.parametrize("seed", range(6))
    def test_equivalence(self, seed):
        c = random_logic(seed)
        before = c.clone()
        decompose_to_two_input(c)
        check_circuit(c)
        assert all(g.n_inputs <= 2 for g in c.gates.values())
        assert outputs_equal(before, c, list(c.inputs))

    @settings(max_examples=40, deadline=None)
    @given(table=st.integers(min_value=0, max_value=2**16 - 1))
    def test_shannon_lut4(self, table):
        c = Circuit()
        ins = [c.add_input(f"i{k}") for k in range(4)]
        c.add_gate(GateFn.LUT, ins, "y", name="g", table=table)
        c.add_output("y")
        before = c.clone()
        decompose_to_two_input(c)
        check_circuit(c)
        assert outputs_equal(before, c, ins)


class TestCuts:
    def test_trivial_chain(self):
        c = Circuit()
        c.add_input("a")
        n1 = c.add_gate(GateFn.NOT, ["a"]).output
        n2 = c.add_gate(GateFn.NOT, [n1]).output
        c.add_output(n2)
        db = enumerate_cuts(c, k=4)
        # the whole chain fits in one LUT: depth 1 at the output
        assert db.depth_of(n2) == 1
        assert db.best[n2].leaves == frozenset(("a",))

    def test_depth_grows_past_k_inputs(self):
        c = Circuit()
        ins = [c.add_input(f"i{k}") for k in range(8)]
        decomposed = Circuit("wide")
        net = None
        # 8-input AND tree of 2-input gates
        nets = list(ins)
        for n in ins:
            pass
        work = list(ins)
        while len(work) > 1:
            a = work.pop(0)
            b = work.pop(0)
            work.append(c.add_gate(GateFn.AND, [a, b]).output)
        c.add_output(work[0])
        db = enumerate_cuts(c, k=4)
        assert db.depth_of(work[0]) == 2  # 8 inputs need two 4-LUT levels

    def test_cut_size_bounded(self):
        c = random_logic(3)
        decompose_to_two_input(c)
        db = enumerate_cuts(c, k=4)
        for cuts in db.cuts.values():
            for cut in cuts:
                assert len(cut.leaves) <= 4


class TestMapLuts:
    @pytest.mark.parametrize("seed", range(8))
    def test_combinational_equivalence(self, seed):
        c = random_logic(seed)
        result = map_luts(c)
        check_circuit(result.circuit)
        XC4000E_ARCH.check_mapped(result.circuit)
        assert outputs_equal(c, result.circuit, list(c.inputs))

    def test_register_pins_preserved(self):
        c = Circuit()
        for n in ("clk", "e1", "e2", "a", "b"):
            c.add_input(n)
        en = c.add_gate(GateFn.AND, ["e1", "e2"], "en", name="gen").output
        n1 = c.add_gate(GateFn.XOR, ["a", "b"], "n1", name="g1").output
        c.add_register(d="n1", q="q", clk="clk", en=en, name="r")
        c.add_output("q")
        result = map_luts(c)
        reg = result.circuit.registers["r"]
        assert reg.en == "en" and reg.d == "n1"
        # the control cone was mapped too
        assert result.circuit.driver_gate("en") is not None

    def test_sequential_equivalence(self):
        c = Circuit()
        for n in ("clk", "en", "a", "b"):
            c.add_input(n)
        x = c.add_gate(GateFn.XOR, ["a", "qo"], "x", name="g1").output
        y = c.add_gate(GateFn.AND, [x, "b"], "y", name="g2").output
        c.add_register(d=y, q="qo", clk="clk", en="en", name="r")
        c.add_output("qo")
        mapped = map_luts(c).circuit
        sims = [
            SequentialSimulator(k, state={"r": T0}) for k in (c, mapped)
        ]
        for combo in itertools.product((T0, T1), repeat=3):
            vec = dict(zip(("en", "a", "b"), combo))
            outs = [s.step(vec) for s in sims]
            assert outs[0]["qo"] == outs[1]["qo"]

    def test_cone_truth_table(self):
        c = Circuit()
        c.add_input("a")
        c.add_input("b")
        n1 = c.add_gate(GateFn.AND, ["a", "b"]).output
        n2 = c.add_gate(GateFn.NOT, [n1]).output
        c.add_output(n2)
        assert cone_truth_table(c, n2, ["a", "b"]) == 0b0111  # NAND

    def test_remap_after_slicing(self):
        """Remapping a LUT netlist keeps function and LUT-legality."""
        c = random_logic(11)
        mapped = map_luts(c).circuit
        again = remap(mapped)
        check_circuit(again.circuit)
        XC4000E_ARCH.check_mapped(again.circuit)
        assert outputs_equal(c, again.circuit, list(c.inputs))

    def test_depth_reported(self):
        c = random_logic(5)
        result = map_luts(c)
        assert result.depth >= 1
        assert result.n_luts == len(result.circuit.gates)


class TestArchitecture:
    def test_check_rejects_sync_reset(self):
        c = Circuit()
        for n in ("clk", "rs", "d"):
            c.add_input(n)
        c.add_register(d="d", q="q", clk="clk", sr="rs", sval=T0)
        c.add_output("q")
        with pytest.raises(ArchitectureError):
            XC4000E_ARCH.check_mapped(c)
        XC4000E_ARCH.prepare(c)
        mapped = map_luts(c).circuit
        XC4000E_ARCH.check_mapped(mapped)

    def test_check_rejects_wide_lut(self):
        c = Circuit()
        ins = [c.add_input(f"i{k}") for k in range(5)]
        c.add_gate(GateFn.LUT, ins, "y", table=1)
        c.add_output("y")
        with pytest.raises(ArchitectureError):
            XC4000E_ARCH.check_mapped(c)

    def test_check_rejects_unmapped_primitive(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate(GateFn.NOT, ["a"], "y")
        c.add_output("y")
        with pytest.raises(ArchitectureError):
            XC4000E_ARCH.check_mapped(c)

    def test_check_rejects_dont_care_async_reset_value(self):
        # an on-chip set/reset loads a definite value, never "-"
        c = Circuit()
        for n in ("clk", "rst", "d"):
            c.add_input(n)
        c.add_register(d="d", q="q", clk="clk", ar="rst", aval=TX)
        c.add_output("q")
        with pytest.raises(ArchitectureError, match="don't-care"):
            XC4000E_ARCH.check_mapped(c)
        XC4000E_ARCH.bind_async_resets(c)
        (reg,) = c.registers.values()
        assert reg.aval == T0
        XC4000E_ARCH.check_mapped(c)


class TestAreaMode:
    @pytest.mark.parametrize("seed", range(4))
    def test_area_mode_equivalent(self, seed):
        c = random_logic(seed + 40)
        result = map_luts(c, mode="area")
        check_circuit(result.circuit)
        XC4000E_ARCH.check_mapped(result.circuit)
        assert outputs_equal(c, result.circuit, list(c.inputs))

    @pytest.mark.parametrize("seed", range(6))
    def test_area_mode_never_deeper_than_needed(self, seed):
        """Area mode may trade depth for LUTs but must stay functional
        and within the LUT-input limit; depth mode must never use more
        levels than area mode's depth... the reverse: depth mode is the
        depth lower bound."""
        c = random_logic(seed + 60, n_gates=20)
        depth_map = map_luts(c, mode="depth")
        area_map = map_luts(c, mode="area")
        assert depth_map.depth <= area_map.depth

    def test_area_mode_saves_luts_on_shared_cone(self):
        """A multi-fanout inner cone: depth mode duplicates it into two
        covers, area flow keeps it shared."""
        c = Circuit("share")
        ins = [c.add_input(f"i{k}") for k in range(6)]
        # a 5-input inner function with two consumers
        t1 = c.add_gate(GateFn.AND, [ins[0], ins[1]]).output
        t2 = c.add_gate(GateFn.OR, [t1, ins[2]]).output
        t3 = c.add_gate(GateFn.XOR, [t2, ins[3]]).output
        inner = c.add_gate(GateFn.AND, [t3, ins[4]]).output
        y1 = c.add_gate(GateFn.XOR, [inner, ins[5]]).output
        y2 = c.add_gate(GateFn.NAND, [inner, ins[0]]).output
        c.add_output(y1)
        c.add_output(y2)
        depth_map = map_luts(c, mode="depth")
        area_map = map_luts(c, mode="area")
        assert area_map.n_luts <= depth_map.n_luts
        assert outputs_equal(c, area_map.circuit, list(c.inputs))

    def test_unknown_mode_rejected(self):
        c = random_logic(1)
        with pytest.raises(ValueError):
            map_luts(c, mode="banana")
