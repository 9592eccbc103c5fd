"""Extended-BLIF parser/writer tests, including property-based round-trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.ternary import T0, T1, TX
from repro.netlist import (
    BlifError,
    Circuit,
    GateFn,
    check_circuit,
    read_blif,
    write_blif,
)


class TestReader:
    def test_basic_names(self):
        c = read_blif(
            """
            .model m
            .inputs a b
            .outputs y
            .names a b y
            11 1
            .end
            """
        )
        assert c.name == "m"
        gate = c.driver_gate("y")
        assert gate.truth_table() == 0b1000

    def test_wildcard_cover(self):
        c = read_blif(".model m\n.inputs a b\n.outputs y\n.names a b y\n1- 1\n-1 1\n")
        assert c.driver_gate("y").truth_table() == 0b1110  # OR

    def test_offset_cover(self):
        c = read_blif(".model m\n.inputs a b\n.outputs y\n.names a b y\n11 0\n")
        assert c.driver_gate("y").truth_table() == 0b0111  # NAND

    def test_constant_one_names(self):
        c = read_blif(".model m\n.outputs y\n.names y\n1\n")
        assert c.driver_gate("y").is_constant() == 1

    def test_constant_zero_names(self):
        c = read_blif(".model m\n.outputs y\n.names y\n")
        assert c.driver_gate("y").is_constant() == 0

    def test_latch(self):
        c = read_blif(
            ".model m\n.inputs d ck\n.outputs q\n.latch d q re ck 0\n"
        )
        reg = c.driver_register("q")
        assert reg.d == "d" and reg.clk == "ck"

    def test_mcff_full(self):
        c = read_blif(
            ".model m\n.inputs d ck e s a\n.outputs q\n"
            ".mcff r0 d=d q=q clk=ck en=e sr=s sval=1 ar=a aval=0\n"
        )
        reg = c.registers["r0"]
        assert reg.en == "e" and reg.sr == "s" and reg.ar == "a"
        assert reg.sval == T1 and reg.aval == T0

    def test_mcff_defaults(self):
        c = read_blif(".model m\n.inputs d ck\n.outputs q\n.mcff r d=d q=q clk=ck\n")
        reg = c.registers["r"]
        assert reg.en is None and reg.sval == TX

    def test_continuation_lines(self):
        c = read_blif(".model m\n.inputs a \\\n b c\n.outputs y\n.names a b c y\n111 1\n")
        assert c.inputs == ["a", "b", "c"]

    def test_comments_stripped(self):
        c = read_blif(".model m # hello\n.inputs a # world\n.outputs a\n")
        assert c.inputs == ["a"]

    def test_errors(self):
        with pytest.raises(BlifError):
            read_blif(".inputs a\n")  # before .model
        with pytest.raises(BlifError):
            read_blif(".model m\n.names a y\n")  # missing cover ok, but:
            read_blif(".model m\n11 1\n")  # cover outside names
        with pytest.raises(BlifError):
            read_blif(".model m\n.inputs a\n.names a y\n111 1\n")  # wrong width
        with pytest.raises(BlifError):
            read_blif(".model m\n.mcff r d=a q=q\n")  # missing clk
        with pytest.raises(BlifError):
            read_blif(".model m\n.frobnicate\n")

    def test_mixed_polarity_cover_rejected(self):
        with pytest.raises(BlifError):
            read_blif(".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n0 0\n")


class TestRoundTrip:
    def test_register_full_roundtrip(self):
        c = Circuit("rt")
        for net in ("d", "ck", "e", "s", "a"):
            c.add_input(net)
        c.add_register(
            d="d", q="q", clk="ck", name="r0", en="e", sr="s", ar="a", sval=T0, aval=T1
        )
        c.add_output("q")
        c2 = read_blif(write_blif(c))
        r = c2.registers["r0"]
        assert (r.d, r.q, r.clk, r.en, r.sr, r.ar) == ("d", "q", "ck", "e", "s", "a")
        assert (r.sval, r.aval) == (T0, T1)

    def test_gate_function_roundtrip(self):
        c = Circuit("rt")
        c.add_input("a")
        c.add_input("b")
        c.add_input("s")
        for fn in (GateFn.AND, GateFn.OR, GateFn.XOR, GateFn.NAND):
            c.add_output(c.add_gate(fn, ["a", "b"]).output)
        c.add_output(c.add_gate(GateFn.MUX, ["s", "a", "b"]).output)
        c2 = read_blif(write_blif(c))
        check_circuit(c2)
        for net in c.outputs:
            assert (
                c2.driver_gate(net).truth_table() == c.driver_gate(net).truth_table()
            )

    @settings(max_examples=60, deadline=None)
    @given(
        tables=st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=6),
        n_regs=st.integers(min_value=0, max_value=4),
        sval=st.sampled_from([T0, T1, TX]),
        aval=st.sampled_from([T0, T1, TX]),
    )
    def test_random_circuit_roundtrip(self, tables, n_regs, sval, aval):
        c = Circuit("prop")
        c.add_input("i0")
        c.add_input("i1")
        c.add_input("i2")
        c.add_input("ck")
        nets = ["i0", "i1", "i2"]
        for i, table in enumerate(tables):
            g = c.add_gate(GateFn.LUT, nets[-3:], table=table)
            nets.append(g.output)
        for i in range(n_regs):
            r = c.add_register(
                d=nets[-1 - i], clk="ck", en="i0", sr="i1", sval=sval, aval=aval
            )
            nets.append(r.q)
        c.add_output(nets[-1])
        text = write_blif(c)
        assert text.startswith(".model")
        c2 = read_blif(text)
        check_circuit(c2)
        assert write_blif(c2) == text  # fixed point after one trip
        assert c2.counts() == c.counts()
        for name, gate in c.gates.items():
            match = [g for g in c2.gates.values() if g.output == gate.output]
            assert len(match) == 1
            assert match[0].truth_table() == gate.truth_table()


class TestMcGateDirective:
    def test_malformed_mcgate(self):
        with pytest.raises(BlifError):
            read_blif(".model m\n.inputs a b c\n.mcgate carry x a b c\n")
        with pytest.raises(BlifError):
            read_blif(".model m\n.mcgate frob x a b c y\n")
