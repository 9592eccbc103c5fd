"""Tests for register relocation with reset-state computation (Sec. 5.2).

Includes the paper's Fig. 1 forward move and the Fig. 5 local-conflict /
global-justification scenario, plus sequential-equivalence checks.
"""

import itertools

import pytest

from repro.logic.simulate import SequentialSimulator
from repro.logic.ternary import T0, T1, TX
from repro.mcretime import relocate
from repro.mcretime.relocate import RelocationError
from repro.netlist import Circuit, GateFn, check_circuit


def equivalent_after_reset(
    original: Circuit,
    retimed: Circuit,
    reset_pin: str,
    stimulus: list[dict[str, int]],
) -> bool:
    """Assert cycle-accurate output equality after a sync-reset cycle."""
    sims = []
    for circuit in (original, retimed):
        sim = SequentialSimulator(circuit, x_chooser=lambda name: T0)
        sim.step({**stimulus[0], reset_pin: T1})  # apply reset
        sims.append(sim)
    for vector in stimulus:
        vec = {**vector, reset_pin: T0}
        outs = [sim.step(vec) for sim in sims]
        # compare positionally: retiming renames output nets
        seq0 = [outs[0][n] for n in original.outputs]
        seq1 = [outs[1][n] for n in retimed.outputs]
        if seq0 != seq1:
            return False
    return True


def all_vectors(names: list[str], cycles: int):
    """Deterministic exhaustive-ish stimulus."""
    space = list(itertools.product((T0, T1), repeat=len(names)))
    seq = []
    for i in range(cycles):
        combo = space[i % len(space)]
        seq.append(dict(zip(names, combo)))
    return seq


def fig1_circuit() -> Circuit:
    """Fig. 1a: two EN registers feeding an AND gate."""
    c = Circuit("fig1")
    for net in ("clk", "en", "x1", "x2"):
        c.add_input(net)
    c.add_register(d="x1", q="q1", clk="clk", en="en", name="r1")
    c.add_register(d="x2", q="q2", clk="clk", en="en", name="r2")
    c.add_gate(GateFn.AND, ["q1", "q2"], "y", name="g")
    c.add_output("y")
    return c


class TestForwardMove:
    def test_fig1_forward(self):
        """Both EN registers collapse into one register after the gate —
        the paper's circuit b), 1 register instead of 2."""
        c = fig1_circuit()
        res = relocate(c, {"g": -1})
        check_circuit(res.circuit)
        assert len(res.circuit.registers) == 1
        reg = next(iter(res.circuit.registers.values()))
        assert reg.en == "en"  # the enable moved with the register
        assert res.stats.forward_steps == 1
        assert res.steps_moved == 1

    def test_fig1_forward_equivalence(self):
        c = fig1_circuit()
        res = relocate(c, {"g": -1})
        sims = [
            SequentialSimulator(x, state={n: T0 for n in x.registers})
            for x in (c, res.circuit)
        ]
        for vec in all_vectors(["en", "x1", "x2"], 16):
            outs = [s.step(vec) for s in sims]
            assert outs[0] == outs[1]

    def test_forward_implication_values(self):
        """Forward-moved register values are the gate function of the
        source values (paper Sec. 5.2 / Even et al.)."""
        c = Circuit("fwd")
        for net in ("clk", "rs", "a", "b"):
            c.add_input(net)
        c.add_register(d="a", q="qa", clk="clk", sr="rs", sval=T1, name="ra")
        c.add_register(d="b", q="qb", clk="clk", sr="rs", sval=T0, name="rb")
        c.add_gate(GateFn.NAND, ["qa", "qb"], "y", name="g")
        c.add_output("y")
        res = relocate(c, {"g": -1})
        reg = next(iter(res.circuit.registers.values()))
        assert reg.sval == T1  # NAND(1, 0) = 1

    def test_forward_keeps_shared_source_register(self):
        """A source register with another reader must survive the move."""
        c = Circuit("shared")
        for net in ("clk", "a"):
            c.add_input(net)
        c.add_register(d="a", q="q", clk="clk", name="r")
        c.add_gate(GateFn.NOT, ["q"], "y1", name="g1")
        c.add_gate(GateFn.BUF, ["q"], "y2", name="g2")
        c.add_output("y1")
        c.add_output("y2")
        res = relocate(c, {"g1": -1})
        check_circuit(res.circuit)
        # r still present (feeds g2) + the new register after g1
        assert len(res.circuit.registers) == 2

    def test_forward_two_layers(self):
        c = Circuit("two")
        for net in ("clk", "a"):
            c.add_input(net)
        c.add_register(d="a", q="q1", clk="clk", name="r1")
        c.add_register(d="q1", q="q2", clk="clk", name="r2")
        c.add_gate(GateFn.NOT, ["q2"], "y", name="g")
        c.add_output("y")
        res = relocate(c, {"g": -2})
        check_circuit(res.circuit)
        assert res.steps_moved == 2
        # output is now gate -> reg -> reg
        out = res.circuit.outputs[0]
        reg1 = res.circuit.driver_register(out)
        assert reg1 is not None
        reg2 = res.circuit.driver_register(reg1.d)
        assert reg2 is not None

    def test_self_loop_forward_keeps_loop_sequential(self):
        """Forward across a toggle loop: the new register lands inside
        the loop (no combinational cycle) and the old one delays the
        tap, matching the graph semantics w_r(tap) = 2."""
        c = Circuit("toggle")
        c.add_input("clk")
        c.add_gate(GateFn.NOT, ["q"], "d", name="inv")
        c.add_register(d="d", q="q", clk="clk", name="r")
        c.add_output("q")
        res = relocate(c, {"inv": -1})
        check_circuit(res.circuit)  # includes combinational-cycle check
        assert len(res.circuit.registers) == 2
        # the tap output sees two registers after the inverter
        out = res.circuit.outputs[0]
        reg1 = res.circuit.driver_register(out)
        reg2 = res.circuit.driver_register(reg1.d)
        assert reg2 is not None
        assert res.circuit.driver_gate(reg2.d).name == "inv"


class TestBackwardMove:
    def test_simple_backward(self):
        c = Circuit("bwd")
        for net in ("clk", "a", "b"):
            c.add_input(net)
        c.add_gate(GateFn.AND, ["a", "b"], "n", name="g")
        c.add_register(d="n", q="q", clk="clk", name="r")
        c.add_output("q")
        res = relocate(c, {"g": 1})
        check_circuit(res.circuit)
        assert len(res.circuit.registers) == 2  # one per gate input
        assert res.stats.local_steps == 1
        # output now reads the gate directly
        assert res.circuit.driver_gate(res.circuit.outputs[0]).name == "g"

    def test_backward_justifies_values(self):
        c = Circuit("bwd")
        for net in ("clk", "rs", "a", "b"):
            c.add_input(net)
        c.add_gate(GateFn.AND, ["a", "b"], "n", name="g")
        c.add_register(d="n", q="q", clk="clk", sr="rs", sval=T1, name="r")
        c.add_output("q")
        res = relocate(c, {"g": 1})
        svals = sorted(r.sval for r in res.circuit.registers.values())
        assert svals == [T1, T1]  # AND=1 forces both inputs to 1

    def test_backward_uses_dontcares(self):
        c = Circuit("bwd")
        for net in ("clk", "rs", "a", "b"):
            c.add_input(net)
        c.add_gate(GateFn.AND, ["a", "b"], "n", name="g")
        c.add_register(d="n", q="q", clk="clk", sr="rs", sval=T0, name="r")
        c.add_output("q")
        res = relocate(c, {"g": 1})
        svals = sorted(r.sval for r in res.circuit.registers.values())
        assert svals == [T0, TX]  # one 0 suffices, the other is free

    def test_backward_merges_duplicate_registers(self):
        """Two registers with the same D and class collapse into one
        layer and re-expand per gate input."""
        c = Circuit("dup")
        for net in ("clk", "a", "b"):
            c.add_input(net)
        c.add_gate(GateFn.OR, ["a", "b"], "n", name="g")
        c.add_register(d="n", q="q1", clk="clk", name="r1")
        c.add_register(d="n", q="q2", clk="clk", name="r2")
        c.add_gate(GateFn.NOT, ["q1"], "y1", name="s1")
        c.add_gate(GateFn.NOT, ["q2"], "y2", name="s2")
        c.add_output("y1")
        c.add_output("y2")
        res = relocate(c, {"g": 1})
        check_circuit(res.circuit)
        assert len(res.circuit.registers) == 2  # one per OR input

    def test_backward_blocked_by_unregistered_fanout(self):
        c = Circuit("blocked")
        for net in ("clk", "a", "b"):
            c.add_input(net)
        c.add_gate(GateFn.AND, ["a", "b"], "n", name="g")
        c.add_register(d="n", q="q", clk="clk", name="r")
        c.add_gate(GateFn.NOT, ["n"], "y2", name="tap")  # register-free tap
        c.add_output("q")
        c.add_output("y2")
        with pytest.raises(RelocationError):
            relocate(c, {"g": 1})

    def test_backward_equivalence_with_sync_reset(self):
        c = Circuit("eq")
        for net in ("clk", "rs", "a", "b"):
            c.add_input(net)
        c.add_gate(GateFn.XOR, ["a", "b"], "n", name="g")
        c.add_register(d="n", q="q", clk="clk", sr="rs", sval=T1, name="r")
        c.add_output("q")
        res = relocate(c, {"g": 1})
        assert equivalent_after_reset(
            c, res.circuit, "rs", all_vectors(["a", "b"], 12)
        )


def fig5_circuit() -> Circuit:
    """Paper Fig. 5: AND (v2) feeding NAND (v3) and INV (v4), registers
    after v3 and v4 with reset values that conflict locally at v2."""
    c = Circuit("fig5")
    for net in ("clk", "rs", "x1", "x2", "x3"):
        c.add_input(net)
    c.add_gate(GateFn.AND, ["x1", "x2"], "n2", name="v2")
    c.add_gate(GateFn.NAND, ["n2", "x3"], "n3", name="v3")
    c.add_gate(GateFn.NOT, ["n2"], "n4", name="v4")
    c.add_register(d="n3", q="q3", clk="clk", sr="rs", sval=T1, name="r3")
    c.add_register(d="n4", q="q4", clk="clk", sr="rs", sval=T0, name="r4")
    c.add_output("q3")
    c.add_output("q4")
    return c


class TestGlobalJustification:
    def test_fig5_conflict_resolved_globally(self):
        c = fig5_circuit()
        res = relocate(c, {"v2": 1, "v3": 1, "v4": 1})
        check_circuit(res.circuit)
        # v3 and v4 moves are local; the v2 move conflicts (local picks
        # n2=0 for NAND=1 but INV=0 needs n2=1) and goes global
        assert res.stats.global_steps == 1
        assert res.stats.local_steps == 2
        # global solution: x1=x2=1 (n2=1), x3 register revised to 0
        regs = {r.d: r for r in res.circuit.registers.values()}
        assert regs["x1"].sval == T1
        assert regs["x2"].sval == T1
        assert regs["x3"].sval == T0

    def test_fig5_equivalence(self):
        c = fig5_circuit()
        res = relocate(c, {"v2": 1, "v3": 1, "v4": 1})
        assert equivalent_after_reset(
            c, res.circuit, "rs", all_vectors(["x1", "x2", "x3"], 20)
        )

    def test_unresolvable_conflict_raises(self):
        """Two original registers at the same position with clashing
        values can never be justified."""
        from repro.mcretime import JustificationConflict

        c = Circuit("clash")
        for net in ("clk", "rs", "a", "b"):
            c.add_input(net)
        c.add_gate(GateFn.AND, ["a", "b"], "n", name="g")
        c.add_register(d="n", q="q1", clk="clk", sr="rs", sval=T1, name="r1")
        c.add_register(d="n", q="q2", clk="clk", sr="rs", sval=T0, name="r2")
        c.add_output("q1")
        c.add_output("q2")
        with pytest.raises(JustificationConflict) as exc:
            relocate(c, {"g": 1})
        assert exc.value.gate == "g"
        assert exc.value.moves_done == 0


class TestScheduling:
    def test_chained_moves_order_independent(self):
        """g2's backward move only becomes valid after g1's (the register
        must arrive first); the sweep scheduler sorts it out."""
        c = Circuit("chain")
        for net in ("clk", "a"):
            c.add_input(net)
        c.add_gate(GateFn.NOT, ["a"], "n1", name="g1")
        c.add_gate(GateFn.NOT, ["n1"], "n2", name="g2")
        c.add_register(d="n2", q="q", clk="clk", name="r")
        c.add_output("q")
        res = relocate(c, {"g1": 1, "g2": 1})
        check_circuit(res.circuit)
        # register ends up before g1
        reg = next(iter(res.circuit.registers.values()))
        assert reg.d == "a"

    def test_zero_moves_is_identity(self):
        c = fig1_circuit()
        res = relocate(c, {})
        assert res.steps_moved == 0
        assert res.circuit.counts() == c.counts()


class TestInheritedRequirementAtOutputNet:
    def test_local_justification_honours_terminal_net_requirement(self):
        """Regression: a derived X-valued register can sit at a net that
        carries a *terminal* requirement (satisfied by deeper logic so
        far).  A backward move there must justify the terminal value,
        not just the removed register's X (found on C6 at scale 0.25 by
        the engine's post-relocation verification)."""
        from repro.mcretime import Classifier
        from repro.mcretime.relocate import _try_backward
        from repro.mcretime.reset import JustificationStats

        c = Circuit("inherit")
        for net in ("clk", "rs", "a", "b"):
            c.add_input(net)
        c.add_gate(GateFn.XOR, ["a", "b"], "n1", name="g")
        c.add_register(d="n1", q="q", clk="clk", ar="rs", aval=TX, name="R")
        c.add_output("q")
        # pretend R descends from an original register at n1 with aval=0
        requirements = {"R": frozenset({("n1", TX, T0)})}
        stats = JustificationStats()
        ok = _try_backward(
            c, c.gates["g"], Classifier(c), requirements, stats, {}
        )
        assert ok
        avals = sorted(
            reg.aval for reg in c.registers.values()
        )
        # XOR must produce 0: inputs justified to (0,0) or (1,1) — never X
        assert avals in ([T0, T0], [T1, T1])
        # and the implication indeed reproduces the requirement
        from repro.logic.simulate import eval_nets

        values = eval_nets(c, {r.q: r.aval for r in c.registers.values()})
        assert values["n1"] == T0


class TestGlobalJustificationSoundness:
    """Regressions for the function-preserving global justification.

    Earlier revisions snapshotted sibling *values* when revising a
    committed register's channel value during global justification.
    That is unsound in two ways the differential fuzzer exposed:

    * revising a sibling changes the *function* feeding every register
      D pin and output in its fanout, so the moved region replays
      different data after reset-load events (fuzz seed 6);
    * a backward move's output net can itself be an original register
      position carried in another register's outstanding requirement
      set, which both the local and global paths must keep satisfied
      (fuzz seed 36).

    These seeds drive the full pipeline and demand sequential
    refinement; with the value-snapshot logic either seed produced a
    circuit that differed from the original on a binary output.
    """

    @pytest.mark.parametrize("seed", [6, 36])
    def test_fuzz_regression_seed_refines(self, seed):
        from repro.verify.fuzz import fuzz_one

        case = fuzz_one(seed, cycles=48)
        assert case.error is None, case.error
        assert case.ok, case.check.reason

    def test_figure5_reset_values_survive_the_soundness_fix(self):
        # the paper's Fig. 5 example exercises the vacuous-channel path:
        # its class has a sync reset only, so the aval channel imposes
        # no frontier equality constraints (otherwise the removed
        # registers' free aval variables would make the forall
        # unsatisfiable and the paper example would spuriously conflict)
        from repro.experiments.figures import figure5

        fig = figure5()
        assert fig.equivalent
        assert fig.global_steps == 1


class TestReadersAfterRewiring:
    """Pin rewrites must not leave the circuit's reader index stale.

    A forward step bypasses its source registers and then asks whether
    each is still read; a reader index built before the rewrite kept an
    unread register alive.
    """

    def test_index_matches_a_full_rebuild(self):
        """The circuit's patched reader index lists every net's readers
        exactly as a full rebuild does, in the same order (a backward
        step takes the first one as its template)."""
        from tests.netlist.helpers import rebuilt_readers

        c = Circuit("index")
        for net in ("clk", "en", "a", "b"):
            c.add_input(net)
        c.add_gate(GateFn.AND, ["a", "b"], "n1", name="g1")
        g2 = c.add_gate(GateFn.OR, ["n1", "a"], "n2", name="g2")
        r1 = c.add_register(d="n2", q="q1", clk="clk", en="en", name="r1")
        c.add_gate(GateFn.XOR, ["q1", "n1"], "y", name="g3")
        c.add_output("y")
        c.add_output("q1")

        def assert_fresh():
            rebuilt = rebuilt_readers(c)
            for net in c.nets():
                assert c.readers(net) == rebuilt.get(net, []), net

        assert_fresh()
        r2 = c.add_register(d="n1", clk="clk", en="en")
        c.set_gate_input(g2, 0, r2.q)
        assert_fresh()
        c.replace_net("q1", "n2")  # a gate pin and an output move
        assert_fresh()
        c.remove_register(r1.name)
        assert_fresh()

    def test_modmul6_keeps_no_unread_register(self):
        from repro.flows import baseline_flow
        from repro.mcretime import mc_retime
        from repro.synth import build_datapath
        from repro.timing import XC4000E_DELAY

        mapped = baseline_flow(
            build_datapath("MODMUL6").circuit, XC4000E_DELAY
        ).circuit
        out = mc_retime(mapped, delay_model=XC4000E_DELAY).circuit
        # every net something reads, gathered without the reader index
        read = set(out.outputs)
        for gate in out.gates.values():
            read.update(gate.inputs)
        for reg in out.registers.values():
            read.update((reg.d, reg.clk, reg.en, reg.sr, reg.ar))
        assert [r.name for r in out.registers.values() if r.q not in read] == []
