"""Tests for the mcretime CLI and the DOT exporters."""

import json

import pytest

from repro.eco import apply_edit_script
from repro.graph import build_mcgraph
from repro.mcretime import mc_retime
from repro.netlist import (
    GateFn,
    check_circuit,
    read_blif,
    read_verilog,
    write_blif,
)
from repro.synth import build_datapath, build_design
from repro.timing import XC4000E_DELAY
from repro.tools import circuit_to_dot, graph_to_dot
from repro.tools.cli import load_circuit, main


@pytest.fixture()
def blif_file(tmp_path):
    circuit = build_design("C2", scale=0.4).circuit
    path = tmp_path / "design.blif"
    path.write_text(write_blif(circuit))
    return path


class TestCli:
    def test_check_only(self, blif_file, capsys):
        assert main([str(blif_file), "--check"]) == 0
        out = capsys.readouterr().out
        assert "FF" in out and "delay" in out

    def test_retime_blif_to_blif(self, blif_file, tmp_path, capsys):
        out_path = tmp_path / "out.blif"
        assert main([str(blif_file), "-o", str(out_path)]) == 0
        result = read_blif(out_path.read_text())
        check_circuit(result)
        assert "retimed:" in capsys.readouterr().out

    def test_retime_with_map_to_verilog(self, blif_file, tmp_path):
        out_path = tmp_path / "out.v"
        assert main([str(blif_file), "--map", "-o", str(out_path)]) == 0
        result = read_verilog(out_path.read_text())
        check_circuit(result)
        assert result.registers

    def test_report_flag(self, blif_file, capsys):
        assert main([str(blif_file), "--report"]) == 0
        out = capsys.readouterr().out
        assert "classes" in out and "justification" in out

    def test_target_period(self, blif_file, capsys):
        assert main([str(blif_file), "--target-period", "999"]) == 0

    def test_verilog_input(self, blif_file, tmp_path):
        from repro.netlist import write_verilog

        circuit = read_blif(blif_file.read_text())
        v_path = tmp_path / "design.v"
        v_path.write_text(write_verilog(circuit))
        assert main([str(v_path), "--check"]) == 0

    def test_objective_minperiod(self, blif_file):
        assert main([str(blif_file), "--objective", "minperiod"]) == 0

    def test_syntactic_classes(self, blif_file):
        assert main([str(blif_file), "--syntactic-classes"]) == 0


@pytest.fixture(scope="module")
def eco_inputs(tmp_path_factory):
    """NTT4 and a one-op edit script that retypes one carry cell to a
    mux."""
    circuit = build_datapath("NTT4").circuit
    tmp = tmp_path_factory.mktemp("eco")
    base = tmp / "ntt4.blif"
    base.write_text(write_blif(circuit))
    carry = next(
        g.name for g in circuit.gates.values() if g.fn is GateFn.CARRY
    )
    edits = tmp / "edit.json"
    edits.write_text(
        json.dumps([{"op": "retype_gate", "name": carry, "fn": "mux"}])
    )
    return base, edits


class TestEcoCommand:
    def test_edit_script_matches_cold_retime(
        self, eco_inputs, tmp_path, capsys
    ):
        base, edits = eco_inputs
        out_path = tmp_path / "eco.blif"
        rc = main(
            [
                "eco",
                "--base",
                str(base),
                "--edits",
                str(edits),
                "--delay-model",
                "xc4000e",
                "--report",
                "-o",
                str(out_path),
            ]
        )
        assert rc == 0
        assert "plan=resolve" in capsys.readouterr().out
        edited = apply_edit_script(
            load_circuit(base), json.loads(edits.read_text())
        )
        cold = mc_retime(edited, delay_model=XC4000E_DELAY)
        assert out_path.read_text() == write_blif(cold.circuit)

    def test_needs_exactly_one_edit_source(self, eco_inputs, capsys):
        base, edits = eco_inputs
        assert main(["eco", "--base", str(base)]) == 1
        both = ["eco", str(base), "--base", str(base), "--edits", str(edits)]
        assert main(both) == 1
        assert "exactly one of" in capsys.readouterr().err

    def test_script_must_be_a_json_list(self, eco_inputs, tmp_path, capsys):
        base, edits = eco_inputs
        script = tmp_path / "op.json"
        script.write_text(json.dumps(json.loads(edits.read_text())[0]))
        assert main(["eco", "--base", str(base), "--edits", str(script)]) == 1
        assert "expected a JSON list" in capsys.readouterr().err


class TestDot:
    def test_circuit_dot(self):
        circuit = build_design("C2", scale=0.3).circuit
        text = circuit_to_dot(circuit)
        assert text.startswith("digraph")
        assert text.rstrip().endswith("}")
        # every register appears, with its control annotation
        for name, reg in circuit.registers.items():
            assert f'"{name}"' in text
        assert "style=dashed" in text  # control-pin edges

    def test_graph_dot_with_retiming(self):
        circuit = build_design("C2", scale=0.3).circuit
        graph = build_mcgraph(circuit).graph
        r = {v: 0 for v in graph.vertices}
        text = graph_to_dot(graph, r)
        assert text.startswith("digraph")
        assert "$host" in text
        assert "[C" in text  # class-annotated register sequences

    def test_graph_dot_weights_respect_r(self):
        from repro.graph import HOST, RetimingGraph

        g = RetimingGraph("t")
        g.add_host()
        g.add_vertex("a", 1.0)
        g.add_vertex("b", 1.0)
        g.add_edge(HOST, "a", 0)
        g.add_edge("a", "b", 1)
        g.add_edge("b", HOST, 0)
        plain = graph_to_dot(g)
        retimed = graph_to_dot(g, {"a": 0, "b": -1})
        assert '"a" -> "b" [label="1"' in plain
        # register moved forward: off a->b, onto b->host
        assert '"a" -> "b" [label=""' in retimed
        assert '"b" -> "$host" [label="1"' in retimed
