"""Certificate-backed explanations (docs/EXPLAIN.md).

Covers the extraction API (``mc_retime(explain=True)``), independent
re-validation (including tamper detection), the infeasibility
certificate, the ``mcretime explain`` CLI, and the per-gate bound
attribution against an independently recomputed bounds pass.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro.graph.build import build_mcgraph
from repro.mcretime import mc_retime
from repro.mcretime.bounds import compute_bounds
from repro.mcretime.classes import Classifier
from repro.mcretime.relocate import RelocationError
from repro.mcretime.sharing import apply_sharing_transform
from repro.netlist import read_blif
from repro.obs.explain import (
    SCHEMA,
    infeasible_payload,
    render_explanation,
    summary_metrics,
    validate_explanation,
)
from repro.retime.constraints import InfeasibleConstraints
from repro.timing import UNIT_DELAY
from repro.tools.cli import main as cli_main
from tests.strategies import circuits

DATA = Path(__file__).resolve().parent.parent / "data"


def small_circuit():
    return read_blif(
        (DATA / "c2_small_mapped.blif").read_text(),
        name_hint="c2_small_mapped",
    )


def work_graph_oracle(circuit, delay_model=UNIT_DELAY):
    """Replay the engine's deterministic build pipeline with dict code.

    Gives the post-sharing work graph and the *un-clamped* mc-bounds —
    the independent oracle the explanation's attribution must agree
    with (engine clamps may only tighten, and must say so).
    """
    classifier = Classifier(circuit, semantic=True)
    build = build_mcgraph(circuit, delay_model, classifier.classify)
    bounds = compute_bounds(build.graph)
    transform = apply_sharing_transform(
        build.graph, bounds.bounds, bounds.backward_graph
    )
    return transform.graph, dict(transform.bounds)


# --------------------------------------------------------------------- #
# extraction API


def test_engine_explain_valid():
    result = mc_retime(small_circuit(), explain=True)
    ex = result.explanation
    assert ex is not None
    assert ex["schema"] == SCHEMA
    assert ex["valid"] is True
    assert ex["errors"] == []
    assert ex["certificates"] > 0
    assert ex["period"] == result.period_after
    assert "explain" in result.timings
    # the minimised default run proves minimality with a lower bound
    assert ex["minimal"] is True
    assert ex["why_period"]["witness"]["path"]
    summary = summary_metrics(ex)
    assert summary["certificates"] == ex["certificates"]
    assert summary["valid"] is True
    assert summary["witness_gates"] == len(ex["why_period"]["witness"]["path"])
    text = render_explanation(ex)
    assert "why-period" in text
    assert "all valid" in text


def test_explain_off_pays_nothing():
    result = mc_retime(small_circuit())
    assert result.explanation is None
    assert "explain" not in result.timings


def test_witness_revalidates_against_independent_graph():
    circuit = small_circuit()
    result = mc_retime(circuit, explain=True)
    ex = result.explanation
    graph, _bounds = work_graph_oracle(circuit)
    assert validate_explanation(graph, ex) == []
    # the witness is a genuine register-free chain: re-sum its delays
    witness = ex["why_period"]["witness"]
    total = 0.0
    for v in witness["path"]:
        total += graph.vertices[v].delay
    assert total == witness["sum"] == ex["period"]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda ex: ex["why_period"]["witness"].__setitem__(
            "sum", ex["why_period"]["witness"]["sum"] + 1
        ),
        lambda ex: ex["why_period"]["witness"]["path"].append("no_such_gate"),
        lambda ex: ex.__setitem__("period", ex["period"] + 1),
    ],
    ids=["witness-sum", "witness-path", "period"],
)
def test_tampered_certificates_fail_validation(mutate):
    circuit = small_circuit()
    ex = mc_retime(circuit, explain=True).explanation
    graph, _bounds = work_graph_oracle(circuit)
    tampered = copy.deepcopy(ex)
    mutate(tampered)
    assert validate_explanation(graph, tampered) != []


# --------------------------------------------------------------------- #
# infeasibility certificate


@pytest.mark.parametrize("objective", ["minarea", "minperiod"])
def test_infeasible_cycle_certificate(objective):
    # min_area's infeasible branch and the min-period feasibility probe
    # share one certificate builder; both must yield a verified cycle
    with pytest.raises(InfeasibleConstraints) as err:
        mc_retime(small_circuit(), target_period=0.25, objective=objective)
    payload = infeasible_payload(err.value)
    assert payload["schema"] == SCHEMA
    assert payload["kind"] == "infeasible"
    assert payload["valid"] is True
    cert = payload["certificate"]
    assert cert["kind"] == "negative_cycle"
    assert cert["sum"] < 0
    cons = cert["constraints"]
    assert cons
    # the constraints chain head-to-tail into a cycle
    for a, b in zip(cons, cons[1:] + cons[:1]):
        assert a["v"] == b["u"]
    assert sum(c["bound"] for c in cons) == cert["sum"]
    assert "constraint cycle" in err.value.summary()


# --------------------------------------------------------------------- #
# bound attribution vs an independent bounds pass


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(circuit=circuits(max_gates=10, max_registers=4))
def test_bound_attribution_agrees_with_oracle(circuit):
    try:
        ex = mc_retime(circuit, explain=True).explanation
    except RelocationError:
        return  # known engine limit (see tests/kernels/test_differential.py)
    assert ex["valid"] is True

    # engine bounds may only tighten the mc-bounds, and any tightening
    # must be attributed (conflict_clamp), never silent
    _graph, oracle = work_graph_oracle(circuit)
    for v, entry in ex["why_stuck"].items():
        if v not in oracle:
            continue
        lo, hi = oracle[v]
        assert entry["r_min"] >= lo
        assert entry["r_max"] <= hi
        reasons = {reason["reason"] for reason in entry["reasons"]}
        if (entry["r_min"], entry["r_max"]) != (lo, hi):
            assert "conflict_clamp" in reasons


# --------------------------------------------------------------------- #
# CLI


def test_cli_explain_tree(capsys):
    code = cli_main(["explain", str(DATA / "c2_small_mapped.blif")])
    out = capsys.readouterr().out
    assert code == 0
    assert "why-period" in out
    assert "certificates:" in out
    assert "all valid" in out


def test_cli_explain_json_out(tmp_path, capsys):
    out_file = tmp_path / "explain.json"
    code = cli_main(
        [
            "explain",
            str(DATA / "c2_small_mapped.blif"),
            "--json",
            "--out",
            str(out_file),
        ]
    )
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    written = json.loads(out_file.read_text())
    assert printed == written
    assert written["schema"] == SCHEMA
    assert written["valid"] is True
    assert written["certificates"] > 0


def test_cli_explain_why_stuck(capsys):
    circuit = small_circuit()
    ex = mc_retime(circuit, explain=True).explanation
    gate = sorted(ex["why_stuck"])[0]
    code = cli_main(
        ["explain", str(DATA / "c2_small_mapped.blif"), "--why-stuck", gate]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert gate in out


def test_cli_why_infeasible_exit_codes(tmp_path, capsys):
    src = str(DATA / "c2_small_mapped.blif")
    out_file = tmp_path / "infeasible.json"
    code = cli_main(
        [
            "explain",
            src,
            "--target-period",
            "0.25",
            "--why-infeasible",
            "--json",
            "--out",
            str(out_file),
        ]
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["kind"] == "infeasible"
    assert payload["valid"] is True
    assert payload["certificate"]["sum"] < 0
    capsys.readouterr()

    # infeasible without --why-infeasible is an error...
    assert cli_main(["explain", src, "--target-period", "0.25"]) == 1
    capsys.readouterr()
    # ...and --why-infeasible on a feasible target is one too
    assert cli_main(["explain", src, "--why-infeasible"]) != 0
