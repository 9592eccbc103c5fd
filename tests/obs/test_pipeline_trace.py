"""End-to-end tracing of the retiming pipeline.

The acceptance bar for the obs layer: a traced ``mc_retime`` run emits
spans whose per-name totals reproduce ``MCRetimeResult.timings``
*exactly* (same floats, not approximately), counters for the paper's
algorithm internals appear, and disabling tracing changes nothing about
the retimed netlist.
"""

import json
from pathlib import Path

from repro import obs
from repro.flows import retime_flow
from repro.mcretime import mc_retime
from repro.netlist import read_blif, write_blif
from repro.obs import report
from repro.timing import UNIT_DELAY, XC4000E_DELAY

DATA = Path(__file__).resolve().parent.parent / "data"


def load(name):
    return read_blif((DATA / f"{name}.blif").read_text(), name_hint=name)


class TestTimingsFromSpans:
    def test_engine_timings_equal_span_totals_exactly(self):
        tracer = obs.start()
        try:
            result = mc_retime(load("c2_small"), delay_model=UNIT_DELAY)
        finally:
            obs.stop()
        totals = tracer.snapshot()["spans"]
        assert result.timings  # sanity: phases were recorded
        for phase, seconds in result.timings.items():
            if phase == "total":
                continue
            assert totals[f"engine.{phase}"] == seconds, phase

    def test_jsonl_reproduces_timings_exactly(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.session(jsonl=path):
            result = mc_retime(load("c2_small"), delay_model=UNIT_DELAY)
        totals = report.aggregate(obs.load_events(path))["spans"]
        for phase, seconds in result.timings.items():
            if phase == "total":
                continue
            assert totals[f"engine.{phase}"] == seconds, phase
        # one level up: the Table-2 flow's stages
        path = tmp_path / "flow.jsonl"
        with obs.session(jsonl=path):
            flow = retime_flow(load("c2_small"), XC4000E_DELAY)
        totals = report.aggregate(obs.load_events(path))["spans"]
        assert set(flow.timings) > {"total"}
        for stage, seconds in flow.timings.items():
            if stage == "total":
                continue
            assert totals[f"flow.{stage}"] == seconds, stage


class TestAlgorithmCounters:
    def test_acceptance_counters_present(self):
        tracer = obs.start()
        try:
            mc_retime(load("c3_small"), delay_model=UNIT_DELAY)
        finally:
            obs.stop()
        counters = tracer.counters
        # the ISSUE acceptance triplet
        assert counters.get("feas.passes", 0) > 0
        assert counters.get("bf.rounds", 0) > 0
        assert counters.get("mcf.augmentations", 0) > 0
        # supporting internals
        assert counters.get("minperiod.probes", 0) > 0
        assert counters.get("minarea.rounds", 0) > 0
        assert "minperiod.phi" in tracer.snapshot()["gauges"]

    def test_counters_attributed_to_phase_spans(self):
        tracer = obs.start()
        try:
            mc_retime(load("c2_small"), delay_model=UNIT_DELAY)
        finally:
            obs.stop()
        feas = [
            e for e in tracer.events
            if e["type"] == "span" and e["name"] == "minperiod.feas"
        ]
        assert feas
        assert any(e.get("counters", {}).get("feas.passes") for e in feas)


class TestDisabledIdentity:
    def test_same_retimed_netlist_bytes(self):
        untraced = mc_retime(load("c2_small"), delay_model=UNIT_DELAY)
        tracer = obs.start()
        try:
            traced = mc_retime(load("c2_small"), delay_model=UNIT_DELAY)
        finally:
            obs.stop()
        assert write_blif(traced.circuit) == write_blif(untraced.circuit)
        assert tracer.events  # the traced run really did record spans
        assert traced.period_after == untraced.period_after
        assert traced.ff_after == untraced.ff_after

    def test_no_tracer_installed_after_run(self):
        mc_retime(load("c2_small"), delay_model=UNIT_DELAY)
        assert not obs.enabled()


class TestChromeExportOfRealRun:
    def test_trace_is_perfetto_loadable_schema(self, tmp_path):
        path = tmp_path / "trace.json"
        with obs.session(trace=path):
            mc_retime(load("c2_small"), delay_model=UNIT_DELAY)
        report.validate_chrome_trace(path)
        data = json.loads(path.read_text())
        names = {
            e["name"] for e in data["traceEvents"] if e["ph"] == "X"
        }
        assert "engine.minperiod" in names
        assert "minperiod.feas" in names
