"""Trace outputs: JSONL framing, Chrome trace schema, reports, and
the one span record every view of a run derives from."""

import json
from pathlib import Path

import pytest

from repro import obs
from repro.mcretime import mc_retime
from repro.netlist import read_blif
from repro.obs import report, stitch

DATA = Path(__file__).resolve().parent.parent / "data"


def trace_something(**session_kwargs):
    """Run a small traced workload through obs.session."""
    with obs.session(**session_kwargs) as tracer:
        with obs.span("outer", phi=3):
            with obs.span("inner"):
                obs.count("iterations", 4)
            obs.gauge("size", 17)
        with obs.span("outer"):
            pass
    return tracer


class TestJsonlSink:
    def test_framing_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        trace_something(jsonl=path)
        lines = path.read_text().splitlines()
        assert len(lines) >= 5  # meta + 3 spans + counter + gauge + end
        events = [json.loads(line) for line in lines]
        assert all(isinstance(e, dict) for e in events)
        assert events[0]["type"] == "meta"
        assert events[-1]["type"] == "end"
        assert "" not in lines

    def test_validate_jsonl_accepts_real_output(self, tmp_path):
        path = tmp_path / "run.jsonl"
        trace_something(jsonl=path)
        report.validate_jsonl(path)  # must not raise

    def test_validate_jsonl_rejects_tampering(self, tmp_path):
        path = tmp_path / "run.jsonl"
        trace_something(jsonl=path)
        text = path.read_text()
        bad = tmp_path / "bad.jsonl"

        bad.write_text(text.replace("\n", "\n\n", 1))
        with pytest.raises(ValueError):
            report.validate_jsonl(bad)

        bad.write_text("not json\n" + text)
        with pytest.raises(ValueError):
            report.validate_jsonl(bad)

    def test_round_trip_preserves_span_totals_exactly(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tracer = trace_something(jsonl=path)
        maps = report.aggregate(obs.load_events(path))
        assert maps["spans"] == tracer.snapshot()["spans"]
        assert maps["counters"] == tracer.counters

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "down" / "run.jsonl"
        trace_something(jsonl=path)
        assert path.exists()


class TestChromeTraceSink:
    """The Chrome file ``obs.session(trace=...)`` writes from the span
    record when the run ends (``report.chrome_doc``)."""

    def test_schema(self, tmp_path):
        path = tmp_path / "trace.json"
        trace_something(trace=path)
        data = json.loads(path.read_text())
        assert isinstance(data["traceEvents"], list)
        assert data["traceEvents"], "no events recorded"
        phases = {e["ph"] for e in data["traceEvents"]}
        assert "X" in phases  # complete spans
        assert "M" in phases  # process_name metadata
        for event in data["traceEvents"]:
            assert "name" in event and "pid" in event
            if event["ph"] == "X":
                # timestamps in microseconds, non-negative duration
                assert event["dur"] >= 0
                assert isinstance(event["ts"], (int, float))
        report.validate_chrome_trace(path)  # must not raise

    def test_span_args_and_counters_survive(self, tmp_path):
        path = tmp_path / "trace.json"
        trace_something(trace=path)
        data = json.loads(path.read_text())
        outer = [
            e for e in data["traceEvents"]
            if e["ph"] == "X" and e["name"] == "outer"
        ]
        assert any(e.get("args", {}).get("phi") == 3 for e in outer)
        assert data["otherData"]["counters"] == {"iterations": 4}

    def test_counter_events_render_as_C_phase(self, tmp_path):
        path = tmp_path / "trace.json"
        trace_something(trace=path)
        data = json.loads(path.read_text())
        counters = [e for e in data["traceEvents"] if e["ph"] == "C"]
        assert counters and counters[0]["args"]["value"] == 4

    def test_validate_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": []}')
        with pytest.raises(ValueError):
            report.validate_chrome_trace(bad)
        bad.write_text("[1, 2]")
        with pytest.raises(ValueError):
            report.validate_chrome_trace(bad)

    def test_load_events_reconstructs_nesting(self, tmp_path):
        path = tmp_path / "trace.json"
        tracer = trace_something(trace=path)
        events = obs.load_events(path)
        spans = [e for e in events if e["type"] == "span"]
        by_name = {}
        for e in spans:
            by_name.setdefault(e["name"], []).append(e)
        outer_ids = {e["id"] for e in by_name["outer"]}
        assert by_name["inner"][0]["parent"] in outer_ids
        assert report.aggregate(events)["counters"] == tracer.counters


class TestRenderSummary:
    def test_summary_tree_contents(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tracer = trace_something(jsonl=path)
        for text in (tracer.summary(), obs.render_summary(obs.load_events(path))):
            assert tracer.trace_id[:16] in text
            assert "outer" in text and "inner" in text
            assert "iterations" in text
            assert "size" in text
            # inner is indented under outer
            outer_line = next(
                line for line in text.splitlines() if "outer" in line
            )
            inner_line = next(
                line for line in text.splitlines() if "inner" in line
            )
            indent = lambda s: len(s) - len(s.lstrip())
            assert indent(inner_line) > indent(outer_line)

    def test_cpu_split_requires_engine_spans(self):
        assert report.cpu_split({"flow.map": 1.0}) is None
        split = report.cpu_split(
            {
                "engine.build": 1.0,
                "engine.minperiod": 2.0,
                "engine.minarea": 3.0,
                "engine.relocate": 4.0,
            }
        )
        # fractions of the engine total (5 + 4 + 1 = 10 seconds)
        assert split == {
            "basic_retiming": 0.5,
            "relocation": 0.4,
            "mc_overhead": 0.1,
        }


class TestSession:
    def test_nested_sessions_join_outer_trace(self, tmp_path):
        with obs.session(jsonl=tmp_path / "outer.jsonl") as outer:
            with obs.session(jsonl=tmp_path / "inner.jsonl") as inner:
                assert inner is None
                with obs.span("work"):
                    pass
        assert outer is not None
        assert not (tmp_path / "inner.jsonl").exists()
        assert "work" in outer.snapshot()["spans"]


class TestOneRecord:
    """Every view of a run derives from its one span record: the JSONL
    ``end`` record, the Chrome file (read back), ``Tracer.snapshot()``,
    the run-ledger record and the stitched ``end`` record agree on span
    totals (bit for bit), call counts and counters."""

    KEYS = ("spans", "span_counts", "counters")

    def test_cli_session(self, tmp_path):
        trace, jsonl, ledger = (
            tmp_path / name for name in ("t.json", "r.jsonl", "L.jsonl")
        )
        circuit = read_blif((DATA / "c3_small.blif").read_text())
        with obs.session(trace=trace, jsonl=jsonl, ledger=ledger) as tracer:
            mc_retime(circuit)
        end = obs.load_events(jsonl)[-1]
        assert end["type"] == "end"
        assert "engine.minperiod" in end["spans"] and end["counters"]
        (record,) = obs.RunLedger(ledger).load()
        views = {
            "chrome": obs.load_events(trace)[-1],
            "snapshot": tracer.snapshot(),
            "ledger": record,
            "stitched": stitch.stitch_events([jsonl])[-1],
        }
        for name, view in views.items():
            for key in self.KEYS:
                assert view[key] == end[key], (name, key)
        assert obs.chrome_trace_errors(trace) == []

    def test_served_request(self, tmp_path):
        from repro.service import RetimeJob, RetimeService

        trace_dir, ledger = tmp_path / "traces", tmp_path / "L.jsonl"
        with RetimeService(
            workers=1, job_timeout=120.0, trace_dir=trace_dir, ledger=ledger
        ) as svc:
            job_id = svc.submit(RetimeJob.from_file(DATA / "c3_small.blif"))
            result = svc.wait(job_id, timeout=120.0)
        assert result.ok, result.error
        job16 = job_id[:16]
        end = obs.load_events(trace_dir / f"{job16}.jsonl")[-1]
        front = obs.load_events(trace_dir / f"{job16}.req.jsonl")[-1]
        assert "job.execute" in end["spans"] and end["counters"]
        (record,) = obs.RunLedger(ledger).load()
        # the worker's own views
        worker = {"snapshot": result.metrics["obs"], "ledger": record}
        for name, view in worker.items():
            for key in self.KEYS:
                assert view[key] == end[key], (name, key)
        # the merged views add the front-end's request spans
        merged = {key: {**front[key], **end[key]} for key in self.KEYS}
        stitched = stitch.stitch_dir(trace_dir)
        stitch.write_chrome(stitched, tmp_path / "m.json")
        views = {
            "chrome": obs.load_events(tmp_path / "m.json")[-1],
            "stitched": stitched[job16][-1],
        }
        for name, view in views.items():
            for key in self.KEYS:
                assert view[key] == merged[key], (name, key)
