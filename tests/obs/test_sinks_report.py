"""Sink output formats: JSONL framing, Chrome trace schema, reports."""

import json

import pytest

from repro import obs
from repro.obs import report


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
        events = obs.load_events(path)
        assert report.span_totals(events) == tracer.span_totals()
        assert report.counters(events) == tracer.counters

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "down" / "run.jsonl"
        trace_something(jsonl=path)
        assert path.exists()


class TestChromeTraceSink:
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
        assert report.counters(events) == tracer.counters


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
        assert "work" in outer.span_totals()
