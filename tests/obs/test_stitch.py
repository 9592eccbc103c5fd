"""Unit tests for the cross-process trace stitcher (repro.obs.stitch).

The skew regression here is the satellite fix: per-process
``perf_counter`` offsets are not comparable across pids, so the stitcher
must rebase every event onto the common ``wall0`` anchor and clamp so
nothing renders with a negative start or duration.
"""

import json
from pathlib import Path

import pytest

from repro import obs
from repro.obs import report, stitch


def _span(name, sid, parent, ts, dur, pid, depth=0, **args):
    out = {
        "type": "span",
        "name": name,
        "id": sid,
        "parent": parent,
        "depth": depth,
        "ts": ts,
        "dur": dur,
        "self": dur,
        "pid": pid,
        "tid": 0,
    }
    if args:
        out["args"] = args
    return out


def _frontend_trace(pid=100, wall0=1000.0, total=1.0):
    """Synthetic front-end request log: admit/queue/dispatch under request."""
    return [
        {
            "type": "meta",
            "trace_id": "job-a",
            "pid": pid,
            "wall_time": wall0,
            "role": "frontend",
            "job": "job-a",
        },
        _span("request.admit", 2, 1, 0.0, 0.01, pid, depth=1),
        _span("request.queue", 3, 1, 0.01, 0.09, pid, depth=1),
        _span("request.dispatch", 4, 1, 0.1, total - 0.1, pid, depth=1),
        _span("request", 1, 0, 0.0, total, pid, job="job-a"),
        {
            "type": "end",
            "trace_id": "job-a",
            "ts": total,
            "counters": {"frontend.requests": 1},
            "gauges": {},
            "spans": {"request": total},
            "pid": pid,
        },
    ]


def _worker_trace(pid=200, wall0=1000.5, parent_span=4, parent_pid=100):
    """Synthetic worker trace: resolve/execute/respond roots."""
    meta = {
        "type": "meta",
        "trace_id": "job-a",
        "pid": pid,
        "wall_time": wall0,
        "role": "worker",
        "job": "job-a",
    }
    if parent_span is not None:
        meta["parent_span"] = parent_span
        meta["parent_pid"] = parent_pid
    return [
        meta,
        _span("worker.resolve", 1, 0, 0.0, 0.02, pid),
        _span("job.execute", 2, 0, 0.02, 0.3, pid),
        _span("worker.respond", 3, 0, 0.32, 0.01, pid),
        {
            "type": "end",
            "trace_id": "job-a",
            "ts": 0.33,
            "counters": {"worker.jobs": 1},
            "gauges": {},
            "spans": {"job.execute": 0.3},
            "pid": pid,
        },
    ]


class TestWallClockRebase:
    def test_worker_events_shift_by_wall_clock_delta(self):
        events = stitch.stitch_events([_frontend_trace(), _worker_trace()])
        execute = [
            e for e in events
            if e.get("type") == "span" and e["name"] == "job.execute"
        ][0]
        # worker wall0 is 0.5s after the front-end's: its local ts 0.02
        # lands at 0.52 on the stitched axis
        assert execute["ts"] == pytest.approx(0.52)

    def test_earliest_wall_clock_is_the_origin(self):
        events = stitch.stitch_events([_worker_trace(), _frontend_trace()])
        head = events[0]
        assert head["type"] == "meta"
        assert head.get("stitched") is True
        assert head["wall_time"] == pytest.approx(1000.0)

    def test_skew_never_produces_negative_start_or_duration(self):
        """The regression: NTP slew / float rounding pushing a rebased
        timestamp fractionally below zero must be clamped, not exported."""
        worker = _worker_trace(wall0=999.999_999)  # "before" the front-end
        worker[1]["ts"] = -1e-4  # skewed local timestamp
        worker[2]["dur"] = -1e-6  # degenerate duration
        events = stitch.stitch_events([_frontend_trace(), worker])
        for event in events:
            if event.get("type") == "span":
                assert event["ts"] >= 0.0, event
                assert event["dur"] >= 0.0, event

    def test_body_events_are_time_ordered(self):
        events = stitch.stitch_events([_worker_trace(), _frontend_trace()])
        body = [e for e in events if e.get("type") == "span"]
        assert [e["ts"] for e in body] == sorted(e["ts"] for e in body)


class TestCrossProcessStructure:
    def test_span_ids_are_globally_unique(self):
        events = stitch.stitch_events([_frontend_trace(), _worker_trace()])
        ids = [e["id"] for e in events if e.get("type") == "span"]
        assert len(ids) == len(set(ids))

    def test_worker_roots_reparent_under_the_dispatch_span(self):
        events = stitch.stitch_events([_frontend_trace(), _worker_trace()])
        spans = {
            (e["pid"], e["name"]): e
            for e in events
            if e.get("type") == "span"
        }
        dispatch = spans[(100, "request.dispatch")]
        for name in ("worker.resolve", "job.execute", "worker.respond"):
            worker_span = spans[(200, name)]
            assert worker_span["parent"] == dispatch["id"]
            assert worker_span.get("stitched_parent") is True

    def test_unstamped_worker_trace_keeps_its_roots(self):
        worker = _worker_trace(parent_span=None)
        events = stitch.stitch_events([_frontend_trace(), worker])
        roots = [
            e
            for e in events
            if e.get("type") == "span"
            and e["pid"] == 200
            and e["parent"] == 0
        ]
        assert len(roots) == 3

    def test_parent_self_time_shrinks_after_adoption(self):
        events = stitch.stitch_events([_frontend_trace(), _worker_trace()])
        spans = [e for e in events if e.get("type") == "span"]
        (dispatch, own), = [
            (e, own)
            for e, own in zip(spans, report.self_times(events))
            if e["name"] == "request.dispatch"
        ]
        # 0.9s dispatch window minus the three adopted worker spans
        assert own == pytest.approx(0.9 - 0.02 - 0.3 - 0.01)
        assert own < dispatch["dur"]

    def test_merged_end_record_sums_counters(self):
        events = stitch.stitch_events([_frontend_trace(), _worker_trace()])
        tail = events[-1]
        assert tail["type"] == "end"
        assert tail["counters"] == {
            "frontend.requests": 1,
            "worker.jobs": 1,
        }


class TestRequestTimelines:
    def test_coverage_accounts_direct_children(self):
        events = stitch.stitch_events([_frontend_trace(), _worker_trace()])
        (line,) = stitch.request_timelines(events)
        assert line["job"] == "job-a"
        # admit (0.01) + queue (0.09) + dispatch (0.9) cover the request
        assert line["coverage"] == pytest.approx(1.0, abs=0.02)
        assert line["children"] == 3

    def test_uncovered_window_lowers_coverage(self):
        trace = _frontend_trace()
        # drop the dispatch span: 0.9s of the request goes unaccounted
        trace = [
            e for e in trace
            if not (e.get("type") == "span" and e["name"] == "request.dispatch")
        ]
        (line,) = stitch.request_timelines(stitch.stitch_events([trace]))
        assert line["coverage"] == pytest.approx(0.1, abs=0.02)


class TestCriticalPath:
    def test_per_phase_attribution(self):
        stitched = {
            "job-a": stitch.stitch_events(
                [_frontend_trace(), _worker_trace()]
            )
        }
        analysis = stitch.critical_path(stitched)
        (row,) = analysis["requests"]
        assert row["queue"] == pytest.approx(0.09)
        assert row["intern"] == pytest.approx(0.02)  # worker.resolve
        assert row["solve"] == pytest.approx(0.3)  # job.execute
        assert row["respond"] == pytest.approx(1.0 - 0.09 - 0.02 - 0.3)
        assert analysis["sum"]["total"] == pytest.approx(1.0)

    def test_nested_intern_spans_count_once(self):
        worker = _worker_trace()
        worker.insert(
            2,
            _span(
                "service.intern.attach", 4, 1, 0.001, 0.015, 200, depth=1
            ),
        )
        stitched = {"job-a": stitch.stitch_events([_frontend_trace(), worker])}
        (row,) = stitch.critical_path(stitched)["requests"]
        # attach nests inside worker.resolve: only the outer counts
        assert row["intern"] == pytest.approx(0.02)

    def test_render_mentions_every_phase(self):
        stitched = {
            "job-a": stitch.stitch_events([_frontend_trace(), _worker_trace()])
        }
        text = stitch.render_critical_path(stitch.critical_path(stitched))
        for word in ("queue", "intern", "solve", "respond", "SUM"):
            assert word in text


class TestValidatorsAcceptStitched:
    def test_stitched_jsonl_passes_schema_validation(self, tmp_path):
        """Satellite: the validator accepts multi-process event streams."""
        events = stitch.stitch_events([_frontend_trace(), _worker_trace()])
        pids = {e["pid"] for e in events if e.get("type") == "span"}
        assert len(pids) == 2
        out = tmp_path / "stitched.jsonl"
        stitch.write_jsonl(events, out)
        assert obs.jsonl_errors(out) == []

    def test_stitched_chrome_export_passes_validation(self, tmp_path):
        stitched = {
            "job-a": stitch.stitch_events([_frontend_trace(), _worker_trace()])
        }
        out = tmp_path / "stitched.json"
        stitch.write_chrome(stitched, out)
        assert obs.chrome_trace_errors(out) == []
        doc = json.loads(out.read_text())
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e.get("ph") == "M"
        }
        assert any("frontend" in n for n in names)
        assert any("worker" in n for n in names)

    def test_validator_flags_negative_span_start(self, tmp_path):
        events = stitch.stitch_events([_frontend_trace()])
        for event in events:
            if event.get("type") == "span" and event["name"] == "request":
                event["ts"] = -0.25  # simulate a missing skew correction
        out = tmp_path / "bad.jsonl"
        stitch.write_jsonl(events, out)
        errors = obs.jsonl_errors(out)
        assert any("negative span start" in e for e in errors)


class TestTraceGroups:
    def test_request_and_worker_files_group_together(self, tmp_path):
        (tmp_path / "abc123.jsonl").write_text("")
        (tmp_path / "abc123.req.jsonl").write_text("")
        (tmp_path / "other9.jsonl").write_text("")
        groups = stitch.trace_groups(tmp_path)
        assert sorted(groups) == ["abc123", "other9"]
        assert len(groups["abc123"]) == 2
        assert len(groups["other9"]) == 1

    def test_stitch_dir_filters_by_job(self, tmp_path):
        front = tmp_path / "job-a.req.jsonl"
        with front.open("w") as fh:
            for event in _frontend_trace():
                fh.write(json.dumps(event) + "\n")
        worker = tmp_path / "job-a.jsonl"
        with worker.open("w") as fh:
            for event in _worker_trace():
                fh.write(json.dumps(event) + "\n")
        assert list(stitch.stitch_dir(tmp_path, job="job-a")) == ["job-a"]
        assert stitch.stitch_dir(tmp_path, job="nope") == {}

    def test_partial_trailing_line_is_tolerated(self, tmp_path):
        path = tmp_path / "job-a.jsonl"
        lines = [json.dumps(e) for e in _worker_trace(parent_span=None)]
        path.write_text("\n".join(lines) + '\n{"type": "sp')  # mid-write
        events = stitch.stitch_events([path])
        assert events  # the partial line is dropped, not fatal
