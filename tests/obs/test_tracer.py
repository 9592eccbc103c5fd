"""Core tracer semantics: spans, counters, gauges, disabled no-ops."""

import threading

import pytest

from repro import obs
from repro.obs import report


def span_events(tracer):
    return [e for e in tracer.events if e["type"] == "span"]


class TestSpanNesting:
    def test_parent_child_ids_and_depth(self):
        t = obs.start()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        obs.stop()
        inner, outer = span_events(t)  # events close inner-first
        assert inner["name"] == "inner"
        assert inner["parent"] == outer["id"]
        assert inner["depth"] == 1
        assert outer["parent"] == 0
        assert outer["depth"] == 0

    def test_self_time_excludes_children(self):
        t = obs.start()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        obs.stop()
        inner, outer = span_events(t)
        inner_self, outer_self = report.self_times(t.events)
        assert outer_self == pytest.approx(outer["dur"] - inner["dur"])
        assert inner_self == inner["dur"]

    def test_span_args_and_set(self):
        t = obs.start()
        with obs.span("s", phi=4) as sp:
            sp.set(rounds=7)
        obs.stop()
        (event,) = span_events(t)
        assert event["args"] == {"phi": 4, "rounds": 7}

    def test_sibling_spans_share_parent(self):
        t = obs.start()
        with obs.span("outer"):
            with obs.span("a"):
                pass
            with obs.span("b"):
                pass
        obs.stop()
        a, b, outer = span_events(t)
        assert a["parent"] == b["parent"] == outer["id"]

    def test_per_thread_stacks(self):
        t = obs.start()
        seen = {}

        def worker():
            with obs.span("thread_span"):
                pass
            seen["done"] = True

        with obs.span("main_span"):
            th = threading.Thread(target=worker)
            th.start()
            th.join()
        obs.stop()
        assert seen["done"]
        by_name = {e["name"]: e for e in span_events(t)}
        # the other thread's span must NOT nest under main's open span
        assert by_name["thread_span"]["parent"] == 0
        assert by_name["thread_span"]["tid"] != by_name["main_span"]["tid"]


class TestExceptionSafety:
    def test_exception_marks_span_and_unwinds(self):
        t = obs.start()
        with pytest.raises(RuntimeError):
            with obs.span("boom"):
                raise RuntimeError("x")
        # the stack unwound: a new span is again top-level
        with obs.span("after"):
            pass
        obs.stop()
        boom, after = span_events(t)
        assert boom.get("error") is True
        assert "error" not in after
        assert after["parent"] == 0

    def test_abandoned_inner_spans_are_popped(self):
        t = obs.start()
        outer = t.span("outer")
        outer.__enter__()
        # enter an inner span and never exit it (simulates a lost handle)
        t.span("lost").__enter__()
        outer.__exit__(None, None, None)
        with obs.span("next"):
            pass
        obs.stop()
        by_name = {e["name"]: e for e in span_events(t)}
        assert by_name["next"]["parent"] == 0
        assert by_name["next"]["depth"] == 0


class TestCounters:
    def test_aggregation_across_increments(self):
        t = obs.start()
        obs.count("x")
        obs.count("x", 4)
        obs.count("y", 2.5)
        obs.stop()
        assert t.counters == {"x": 5, "y": 2.5}
        end = t.events[-1]
        assert end["type"] == "end"
        assert end["counters"] == {"x": 5, "y": 2.5}

    def test_counter_events_are_cumulative(self):
        t = obs.start()
        obs.count("x", 2)
        obs.count("x", 3)
        obs.stop()
        values = [e["value"] for e in t.events if e["type"] == "counter"]
        assert values == [2, 5]

    def test_attribution_to_innermost_open_span(self):
        t = obs.start()
        with obs.span("outer"):
            obs.count("k")
            with obs.span("inner"):
                obs.count("k", 9)
        obs.stop()
        inner, outer = span_events(t)
        assert inner["counters"] == {"k": 9}
        assert outer["counters"] == {"k": 1}
        assert t.counters == {"k": 10}

    def test_gauge_stats(self):
        t = obs.start()
        for v in (5, 1, 3):
            obs.gauge("g", v)
        obs.stop()
        stat = t.snapshot()["gauges"]["g"]
        assert stat == {"count": 3, "sum": 9.0, "min": 1, "max": 5, "last": 3}


class TestDisabledMode:
    def test_span_is_shared_noop_singleton(self):
        assert not obs.enabled()
        assert obs.span("anything", probe=1) is obs.NULL_SPAN
        with obs.span("x") as sp:
            sp.set(a=1)
        assert sp.duration == 0.0

    def test_count_and_gauge_are_noops(self):
        obs.count("x", 5)
        obs.gauge("g", 1.0)
        assert obs.current() is None

    def test_timed_still_measures(self):
        with obs.timed("stage") as sp:
            pass
        assert isinstance(sp, obs.Stopwatch)
        assert sp.duration > 0.0

    def test_timed_returns_real_span_when_enabled(self):
        t = obs.start()
        with obs.timed("stage") as sp:
            pass
        obs.stop()
        assert isinstance(sp, obs.Span)
        assert t.snapshot()["spans"] == {"stage": sp.duration}


class TestSpanTotals:
    def test_totals_sum_in_event_order(self):
        t = obs.start()
        durations = []
        for _ in range(3):
            with obs.span("phase") as sp:
                pass
            durations.append(sp.duration)
        obs.stop()
        # exact left-to-right float summation, like timings[k] += dur
        expected = 0.0
        for d in durations:
            expected += d
        assert t.snapshot()["spans"]["phase"] == expected

    def test_snapshot_is_json_safe(self):
        import json

        t = obs.start(trace_id="abc123")
        with obs.span("s"):
            obs.count("c", 2)
            obs.gauge("g", 7)
        obs.stop()
        snap = t.snapshot()
        assert snap["trace_id"] == "abc123"
        assert snap["counters"] == {"c": 2}
        assert json.loads(json.dumps(snap)) == snap


class TestStageClock:
    def test_accumulates_and_finalizes(self):
        clock = obs.StageClock()
        with clock.stage("map"):
            pass
        with clock.stage("map"):
            pass
        with clock.stage("retime", "flow.retime", objective="minarea"):
            pass
        timings = clock.done()
        assert set(timings) == {"map", "retime", "total"}
        assert timings["total"] == timings["map"] + timings["retime"]

    def test_seed_drops_stale_total(self):
        clock = obs.StageClock(seed={"optimize": 1.0, "total": 1.0})
        with clock.stage("retime"):
            pass
        timings = clock.done()
        assert timings["total"] == pytest.approx(1.0 + timings["retime"])

    def test_finalize_total(self):
        timings = {"a": 1.0, "b": 2.0, "total": 99.0}
        assert obs.finalize_total(timings)["total"] == 3.0
