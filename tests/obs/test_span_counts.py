"""Span call-counts end to end: tracer -> ledger record -> sentinel
deltas -> report table column."""

from repro import obs
from repro.obs import report, sentinel


def _rec(ts=1.0, hot=0.1, calls=None):
    return obs.build_record(
        kind="bench.x",
        run_id=f"r{ts}",
        ts=ts,
        self_times={"hot": float(hot)},
        span_counts=None if calls is None else {"hot": int(calls)},
    )


class TestTracerSpanCounts:
    def test_counts_and_snapshot(self):
        tracer = obs.Tracer()
        for _ in range(3):
            with tracer.span("solve"):
                pass
        with tracer.span("solve"):
            with tracer.span("solve.inner"):
                pass
        counts = tracer.snapshot()["span_counts"]
        assert counts["solve"] == 4
        assert counts["solve.inner"] == 1
        assert report.aggregate(tracer.events)["span_counts"] == counts

    def test_record_from_tracer_carries_counts(self):
        tracer = obs.Tracer()
        with tracer.span("retime"):
            pass
        record = obs.record_from_snapshot(tracer.snapshot(), "k")
        assert record["span_counts"] == {"retime": 1}

    def test_ledger_round_trip(self, tmp_path):
        ledger = obs.RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(
            obs.build_record(
                kind="k",
                run_id="r",
                ts=1.0,
                spans={"a": 1.0},
                span_counts={"a": 7},
            )
        )
        (record,) = ledger.load()
        assert ledger.skipped == 0
        assert record["span_counts"] == {"a": 7}


class TestSentinelCountColumns:
    def test_delta_carries_median_counts(self):
        baseline = [_rec(ts=float(i), hot=0.1, calls=4) for i in range(3)]
        current = [_rec(ts=float(i), hot=0.5, calls=9) for i in range(3)]
        report_ = sentinel.diff(baseline, current)
        (delta,) = report_.regressions
        assert delta.baseline_count == 4
        assert delta.current_count == 9
        assert "[x4->x9]" in delta.describe()

    def test_legacy_records_without_counts(self):
        # pre-span_counts ledger records must not break the sentinel
        baseline = [_rec(hot=0.1)]
        current = [_rec(hot=0.5)]
        (delta,) = sentinel.diff(baseline, current).regressions
        assert delta.baseline_count is None
        assert delta.current_count is None
        assert "[x" not in delta.describe()

    def test_group_medians_values_extractor(self):
        records = [
            _rec(ts=float(i), calls=v) for i, v in enumerate([2, 10, 4])
        ]
        medians = sentinel.group_medians(
            records, values=sentinel._span_counts
        )
        assert medians["bench.x"]["hot"] == 4


class TestReportTopTable:
    def test_top_spans_table_has_count_column(self):
        tracer = obs.Tracer()
        for _ in range(5):
            with tracer.span("relocate"):
                pass
        text = report.render_summary(tracer.events)
        lines = text.splitlines()
        (header_idx,) = [
            i for i, line in enumerate(lines) if "self %" in line
        ]
        header = lines[header_idx]
        assert "count" in header and "total" in header
        (row,) = [
            line for line in lines[header_idx + 1:]
            if line.lstrip().startswith("relocate")
        ]
        assert row.split()[1] == "5"
