"""The perf-regression sentinel: grouping, thresholds, CLI gating."""

import pytest

from repro import obs
from repro.obs import sentinel
from repro.tools.cli import main as cli_main


def _rec(kind="bench.x", ts=1.0, fingerprint=None, **spans):
    return obs.build_record(
        kind=kind,
        run_id=f"r{ts}",
        ts=ts,
        fingerprint=fingerprint,
        self_times={k: float(v) for k, v in spans.items()},
    )


class TestGrouping:
    def test_group_medians_median_of_k(self):
        records = [_rec(ts=float(i), hot=v) for i, v in enumerate([1, 9, 2, 8, 3])]
        medians = sentinel.group_medians(records, window=5)
        assert medians["bench.x"]["hot"] == 3.0

    def test_window_keeps_newest(self):
        records = [_rec(ts=float(i), hot=float(i)) for i in range(10)]
        medians = sentinel.group_medians(records, window=3)
        assert medians["bench.x"]["hot"] == 8.0

    def test_fingerprint_splits_groups(self):
        records = [
            _rec(ts=1.0, fingerprint="a" * 64, hot=1.0),
            _rec(ts=2.0, fingerprint="b" * 64, hot=100.0),
        ]
        medians = sentinel.group_medians(records)
        assert len(medians) == 2
        assert medians["bench.x:" + "a" * 12]["hot"] == 1.0

    def test_spans_fallback_when_no_self_times(self):
        record = obs.build_record(
            kind="k", run_id="r", ts=1.0, spans={"a": 2.0}
        )
        assert sentinel.group_medians([record])["k"]["a"] == 2.0


class TestDiff:
    def test_regression_flagged(self):
        report = sentinel.diff([_rec(hot=0.1)], [_rec(hot=0.5)])
        assert not report.ok
        (delta,) = report.regressions
        assert delta.span == "hot"
        assert delta.ratio == pytest.approx(5.0)

    def test_noise_floor_suppresses_tiny_spans(self):
        # 10x slower but only by 90 microseconds: never gates
        report = sentinel.diff([_rec(hot=0.00001)], [_rec(hot=0.0001)])
        assert report.ok

    def test_within_threshold_ok(self):
        report = sentinel.diff([_rec(hot=0.100)], [_rec(hot=0.140)])
        assert report.ok
        assert len(report.deltas) == 1

    def test_only_finished_runs_compare(self):
        # a failed or shed service record carries no timings: two of
        # them would pull the median-of-3 of the slow runs back to 0.1
        current = [_rec(ts=float(i), hot=0.5) for i in range(2)]
        for ts, status in ((2.0, "failed"), (3.0, "shed")):
            current.append(dict(_rec(ts=ts, hot=0.1), status=status))
        report = sentinel.diff([_rec(hot=0.1)], current, window=3)
        (delta,) = report.regressions
        assert delta.current == pytest.approx(0.5)

    def test_unmatched_groups_reported_not_compared(self):
        report = sentinel.diff(
            [_rec(kind="only.base", hot=1.0)], [_rec(kind="only.cur", hot=1.0)]
        )
        assert report.ok
        assert set(report.unmatched) == {"only.base", "only.cur"}

    def test_relative_mode_ignores_uniform_scaling(self):
        base = [_rec(a=0.1, b=0.3)]
        # a uniformly 3x slower machine: shares unchanged
        cur = [_rec(a=0.3, b=0.9)]
        assert not sentinel.diff(base, cur, mode="relative").regressions
        assert len(sentinel.diff(base, cur, mode="absolute").regressions) == 2

    def test_relative_mode_catches_share_shift(self):
        base = [_rec(a=0.1, b=0.1)]
        cur = [_rec(a=0.5, b=0.1)]  # span a ballooned relative to b
        report = sentinel.diff(base, cur, mode="relative", threshold=1.5)
        assert [d.span for d in report.regressions] == ["a"]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            sentinel.diff([], [], mode="bogus")


class TestCheck:
    def test_inject_slowdown_fires(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = obs.RunLedger(path)
        ledger.append(_rec(ts=1.0, hot=0.1))
        assert sentinel.check(path, path).ok
        assert not sentinel.check(path, path, inject_slowdown=2.0).ok

    def test_render_mentions_verdict(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        obs.RunLedger(path).append(_rec(hot=0.1))
        text = sentinel.check(path, path, inject_slowdown=3.0).render(top=5)
        assert "REGRESSED" in text
        assert "1 regressed" in text


class TestCli:
    def _ledger(self, tmp_path, name, value):
        path = tmp_path / name
        obs.RunLedger(path).append(_rec(hot=value))
        return path

    def test_check_ok_exit_zero(self, tmp_path, capsys):
        base = self._ledger(tmp_path, "base.jsonl", 0.1)
        assert cli_main(["obs", "check", "--baseline", str(base), str(base)]) == 0
        assert "0 regressed" in capsys.readouterr().out

    def test_check_regression_exit_nonzero(self, tmp_path, capsys):
        base = self._ledger(tmp_path, "base.jsonl", 0.1)
        cur = self._ledger(tmp_path, "cur.jsonl", 0.5)
        code = cli_main(["obs", "check", "--baseline", str(base), str(cur)])
        assert code == 1
        assert "regressed" in capsys.readouterr().err

    def test_check_inject_slowdown(self, tmp_path):
        base = self._ledger(tmp_path, "base.jsonl", 0.1)
        assert (
            cli_main(
                ["obs", "check", "--baseline", str(base), str(base),
                 "--inject-slowdown", "2"]
            )
            == 1
        )

    def test_check_no_comparable_records_fails(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = cli_main(
            ["obs", "check", "--baseline", str(empty), str(empty)]
        )
        assert code != 0

    def test_diff_prints_table(self, tmp_path, capsys):
        base = self._ledger(tmp_path, "base.jsonl", 0.1)
        cur = self._ledger(tmp_path, "cur.jsonl", 0.12)
        assert cli_main(["obs", "diff", str(base), str(cur), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "hot" in out and "1.20x" in out

    def test_relative_mode_flag(self, tmp_path):
        base = self._ledger(tmp_path, "base.jsonl", 0.1)
        cur = self._ledger(tmp_path, "cur.jsonl", 0.3)
        # single-span groups always have share 1.0: relative mode sees
        # no shift even though absolute mode would gate
        assert (
            cli_main(
                ["obs", "check", "--baseline", str(base), str(cur),
                 "--mode", "relative"]
            )
            == 0
        )
