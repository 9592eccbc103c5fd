"""The run ledger: schema, round-trip, tolerance, rotation."""

import json

import pytest

from repro import obs
from repro.obs import ledger as ledger_mod
from repro.obs import sentinel


class TestRecordSchema:
    def test_build_record_minimal(self):
        record = obs.build_record(kind="test", run_id="abc", ts=1.0)
        assert record["schema"] == ledger_mod.SCHEMA
        assert record["kind"] == "test"
        assert record["run_id"] == "abc"
        assert record["spans"] == {}
        assert "python" in record["env"]
        assert "git_sha" in record["env"]

    def test_build_record_full(self):
        record = obs.build_record(
            kind="bench.x",
            run_id="r1",
            fingerprint="f" * 64,
            config={"scale": 0.3},
            spans={"a": 1.0},
            self_times={"a": 0.5},
            counters={"c": 3},
            metrics={"period": 12.5},
        )
        assert obs.record_errors(record) == []

    def test_missing_required_fields(self):
        errors = obs.record_errors({"schema": ledger_mod.SCHEMA})
        joined = "; ".join(errors)
        assert "run_id" in joined and "kind" in joined and "ts" in joined

    def test_wrong_types_collected(self):
        record = obs.build_record(kind="t", run_id="r", ts=1.0)
        record["spans"] = {"a": "not a number"}
        record["config"] = []
        errors = obs.record_errors(record)
        assert any("spans" in e for e in errors)
        assert any("config" in e for e in errors)

    def test_unknown_schema_rejected(self):
        record = obs.build_record(kind="t", run_id="r", ts=1.0)
        record["schema"] = "repro.run/99"
        assert any("schema" in e for e in obs.record_errors(record))

    def test_validate_raises(self):
        with pytest.raises(ValueError, match="run_id"):
            obs.validate_record({"schema": ledger_mod.SCHEMA})

    def test_bool_is_not_a_number(self):
        record = obs.build_record(kind="t", run_id="r", ts=1.0)
        record["counters"] = {"flag": True}
        assert any("counters" in e for e in obs.record_errors(record))


class TestRoundTrip:
    def test_append_load(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = obs.RunLedger(path)
        for i in range(3):
            ledger.append(
                obs.build_record(
                    kind="t", run_id=f"r{i}", ts=float(i), spans={"a": i * 1.0}
                )
            )
        loaded = obs.RunLedger(path).load()
        assert [r["run_id"] for r in loaded] == ["r0", "r1", "r2"]
        assert loaded[2]["spans"] == {"a": 2.0}

    def test_append_validates(self, tmp_path):
        ledger = obs.RunLedger(tmp_path / "runs.jsonl")
        with pytest.raises(ValueError):
            ledger.append({"kind": "t"})

    def test_tail(self, tmp_path):
        ledger = obs.RunLedger(tmp_path / "runs.jsonl")
        for i in range(5):
            ledger.append(obs.build_record(kind="t", run_id=f"r{i}", ts=float(i)))
        assert [r["run_id"] for r in ledger.tail(2)] == ["r3", "r4"]


class TestTolerance:
    def test_corrupt_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = obs.RunLedger(path)
        ledger.append(obs.build_record(kind="t", run_id="good", ts=1.0))
        with path.open("a") as fh:
            fh.write("{torn json\n")
            fh.write(json.dumps({"kind": "no-schema"}) + "\n")
        ledger.append(obs.build_record(kind="t", run_id="good2", ts=2.0))
        records = ledger.load()
        assert [r["run_id"] for r in records] == ["good", "good2"]
        assert ledger.skipped == 2

    def test_strict_raises_with_line_number(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        obs.RunLedger(path).append(
            obs.build_record(kind="t", run_id="r", ts=1.0)
        )
        path.open("a").write("garbage\n")
        with pytest.raises(ValueError, match=":2:"):
            obs.RunLedger(path).load(strict=True)

    def test_missing_file_is_empty(self, tmp_path):
        assert obs.RunLedger(tmp_path / "absent.jsonl").load() == []


class TestRotation:
    def test_explicit_rotate(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = obs.RunLedger(path)
        for i in range(10):
            ledger.append(obs.build_record(kind="t", run_id=f"r{i}", ts=float(i)))
        rotated = ledger.rotate(keep=3)
        assert rotated == 7
        assert [r["run_id"] for r in ledger.load()] == ["r7", "r8", "r9"]
        backup = obs.RunLedger(path.with_name(path.name + ".1")).load()
        assert [r["run_id"] for r in backup] == [f"r{i}" for i in range(7)]

    def test_auto_rotate_on_append(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = obs.RunLedger(path, max_records=4)
        for i in range(9):
            ledger.append(obs.build_record(kind="t", run_id=f"r{i}", ts=float(i)))
        assert len(ledger.load()) <= 4
        assert ledger.load()[-1]["run_id"] == "r8"

    def test_rotate_noop_when_small(self, tmp_path):
        ledger = obs.RunLedger(tmp_path / "runs.jsonl")
        ledger.append(obs.build_record(kind="t", run_id="r", ts=1.0))
        assert ledger.rotate(keep=5) == 0


class TestTracerIntegration:
    def test_record_from_tracer(self):
        tracer = obs.start(trace_id="tid-1")
        with obs.span("phase.a"):
            with obs.span("phase.b"):
                pass
        obs.count("widgets", 3)
        obs.annotate(period=12.5)
        obs.stop()
        record = obs.record_from_tracer(
            tracer, "test.run", metrics=dict(tracer.results)
        )
        assert record["run_id"] == "tid-1"
        assert "phase.a" in record["spans"]
        assert "phase.a" in record["self_times"]
        assert record["counters"]["widgets"] == 3
        assert record["metrics"]["period"] == 12.5

    def test_session_writes_ledger(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        with obs.session(ledger=path, ledger_kind="test.session"):
            with obs.span("work"):
                pass
            obs.annotate(answer=42)
        records = obs.RunLedger(path).load()
        assert len(records) == 1
        assert records[0]["kind"] == "test.session"
        assert "work" in records[0]["spans"]
        assert records[0]["metrics"]["answer"] == 42


class TestFingerprint:
    def test_format_invariant(self):
        from repro.netlist import read_blif

        a = read_blif(
            ".model m\n.inputs a clk\n.outputs y\n"
            ".latch a q re clk 0\n.names q y\n1 1\n.end\n"
        )
        b = read_blif(
            "# a comment\n.model m\n.inputs  a   clk\n.outputs y\n"
            ".latch a q re clk 0\n\n.names q y\n1 1\n.end\n"
        )
        assert obs.design_fingerprint(a) == obs.design_fingerprint(b)
        assert len(obs.design_fingerprint(a)) == 64


class TestCommittedBaseline:
    """Records written while the env block still carried ``kernels``
    stay valid, and records without it compare against them."""

    def test_old_records_validate_and_compare(self, tmp_path):
        baseline = tmp_path / "baseline.jsonl"
        fresh = tmp_path / "fresh.jsonl"
        with baseline.open("w") as old, fresh.open("w") as new:
            for i in range(3):
                current = obs.build_record(
                    kind="bench.obs",
                    run_id=f"run{i}",
                    config={"quick": True},
                    spans={"delta_sweep.real": 0.03, "min_period.real": 0.07},
                    ts=1.0 + i,
                )
                assert "kernels" not in current["env"]
                record = dict(current, env=dict(current["env"], kernels=True))
                ledger_mod.validate_record(record)
                old.write(json.dumps(record) + "\n")
                new.write(json.dumps(current) + "\n")
        loaded = ledger_mod.RunLedger(baseline).load(strict=True)
        assert all(r["env"]["kernels"] is True for r in loaded)
        report = sentinel.check(
            baseline, fresh, mode="relative", threshold=2.0
        )
        assert report.deltas
        assert not report.unmatched
        assert report.ok
