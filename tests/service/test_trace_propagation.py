"""End-to-end distributed tracing: context propagation, stitching, SLOs.

These run real worker processes under both ``fork`` and ``spawn`` start
methods (the trace context rides the task tuple, so it must survive
pickling into a fresh interpreter), plus the two paths that bend the
normal request flow: work stealing and admission shedding.
"""

import json
import multiprocessing as mp
import os
import time
from pathlib import Path

import pytest

from repro import obs
from repro.obs import stitch
from repro.service import (
    RetimeJob,
    RetimeService,
    ServiceOverloadedError,
)
from repro.service.metrics import MetricsRegistry
from repro.tools.cli import main as cli_main

DATA = Path(__file__).resolve().parent.parent / "data"

START_METHODS = [
    m for m in ("fork", "spawn") if m in mp.get_all_start_methods()
]


def _job(name="c2_small", **options):
    return RetimeJob.from_file(DATA / f"{name}.blif", **options)


def _first_meta(path):
    with path.open() as fh:
        return json.loads(fh.readline())


class TestPropagation:
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_context_survives_both_start_methods(self, tmp_path, start_method):
        """Front-end stamp reaches the worker; stitcher reassembles one
        timeline with >= 90% of the request covered by child spans."""
        trace_dir = tmp_path / "traces"
        svc = RetimeService(
            workers=1,
            job_timeout=120.0,
            max_retries=1,
            retry_backoff=0.05,
            trace_dir=trace_dir,
            start_method=start_method,
        )
        try:
            job_id = svc.submit(_job())
            result = svc.wait(job_id, timeout=120.0)
            assert result.ok, result.error
        finally:
            svc.close()

        job16 = job_id[:16]
        worker_file = trace_dir / f"{job16}.jsonl"
        request_file = trace_dir / f"{job16}.req.jsonl"
        assert worker_file.exists(), "worker trace missing"
        assert request_file.exists(), "front-end request trace missing"

        # the worker stamped its lineage: parent span 4 (request.dispatch)
        # in the front-end process
        worker_meta = _first_meta(worker_file)
        assert worker_meta["parent_span"] == 4
        assert worker_meta["parent_pid"] == os.getpid()
        assert worker_meta["pid"] != os.getpid()

        stitched = stitch.stitch_dir(trace_dir, job=job16)
        assert list(stitched) == [job16]
        events = stitched[job16]
        pids = {e["pid"] for e in events if e.get("type") == "span"}
        assert len(pids) == 2

        (timeline,) = stitch.request_timelines(events)
        assert timeline["coverage"] >= 0.9
        # the worker's solve span was adopted under request.dispatch
        names = {
            e["name"]
            for e in events
            if e.get("type") == "span" and e.get("stitched_parent")
        }
        assert "job.execute" in names

        out = tmp_path / "stitched.jsonl"
        stitch.write_jsonl(events, out)
        assert obs.jsonl_errors(out) == []

    def test_trace_events_query_matches_files(self, tmp_path):
        trace_dir = tmp_path / "traces"
        svc = RetimeService(
            workers=1, job_timeout=120.0, max_retries=1,
            retry_backoff=0.05, trace_dir=trace_dir,
        )
        try:
            job_id = svc.submit(_job("c3_small"))
            assert svc.wait(job_id, timeout=120.0).ok
            events = svc.trace_events(job_id[:16])
        finally:
            svc.close()
        assert events is not None
        assert events[0].get("stitched") is True
        assert svc.trace_events("no-such-job") is None


class TestStealPathTraced:
    def test_stolen_dispatch_still_stitches(self, tmp_path):
        """A target-period sweep of one design pins every job to one
        home shard; with two workers the surplus is stolen — and the
        stolen requests must trace exactly like affine ones."""
        trace_dir = tmp_path / "traces"
        svc = RetimeService(
            workers=2, job_timeout=120.0, max_retries=1,
            retry_backoff=0.05, trace_dir=trace_dir,
        )
        try:
            jobs = [
                _job("c2_small_mapped", target_period=p)
                for p in (20.0, 21.0, 22.0, 23.0)
            ]
            results = svc.batch(jobs)
            assert all(r.ok for r in results)
            stolen = sum(s["stolen"] for s in svc.pool.stats()["shards"])
        finally:
            svc.close()
        assert stolen >= 1

        stitched = stitch.stitch_dir(trace_dir)
        assert len(stitched) == len(jobs)
        stolen_flags = []
        for events in stitched.values():
            (timeline,) = stitch.request_timelines(events)
            assert timeline["coverage"] >= 0.9
            queue = next(
                e for e in events
                if e.get("type") == "span" and e["name"] == "request.queue"
            )
            stolen_flags.append(queue.get("args", {}).get("stolen"))
        # the queue span records which dispatches broke affinity
        assert stolen_flags.count(True) == stolen


class TestShedPathTraced:
    def test_shed_request_leaves_no_worker_trace(self, tmp_path):
        trace_dir = tmp_path / "traces"
        svc = RetimeService(
            workers=1, job_timeout=5.0, max_retries=0,
            max_pending=0, trace_dir=trace_dir,
        )
        try:
            with pytest.raises(ServiceOverloadedError) as info:
                svc.submit(_job())
            assert info.value.status == 429
            status = svc.slo_status()
            metrics_text = svc.metrics.render()
        finally:
            svc.close()
        # a 429 never reached a worker: no trace files at all
        assert list(trace_dir.glob("*.jsonl")) == []
        # but it burned the shed-rate SLO ...
        assert status["observed"]["shed_rate"] == 1.0
        shed = next(
            s for s in status["slos"] if s["name"] == "shed_rate"
        )
        assert not shed["ok"]
        # ... and left an exemplar pointing at the rejected request
        line = next(
            l for l in metrics_text.splitlines()
            if l.startswith("repro_jobs_shed_total")
        )
        assert '# {run="' in line


class TestExemplars:
    def test_counter_exemplar_renders_openmetrics_style(self):
        registry = MetricsRegistry()
        counter = registry.counter("demo_total", "demo")
        counter.inc(exemplar={"run": "abc123"})
        line = next(
            l for l in registry.render().splitlines()
            if l.startswith("demo_total")
        )
        assert line == 'demo_total 1 # {run="abc123"} 1'
        assert counter.exemplar() == ({"run": "abc123"}, 1.0)

    def test_queue_wait_histogram_carries_request_exemplar(self, tmp_path):
        svc = RetimeService(
            workers=1, job_timeout=120.0, max_retries=1,
            retry_backoff=0.05, trace_dir=tmp_path / "traces",
        )
        try:
            job_id = svc.submit(_job())
            assert svc.wait(job_id, timeout=120.0).ok
            text = svc.metrics.render()
        finally:
            svc.close()
        bucket_lines = [
            l for l in text.splitlines()
            if l.startswith("repro_queue_wait_seconds_bucket")
        ]
        assert any(f'# {{run="{job_id[:16]}"}}' in l for l in bucket_lines)


class TestLiveSLO:
    def test_live_status_and_injection_flip(self, tmp_path):
        """Acceptance: the live service reports green, and an injected
        latency degradation flips the shared check to failing."""
        svc = RetimeService(
            workers=1, job_timeout=120.0, max_retries=1,
            retry_backoff=0.05,
            slo={"window_seconds": 300, "latency_p95_seconds": 120.0},
        )
        try:
            job_id = svc.submit(_job())
            assert svc.wait(job_id, timeout=120.0).ok
            status = svc.slo_status()
        finally:
            svc.close()
        assert status["observed"]["completed"] >= 1
        ok, _ = obs.evaluate(status)
        assert ok
        ok, messages = obs.evaluate(status, inject_latency=1e6)
        assert not ok
        assert any("FAIL latency_p95_seconds" in m for m in messages)


class TestServedRunCommands:
    """``mcretime report`` and ``mcretime slo check`` over the trace
    directory and run ledger of a one-worker traced service."""

    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("served")
        svc = RetimeService(
            workers=1,
            job_timeout=120.0,
            trace_dir=out / "traces",
            ledger=out / "ledger.jsonl",
        )
        try:
            ids = [svc.submit(_job(name)) for name in ("c2_small", "c3_small")]
            assert all(svc.wait(i, timeout=120.0).ok for i in ids)
        finally:
            svc.close()
        (out / "slo.json").write_text(
            json.dumps(
                {
                    "window_seconds": 300,
                    "latency_p95_seconds": 30.0,
                    "error_rate": 0.05,
                    "shed_rate": 0.2,
                }
            )
        )
        return out

    def test_stitch_critical_path_and_validate(self, served, capsys):
        traces = str(served / "traces")
        merged = served / "stitched.json"
        stitch = ["report", traces, "--stitch", "--out", str(merged)]
        assert cli_main(stitch) == 0
        out = capsys.readouterr().out
        assert "stitched 2 request(s)" in out
        assert f"wrote merged Chrome trace: {merged}" in out
        assert cli_main(["report", traces, "--critical-path"]) == 0
        out = capsys.readouterr().out
        assert "critical path over 2 request(s)" in out
        assert "SUM" in out
        assert cli_main(["report", str(merged), "--validate"]) == 0
        assert capsys.readouterr().out == f"{merged}: OK\n"

    def test_slo_check_gates_the_ledger(self, served, capsys):
        check = [
            "slo", "check",
            "--ledger", str(served / "ledger.jsonl"),
            "--config", str(served / "slo.json"),
        ]
        assert cli_main(check) == 0
        assert "all objectives within budget" in capsys.readouterr().out
        assert cli_main([*check, "--inject-latency", "1000"]) == 1
        assert "SLO check FAILED" in capsys.readouterr().err
