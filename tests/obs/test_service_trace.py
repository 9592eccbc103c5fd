"""Cross-process tracing: worker traces keyed by job id, span metrics.

``RetimeService(trace_dir=...)`` must propagate the trace configuration
into worker processes, have each worker write a per-job JSONL whose
trace id **is** the job's canonical key, ship span totals back in
``metrics["obs"]``, and bridge them into the
``repro_span_seconds{span=...}`` histogram.
"""

import json
from pathlib import Path

import pytest

from repro.obs import report
from repro.service import RetimeJob, RetimeService

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    trace_dir = tmp_path_factory.mktemp("traces")
    service = RetimeService(
        workers=1, job_timeout=120.0, max_retries=1, trace_dir=trace_dir
    )
    try:
        job = RetimeJob.from_file(DATA / "c2_small.blif")
        result = service.batch([job])[0]
        metrics_text = service.metrics.render()
    finally:
        service.close()
    assert result.ok, result.error
    return job, result, trace_dir, metrics_text


class TestCrossProcessPropagation:
    def test_worker_writes_per_job_jsonl(self, traced_run):
        job, _result, trace_dir, _ = traced_run
        path = trace_dir / f"{job.canonical_key[:16]}.jsonl"
        assert path.exists()
        report.validate_jsonl(path)

    def test_trace_id_is_canonical_job_key(self, traced_run):
        job, result, trace_dir, _ = traced_run
        path = trace_dir / f"{job.canonical_key[:16]}.jsonl"
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert events[0]["trace_id"] == job.canonical_key
        assert events[-1]["trace_id"] == job.canonical_key
        assert result.metrics["obs"]["trace_id"] == job.canonical_key

    def test_worker_trace_covers_the_engine(self, traced_run):
        job, result, trace_dir, _ = traced_run
        path = trace_dir / f"{job.canonical_key[:16]}.jsonl"
        totals = report.aggregate(report.load_events(path))["spans"]
        assert "job.execute" in totals
        assert "engine.minperiod" in totals
        # the snapshot shipped in metrics matches the file the worker wrote
        assert result.metrics["obs"]["spans"] == totals

    def test_span_totals_reproduce_job_timings(self, traced_run):
        _job, result, _trace_dir, _ = traced_run
        spans = result.metrics["obs"]["spans"]
        for phase, seconds in result.metrics["timings"].items():
            if phase == "total":
                continue
            assert spans[f"engine.{phase}"] == seconds, phase

    def test_span_seconds_histogram_bridged(self, traced_run):
        _job, _result, _trace_dir, metrics_text = traced_run
        assert 'repro_span_seconds_count{span="job.execute"} 1' in metrics_text
        assert 'span="engine.minperiod"' in metrics_text


class TestUntracedService:
    def test_no_trace_dir_means_no_obs_payload(self):
        service = RetimeService(workers=1, job_timeout=120.0, max_retries=1)
        try:
            job = RetimeJob.from_file(DATA / "c2_small.blif")
            result = service.batch([job])[0]
        finally:
            service.close()
        assert result.ok, result.error
        assert "obs" not in result.metrics
