"""Integration tests: pool fan-out, crash/timeout recovery, caching.

These run real worker processes.  Timeouts and backoffs are tuned small
so the failure-path tests finish in a couple of seconds.
"""

import json
from pathlib import Path

import pytest

from repro.mcretime import mc_retime
from repro.netlist import read_blif, write_blif
from repro.service import JobResult, RetimeJob, RetimeService
from repro.timing import UNIT_DELAY

DATA = Path(__file__).resolve().parent.parent / "data"
DESIGNS = ["c2_small", "c3_small"]


@pytest.fixture(scope="module")
def service():
    svc = RetimeService(workers=2, job_timeout=120.0, max_retries=1,
                        retry_backoff=0.05)
    yield svc
    svc.close()


class TestBatchFanOut:
    def test_batch_matches_serial_byte_for_byte(self, service):
        """Fanned-out jobs produce exactly what serial mc_retime does."""
        jobs = [
            RetimeJob.from_file(DATA / f"{name}.blif") for name in DESIGNS
        ]
        results = service.batch(jobs)
        for name, result in zip(DESIGNS, results):
            assert result.ok, result.error
            serial = mc_retime(
                read_blif((DATA / f"{name}.blif").read_text(), name_hint=name),
                delay_model=UNIT_DELAY,
            )
            assert result.output == write_blif(serial.circuit)

    def test_results_preserve_submission_order(self, service):
        jobs = [
            RetimeJob.from_file(DATA / f"{name}_mapped.blif")
            for name in DESIGNS
        ]
        results = service.batch(jobs)
        assert [r.job_id for r in results] == [j.canonical_key for j in jobs]


class TestCrashIsolation:
    def test_crash_retries_then_fails_structured(self, service):
        crash = RetimeJob.from_file(DATA / "c2_small.blif", flow="__crash__")
        result = service.batch([crash])[0]
        assert not result.ok
        assert result.error.type == "worker_crash"
        assert "exit code" in result.error.message
        # 1 initial attempt + max_retries=1 retry
        assert result.attempts == 2

    def test_pool_survives_crashes(self, service):
        """A crashed worker is respawned; later jobs still complete."""
        crash = RetimeJob.from_file(DATA / "c3_small.blif", flow="__crash__")
        ok_job = RetimeJob.from_file(
            DATA / "c3_small_mapped.blif", delay_model="xc4000e"
        )
        crash_result, ok_result = service.batch([crash, ok_job])
        assert not crash_result.ok
        assert ok_result.ok

    def test_deterministic_error_fails_without_retry(self, service):
        # parses fine but violates a structural invariant in the worker
        bad = RetimeJob(
            netlist=".model bad\n.inputs a\n.outputs y\n"
            ".names a miss y\n11 1\n.end\n"
        )
        result = service.batch([bad])[0]
        assert not result.ok
        assert result.error.type == "NetlistError"
        assert result.attempts == 1  # no retry for deterministic errors


class TestTimeouts:
    def test_hang_times_out_then_fails(self):
        svc = RetimeService(
            workers=1, job_timeout=0.4, max_retries=1, retry_backoff=0.05
        )
        try:
            hang = RetimeJob.from_file(DATA / "c2_small.blif", flow="__hang__")
            result = svc.batch([hang], timeout=30)[0]
            assert not result.ok
            assert result.error.type == "timeout"
            assert result.attempts == 2
            assert svc.metrics.counter("repro_jobs_timeout_total").total() == 2
        finally:
            svc.close()


class TestCaching:
    def test_identical_resubmission_does_zero_work(self, tmp_path):
        svc = RetimeService(workers=2, cache_dir=tmp_path)
        try:
            job = RetimeJob.from_file(DATA / "c2_small_mapped.blif")
            first = svc.batch([job])[0]
            assert first.ok and not first.cached
            completed = svc.metrics.counter("repro_jobs_completed_total")
            assert completed.total() == 1

            second = svc.batch([job])[0]
            assert second.cached
            assert second.output == first.output
            # no additional execution happened anywhere in the pool
            assert completed.total() == 1
            assert svc.metrics.counter("repro_cache_hits_total").total() == 1
        finally:
            svc.close()

    def test_disk_cache_survives_service_restart(self, tmp_path):
        job = RetimeJob.from_file(DATA / "c3_small_mapped.blif")
        svc1 = RetimeService(workers=1, cache_dir=tmp_path)
        try:
            first = svc1.batch([job])[0]
        finally:
            svc1.close()

        svc2 = RetimeService(workers=1, cache_dir=tmp_path)
        try:
            hit = svc2.batch([job])[0]
            assert hit.cached
            assert hit.output == first.output
            assert (
                svc2.metrics.counter("repro_jobs_completed_total").total() == 0
            )
        finally:
            svc2.close()

    def test_non_result_disk_entry_does_not_block_its_job(self, tmp_path):
        job = RetimeJob.from_file(DATA / "c2_small.blif")
        entry = tmp_path / f"{job.canonical_key}.json"
        entry.write_text(json.dumps({"foo": 1}))
        with RetimeService(workers=1, cache_dir=tmp_path) as svc:
            result = svc.wait(svc.submit(job), timeout=120)
            assert result.ok and not result.cached
            assert svc.cache.corrupt == 1
        assert JobResult.from_dict(json.loads(entry.read_text())).ok

    def test_warm_rerun_hit_rate_above_90_percent(self, tmp_path):
        """The acceptance criterion: warm rerun >90% cache hits."""
        jobs = [
            RetimeJob.from_file(DATA / f"{name}{suffix}.blif")
            for name in DESIGNS
            for suffix in ("", "_mapped")
        ]
        svc1 = RetimeService(workers=2, cache_dir=tmp_path)
        try:
            assert all(r.ok for r in svc1.batch(jobs))
        finally:
            svc1.close()
        svc2 = RetimeService(workers=2, cache_dir=tmp_path)
        try:
            rerun = svc2.batch(jobs)
            assert all(r.cached for r in rerun)
            assert svc2.cache_hit_rate() > 0.9
        finally:
            svc2.close()


class TestStatusTracking:
    def test_status_and_counts(self, service):
        job = RetimeJob.from_file(DATA / "c2_small_mapped.blif",
                                  objective="minperiod")
        job_id = service.submit(job)
        service.wait(job_id, timeout=60)
        record = service.status(job_id)
        assert record["state"] == "done"
        assert record["result"]["output"].startswith(".model")
        assert service.status("unknown-id") is None
        counts = service.job_counts()
        assert counts["done"] >= 1

    def test_stage_latency_histograms_populated(self, service):
        hist = service.metrics.histogram("repro_stage_seconds")
        # the module-scoped service has retimed several designs by now
        assert hist.count(stage="minperiod") > 0
        assert hist.percentile(95, stage="minperiod") >= 0.0


class TestBoundedState:
    def test_keeps_cache_memory_finished_jobs_and_no_pool_entry(self):
        """Five finished jobs under ``cache_memory=2``: the front-end
        keeps the newest two, the pool keeps none, and the oldest
        re-executes when resubmitted."""
        svc = RetimeService(workers=1, cache_memory=2)
        try:
            jobs = [
                RetimeJob.from_file(DATA / f"{name}.blif", explain=True)
                for name in DESIGNS + [f"{n}_mapped" for n in DESIGNS]
            ]
            jobs.append(
                RetimeJob.from_file(
                    DATA / "c2_small.blif", explain=True, objective="minperiod"
                )
            )
            # one at a time, so the jobs finish in submission order
            results = [svc.batch([job], timeout=120)[0] for job in jobs]
            assert all(r.ok for r in results)
            ids = [job.canonical_key for job in jobs]
            counts = svc.job_counts()
            assert counts["done"] + counts["failed"] == 2
            assert sum(counts.values()) == 2
            assert svc.pool._entries == {}
            for old in ids[:3]:
                assert svc.status(old) is None
                assert svc.explanation(old) is None
                with pytest.raises(KeyError):
                    svc.wait(old)
            for new, result in zip(ids[3:], results[3:]):
                assert svc.status(new)["state"] == "done"
                assert svc.wait(new, timeout=5).output == result.output
                assert svc.explanation(new)["summary"]["valid"] is True

            misses = svc.metrics.counter("repro_cache_misses_total")
            completed = svc.metrics.counter("repro_jobs_completed_total")
            before = (misses.total(), completed.total())
            again = svc.batch([jobs[0]], timeout=120)[0]
            assert (misses.total(), completed.total()) == (
                before[0] + 1,
                before[1] + 1,
            )
            assert not again.cached
            assert again.output == results[0].output
        finally:
            svc.close()

    def test_in_flight_job_outlives_evictions(self, tmp_path):
        """Finished jobs churn a one-entry store while a job is still
        running; the running job keeps answering status and wait."""
        jobs = [RetimeJob.from_file(DATA / f"{name}.blif") for name in DESIGNS]
        with RetimeService(workers=1, cache_dir=tmp_path) as warm:
            assert all(r.ok for r in warm.batch(jobs, timeout=120))
        svc = RetimeService(
            workers=1, cache_dir=tmp_path, cache_memory=1,
            job_timeout=1.0, max_retries=0,
        )
        try:
            hang = svc.submit(
                RetimeJob.from_file(DATA / "c2_small.blif", flow="__hang__")
            )
            # two disk hits finish at once; the second evicts the first
            assert all(r.cached for r in svc.batch(jobs, timeout=30))
            assert svc.status(jobs[0].canonical_key) is None
            assert svc.status(hang)["state"] in ("queued", "running")
            assert svc.wait(hang, timeout=30).error.type == "timeout"
            assert svc.status(hang)["state"] == "failed"
        finally:
            svc.close()
