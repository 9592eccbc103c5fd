"""Unit tests for the two-tier result cache."""

import json
import os
import threading

import pytest

from repro.service import JobFailure, JobRecord, JobResult, ResultCache


def _record(job_id="k", output="netlist"):
    return JobRecord(
        job_id, result=JobResult(job_id=job_id, status="done", output=output)
    )


class TestMemoryTier:
    def test_put_get(self):
        cache = ResultCache()
        cache.put(_record())
        hit = cache.get("k")
        assert hit is not None and hit.output == "netlist"

    def test_miss(self):
        cache = ResultCache()
        assert cache.get("absent") is None

    def test_lru_eviction(self):
        cache = ResultCache(memory_size=2)
        for key in ("a", "b", "c"):
            cache.put(_record(key))
        assert cache.get("a") is None  # evicted, no disk tier
        assert cache.get("c") is not None

    def test_lru_touch_on_get(self):
        cache = ResultCache(memory_size=2)
        cache.put(_record("a"))
        cache.put(_record("b"))
        cache.get("a")  # refresh a; c should evict b instead
        cache.put(_record("c"))
        assert cache.get("a") is not None
        assert cache.get("b") is None

    def test_failures_not_cached(self):
        cache = ResultCache()
        cache.put(
            JobRecord(
                "k",
                result=JobResult(
                    job_id="k",
                    status="failed",
                    error=JobFailure(type="timeout", message="slow"),
                ),
            )
        )
        assert cache.get("k") is None


class TestDiskTier:
    def test_survives_new_instance(self, tmp_path):
        ResultCache(tmp_path).put(_record())
        fresh = ResultCache(tmp_path)
        hit = fresh.get("k")
        assert hit is not None and hit.output == "netlist"

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        ResultCache(tmp_path).put(_record())
        fresh = ResultCache(tmp_path)
        assert fresh.get("k") is not None
        (tmp_path / "k.json").unlink()
        hit = fresh.get("k")
        assert hit is not None and hit.output == "netlist"

    def test_torn_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "bad.json").write_text("{truncated")
        assert cache.get("bad") is None

    def test_corrupt_entry_quarantined_after_first_miss(self, tmp_path):
        """A corrupt disk entry is renamed aside on the first decode
        failure, so later lookups never re-read the bad bytes."""
        cache = ResultCache(tmp_path)
        (tmp_path / "bad.json").write_text("{truncated")
        assert cache.get("bad") is None
        assert cache.corrupt == 1
        assert not (tmp_path / "bad.json").exists()
        assert (tmp_path / "bad.json.corrupt").exists()
        # second miss goes straight through: nothing left to quarantine
        assert cache.get("bad") is None
        assert cache.corrupt == 1
        # a fresh result under the same key is cacheable again
        cache.put(_record("bad"))
        fresh = ResultCache(tmp_path)
        assert fresh.get("bad") is not None

    def test_non_object_entry_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "odd.json").write_text("[1, 2, 3]")
        assert cache.get("odd") is None
        assert cache.corrupt == 1
        assert (tmp_path / "odd.json.corrupt").exists()

    @pytest.mark.parametrize(
        "entry",
        [{"foo": 1}, {"job_id": "j", "ok": True, "error": "boom"}],
        ids=["unknown-field", "error-not-an-object"],
    )
    def test_non_result_object_quarantined(self, tmp_path, entry):
        """A JSON object that does not decode to a job result is a
        corrupt entry like any other, not an exception."""
        cache = ResultCache(tmp_path)
        (tmp_path / "odd.json").write_text(json.dumps(entry))
        assert cache.get("odd") is None
        assert cache.corrupt == 1
        assert not (tmp_path / "odd.json").exists()
        assert (tmp_path / "odd.json.corrupt").exists()

    def test_missing_entry_is_not_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("absent") is None
        assert cache.corrupt == 0

    def test_stale_tmp_swept_on_construction(self, tmp_path):
        """A writer hard-killed between temp write and rename leaks a
        ``.tmp`` file; construction sweeps it."""
        stale = tmp_path / ".k.json.12345.67890.tmp"
        stale.write_text('{"partial": true')
        cache = ResultCache(tmp_path)
        assert not stale.exists()
        # sweeping never touches real entries
        cache.put(_record())
        assert ResultCache(tmp_path).get("k") is not None

    def test_stale_tmp_swept_on_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_record())
        stale = tmp_path / ".other.json.999.888.tmp"
        stale.write_text("junk")
        (tmp_path / "dead.json.corrupt").write_text("junk")
        cache.clear()
        assert not stale.exists()
        assert list(tmp_path.glob("*")) == []

    def test_contains_len_clear(self, tmp_path):
        cache = ResultCache(tmp_path, memory_size=1)
        cache.put(_record("a"))
        cache.put(_record("b"))  # a evicted from memory only
        assert "a" in cache and "b" in cache
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0 and "a" not in cache


class TestConcurrentAccess:
    def test_reput_skips_disk_write(self, tmp_path, monkeypatch):
        """Content-addressed entries are written to disk exactly once."""
        writes = []
        real_replace = os.replace
        monkeypatch.setattr(
            "repro.service.cache.os.replace",
            lambda src, dst: (writes.append(dst), real_replace(src, dst)),
        )
        cache = ResultCache(tmp_path)
        cache.put(_record())
        cache.put(_record())
        cache.put(_record())
        assert len(writes) == 1

    def test_parallel_writers_and_readers_no_corruption(self, tmp_path):
        """8 threads hammering overlapping keys: every entry stays whole."""
        cache = ResultCache(tmp_path, memory_size=4)
        keys = [f"key-{i}" for i in range(16)]
        errors = []

        def hammer(seed):
            try:
                for round_no in range(30):
                    key = keys[(seed + round_no) % len(keys)]
                    cache.put(_record(key, output=f"net-{key}"))
                    hit = cache.get(key)
                    if hit is not None and hit.output != f"net-{key}":
                        errors.append((key, hit.output))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # one well-formed disk entry per key, no leftover temp files
        assert sorted(p.stem for p in tmp_path.glob("*.json")) == sorted(keys)
        assert list(tmp_path.glob("*.tmp")) == []
        assert list(tmp_path.glob(".*.tmp")) == []
        for path in tmp_path.glob("*.json"):
            data = json.loads(path.read_text())
            assert data["output"] == f"net-{path.stem}"
        fresh = ResultCache(tmp_path)
        for key in keys:
            hit = fresh.get(key)
            assert hit is not None and hit.output == f"net-{key}"
