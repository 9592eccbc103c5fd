"""Finished jobs: a bounded in-memory LRU over an on-disk JSON store.

Keys are the content-addressed job hashes from
:meth:`~repro.service.jobs.RetimeJob.canonical_key`, so a resubmitted
design (same canonical netlist, same options) returns its retimed
output instantly without touching the worker pool.

The memory tier is the service's one store of finished jobs: the
``memory_size`` most recently used :class:`~repro.service.jobs.JobRecord`
values, failed jobs included, answer resubmission, status, waits and
explanations.  The disk tier (one ``<key>.json`` per successful result
under ``cache_dir``) survives service restarts and is shared between
``mcretime batch`` runs and a ``mcretime serve`` instance pointed at
the same directory.  Writes go through a temp-file rename so a killed
process never leaves a torn entry behind; writers killed *between* the
temp write and the rename leave a stale ``.tmp`` file, which
construction and :meth:`clear` sweep.  Entries that fail to decode to
a job result are quarantined (renamed to ``<key>.json.corrupt``) on
the first miss so later lookups do not re-read the bad bytes.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from ..lru import LRU
from .jobs import JobRecord, JobResult


class ResultCache:
    """LRU memory tier of finished jobs over an optional disk tier of
    successful results."""

    def __init__(
        self, cache_dir: str | Path | None = None, memory_size: int = 128
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        #: job id -> finished record (see the module docstring)
        self.memory: LRU[str, JobRecord] = LRU(memory_size)
        self._lock = threading.Lock()
        #: disk entries quarantined after a decode failure (the service
        #: surfaces this as ``repro_cache_corrupt_total``)
        self.corrupt = 0
        if self.cache_dir is not None:
            self._sweep_stale_tmp()

    def _disk_path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{key}.json"

    def _sweep_stale_tmp(self) -> None:
        """Remove leftover per-writer temp files.

        A writer hard-killed between ``tmp.write_text`` and
        ``os.replace`` never reaches its ``finally`` cleanup, leaking
        ``.<key>.json.<pid>.<tid>.tmp`` forever.  Any temp file that
        predates this process is stale by construction (live writers
        hold the file only for the duration of one ``put``, and temp
        names are unique per pid/thread), so sweeping at startup and on
        ``clear()`` cannot race an in-flight writer of *this* process.
        """
        assert self.cache_dir is not None
        for tmp in self.cache_dir.glob(".*.json.*.tmp"):
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt disk entry aside so it is never re-read."""
        try:
            path.replace(path.with_name(path.name + ".corrupt"))
        except OSError:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                return
        with self._lock:
            self.corrupt += 1

    def get(self, key: str) -> JobResult | None:
        """The successful result stored under *key*, or ``None``.

        Memory first; a disk hit is promoted into the memory tier.  The
        result is shared with the memory tier: callers must not mutate
        it.
        """
        record = self.memory.get(key)
        if record is not None and record.result.ok:
            return record.result
        if self.cache_dir is None:
            return None
        path = self._disk_path(key)
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            data = json.loads(text)
            if not isinstance(data, dict):
                raise ValueError("cache entry is not an object")
            result = JobResult.from_dict(data)
        except (ValueError, TypeError):
            # decodable never again: quarantine so the next lookup goes
            # straight to a miss instead of re-parsing the same bad bytes
            self._quarantine(path)
            return None
        self.memory.put(key, JobRecord(key, result=result))
        return result

    def put(self, record: JobRecord) -> None:
        """Hold a finished job in the memory tier, and write a successful
        one to disk (failures stay retryable: a crash or timeout may be
        transient)."""
        self.memory.put(record.job_id, record)
        result = record.result
        if self.cache_dir is None or not result.ok:
            return
        path = self._disk_path(record.job_id)
        if path.exists():
            # content-addressed: an existing entry is already this
            # result, so concurrent re-puts skip the disk write
            return
        data = result.to_dict()
        # cached-ness is a property of the lookup, not the stored value
        data["cached"] = False
        # per-writer temp name: concurrent writers of the same key
        # must never truncate each other's in-progress temp file
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        try:
            tmp.write_text(json.dumps(data))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        """Number of distinct cached results (both tiers)."""
        keys = {r.job_id for r in self.memory.values() if r.result.ok}
        if self.cache_dir is not None:
            keys.update(p.stem for p in self.cache_dir.glob("*.json"))
        return len(keys)

    def clear(self) -> None:
        self.memory.clear()
        if self.cache_dir is not None:
            for path in self.cache_dir.glob("*.json"):
                path.unlink(missing_ok=True)
            for path in self.cache_dir.glob("*.json.corrupt"):
                path.unlink(missing_ok=True)
            self._sweep_stale_tmp()
