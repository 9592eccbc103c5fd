"""The run ledger: one schema-validated JSONL record per traced run.

A ledgered CLI run (``--ledger`` / ``REPRO_LEDGER``) or service job
(``RetimeService(ledger=...)``) appends one record to a ledger file,
so performance accumulates a *trajectory* of runs.  A record carries:

* ``fingerprint`` — the canonical design fingerprint (the same
  canonicalise-and-hash the service job key uses: parse the netlist,
  re-emit canonical BLIF, SHA-256), so runs of the same design
  correlate across whitespace/format variants;
* ``config`` — the execution options that shaped the run;
* ``spans`` / ``self_times`` / ``span_counts`` / ``counters`` — the
  run's :func:`~repro.obs.report.aggregate` maps, as in
  ``Tracer.snapshot()`` (:func:`record_from_snapshot`);
* ``metrics`` — result numbers (period, register count, LUT area, …);
* ``status`` — ``done``, ``failed`` (the run raised) or, service
  only, ``shed``;
* ``env`` — python version, platform, git sha.

The file format is append-only JSONL: crash-safe (valid up to the last
complete line) and diff-able.  :class:`RunLedger` is the loader with
**corrupted-line tolerance** (a torn tail line or hand-edited garbage
is skipped and counted, not fatal).  ``mcretime obs diff/check``
(:mod:`repro.obs.sentinel`) and ``mcretime slo check --ledger``
(:mod:`repro.obs.slo`) consume these records.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

__all__ = [
    "RunLedger",
    "SCHEMA",
    "build_record",
    "design_fingerprint",
    "environment",
    "record_errors",
    "record_from_snapshot",
    "validate_record",
]

#: the record schema identifier; bump on incompatible changes
SCHEMA = "repro.run/1"

#: required top-level fields and their types
_REQUIRED: dict[str, type | tuple[type, ...]] = {
    "schema": str,
    "ts": (int, float),
    "run_id": str,
    "kind": str,
}

#: optional dict-valued fields whose values must be numbers: the
#: span record's aggregate maps a record keeps
_NUMERIC_MAPS = ("spans", "self_times", "span_counts", "counters")

_git_sha_cache: str | None = None


def _git_sha() -> str:
    """Best-effort short git sha of the working tree (cached)."""
    global _git_sha_cache
    if _git_sha_cache is None:
        sha = os.environ.get("REPRO_GIT_SHA")
        if not sha:
            try:
                sha = subprocess.run(
                    ["git", "rev-parse", "--short", "HEAD"],
                    capture_output=True,
                    text=True,
                    timeout=5,
                    check=False,
                ).stdout.strip()
            except (OSError, subprocess.SubprocessError):
                sha = ""
        _git_sha_cache = sha or "unknown"
    return _git_sha_cache


def environment() -> dict[str, str]:
    """The environment block every record carries."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "git_sha": _git_sha(),
    }


def design_fingerprint(circuit) -> str:
    """Canonical content fingerprint of a circuit (SHA-256 hex).

    The same canonicalisation as :attr:`RetimeJob.canonical_key`'s
    netlist half: re-emit as canonical BLIF and hash, so the
    fingerprint is invariant under whitespace, comments, and source
    format.  (Job keys additionally hash the execution options; a
    ledger record keeps those separate under ``config``.)
    """
    from ..netlist import write_blif

    return hashlib.sha256(write_blif(circuit).encode()).hexdigest()


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


def build_record(
    *,
    kind: str,
    run_id: str,
    fingerprint: str | None = None,
    config: dict[str, Any] | None = None,
    spans: dict[str, float] | None = None,
    self_times: dict[str, float] | None = None,
    span_counts: dict[str, int] | None = None,
    counters: dict[str, float] | None = None,
    metrics: dict[str, Any] | None = None,
    status: str | None = None,
    ts: float | None = None,
) -> dict[str, Any]:
    """Assemble (and validate) one ledger record."""
    record: dict[str, Any] = {
        "schema": SCHEMA,
        "ts": time.time() if ts is None else ts,
        "run_id": run_id,
        "kind": kind,
        "fingerprint": fingerprint,
        "config": dict(config or {}),
        "spans": dict(spans or {}),
        "self_times": dict(self_times or {}),
        "span_counts": dict(span_counts or {}),
        "counters": dict(counters or {}),
        "metrics": dict(metrics or {}),
        "env": environment(),
    }
    if status is not None:
        record["status"] = status
    validate_record(record)
    return record


def record_from_snapshot(
    snapshot: dict[str, Any],
    kind: str,
    *,
    run_id: str | None = None,
    fingerprint: str | None = None,
    config: dict[str, Any] | None = None,
    metrics: dict[str, Any] | None = None,
    status: str | None = None,
) -> dict[str, Any]:
    """A ledger record over one run's aggregate.

    *snapshot* is ``Tracer.snapshot()`` (a service job ships it back as
    ``metrics["obs"]``; an untraced or crashed job has none, so ``{}``),
    and *run_id* defaults to its trace id.
    """
    return build_record(
        kind=kind,
        run_id=snapshot.get("trace_id", "") if run_id is None else run_id,
        fingerprint=fingerprint,
        config=config,
        metrics=metrics,
        status=status,
        **{field: snapshot.get(field) for field in _NUMERIC_MAPS},
    )


def record_errors(record: Any) -> list[str]:
    """Every schema violation in *record* (empty list = valid)."""
    if not isinstance(record, dict):
        return [f"record is not an object (got {type(record).__name__})"]
    errors: list[str] = []
    for field, types in _REQUIRED.items():
        if field not in record:
            errors.append(f"missing required field {field!r}")
        elif not isinstance(record[field], types):
            errors.append(
                f"field {field!r} must be {types}, "
                f"got {type(record[field]).__name__}"
            )
    if record.get("schema") not in (None, SCHEMA):
        errors.append(
            f"unknown schema {record['schema']!r} (expected {SCHEMA!r})"
        )
    for field in ("fingerprint", "status"):
        value = record.get(field)
        if value is not None and not isinstance(value, str):
            errors.append(f"field {field!r} must be a string or null")
    for field in ("config", "metrics", "env"):
        if field in record and not isinstance(record[field], dict):
            errors.append(f"field {field!r} must be an object")
    for field in _NUMERIC_MAPS:
        value = record.get(field)
        if value is None:
            continue
        if not isinstance(value, dict):
            errors.append(f"field {field!r} must be an object")
            continue
        for key, num in value.items():
            if not isinstance(key, str) or isinstance(
                num, bool
            ) or not isinstance(num, (int, float)):
                errors.append(
                    f"{field}[{key!r}] must map a string to a number"
                )
                break
    return errors


def validate_record(record: Any) -> dict[str, Any]:
    """Raise ``ValueError`` on the first invalid aspect; returns *record*."""
    errors = record_errors(record)
    if errors:
        raise ValueError("invalid ledger record: " + "; ".join(errors))
    return record


# ---------------------------------------------------------------------------
# the ledger file
# ---------------------------------------------------------------------------


class RunLedger:
    """Append to and load a JSONL run ledger."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        #: malformed lines skipped by the last :meth:`load`
        self.skipped = 0

    def append(self, record: dict[str, Any]) -> dict[str, Any]:
        """Validate and append one record."""
        validate_record(record)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        return record

    def load(self) -> list[dict[str, Any]]:
        """Every valid record in the ledger, oldest first.

        Malformed lines (torn tail writes, hand-edited garbage) are
        skipped and counted in :attr:`skipped`.
        """
        self.skipped = 0
        records: list[dict[str, Any]] = []
        if not self.path.exists():
            return records
        for line in self.path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                self.skipped += 1
                continue
            if record_errors(record):
                self.skipped += 1
                continue
            records.append(record)
        return records

    def tail(self, n: int = 20) -> list[dict[str, Any]]:
        """The newest *n* valid records, oldest first."""
        records = self.load()
        return records[-n:] if n > 0 else []
