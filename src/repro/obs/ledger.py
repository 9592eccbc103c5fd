"""The run ledger: one schema-validated JSONL record per traced run.

Every BENCH harness, traced CLI run, and service job appends one
record to a ledger file, so performance accumulates a *trajectory*
instead of one-shot ``BENCH_*.json`` snapshots.  A record carries:

* ``fingerprint`` — the canonical design fingerprint (the same
  canonicalise-and-hash the service job key uses: parse the netlist,
  re-emit canonical BLIF, SHA-256), so runs of the same design
  correlate across whitespace/format variants;
* ``config`` — the execution options that shaped the run;
* ``spans`` / ``self_times`` / ``span_counts`` — per-span wall-clock
  totals, self-times, and invocation counts (from
  :meth:`Tracer.span_totals` / :meth:`Tracer.span_self_totals` /
  :meth:`Tracer.span_counts`);
* ``counters`` — the algorithm counters (FEAS passes, BF rounds, …);
* ``metrics`` — result numbers (period, register count, LUT area, …);
* ``env`` — python version, platform, git sha.

The file format is append-only JSONL: crash-safe (valid up to the last
complete line) and diff-able.  :class:`RunLedger` is the loader with
**corrupted-line tolerance** (a torn tail line or hand-edited garbage
is skipped and counted, not fatal) and a rotation API so long-running
services bound their ledger size.  ``mcretime obs diff/check``
(:mod:`repro.obs.sentinel`) consume these records.
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
from typing import Any, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .tracer import Tracer

__all__ = [
    "RunLedger",
    "SCHEMA",
    "build_record",
    "design_fingerprint",
    "environment",
    "record_errors",
    "record_from_tracer",
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

#: optional dict-valued fields whose values must be numbers
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
    validate_record(record)
    return record


def record_from_tracer(
    tracer: "Tracer",
    kind: str,
    *,
    fingerprint: str | None = None,
    config: dict[str, Any] | None = None,
    metrics: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """A ledger record for one finished traced run."""
    return build_record(
        kind=kind,
        run_id=tracer.trace_id,
        fingerprint=fingerprint,
        config=config,
        spans=tracer.span_totals(),
        self_times=tracer.span_self_totals(),
        span_counts=tracer.span_counts(),
        counters=dict(tracer.counters),
        metrics=metrics,
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
    fp = record.get("fingerprint")
    if fp is not None and not isinstance(fp, str):
        errors.append("field 'fingerprint' must be a string or null")
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
    """Append/load/rotate a JSONL run ledger.

    ``max_records`` (optional) auto-rotates on append once the file
    grows past it, keeping the newest ``max_records`` lines in place
    and moving the overflow to ``<path>.1`` (one generation).
    """

    def __init__(
        self, path: str | Path, max_records: int | None = None
    ) -> None:
        self.path = Path(path)
        if max_records is not None and max_records < 1:
            raise ValueError("max_records must be >= 1")
        self.max_records = max_records
        #: malformed lines skipped by the last :meth:`load`
        self.skipped = 0

    def append(self, record: dict[str, Any]) -> dict[str, Any]:
        """Validate and append one record (auto-rotating if configured)."""
        validate_record(record)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        if self.max_records is not None:
            if self._count_lines() > self.max_records:
                self.rotate(keep=self.max_records)
        return record

    def _count_lines(self) -> int:
        try:
            with self.path.open() as fh:
                return sum(1 for line in fh if line.strip())
        except OSError:
            return 0

    def load(self, strict: bool = False) -> list[dict[str, Any]]:
        """Every valid record in the ledger, oldest first.

        Malformed lines (torn tail writes, hand-edited garbage) are
        skipped and counted in :attr:`skipped` unless ``strict=True``,
        in which case the first one raises ``ValueError``.
        """
        self.skipped = 0
        records: list[dict[str, Any]] = []
        if not self.path.exists():
            return records
        for lineno, line in enumerate(
            self.path.read_text().splitlines(), 1
        ):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if strict:
                    raise ValueError(
                        f"{self.path}:{lineno}: invalid JSON: {exc}"
                    ) from exc
                self.skipped += 1
                continue
            errors = record_errors(record)
            if errors:
                if strict:
                    raise ValueError(
                        f"{self.path}:{lineno}: " + "; ".join(errors)
                    )
                self.skipped += 1
                continue
            records.append(record)
        return records

    def tail(self, n: int = 20) -> list[dict[str, Any]]:
        """The newest *n* valid records, oldest first."""
        records = self.load()
        return records[-n:] if n > 0 else []

    def rotate(self, keep: int) -> int:
        """Keep the newest *keep* records; move the rest to ``<path>.1``.

        Returns how many records were rotated out.  The overflow
        generation is overwritten (one generation of history), matching
        classic ``logrotate``-style single-backup behaviour.
        """
        if keep < 0:
            raise ValueError("keep must be >= 0")
        if not self.path.exists():
            return 0
        lines = [
            line
            for line in self.path.read_text().splitlines()
            if line.strip()
        ]
        if len(lines) <= keep:
            return 0
        overflow = lines[: len(lines) - keep]
        kept = lines[len(lines) - keep:]
        backup = self.path.with_name(self.path.name + ".1")
        backup.write_text("\n".join(overflow) + "\n")
        self.path.write_text(
            ("\n".join(kept) + "\n") if kept else ""
        )
        return len(overflow)
