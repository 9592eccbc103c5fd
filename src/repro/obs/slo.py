"""Declarative service-level objectives with rolling-window burn rates.

An SLO config names targets for the served retiming system::

    {
      "window_seconds": 300,
      "latency_p95_seconds": 2.0,
      "error_rate": 0.02,
      "shed_rate": 0.10
    }

The :class:`SLOEngine` ingests one sample per request outcome
(completed, failed, shed) into time-stamped rolling windows and reports
**burn rates** — observed value over target.  A burn rate of 1.0 means
the service is consuming its error budget exactly as fast as the SLO
allows; above 1.0 the objective is being violated right now.  The
engine backs ``GET /slo`` on the live server and ``mcretime slo
check``, and :func:`evaluate` is the shared pass/fail policy: every
objective's burn rate must stay <= 1.0.

``check_records`` is the offline mode: it replays ``service.job`` run
ledger records (the same ledger the perf sentinel consumes) through an
engine, so the SLO gate can run after the fact against a saved ledger.
Like the sentinel, it supports ``--inject-latency`` — multiplying
observed latencies to prove the gate actually fails when the service
degrades.
"""

from __future__ import annotations

import json
import math
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

__all__ = [
    "SLOConfig",
    "SLOEngine",
    "check_records",
    "evaluate",
    "reevaluate",
    "render_status",
]


@dataclass(frozen=True)
class SLOConfig:
    """Targets for the served system; ``None`` disables an objective."""

    window_seconds: float = 300.0
    latency_p95_seconds: float | None = 2.0
    error_rate: float | None = 0.02
    shed_rate: float | None = 0.10

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "SLOConfig":
        known = {
            "window_seconds",
            "latency_p95_seconds",
            "error_rate",
            "shed_rate",
        }
        unknown = set(raw) - known
        if unknown:
            raise ValueError(
                f"unknown SLO config key(s): {', '.join(sorted(unknown))}"
            )
        return cls(**{k: raw[k] for k in known & set(raw)})

    @classmethod
    def load(cls, path: str | Path) -> "SLOConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def to_dict(self) -> dict[str, Any]:
        return {
            "window_seconds": self.window_seconds,
            "latency_p95_seconds": self.latency_p95_seconds,
            "error_rate": self.error_rate,
            "shed_rate": self.shed_rate,
        }


def percentile(ordered: list[float], p: float) -> float:
    """The *p*-th percentile (0–100, clamped) of the sorted *ordered*.

    Linear interpolation between adjacent order statistics (the
    "inclusive"/``numpy.percentile`` definition): with *n* values the
    fractional rank is ``(n - 1) * p / 100`` and the result blends the
    two neighbouring values.  Nearest-rank jumps a full sample width
    whenever an observation lands, which makes p50/p95 jitter badly at
    small sample counts; interpolation moves smoothly.  0.0 when empty.
    """
    if not ordered:
        return 0.0
    rank = max(0.0, min(1.0, p / 100.0)) * (len(ordered) - 1)
    lo = int(rank)
    frac = rank - lo
    if frac == 0.0 or lo + 1 >= len(ordered):
        return ordered[lo]
    return ordered[lo] + (ordered[lo + 1] - ordered[lo]) * frac


@dataclass
class SLOEngine:
    """Rolling-window SLO evaluation over per-request samples.

    Thread-safety note: samples arrive from the pool's drain thread
    while ``status()`` is read from the asyncio front-end; deque
    appends and the pruning loop are atomic enough under the GIL that
    no explicit lock is needed for these monotone structures.
    """

    config: SLOConfig = field(default_factory=SLOConfig)
    clock: Any = time.time
    # (timestamp, latency_seconds) for completed requests
    _latencies: deque = field(default_factory=deque)
    # (timestamp, ok) for accepted requests (completed or failed)
    _outcomes: deque = field(default_factory=deque)
    # (timestamp, shed) for all arrivals (admitted or 429'd)
    _arrivals: deque = field(default_factory=deque)

    def observe(
        self, latency_seconds: float, *, ok: bool = True, ts: float | None = None
    ) -> None:
        """Record a request that was admitted and reached a terminal state."""
        now = self.clock() if ts is None else ts
        if ok:
            self._latencies.append((now, latency_seconds))
        self._outcomes.append((now, ok))
        self._arrivals.append((now, False))

    def observe_shed(self, ts: float | None = None) -> None:
        """Record a request rejected at admission (HTTP 429)."""
        now = self.clock() if ts is None else ts
        self._arrivals.append((now, True))

    def _prune(self, now: float) -> None:
        horizon = now - self.config.window_seconds
        for window in (self._latencies, self._outcomes, self._arrivals):
            while window and window[0][0] < horizon:
                window.popleft()

    def status(self, *, now: float | None = None) -> dict[str, Any]:
        """Observed values, burn rates, and per-objective verdicts."""
        now = self.clock() if now is None else now
        self._prune(now)
        latencies = [v for _, v in self._latencies]
        outcomes = [ok for _, ok in self._outcomes]
        arrivals = [shed for _, shed in self._arrivals]
        p95 = percentile(sorted(latencies), 95.0)
        error_rate = (
            outcomes.count(False) / len(outcomes) if outcomes else 0.0
        )
        shed_rate = (
            arrivals.count(True) / len(arrivals) if arrivals else 0.0
        )
        window = self.config.window_seconds
        observed = {
            "latency_p95_seconds": p95,
            "error_rate": error_rate,
            "shed_rate": shed_rate,
            "throughput_per_second": len(outcomes) / window if window else 0.0,
            "requests": len(arrivals),
            "completed": len(latencies),
        }
        return reevaluate(
            {"observed": observed, "window_seconds": window}, self.config
        )


def reevaluate(status: dict[str, Any], config: SLOConfig) -> dict[str, Any]:
    """Judge a status dict's observed values against *config*.

    The one judging loop: :meth:`SLOEngine.status` judges its window
    through it, and ``mcretime slo check --url … --config …`` gates a
    live server against a *committed* config, which may differ from
    the targets the server was started with — only the observed window
    values are reused.
    """
    observed = dict(status.get("observed", {}))
    slos = []
    for name, target in (
        ("latency_p95_seconds", config.latency_p95_seconds),
        ("error_rate", config.error_rate),
        ("shed_rate", config.shed_rate),
    ):
        if target is None:
            continue
        value = float(observed.get(name, 0.0))
        burn = value / target if target > 0 else (math.inf if value else 0.0)
        slos.append(
            {
                "name": name,
                "target": target,
                "observed": value,
                "burn_rate": burn,
                "ok": burn <= 1.0,
            }
        )
    return {
        "config": config.to_dict(),
        "window_seconds": status.get(
            "window_seconds", config.window_seconds
        ),
        "observed": observed,
        "slos": slos,
        "ok": all(s["ok"] for s in slos),
    }


def evaluate(
    status: dict[str, Any], *, inject_latency: float | None = None
) -> tuple[bool, list[str]]:
    """Pass/fail an SLO status dict; returns ``(ok, messages)``.

    *inject_latency* multiplies the observed p95 before judging — the
    self-test hook (mirroring the sentinel's ``--inject-slowdown``)
    that proves a degraded service actually fails the gate.
    """
    messages: list[str] = []
    ok = True
    for slo in status.get("slos", ()):
        observed = slo["observed"]
        burn = slo["burn_rate"]
        if inject_latency and slo["name"] == "latency_p95_seconds":
            observed = observed * inject_latency
            burn = observed / slo["target"] if slo["target"] > 0 else math.inf
        passed = burn <= 1.0
        ok = ok and passed
        messages.append(
            f"{'PASS' if passed else 'FAIL'} {slo['name']}: "
            f"observed {observed:.4g} vs target {slo['target']:.4g} "
            f"(burn rate {burn:.2f})"
        )
    if not status.get("slos"):
        messages.append("PASS (no objectives configured)")
    return ok, messages


def render_status(status: dict[str, Any]) -> str:
    """Human-readable block for ``mcretime slo show``."""
    observed = status.get("observed", {})
    lines = [
        f"window     : {status.get('window_seconds', 0):.0f}s "
        f"({observed.get('requests', 0)} request(s), "
        f"{observed.get('completed', 0)} completed)",
        f"throughput : {observed.get('throughput_per_second', 0.0):.3f} req/s",
    ]
    for slo in status.get("slos", ()):
        lines.append(
            f"{'ok ' if slo['ok'] else 'BURN'} {slo['name']:<22} "
            f"observed {slo['observed']:.4g}  target {slo['target']:.4g}  "
            f"burn {slo['burn_rate']:.2f}"
        )
    lines.append(f"overall    : {'ok' if status.get('ok') else 'VIOLATED'}")
    return "\n".join(lines)


def check_records(
    records: Iterable[dict[str, Any]],
    config: SLOConfig,
    *,
    inject_latency: float | None = None,
) -> tuple[bool, list[str], dict[str, Any]]:
    """Replay ``service.job`` ledger records through an SLO engine.

    Timestamps are synthesised so every record lands inside one
    window — the offline gate judges the whole run, not just its tail.
    """
    engine = SLOEngine(config=config, clock=lambda: 0.0)
    n = 0
    for record in records:
        if record.get("kind") != "service.job":
            continue
        metrics = record.get("metrics", {})
        elapsed = metrics.get("elapsed")
        if elapsed is None:
            continue
        status_text = str(record.get("status", "done"))
        if status_text == "shed":
            engine.observe_shed(ts=0.0)
        else:
            engine.observe(
                float(elapsed), ok=status_text not in ("failed", "error"),
                ts=0.0,
            )
        n += 1
    status = engine.status(now=0.0)
    ok, messages = evaluate(status, inject_latency=inject_latency)
    if n == 0:
        ok = False
        messages.append("FAIL no service.job records found in ledger")
    return ok, messages, status
