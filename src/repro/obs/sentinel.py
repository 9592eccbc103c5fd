"""The perf-regression sentinel: compare run-ledger records and gate.

``mcretime obs diff`` and ``mcretime obs check`` compare
:mod:`repro.obs.ledger` records with **noise-robust** statistics:

* records are grouped by ``(kind, fingerprint)`` and, within a group,
  per-span medians are taken over the newest *k* records
  (median-of-k), so one noisy run cannot flip the verdict;
* comparisons are **per-span relative deltas** with an absolute noise
  floor — a span must be both ``threshold``× slower *and* slower by at
  least ``min_seconds`` to count, so microsecond-scale spans (pure
  timer noise) never gate;
* ``mode="relative"`` compares each span's *share of the group total*
  instead of absolute seconds.  Shares are stable across machine
  speeds (a uniformly slower machine scales every span alike), which
  is what lets a ledger be checked against a baseline recorded on a
  different machine.

:func:`check` returns a :class:`SentinelReport`; the CLI exits
non-zero when ``report.regressions`` is non-empty.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

from .ledger import RunLedger

__all__ = [
    "Delta",
    "SentinelReport",
    "check",
    "diff",
    "group_medians",
    "load_records",
]

#: default regression threshold: a span must be this many times slower
DEFAULT_THRESHOLD = 1.5

#: absolute noise floor in seconds — deltas under this never gate
DEFAULT_MIN_SECONDS = 0.005

#: in relative mode, spans below this share of the run are not gated
DEFAULT_MIN_SHARE = 0.02

#: median-of-k window: newest k records per (kind, fingerprint) group
DEFAULT_WINDOW = 5


@dataclass
class Delta:
    """One compared span within one record group."""

    group: str
    span: str
    baseline: float
    current: float
    #: current / baseline (or share ratio in relative mode)
    ratio: float
    regressed: bool
    mode: str = "absolute"
    #: median invocation counts (``span_counts``); None on old records
    baseline_count: float | None = None
    current_count: float | None = None

    def describe(self) -> str:
        unit = "s" if self.mode == "absolute" else " share"
        flag = "  REGRESSED" if self.regressed else ""
        counts = ""
        if self.baseline_count is not None or self.current_count is not None:
            fmt = lambda c: "?" if c is None else f"{c:.0f}"  # noqa: E731
            counts = (
                f"  [x{fmt(self.baseline_count)}"
                f"->x{fmt(self.current_count)}]"
            )
        return (
            f"{self.group:<28} {self.span:<28} "
            f"{self.baseline:10.4f}{unit} -> {self.current:10.4f}{unit} "
            f"({self.ratio:5.2f}x){counts}{flag}"
        )


@dataclass
class SentinelReport:
    """The outcome of one diff/check: every delta plus the verdict."""

    deltas: list[Delta] = field(default_factory=list)
    #: (kind, fingerprint) groups present only on one side
    unmatched: list[str] = field(default_factory=list)
    mode: str = "absolute"
    threshold: float = DEFAULT_THRESHOLD

    @property
    def regressions(self) -> list[Delta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self, top: int = 0) -> str:
        lines = [
            f"sentinel ({self.mode} mode, threshold {self.threshold:.2f}x): "
            f"{len(self.deltas)} spans compared across "
            f"{len({d.group for d in self.deltas})} groups, "
            f"{len(self.regressions)} regressed"
        ]
        shown = sorted(self.deltas, key=lambda d: -d.ratio)
        if top > 0:
            shown = shown[:top]
        lines.extend("  " + d.describe() for d in shown)
        for name in self.unmatched:
            lines.append(f"  {name:<28} (only on one side; not compared)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def load_records(path: str | Path) -> list[dict[str, Any]]:
    """Load one ledger file tolerantly (corrupt lines skipped)."""
    return RunLedger(path).load()


def _group_key(record: dict[str, Any]) -> str:
    fp = record.get("fingerprint") or ""
    return f"{record['kind']}:{fp[:12]}" if fp else record["kind"]


def _span_values(record: dict[str, Any]) -> dict[str, float]:
    """The timing map a record is gated on (self-times preferred)."""
    return record.get("self_times") or record.get("spans") or {}


def _span_counts(record: dict[str, Any]) -> dict[str, float]:
    """The per-span invocation counts (empty on pre-``span_counts`` records)."""
    return record.get("span_counts") or {}


def group_medians(
    records: Iterable[dict[str, Any]],
    window: int = DEFAULT_WINDOW,
    *,
    values: Callable[[dict[str, Any]], dict[str, float]] | None = None,
) -> dict[str, dict[str, float]]:
    """Per-group, per-span **median-of-k** seconds over the newest runs.

    Groups are ``kind:fingerprint`` strings; within each group only the
    newest ``window`` records contribute, and each span's value is the
    median over the records that carry that span.  ``values`` selects
    the per-record map to aggregate (timings by default; pass a
    ``span_counts`` extractor to get invocation-count medians instead).
    """
    extract = values or _span_values
    grouped: dict[str, list[dict[str, Any]]] = {}
    for record in records:
        grouped.setdefault(_group_key(record), []).append(record)
    out: dict[str, dict[str, float]] = {}
    for group, runs in grouped.items():
        runs = sorted(runs, key=lambda r: r.get("ts", 0.0))[-window:]
        samples: dict[str, list[float]] = {}
        for run in runs:
            for span, seconds in extract(run).items():
                samples.setdefault(span, []).append(float(seconds))
        out[group] = {
            span: statistics.median(values)
            for span, values in samples.items()
        }
    return out


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def _shares(spans: dict[str, float]) -> dict[str, float]:
    total = sum(v for v in spans.values() if v > 0) or 1.0
    return {span: max(v, 0.0) / total for span, v in spans.items()}


def diff(
    baseline: Iterable[dict[str, Any]],
    current: Iterable[dict[str, Any]],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
    min_share: float = DEFAULT_MIN_SHARE,
    window: int = DEFAULT_WINDOW,
    mode: str = "absolute",
) -> SentinelReport:
    """Compare two record sets span by span; see the module docstring."""
    if mode not in ("absolute", "relative"):
        raise ValueError(f"unknown mode {mode!r}")
    baseline = list(baseline)
    current = list(current)
    base = group_medians(baseline, window)
    cur = group_medians(current, window)
    base_counts = group_medians(baseline, window, values=_span_counts)
    cur_counts = group_medians(current, window, values=_span_counts)
    report = SentinelReport(mode=mode, threshold=threshold)
    for group in sorted(set(base) | set(cur)):
        if group not in base or group not in cur:
            report.unmatched.append(group)
            continue
        b_spans, c_spans = base[group], cur[group]
        b_counts = base_counts.get(group, {})
        c_counts = cur_counts.get(group, {})
        if mode == "relative":
            b_cmp, c_cmp = _shares(b_spans), _shares(c_spans)
        else:
            b_cmp, c_cmp = b_spans, c_spans
        for span in sorted(set(b_cmp) & set(c_cmp)):
            b, c = b_cmp[span], c_cmp[span]
            if b <= 0.0:
                continue
            ratio = c / b
            if mode == "relative":
                # gate on share growth, ignoring tiny slices
                regressed = (
                    ratio > threshold
                    and c >= min_share
                    and c_spans.get(span, 0.0) >= min_seconds
                )
            else:
                regressed = ratio > threshold and (c - b) >= min_seconds
            report.deltas.append(
                Delta(
                    group=group,
                    span=span,
                    baseline=b,
                    current=c,
                    ratio=ratio,
                    regressed=regressed,
                    mode=mode,
                    baseline_count=b_counts.get(span),
                    current_count=c_counts.get(span),
                )
            )
    return report


def check(
    baseline_path: str | Path,
    current_path: str | Path,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
    min_share: float = DEFAULT_MIN_SHARE,
    window: int = DEFAULT_WINDOW,
    mode: str = "absolute",
    inject_slowdown: float | None = None,
) -> SentinelReport:
    """Gate *current_path* against *baseline_path* (both ledger files).

    ``inject_slowdown`` multiplies every current span time by the given
    factor before comparing — the self-test hook proving the gate
    actually fires on a 2× slowdown.
    """
    baseline = load_records(baseline_path)
    current = load_records(current_path)
    if inject_slowdown is not None:
        for record in current:
            for field_name in ("spans", "self_times"):
                values = record.get(field_name)
                if values:
                    record[field_name] = {
                        k: v * inject_slowdown for k, v in values.items()
                    }
    return diff(
        baseline,
        current,
        threshold=threshold,
        min_seconds=min_seconds,
        min_share=min_share,
        window=window,
        mode=mode,
    )
