"""Service metrics: counters, gauges, histograms with Prometheus export.

A deliberately small, stdlib-only metrics core: :class:`Counter`,
:class:`Gauge`, and :class:`Histogram` registered in a
:class:`MetricsRegistry`, rendered with :meth:`MetricsRegistry.render`
in the Prometheus text exposition format (served at ``GET /metrics``).
Histograms additionally keep a bounded sample reservoir so reports can
ask for latency percentiles directly (``histogram.percentile(95)``)
without a scrape pipeline.

All metric types support labels::

    completed = registry.counter("repro_jobs_completed_total", "...")
    completed.inc()
    stage = registry.histogram("repro_stage_seconds", "...", buckets=...)
    stage.observe(0.12, stage="map")

Gauges can be callback-backed (evaluated at render time — uptime,
queue depths) or info-style (a constant ``1`` with identifying labels,
the ``repro_build_info`` idiom).  Histogram observations may carry an
**exemplar** — a tiny label set (typically the run/trace id) attached
to the bucket the observation landed in and rendered in OpenMetrics
``# {run="…"} value`` syntax, so a slow ``repro_span_seconds`` bucket
can be traced back to the offending job's trace file.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, insort
from typing import Callable

from ..obs import percentile

#: default latency buckets (seconds) — tuned for retiming jobs that run
#: milliseconds on toy designs up to minutes at paper scale
DEFAULT_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    30.0, 60.0, 120.0, 300.0,
)

#: per-histogram reservoir size for percentile queries
_MAX_SAMPLES = 4096


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_text(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing counter, optionally labelled."""

    kind = "counter"

    def __init__(self, name: str, help_text: str) -> None:
        self.name = name
        self.help_text = help_text
        self._values: dict[tuple, float] = {}
        #: label key -> (exemplar label key, increment) — most recent
        self._exemplars: dict[tuple, tuple[tuple, float]] = {}
        self._lock = threading.Lock()

    def inc(
        self,
        amount: float = 1.0,
        exemplar: dict[str, str] | None = None,
        **labels: str,
    ) -> None:
        """Increment, optionally stamping an OpenMetrics exemplar.

        *exemplar* (e.g. ``{"run": trace_id}``) is remembered as the
        series' most recent exemplar and rendered in ``# {…} value``
        suffix form, so a spike in e.g. ``repro_jobs_shed_total`` can
        be traced back to a concrete request's stitched timeline.
        """
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount
            if exemplar:
                self._exemplars[key] = (_label_key(exemplar), amount)

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        with self._lock:
            return sum(self._values.values())

    def render(self) -> list[str]:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]
        with self._lock:
            values = dict(self._values) or {(): 0.0}
            exemplars = dict(self._exemplars)
        for key in sorted(values):
            line = f"{self.name}{_label_text(key)} {_format(values[key])}"
            lines.append(line + _exemplar_text(exemplars.get(key)))
        return lines

    def exemplar(self, **labels: str):
        """The stored (labels, value) exemplar for one series, or None."""
        with self._lock:
            found = self._exemplars.get(_label_key(labels))
        if found is None:
            return None
        return dict(found[0]), found[1]


class Gauge:
    """A value that can go up and down, optionally callback-backed."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str) -> None:
        self.name = name
        self.help_text = help_text
        self._values: dict[tuple, float] = {}
        self._callbacks: dict[tuple, Callable[[], float]] = {}
        self._lock = threading.Lock()

    def set(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def set_function(self, fn: Callable[[], float], **labels: str) -> None:
        """Back this series with *fn*, evaluated at render/read time."""
        key = _label_key(labels)
        with self._lock:
            self._callbacks[key] = fn

    def value(self, **labels: str) -> float:
        key = _label_key(labels)
        with self._lock:
            fn = self._callbacks.get(key)
        if fn is not None:
            return float(fn())
        with self._lock:
            return self._values.get(key, 0.0)

    def render(self) -> list[str]:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]
        with self._lock:
            values = dict(self._values)
            callbacks = dict(self._callbacks)
        for key, fn in callbacks.items():
            values[key] = float(fn())
        if not values:
            values = {(): 0.0}
        for key in sorted(values):
            lines.append(f"{self.name}{_label_text(key)} {_format(values[key])}")
        return lines


class Histogram:
    """Cumulative-bucket histogram with a percentile reservoir."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.help_text = help_text
        self.buckets = tuple(sorted(buckets))
        self._lock = threading.Lock()
        self._counts: dict[tuple, list[int]] = {}
        self._sums: dict[tuple, float] = {}
        self._totals: dict[tuple, int] = {}
        self._samples: dict[tuple, list[float]] = {}
        #: (label key, bucket index) -> (exemplar label key, value);
        #: bucket index len(buckets) is the +Inf bucket
        self._exemplars: dict[tuple[tuple, int], tuple[tuple, float]] = {}

    def labels(self, **labels: str) -> "Histogram":
        """Pre-register a label set so it renders before any observation.

        Mirrors ``prometheus_client``'s ``labels()`` idiom: dashboards
        that alert on absent series need every expected label set to
        expose a full zero-valued ``_bucket``/``_sum``/``_count`` family
        from the first scrape, not from the first observation.
        """
        key = _label_key(labels)
        with self._lock:
            self._register(key)
        return self

    def _register(self, key: tuple) -> None:
        """Ensure all per-series state exists for *key* (lock held)."""
        if key not in self._totals:
            self._counts[key] = [0] * len(self.buckets)
            self._sums[key] = 0.0
            self._totals[key] = 0
            self._samples[key] = []

    def observe(
        self,
        value: float,
        exemplar: dict[str, str] | None = None,
        **labels: str,
    ) -> None:
        """Record one observation.

        *exemplar* (e.g. ``{"run": trace_id}``) is remembered as the
        most recent exemplar of the bucket the value lands in, so a
        scrape can point from a slow bucket to a concrete traced run.
        """
        key = _label_key(labels)
        with self._lock:
            self._register(key)
            idx = bisect_left(self.buckets, value)
            if idx < len(self.buckets):
                self._counts[key][idx] += 1
            self._sums[key] += value
            self._totals[key] += 1
            if exemplar:
                self._exemplars[(key, idx)] = (_label_key(exemplar), value)
            samples = self._samples[key]
            insort(samples, value)
            if len(samples) > _MAX_SAMPLES:
                # drop the median neighbour to keep the tails intact
                del samples[len(samples) // 2]

    def exemplar(self, bucket_le: float | str, **labels: str):
        """The stored (labels, value) exemplar for one bucket, or None.

        ``bucket_le`` is the bucket's upper bound (or ``"+Inf"``).
        """
        key = _label_key(labels)
        if bucket_le == "+Inf":
            idx = len(self.buckets)
        else:
            idx = self.buckets.index(float(bucket_le))
        with self._lock:
            found = self._exemplars.get((key, idx))
        if found is None:
            return None
        return dict(found[0]), found[1]

    def count(self, **labels: str) -> int:
        with self._lock:
            return self._totals.get(_label_key(labels), 0)

    def sum(self, **labels: str) -> float:
        with self._lock:
            return self._sums.get(_label_key(labels), 0.0)

    def percentile(self, p: float, **labels: str) -> float:
        """The *p*-th percentile (0–100) of the recorded samples
        (:func:`repro.obs.percentile` over the sorted reservoir)."""
        with self._lock:
            return percentile(self._samples.get(_label_key(labels), []), p)

    def render(self) -> list[str]:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]
        with self._lock:
            if not self._totals:
                # match Counter: an empty metric still exposes one
                # unlabelled zero-valued series so scrapes see the name
                counts = {(): [0] * len(self.buckets)}
                sums: dict[tuple, float] = {(): 0.0}
                totals: dict[tuple, int] = {(): 0}
            else:
                counts = {k: list(v) for k, v in self._counts.items()}
                sums = dict(self._sums)
                totals = dict(self._totals)
            exemplars = dict(self._exemplars)
        for key in sorted(totals):
            cumulative = 0
            for idx, (bound, n) in enumerate(zip(self.buckets, counts[key])):
                cumulative += n
                label = _label_text(key + (("le", _format(bound)),))
                line = f"{self.name}_bucket{label} {cumulative}"
                lines.append(line + _exemplar_text(exemplars.get((key, idx))))
            label = _label_text(key + (("le", "+Inf"),))
            line = f"{self.name}_bucket{label} {totals[key]}"
            lines.append(
                line + _exemplar_text(exemplars.get((key, len(self.buckets))))
            )
            lines.append(
                f"{self.name}_sum{_label_text(key)} {_format(sums[key])}"
            )
            lines.append(
                f"{self.name}_count{_label_text(key)} {totals[key]}"
            )
        return lines


def _format(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(float(value))


def _exemplar_text(found: tuple[tuple, float] | None) -> str:
    """OpenMetrics exemplar suffix (`` # {run="…"} value``), or ""."""
    if found is None:
        return ""
    key, value = found
    return f" # {_label_text(key)} {_format(value)}"


class MetricsRegistry:
    """Create-or-get registry for all service metrics."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        metric = self._get_or_create(Histogram, name, help_text, buckets)
        return metric

    def _get_or_create(self, cls, name, help_text, *args):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help_text, *args)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {type(metric).__name__}"
                )
            return metric

    def render(self) -> str:
        """The full registry in Prometheus text exposition format."""
        with self._lock:
            metrics = list(self._metrics.values())
        lines: list[str] = []
        for metric in sorted(metrics, key=lambda m: m.name):
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"
