"""``mcretime top`` — live terminal dashboard over a running service.

One frame per refresh, built from three endpoints of the service under
observation: ``GET /healthz`` (worker/job counts), ``GET /metrics``
(queue depth, per-shard utilization and backlog, cumulative counters),
and ``GET /slo`` (rolling-window throughput, p95 latency, and burn
rates from :mod:`repro.obs.slo`).

Keys shown per frame (see docs/OBSERVABILITY.md):

* ``queue``   — jobs admitted but not yet dispatched (+ the bound);
* ``shards``  — one bar per shard slot: utilization since start, queue
  backlog, ``*`` when currently busy is implied by utilization;
* ``thruput`` — completed requests per second over the SLO window;
* ``p95``     — end-to-end request latency p95 over the SLO window;
* ``slo``     — per-objective burn rates (>1.0 = burning);
* ``totals``  — cumulative submitted/completed/failed/shed/stolen.

The module is import-light: everything works against the parsed
Prometheus text, so it runs on the same stdlib-only footing as the
client.
"""

from __future__ import annotations

from typing import Any

__all__ = ["parse_metrics", "render_frame"]


def parse_metrics(text: str) -> dict[str, dict[tuple, float]]:
    """Parse Prometheus exposition text into ``{name: {labels: value}}``.

    Labels are normalised to a sorted ``((key, value), ...)`` tuple.
    Exemplar suffixes (`` # {...} v``) and comment lines are ignored —
    this is a dashboard's reader, not a full OpenMetrics parser.
    """
    out: dict[str, dict[tuple, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        line = line.split(" # ", 1)[0].strip()  # drop exemplar suffix
        try:
            series, value_text = line.rsplit(" ", 1)
            value = float(value_text)
        except ValueError:
            continue
        if "{" in series:
            name, _, label_text = series.partition("{")
            label_text = label_text.rstrip("}")
            labels = []
            for part in label_text.split(","):
                if not part:
                    continue
                key, _, raw = part.partition("=")
                labels.append((key.strip(), raw.strip().strip('"')))
            key_tuple = tuple(sorted(labels))
        else:
            name, key_tuple = series, ()
        out.setdefault(name, {})[key_tuple] = value
    return out


def _series_value(
    metrics: dict, name: str, default: float = 0.0, **labels: str
) -> float:
    wanted = tuple(sorted((k, str(v)) for k, v in labels.items()))
    return metrics.get(name, {}).get(wanted, default)


def _series_total(metrics: dict, name: str) -> float:
    return sum(metrics.get(name, {}).values())


def _bar(fraction: float, width: int = 20) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def render_frame(client: Any, url: str) -> str:
    """One dashboard frame for the service behind *client*."""
    health = client.healthz()
    slo = client.slo()
    metrics = parse_metrics(client.metrics_text())

    observed = slo.get("observed", {})
    jobs = health.get("jobs", {})
    depth = health.get("queue_depth", 0)
    max_pending = _series_value(metrics, "repro_pool_max_pending", 0.0)
    uptime = _series_value(metrics, "repro_process_uptime_seconds")

    lines = [
        f"mcretime top — {url}  "
        f"(workers {health.get('workers', '?')}, up {uptime:.0f}s)",
        "",
        f"queue   : {depth} pending"
        + (f" / {int(max_pending)} max" if max_pending else "")
        + f"   running {jobs.get('running', 0)}  "
        f"retrying {jobs.get('retrying', 0)}",
        f"thruput : {observed.get('throughput_per_second', 0.0):.3f} req/s "
        f"over the {slo.get('window_seconds', 0):.0f}s window",
        f"p95     : {observed.get('latency_p95_seconds', 0.0) * 1e3:.1f}ms "
        f"end-to-end ({observed.get('completed', 0)} completed)",
        "",
        "shards  : util (since start)        depth",
    ]
    shard_util = metrics.get("repro_shard_utilization", {})
    for key in sorted(shard_util):
        slot = dict(key).get("shard", "?")
        util = shard_util[key]
        backlog = _series_value(
            metrics, "repro_shard_queue_depth", shard=str(slot)
        )
        lines.append(
            f"  [{slot:>2}]  {_bar(util)} {util * 100:5.1f}%   {int(backlog)}"
        )
    if not shard_util:
        lines.append("  (no shard metrics exposed)")

    lines.append("")
    lines.append("slo     : burn rates (>1.0 = burning)")
    for objective in slo.get("slos", ()):
        lines.append(
            f"  {'ok ' if objective['ok'] else 'BURN'} "
            f"{objective['name']:<22} "
            f"{objective['burn_rate']:6.2f}  "
            f"(observed {objective['observed']:.4g} / "
            f"target {objective['target']:.4g})"
        )

    bus_events = _series_total(metrics, "repro_bus_events_total")
    bus_live = _series_value(metrics, "repro_bus_live_traces")
    if bus_events:
        lines.append("")
        lines.append(
            f"bus     : {int(bus_events)} events drained, "
            f"{int(bus_live)} live trace(s)"
        )

    lines.append("")
    lines.append(
        "totals  : "
        f"submitted {int(_series_total(metrics, 'repro_jobs_submitted_total'))}  "
        f"completed {int(_series_total(metrics, 'repro_jobs_completed_total'))}  "
        f"failed {int(_series_total(metrics, 'repro_jobs_failed_total'))}  "
        f"shed {int(_series_total(metrics, 'repro_jobs_shed_total'))}  "
        f"stolen {int(_series_total(metrics, 'repro_jobs_stolen_total'))}  "
        f"cache-hit {health.get('cache_hit_rate', 0.0) * 100:.1f}%"
    )
    return "\n".join(lines)
