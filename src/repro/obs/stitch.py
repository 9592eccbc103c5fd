"""Stitch per-process traces into one wall-clock-anchored timeline.

The service writes one JSONL trace per process per request: the
front-end's synthetic *request log* (``<job>.req.jsonl`` — admission,
queue wait, dispatch window) and the worker's span trace
(``<job>.jsonl`` — resolve/attach, solve, respond).  Each file's event
timestamps are ``time.perf_counter`` offsets from that process's own
tracer anchor, so **they are not comparable across pids**: two
processes' ``perf_counter`` clocks have arbitrary (and arbitrarily
large) relative offsets.

What *is* comparable is each tracer's ``wall0`` anchor — the
``time.time()`` reading taken at the same instant as the
``perf_counter`` anchor and recorded in the meta event as
``wall_time``.  The stitcher rebases every event onto a common origin::

    ts' = (wall_time_of_its_process - min_wall_time) + ts

clamping so no span renders with a negative start or duration (wall
clocks on one machine agree to well under a millisecond, but NTP slews
and float rounding can still push a rebased timestamp fractionally
below zero).

Cross-process *structure* comes from trace-context propagation: the
front-end mints ``{"trace_id", "parent_span", "parent_pid"}`` at
admission, the pool carries it with the dispatch, and the worker stamps
``parent_span``/``parent_pid`` into its meta record.  At stitch time
every worker root span is re-parented under the request span it served,
so the merged timeline is one tree per request spanning both processes.

The stitched output is a valid JSONL trace (synthetic stitched meta
first, per-process meta/end records preserved as interior events, one
merged end record last) and exports to Chrome ``trace_event`` JSON with
one named process track per pid.

The critical-path analyzer (:func:`critical_path`) attributes each
request's wall time to **queue / intern / solve / respond** —
the per-phase breakdown ``mcretime report --critical-path`` prints.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from .report import span_totals

__all__ = [
    "critical_path",
    "render_critical_path",
    "request_timelines",
    "stitch_dir",
    "stitch_events",
    "stitched_chrome_doc",
    "trace_groups",
    "write_chrome",
    "write_jsonl",
]

#: suffix of the front-end's per-request trace file (the worker's file
#: is ``<job>.jsonl``)
REQUEST_SUFFIX = ".req.jsonl"


# ---------------------------------------------------------------------------
# loading and grouping
# ---------------------------------------------------------------------------


def _load_jsonl(path: Path) -> list[dict[str, Any]]:
    events: list[dict[str, Any]] = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            # a live query can race a worker mid-write; drop the
            # partial trailing line rather than failing the whole trace
            continue
    return events


def trace_groups(trace_dir: str | Path) -> dict[str, list[Path]]:
    """Group a trace directory's JSONL files by request (job prefix).

    ``<job>.req.jsonl`` and ``<job>.jsonl`` stitch together; files that
    only exist on one side (a shed request has no worker trace, a
    legacy worker trace has no request log) still form a group of one.
    """
    groups: dict[str, list[Path]] = {}
    for path in sorted(Path(trace_dir).glob("*.jsonl")):
        name = path.name
        if name.endswith(REQUEST_SUFFIX):
            key = name[: -len(REQUEST_SUFFIX)]
        else:
            key = path.stem
        groups.setdefault(key, []).append(path)
    return groups


# ---------------------------------------------------------------------------
# stitching
# ---------------------------------------------------------------------------


def stitch_events(
    sources: Iterable[str | Path | list[dict[str, Any]]],
) -> list[dict[str, Any]]:
    """Merge per-process traces into one wall-clock-anchored event list.

    *sources* are JSONL paths (or pre-loaded event lists).  Every
    event's ``ts`` is rebased onto the earliest ``wall_time`` anchor
    across the sources and clamped non-negative; span ids are remapped
    to be globally unique; worker root spans are re-parented under the
    span named by their meta record's ``parent_span``/``parent_pid``
    stamp.  Returns internal-model events: a synthetic stitched meta
    record first, the per-process meta/end records and rebased
    span/counter/gauge events in timestamp order, and one merged end
    record last.
    """
    procs: list[dict[str, Any]] = []
    for source in sources:
        events = (
            list(source)
            if isinstance(source, list)
            else _load_jsonl(Path(source))
        )
        if not events:
            continue
        meta = next(
            (e for e in events if e.get("type") == "meta"), {}
        )
        procs.append(
            {
                "events": events,
                "meta": meta,
                "pid": meta.get("pid", 0),
                "wall0": float(meta.get("wall_time", 0.0)),
                "trace_id": meta.get("trace_id", ""),
            }
        )
    if not procs:
        return []
    origin = min(p["wall0"] for p in procs)

    # first pass: assign a contiguous id offset per source so remapped
    # span ids never collide, and index (pid, local id) -> global id so
    # cross-process parent stamps can be resolved in the second pass
    offset = 0
    global_id: dict[tuple[int, int], int] = {}
    for proc in procs:
        proc["offset"] = offset
        local_max = 0
        for event in proc["events"]:
            if event.get("type") == "span":
                local_id = int(event["id"])
                local_max = max(local_max, local_id)
                global_id[(proc["pid"], local_id)] = local_id + offset
        offset += local_max

    merged: list[dict[str, Any]] = []
    ends: list[dict[str, Any]] = []
    counters: dict[str, float] = {}
    for proc in procs:
        base = max(0.0, proc["wall0"] - origin)
        shift = proc["offset"]
        meta = proc["meta"]
        # the cross-process parent stamp: re-parent this process's root
        # spans under the minting process's span
        parent_span = meta.get("parent_span")
        parent_pid = meta.get("parent_pid")
        cross_parent = (
            global_id.get((parent_pid, parent_span))
            if parent_span and parent_pid is not None
            else None
        )
        for event in proc["events"]:
            kind = event.get("type")
            out = dict(event)
            if kind == "meta":
                merged.append(out)
                continue
            # rebase onto the common origin; clamp so no event renders
            # with a negative start (satellite: cross-process skew fix)
            out["ts"] = max(0.0, base + float(event.get("ts", 0.0)))
            if kind == "end":
                for name, value in (event.get("counters") or {}).items():
                    counters[name] = counters.get(name, 0.0) + value
                ends.append(out)
                continue
            if kind == "span":
                out["dur"] = max(0.0, float(event.get("dur", 0.0)))
                out["id"] = int(event["id"]) + shift
                parent = int(event.get("parent", 0))
                if parent > 0:
                    out["parent"] = parent + shift
                elif cross_parent is not None:
                    out["parent"] = cross_parent
                    out["stitched_parent"] = True
            merged.append(out)

    metas = [e for e in merged if e.get("type") == "meta"]
    body = [e for e in merged if e.get("type") != "meta"]
    body.sort(key=lambda e: e.get("ts", 0.0))
    # re-parenting moves whole subtrees under new parents, so recompute
    # every span's self time against its (possibly new) children
    child_dur: dict[int, float] = {}
    for event in body:
        if event.get("type") == "span":
            parent = int(event.get("parent", 0))
            child_dur[parent] = child_dur.get(parent, 0.0) + event["dur"]
    for event in body:
        if event.get("type") == "span":
            event["self"] = max(
                0.0, event["dur"] - child_dur.get(event["id"], 0.0)
            )
    trace_ids = sorted({p["trace_id"] for p in procs if p["trace_id"]})
    head = {
        "type": "meta",
        "trace_id": trace_ids[0] if len(trace_ids) == 1 else "stitched",
        "pid": procs[0]["pid"],
        "wall_time": origin,
        "stitched": True,
        "processes": [
            {"pid": p["pid"], "wall_time": p["wall0"], "trace_id": p["trace_id"]}
            for p in procs
        ],
    }
    tail = {
        "type": "end",
        "trace_id": head["trace_id"],
        "ts": max(
            [e.get("ts", 0.0) + e.get("dur", 0.0) for e in body] or [0.0]
        ),
        "counters": counters,
        "gauges": {},
        "spans": span_totals(body),
        "pid": procs[0]["pid"],
        "stitched": True,
    }
    return [head, *metas, *[e for e in body if e.get("type") != "end"],
            *ends, tail]


def stitch_dir(
    trace_dir: str | Path, job: str | None = None
) -> dict[str, list[dict[str, Any]]]:
    """Stitch every request group in *trace_dir*.

    Returns ``{job_prefix: stitched events}``.  *job* (a job id or its
    16-char prefix) restricts stitching to one request.
    """
    groups = trace_groups(trace_dir)
    if job is not None:
        key = job[:16]
        groups = {k: v for k, v in groups.items() if k == key}
    return {key: stitch_events(paths) for key, paths in sorted(groups.items())}


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def stitched_chrome_doc(
    stitched: dict[str, list[dict[str, Any]]]
) -> dict[str, Any]:
    """One Chrome ``trace_event`` document over stitched request groups.

    Each pid gets a named process track (``frontend``/``worker``, from
    the per-process meta records), so Perfetto renders the front-end
    and every worker as separate rows on one shared wall-clock axis.
    """
    trace_events: list[dict[str, Any]] = []
    roles: dict[int, str] = {}
    counters: dict[str, float] = {}
    trace_ids: list[str] = []
    for key, events in stitched.items():
        for event in events:
            kind = event.get("type")
            if kind == "meta" and "pid" in event and not event.get("stitched"):
                roles.setdefault(
                    event["pid"], str(event.get("role", "process"))
                )
            elif kind == "span":
                out = {
                    "name": event["name"],
                    "cat": event["name"].split(".", 1)[0],
                    "ph": "X",
                    "ts": event["ts"] * 1e6,
                    "dur": event["dur"] * 1e6,
                    "pid": event.get("pid", 0),
                    "tid": event.get("tid", 0),
                }
                args = dict(event.get("args", {}))
                args.setdefault("job", key)
                out["args"] = args
                trace_events.append(out)
            elif kind == "end" and event.get("stitched"):
                trace_ids.append(str(event.get("trace_id", "")))
                for name, value in (event.get("counters") or {}).items():
                    counters[name] = counters.get(name, 0.0) + value
    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": f"{role} ({pid})"},
        }
        for pid, role in sorted(roles.items())
    ]
    return {
        "traceEvents": metadata + trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "stitched": True,
            "requests": len(stitched),
            "trace_ids": trace_ids,
            "counters": counters,
        },
    }


def write_chrome(
    stitched: dict[str, list[dict[str, Any]]], path: str | Path
) -> None:
    """Write the merged Chrome trace for stitched request groups."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(stitched_chrome_doc(stitched)) + "\n")


def write_jsonl(events: list[dict[str, Any]], path: str | Path) -> None:
    """Write stitched events back out as a (multi-process) JSONL trace."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for event in events:
            fh.write(json.dumps(event, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# per-request timelines and the critical path
# ---------------------------------------------------------------------------


def _interval_union(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    if not intervals:
        return 0.0
    intervals.sort()
    covered = 0.0
    cur_start, cur_end = intervals[0]
    for start, end in intervals[1:]:
        if start > cur_end:
            covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    return covered + (cur_end - cur_start)


def request_timelines(
    events: list[dict[str, Any]]
) -> list[dict[str, Any]]:
    """Per-request coverage summaries for one stitched event list.

    For every root span named ``request`` the summary reports its
    start/duration and **coverage**: the fraction of the request's wall
    time accounted for by its child spans (clipped to the request
    window, overlap-deduplicated).  The acceptance bar for the tracing
    plane is coverage >= 0.9 — anything lower means a phase of the
    request's life is invisible to the timeline.
    """
    spans = [e for e in events if e.get("type") == "span"]
    children: dict[int, list[dict[str, Any]]] = {}
    for span in spans:
        children.setdefault(int(span.get("parent", 0)), []).append(span)
    out: list[dict[str, Any]] = []
    for root in spans:
        if root["name"] != "request":
            continue
        r0 = root["ts"]
        r1 = r0 + root["dur"]
        intervals: list[tuple[float, float]] = []
        for child in children.get(root["id"], ()):  # direct children only
            c0 = max(r0, child["ts"])
            c1 = min(r1, child["ts"] + child["dur"])
            if c1 > c0:
                intervals.append((c0, c1))
        covered = _interval_union(intervals)
        job = (root.get("args") or {}).get("job", "")
        out.append(
            {
                "job": job,
                "start": r0,
                "duration": root["dur"],
                "coverage": covered / root["dur"] if root["dur"] > 0 else 1.0,
                "children": len(children.get(root["id"], ())),
            }
        )
    return out


def critical_path(
    stitched: dict[str, list[dict[str, Any]]]
) -> dict[str, Any]:
    """Attribute each request's wall time to queue/intern/solve/respond.

    Phases, per request:

    * **queue** — the admission-queue wait (``request.queue``);
    * **intern** — worker-side design resolution: rebuilding the job
      and parsing its netlist (``worker.resolve``);
    * **solve** — the flow execution proper (``job.execute``);
    * **respond** — everything else: dispatch transit, result
      serialisation and shipping, front-end bookkeeping (the remainder
      of the ``request`` span).

    Returns per-request rows plus the sum over the run — the table that
    turns "the pool only scaled 1.03x" into "83% of request wall time
    is queue wait, solve is 9%".
    """
    rows: list[dict[str, Any]] = []
    for key, events in sorted(stitched.items()):
        spans = [e for e in events if e.get("type") == "span"]
        roots = [s for s in spans if s["name"] == "request"]
        if not roots:
            continue
        total = sum(s["dur"] for s in roots)
        queue = sum(s["dur"] for s in spans if s["name"] == "request.queue")
        intern = sum(s["dur"] for s in spans if s["name"] == "worker.resolve")
        solve = sum(s["dur"] for s in spans if s["name"] == "job.execute")
        respond = max(0.0, total - queue - intern - solve)
        rows.append(
            {
                "job": key,
                "total": total,
                "queue": queue,
                "intern": intern,
                "solve": solve,
                "respond": respond,
            }
        )
    summed = {
        phase: sum(r[phase] for r in rows)
        for phase in ("total", "queue", "intern", "solve", "respond")
    }
    return {"requests": rows, "sum": summed}


def render_critical_path(analysis: dict[str, Any]) -> str:
    """The text table ``mcretime report --critical-path`` prints."""
    rows = analysis["requests"]
    summed = analysis["sum"]
    lines = [
        f"critical path over {len(rows)} request(s) "
        "(queue / intern / solve / respond):",
        f"  {'request':<18} {'total':>9} {'queue':>9} {'intern':>9} "
        f"{'solve':>9} {'respond':>9}",
    ]

    def fmt(seconds: float) -> str:
        return f"{seconds * 1e3:8.1f}ms"

    for row in rows:
        lines.append(
            f"  {row['job']:<18} {fmt(row['total'])} {fmt(row['queue'])} "
            f"{fmt(row['intern'])} {fmt(row['solve'])} {fmt(row['respond'])}"
        )
    total = summed["total"] or 1.0
    lines.append(
        f"  {'SUM':<18} {fmt(summed['total'])} {fmt(summed['queue'])} "
        f"{fmt(summed['intern'])} {fmt(summed['solve'])} "
        f"{fmt(summed['respond'])}"
    )
    lines.append(
        "  share of wall time : "
        + " / ".join(
            f"{phase} {100.0 * summed[phase] / total:.0f}%"
            for phase in ("queue", "intern", "solve", "respond")
        )
    )
    return "\n".join(lines)
