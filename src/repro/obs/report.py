"""The span record's codec, and the text summary tree.

A run's *span record* is the list of event dicts its tracer collects
in ``Tracer.events``: one ``meta`` record, then ``span``, ``counter``
and ``gauge`` events, then an ``end`` record.  Every view of a run —
the JSONL log, the Chrome trace, ``Tracer.snapshot()``, the run-ledger
record, the stitched service timeline, the summary tree — derives from
that list through this module:

* :func:`load_events` — the one reader, for JSONL run logs and Chrome
  ``trace_event`` files;
* :func:`chrome_doc` — the one Chrome encoder;
* :func:`aggregate` — the per-name maps (``spans``, ``self_times``,
  ``span_counts``, ``counters``, ``gauges``) that every ``end``
  record, the Chrome file's ``otherData``, ``Tracer.snapshot()`` and
  the run ledger carry;
* :func:`self_times` — each span's self time, from its parent links.

:func:`render_summary` is what ``mcretime report`` and the CLI's ``-v``
print: the span tree with per-node call counts / total / self time and
percentage of the run, the Sec. 6 CPU-split line (derived from the
``engine.*`` phase spans exactly like
:meth:`repro.mcretime.MCRetimeResult.timing_fractions`), the top spans
by self-time, and the iteration counters — so the paper's CPU-split
table can be regenerated from any archived run.

Also home to the schema validators ``mcretime report --validate`` and
the tests use: :func:`trace_errors`, :func:`validate_jsonl` and
:func:`validate_chrome_trace`.
"""

from __future__ import annotations

import collections
import itertools
import json
from pathlib import Path
from typing import Any

__all__ = [
    "AGGREGATES",
    "aggregate",
    "chrome_doc",
    "chrome_trace_errors",
    "cpu_split",
    "jsonl_errors",
    "load_events",
    "render_summary",
    "self_times",
    "trace_errors",
    "validate_chrome_trace",
    "validate_jsonl",
]

#: the maps :func:`aggregate` returns, in the order records carry them
AGGREGATES = ("spans", "self_times", "span_counts", "counters", "gauges")


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------


def _is_chrome(text: str) -> bool:
    """Whether a trace file's text is a Chrome document (else JSONL)."""
    head = text.lstrip()[:200]
    return head.startswith("{") and '"traceEvents"' in head


def load_events(path: str | Path) -> list[dict[str, Any]]:
    """Load a span record from a JSONL run log or a Chrome trace JSON.

    JSONL files load line by line; a line that does not decode (a
    blank line, or the partial tail of a file a live query races a
    worker to) is skipped — :func:`jsonl_errors` reports every such
    line.  Chrome traces are mapped back to the event model (``X``
    events become span events with second-denominated ``ts``/``dur``
    and parent links rebuilt from containment; ``otherData`` becomes
    the ``end`` record) so one renderer serves both.
    """
    text = Path(path).read_text()
    if _is_chrome(text):
        return _events_from_chrome(json.loads(text))
    events = []
    for line in text.splitlines():
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(event, dict):
            events.append(event)
    return events


def _events_from_chrome(doc: dict[str, Any]) -> list[dict[str, Any]]:
    events: list[dict[str, Any]] = [{"type": "meta"}]
    spans = [e for e in doc.get("traceEvents", []) if e.get("ph") == "X"]
    if all("span:id" in e.get("args", {}) for e in spans):
        # chrome_doc's parent links: exact, whatever the spans' overlap
        nodes = [
            (e, e["args"]["span:id"], e["args"]["span:parent"]) for e in spans
        ]
    else:
        # Chrome X events from elsewhere carry no parent links;
        # reconstruct nesting from containment per (pid, tid),
        # processing in start order
        def track(e):
            return e.get("pid", 0), e.get("tid", 0)

        spans.sort(key=lambda e: (*track(e), e["ts"], -e["dur"]))
        nodes = []
        open_stack: dict[tuple, list[tuple[float, int]]] = {}
        for span_id, ev in enumerate(spans, 1):
            stack = open_stack.setdefault(track(ev), [])
            while stack and stack[-1][0] <= ev["ts"]:
                stack.pop()
            nodes.append((ev, span_id, stack[-1][1] if stack else 0))
            stack.append((ev["ts"] + ev["dur"], span_id))
    parent_of = {span_id: parent for _, span_id, parent in nodes}
    for ev, span_id, parent in nodes:
        depth, up = 0, parent
        while up:
            depth, up = depth + 1, parent_of.get(up, 0)
        args = {
            k: v
            for k, v in ev.get("args", {}).items()
            if not k.startswith(("counter:", "span:"))
        }
        out = {
            "type": "span",
            "name": ev["name"],
            "id": span_id,
            "parent": parent,
            "depth": depth,
            "ts": ev["ts"] / 1e6,
            "dur": ev["dur"] / 1e6,
            "pid": ev.get("pid", 0),
            "tid": ev.get("tid", 0),
        }
        if args:
            out["args"] = args
        events.append(out)
    other = doc.get("otherData", {})
    events.append(
        {
            "type": "end",
            "trace_id": other.get("trace_id", ""),
            **{key: other[key] for key in AGGREGATES if key in other},
        }
    )
    return events


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def self_times(events: list[dict[str, Any]]) -> list[float]:
    """Each span event's self time, in the order the spans appear.

    A span's self time is its duration less its children's, found by
    the children's ``parent`` links (span ids are unique within one
    run), clamped at zero.  Children are summed in event order, which
    for a tracer's own record is the order they closed.
    """
    spans = [e for e in events if e.get("type") == "span"]
    child: dict[int, float] = {}
    for e in spans:
        parent = e.get("parent", 0)
        if parent:
            child[parent] = child.get(parent, 0.0) + e["dur"]
    return [max(0.0, e["dur"] - child.get(e["id"], 0.0)) for e in spans]


def _runs(events: list[dict[str, Any]]) -> list[list[dict[str, Any]]]:
    """Split back-to-back runs: meta records after other events open one."""
    runs: list[list[dict[str, Any]]] = []
    for event in events:
        opens = event.get("type") == "meta" and (
            not runs or runs[-1][-1].get("type") != "meta"
        )
        if opens or not runs:
            runs.append([])
        runs[-1].append(event)
    return runs


def _merge_gauge(
    gauges: dict[str, dict[str, Any]], name: str, stat: dict[str, Any]
) -> None:
    """Fold one ``count``/``sum``/``min``/``max``/``last`` stat in."""
    have = gauges.get(name)
    if have is None:
        gauges[name] = dict(stat)
        return
    have["count"] += stat["count"]
    have["sum"] += stat["sum"]
    have["min"] = min(have["min"], stat["min"])
    have["max"] = max(have["max"], stat["max"])
    have["last"] = stat["last"]


def aggregate(events: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """The per-name maps of a span record (see :data:`AGGREGATES`).

    * ``spans`` — total duration per span name, summed in event order
      exactly like the engine's ``timings[phase] += duration`` loop, so
      totals equal the ``timings`` dicts bit for bit;
    * ``self_times`` — total self time per span name (:func:`self_times`);
    * ``span_counts`` — completed spans per name;
    * ``counters`` — each process's final counter values, summed over
      processes;
    * ``gauges`` — ``count``/``sum``/``min``/``max``/``last`` per gauge,
      over all processes.

    A process's final values are its counter and gauge events', or its
    ``end`` record's once it has one (its last event).  An ``end``
    record that names no pid summarises its whole run (a stitched
    timeline's, or a Chrome file's ``otherData``, which keeps no counter
    or gauge events) and stands for that run's counters and gauges.  A list may hold several
    runs back to back (a stitched export of many requests); each opens
    with its meta records, and its span ids and processes are its own.
    """
    spans: dict[str, float] = {}
    selfs: dict[str, float] = {}
    counts: dict[str, int] = {}
    counters: dict[str, Any] = {}
    gauges: dict[str, dict[str, Any]] = {}
    for run in _runs(events):
        own = iter(self_times(run))
        procs: dict[Any, dict[str, Any]] = {}
        summary = None
        for event in run:
            kind = event.get("type")
            if kind == "span":
                name = event["name"]
                spans[name] = spans.get(name, 0.0) + event["dur"]
                selfs[name] = selfs.get(name, 0.0) + next(own)
                counts[name] = counts.get(name, 0) + 1
            elif kind == "end" and "pid" not in event:
                summary = event
            elif kind == "end":
                procs[event["pid"]] = event
            elif kind in ("counter", "gauge"):
                proc = procs.setdefault(
                    event.get("pid"), {"counters": {}, "gauges": {}}
                )
                value = event["value"]
                if kind == "counter":
                    proc["counters"][event["name"]] = value
                else:
                    _merge_gauge(proc["gauges"], event["name"], {
                        "count": 1, "sum": 0.0 + value,
                        "min": value, "max": value, "last": value,
                    })
        for proc in procs.values() if summary is None else [summary]:
            for name, value in (proc.get("counters") or {}).items():
                counters[name] = (
                    counters[name] + value if name in counters else value
                )
            for name, stat in (proc.get("gauges") or {}).items():
                _merge_gauge(gauges, name, stat)
    return {
        "spans": spans,
        "self_times": selfs,
        "span_counts": counts,
        "counters": counters,
        "gauges": gauges,
    }


def cpu_split(totals: dict[str, float]) -> dict[str, float] | None:
    """The paper's Sec. 6 CPU split from ``engine.*`` span totals.

    Mirrors :meth:`MCRetimeResult.timing_fractions`: basic retiming =
    minperiod + minarea, mc overhead = build + bounds + sharing,
    relocation = relocate.  Returns None when no engine spans exist.
    """
    phases = {
        name.split(".", 1)[1]: total
        for name, total in totals.items()
        if name.startswith("engine.")
    }
    if not phases:
        return None
    total = sum(phases.values()) or 1.0
    basic = phases.get("minperiod", 0.0) + phases.get("minarea", 0.0)
    overhead = (
        phases.get("build", 0.0)
        + phases.get("bounds", 0.0)
        + phases.get("sharing", 0.0)
    )
    return {
        "basic_retiming": basic / total,
        "relocation": phases.get("relocate", 0.0) / total,
        "mc_overhead": overhead / total,
    }


# ---------------------------------------------------------------------------
# the Chrome encoder
# ---------------------------------------------------------------------------


def chrome_doc(events: list[dict[str, Any]]) -> dict[str, Any]:
    """The Chrome ``trace_event`` document of a span record.

    Spans become complete (``"ph": "X"``) events with microsecond
    timestamps (span args plus ``counter:NAME`` attributions, and the
    span's own and parent's id, unique over the document, as
    ``span:id`` / ``span:parent``), counters become ``"ph": "C"``
    counter tracks, and each pid gets a process track named by its
    latest meta record (``role (pid)``).  ``otherData`` carries the
    trace id (empty when the meta records name several) and the
    :func:`aggregate` maps, which :func:`load_events` restores as the
    ``end`` record.  The parent links let :func:`load_events` rebuild
    the span tree exactly: spans of one thread may overlap without
    nesting (several requests in one stitched file, or one request's
    admit and queue spans).
    """
    names: dict[Any, str] = {}
    trace_events: list[dict[str, Any]] = []
    trace_ids: set[str] = set()
    doc_ids = itertools.count(1)
    for run in _runs(events):
        # a run's span ids are its own: number them over the document
        ids: dict[int, int] = collections.defaultdict(doc_ids.__next__)
        ids[0] = 0
        for event in run:
            kind = event.get("type")
            pid = event.get("pid", 0)
            if kind == "meta":
                trace_ids.add(str(event.get("trace_id", "")))
                if "pid" in event:
                    names[pid] = f"{event.get('role', 'mcretime')} ({pid})"
            elif kind == "span":
                args = dict(event.get("args", {}))
                for name, value in event.get("counters", {}).items():
                    args[f"counter:{name}"] = value
                args["span:id"] = ids[event["id"]]
                args["span:parent"] = ids[event.get("parent", 0)]
                trace_events.append(
                    {
                        "name": event["name"],
                        "cat": event["name"].split(".", 1)[0],
                        "ph": "X",
                        "ts": event["ts"] * 1e6,
                        "dur": event["dur"] * 1e6,
                        "pid": pid,
                        "tid": event.get("tid", 0),
                        "args": args,
                    }
                )
            elif kind == "counter":
                trace_events.append(
                    {
                        "name": event["name"],
                        "ph": "C",
                        "ts": event["ts"] * 1e6,
                        "pid": pid,
                        "tid": 0,
                        "args": {"value": event["value"]},
                    }
                )
    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": name},
        }
        for pid, name in sorted(names.items())
    ]
    return {
        "traceEvents": metadata + trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "trace_id": trace_ids.pop() if len(trace_ids) == 1 else "",
            **aggregate(events),
        },
    }


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


class _Node:
    __slots__ = ("name", "count", "total", "self_time", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.children: dict[str, _Node] = {}


def _build_tree(events: list[dict[str, Any]]) -> _Node:
    """Aggregate span events into a name-path tree."""
    spans = [e for e in events if e.get("type") == "span"]
    by_id = {e["id"]: e for e in spans}

    def path(e: dict[str, Any]) -> tuple[str, ...]:
        names: list[str] = []
        node = e
        while node is not None:
            names.append(node["name"])
            node = by_id.get(node.get("parent", 0))
        return tuple(reversed(names))

    root = _Node("")
    for e, own in zip(spans, self_times(spans)):
        node = root
        for name in path(e):
            node = node.children.setdefault(name, _Node(name))
        node.count += 1
        node.total += e["dur"]
        node.self_time += own
    return root


def _fmt_seconds(s: float) -> str:
    if s >= 1.0:
        return f"{s:8.3f}s"
    return f"{s * 1e3:7.2f}ms"


def render_summary(
    events: list[dict[str, Any]], top: int = 5, max_depth: int = 6
) -> str:
    """The text summary tree for a list of trace events."""
    meta = next((e for e in events if e.get("type") == "meta"), {})
    end = next((e for e in events if e.get("type") == "end"), {})
    agg = aggregate(events)
    root = _build_tree(events)
    run_total = sum(n.total for n in root.children.values()) or 1.0

    lines: list[str] = []
    trace_id = end.get("trace_id") or meta.get("trace_id") or "?"
    n_spans = sum(agg["span_counts"].values())
    lines.append(
        f"trace {str(trace_id)[:16]} — {n_spans} spans, "
        f"{run_total:.3f}s total"
    )

    split = cpu_split(agg["spans"])
    if split is not None:
        lines.append(
            "cpu split        : "
            f"{100 * split['basic_retiming']:.0f}% basic retiming / "
            f"{100 * split['relocation']:.0f}% relocation / "
            f"{100 * split['mc_overhead']:.0f}% mc overhead"
        )

    lines.append("")
    lines.append("span tree (count, total, self, % of run):")

    def walk(node: _Node, depth: int) -> None:
        if depth > max_depth:
            return
        for child in sorted(
            node.children.values(), key=lambda n: n.total, reverse=True
        ):
            pct = 100.0 * child.total / run_total
            lines.append(
                f"  {'  ' * depth}{child.name:<{max(30 - 2 * depth, 8)}} "
                f"x{child.count:<5d} {_fmt_seconds(child.total)} "
                f"{_fmt_seconds(child.self_time)}  {pct:5.1f}%"
            )
            walk(child, depth + 1)

    walk(root, 0)

    if agg["self_times"] and top > 0:
        lines.append("")
        lines.append(f"top {top} spans by self-time:")
        lines.append(
            f"  {'span':<30} {'count':>6} {'total':>9} "
            f"{'self':>9} {'self %':>7}"
        )
        ranked = sorted(
            agg["self_times"].items(), key=lambda kv: kv[1], reverse=True
        )
        for name, self_time in ranked[:top]:
            lines.append(
                f"  {name:<30} {agg['span_counts'][name]:>6d} "
                f"{_fmt_seconds(agg['spans'][name])} "
                f"{_fmt_seconds(self_time)} {100.0 * self_time / run_total:6.1f}%"
            )

    counts = agg["counters"]
    if counts:
        lines.append("")
        lines.append("counters:")
        for name in sorted(counts):
            value = counts[name]
            rendered = f"{value:g}" if value != int(value) else f"{int(value)}"
            lines.append(f"  {name:<30} {rendered}")

    gauges = agg["gauges"]
    if gauges:
        lines.append("")
        lines.append("gauges (count / min / max / last):")
        for name in sorted(gauges):
            g = gauges[name]
            lines.append(
                f"  {name:<30} x{int(g.get('count', 0))} "
                f"min={g.get('min', 0):g} max={g.get('max', 0):g} "
                f"last={g.get('last', 0):g}"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# schema validation (``mcretime report --validate`` + tests)
# ---------------------------------------------------------------------------

_EVENT_TYPES = {"meta", "span", "counter", "gauge", "end"}


def jsonl_errors(path: str | Path) -> list[str]:
    """Every schema violation in a JSONL run log (empty list = valid).

    Checks the line-per-event framing and the per-type required fields.
    Unlike :func:`validate_jsonl` (which raises on the *first*
    violation), this collects all of them so ``mcretime report
    --validate`` can list everything wrong with a file at once.
    """
    path = Path(path)
    errors: list[str] = []
    events: list[dict[str, Any]] = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            errors.append(f"{path}:{lineno}: blank line inside JSONL log")
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"{path}:{lineno}: invalid JSON: {exc}")
            continue
        if not isinstance(event, dict):
            errors.append(f"{path}:{lineno}: event is not an object")
            continue
        kind = event.get("type")
        if kind not in _EVENT_TYPES:
            errors.append(f"{path}:{lineno}: unknown event type {kind!r}")
            continue
        if kind == "span":
            for field in ("name", "id", "parent", "ts", "dur", "pid", "tid"):
                if field not in event:
                    errors.append(
                        f"{path}:{lineno}: span event missing {field!r}"
                    )
            if event.get("dur", 0) < 0:
                errors.append(f"{path}:{lineno}: negative span duration")
            if isinstance(event.get("ts"), (int, float)) and event["ts"] < 0:
                # cross-process stitched traces must rebase+clamp onto
                # the common wall-clock origin; a negative start means
                # the skew correction was skipped
                errors.append(f"{path}:{lineno}: negative span start")
        elif kind in ("counter", "gauge"):
            for field in ("name", "value", "ts"):
                if field not in event:
                    errors.append(
                        f"{path}:{lineno}: {kind} event missing {field!r}"
                    )
        events.append(event)
    if not events or events[0].get("type") != "meta":
        errors.append(f"{path}: first event must be the meta record")
    if not events or events[-1].get("type") != "end":
        errors.append(f"{path}: last event must be the end record")
    return errors


def validate_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Validate a JSONL run log; returns its events.

    Raises ``ValueError`` with the first violation (line-numbered);
    use :func:`jsonl_errors` to collect every violation instead.
    """
    errors = jsonl_errors(path)
    if errors:
        raise ValueError(errors[0])
    return load_events(path)


def trace_errors(path: str | Path) -> list[str]:
    """Every schema violation in a trace file, JSONL or Chrome.

    Picks the format the way :func:`load_events` does, so a file is
    validated as what it will be read as.
    """
    if _is_chrome(Path(path).read_text()):
        return chrome_trace_errors(path)
    return jsonl_errors(path)


def chrome_trace_errors(path: str | Path) -> list[str]:
    """Every schema violation in a Chrome trace JSON (empty = valid).

    Checks what Perfetto / ``chrome://tracing`` require of the JSON
    object format: a ``traceEvents`` array whose entries carry ``ph``,
    ``name``, ``pid`` and a numeric ``ts``, with ``X`` events also
    carrying a non-negative numeric ``dur``.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return [f"{path}: invalid JSON: {exc}"]
    errors: list[str] = []
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return [f"{path}: not a trace_event JSON object"]
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        return [f"{path}: traceEvents must be a non-empty array"]
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"{path}: traceEvents[{i}] is not an object")
            continue
        for field in ("ph", "name", "pid"):
            if field not in event:
                errors.append(f"{path}: traceEvents[{i}] missing {field!r}")
        if event.get("ph") in ("X", "C", "B", "E") and not isinstance(
            event.get("ts"), (int, float)
        ):
            errors.append(f"{path}: traceEvents[{i}] missing numeric 'ts'")
        if event.get("ph") == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(
                    f"{path}: traceEvents[{i}] X event needs non-negative 'dur'"
                )
    return errors


def validate_chrome_trace(path: str | Path) -> dict[str, Any]:
    """Validate a Chrome ``trace_event`` JSON file; returns the document.

    Raises ``ValueError`` with the first violation; use
    :func:`chrome_trace_errors` to collect every violation instead.
    """
    errors = chrome_trace_errors(path)
    if errors:
        raise ValueError(errors[0])
    return json.loads(Path(path).read_text())
