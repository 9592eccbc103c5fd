"""Render and validate saved traces: the text summary tree.

Consumes either a live tracer's event list, a JSONL run log, or a
Chrome ``trace_event`` JSON file, and renders the human-readable
summary: the span tree with per-node call counts / total / self time
and percentage of the run, the Sec. 6 CPU-split line (derived from the
``engine.*`` phase spans exactly like
:meth:`repro.mcretime.MCRetimeResult.timing_fractions`), the top spans
by self-time, and the iteration counters.  This is what ``mcretime
report`` and the CLI's ``-v`` summary print, so the paper's CPU-split
table can be regenerated from any archived run.

Also home to the schema validators ``mcretime report --validate`` and
the tests use: :func:`validate_jsonl` and :func:`validate_chrome_trace`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

__all__ = [
    "chrome_trace_errors",
    "cpu_split",
    "jsonl_errors",
    "load_events",
    "render_summary",
    "span_totals",
    "validate_chrome_trace",
    "validate_jsonl",
]


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def load_events(path: str | Path) -> list[dict[str, Any]]:
    """Load trace events from a JSONL run log or a Chrome trace JSON.

    JSONL files load as-is (one event per line).  Chrome traces are
    mapped back to the internal event model (``X`` events become span
    events with second-denominated ``ts``/``dur``; the ``otherData``
    aggregates become an ``end`` event) so one renderer serves both.
    """
    path = Path(path)
    text = path.read_text()
    stripped = text.lstrip()
    if stripped.startswith("{") and '"traceEvents"' in stripped[:200]:
        return _events_from_chrome(json.loads(text))
    events = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            events.append(json.loads(line))
    return events


def _events_from_chrome(doc: dict[str, Any]) -> list[dict[str, Any]]:
    events: list[dict[str, Any]] = [{"type": "meta"}]
    next_id = 0
    # Chrome X events carry no parent links; reconstruct nesting from
    # containment per (pid, tid), processing in start order
    spans = [e for e in doc.get("traceEvents", []) if e.get("ph") == "X"]
    spans.sort(key=lambda e: (e.get("pid", 0), e.get("tid", 0), e["ts"], -e["dur"]))
    open_stack: dict[tuple, list[tuple[float, int]]] = {}
    for ev in spans:
        key = (ev.get("pid", 0), ev.get("tid", 0))
        stack = open_stack.setdefault(key, [])
        start, end = ev["ts"], ev["ts"] + ev["dur"]
        while stack and stack[-1][0] <= start:
            stack.pop()
        next_id += 1
        parent = stack[-1][1] if stack else 0
        args = {
            k: v
            for k, v in ev.get("args", {}).items()
            if not k.startswith("counter:")
        }
        out = {
            "type": "span",
            "name": ev["name"],
            "id": next_id,
            "parent": parent,
            "depth": len(stack),
            "ts": start / 1e6,
            "dur": ev["dur"] / 1e6,
            "pid": ev.get("pid", 0),
            "tid": ev.get("tid", 0),
        }
        if args:
            out["args"] = args
        events.append(out)
        stack.append((end, next_id))
    other = doc.get("otherData", {})
    events.append(
        {
            "type": "end",
            "trace_id": other.get("trace_id", ""),
            "counters": other.get("counters", {}),
            "gauges": other.get("gauges", {}),
        }
    )
    return events


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def span_totals(events: list[dict[str, Any]]) -> dict[str, float]:
    """Per-name span duration totals, summed in event (file) order."""
    totals: dict[str, float] = {}
    for event in events:
        if event.get("type") == "span":
            name = event["name"]
            totals[name] = totals.get(name, 0.0) + event["dur"]
    return totals


def counters(events: list[dict[str, Any]]) -> dict[str, float]:
    """Final counter values (prefers the ``end`` record when present)."""
    out: dict[str, float] = {}
    for event in events:
        kind = event.get("type")
        if kind == "counter":
            out[event["name"]] = event["value"]
        elif kind == "end" and event.get("counters"):
            out.update(event["counters"])
    return out


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
    child_time: dict[int, float] = {}
    for e in spans:
        parent = e.get("parent", 0)
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + e["dur"]

    def path(e: dict[str, Any]) -> tuple[str, ...]:
        names: list[str] = []
        node = e
        while node is not None:
            names.append(node["name"])
            node = by_id.get(node.get("parent", 0))
        return tuple(reversed(names))

    root = _Node("")
    for e in spans:
        node = root
        for name in path(e):
            node = node.children.setdefault(name, _Node(name))
        node.count += 1
        node.total += e["dur"]
        node.self_time += e.get("self", e["dur"] - child_time.get(e["id"], 0.0))
    return root


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


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
    totals = span_totals(events)
    root = _build_tree(events)
    run_total = sum(n.total for n in root.children.values()) or 1.0

    lines: list[str] = []
    trace_id = end.get("trace_id") or meta.get("trace_id") or "?"
    n_spans = sum(1 for e in events if e.get("type") == "span")
    lines.append(
        f"trace {str(trace_id)[:16]} — {n_spans} spans, "
        f"{run_total:.3f}s total"
    )

    split = cpu_split(totals)
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

    # top spans by aggregate self-time (flattened over the tree)
    flat: dict[str, float] = {}

    def collect(node: _Node) -> None:
        for child in node.children.values():
            flat[child.name] = flat.get(child.name, 0.0) + child.self_time
            collect(child)

    collect(root)
    if flat and top > 0:
        # aggregate count/total alongside self-time for the table
        agg: dict[str, tuple[int, float]] = {}

        def tally(node: _Node) -> None:
            for child in node.children.values():
                count, total = agg.get(child.name, (0, 0.0))
                agg[child.name] = (count + child.count, total + child.total)
                tally(child)

        tally(root)
        lines.append("")
        lines.append(f"top {top} spans by self-time:")
        lines.append(
            f"  {'span':<30} {'count':>6} {'total':>9} "
            f"{'self':>9} {'self %':>7}"
        )
        ranked = sorted(flat.items(), key=lambda kv: kv[1], reverse=True)
        for name, self_time in ranked[:top]:
            count, total = agg.get(name, (0, 0.0))
            lines.append(
                f"  {name:<30} {count:>6d} {_fmt_seconds(total)} "
                f"{_fmt_seconds(self_time)} {100.0 * self_time / run_total:6.1f}%"
            )

    counts = counters(events)
    if counts:
        lines.append("")
        lines.append("counters:")
        for name in sorted(counts):
            value = counts[name]
            rendered = f"{value:g}" if value != int(value) else f"{int(value)}"
            lines.append(f"  {name:<30} {rendered}")

    gauges = end.get("gauges") or {}
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
