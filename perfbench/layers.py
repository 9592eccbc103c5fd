"""Per-layer timing from the benchmark's own files.

Each layer's public entry point is wrapped under the name its callers
bind (the attribute the calling module looks up at call time), for the
duration of a traced pass only; the program itself is not changed.
Spans (name, start, end, parent, operation index) are kept in memory
and written as Chrome trace-event JSON when the run ends.

A layer's self time (``busy_s``) is its spans' durations minus the part
covered by the wrapped entry points they call.  ``share`` divides it by
the wall time of the traced work (set-up plus every operation), so the
shares of all entries plus the benchmark's own glue sum to one.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from pathlib import Path

#: layer entry -> the bindings its callers resolve, as ``module:attr``
#: (``module:Class.method`` for a class whose work is in its methods)
ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "synth.generate": ("repro.synth.designs:generate", "repro.synth:build_datapath"),
    "opt.optimize": ("repro.flows.script:optimize",),
    "techmap.map_luts": ("repro.flows.script:map_luts",),
    "techmap.remap": ("repro.flows.script:remap",),
    "timing.analyze": ("repro.flows.script:analyze",),
    "flows.flow": (
        "repro.flows:retime_flow",
        "repro.flows:pipeline_flow",
        "repro.flows:cslow_flow",
    ),
    "pipeline.transform": (
        "repro.flows.script:insert_pipeline_layers",
        "repro.flows.script:cslow_transform",
    ),
    "mcretime.mc_retime": ("repro.flows.script:mc_retime",),
    "graph.build_mcgraph": ("repro.mcretime.engine:build_mcgraph",),
    "mcretime.classify": (
        "repro.mcretime.engine:Classifier.__init__",
        "repro.mcretime.engine:Classifier.classify",
    ),
    "mcretime.bounds": ("repro.mcretime.engine:compute_bounds",),
    "mcretime.sharing": ("repro.mcretime.engine:apply_sharing_transform",),
    "retime.min_period": ("repro.mcretime.engine:min_period",),
    "retime.min_area": ("repro.mcretime.engine:min_area",),
    "mcretime.relocate": ("repro.mcretime.engine:relocate",),
    "verify.check": (
        "repro.flows.script:check_sequential",
        "repro.flows.script:check_pipeline",
        "repro.flows.script:check_cslow",
    ),
}

#: program counters read from an ``obs.session()`` around each operation
COUNTERS = (
    "minarea.rounds",
    "mcf.augmentations",
    "delta.sweeps",
    "delta.refreshes",
    "delta.refresh_full",
    "bf.rounds",
    "bf.solves",
    "feas.passes",
    "minperiod.probes",
    "relocate.local_steps",
    "relocate.conflicts",
    "relocate.deadlocks",
    "verify.lane_cycles",
)


class GuardError(RuntimeError):
    """An entry point is gone, or recorded no calls where it must."""


class Recorder:
    """Installs the wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        #: [name, start, end, parent index (-1 = root), operation index]
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: operation index stamped on new spans (-1 = set-up)
        self.op = -1
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every binding; raise :class:`GuardError` naming a missing one."""
        for name, bindings in ENTRY_POINTS.items():
            for binding in bindings:
                module_name, _, path = binding.partition(":")
                try:
                    owner = importlib.import_module(module_name)
                    *outer, attr = path.split(".")
                    for part in outer:
                        owner = getattr(owner, part)
                    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                except (ImportError, AttributeError, KeyError):
                    self.uninstall()
                    raise GuardError(
                        f"entry point {name}: {module_name}.{path} is gone"
                    ) from None
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def root(self, name: str, op: int):
        """A root span for work the benchmark starts (set-up, an operation)."""
        self.op = op
        span = [name, time.perf_counter(), 0.0, -1, op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    # -- derived numbers -------------------------------------------------

    def self_times(self) -> dict[str, tuple[float, int]]:
        """entry -> (self seconds, calls) over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals.setdefault(name, [0.0, 0])
            entry[0] += end - start - child[i]
            entry[1] += 1
        return {k: (v[0], v[1]) for k, v in totals.items()}

    def traced_wall(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)


def write_chrome(spans: list[list], path: Path) -> None:
    """Chrome trace-event JSON of *spans* (``mcretime report`` reads it)."""
    t0 = min((s[1] for s in spans), default=0.0)
    events = [
        {
            "ph": "X",
            "name": name,
            "cat": name.split(".")[0],
            "pid": 1,
            "tid": 1,
            "ts": (start - t0) * 1e6,
            "dur": (end - start) * 1e6,
            "args": {"op": op, "parent": parent},
        }
        for name, start, end, parent, op in spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def layer_metrics(recorder: Recorder, required: tuple[str, ...]) -> dict[str, float]:
    """``<entry>.busy_s|calls|share`` for every entry point.

    Raises :class:`GuardError` when an entry in *required* recorded no
    calls, so a refactor cannot silently zero a layer.
    """
    times = recorder.self_times()
    silent = [name for name in required if times.get(name, (0.0, 0))[1] == 0]
    if silent:
        raise GuardError(
            "entry points recorded zero calls: " + ", ".join(sorted(silent))
        )
    wall = recorder.traced_wall() or 1.0
    metrics: dict[str, float] = {}
    for name in ENTRY_POINTS:
        busy, calls = times.get(name, (0.0, 0))
        metrics[f"{name}.busy_s"] = busy
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.share"] = busy / wall
    return metrics


def counter_metrics(counters: dict[str, float], ops: int, resolved_ops: int) -> dict[str, float]:
    """Program counters of one pass plus the ratios derived from them."""
    metrics = {name: counters.get(name, 0) for name in COUNTERS if name != "delta.refreshes"}
    refreshes = counters.get("delta.refreshes", 0)
    metrics["delta.incremental_share"] = (
        1.0 - counters.get("delta.refresh_full", 0) / refreshes if refreshes else 0.0
    )
    metrics["mcretime.resolve_share"] = resolved_ops / ops if ops else 0.0
    return metrics
