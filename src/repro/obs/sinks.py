"""The streaming sink: a run's span record as a JSONL file.

Sinks receive every event as it is recorded (``event``) and get one
``close(tracer)`` call when the tracer shuts down.  :class:`JsonlSink`
writes one JSON object per line as events happen (crash-safe: the file
is valid up to the last complete line); the first line is the ``meta``
record, the last the ``end`` record with the run's aggregate maps.

Everything else is derived from the tracer's own record,
``Tracer.events``, once the run is over: ``obs.session(trace=...)``
writes the Chrome trace with :func:`repro.obs.report.chrome_doc`.  The
telemetry bus's :class:`~repro.obs.bus.BusSink` forwards the same
event dicts live.  Anything implementing ``event``/``close`` can be
added to ``Tracer.sinks`` — the tracer never looks inside its sinks.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, TextIO

__all__ = ["JsonlSink"]


class JsonlSink:
    """Stream events to a file, one JSON object per line."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh: TextIO | None = None

    def _handle(self) -> TextIO:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("w")
        return self._fh

    def event(self, event: dict[str, Any]) -> None:
        self._handle().write(json.dumps(event, sort_keys=True) + "\n")

    def close(self, tracer) -> None:
        if self._fh is not None:
            self._fh.flush()
            self._fh.close()
            self._fh = None
