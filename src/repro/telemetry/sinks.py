"""Pluggable telemetry sinks.

A sink receives every finished span from a
:class:`~repro.telemetry.tracer.Tracer` the moment it happens.  Two
concrete sinks ship with the library:

* :class:`InMemorySink` — collects span events into a plain list in
  completion order;
* :class:`JsonlSink` — appends one JSON object per event to a file,
  giving a durable, grep-able, streaming event log
  (``repro profile --events-out events.jsonl``).  Read it back with
  :func:`read_jsonl`.

Exporters that need the *whole* run (Chrome ``trace_event`` JSON) live
in :mod:`repro.telemetry.export` and operate on a finished tracer
instead.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.telemetry.tracer import Span


def _jsonable(value):
    """Coerce an attribute value to something ``json.dumps`` accepts."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    # NumPy scalars expose .item(); anything else becomes its repr.
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    return repr(value)


def span_event(span: Span) -> dict:
    """The canonical JSON-safe event dict for a finished span."""
    return {
        "type": "span",
        "name": span.name,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "depth": span.depth,
        "start_ns": span.start_ns,
        "end_ns": span.end_ns,
        "duration_ms": span.duration_ms,
        "attributes": {k: _jsonable(v) for k, v in span.attributes.items()},
    }


class Sink:
    """Base sink (default no-op)."""

    def on_span(self, span: Span) -> None:
        pass


class InMemorySink(Sink):
    """Preserves the span event stream in completion order."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def on_span(self, span: Span) -> None:
        self.events.append(span_event(span))


class JsonlSink(Sink):
    """Streams events to ``path`` as JSON Lines; close when done."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._fh = open(self.path, "w", encoding="utf-8")

    def write(self, event: dict) -> None:
        """Append one JSON-safe event (spans arrive via :meth:`on_span`;
        callers append others, e.g. ``repro profile``'s counter
        deltas)."""
        self._fh.write(json.dumps(event) + "\n")

    def on_span(self, span: Span) -> None:
        self.write(span_event(span))

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def read_jsonl(path) -> list[dict]:
    """Parse a :class:`JsonlSink` event log back into event dicts."""
    events = []
    with open(Path(path), encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
