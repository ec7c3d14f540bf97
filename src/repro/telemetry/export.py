"""Exporters over a finished :class:`~repro.telemetry.tracer.Tracer`.

* :func:`chrome_trace` — the Chrome ``trace_event`` JSON object format
  (a ``traceEvents`` list of complete ``"X"`` span events plus ``"M"``
  metadata), loadable directly in ``chrome://tracing`` or
  https://ui.perfetto.dev; spans render one track per recording
  thread (``tid``), so a concurrent serve shows client, worker and
  scrape threads side by side;
* :func:`validate_chrome_trace` — a structural validator for that
  format, shared by the test suite and the CI smoke job;
* :func:`parse_prometheus_text` / :func:`validate_prometheus_text` —
  parser and structural validator for the exposition format (used by
  the ``repro top`` dashboard and the observability CI smoke) of
  :meth:`MetricsRegistry.prometheus_text
  <repro.telemetry.metrics.MetricsRegistry.prometheus_text>`;
* :func:`render_span_tree` — indented human-readable tree with
  durations and attributes, used by ``repro profile`` and the
  resilience :class:`~repro.resilience.reporting.FailureReport`.
"""

from __future__ import annotations

import json
import math
import re

from repro.errors import TelemetryError
from repro.telemetry.sinks import _jsonable
from repro.telemetry.tracer import Span, Tracer

#: Chrome trace-event phases this library emits.
_EMITTED_PHASES = ("X", "M")


def _base_ns(tracer: Tracer) -> int:
    starts = [s.start_ns for s in tracer.spans]
    return min(starts) if starts else tracer.created_ns


def _tid_map(tracer: Tracer) -> dict[int, int]:
    """Compact 1-based Chrome tids in first-span order per thread."""
    mapping: dict[int, int] = {}
    for span in sorted(tracer.spans,
                       key=lambda s: (s.start_ns, s.span_id)):
        if span.tid not in mapping:
            mapping[span.tid] = len(mapping) + 1
    return mapping or {0: 1}


def chrome_trace(tracer: Tracer, process_name: str = "repro") -> dict:
    """Export a tracer to the Chrome ``trace_event`` JSON object format.

    Spans become complete (``"X"``) events with microsecond ``ts``
    (relative to the first event) and ``dur``; span attributes travel in
    ``args``.  Each recording thread becomes its own ``tid`` track
    (named via ``thread_name`` metadata).
    """
    base = _base_ns(tracer)
    tids = _tid_map(tracer)
    events: list[dict] = [{
        "name": "process_name",
        "ph": "M",
        "pid": 1,
        "tid": 1,
        "ts": 0,
        "args": {"name": process_name},
    }]
    for raw, tid in tids.items():
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "ts": 0,
            "args": {"name": f"thread-{raw}"},
        })
    for span in sorted(tracer.spans, key=lambda s: (s.start_ns, s.span_id)):
        args = {k: _jsonable(v) for k, v in span.attributes.items()}
        args["depth"] = span.depth
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append({
            "name": span.name,
            "cat": "repro",
            "ph": "X",
            "ts": (span.start_ns - base) / 1000.0,
            "dur": span.duration_ns / 1000.0,
            "pid": 1,
            "tid": tids.get(span.tid, 1),
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(obj) -> None:
    """Structurally validate a Chrome trace-event JSON object.

    Checks the subset of the trace-event format this library emits
    (and that ``chrome://tracing`` / Perfetto require to load a file):
    a ``traceEvents`` list whose members carry ``name``/``ph``/``pid``,
    numeric non-negative ``ts``, and, for complete (``"X"``) events, a
    numeric non-negative ``dur``.  The object must also be JSON
    serialisable.  Raises :class:`~repro.errors.TelemetryError` on the
    first violation.
    """
    if not isinstance(obj, dict):
        raise TelemetryError(
            f"trace must be a JSON object, got {type(obj).__name__}"
        )
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        raise TelemetryError("trace must have a 'traceEvents' list")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise TelemetryError(f"traceEvents[{i}] is not an object")
        for key, types in (("name", str), ("ph", str), ("pid", int)):
            if not isinstance(event.get(key), types):
                raise TelemetryError(
                    f"traceEvents[{i}] field {key!r} missing or not "
                    f"{types.__name__}: {event.get(key)!r}"
                )
        ph = event["ph"]
        if ph not in _EMITTED_PHASES:
            raise TelemetryError(
                f"traceEvents[{i}] has unexpected phase {ph!r}"
            )
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise TelemetryError(
                f"traceEvents[{i}] 'ts' must be a non-negative number, "
                f"got {ts!r}"
            )
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise TelemetryError(
                    f"traceEvents[{i}] complete event needs a "
                    f"non-negative 'dur', got {dur!r}"
                )
        if "args" in event and not isinstance(event["args"], dict):
            raise TelemetryError(
                f"traceEvents[{i}] 'args' must be an object"
            )
    try:
        json.dumps(obj)
    except (TypeError, ValueError) as exc:
        raise TelemetryError(
            f"trace is not JSON-serialisable: {exc}"
        ) from exc


def validate_span_tree(obj) -> dict[int, list[int]]:
    """Validate the span *forest* inside a Chrome trace export.

    Beyond :func:`validate_chrome_trace`'s per-event checks, this
    verifies the parent/child structure the tracer recorded: every
    ``"X"`` event carries a ``span_id``, every ``parent_id`` refers to
    another exported span, no span is its own ancestor, and parents
    (wall-clock) contain their children's start.  Returns the
    adjacency map ``{span_id: [child ids]}`` so callers can make
    connectivity assertions (e.g. "one request = one connected tree").
    Raises :class:`~repro.errors.TelemetryError` on violation.
    """
    validate_chrome_trace(obj)
    spans = {}
    for i, event in enumerate(obj["traceEvents"]):
        if event.get("ph") != "X":
            continue
        args = event.get("args", {})
        sid = args.get("span_id")
        if not isinstance(sid, int):
            raise TelemetryError(
                f"traceEvents[{i}] 'X' event lacks an integer "
                f"args.span_id: {sid!r}"
            )
        if sid in spans:
            raise TelemetryError(f"duplicate span_id {sid}")
        spans[sid] = (args.get("parent_id"), event)
    children: dict[int, list[int]] = {sid: [] for sid in spans}
    for sid, (parent, event) in spans.items():
        if parent is None:
            continue
        if parent not in spans:
            raise TelemetryError(
                f"span {sid} ({event['name']!r}) has unknown parent "
                f"{parent}"
            )
        children[parent].append(sid)
    # Cycle check: walk each chain to a root.
    for sid in spans:
        seen = set()
        node = sid
        while node is not None:
            if node in seen:
                raise TelemetryError(
                    f"span parent chain from {sid} contains a cycle"
                )
            seen.add(node)
            node = spans[node][0]
    return children


def write_chrome_trace(tracer: Tracer, path,
                       process_name: str = "repro") -> dict:
    """Export, validate and write the Chrome trace to ``path``."""
    obj = chrome_trace(tracer, process_name)
    validate_chrome_trace(obj)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
    return obj


#: ``name{labels} value`` sample line (exposition format 0.0.4).
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<ts>-?\d+))?$"
)
_LABEL_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)
_VALID_TYPES = frozenset(
    {"counter", "gauge", "histogram", "summary", "untyped"}
)


def _parse_value(raw: str) -> float:
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    if raw == "NaN":
        return math.nan
    return float(raw)


def parse_prometheus_text(text: str) -> dict[str, dict]:
    """Parse Prometheus text exposition into metric families.

    Returns ``{metric_name: {"type": kind, "samples":
    [(labels_dict, value), ...]}}`` where ``metric_name`` is the
    *sample* name (so a histogram family ``x`` contributes
    ``x_bucket`` / ``x_sum`` / ``x_count`` entries typed
    ``histogram``).  Raises :class:`~repro.errors.TelemetryError` on
    any malformed line — this doubles as the format validator for the
    CI smoke job (:func:`validate_prometheus_text`).
    """
    families: dict[str, dict] = {}
    declared: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.rstrip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                raise TelemetryError(
                    f"line {lineno}: malformed TYPE line: {line!r}"
                )
            _, _, name, kind = parts
            if kind not in _VALID_TYPES:
                raise TelemetryError(
                    f"line {lineno}: unknown metric type {kind!r}"
                )
            declared[name] = kind
            continue
        if line.startswith("#"):
            continue   # HELP and comments
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise TelemetryError(
                f"line {lineno}: malformed sample line: {line!r}"
            )
        name = m.group("name")
        labels: dict[str, str] = {}
        raw_labels = m.group("labels")
        if raw_labels:
            consumed = 0
            for lm in _LABEL_RE.finditer(raw_labels):
                labels[lm.group("key")] = (
                    lm.group("value")
                    .replace('\\"', '"')
                    .replace("\\n", "\n")
                    .replace("\\\\", "\\")
                )
                consumed += len(lm.group(0))
            stripped = re.sub(r"[,\s]", "", raw_labels)
            rebuilt = len(stripped)
            matched = sum(
                len(re.sub(r"[,\s]", "", lm.group(0)))
                for lm in _LABEL_RE.finditer(raw_labels)
            )
            if matched != rebuilt:
                raise TelemetryError(
                    f"line {lineno}: malformed labels: "
                    f"{raw_labels!r}"
                )
        try:
            value = _parse_value(m.group("value"))
        except ValueError as exc:
            raise TelemetryError(
                f"line {lineno}: bad sample value "
                f"{m.group('value')!r}"
            ) from exc
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and \
                    name[: -len(suffix)] in declared:
                base = name[: -len(suffix)]
                break
        kind = declared.get(base, "untyped")
        family = families.setdefault(
            name, {"type": kind, "samples": []}
        )
        family["samples"].append((labels, value))
    return families


def validate_prometheus_text(text: str) -> dict[str, dict]:
    """Validate exposition text; returns the parsed families.

    A convenience alias of :func:`parse_prometheus_text` whose name
    states the intent at call sites (tests, CI smoke).
    """
    return parse_prometheus_text(text)


def _format_attrs(span: Span, keys=None) -> str:
    items = span.attributes.items()
    if keys is not None:
        items = [(k, v) for k, v in items if k in keys]
    if not items:
        return ""
    body = ", ".join(f"{k}={_jsonable(v)}" for k, v in items)
    return f"  [{body}]"


def render_span_tree(tracer: Tracer, attr_keys=None) -> str:
    """Indented tree of all finished spans with durations.

    ``attr_keys`` restricts which attributes are shown (all by
    default).  Orphan spans (parent never finished) render as roots.
    """
    finished = {s.span_id for s in tracer.spans}
    by_parent: dict[int | None, list[Span]] = {}
    for span in tracer.spans:
        parent = (span.parent_id
                  if span.parent_id in finished else None)
        by_parent.setdefault(parent, []).append(span)

    lines: list[str] = []

    def emit(span: Span, indent: int) -> None:
        lines.append(
            f"{'  ' * indent}{span.name}  {span.duration_ms:.3f} ms"
            f"{_format_attrs(span, attr_keys)}"
        )
        for child in sorted(by_parent.get(span.span_id, ()),
                            key=lambda s: (s.start_ns, s.span_id)):
            emit(child, indent + 1)

    for root in sorted(by_parent.get(None, ()),
                       key=lambda s: (s.start_ns, s.span_id)):
        emit(root, 0)
    return "\n".join(lines)
