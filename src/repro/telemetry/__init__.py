"""repro.telemetry — spans, metrics, SLOs and a flight recorder.

The observability layer of the reproduction, in four tiers:

* **tracer** (:class:`Tracer`) — nestable wall-clock spans with
  thread-local nesting, cross-thread hand-off (:func:`begin_span` /
  :func:`end_span` / :func:`request_scope`), pluggable sinks
  (in-memory, JSONL) and the Chrome ``trace_event`` exporter;
* **request context** (:class:`RequestContext`) — the identity one
  serving request carries across threads; while bound, module-level
  :func:`span` tags every span with the ``request_id``;
* **metrics** (:class:`MetricsRegistry`) — the one counter store:
  labeled counters, gauges and log-bucketed mergeable
  :class:`Histogram` instruments, exposable over HTTP
  (:class:`MetricsHTTPServer`) and renderable as a terminal dashboard
  (:func:`render_dashboard`, ``repro top``);
* **SLO + flight recorder** (:class:`SLOMonitor`,
  :class:`FlightRecorder`) — rolling-window objectives with
  error-budget burn rate, and a bounded ring of structured events that
  dumps a post-mortem bundle on breach.

See ``docs/observability.md``.

Instrumented library code calls the *module-level* :func:`span`,
which dispatches to the process-wide active tracer; with none (the
default) each call returns a shared no-op span.  Counts are always on:
:func:`count` and :func:`gauge` write to the process-wide
:data:`REGISTRY` (components with a ``stats()`` view use their
planner's registry), and :func:`counting` reads what a block moved:

>>> from repro import telemetry
>>> tracer = telemetry.Tracer()
>>> with telemetry.use_tracer(tracer), telemetry.counting() as counts:
...     with telemetry.span("phase", n=64) as sp:
...         telemetry.count("things_done_total")
>>> [s.name for s in tracer.spans]
['phase']
>>> counts
{'things_done_total': 1}

``python -m repro profile <perm>`` wires this up end to end and writes
the exportable artefacts; ``python -m repro serve-demo --concurrent``
adds the serving metrics, ``/metrics`` endpoint and flight recorder.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.telemetry.context import (
    RequestContext,
    current_context,
    set_context,
    use_context,
)
from repro.telemetry.dashboard import histogram_series, render_dashboard
from repro.telemetry.export import (
    chrome_trace,
    parse_prometheus_text,
    render_span_tree,
    validate_chrome_trace,
    validate_prometheus_text,
    validate_span_tree,
    write_chrome_trace,
)
from repro.telemetry.httpd import MetricsHTTPServer
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    quantile_from_buckets,
)
from repro.telemetry.recorder import FlightRecorder
from repro.telemetry.sinks import (
    InMemorySink,
    JsonlSink,
    Sink,
    read_jsonl,
    span_event,
)
from repro.telemetry.slo import SLO, SLOMonitor
from repro.telemetry.tracer import NULL_SPAN, NullSpan, Span, Tracer

#: The process-wide active tracer; ``None`` means tracing is off.
_ACTIVE: Tracer | None = None

#: The process-wide registry behind :func:`count` and :func:`gauge`
#: (always on).
REGISTRY = MetricsRegistry()


def get_tracer() -> Tracer | None:
    """The currently active tracer, or ``None`` when telemetry is off."""
    return _ACTIVE


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` as the active tracer; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


@contextmanager
def use_tracer(tracer: Tracer | None):
    """Activate ``tracer`` for the duration of the ``with`` block."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def span(name: str, **attributes):
    """A span on the active tracer (shared no-op span when inactive).

    When the calling thread has a bound :class:`RequestContext`
    (:func:`use_context` / :func:`request_scope`), the span is tagged
    with its ``request_id`` automatically.
    """
    tracer = _ACTIVE
    if tracer is None:
        return NULL_SPAN
    ctx = current_context()
    if ctx is not None and "request_id" not in attributes:
        attributes["request_id"] = ctx.request_id
    return tracer.span(name, **attributes)


def begin_span(name: str, parent=None, **attributes):
    """Start a *detached* span on the active tracer.

    Returns :data:`NULL_SPAN` when telemetry is off, so call sites can
    unconditionally hold the result and later pass it to
    :func:`end_span`.  ``parent`` may be another detached span (or
    ``None`` to nest under the calling thread's current span).
    """
    tracer = _ACTIVE
    if tracer is None:
        return NULL_SPAN
    ctx = current_context()
    if ctx is not None and "request_id" not in attributes:
        attributes["request_id"] = ctx.request_id
    if isinstance(parent, NullSpan):
        parent = None
    return tracer.begin(name, parent=parent, **attributes)


def end_span(span_obj, **attributes):
    """Finish a span from :func:`begin_span` (no-op for the null span)."""
    tracer = _ACTIVE
    if tracer is None or isinstance(span_obj, NullSpan):
        return span_obj
    return tracer.end(span_obj, **attributes)


@contextmanager
def request_scope(ctx: RequestContext | None):
    """Activate a request's context *and* span on the calling thread.

    The worker-side half of cross-thread propagation: binds ``ctx``
    thread-locally (so :func:`span` tags ``request_id``) and adopts the
    request's root span onto this thread's stack (so spans opened here
    become its children).  A ``None`` context, inactive tracer, or
    context without a real root span each degrade gracefully to
    whatever subset applies.
    """
    tracer = _ACTIVE
    root = ctx.span if ctx is not None else None
    adoptable = (
        tracer is not None
        and isinstance(root, Span)
    )
    with use_context(ctx):
        if adoptable:
            with tracer.adopt(root):
                yield ctx
        else:
            yield ctx


#: :func:`count` binds each unlabeled child once and reuses it, so an
#: unlabeled site costs one dict hit plus the locked increment.
_UNLABELED: dict[str, Counter] = {}


def count(name: str, n: float = 1, **labels) -> None:
    """Increment counter ``name{labels}`` in :data:`REGISTRY`."""
    child = None if labels else _UNLABELED.get(name)
    if child is None:
        child = REGISTRY.counter(name, **labels)
        if not labels:
            _UNLABELED[name] = child
    child.inc(n)


def gauge(name: str, value: float, **labels) -> None:
    """Set gauge ``name{labels}`` in :data:`REGISTRY`."""
    REGISTRY.gauge(name, **labels).set(value)


@contextmanager
def counting():
    """Yield a dict that, once the ``with`` block exits, maps every
    :data:`REGISTRY` counter series the block moved to its increment."""
    deltas: dict[str, float] = {}
    before = REGISTRY.counter_values()
    try:
        yield deltas
    finally:
        for series, value in REGISTRY.counter_values().items():
            moved = value - before.get(series, 0)
            if moved:
                deltas[series] = moved


__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "JsonlSink",
    "MetricsHTTPServer",
    "MetricsRegistry",
    "NULL_SPAN",
    "NullSpan",
    "REGISTRY",
    "RequestContext",
    "SLO",
    "SLOMonitor",
    "Sink",
    "Span",
    "Tracer",
    "begin_span",
    "chrome_trace",
    "count",
    "counting",
    "current_context",
    "end_span",
    "gauge",
    "get_tracer",
    "histogram_series",
    "parse_prometheus_text",
    "quantile_from_buckets",
    "read_jsonl",
    "render_dashboard",
    "render_span_tree",
    "request_scope",
    "set_context",
    "set_tracer",
    "span",
    "span_event",
    "use_context",
    "use_tracer",
    "validate_chrome_trace",
    "validate_prometheus_text",
    "validate_span_tree",
    "write_chrome_trace",
]
