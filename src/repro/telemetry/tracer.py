"""Structured spans — the tracing core.

A :class:`Tracer` records **spans**: nestable wall-clock intervals
with attributes, opened with ``with tracer.span("coloring.euler",
edges=n):``.  Nesting is tracked with a **thread-local** stack, so
every finished :class:`Span` knows its parent and depth and the whole
run renders as a tree (or exports to Chrome ``trace_event`` JSON, see
:mod:`repro.telemetry.export`) even when many threads record spans
concurrently.  Counts are not the tracer's job: they live in a
:class:`~repro.telemetry.metrics.MetricsRegistry`, which works with or
without a tracer.

Cross-thread requests (a serving request is admitted on the client
thread and executed on a worker thread) are supported by three
primitives on top of the ``with``-block span:

* :meth:`Tracer.begin` — start a *detached* span that is not pushed
  onto any thread's stack (the request-root span that outlives the
  submitting call);
* :meth:`Tracer.adopt` — push an already-open span onto the *calling*
  thread's stack for the duration of a ``with`` block, so spans opened
  there become its children (the worker-side context hand-off);
* :meth:`Tracer.end` — finish a detached span from any thread.

Everything is collected in memory on the tracer itself (the in-memory
collector of the sink family); additional :class:`~repro.telemetry.sinks.Sink`
objects can stream the same events elsewhere (e.g. a JSONL event log).

The module is deliberately zero-dependency (stdlib only) so the
instrumented hot path — :mod:`repro.core`, :mod:`repro.coloring`,
:mod:`repro.machine` — never pays an import cost for it.  The
*inactive* path is a :class:`NullSpan` singleton: entering and exiting
it does nothing, so uninstrumented runs pay one guarded attribute
check per site (see :func:`repro.telemetry.span`).
"""

from __future__ import annotations

import threading
import time


class Span:
    """One timed, attributed interval in a :class:`Tracer`.

    Spans are context managers: the interval starts at ``__enter__``
    and ends at ``__exit__``; attributes can be attached at creation
    (``tracer.span(name, key=value)``) or later via :meth:`set` —
    the pattern used to bridge model-time numbers (``model_time``,
    ``model_rounds``) into the wall-clock view after simulation.

    ``tid`` is the identity of the thread the span *started* on, so
    exporters can render one track per thread.
    """

    __slots__ = ("name", "span_id", "parent_id", "depth", "tid",
                 "start_ns", "end_ns", "attributes", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, attributes: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attributes = dict(attributes)
        self.span_id = -1
        self.parent_id: int | None = None
        self.depth = 0
        self.tid = 0
        self.start_ns = 0
        self.end_ns: int | None = None

    def set(self, **attributes) -> "Span":
        """Attach (or overwrite) attributes; returns ``self``."""
        self.attributes.update(attributes)
        return self

    @property
    def duration_ns(self) -> int:
        end = self.end_ns if self.end_ns is not None else self.start_ns
        return end - self.start_ns

    @property
    def duration_ms(self) -> float:
        return self.duration_ns / 1e6

    def __enter__(self) -> "Span":
        self._tracer._start(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None and "error" not in self.attributes:
            self.attributes["error"] = exc_type.__name__
        self._tracer._finish(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "open" if self.end_ns is None else f"{self.duration_ms:.3f} ms"
        return f"Span({self.name!r}, {state}, depth={self.depth})"


class NullSpan:
    """Reusable do-nothing span — the inactive-tracer fast path.

    Stateless, hence safe to share and re-enter; every method is a
    no-op so instrumentation sites cost a function call and a guarded
    attribute check when telemetry is off.
    """

    __slots__ = ()

    duration_ns = 0
    duration_ms = 0.0
    name = ""
    attributes: dict = {}

    def set(self, **attributes) -> "NullSpan":
        return self

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: The shared no-op span handed out when no tracer is active.
NULL_SPAN = NullSpan()


class Tracer:
    """In-memory telemetry collector with optional streaming sinks.

    Thread-safe: span nesting is tracked per thread (thread-local
    stacks) and span-id allocation and the finished-span list are
    lock-guarded, so concurrent server workers can record freely
    without corrupting each other's parent/child trees.

    Parameters
    ----------
    sinks:
        Iterable of :class:`~repro.telemetry.sinks.Sink` objects that
        receive every finished span as it happens (the tracer itself
        always collects in memory).
    clock:
        Nanosecond monotonic clock; injectable for deterministic tests.
    """

    def __init__(self, sinks=(), clock=time.perf_counter_ns) -> None:
        self.sinks = list(sinks)
        self._clock = clock
        self._local = threading.local()
        self._next_id = 0
        # Guards id allocation, the finished-span list and sink
        # dispatch: spans finish concurrently on worker threads.
        self._span_lock = threading.Lock()
        self.created_ns = clock()
        #: Finished spans in completion order (children before parents
        #: within a thread; interleaved across threads).
        self.spans: list[Span] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def _stack(self) -> list[Span]:
        """The calling thread's open-span stack (created on demand)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attributes) -> Span:
        """A new span; start/stop happen on ``with`` entry/exit."""
        return Span(self, name, attributes)

    def current(self) -> Span | None:
        """The calling thread's innermost open span, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _allocate_id(self, span: Span) -> None:
        with self._span_lock:
            span.span_id = self._next_id
            self._next_id += 1

    def _start(self, span: Span) -> None:
        self._allocate_id(span)
        stack = self._stack()
        if stack:
            parent = stack[-1]
            span.parent_id = parent.span_id
            span.depth = parent.depth + 1
        stack.append(span)
        span.tid = threading.get_ident()
        span.start_ns = self._clock()

    def _record_finished(self, span: Span) -> None:
        with self._span_lock:
            self.spans.append(span)
        for sink in self.sinks:
            sink.on_span(span)

    def _finish(self, span: Span) -> None:
        span.end_ns = self._clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            # Out-of-order exit (a caller kept a span open across a
            # sibling): unwind to it rather than corrupt the stack.
            while stack and stack.pop() is not span:
                pass
        self._record_finished(span)

    # -- cross-thread spans -------------------------------------------

    def begin(self, name: str, parent: Span | None = None,
              **attributes) -> Span:
        """Start a *detached* span: open, but on no thread's stack.

        The span nests under ``parent`` when given, else under the
        calling thread's innermost open span.  Finish it — from any
        thread — with :meth:`end`, and hand it to another thread with
        :meth:`adopt` so work there records as its children.
        """
        span = Span(self, name, attributes)
        self._allocate_id(span)
        if parent is None:
            parent = self.current()
        if parent is not None:
            span.parent_id = parent.span_id
            span.depth = parent.depth + 1
        span.tid = threading.get_ident()
        span.start_ns = self._clock()
        return span

    def end(self, span: Span, **attributes) -> Span:
        """Finish a detached span started with :meth:`begin`."""
        if attributes:
            span.attributes.update(attributes)
        if span.end_ns is None:
            span.end_ns = self._clock()
            self._record_finished(span)
        return span

    def adopt(self, span: Span):
        """Make ``span`` the calling thread's current span for a
        ``with`` block — the context hand-off at a thread boundary.

        The span itself is neither started nor finished here; spans
        opened inside the block become its children.
        """
        return _Adoption(self, span)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def roots(self) -> list[Span]:
        """Finished top-level spans, in start order."""
        return sorted(
            (s for s in self.spans if s.parent_id is None),
            key=lambda s: (s.start_ns, s.span_id),
        )

    def children(self, span: Span) -> list[Span]:
        """Finished direct children of ``span``, in start order."""
        return sorted(
            (s for s in self.spans if s.parent_id == span.span_id),
            key=lambda s: (s.start_ns, s.span_id),
        )

    def find(self, name: str) -> list[Span]:
        """All finished spans with the given name, in completion order."""
        return [s for s in self.spans if s.name == name]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tracer({len(self.spans)} spans)"


class _Adoption:
    """Context manager pushing an open span onto this thread's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: Tracer, span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._stack().append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        stack = self._tracer._stack()
        if stack and stack[-1] is self._span:
            stack.pop()
        elif self._span in stack:
            while stack and stack.pop() is not self._span:
                pass
        return False
