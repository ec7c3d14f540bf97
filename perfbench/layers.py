"""Layer spans recorded from outside the program.

:class:`LayerTrace` wraps the public calls into each layer in a
:func:`repro.telemetry.span` named after the layer, for the duration
of a ``with`` block, and installs a :class:`repro.telemetry.Tracer` to
collect them.  Nothing in ``src/`` changes; on exit the wrappers are
put back and the finished spans kept.  :func:`self_times` turns them
into per-layer self times: a layer span's duration minus the layer
spans nested directly inside it.  Spans the program emits on its own
are not layers; their time stays with the nearest enclosing layer
span.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from collections.abc import Callable, Iterable
from typing import Any

from repro import telemetry

#: Span name prefix that marks a benchmark layer span.
PREFIX = "layer:"


def _targets() -> list[tuple[Any, str, str]]:
    """``(owner, attribute, layer)`` for every wrapped public call."""
    import repro.core.dmm_permutation
    import repro.core.rowwise
    import repro.core.scheduler
    import repro.planner.compiled
    from repro.exec.sealed import SealedExecutor
    from repro.ir.registry import engine_names, get_engine
    from repro.ir.sealed import SealedProgram
    from repro.passes import PassPipeline
    from repro.planner import CompiledPermutation, Planner
    from repro.planner.cache import DiskPlanCache
    from repro.service import PermutationService

    targets: list[tuple[Any, str, str]] = [
        (repro.core.scheduler, "edge_coloring", "coloring.edge_coloring"),
        (repro.core.rowwise, "edge_coloring", "coloring.edge_coloring"),
        (repro.core.dmm_permutation, "edge_coloring",
         "coloring.edge_coloring"),
        (PassPipeline, "run", "passes.pipeline"),
        (repro.planner.compiled, "validate_translation",
         "staticcheck.validate_translation"),
        (repro.planner.compiled, "seal_program", "passes.seal_program"),
        (DiskPlanCache, "store", "core.io.save_plan"),
        (DiskPlanCache, "store_sealed", "core.io.save_sealed"),
        (DiskPlanCache, "load_sealed", "core.io.load_sealed"),
        (SealedProgram, "verify", "ir.sealed_verify"),
        (SealedExecutor, "run", "exec.sealed_run"),
        (SealedExecutor, "run_batch", "exec.sealed_run"),
        (Planner, "compile", "planner.compile"),
        (CompiledPermutation, "apply", "planner.apply"),
        (CompiledPermutation, "apply_batch", "planner.apply"),
        (PermutationService, "apply", "service.apply"),
        (PermutationService, "apply_batch", "service.apply"),
    ]
    seen = set()
    for name in engine_names():
        cls = get_engine(name)
        if "plan" in vars(cls) and cls not in seen:
            seen.add(cls)
            targets.append((cls, "plan", "core.engine_plan"))
    return targets


def _wrap(fn: Callable[..., Any], span_name: str,
          batched: bool) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        rows = len(args[2]) if batched else 1
        with telemetry.span(span_name, rows=rows):
            return fn(*args, **kwargs)

    return wrapper


class LayerTrace:
    """Record layer spans while active (a context manager)."""

    def __init__(self) -> None:
        self.tracer = telemetry.Tracer()
        self._saved: list[tuple[Any, str, Any]] = []
        self._previous: telemetry.Tracer | None = None
        self.spans: list[telemetry.Span] = []

    def __enter__(self) -> "LayerTrace":
        for owner, attr, layer in _targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            name = PREFIX + layer
            # A served batch answers one request per row; its span
            # records the row count so the served leg can weight it.
            batched = attr == "apply_batch" and layer == "service.apply"
            if isinstance(original, classmethod):
                wrapped: Any = classmethod(
                    _wrap(original.__func__, name, False)
                )
            else:
                wrapped = _wrap(original, name, batched)
            setattr(owner, attr, wrapped)
        self._previous = telemetry.set_tracer(self.tracer)
        return self

    def __exit__(self, *exc: object) -> None:
        telemetry.set_tracer(self._previous)
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        #: The spans finished while active (set on exit).
        self.spans = list(self.tracer.spans)


def layer_groups(
    spans: Iterable[telemetry.Span],
) -> list[tuple[int, dict[str, float]]]:
    """Seconds of self time per layer, one entry per top-level layer
    span (a call the benchmark made, or a served batch on a worker).

    Each entry carries the top span's ``rows``: the served leg counts a
    coalesced batch once per request it answered.
    """
    spans = list(spans)
    by_id = {s.span_id: s for s in spans}

    def layer_parent(s: telemetry.Span) -> telemetry.Span | None:
        parent = by_id.get(s.parent_id) if s.parent_id is not None else None
        while parent is not None and not parent.name.startswith(PREFIX):
            parent = (
                by_id.get(parent.parent_id)
                if parent.parent_id is not None else None
            )
        return parent

    layered = [s for s in spans if s.name.startswith(PREFIX)]
    parent_of = {s.span_id: layer_parent(s) for s in layered}
    nested: dict[int, int] = defaultdict(int)
    for s in layered:
        parent = parent_of[s.span_id]
        if parent is not None:
            nested[parent.span_id] += s.duration_ns

    def top(s: telemetry.Span) -> telemetry.Span:
        while (parent := parent_of[s.span_id]) is not None:
            s = parent
        return s

    groups: dict[int, dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    rows: dict[int, int] = {}
    for s in layered:
        root = top(s)
        rows[root.span_id] = int(root.attributes.get("rows", 1))
        own = max(0, s.duration_ns - nested[s.span_id])
        groups[root.span_id][s.name[len(PREFIX):]] += own / 1e9
    return [(rows[k], dict(v)) for k, v in groups.items()]


def self_times(spans: Iterable[telemetry.Span]) -> dict[str, float]:
    """Seconds of self time per layer, summed over ``spans``."""
    out: dict[str, float] = defaultdict(float)
    for _rows, group in layer_groups(spans):
        for layer, seconds in group.items():
            out[layer] += seconds
    return dict(out)
