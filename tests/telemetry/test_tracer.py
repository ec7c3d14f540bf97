"""Tests for the telemetry core: spans, counters, gauges, activation."""

import pytest

from repro import telemetry
from repro.telemetry import NULL_SPAN, NullSpan, Tracer


class FakeClock:
    """Deterministic nanosecond clock: +1000 ns (1 us) per call."""

    def __init__(self, step_ns: int = 1000) -> None:
        self.now = 0
        self.step = step_ns

    def __call__(self) -> int:
        self.now += self.step
        return self.now


class TestSpanNesting:
    def test_parent_child_depth(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert (outer.depth, inner.depth) == (0, 1)

    def test_completion_order_children_first(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        assert [s.name for s in tracer.spans] == ["c", "b", "a"]

    def test_roots_and_children_in_start_order(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("first") as first:
            with tracer.span("x"):
                pass
            with tracer.span("y"):
                pass
        with tracer.span("second"):
            pass
        assert [s.name for s in tracer.roots()] == ["first", "second"]
        assert [s.name for s in tracer.children(first)] == ["x", "y"]

    def test_siblings_do_not_nest(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert a.parent_id is None and b.parent_id is None

    def test_durations_from_injected_clock(self):
        clock = FakeClock(step_ns=1000)
        tracer = Tracer(clock=clock)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans
        # Ticks: tracer init, outer start, inner start, inner end,
        # outer end — inner spans one tick, outer three.
        assert inner.duration_ns == 1000
        assert outer.duration_ns == 3000
        assert outer.duration_ms == pytest.approx(0.003)

    def test_current_tracks_innermost(self):
        tracer = Tracer(clock=FakeClock())
        assert tracer.current() is None
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None

    def test_exception_recorded_and_propagated(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (span,) = tracer.spans
        assert span.attributes["error"] == "ValueError"
        assert span.end_ns is not None

    def test_set_attaches_attributes_late(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("phase", n=4) as sp:
            sp.set(model_time=99)
        assert sp.attributes == {"n": 4, "model_time": 99}

    def test_find_by_name(self):
        tracer = Tracer(clock=FakeClock())
        for _ in range(3):
            with tracer.span("repeat"):
                pass
        assert len(tracer.find("repeat")) == 3
        assert tracer.find("absent") == []


class TestCountersAndGauges:
    """Module-level counts land in the always-on process registry."""

    def test_counter_aggregates(self):
        assert telemetry.get_tracer() is None
        with telemetry.counting() as counts:
            telemetry.count("test_hits_total")
            telemetry.count("test_hits_total", 4)
            telemetry.count("test_hits_total", 2, kind="x")
        assert counts == {
            "test_hits_total": 5,
            'test_hits_total{kind="x"}': 2,
        }
        assert not hasattr(Tracer(), "counters")

    def test_gauge_last_write_wins(self):
        telemetry.gauge("test_bytes", 10)
        telemetry.gauge("test_bytes", 7)
        assert telemetry.REGISTRY.gauge("test_bytes").value == 7
        assert not hasattr(Tracer(), "gauge")


class TestActivation:
    def test_inactive_module_span_is_null(self):
        assert telemetry.get_tracer() is None
        sp = telemetry.span("anything", n=1)
        assert sp is NULL_SPAN
        with sp as entered:
            assert entered is NULL_SPAN
        # Counts do not need a tracer: they still land in the registry.
        with telemetry.counting() as counts:
            telemetry.count("test_untraced_total")
        assert counts == {"test_untraced_total": 1}

    def test_use_tracer_scopes_activation(self):
        tracer = Tracer(clock=FakeClock())
        with telemetry.use_tracer(tracer):
            assert telemetry.get_tracer() is tracer
            with telemetry.span("scoped"):
                pass
        assert telemetry.get_tracer() is None
        assert [s.name for s in tracer.spans] == ["scoped"]

    def test_use_tracer_restores_previous(self):
        outer, inner = Tracer(), Tracer()
        with telemetry.use_tracer(outer):
            with telemetry.use_tracer(inner):
                assert telemetry.get_tracer() is inner
            assert telemetry.get_tracer() is outer
        assert telemetry.get_tracer() is None

    def test_null_span_is_stateless(self):
        assert isinstance(NULL_SPAN, NullSpan)
        assert NULL_SPAN.set(x=1) is NULL_SPAN
        assert NULL_SPAN.duration_ns == 0
        assert NULL_SPAN.attributes == {}
