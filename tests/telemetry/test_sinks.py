"""Tests for the sink family: in-memory stream and JSONL round-trip."""

import numpy as np

from repro.telemetry import InMemorySink, JsonlSink, Tracer, read_jsonl


def test_in_memory_sink_preserves_interleaving():
    sink = InMemorySink()
    tracer = Tracer(sinks=[sink])
    with tracer.span("work"):
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
    kinds = [(e["type"], e["name"]) for e in sink.events]
    # Spans are emitted on completion, so children precede the parent.
    assert kinds == [("span", "first"), ("span", "second"),
                     ("span", "work")]


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "events.jsonl"
    with JsonlSink(path) as sink:
        tracer = Tracer(sinks=[sink])
        with tracer.span("outer", n=np.int64(64)):
            with tracer.span("inner"):
                pass
        sink.write({"type": "counter", "name": "steps_total",
                    "delta": 2})
    events = read_jsonl(path)
    assert [e["type"] for e in events] == ["span", "span", "counter"]
    inner, outer = events[0], events[1]
    assert inner["name"] == "inner" and outer["name"] == "outer"
    assert inner["parent_id"] == outer["span_id"]
    assert inner["depth"] == 1
    # NumPy attribute values survive as plain JSON numbers.
    assert outer["attributes"] == {"n": 64}
    assert events[2] == {"type": "counter", "name": "steps_total",
                         "delta": 2}


def test_jsonl_sink_close_is_idempotent(tmp_path):
    sink = JsonlSink(tmp_path / "e.jsonl")
    sink.close()
    sink.close()
    assert read_jsonl(tmp_path / "e.jsonl") == []
