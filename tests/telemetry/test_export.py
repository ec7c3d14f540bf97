"""Tests for the exporters: Chrome trace and span tree."""

import json

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    Tracer,
    chrome_trace,
    render_span_tree,
    validate_chrome_trace,
    write_chrome_trace,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        self.now += 1000
        return self.now


def _sample_tracer() -> Tracer:
    tracer = Tracer(clock=FakeClock())
    with tracer.span("outer", n=64):
        with tracer.span("inner"):
            pass
    return tracer


class TestChromeTrace:
    def test_schema_is_valid(self):
        obj = chrome_trace(_sample_tracer())
        validate_chrome_trace(obj)
        assert obj["displayTimeUnit"] == "ms"
        assert json.dumps(obj)   # serialisable end to end

    def test_metadata_and_phases(self):
        obj = chrome_trace(_sample_tracer(), process_name="unit")
        meta = obj["traceEvents"][0]
        assert meta["ph"] == "M" and meta["args"] == {"name": "unit"}
        phases = sorted({e["ph"] for e in obj["traceEvents"]})
        # Spans and metadata only: counts live in the metrics registry.
        assert phases == ["M", "X"]

    def test_span_events_nest_by_ts_and_dur(self):
        obj = chrome_trace(_sample_tracer())
        by_name = {e["name"]: e for e in obj["traceEvents"]
                   if e["ph"] == "X"}
        outer, inner = by_name["outer"], by_name["inner"]
        # Child interval contained in the parent's (Perfetto nesting).
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
        assert outer["args"]["n"] == 64
        assert inner["args"]["depth"] == 1

    def test_write_validates_and_round_trips(self, tmp_path):
        path = tmp_path / "trace.json"
        obj = write_chrome_trace(_sample_tracer(), path)
        assert json.loads(path.read_text()) == json.loads(json.dumps(obj))

    @pytest.mark.parametrize("bad", [
        None,
        [],
        {},
        {"traceEvents": {}},
        {"traceEvents": [{"ph": "X", "pid": 1, "ts": 0, "dur": 1}]},
        {"traceEvents": [{"name": "a", "ph": "Q", "pid": 1, "ts": 0}]},
        {"traceEvents": [{"name": "a", "ph": "X", "pid": 1, "ts": -1,
                          "dur": 1}]},
        {"traceEvents": [{"name": "a", "ph": "X", "pid": 1, "ts": 0}]},
        {"traceEvents": [{"name": "a", "ph": "M", "pid": 1, "ts": 0,
                          "args": 7}]},
        {"traceEvents": [{"name": "a", "ph": "C", "pid": 1, "ts": 0,
                          "args": {"value": 1}}]},
    ])
    def test_validator_rejects_malformed(self, bad):
        with pytest.raises(TelemetryError):
            validate_chrome_trace(bad)


class TestRenderSpanTree:
    def test_indentation_follows_nesting(self):
        lines = render_span_tree(_sample_tracer()).splitlines()
        assert lines[0].startswith("outer ")
        assert lines[1].startswith("  inner ")

    def test_attr_filter(self):
        text = render_span_tree(_sample_tracer(), attr_keys=())
        assert "[n=64]" not in text
        full = render_span_tree(_sample_tracer())
        assert "[n=64]" in full
