"""Histogram, labeled instruments, exposition and the dashboard.

The histogram's contract — log buckets at ~19 % resolution, mergeable,
quantiles clamped to the observed range — is exactly what the SLO
monitor and the bench suite lean on, so it is pinned down here with
known distributions.  The exposition tests round-trip through the
parser (``repro top``'s input path), so the producer and consumer are
verified against each other.
"""

import math
import threading

import pytest

from repro import telemetry
from repro.errors import TelemetryError
from repro.telemetry.metrics import Counter, Gauge, Histogram

# ---------------------------------------------------------------------------
# Histogram
# ---------------------------------------------------------------------------


def test_histogram_counts_sum_min_max():
    h = Histogram()
    for v in (0.001, 0.002, 0.003):
        h.observe(v)
    assert h.count == 3
    assert h.total == pytest.approx(0.006)
    assert h.min == pytest.approx(0.001)
    assert h.max == pytest.approx(0.003)
    assert h.mean == pytest.approx(0.002)


def test_histogram_quantiles_within_resolution():
    h = Histogram()
    for i in range(1, 1001):
        h.observe(i / 1000.0)       # uniform on (0, 1]
    # Log buckets have ~19 % relative resolution; allow 25 %.
    for q in (0.5, 0.9, 0.99):
        est = h.quantile(q)
        assert est == pytest.approx(q, rel=0.25)
    assert h.quantile(0.0) == pytest.approx(h.min)
    assert h.quantile(1.0) == pytest.approx(h.max)


def test_histogram_quantile_clamped_to_observed_range():
    h = Histogram()
    h.observe(0.005)
    # A single sample: every quantile is that sample, never the
    # bucket's upper bound.
    assert h.quantile(0.99) == pytest.approx(0.005)
    assert h.quantile(0.01) == pytest.approx(0.005)


def test_histogram_merge_equals_union():
    a, b, union = Histogram(), Histogram(), Histogram()
    for i, v in enumerate(x / 100 for x in range(1, 200)):
        (a if i % 2 else b).observe(v)
        union.observe(v)
    a.merge(b)
    assert a.count == union.count
    assert a.total == pytest.approx(union.total)
    assert a.buckets == union.buckets
    assert a.quantile(0.99) == pytest.approx(union.quantile(0.99))


def test_histogram_empty_and_negative():
    h = Histogram()
    assert h.quantile(0.5) == 0.0
    assert h.mean == 0.0
    h.observe(-1.0)                 # clamped to zero
    assert h.min == 0.0
    assert h.count == 1


def test_histogram_bucket_index_monotone():
    values = [1e-7, 1e-6, 1e-5, 1e-3, 0.1, 1.0, 60.0]
    indices = [Histogram.bucket_index(v) for v in values]
    assert indices == sorted(indices)
    for v in values:
        idx = Histogram.bucket_index(v)
        assert v <= Histogram.bucket_upper(idx) * (1 + 1e-12)


def test_histogram_thread_safe_observe():
    h = Histogram()
    n_threads, per_thread = 8, 2000

    def pound():
        for i in range(per_thread):
            h.observe(0.001 * (1 + i % 7))

    threads = [threading.Thread(target=pound) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert h.count == n_threads * per_thread
    assert sum(h.buckets.values()) == h.count


def test_counters_never_lose_an_increment():
    """The always-on counters take concurrent increments from many
    threads (server workers, clients); none may be lost."""
    import sys

    from repro import telemetry

    child = telemetry.MetricsRegistry().counter("probe_total")
    n_threads, per_thread = 8, 3000

    def pound():
        for _ in range(per_thread):
            telemetry.count("test_threaded_total")
            child.inc(2)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with telemetry.counting() as counts:
            threads = [threading.Thread(target=pound)
                       for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert counts == {"test_threaded_total": n_threads * per_thread}
    assert child.value == 2 * n_threads * per_thread


def test_percentiles_dict():
    h = Histogram()
    for i in range(100):
        h.observe(0.01)
    keys = set(h.percentiles())
    assert keys == {"p50", "p90", "p99", "p999"}


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def test_registry_labeled_children_are_stable():
    reg = telemetry.MetricsRegistry()
    c1 = reg.counter("requests_total", tenant="a", outcome="ok")
    c2 = reg.counter("requests_total", outcome="ok", tenant="a")
    assert c1 is c2                 # label order does not matter
    c3 = reg.counter("requests_total", tenant="b", outcome="ok")
    assert c3 is not c1
    c1.inc(2)
    assert c3.value == 0


def test_registry_kind_conflict_raises():
    reg = telemetry.MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ValueError, match="already registered"):
        reg.gauge("x")


def test_counter_and_gauge():
    c, g = Counter(), Gauge()
    assert c.inc() == 1.0
    assert c.inc(2.5) == 3.5
    g.set(7)
    g.set(3)
    assert g.value == 3.0


def test_prometheus_text_round_trip():
    reg = telemetry.MetricsRegistry()
    reg.counter("requests_total", outcome="ok").inc(5)
    reg.gauge("queue_depth").set(2)
    h = reg.histogram("latency_seconds", tenant="t 1")
    for v in (0.001, 0.01, 0.1):
        h.observe(v)
    text = reg.prometheus_text()

    families = telemetry.parse_prometheus_text(text)
    assert families["repro_requests_total"]["type"] == "counter"
    [(labels, value)] = families["repro_requests_total"]["samples"]
    assert labels == {"outcome": "ok"} and value == 5.0
    assert families["repro_queue_depth"]["samples"][0][1] == 2.0

    buckets = families["repro_latency_seconds_bucket"]["samples"]
    # Cumulative: non-decreasing with le, +Inf equals the count.
    pairs = sorted(
        (float("inf") if la["le"] == "+Inf" else float(la["le"]), v)
        for la, v in buckets
    )
    counts = [v for _le, v in pairs]
    assert counts == sorted(counts)
    assert pairs[-1] == (math.inf, 3.0)
    assert families["repro_latency_seconds_count"]["samples"][0][1] == 3.0
    # Label values with spaces survive the round trip.
    assert buckets[0][0]["tenant"] == "t 1"


def test_parse_rejects_malformed_lines():
    with pytest.raises(TelemetryError, match="malformed sample"):
        telemetry.parse_prometheus_text("this is } not a metric {")
    with pytest.raises(TelemetryError, match="malformed TYPE"):
        telemetry.parse_prometheus_text("# TYPE too many words here x")
    with pytest.raises(TelemetryError, match="unknown metric type"):
        telemetry.parse_prometheus_text("# TYPE x sausage")
    with pytest.raises(TelemetryError, match="bad sample value"):
        telemetry.parse_prometheus_text("x notanumber")


def test_quantile_from_buckets_matches_histogram():
    h = Histogram()
    for i in range(1, 501):
        h.observe(i / 250.0)
    cum = [(le, float(c)) for le, c in h.cumulative_buckets()]
    cum.append((math.inf, float(h.count)))
    for q in (0.5, 0.9, 0.99):
        scraped = telemetry.quantile_from_buckets(cum, q)
        direct = h.quantile(q)
        # The scrape-side estimator lacks min/max clamping, so allow
        # one bucket of slack on top of the direct estimate.
        assert scraped == pytest.approx(direct, rel=0.3)


def test_quantile_from_buckets_edge_cases():
    assert telemetry.quantile_from_buckets([], 0.5) == 0.0
    assert telemetry.quantile_from_buckets([(1.0, 0.0)], 0.5) == 0.0
    only_inf = [(math.inf, 5.0)]
    assert telemetry.quantile_from_buckets(only_inf, 0.5) == 0.0


# ---------------------------------------------------------------------------
# Dashboard
# ---------------------------------------------------------------------------


def test_render_dashboard_lists_all_instruments():
    reg = telemetry.MetricsRegistry()
    reg.counter("served_total", engine="scheduled").inc(10)
    reg.gauge("depth").set(4)
    h = reg.histogram("e2e_seconds", tenant="a")
    for v in (0.002, 0.004, 0.2):
        h.observe(v)
    out = telemetry.render_dashboard(reg.prometheus_text(),
                                     title="test top")
    assert "test top" in out
    assert "repro_e2e_seconds" in out
    assert "tenant=a" in out
    assert "repro_served_total" in out
    assert "repro_depth" in out
    # Histogram row shows a count and millisecond-scale quantiles.
    assert " 3" in out and "ms" in out


def test_histogram_series_regroups_by_label_set():
    reg = telemetry.MetricsRegistry()
    reg.histogram("lat", k="a").observe(0.001)
    reg.histogram("lat", k="b").observe(0.1)
    families = telemetry.parse_prometheus_text(reg.prometheus_text())
    series = telemetry.histogram_series(families)
    rows = series["repro_lat"]
    assert set(rows) == {(("k", "a"),), (("k", "b"),)}
    for row in rows.values():
        assert row["count"] == 1.0
        assert row["buckets"][-1][0] == math.inf
