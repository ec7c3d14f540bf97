"""One counter store: every ``stats()`` counter lives in a registry.

The five components with a ``stats()`` view — ``LRUPlanCache``,
``DiskPlanCache``, ``Planner``, ``PermutationService`` and
``PermutationServer`` — keep their counters as pre-bound children of
the planner's :class:`~repro.telemetry.MetricsRegistry`.  These tests
pin the contract: the key sets did not change, the counters move with
no tracer installed, and every key is scrapeable from ``/metrics``.
"""

import math

import numpy as np
import pytest

from repro import telemetry
from repro.permutations.named import bit_reversal
from repro.planner import DiskPlanCache, LRUPlanCache, Planner
from repro.service import PermutationServer, PermutationService

_N, _WIDTH = 256, 4

_MEMORY_KEYS = {
    "memory_bytes", "memory_capacity", "memory_entries",
    "memory_evictions", "memory_hits", "memory_invalidations",
    "memory_max_bytes", "memory_misses",
}
_DISK_KEYS = {
    "disk_bytes", "disk_corrupt", "disk_directory", "disk_entries",
    "disk_evictions", "disk_hits", "disk_max_bytes", "disk_misses",
    "disk_stores", "sealed_corrupt", "sealed_hits", "sealed_misses",
    "sealed_stores",
}
_PLANNER_KEYS = {
    "cold_plans", "sealed_plans", "semantic_rejections", "shard_plans",
} | _MEMORY_KEYS
_SERVICE_KEYS = {
    "elements_served", "registered", "requests", "reregistrations",
} | _PLANNER_KEYS
#: After one served request: the events that happened, plus the
#: instantaneous fields.
_SERVER_KEYS = {
    "server.accepted", "server.served", "server.inflight",
    "server.latency_ema_s", "server.queue_capacity",
    "server.queue_depth",
} | _SERVICE_KEYS


def _lru(tmp_path):
    return LRUPlanCache()


def _disk(tmp_path):
    return DiskPlanCache(tmp_path / "disk")


def _planner(tmp_path):
    planner = Planner(cache_dir=tmp_path / "cache")
    planner.compile(bit_reversal(_N), width=_WIDTH)
    return planner


def _service(tmp_path):
    svc = PermutationService(width=_WIDTH)
    svc.register("x", bit_reversal(_N))
    svc.apply("x", np.arange(_N, dtype=np.float32))
    return svc


def _server(tmp_path):
    server = PermutationServer(width=_WIDTH, workers=1)
    server.register("x", bit_reversal(_N))
    server.apply("x", np.arange(_N, dtype=np.float32))
    server.close()
    return server


@pytest.mark.parametrize("build, keys", [
    (_lru, _MEMORY_KEYS),
    (_disk, _DISK_KEYS),
    (_planner, _PLANNER_KEYS | _DISK_KEYS),
    (_service, _SERVICE_KEYS),
    (_server, _SERVER_KEYS),
], ids=["LRUPlanCache", "DiskPlanCache", "Planner",
        "PermutationService", "PermutationServer"])
def test_stats_key_sets_unchanged(tmp_path, build, keys):
    stats = build(tmp_path).stats()
    assert set(stats) == keys
    counters = {k: v for k, v in stats.items()
                if k not in ("disk_directory", "memory_max_bytes",
                             "disk_max_bytes", "server.latency_ema_s")}
    assert all(isinstance(v, int) for v in counters.values()), counters


def test_counters_move_without_a_tracer(tmp_path):
    """A cold compile and a served request, no tracer installed."""
    assert telemetry.get_tracer() is None
    server = PermutationServer(width=_WIDTH, workers=1,
                               cache_dir=tmp_path)
    p = bit_reversal(_N)
    server.register("x", p)
    a = np.arange(_N, dtype=np.float32)
    with telemetry.counting() as process:
        out = server.apply("x", a)
    server.close()
    expected = np.empty_like(a)
    expected[p] = a
    assert np.array_equal(out, expected)
    stats = server.stats()
    for key in ("cold_plans", "sealed_plans", "memory_misses",
                "disk_misses", "disk_stores", "sealed_misses",
                "sealed_stores", "requests", "elements_served",
                "server.accepted", "server.served"):
        assert stats[key] >= 1, key
    # Library-wide counts go to the always-on process registry.
    assert process["plans_scheduled_total"] == 1
    assert process["plan_io_saved_total"] == 1
    assert process["plan_io_sealed_saved_total"] == 1
    assert process["coloring_edges_colored_total"] >= _N


def _series(key, value):
    """The ``(metric, labels)`` sample that carries a stats key."""
    prefix = "repro_"
    if key.startswith("server."):
        event = key[len("server."):]
        gauges = {
            "latency_ema_s": "server_latency_ema_seconds",
            "queue_depth": "server_queue_depth",
            "queue_capacity": "server_queue_capacity",
            "inflight": "server_inflight",
        }
        if event in gauges:
            return prefix + gauges[event], {}
        return prefix + "server_events_total", {"event": event}
    fixed = {
        "cold_plans": "planner_cold_plans_total",
        "shard_plans": "planner_shard_plans_total",
        "sealed_plans": "planner_sealed_plans_total",
        "registered": "service_registrations",
        "requests": "service_requests_total",
        "elements_served": "service_elements_served_total",
        "reregistrations": "service_reregistrations_total",
    }
    if key in fixed:
        return prefix + fixed[key], {}
    if key == "disk_directory":
        return (prefix + "planner_cache_directory_info",
                {"directory": value})
    if key == "memory_capacity":
        return (prefix + "planner_cache_capacity_entries",
                {"tier": "memory"})
    tier, _, field = key.partition("_")
    gauges = {"bytes": "planner_cache_bytes",
              "entries": "planner_cache_entries",
              "max_bytes": "planner_cache_max_bytes"}
    if field in gauges:
        return prefix + gauges[field], {"tier": tier}
    return prefix + f"planner_cache_{field}_total", {"tier": tier}


def test_every_stats_key_is_scrapeable(tmp_path):
    server = PermutationServer(width=_WIDTH, workers=1,
                               cache_dir=tmp_path)
    server.register("x", bit_reversal(_N))
    server.apply("x", np.arange(_N, dtype=np.float32))
    server.service.planner.compile_sharded(
        bit_reversal(_N), d=2, width=_WIDTH
    )
    stats = server.stats()
    families = telemetry.validate_prometheus_text(server.metrics_text())
    server.close()
    rejections = families["repro_planner_semantic_rejections_total"]
    assert rejections["type"] == "counter"
    assert sum(v for _labels, v in rejections["samples"]) == \
        stats["semantic_rejections"]
    for key, value in stats.items():
        if key == "semantic_rejections":
            continue
        name, labels = _series(key, value)
        assert name in families, (key, name)
        samples = [v for lab, v in families[name]["samples"]
                   if lab == labels]
        assert len(samples) == 1, (key, name, labels)
        if key == "disk_directory":
            expected = 1
        elif value is None:
            expected = math.inf
        else:
            expected = value
        assert samples[0] == pytest.approx(expected), key
        if name.endswith("_total"):
            assert families[name]["type"] == "counter", name
