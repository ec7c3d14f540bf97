"""The always-on instrumentation must be essentially free.

The issue's budget: instrumentation overhead on a small scheduled run
stays under 5%.  Comparing two noisy end-to-end wall times flakes, so
the test bounds the overhead analytically: it measures the per-call
cost of one instrumentation site, counts the sites a small ``apply``
passes through (a generous upper bound), and checks the product
against 5% of the measured apply time.

Both sides are timed the same way — interleaved repeats, minimum of
``k`` — so a busy host slows the site and the apply together instead
of failing the gate: the minimum is each operation's cost when it was
not interrupted.
"""

import time

import numpy as np

from repro import telemetry
from repro.core.scheduled import ScheduledPermutation
from repro.permutations.named import bit_reversal

#: Generous upper bound on telemetry calls per plain apply():
#: scheduled.apply + three step spans + per-kernel spans and counters.
_SITES_PER_APPLY = 32

#: Generous upper bound on always-on metric updates per served request:
#: e2e + queue-wait + first-attempt + compile histograms, the apply
#: histogram and per-round gauge, plus the event counters and recorder
#: ring appends along the way.
_METRIC_SITES_PER_REQUEST = 24

#: Interleaved repeats; each operation's cost is its minimum over them.
_REPEATS = 50


def _min_interleaved(*batches) -> list[float]:
    """Per-call minimum cost of each ``(fn, calls)`` batch over
    :data:`_REPEATS` interleaved rounds."""
    best = [float("inf")] * len(batches)
    for _ in range(_REPEATS):
        for i, (fn, calls) in enumerate(batches):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            best[i] = min(best[i], (time.perf_counter() - start) / calls)
    return best


def _apply_fn():
    plan = ScheduledPermutation.plan(bit_reversal(4096), width=32)
    a = np.arange(4096, dtype=np.float32)
    return lambda: plan.apply(a)


def test_noop_overhead_below_5_percent():
    """One site: an inactive span around a registry-backed count."""
    assert telemetry.get_tracer() is None

    def site():
        with telemetry.span("overhead.probe", n=1):
            telemetry.count("overhead_probe_total")

    best_apply, per_site = _min_interleaved(
        (_apply_fn(), 1), (site, 400)
    )
    overhead = per_site * _SITES_PER_APPLY
    assert overhead < 0.05 * best_apply, (
        f"telemetry would cost {overhead * 1e6:.1f} us per "
        f"apply of {best_apply * 1e6:.1f} us (> 5%)"
    )


def test_serving_metrics_overhead_below_5_percent():
    """Histograms + counters stay on the hot path; bound their cost.

    Same analytic shape as above: measure the per-update cost of the
    real instruments a serve touches, multiply by a generous per-request
    site count, compare to 5% of a small apply.
    """
    assert telemetry.get_tracer() is None

    reg = telemetry.MetricsRegistry()
    hist = reg.histogram("probe_seconds", outcome="ok", tenant="t")
    counter = reg.counter("probe_total", event="x")
    values = iter(range(1 << 30))

    def update():
        # One histogram observe plus one counter inc: two sites.
        hist.observe(0.0001 * (1 + next(values) % 13))
        counter.inc()

    best_apply, per_update = _min_interleaved(
        (_apply_fn(), 1), (update, 200)
    )
    overhead = per_update / 2 * _METRIC_SITES_PER_REQUEST
    assert overhead < 0.05 * best_apply, (
        f"serving metrics would cost {overhead * 1e6:.1f} us per "
        f"request around an apply of {best_apply * 1e6:.1f} us (> 5%)"
    )


def test_no_tracer_means_no_request_contexts():
    """The disabled fast path never allocates a RequestContext."""
    assert telemetry.get_tracer() is None
    before = telemetry.RequestContext.created
    with telemetry.span("probe"):        # NullSpan path
        telemetry.count("probe_total")
    assert telemetry.RequestContext.created == before
    # And the active path does allocate, so the counter is live.
    tracer = telemetry.Tracer()
    with telemetry.use_tracer(tracer):
        telemetry.RequestContext(request_id=1, tenant="t", name="p",
                                 priority=1, deadline=None)
    assert telemetry.RequestContext.created == before + 1
