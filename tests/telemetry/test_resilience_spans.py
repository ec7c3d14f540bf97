"""The fallback chain emits spans/counters and embeds them in reports.

Spans mirror to the global tracer; counters live in each
``ResilientPermutation``'s own registry and reach the report from
there."""

import numpy as np

from repro import telemetry
from repro.permutations.named import random_permutation
from repro.resilience import FaultPlan, ResilientPermutation


def _resilient(transient=0, capacity=None, **kwargs):
    p = random_permutation(256, seed=0)
    with FaultPlan(seed=1, transient_coloring_failures=transient,
                   capacity_threshold=capacity):
        return ResilientPermutation(p, width=4, sleep=lambda _s: None,
                                    **kwargs)


class TestReportEmbedding:
    def test_transient_faults_become_attempt_spans(self):
        resilient = _resilient(transient=2)
        plan_spans = [s for s in resilient.report.spans
                      if s.name == "plan.scheduled"]
        assert [s.attributes["attempt"] for s in plan_spans] == [1, 2, 3]
        assert [s.attributes["outcome"] for s in plan_spans] == [
            "transient-fault", "transient-fault", "ok",
        ]
        backoffs = [s for s in resilient.report.spans
                    if s.name == "backoff"]
        assert [s.attributes["seconds"] for s in backoffs] == [0.05, 0.1]
        assert resilient.report.counters == {
            "resilience_retries_total": 2,
            "resilience_faults_absorbed_total": 2,
        }

    def test_persistent_fault_spans_walk_the_chain(self):
        resilient = _resilient(capacity=2)
        assert resilient.choice == "d-designated"
        outcomes = [(s.name, s.attributes["outcome"])
                    for s in resilient.report.spans]
        assert outcomes == [
            ("plan.scheduled", "persistent-fault"),
            ("plan.padded", "persistent-fault"),
            ("plan.d-designated", "ok"),
        ]
        assert resilient.report.counters["resilience_fallbacks_total"] == 2

    def test_clean_run_has_single_ok_span(self):
        resilient = _resilient()
        (span,) = resilient.report.spans
        assert span.name == "plan.scheduled"
        assert span.attributes["outcome"] == "ok"
        assert resilient.report.counters == {}

    def test_summary_renders_spans_and_counters(self):
        summary = _resilient(transient=1).report.summary()
        assert "spans:" in summary
        assert "plan.scheduled" in summary
        assert "outcome=ok" in summary
        assert "counters:" in summary
        assert "resilience_retries_total = 1" in summary

    def test_clean_summary_omits_empty_sections(self):
        summary = _resilient().report.summary()
        assert "counters:" not in summary


class TestGlobalMirroring:
    def test_spans_and_counters_mirror_with_prefix(self):
        tracer = telemetry.Tracer()
        with telemetry.use_tracer(tracer):
            resilient = _resilient(transient=1)
        names = [s.name for s in tracer.spans
                 if s.name.startswith("resilience.")]
        assert names.count("resilience.plan.scheduled") == 2
        assert names.count("resilience.backoff") == 1
        # Counters are the permutation's own, not the process's.
        counters = resilient.metrics.counter_values()
        assert counters["resilience_retries_total"] == 1
        assert counters["resilience_faults_absorbed_total"] == 1
        # The report's private copy is independent of the global tracer.
        assert len(resilient.report.spans) == 3

    def test_no_global_tracer_still_embeds(self):
        assert telemetry.get_tracer() is None
        resilient = _resilient(transient=1)
        assert len(resilient.report.spans) == 3   # 2 attempts + backoff

    def test_failure_still_correct_under_tracer(self):
        tracer = telemetry.Tracer()
        with telemetry.use_tracer(tracer):
            resilient = _resilient(transient=1)
        p = resilient.p
        a = np.arange(256, dtype=np.float32)
        expected = np.empty_like(a)
        expected[p] = a
        assert np.array_equal(resilient.apply(a), expected)
