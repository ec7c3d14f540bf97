"""The pipeline emits the spans and counters the profile relies on.

Counters are read as registry deltas around the run; the tracer holds
spans only."""

import numpy as np

from repro import telemetry
from repro.core.io import load_plan, save_plan
from repro.core.scheduled import ScheduledPermutation
from repro.machine.params import MachineParams
from repro.permutations.named import bit_reversal


def _run_pipeline(tmp_path, counts=None):
    tracer = telemetry.Tracer()
    with telemetry.use_tracer(tracer), telemetry.counting() as moved:
        plan = ScheduledPermutation.plan(bit_reversal(256), width=8)
        path = tmp_path / "plan.npz"
        save_plan(path, plan)
        plan = load_plan(path)
        plan.apply(np.arange(256.0, dtype=np.float32))
        trace = plan.simulate(
            MachineParams(width=8, latency=16, num_dmms=4)
        )
    if counts is not None:
        counts.update(moved)
    return tracer, trace


def test_phase_spans_cover_the_pipeline(tmp_path):
    tracer, _trace = _run_pipeline(tmp_path)
    names = {s.name for s in tracer.spans}
    for expected in (
        "scheduled.plan", "plan.decompose", "plan.decompose.coloring",
        "coloring.euler", "scheduled.plan.step1", "scheduled.plan.step2",
        "scheduled.plan.step3", "plan_io.save", "plan_io.load",
        "plan_io.verify", "scheduled.apply", "scheduled.step1",
        "scheduled.step2", "scheduled.step3", "scheduled.simulate",
        "kernel",
    ):
        assert expected in names, f"missing span {expected!r}"


def test_model_time_attributes_match_trace(tmp_path):
    tracer, trace = _run_pipeline(tmp_path)
    (simulate,) = tracer.find("scheduled.simulate")
    assert simulate.attributes["model_time"] == trace.time
    assert simulate.attributes["model_rounds"] == trace.num_rounds
    # Kernel spans partition the same model time.
    kernel_time = sum(s.attributes["model_time"]
                     for s in tracer.find("kernel"))
    assert kernel_time == trace.time


def test_counters_cover_planning_and_io(tmp_path):
    counters: dict = {}
    _run_pipeline(tmp_path, counters)
    assert counters["plans_scheduled_total"] == 1
    assert counters["plan_io_saved_total"] == 1
    assert counters["plan_io_loaded_total"] == 1
    assert counters["coloring_euler_calls_total"] >= 1
    assert counters["coloring_edges_colored_total"] >= 256


def test_rejected_load_is_counted(tmp_path):
    import pytest

    from repro.errors import PlanIntegrityError

    path = tmp_path / "bad.npz"
    path.write_bytes(b"not a plan at all")
    tracer = telemetry.Tracer()
    with telemetry.use_tracer(tracer), telemetry.counting() as counts:
        with pytest.raises(PlanIntegrityError):
            load_plan(path)
    assert counts["plan_io_rejected_total"] == 1
    (load_span,) = tracer.find("plan_io.load")
    assert "error" in load_span.attributes


def test_hmm_run_kernel_bridges_model_time():
    from repro.machine.hmm import HMM
    from repro.machine.requests import AccessRound, Kernel

    hmm = HMM(MachineParams(width=4, latency=5, num_dmms=2))
    kernel = Kernel(
        "probe",
        (AccessRound("global", "read", np.arange(8), "a"),),
        0,
    )
    tracer = telemetry.Tracer()
    with telemetry.use_tracer(tracer), telemetry.counting() as counts:
        trace = hmm.run_kernel(kernel)
    (span,) = tracer.find("hmm.kernel")
    assert span.attributes["model_time"] == trace.time
    assert counts["hmm_rounds_total"] == trace.num_rounds
    assert counts["hmm_time_units_total"] == trace.time
