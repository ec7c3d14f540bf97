"""Telemetry tour: trace a scheduled permutation end to end.

Runs the full pipeline — plan, save/load, apply, simulate — under an
active tracer, then shows every view the telemetry layer offers: the
span tree, the counters the run moved in the always-on metrics
registry, its Prometheus exposition, and the exported
artefacts (Chrome trace JSON + JSONL event log) that
``python -m repro profile`` writes.

The key consistency property is asserted, not just printed: the
``model_time`` attribute bridged onto the ``scheduled.simulate`` span
equals the simulated ``ProgramTrace.time``, and the per-kernel spans
partition the same total — the wall-clock view and the paper's cost
model agree line by line.
"""

import tempfile
from pathlib import Path

import numpy as np

import repro
from repro import telemetry

N, WIDTH = 4096, 32

print(__doc__)

tracer = telemetry.Tracer()
with telemetry.use_tracer(tracer), telemetry.counting() as counts:
    p = repro.permutations.bit_reversal(N)
    plan = repro.ScheduledPermutation.plan(p, width=WIDTH)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plan.npz"
        repro.save_plan(path, plan)
        plan = repro.load_plan(path)
    a = np.arange(N, dtype=np.float32)
    b = plan.apply(a)
    trace = plan.simulate(repro.MachineParams(width=WIDTH))

expected = np.empty_like(a)
expected[p] = a
assert np.array_equal(b, expected)

print("== span tree (wall clock) ==")
print(telemetry.render_span_tree(tracer))

print()
print("== counters (registry deltas over the run) ==")
for name in sorted(counts):
    print(f"  {name} = {counts[name]:g}")

print()
print("== Prometheus exposition of the registry (excerpt) ==")
print("\n".join(telemetry.REGISTRY.prometheus_text().splitlines()[:8]))

# Model time bridged onto spans equals the simulated trace totals.
(simulate_span,) = tracer.find("scheduled.simulate")
assert simulate_span.attributes["model_time"] == trace.time
kernel_total = sum(s.attributes["model_time"]
                   for s in tracer.find("kernel"))
assert kernel_total == trace.time
print()
print(f"model-time bridge verified: simulate span carries "
      f"{simulate_span.attributes['model_time']} time units "
      f"== ProgramTrace.time == sum over {len(tracer.find('kernel'))} "
      "kernel spans")

with tempfile.TemporaryDirectory() as tmp:
    trace_path = Path(tmp) / "trace.json"
    obj = telemetry.write_chrome_trace(tracer, trace_path)
    print(f"Chrome trace: {len(obj['traceEvents'])} events, "
          f"{trace_path.stat().st_size} bytes "
          "(load such a file in chrome://tracing or ui.perfetto.dev)")
