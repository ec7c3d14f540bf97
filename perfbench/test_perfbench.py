"""Checks of the benchmark itself: run with ``python3 -m pytest perfbench``
from the repository root.  They use small sizes and short runs."""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import numpy as np  # noqa: E402
import pytest  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

from repro.exec.sealed import SealedExecutor  # noqa: E402
from repro.permutations.named import (  # noqa: E402
    bit_reversal,
    transpose_permutation,
)

N = 1024


def test_affine_family_fixed_members_and_seeding():
    assert np.array_equal(gen.affine_permutation(0, 0, N), bit_reversal(N))
    assert np.array_equal(gen.affine_permutation(0, 1, N),
                          transpose_permutation(N))
    p = gen.affine_permutation(7, 5, N)
    assert np.array_equal(np.sort(p), np.arange(N))
    assert np.array_equal(p, gen.affine_permutation(7, 5, N))
    assert not np.array_equal(p, gen.affine_permutation(8, 5, N))


def test_affine_map_refuses_a_singular_matrix():
    singular = np.eye(10, dtype=np.uint8)
    singular[3] = singular[4]
    with pytest.raises(ValueError, match="invertible"):
        gen.affine_map(singular, 0)


def test_reference_is_the_definitional_scatter():
    p = gen.random_permutation(1, 0, N)
    a = gen.payload(1, 0, N)
    out = gen.reference(p, a)
    assert all(out[p[i]] == a[i] for i in range(N))
    assert gen.same_bits(out, out.copy())
    assert not gen.same_bits(out, -out)


@pytest.fixture
def wrong_gather(monkeypatch):
    """Make every sealed apply return a deliberately wrong answer."""
    original = SealedExecutor.run

    def broken(self, sealed, a):
        out = original(self, sealed, a).copy()
        out[0] += 1.0
        return out

    monkeypatch.setattr(SealedExecutor, "run", broken)


def test_wrong_answers_count_as_failed(tmp_path, wrong_gather):
    outcome = workloads.cold_plan(0, 0.2, False, tmp_path, n=N, setups=1)
    assert outcome.tally.attempted > 0
    assert outcome.tally.failed == outcome.tally.attempted
    assert outcome.metrics["ok_frac"] == 0.0


@pytest.mark.parametrize("workload", ["cold-plan", "warm-apply"])
def test_traced_run_reports_every_layer_and_reconciles(tmp_path, workload):
    fn = {"cold-plan": workloads.cold_plan,
          "warm-apply": workloads.warm_apply}[workload]
    kwargs = {"serve_seconds": 0.3} if workload == "warm-apply" else {}
    outcome = fn(0, 0.6, True, tmp_path, n=N, **kwargs)
    assert outcome.tally.failed == 0
    assert set(run.PER_LAYER) <= set(outcome.layers)
    assert 0.0 <= outcome.layers["unattributed_frac"] < 1.0
    assert outcome.layers["passes.predicted_rounds"] == 32


@pytest.mark.parametrize("workload", ["cold-plan", "warm-apply"])
def test_untraced_run_reports_every_end_to_end_metric(tmp_path, workload):
    fn = {"cold-plan": workloads.cold_plan,
          "warm-apply": workloads.warm_apply}[workload]
    outcome = fn(0, 0.3, False, tmp_path, n=N)
    assert outcome.tally.failed == 0
    assert set(run.END_TO_END) <= set(outcome.metrics)
    assert all(outcome.metrics[m] > 0 for m in run.END_TO_END)


def test_layer_self_times_subtract_nested_layers():
    from layers import LayerTrace, self_times

    from repro.planner import Planner

    p = gen.random_permutation(0, 0, N)
    with LayerTrace() as lt:
        Planner().compile(p, width=32).apply(gen.payload(0, 0, N))
    spans = lt.spans
    times = self_times(spans)
    compile_span = next(s for s in spans if s.name == "layer:planner.compile")
    inside = sum(v for k, v in times.items()
                 if k not in ("planner.compile", "planner.apply",
                              "exec.sealed_run"))
    assert times["coloring.edge_coloring"] > 0
    assert inside + times["planner.compile"] == pytest.approx(
        compile_span.duration_ns / 1e9)
