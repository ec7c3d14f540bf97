"""Tests for the out-of-core streaming executor."""

import os
import sys
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.errors import ResidentBudgetError, ShardingError, SizeError
from repro.exec.streaming import StreamingExecutor, StreamingJob
from repro.ir.registry import get_engine
from repro.permutations.named import bit_reversal, random_permutation
from repro.shard import shard_program
from repro.telemetry import MetricsRegistry

N = 4096
WIDTH = 32


def _sharded(p, d=4):
    program = get_engine("d-designated").plan(p, width=WIDTH).lower()
    return shard_program(program, d)


def _payload(path, n, dtype=np.float64):
    a = (np.arange(n) * 3 + 1).astype(dtype)
    np.save(path, a)
    return a


@pytest.fixture
def paths(tmp_path):
    return tmp_path / "in.npy", tmp_path / "out.npy"


class _StripeFault(Exception):
    """Raised by a planted stripe; not a library error type."""


class TestCorrectness:
    @pytest.mark.parametrize("d", (1, 2, 4, 8))
    def test_streamed_matches_scatter(self, paths, d):
        src, dst = paths
        p = bit_reversal(N)
        a = _payload(src, N)
        expected = np.empty_like(a)
        expected[p] = a
        stats = StreamingExecutor(
            max_resident_bytes=64 * 1024
        ).run_sharded(_sharded(p, d), src, dst)
        assert np.array_equal(np.load(dst), expected)
        assert stats.n == N and stats.d == d

    @pytest.mark.parametrize("dtype", (np.float32, np.float64, np.int32))
    def test_dtypes_round_trip(self, paths, dtype):
        src, dst = paths
        p = random_permutation(N, seed=5)
        a = _payload(src, N, dtype)
        expected = np.empty_like(a)
        expected[p] = a
        StreamingExecutor(max_resident_bytes=64 * 1024).run_sharded(
            _sharded(p), src, dst
        )
        out = np.load(dst)
        assert out.dtype == np.dtype(dtype)
        assert np.array_equal(out, expected)

    def test_run_shards_proves_and_streams(self, paths):
        src, dst = paths
        p = random_permutation(N, seed=2)
        a = _payload(src, N)
        expected = np.empty_like(a)
        expected[p] = a
        program = get_engine("d-designated").plan(p, width=WIDTH).lower()
        stats = StreamingExecutor(max_resident_bytes=64 * 1024).run(
            program, src, dst, d=4
        )
        assert np.array_equal(np.load(dst), expected)
        assert stats.exchange_elements > 0


class TestBudget:
    def test_peak_resident_stays_under_budget(self, paths, monkeypatch):
        # run_sharded runs min(d, cpu_count) = 4 stripes at once; a
        # short switch interval interleaves their shared-stats updates.
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        src, dst = paths
        budget = 8 * 1024
        p = bit_reversal(N)
        a = _payload(src, N)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stats = StreamingExecutor(
                max_resident_bytes=budget
            ).run_sharded(_sharded(p), src, dst)
        finally:
            sys.setswitchinterval(interval)
        assert 0 < stats.peak_resident_total_bytes <= budget
        assert (stats.peak_resident_payload_bytes
                <= stats.peak_resident_total_bytes)
        # The budget forces tiling: many more tiles than stripes.
        assert stats.tiles_loaded > 2 * stats.d
        assert stats.tile_elems < N // stats.d
        # No lost update: every tile of both phases counted once.
        per_stripe = -(-(N // stats.d) // stats.tile_elems)
        assert stats.tiles_loaded == 2 * stats.d * per_stripe
        assert stats.bytes_written == 2 * a.nbytes
        expected = np.empty_like(a)
        expected[p] = a
        assert np.array_equal(np.load(dst), expected)

    def test_budget_too_small_for_one_element(self, paths):
        src, dst = paths
        p = bit_reversal(N)
        _payload(src, N)
        with pytest.raises(ResidentBudgetError):
            StreamingExecutor(max_resident_bytes=8).run_sharded(
                _sharded(p), src, dst
            )

    def test_invalid_budget_rejected(self):
        with pytest.raises(ResidentBudgetError):
            StreamingExecutor(max_resident_bytes=0)


class TestLifecycle:
    def test_finalize_before_done_refused(self, paths, tmp_path):
        src, dst = paths
        p = bit_reversal(N)
        _payload(src, N)
        job = StreamingExecutor(max_resident_bytes=64 * 1024).prepare(
            _sharded(p), src, dst
        )
        with pytest.raises(ShardingError, match="pending"):
            job.finalize()
        for phase in ("pre", "post"):
            for k in range(4):
                job.run_stripe(phase, k)
        stats = job.finalize()
        assert job.done()
        assert stats.seconds >= 0.0
        # Finalize is idempotent.
        assert job.finalize() is stats

    def test_abort_wakes_post_waiters(self, paths):
        src, dst = paths
        p = bit_reversal(N)
        _payload(src, N)
        job = StreamingExecutor(max_resident_bytes=64 * 1024).prepare(
            _sharded(p), src, dst
        )
        job.abort("seeded failure")
        with pytest.raises(ShardingError, match="seeded failure"):
            job.run_stripe("post", 0, timeout=1.0)

    def test_stripe_arguments_validated(self, paths):
        src, dst = paths
        p = bit_reversal(N)
        _payload(src, N)
        job = StreamingExecutor(max_resident_bytes=64 * 1024).prepare(
            _sharded(p), src, dst
        )
        with pytest.raises(ShardingError):
            job.run_stripe("mid", 0)
        with pytest.raises(ShardingError):
            job.run_stripe("pre", 4)
        job.abort("cleanup")

    def test_same_file_in_and_out_refused(self, paths):
        src, _ = paths
        p = bit_reversal(N)
        _payload(src, N)
        with pytest.raises(ShardingError, match="onto itself"):
            StreamingExecutor(max_resident_bytes=64 * 1024).prepare(
                _sharded(p), src, src
            )

    def test_wrong_payload_size_refused(self, paths):
        src, dst = paths
        p = bit_reversal(N)
        _payload(src, N // 2)
        with pytest.raises(SizeError):
            StreamingExecutor(max_resident_bytes=64 * 1024).prepare(
                _sharded(p), src, dst
            )

    def test_external_tmp_dir_spill_files_removed(self, paths, tmp_path):
        src, dst = paths
        spill = tmp_path / "spill"
        spill.mkdir()
        p = bit_reversal(N)
        _payload(src, N)
        StreamingExecutor(max_resident_bytes=64 * 1024).run_sharded(
            _sharded(p), src, dst, tmp_dir=spill
        )
        assert not list(spill.glob("gather-*.npy"))
        assert not (spill / "mid.npy").exists()

    @pytest.mark.parametrize("fail", (("pre", 1), ("post", 2)))
    def test_failing_stripe_aborts_and_reraises(
        self, paths, tmp_path, monkeypatch, fail
    ):
        src, dst = paths
        spill = tmp_path / "spill"
        spill.mkdir()
        p = bit_reversal(N)
        _payload(src, N)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        ran, raised_on = [], []
        run_stripe = StreamingJob.run_stripe

        def planted(job, phase, k, timeout=None):
            ran.append(phase)
            if (phase, k) == fail:
                raised_on.append(threading.current_thread())
                raise _StripeFault(f"{phase} stripe {k}")
            run_stripe(job, phase, k, timeout)

        monkeypatch.setattr(StreamingJob, "run_stripe", planted)
        # The worker's own error type reaches the caller, the job
        # aborts (no spill files left), and a failed pre phase starts
        # no post stripe.
        with pytest.raises(_StripeFault):
            StreamingExecutor(max_resident_bytes=64 * 1024).run_sharded(
                _sharded(p), src, dst, tmp_dir=spill
            )
        assert raised_on[0] is not threading.main_thread()
        assert ("post" in ran) == (fail[0] == "post")
        assert not list(spill.glob("gather-*.npy"))
        assert not (spill / "mid.npy").exists()


class TestTelemetry:
    def test_metrics_histograms_observed(self, paths):
        src, dst = paths
        p = bit_reversal(N)
        _payload(src, N)
        metrics = MetricsRegistry()
        StreamingExecutor(
            max_resident_bytes=64 * 1024, metrics=metrics
        ).run_sharded(_sharded(p), src, dst)
        snapshot = metrics.snapshot()
        assert "stream_tile_bytes" in snapshot
        assert "stream_resident_bytes" in snapshot
        assert "stream_exchange_segment_bytes" in snapshot
        tile_series = snapshot["stream_tile_bytes"]
        assert {s["labels"].get("phase") for s in tile_series} == {
            "pre", "post"
        }
        assert all(s["count"] > 0 for s in tile_series)

    def test_stripe_spans_nest_under_run(self, paths, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        src, dst = paths
        _payload(src, N)
        tracer = telemetry.Tracer()
        with telemetry.use_tracer(tracer):
            StreamingExecutor(max_resident_bytes=64 * 1024).run_sharded(
                _sharded(bit_reversal(N)), src, dst
            )
        (run,) = tracer.find("stream.run")
        assert run.attributes["threads"] == 2
        stripes = tracer.find("stream.stripe")
        assert len(stripes) == 2 * 4
        assert {s.parent_id for s in stripes} == {run.span_id}

    def test_stats_describe_mentions_budget(self, paths):
        src, dst = paths
        p = bit_reversal(N)
        _payload(src, N)
        stats = StreamingExecutor(max_resident_bytes=64 * 1024).run_sharded(
            _sharded(p), src, dst
        )
        text = stats.describe()
        assert "budget" in text
        assert "stripes" in text
