"""Out-of-core streaming executor for sharded permutation plans.

Applies a :class:`~repro.shard.ShardedProgram` to a payload that lives
on disk, never materialising more than a bounded number of bytes of
payload in process memory.  The factorisation's three scatters are
fused into **two gather passes** (gathers, unlike scatters, can be
evaluated in arbitrarily small output chunks against a memory-mapped
source):

1. *pre*  — ``mid[q] = in[pre⁻¹[q]]`` groups every stripe's elements
   by destination stripe (stripe-local reads);
2. *post* — ``out[q] = mid[(pre ∘ p⁻¹)[q]]`` fuses the column
   exchange with the final stripe-local placement, so each output
   stripe reads only its ``<= d`` contiguous exchange source ranges.

The gather index arrays are spilled to disk at prepare time and
memory-mapped back in tiles, so the executor's *allocated* footprint
per tile is ``tile_elems * (payload_itemsize + index_itemsize)``
regardless of ``n``.  ``max_resident_bytes`` is a hard budget on those
allocations: tile sizes are derived from it (halved for headroom,
divided by the declared stripe concurrency) and the running resident
count is asserted against it on every tile.  Memory-mapped files are
backed by the OS page cache and are reclaimable at any time; they are
deliberately *not* charged against the budget — that is what makes the
scheme out-of-core.

Telemetry: every run/stripe gets a span; the executor's
:class:`~repro.telemetry.MetricsRegistry` (the process-wide one unless
given) receives ``stream_*`` histograms for tile bytes, resident bytes
and exchange segment bytes; a job's totals are its StreamingStats.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro import telemetry
from repro.errors import ResidentBudgetError, ShardingError, SizeError

if TYPE_CHECKING:
    from repro.ir.program import KernelProgram
    from repro.shard import ShardedProgram
    from repro.telemetry import MetricsRegistry

__all__ = ["StreamingExecutor", "StreamingJob", "StreamingStats"]

#: Default hard budget for executor-allocated tile buffers: 256 MB.
DEFAULT_RESIDENT_BYTES = 256 * 1024 * 1024

_PHASES = ("pre", "post")


@dataclass
class StreamingStats:
    """Everything a caller needs to audit one streamed application."""

    n: int
    d: int
    dtype: str
    payload_bytes: int
    max_resident_bytes: int
    tile_elems: int
    tiles_loaded: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    exchange_segments: int = 0
    exchange_elements: int = 0
    exchange_bytes: int = 0
    peak_resident_payload_bytes: int = 0
    peak_resident_total_bytes: int = 0
    seconds: float = 0.0
    phase_seconds: dict[str, float] = field(default_factory=dict)

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        mb = 1024.0 * 1024.0
        return "\n".join(
            [
                f"streamed n={self.n} ({self.dtype}, "
                f"{self.payload_bytes / mb:.1f} MB) across d={self.d} "
                f"stripes in {self.seconds:.2f} s",
                f"  tiles: {self.tiles_loaded} x {self.tile_elems} elems, "
                f"read {self.bytes_read / mb:.1f} MB, "
                f"wrote {self.bytes_written / mb:.1f} MB",
                f"  exchange: {self.exchange_segments} segments, "
                f"{self.exchange_bytes / mb:.1f} MB crossing",
                f"  resident: peak payload "
                f"{self.peak_resident_payload_bytes / mb:.2f} MB, "
                f"peak total {self.peak_resident_total_bytes / mb:.2f} MB "
                f"(budget {self.max_resident_bytes / mb:.1f} MB)",
            ]
        )


class StreamingJob:
    """One prepared streamed application; stripes are the work units.

    Created by :meth:`StreamingExecutor.prepare`.  ``run_stripe(phase,
    k)`` processes stripe ``k`` of phase ``"pre"`` or ``"post"`` and is
    safe to call from multiple threads for *distinct* stripes — each
    stripe writes a disjoint range of the target map.  A ``"post"``
    stripe waits until every ``"pre"`` stripe has finished (the fused
    exchange reads across stripe boundaries), so schedulers must
    guarantee the pre stripes are running or done before blocking a
    thread on a post stripe.  Call :meth:`finalize` once to flush the
    output and collect the stats; :meth:`abort` releases waiters after
    a failure.
    """

    def __init__(
        self,
        sharded: ShardedProgram,
        path_in: str | Path,
        path_out: str | Path,
        max_resident_bytes: int,
        tmp_dir: str | Path | None,
        concurrency: int,
        metrics: MetricsRegistry,
    ) -> None:
        self.sharded = sharded
        self._metrics = metrics
        self._started = time.perf_counter()
        path_in = Path(path_in)
        path_out = Path(path_out)
        if path_in.resolve() == path_out.resolve():
            raise ShardingError(
                "streaming cannot permute a file onto itself"
            )
        self._in: np.ndarray | None = np.load(path_in, mmap_mode="r")
        n = sharded.n
        if self._in.shape != (n,):
            raise SizeError(
                f"payload {path_in} has shape {self._in.shape}, "
                f"expected ({n},)"
            )
        itemsize = int(self._in.dtype.itemsize)
        index_dtype = np.uint32 if n <= 2**32 else np.int64
        index_itemsize = int(np.dtype(index_dtype).itemsize)
        concurrency = max(1, int(concurrency))
        # Two live tiles of headroom per concurrent stripe keep the
        # asserted resident total at ~half the budget.
        tile_elems = max_resident_bytes // (
            2 * concurrency * (itemsize + index_itemsize)
        )
        tile_elems = min(tile_elems, max(1, sharded.stripe))
        if tile_elems < 1:
            raise ResidentBudgetError(
                f"max_resident_bytes={max_resident_bytes} cannot hold "
                f"even a one-element tile for dtype {self._in.dtype} at "
                f"concurrency {concurrency}; raise the budget"
            )
        self._tile_elems = int(tile_elems)

        self._owns_tmp = tmp_dir is None
        self._tmp = Path(
            tempfile.mkdtemp(prefix="repro-stream-")
            if tmp_dir is None
            else tmp_dir
        )
        self._tmp.mkdir(parents=True, exist_ok=True)

        # Spill the two fused gather maps, then map them back read-only
        # so index tiles are budgeted like payload tiles.
        arange = np.arange(n, dtype=np.int64)
        pre_inv = np.empty(n, dtype=np.int64)
        pre_inv[sharded.pre] = arange
        np.save(
            self._tmp / "gather-pre.npy", pre_inv.astype(index_dtype)
        )
        p = sharded.post[sharded.exchange[sharded.pre]]
        fused = np.empty(n, dtype=np.int64)
        fused[p] = sharded.pre
        np.save(self._tmp / "gather-post.npy", fused.astype(index_dtype))
        del arange, pre_inv, p, fused

        self._gather: dict[str, np.ndarray] = {
            phase: np.load(
                self._tmp / f"gather-{phase}.npy", mmap_mode="r"
            )
            for phase in _PHASES
        }
        self._mid: np.ndarray | None = np.lib.format.open_memmap(
            self._tmp / "mid.npy",
            mode="w+",
            dtype=self._in.dtype,
            shape=(n,),
        )
        path_out.parent.mkdir(parents=True, exist_ok=True)
        self._out: np.ndarray | None = np.lib.format.open_memmap(
            path_out, mode="w+", dtype=self._in.dtype, shape=(n,)
        )

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._done: dict[str, set[int]] = {p: set() for p in _PHASES}
        self._resident_payload = 0
        self._resident_total = 0
        self._failed: str | None = None
        self._finalized = False

        self.stats = StreamingStats(
            n=n,
            d=sharded.d,
            dtype=str(self._in.dtype),
            payload_bytes=n * itemsize,
            max_resident_bytes=max_resident_bytes,
            tile_elems=self._tile_elems,
            exchange_segments=len(sharded.segments),
            exchange_elements=sharded.exchange_elements,
            exchange_bytes=sharded.exchange_elements * itemsize,
        )
        seg_hist = metrics.histogram("stream_exchange_segment_bytes")
        for seg in sharded.segments:
            if seg.crosses:
                seg_hist.observe(seg.length * itemsize)

    # ------------------------------------------------------------- stripes

    def run_stripe(
        self, phase: str, k: int, timeout: float | None = None
    ) -> None:
        """Stream one stripe of one phase through bounded tiles."""
        if phase not in _PHASES:
            raise ShardingError(
                f"phase must be one of {_PHASES}, got {phase!r}"
            )
        if not 0 <= k < self.sharded.d:
            raise ShardingError(
                f"stripe index {k} out of range for d={self.sharded.d}"
            )
        if phase == "post":
            self._await_pre(timeout)
        src = self._in if phase == "pre" else self._mid
        dst = self._mid if phase == "pre" else self._out
        if src is None or dst is None or phase not in self._gather:
            raise ShardingError(
                "streaming job is already finalized or aborted"
            )
        gather = self._gather[phase]
        stripe = self.sharded.stripe
        lo, hi = k * stripe, (k + 1) * stripe
        itemsize = int(src.dtype.itemsize)
        started = time.perf_counter()
        with telemetry.span("stream.stripe", phase=phase, stripe=k):
            for t0 in range(lo, hi, self._tile_elems):
                t1 = min(t0 + self._tile_elems, hi)
                idx = np.asarray(gather[t0:t1])
                payload_bytes = (t1 - t0) * itemsize
                self._acquire(payload_bytes, payload_bytes + idx.nbytes)
                try:
                    tile = src[idx]
                    dst[t0:t1] = tile
                finally:
                    self._release(
                        payload_bytes, payload_bytes + idx.nbytes
                    )
                with self._lock:
                    self.stats.tiles_loaded += 1
                    self.stats.bytes_read += payload_bytes + idx.nbytes
                    self.stats.bytes_written += payload_bytes
                self._metrics.histogram(
                    "stream_tile_bytes", phase=phase
                ).observe(payload_bytes)
                del idx, tile
        with self._cond:
            self._done[phase].add(k)
            self.stats.phase_seconds[phase] = self.stats.phase_seconds.get(
                phase, 0.0
            ) + (time.perf_counter() - started)
            self._cond.notify_all()

    def _await_pre(self, timeout: float | None) -> None:
        with self._cond:
            ok = self._cond.wait_for(
                lambda: self._failed is not None
                or len(self._done["pre"]) == self.sharded.d,
                timeout=timeout,
            )
            if self._failed is not None:
                raise ShardingError(
                    f"streaming job aborted: {self._failed}"
                )
            if not ok:
                raise ShardingError(
                    "timed out waiting for pre-phase stripes"
                )

    # ------------------------------------------------------------- budget

    def _acquire(self, payload_bytes: int, total_bytes: int) -> None:
        with self._lock:
            self._resident_payload += payload_bytes
            self._resident_total += total_bytes
            if self._resident_total > self.stats.max_resident_bytes:
                self._resident_payload -= payload_bytes
                self._resident_total -= total_bytes
                raise ResidentBudgetError(
                    f"tile would put {self._resident_total + total_bytes}"
                    " resident bytes over the budget of "
                    f"{self.stats.max_resident_bytes}; lower the "
                    "stripe concurrency or raise the budget"
                )
            self.stats.peak_resident_payload_bytes = max(
                self.stats.peak_resident_payload_bytes,
                self._resident_payload,
            )
            self.stats.peak_resident_total_bytes = max(
                self.stats.peak_resident_total_bytes,
                self._resident_total,
            )
            self._metrics.histogram("stream_resident_bytes").observe(
                self._resident_total
            )

    def _release(self, payload_bytes: int, total_bytes: int) -> None:
        with self._lock:
            self._resident_payload -= payload_bytes
            self._resident_total -= total_bytes

    # ----------------------------------------------------------- lifecycle

    def done(self) -> bool:
        """True when every stripe of every phase has been streamed."""
        with self._lock:
            return all(
                len(self._done[p]) == self.sharded.d for p in _PHASES
            )

    def abort(self, reason: str = "aborted") -> None:
        """Mark the job failed and wake any waiting post stripes."""
        with self._cond:
            self._failed = reason
            self._cond.notify_all()
        self._cleanup()

    def finalize(self) -> StreamingStats:
        """Flush the output, drop the spill files, return the stats."""
        if not self.done():
            missing = {
                p: self.sharded.d - len(self._done[p]) for p in _PHASES
            }
            raise ShardingError(
                f"cannot finalize: stripes still pending {missing}"
            )
        if not self._finalized:
            self._finalized = True
            if isinstance(self._out, np.memmap):
                self._out.flush()
            self.stats.seconds = time.perf_counter() - self._started
            self._cleanup()
        return self.stats

    def _cleanup(self) -> None:
        self._gather = {}
        self._mid = None
        self._in = None
        self._out = None
        if self._owns_tmp:
            shutil.rmtree(self._tmp, ignore_errors=True)
        else:
            for name in ("gather-pre.npy", "gather-post.npy", "mid.npy"):
                (self._tmp / name).unlink(missing_ok=True)


class StreamingExecutor:
    """Apply sharded plans to on-disk payloads under a byte budget."""

    def __init__(
        self,
        max_resident_bytes: int = DEFAULT_RESIDENT_BYTES,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_resident_bytes < 1:
            raise ResidentBudgetError(
                f"max_resident_bytes must be >= 1, got {max_resident_bytes}"
            )
        self.max_resident_bytes = int(max_resident_bytes)
        self.metrics = telemetry.REGISTRY if metrics is None else metrics

    def prepare(
        self,
        sharded: ShardedProgram,
        path_in: str | Path,
        path_out: str | Path,
        tmp_dir: str | Path | None = None,
        concurrency: int = 1,
    ) -> StreamingJob:
        """Open the maps and spill the gather indexes; no payload moves."""
        return StreamingJob(
            sharded,
            path_in,
            path_out,
            self.max_resident_bytes,
            tmp_dir,
            concurrency,
            self.metrics,
        )

    def run_sharded(
        self,
        sharded: ShardedProgram,
        path_in: str | Path,
        path_out: str | Path,
        tmp_dir: str | Path | None = None,
    ) -> StreamingStats:
        """Stream both phases, each phase's ``d`` stripes on threads.

        The stripes are the paper's ``d`` DMMs working side by side:
        ``min(d, os.cpu_count())`` threads run them (the gathers
        release the interpreter lock), all pre stripes before any post
        stripe, and the tiles shrink by the same factor so the
        resident budget still holds.  A failing stripe aborts the job
        once the stripes already running finish, and its error is
        re-raised here.
        """
        threads = min(sharded.d, os.cpu_count() or 1)
        with telemetry.span(
            "stream.run", n=sharded.n, d=sharded.d, threads=threads
        ) as sp:
            job = self.prepare(
                sharded, path_in, path_out, tmp_dir, concurrency=threads
            )
            tracer = telemetry.get_tracer()

            def stripe(phase: str, k: int) -> None:
                # Nest the worker's stripe span under this run's span.
                with tracer.adopt(sp) if tracer else nullcontext():
                    job.run_stripe(phase, k)

            pool = ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix="repro-stream"
            )
            try:
                for phase in _PHASES:
                    futures = [
                        pool.submit(stripe, phase, k)
                        for k in range(sharded.d)
                    ]
                    for future in futures:
                        future.result()
            except BaseException as exc:
                pool.shutdown(cancel_futures=True)
                job.abort(str(exc))
                raise
            finally:
                pool.shutdown()
            stats = job.finalize()
            sp.set(
                tiles=stats.tiles_loaded,
                peak_resident=stats.peak_resident_total_bytes,
            )
        return stats

    def run(
        self,
        program: KernelProgram,
        path_in: str | Path,
        path_out: str | Path,
        d: int = 8,
        tmp_dir: str | Path | None = None,
        validate: bool = True,
    ) -> StreamingStats:
        """Shard ``program`` into ``d`` stripes, prove it, stream it."""
        from repro.shard import shard_program

        sharded = shard_program(program, d, validate=validate)
        return self.run_sharded(sharded, path_in, path_out, tmp_dir)
