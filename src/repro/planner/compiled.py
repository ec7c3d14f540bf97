"""The :class:`Planner` (compile-once front door) and the
:class:`CompiledPermutation` handle it returns.

``Planner.compile(p)`` resolves a permutation to a compiled handle by
walking the cache tiers cheapest-first — in-memory LRU, then the
**sealed** sidecar on disk, then the full v3 disk entry, then a cold
``Engine.plan`` — and the handle's ``apply`` / ``apply_batch`` /
``simulate`` never re-plan.  On the workload the paper targets (one
permutation, many payloads) this turns every call after the first into
pure apply time, and with the sealed tier that apply is a *single*
proven flat gather: a handle resolved from a sealed sidecar serves
``apply`` without ever rehydrating the v3 plan file (the full program
is loaded lazily, only if something asks for ``lower()`` /
``simulate()`` / ``shard()`` / a recorder).
"""

from __future__ import annotations

import threading
import time
import weakref
from collections.abc import Callable
from pathlib import Path
from typing import TYPE_CHECKING, Any, NamedTuple

import numpy as np

from repro import telemetry
from repro.errors import CertificateError, SemanticValidationError
from repro.ir.program import KernelProgram
from repro.ir.registry import get_engine
from repro.ir.sealed import SealedProgram
from repro.passes import PassPipeline, default_pipeline, seal_program
from repro.planner.cache import DiskPlanCache, LRUPlanCache
from repro.planner.fingerprint import (
    permutation_digest,
    plan_fingerprint,
    shard_fingerprint,
)
from repro.staticcheck.semantics import (
    SemanticCertificate,
    SemanticChecker,
    validate_translation,
)
from repro.telemetry import MetricsRegistry

if TYPE_CHECKING:
    from repro.exec.streaming import StreamingStats
    from repro.shard import ShardedProgram

#: What a lazy handle's loader returns: the planned engine, its
#: optimized program, and the translation-validation certificate.
_Loaded = tuple[Any, KernelProgram, "SemanticCertificate | None"]


class _Proof(NamedTuple):
    """What one validated optimization proved.

    ``program`` is the program to serve (the optimized one, or the raw
    one when the optimization was refuted), ``certificate`` its
    translation certificate, ``proven`` whether the optimization was,
    and ``raw_certificate`` the raw program's own proof against the
    requested permutation — the certificate a plan file embeds (issued
    only when the plan is to be persisted, or as the fallback proof).
    """

    program: KernelProgram
    certificate: SemanticCertificate
    proven: bool
    raw_certificate: SemanticCertificate | None


class CompiledPermutation:
    """A planned, optimized, fingerprinted permutation.

    Wraps the planned engine together with its pipeline-optimized
    program and — when the planner sealed it — the proven flat index
    maps of :class:`~repro.ir.sealed.SealedProgram`; every method here
    executes the stored artifacts (or delegates to the already-planned
    engine) — none of them ever re-plans.

    Handles resolved from a sealed disk sidecar are **lazy**: the
    engine and full program stay unloaded (``loader`` rehydrates them
    on first demand), while ``apply`` / ``apply_batch`` / ``p`` /
    ``n`` are served from the sealed maps alone.
    """

    def __init__(
        self,
        engine: Any,
        program: KernelProgram | None,
        fingerprint: str,
        pipeline_signature: str,
        semantic_certificate: SemanticCertificate | None = None,
        sealed: SealedProgram | None = None,
        loader: "Callable[[], _Loaded] | None" = None,
    ) -> None:
        if program is None and loader is None:
            raise ValueError(
                "CompiledPermutation needs a program or a loader"
            )
        self._engine = engine
        self._program = program
        self._loader = loader
        self.fingerprint = fingerprint
        self.pipeline_signature = pipeline_signature
        #: The translation-validation proof issued when the planner
        #: optimized this handle's program (``None`` for handles built
        #: outside the planner).
        self.semantic_certificate = semantic_certificate
        #: The sealed (single proven gather) form, when the planner
        #: sealed this handle; ``apply``/``apply_batch`` route through
        #: it.
        self.sealed = sealed
        self._load_lock = threading.Lock()
        # Proven shardings, memoized per stripe count.
        self._shards: dict[int, ShardedProgram] = {}
        self._shard_lock = threading.Lock()

    # -- lazy rehydration ----------------------------------------------

    def _ensure_loaded(self) -> None:
        if self._program is not None:
            return
        with self._load_lock:
            if self._program is not None:
                return
            assert self._loader is not None
            telemetry.count("planner_sealed_rehydrated_total")
            engine, program, cert = self._loader()
            self._engine = engine
            if self.semantic_certificate is None:
                self.semantic_certificate = cert
            # Assigned last: _ensure_loaded's unlocked fast path keys
            # off _program, so it must only become visible once the
            # engine is in place.
            self._program = program

    @property
    def engine(self) -> Any:
        """The planned engine (rehydrated on first demand)."""
        self._ensure_loaded()
        return self._engine

    @property
    def program(self) -> KernelProgram:
        """The optimized program (rehydrated on first demand)."""
        self._ensure_loaded()
        assert self._program is not None
        return self._program

    @property
    def is_loaded(self) -> bool:
        """Whether the engine/program are resident (False only for
        sealed handles that have served every request so far from the
        sealed maps)."""
        return self._program is not None

    # -- cheap accessors (never force rehydration) ---------------------

    @property
    def p(self) -> np.ndarray:
        if self.sealed is not None:
            return self.sealed.scatter
        return np.asarray(self.engine.p)

    @property
    def n(self) -> int:
        if self.sealed is not None:
            return self.sealed.n
        return int(self.program.n)

    @property
    def width(self) -> int:
        if self.sealed is not None:
            return self.sealed.width
        return int(self.program.width)

    @property
    def engine_name(self) -> str:
        if self._engine is None and self.sealed is not None:
            return self.sealed.engine
        return str(getattr(type(self.engine), "engine_name", ""))

    def predicted_rounds(self) -> int | None:
        """The annotate-cost pass's round prediction, from the sealed
        meta when available (so observing an apply never forces a
        lazy handle to rehydrate its program)."""
        if self.sealed is not None:
            rounds = self.sealed.meta.get("predicted_rounds")
        else:
            rounds = (self.program.meta or {}).get("predicted_rounds")
        if isinstance(rounds, int) and rounds > 0:
            return rounds
        return None

    def resident_bytes(self) -> int:
        """Bytes this handle pins in memory (cache accounting): the
        sealed index maps plus the program's schedule arrays, counting
        only what is actually resident."""
        total = 0
        if self.sealed is not None:
            total += self.sealed.nbytes
        program = self._program
        if program is not None:
            for op in program.ops:
                for field in op._ARRAY_FIELDS:
                    value = getattr(op, field)
                    if value is not None:
                        total += int(np.asarray(value).nbytes)
        return total

    # -- execution ------------------------------------------------------

    def apply(
        self, a: np.ndarray, recorder: Any | None = None
    ) -> np.ndarray:
        """Permute one array.

        Sealed handles serve this as a single proven flat gather.
        With a ``recorder`` the call delegates to the planned engine's
        traced kernels (recorders observe real access rounds, which
        neither the sealed nor the optimized reference path emits).
        """
        if recorder is not None:
            return np.asarray(self.engine.apply(a, recorder))
        if self.sealed is not None:
            from repro.exec.sealed import SealedExecutor

            return np.asarray(SealedExecutor().run(self.sealed, a))
        from repro.exec.reference import ReferenceExecutor

        return np.asarray(ReferenceExecutor().run(self.program, a))

    def apply_batch(self, batch: np.ndarray) -> np.ndarray:
        """Permute ``k`` stacked payloads (one 2-D gather when sealed,
        one pass per kernel op otherwise)."""
        if self.sealed is not None:
            from repro.exec.sealed import SealedExecutor

            return np.asarray(
                SealedExecutor().run_batch(self.sealed, batch)
            )
        from repro.exec.batch import BatchExecutor

        return np.asarray(BatchExecutor().run(self.program, batch))

    def lower(self) -> KernelProgram:
        """The *optimized* program (the handle's execution substrate)."""
        return self.program

    def simulate(
        self, machine: Any = None, dtype: Any = np.float32
    ) -> Any:
        """Price the optimized program on the HMM cost model."""
        from repro.exec.simulator import SimulatorExecutor

        return SimulatorExecutor().simulate(
            self.program, machine, dtype=dtype
        )

    def shard(self, d: int) -> "ShardedProgram":
        """The proven ``d``-stripe sharding of this handle's program.

        Factors the stored optimized program into ``d`` row stripes
        plus a column exchange, proves the factorisation against the
        whole program's denotation, and memoizes the result per ``d``
        (sharding denotes the full program — worth amortizing exactly
        like planning is).
        """
        with self._shard_lock:
            sharded = self._shards.get(d)
        if sharded is not None:
            return sharded
        from repro.shard import shard_program

        with telemetry.span(
            "planner.shard", d=d, fingerprint=self.fingerprint[:12]
        ):
            sharded = shard_program(self.program, d)
        with self._shard_lock:
            return self._shards.setdefault(d, sharded)

    def shard_fingerprint(self, d: int) -> str:
        """Content-addressed identity of the ``d``-stripe shard plan."""
        return shard_fingerprint(self.fingerprint, d)

    def apply_stream(
        self,
        path_in: str | Path,
        path_out: str | Path,
        d: int = 8,
        max_resident_bytes: int | None = None,
        tmp_dir: str | Path | None = None,
    ) -> "StreamingStats":
        """Permute an on-disk payload out-of-core.

        Reads the ``.npy`` payload at ``path_in``, streams it through
        the proven ``d``-stripe sharding under the resident-bytes
        budget, and writes the permuted payload to ``path_out``.
        """
        from repro.exec.streaming import (
            DEFAULT_RESIDENT_BYTES,
            StreamingExecutor,
        )

        executor = StreamingExecutor(
            max_resident_bytes=max_resident_bytes
            or DEFAULT_RESIDENT_BYTES
        )
        return executor.run_sharded(
            self.shard(d), path_in, path_out, tmp_dir=tmp_dir
        )

    def describe(self) -> str:
        lines = [
            f"compiled {self.engine_name!r}: fingerprint "
            f"{self.fingerprint[:12]}...",
            f"  pipeline {self.pipeline_signature}",
        ]
        if self.semantic_certificate is not None:
            lines.append("  " + self.semantic_certificate.summary())
        if self.sealed is not None:
            lines.append("  " + self.sealed.describe())
        if self._program is not None:
            lines.append(self._program.describe())
        else:
            lines.append(
                "  program: not resident (sealed handle; rehydrates "
                "on demand)"
            )
        return "\n".join(lines)


class Planner:
    """Compile-once / apply-many front door over the engine registry.

    Parameters
    ----------
    cache_size:
        Capacity (entry count) of the in-memory LRU tier.
    cache_dir:
        Optional directory for the persistent disk tier (created on
        demand); ``None`` disables it.
    pipeline:
        Pass pipeline to optimize compiled programs with (defaults to
        the process-wide :func:`~repro.passes.default_pipeline`).  The
        pipeline's signature is part of every fingerprint.
    backend:
        Default colouring backend forwarded to ``Engine.plan``.
    cache_max_bytes:
        Optional bound on the memory tier's resident bytes (programs
        plus sealed index maps); LRU-evicted past it.
    disk_max_bytes:
        Optional bound on the disk tier's total file bytes (plans plus
        sealed sidecars); LRU-evicted past it.
    """

    def __init__(
        self,
        cache_size: int = 64,
        cache_dir: str | Path | None = None,
        pipeline: PassPipeline | None = None,
        backend: str = "auto",
        cache_max_bytes: int | None = None,
        disk_max_bytes: int | None = None,
    ) -> None:
        self.pipeline = pipeline or default_pipeline()
        self._metrics = metrics = MetricsRegistry()
        self.memory = LRUPlanCache(
            cache_size, max_bytes=cache_max_bytes, _metrics=metrics
        )
        self.disk = (
            DiskPlanCache(
                cache_dir, max_bytes=disk_max_bytes, _metrics=metrics
            )
            if cache_dir is not None
            else None
        )
        self.backend = backend
        self._cold_plans = metrics.counter("planner_cold_plans_total")
        self._shard_plans = metrics.counter("planner_shard_plans_total")
        self._sealed_plans = metrics.counter(
            "planner_sealed_plans_total"
        )
        # Cold plans made in closed form (affine permutations), so
        # /metrics shows which path planned.
        self._affine_plans = metrics.counter("planner_affine_plans_total")
        # Rejections are labeled by the blamed pass; binding every
        # pass up front exports the family at zero.
        for blame in (*(p.name for p in self.pipeline.passes),
                      "<pipeline>"):
            metrics.counter("planner_semantic_rejections_total",
                            blame=blame)
        self._lock = threading.Lock()
        # One lock per in-flight fingerprint: concurrent compiles of
        # the same permutation collapse to a single cold plan, the
        # rest wait and take the memory hit.
        self._inflight: dict[str, threading.Lock] = {}

    @property
    def metrics(self) -> MetricsRegistry:
        """The one registry of this planner, its cache tiers and the
        service/server over it: every ``stats()`` counter, plus
        ``planner_compile_seconds{tier,engine}`` per compile."""
        return self._metrics

    def fingerprint(
        self,
        p: np.ndarray,
        engine: str = "scheduled",
        width: int = 32,
        digest: str | None = None,
    ) -> str:
        """The content-addressed cache key ``compile`` would use."""
        if digest is None:
            digest = permutation_digest(p)
        return plan_fingerprint(
            digest, engine, width, self.pipeline.signature()
        )

    def compile(
        self,
        p: np.ndarray,
        engine: str = "scheduled",
        width: int = 32,
        digest: str | None = None,
        backend: str | None = None,
    ) -> CompiledPermutation:
        """Resolve ``p`` to a :class:`CompiledPermutation`.

        Tier order: memory LRU, sealed disk sidecar, full v3 disk
        entry, cold ``Engine.plan``.  A caller that already holds the
        permutation's digest (e.g. the resilience chain hopping
        engines) passes it via ``digest`` so the array is never
        re-hashed.
        """
        fp = self.fingerprint(p, engine=engine, width=width,
                              digest=digest)
        t0 = time.perf_counter()
        with telemetry.span(
            "planner.compile", engine=engine, fingerprint=fp[:12]
        ) as sp:
            compiled, tier = self._resolve(fp, p, engine, width,
                                           backend)
            sp.set(tier=tier)
        self._metrics.histogram(
            "planner_compile_seconds", tier=tier, engine=engine
        ).observe(time.perf_counter() - t0)
        return compiled

    def _resolve(
        self,
        fp: str,
        p: np.ndarray,
        engine: str,
        width: int,
        backend: str | None,
    ) -> tuple[CompiledPermutation, str]:
        """Walk the tiers for ``fp``; returns (handle, answering tier)."""
        compiled = self.memory.get(fp)
        if compiled is not None:
            return compiled, "memory"
        with self._flight(fp):
            # Another thread may have finished this exact compile
            # while we waited; its result is now a memory hit.
            compiled = self.memory.get_if_present(fp)
            if compiled is not None:
                return compiled, "memory"
            if self.disk is not None:
                sealed = self.disk.load_sealed(fp)
                if sealed is not None:
                    compiled = self._from_sealed(fp, sealed, backend)
                    self.memory.put(fp, compiled)
                    return compiled, "sealed"
            plan = (
                self.disk.load(fp) if self.disk is not None else None
            )
            if plan is not None:
                tier, plan_sha = "disk", None
                proof = self._optimize_validated(plan)
            else:
                tier = "cold"
                plan, proof, plan_sha = self._plan_cold(
                    fp, p, engine, width, backend
                )
            program, cert = proof.program, proof.certificate
            sealed = (
                self._seal(plan, program, cert) if proof.proven else None
            )
            compiled = CompiledPermutation(
                engine=plan,
                program=program,
                fingerprint=fp,
                pipeline_signature=self.pipeline.signature(),
                semantic_certificate=cert,
                sealed=sealed,
            )
            if proof.proven:
                self.memory.put(fp, compiled)
                if self.disk is not None and sealed is not None:
                    self._store_sealed(fp, sealed, plan_sha)
            return compiled, tier

    def _plan_cold(
        self,
        fp: str,
        p: np.ndarray,
        engine: str,
        width: int,
        backend: str | None,
    ) -> tuple[Any, "_Proof", str | None]:
        """Plan ``p`` from scratch, prove it, and persist it when the
        planner has a disk tier; returns the plan, its proof, and the
        checksum the plan write computed (``None`` if nothing was
        written)."""
        with telemetry.span("planner.plan", engine=engine):
            plan = get_engine(engine).plan(
                p, width=width, backend=backend or self.backend,
            )
        self._cold_plans.inc()
        if getattr(plan, "affine", None) is not None:
            self._affine_plans.inc()
        proof = self._optimize_validated(
            plan, persisting=self.disk is not None
        )
        plan_sha = None
        if self.disk is not None:
            plan_sha = self.disk.store(
                fp, plan, self.pipeline.signature(),
                semantic_certificate=proof.raw_certificate,
            )
        return plan, proof, plan_sha

    def _seal(
        self,
        plan: Any,
        program: KernelProgram,
        cert: SemanticCertificate | None,
    ) -> SealedProgram | None:
        """Collapse a proven optimized program to its sealed form.

        Reuses the just-issued translation-validation certificate, so
        sealing costs one inversion pass, not a re-denotation.  A seal
        that fails (it should not, the map is proven) degrades to an
        unsealed handle, never to an error on the compile path.
        """
        try:
            sealed = seal_program(
                program,
                requested=np.asarray(plan.p),
                certificate=cert,
                pipeline_signature=self.pipeline.signature(),
            )
        except SemanticValidationError:  # pragma: no cover - belt
            self._metrics.counter("planner_seal_refused_total").inc()
            return None
        sealed.certificate = cert
        self._sealed_plans.inc()
        return sealed

    def _store_sealed(
        self, fp: str, sealed: SealedProgram, plan_sha: str | None = None
    ) -> None:
        """Persist the sealed sidecar, bound to its plan file's
        payload checksum: ``plan_sha`` when the caller just wrote the
        plan (the checksum its write computed), else read back cheaply
        from the v3 entry on disk."""
        assert self.disk is not None
        from repro.core.io import read_plan_checksum
        from repro.errors import PlanIntegrityError

        sealed.meta["fingerprint"] = fp
        plan_path = self.disk.path_for(fp)
        if plan_sha is not None:
            sealed.meta["plan_sha"] = plan_sha
        elif plan_path.exists():
            try:
                sealed.meta["plan_sha"] = read_plan_checksum(plan_path)
            except PlanIntegrityError:
                sealed.meta.pop("plan_sha", None)
        try:
            self.disk.store_sealed(fp, sealed)
        except OSError:
            # A failed sidecar persist must not fail the compile; the
            # sealed form still serves from memory.
            self._metrics.counter("planner_sealed_store_failed_total").inc()

    def _from_sealed(
        self, fp: str, sealed: SealedProgram, backend: str | None
    ) -> CompiledPermutation:
        """A lazy handle over a sealed sidecar hit.

        Applies are served from the sealed maps immediately; the v3
        plan is rehydrated (or, if its file has meanwhile vanished,
        re-planned from the sealed scatter map — which *is* the
        permutation) only when a caller needs the full program.
        """

        # The handle lands in this planner's memory tier, so the loader
        # holds the planner weakly: a strong reference closes a cycle,
        # and a dropped planner's sealed maps would then wait for the
        # cyclic collector instead of being freed at once.  A handle
        # that outlives its planner rehydrates through a fresh one over
        # the same pipeline and directory.
        owner = weakref.ref(self)
        pipeline, default_backend = self.pipeline, self.backend
        directory = self.disk.directory if self.disk is not None else None

        def loader() -> _Loaded:
            planner = owner()
            if planner is None:
                planner = Planner(
                    cache_dir=directory, pipeline=pipeline,
                    backend=default_backend,
                )
            disk = planner.disk
            plan = disk.load(fp) if disk is not None else None
            if plan is None:
                plan, proof, _sha = planner._plan_cold(
                    fp, sealed.scatter, sealed.engine, sealed.width,
                    backend,
                )
            else:
                proof = planner._optimize_validated(plan)
            return plan, proof.program, proof.certificate

        return CompiledPermutation(
            engine=None,
            program=None,
            fingerprint=fp,
            pipeline_signature=self.pipeline.signature(),
            semantic_certificate=sealed.certificate,
            sealed=sealed,
            loader=loader,
        )

    def compile_sharded(
        self,
        p: np.ndarray,
        d: int,
        engine: str = "scheduled",
        width: int = 32,
        digest: str | None = None,
        backend: str | None = None,
    ) -> "tuple[CompiledPermutation, ShardedProgram]":
        """Compile ``p`` and return its proven ``d``-stripe sharding.

        The handle comes from the usual cache tiers; the sharding is
        memoized on the handle, so repeated calls with the same ``d``
        pay nothing after the first.
        """
        compiled = self.compile(
            p, engine=engine, width=width, digest=digest,
            backend=backend,
        )
        fresh = d not in compiled._shards
        sharded = compiled.shard(d)
        if fresh:
            self._shard_plans.inc()
        return compiled, sharded

    def _optimize_validated(
        self, plan: Any, persisting: bool = False
    ) -> "_Proof":
        """Optimize a plan's program under translation validation.

        Runs the pipeline in ``validate=True`` mode and certifies the
        result against the requested permutation.  On refutation the
        compile is *not* failed: the raw (unoptimized) program — which
        must itself denote the requested permutation, or
        :class:`~repro.errors.SemanticValidationError` is raised — is
        served instead, ``planner_semantic_rejections_total{blame=}``
        is bumped, and the returned ``proven`` flag is False so
        callers refuse to cache (or seal) the handle.

        Each program is denoted once: the pipeline's checker denotes
        the raw program and every rewrite, and those denotations feed
        both the translation certificate and the raw program's own
        certificate (``raw_certificate``, what the plan writer embeds).
        With ``persisting`` the raw certificate is always issued, and
        a raw program that fails its own proof raises
        :class:`~repro.errors.CertificateError`, as the plan writer
        would refusing to persist it.
        """
        raw = plan.lower()
        requested = np.asarray(plan.p)
        signature = self.pipeline.signature()
        checker: SemanticChecker | None = None
        try:
            checker = SemanticChecker(raw)
            optimized = self.pipeline.run(raw, checker=checker)
            cert = validate_translation(
                raw, optimized, requested=requested,
                pipeline_signature=signature,
                raw_denotation=checker.base,
                optimized_denotation=checker.final,
            )
            if cert.ok:
                raw_cert: SemanticCertificate | None = None
                if persisting:
                    raw_cert = validate_translation(
                        raw, raw, requested=requested,
                        raw_denotation=checker.base,
                    )
                return _Proof(optimized, cert, True, raw_cert)
        except SemanticValidationError as exc:
            cert = exc.certificate
        blame = getattr(cert, "blame", None) or "<pipeline>"
        self._metrics.counter(
            "planner_semantic_rejections_total", blame=blame
        ).inc()
        # Fall back to the raw program — still proved against the
        # requested permutation, because an unproven optimization must
        # degrade to slower, never to wrong.
        fallback = validate_translation(
            raw, raw, requested=requested,
            raw_denotation=None if checker is None else checker.base,
        )
        if not fallback.ok:
            message = (
                f"lowered program of engine "
                f"{getattr(type(plan), 'engine_name', '?')!r} does not "
                f"denote the requested permutation: "
                f"{fallback.summary()}"
            )
            if persisting:
                raise CertificateError(
                    f"refusing to persist the plan: {message}"
                )
            raise SemanticValidationError(message, certificate=fallback)
        return _Proof(raw, fallback, False, fallback)

    def _flight(self, fingerprint: str) -> threading.Lock:
        """The single-flight lock serialising cold compiles of one
        fingerprint (created on demand, kept for the planner's life —
        the population is bounded by distinct registrations)."""
        with self._lock:
            return self._inflight.setdefault(
                fingerprint, threading.Lock()
            )

    def warm_from_disk(self, fingerprint: str) -> bool:
        """Promote one disk entry into the memory tier; True on hit.

        Prefers the sealed sidecar (no v3 rehydration); falls back to
        the full plan, sealing it on the way in so the sidecar exists
        next time.
        """
        if self.disk is None:
            return False
        sealed = self.disk.load_sealed(fingerprint)
        if (
            sealed is not None
            and sealed.meta.get("pipeline")
            == self.pipeline.signature()
        ):
            # The sidecar's proof is bound to the pipeline that issued
            # it; a foreign-pipeline fingerprint falls through to the
            # full plan, where this planner must re-prove it.
            self.memory.put(
                fingerprint,
                self._from_sealed(fingerprint, sealed, None),
            )
            return True
        plan = self.disk.load(fingerprint)
        if plan is None:
            return False
        program, cert, proven, _raw = self._optimize_validated(plan)
        if not proven:
            # An unproven optimization must not be pinned in memory.
            return False
        fresh = self._seal(plan, program, cert)
        self.memory.put(
            fingerprint,
            CompiledPermutation(
                engine=plan,
                program=program,
                fingerprint=fingerprint,
                pipeline_signature=self.pipeline.signature(),
                semantic_certificate=cert,
                sealed=fresh,
            ),
        )
        if fresh is not None:
            self._store_sealed(fingerprint, fresh)
        return True

    def stats(self) -> dict:
        """Merged hit/miss/eviction counters across all tiers."""
        merged = {
            "cold_plans": self._cold_plans.value,
            "shard_plans": self._shard_plans.value,
            "sealed_plans": self._sealed_plans.value,
            "semantic_rejections": self._metrics.total(
                "planner_semantic_rejections_total"
            ),
        }
        merged.update(self.memory.stats())
        if self.disk is not None:
            merged.update(self.disk.stats())
        return merged

    def describe(self) -> str:
        lines = [f"planner: pipeline {self.pipeline.signature()}"]
        for key, value in sorted(self.stats().items()):
            lines.append(f"  {key:<18} {value}")
        return "\n".join(lines)
