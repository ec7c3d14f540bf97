"""The plan-cache tiers: in-memory LRU, on-disk v3 files, sealed
sidecars.

All tiers are keyed by the content-addressed
:func:`~repro.planner.fingerprint.plan_fingerprint`, so a hit is
definitionally the right plan — there is no staleness to reason
about, only presence.

The memory tier holds live :class:`CompiledPermutation` handles —
bounded two ways: by entry count (``capacity``) and, since the sealed
tier landed, by **resident bytes** (``max_bytes``), so a handful of
``n = 2^26`` sealed handles cannot pin unbounded memory while a crowd
of tiny plans still fills the count bound.

The disk tier stores plans in the ordinary v3 format of
:mod:`repro.core.io` — certificates and checksums included — which
buys the planner the full integrity ladder for free: a tampered cache
entry fails ``load_plan`` exactly like any corrupted plan file, is
*counted and skipped* (treated as a miss, then overwritten by the
fresh re-plan), and is never served.  Next to each plan the tier keeps
a **sealed sidecar** (``<fingerprint>.sealed.npz``): the plan's proven
flat gather, delta-encoded and checksum-bound to the plan's payload
SHA-256, loadable in milliseconds without rehydrating the v3 file.  A
corrupt sidecar costs a re-seal from the plan, never a re-plan.  The
directory itself is bounded by ``max_bytes`` with LRU eviction (plan
and sidecar evicted together); foreign files are ignored, never
deleted or accounted.

Every cache event is counted once, in a
:class:`~repro.telemetry.MetricsRegistry` — the owning planner's, or a
cache's own when it stands alone — as ``planner_cache_<event>_total``
labeled by ``tier`` (``memory`` / ``disk`` / ``sealed``).  The
counters are bound at construction, and ``stats()`` reads them back.
"""

from __future__ import annotations

import os
import re
import threading
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import ValidationError
from repro.telemetry import Counter, MetricsRegistry

if TYPE_CHECKING:
    from repro.ir.sealed import SealedProgram
    from repro.planner.compiled import CompiledPermutation

#: Disk-cache entries are content-addressed SHA-256 hex fingerprints;
#: anything else in the directory is foreign and left alone.
_FINGERPRINT_RE = re.compile(r"\A[0-9a-f]{64}\Z")


def _entry_bytes(compiled: "CompiledPermutation") -> int:
    """Resident bytes a handle pins in the memory tier."""
    sizer = getattr(compiled, "resident_bytes", None)
    if callable(sizer):
        return int(sizer())
    return 0


def _tier_counters(
    metrics: MetricsRegistry, tier: str, *events: str
) -> dict[str, Counter]:
    """``planner_cache_<event>_total{tier=...}`` children, by event."""
    return {
        event: metrics.counter(f"planner_cache_{event}_total", tier=tier)
        for event in events
    }


class LRUPlanCache:
    """Bounded in-memory cache of compiled permutations.

    Bounded by entry count (``capacity``) and, optionally, by the
    resident bytes of the held handles' programs and sealed indices
    (``max_bytes``) — whichever bound is exceeded evicts in LRU order,
    though the most recent entry is always admitted (a single handle
    larger than ``max_bytes`` occupies the cache alone rather than
    being refused).

    Thread-safe: lookups and insertions are guarded by one lock, so
    concurrent server workers never corrupt the recency order.  Events
    count in ``self.metrics``: the owning planner's registry, else a
    fresh one.
    """

    def __init__(
        self,
        capacity: int = 64,
        max_bytes: int | None = None,
        *,
        _metrics: MetricsRegistry | None = None,
    ) -> None:
        if capacity < 1:
            raise ValidationError(
                f"cache capacity must be >= 1, got {capacity}"
            )
        if max_bytes is not None and max_bytes < 1:
            raise ValidationError(
                f"cache max_bytes must be >= 1, got {max_bytes}"
            )
        self.capacity = capacity
        self.max_bytes = max_bytes
        self._entries: OrderedDict[str, CompiledPermutation] = (
            OrderedDict()
        )
        self._nbytes: dict[str, int] = {}
        self._lock = threading.Lock()
        self.bytes = 0
        self.metrics = _metrics or MetricsRegistry()
        self._events = _tier_counters(
            self.metrics, "memory",
            "hits", "misses", "evictions", "invalidations",
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def get(self, fingerprint: str) -> CompiledPermutation | None:
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                self._entries.move_to_end(fingerprint)
        self._events["misses" if entry is None else "hits"].inc()
        return entry

    def _over_budget(self) -> bool:
        # Caller holds the lock.
        if len(self._entries) > self.capacity:
            return True
        return (
            self.max_bytes is not None
            and self.bytes > self.max_bytes
            and len(self._entries) > 1
        )

    def put(
        self, fingerprint: str, compiled: CompiledPermutation
    ) -> None:
        size = _entry_bytes(compiled)
        evicted = 0
        with self._lock:
            if fingerprint in self._entries:
                self.bytes -= self._nbytes.get(fingerprint, 0)
            self._entries[fingerprint] = compiled
            self._nbytes[fingerprint] = size
            self.bytes += size
            self._entries.move_to_end(fingerprint)
            while self._over_budget():
                victim, _ = self._entries.popitem(last=False)
                self.bytes -= self._nbytes.pop(victim, 0)
                evicted += 1
        if evicted:
            self._events["evictions"].inc(evicted)

    def get_if_present(
        self, fingerprint: str
    ) -> CompiledPermutation | None:
        """Like :meth:`get`, but absence is not counted as a miss —
        the accessor the planner's single-flight recheck uses so a
        cold compile does not book two misses."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                self._entries.move_to_end(fingerprint)
        if entry is not None:
            self._events["hits"].inc()
        return entry

    def invalidate(self, fingerprint: str) -> bool:
        """Drop one entry (e.g. after its disk file was found bad or an
        operator forces a re-plan); returns whether it was resident."""
        with self._lock:
            present = self._entries.pop(fingerprint, None) is not None
            if present:
                self.bytes -= self._nbytes.pop(fingerprint, 0)
        if present:
            self._events["invalidations"].inc()
        return present

    def stats(self) -> dict:
        with self._lock:
            return {
                **{
                    f"memory_{event}": child.value
                    for event, child in self._events.items()
                },
                "memory_entries": len(self._entries),
                "memory_capacity": self.capacity,
                "memory_bytes": self.bytes,
                "memory_max_bytes": self.max_bytes,
            }


class DiskPlanCache:
    """On-disk plan cache: one v3 ``.npz`` per fingerprint, plus an
    optional sealed sidecar, bounded by total bytes.

    Entries are ordinary :func:`repro.core.io.save_plan` files named
    ``<fingerprint>.npz``, stamped with pipeline/fingerprint
    provenance.  Loading reuses :func:`repro.core.io.load_plan`, so
    every integrity check (checksum, certificate binding and
    re-verification against the recomputed program denotation,
    structural verify) guards the cache; an entry that fails any of
    them is invalidated on the spot — deleted, counted as corrupt,
    treated as a miss — and the caller re-plans it.

    Sealed sidecars (``<fingerprint>.sealed.npz``,
    :func:`repro.core.io.save_sealed`) carry the plan's proven flat
    gather, bound to the plan file's payload checksum.  A sidecar that
    fails any proof on load is deleted and counted
    (``sealed_corrupt``); the caller heals by re-sealing from
    the v3 plan.  ``max_bytes`` bounds the summed size of accounted
    entries with LRU eviction — plan and sidecar leave together.
    Foreign files in the directory are ignored, never deleted.
    """

    def __init__(
        self,
        directory: str | Path,
        max_bytes: int | None = None,
        *,
        _metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValidationError(
                f"disk cache max_bytes must be >= 1, got {max_bytes}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._sizes: OrderedDict[str, int] = OrderedDict()
        self.bytes = 0
        self.metrics = _metrics or MetricsRegistry()
        events = ("hits", "misses", "corrupt", "stores")
        self._disk = _tier_counters(
            self.metrics, "disk", *events, "evictions"
        )
        self._sealed = _tier_counters(self.metrics, "sealed", *events)
        self._scan()

    def path_for(self, fingerprint: str) -> Path:
        return self.directory / f"{fingerprint}.npz"

    def sealed_path_for(self, fingerprint: str) -> Path:
        return self.directory / f"{fingerprint}.sealed.npz"

    # -- byte accounting / eviction ------------------------------------

    def _scan(self) -> None:
        """Seed the byte accounting from files already on disk,
        oldest-modified first (their LRU order as far as a fresh
        process can know it)."""
        found: dict[str, float] = {}
        for path in self.directory.glob("*.npz"):
            name = path.name
            fp = (
                name[: -len(".sealed.npz")]
                if name.endswith(".sealed.npz")
                else path.stem
            )
            if not _FINGERPRINT_RE.match(fp):
                continue
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue
            found[fp] = max(found.get(fp, 0.0), mtime)
        with self._lock:
            for fp in sorted(found, key=found.__getitem__):
                self._account_locked(fp)

    def _entry_size(self, fingerprint: str) -> int:
        size = 0
        for path in (
            self.path_for(fingerprint),
            self.sealed_path_for(fingerprint),
        ):
            try:
                size += path.stat().st_size
            except OSError:
                pass
        return size

    def _account_locked(self, fingerprint: str) -> None:
        # Caller holds the lock.
        size = self._entry_size(fingerprint)
        self.bytes -= self._sizes.pop(fingerprint, 0)
        if size > 0:
            self._sizes[fingerprint] = size
            self.bytes += size

    def _touch(self, fingerprint: str) -> None:
        with self._lock:
            if fingerprint in self._sizes:
                self._sizes.move_to_end(fingerprint)

    def _account(self, fingerprint: str) -> None:
        """Re-stat one entry and evict LRU entries over ``max_bytes``.

        The just-touched entry is newest in LRU order, so it is only
        evicted when it alone exceeds the bound and nothing older is
        left to shed first.
        """
        victims: list[str] = []
        with self._lock:
            self._account_locked(fingerprint)
            while (
                self.max_bytes is not None
                and self.bytes > self.max_bytes
                and len(self._sizes) > 1
            ):
                victim, size = self._sizes.popitem(last=False)
                self.bytes -= size
                victims.append(victim)
        for victim in victims:
            self.path_for(victim).unlink(missing_ok=True)
            self.sealed_path_for(victim).unlink(missing_ok=True)
        if victims:
            self._disk["evictions"].inc(len(victims))

    # -- v3 plan files -------------------------------------------------

    def load(self, fingerprint: str) -> Any | None:
        """The cached planned engine, or ``None`` on miss/corruption."""
        from repro.core.io import load_plan
        from repro.errors import PlanIntegrityError

        path = self.path_for(fingerprint)
        if not path.exists():
            self._disk["misses"].inc()
            return None
        try:
            plan = load_plan(path)
        except PlanIntegrityError:
            # Bit rot, tampering, or a certificate that failed
            # re-verification against the recomputed denotation: never
            # serve it, never raise through the serving path.  The
            # entry is invalidated (deleted) so it cannot poison later
            # loads, counted, and reported as a miss; the caller's
            # fresh re-plan rewrites it.  The sealed sidecar falls
            # with its plan: it binds to a checksum that no longer
            # names anything trustworthy.
            path.unlink(missing_ok=True)
            self.sealed_path_for(fingerprint).unlink(missing_ok=True)
            self._account(fingerprint)
            self._disk["corrupt"].inc()
            self._disk["misses"].inc()
            return None
        self._touch(fingerprint)
        self._disk["hits"].inc()
        return plan

    def store(
        self,
        fingerprint: str,
        plan: Any,
        pipeline_signature: str,
        semantic_certificate: Any | None = None,
    ) -> str:
        """Persist ``plan`` under its fingerprint, atomically; returns
        the payload checksum the write computed (what a sealed sidecar
        binds to).

        The plan is written to a temporary sibling and moved into
        place with :func:`os.replace`, so a concurrent reader (or a
        writer crash) can observe the old entry or the new one but
        never a truncated ``.npz`` that the corruption path would have
        to heal on every later load.  ``semantic_certificate`` is
        forwarded to :func:`~repro.core.io.save_plan`: the caller's
        proof of the raw program, reused when it matches the plan.
        """
        from repro.core.io import save_plan

        path = self.path_for(fingerprint)
        # A hidden per-writer sibling: same filesystem, so the
        # os.replace below is atomic.
        tmp = path.with_name(
            f".{fingerprint}.{os.getpid()}.{threading.get_ident()}"
            ".tmp.npz"
        )
        try:
            checksum = save_plan(
                tmp,
                plan,
                provenance={
                    "pipeline": pipeline_signature,
                    "fingerprint": fingerprint,
                },
                semantic_certificate=semantic_certificate,
            )
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        self._disk["stores"].inc()
        self._account(fingerprint)
        return checksum

    # -- sealed sidecars -----------------------------------------------

    def load_sealed(self, fingerprint: str) -> "SealedProgram | None":
        """The entry's sealed sidecar, re-proved, or ``None``.

        A sidecar that fails any of its proofs (checksum, delta
        decode, denotation digest, mutual-inverse, plan binding) is
        deleted and counted corrupt — the *plan* file is untouched, so
        the caller heals by re-sealing from the still-trusted v3
        entry.
        """
        from repro.core.io import load_sealed, read_plan_checksum
        from repro.errors import PlanIntegrityError

        path = self.sealed_path_for(fingerprint)
        if not path.exists():
            self._sealed["misses"].inc()
            return None
        expected = None
        plan_path = self.path_for(fingerprint)
        if plan_path.exists():
            try:
                expected = read_plan_checksum(plan_path)
            except PlanIntegrityError:
                expected = None
        try:
            sealed = load_sealed(path, expected_plan_sha=expected)
        except PlanIntegrityError:
            path.unlink(missing_ok=True)
            self._account(fingerprint)
            self._sealed["corrupt"].inc()
            self._sealed["misses"].inc()
            return None
        self._touch(fingerprint)
        self._sealed["hits"].inc()
        return sealed

    def store_sealed(
        self, fingerprint: str, sealed: "SealedProgram"
    ) -> None:
        """Persist a sealed sidecar next to its plan, atomically."""
        from repro.core.io import save_sealed

        path = self.sealed_path_for(fingerprint)
        tmp = path.with_name(
            f".{fingerprint}.{os.getpid()}.{threading.get_ident()}"
            ".sealed.tmp.npz"
        )
        try:
            save_sealed(tmp, sealed)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        self._sealed["stores"].inc()
        self._account(fingerprint)

    def stats(self) -> dict:
        with self._lock:
            return {
                **{
                    f"{tier}_{event}": child.value
                    for tier, events in (
                        ("disk", self._disk), ("sealed", self._sealed)
                    )
                    for event, child in events.items()
                },
                "disk_bytes": self.bytes,
                "disk_max_bytes": self.max_bytes,
                "disk_entries": len(self._sizes),
                "disk_directory": str(self.directory),
            }
