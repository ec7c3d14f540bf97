"""The two workloads: cold-plan and warm-apply.

Each workload function sets up, measures for ``seconds`` and returns an
:class:`Outcome`.  With ``trace`` the run interleaves untraced ops with
ops under a :class:`~layers.LayerTrace`, which give the per-layer
numbers; the untraced ones give ``trace_overhead_frac``.  Every output
is checked bit for bit against :func:`gen.reference`, outside the timed
intervals.
"""

from __future__ import annotations

import resource
import shutil
import tempfile
import threading
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import gen
import numpy as np
from layers import LayerTrace, layer_groups, self_times

from repro.planner import Planner
from repro.service import PermutationServer, PermutationService

ENGINE = "scheduled"
WIDTH = 32
#: Payloads in the warm-apply pool, and closed-loop clients of the
#: served leg (at most two load threads, one per core of the 2-core
#: host the benchmark was sized for).
POOL = 4
CLIENTS = 2
#: Fresh planners per registration whose sidecar first request the
#: warm-apply set-up times (one apiece would leave two samples).
FIRST_REQUESTS = 3

#: Layers whose per-op median self time the traced run reports, with
#: the metric name each one feeds.
SELF_TIME_METRICS = {
    "coloring.edge_coloring": "coloring.edge_coloring_s",
    "core.engine_plan": "core.engine_plan_self_s",
    "passes.pipeline": "passes.pipeline_s",
    "staticcheck.validate_translation": "staticcheck.validate_translation_s",
    "passes.seal_program": "passes.seal_program_s",
    "planner.compile": "planner.compile_self_s",
    "core.io.save_plan": "core.io.save_plan_s",
    "core.io.save_sealed": "core.io.save_sealed_s",
    "core.io.load_sealed": "core.io.load_sealed_s",
    "ir.sealed_verify": "ir.sealed_verify_s",
    "exec.sealed_run": "exec.sealed_run_s",
    "planner.apply": "planner.apply_self_s",
    "service.apply": "service.apply_self_s",
}

#: The served-leg layer metrics (zero on cold-plan).
SERVER_METRICS = (
    "server.queue_wait_s",
    "server.dispatch_s",
    "server.handoff_self_s",
    "server.coalesced_ratio",
    "server.attempts_per_request",
    "telemetry.observations_per_request",
    "server.unattributed_frac",
)

perf = time.perf_counter


@dataclass
class Tally:
    """Verified results: every answer is attempted, wrong ones fail."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def check(self, got: Any, expected: np.ndarray) -> bool:
        ok = gen.same_bits(got, expected)
        self.record(ok, None if ok else "wrong answer")
        return ok

    def record(self, ok: bool, error: str | None = None) -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if error is not None and len(self.errors) < 5:
                    self.errors.append(error)


@dataclass
class Outcome:
    """What one workload run measured."""

    metrics: dict[str, float]
    layers: dict[str, float]
    samples: dict[str, int]
    tally: Tally
    meta: dict[str, Any]


def pct(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: list[float]) -> float:
    return pct(values, 50) if values else 0.0


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_loop(seconds: float) -> Iterator[int]:
    """Op indices until ``seconds`` of wall time have passed."""
    end = perf() + seconds
    i = 0
    while i == 0 or perf() < end:
        yield i
        i += 1


def file_bytes(directory: Path) -> tuple[int, int]:
    """(plan file bytes, sealed sidecar bytes) under ``directory``."""
    plan = sealed = 0
    for f in directory.glob("*.npz"):
        if f.name.endswith(".sealed.npz"):
            sealed += f.stat().st_size
        else:
            plan += f.stat().st_size
    return plan, sealed


def gather_of(p: np.ndarray) -> np.ndarray:
    """The gather map of ``p`` (its inverse), for the np.take floor."""
    inv = np.empty_like(p)
    inv[p] = np.arange(p.shape[0], dtype=p.dtype)
    return inv


def take_floor(cases: list[tuple[np.ndarray, np.ndarray]],
               reps: int) -> float:
    """Median seconds of one plain single-threaded ``np.take`` per case,
    summed over the cases of one op."""
    times = []
    for _ in range(reps):
        t0 = perf()
        for a, gather in cases:
            a.take(gather)
        times.append(perf() - t0)
    return median(times)


def layer_medians(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Per-op median self time of every reported layer."""
    return {
        metric: median([op.get(layer, 0.0) for op in per_op])
        for layer, metric in SELF_TIME_METRICS.items()
    }


def reconcile(total_s: float, layer_s: float) -> float:
    """``unattributed_frac``: traced end-to-end time the layer self
    times leave unexplained.  Raises if the layers claim more time than
    the end-to-end total, which would mean they double count."""
    residual = total_s - layer_s
    if residual < -1e-6 * max(total_s, 1e-9):
        raise RuntimeError(
            f"layer self times ({layer_s:.6f} s) exceed the traced "
            f"end-to-end time ({total_s:.6f} s)"
        )
    return residual / total_s if total_s > 0 else 0.0


def compile_metrics(affine: list[float], random: list[float],
                    first: list[float], disk: list[int]
                    ) -> tuple[dict[str, float], dict[str, int]]:
    """The compile-side end-to-end metrics every workload reports."""
    both = affine + random
    metrics = {
        "affine_compile_p50_s": median(affine),
        "random_compile_p50_s": median(random),
        "compile_p90_s": pct(both, 90),
        "first_request_p50_s": median(first),
        "plan_disk_bytes": float(np.mean(disk)),
    }
    samples = {
        "affine_compile_p50_s": len(affine),
        "random_compile_p50_s": len(random),
        "compile_p90_s": len(both),
        "first_request_p50_s": len(first),
        "plan_disk_bytes": len(disk),
    }
    return metrics, samples


def op_metrics(op_s: list[float], ops_per_s: float,
               tally: Tally) -> tuple[dict[str, float], dict[str, int]]:
    metrics = {
        "ops_per_s": ops_per_s,
        "op_p50_s": median(op_s),
        "op_p90_s": pct(op_s, 90),
        "ok_frac": 1.0 - tally.failed / max(1, tally.attempted),
        "peak_rss_mib": peak_rss_mib(),
    }
    samples = {"ops_per_s": len(op_s), "op_p50_s": len(op_s),
               "op_p90_s": len(op_s), "ok_frac": tally.attempted}
    return metrics, samples


def zero_layers() -> dict[str, float]:
    out = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
    out.update({name: 0.0 for name in SERVER_METRICS})
    # Only cold-plan ops serve first requests.
    out["planner.sealed_hit_ratio"] = 0.0
    return out


# ----------------------------------------------------------------------
# cold-plan
# ----------------------------------------------------------------------


@dataclass
class ColdOp:
    """One cold-plan op: a cold compile and a sidecar first request."""

    compile_s: float
    first_s: float
    op_s: float
    plan_bytes: int
    sealed_bytes: int
    rounds: int
    sealed_hit: bool


def cold_op(p: np.ndarray, a: np.ndarray, root: Path,
            tally: Tally) -> ColdOp:
    """Compile ``p`` with a fresh :class:`Planner` over a fresh cache
    directory, apply it, then serve the first request of a second fresh
    planner over the same directory from the sealed sidecar."""
    expected = gen.reference(p, a)
    directory = Path(tempfile.mkdtemp(dir=root))
    try:
        planner = Planner(cache_dir=directory)
        t0 = perf()
        compiled = planner.compile(p, engine=ENGINE, width=WIDTH)
        t1 = perf()
        out = compiled.apply(a)
        t2 = perf()
        tally.check(out, expected)
        plan_bytes, sealed_bytes = file_bytes(directory)
        fresh = Planner(cache_dir=directory)
        t3 = perf()
        out = fresh.compile(p, engine=ENGINE, width=WIDTH).apply(a)
        t4 = perf()
        tally.check(out, expected)
        assert fresh.disk is not None
        return ColdOp(
            compile_s=t1 - t0,
            first_s=t4 - t3,
            op_s=(t2 - t0) + (t4 - t3),
            plan_bytes=plan_bytes,
            sealed_bytes=sealed_bytes,
            rounds=compiled.predicted_rounds() or 0,
            sealed_hit=fresh.disk.stats()["sealed_hits"] == 1,
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def family_mean(ops: list[tuple[str, ColdOp]],
                value: Callable[[ColdOp], float]) -> float:
    """Mean of the affine mean and the random mean, so a run that ends
    on an odd op count does not tilt a size towards one family."""
    means = [np.mean([value(op) for f, op in ops if f == family])
             for family in ("affine", "random")
             if any(f == family for f, _ in ops)]
    return float(np.mean(means))


def cold_inputs(seed: int, i: int, n: int) -> tuple[str, np.ndarray]:
    """Op ``i`` alternates affine (even) and random (odd) members."""
    if i % 2 == 0:
        return "affine", gen.affine_permutation(seed, i // 2, n)
    return "random", gen.random_permutation(seed, i // 2, n)


def cold_plan(seed: int, seconds: float, trace: bool, root: Path,
              n: int = 1 << 16, setups: int = 3) -> Outcome:
    tally = Tally()
    setup_s = []
    for _ in range(setups):
        # A warm-up op: imports finish and lazy state fills before any
        # timed op; the median of the repeats is the set-up time.
        t0 = perf()
        cold_op(gen.affine_permutation(seed, 0, n),
                gen.payload(seed, 0, n), root, tally)
        setup_s.append(perf() - t0)

    # A traced run alternates pairs of untraced and traced ops (each
    # pair one affine and one random permutation), so both halves see
    # the same host conditions.
    ops: list[tuple[str, ColdOp]] = []
    traced: list[tuple[str, ColdOp]] = []
    per_op: list[dict[str, float]] = []
    for i in timed_loop(seconds):
        family, p = cold_inputs(seed, i, n)
        a = gen.payload(seed, i, n)
        try:
            if trace and (i // 2) % 2 == 1:
                with LayerTrace() as lt:
                    traced.append((family, cold_op(p, a, root, tally)))
                per_op.append(self_times(lt.spans))
            else:
                ops.append((family, cold_op(p, a, root, tally)))
        except Exception as exc:  # a failed op is counted, not fatal
            tally.record(False, f"{type(exc).__name__}: {exc}")
    layers = cold_layers(ops, traced, per_op, n) if trace else {}

    op_s = [op.op_s for _, op in ops]
    metrics, samples = op_metrics(op_s, len(op_s) / sum(op_s), tally)
    cm, cs = compile_metrics(
        [op.compile_s for f, op in ops if f == "affine"],
        [op.compile_s for f, op in ops if f == "random"],
        [op.first_s for _, op in ops],
        [family_mean(ops, lambda op: op.plan_bytes + op.sealed_bytes)],
    )
    metrics.update(cm)
    samples.update(cs)
    samples["plan_disk_bytes"] = len(ops)
    metrics["setup_s"] = median(setup_s)
    samples["setup_s"] = len(setup_s)
    return Outcome(metrics, layers, samples, tally,
                   {"n": n, "engine": ENGINE, "width": WIDTH,
                    "ops": len(ops)})


def cold_layers(untraced: list[tuple[str, ColdOp]],
                traced: list[tuple[str, ColdOp]],
                per_op: list[dict[str, float]], n: int) -> dict[str, float]:
    ops = [op for _, op in traced]
    layers = zero_layers()
    layers.update(layer_medians(per_op))
    total = sum(op.op_s for op in ops)
    layers["unattributed_frac"] = reconcile(
        total, sum(sum(d.values()) for d in per_op))
    layers["trace_overhead_frac"] = (
        median([op.op_s for op in ops])
        / median([op.op_s for _, op in untraced]) - 1.0
    )
    layers["core.io.plan_file_bytes"] = family_mean(
        traced, lambda op: op.plan_bytes)
    layers["core.io.sealed_file_bytes"] = family_mean(
        traced, lambda op: op.sealed_bytes)
    layers["planner.sealed_hit_ratio"] = (
        sum(op.sealed_hit for op in ops) / len(ops))
    layers["passes.predicted_rounds"] = median([op.rounds for op in ops])
    a = gen.payload(0, 0, n)
    g = gather_of(gen.random_permutation(0, 0, n))
    floor = take_floor([(a, g), (a, g)], reps=200)
    layers["exec.np_take_floor_s"] = floor
    layers["overhead_share"] = 1.0 - floor / median(
        [op.op_s for _, op in untraced])
    layers["planner.memory_hit_ratio"] = 0.0
    layers["exec.computed_bytes_per_op"] = 2 * n * (2 * 8 + g.itemsize)
    return layers


# ----------------------------------------------------------------------
# warm-apply
# ----------------------------------------------------------------------


def provision(service: PermutationService, perms: dict[str, np.ndarray],
              families: dict[str, str], tally: Tally,
              ) -> tuple[dict[str, list[float]], list[float], list[int],
                         list[float]]:
    """Register and warm ``perms`` cold in ``service`` (whose planner
    caches on disk), then serve each one's first request from a fresh
    planner over the same directory, :data:`FIRST_REQUESTS` times.

    Returns compile seconds by family, first-request seconds, plan plus
    sidecar bytes per permutation, and the set-up seconds (register +
    warm) of each registration.
    """
    compile_s: dict[str, list[float]] = {"affine": [], "random": []}
    units = []
    for name, p in perms.items():
        t0 = perf()
        service.register(name, p, engine=ENGINE)
        t1 = perf()
        service.warm([name])
        t2 = perf()
        compile_s[families[name]].append(t2 - t1)
        units.append(t2 - t0)
    disk = service.planner.disk
    assert disk is not None
    first, sizes = [], []
    for p in perms.values():
        a = gen.payload(0, 0, p.shape[0])
        expected = gen.reference(p, a)
        for _ in range(FIRST_REQUESTS):
            fresh = Planner(cache_dir=disk.directory)
            t0 = perf()
            out = fresh.compile(p, engine=ENGINE,
                                width=service.width).apply(a)
            first.append(perf() - t0)
            tally.check(out, expected)
        fp = service.planner.fingerprint(p, engine=ENGINE,
                                         width=service.width)
        sizes.append(disk.path_for(fp).stat().st_size
                     + disk.sealed_path_for(fp).stat().st_size)
    return compile_s, first, sizes, units


def warm_apply(seed: int, seconds: float, trace: bool, root: Path,
               n: int = 1 << 20, serve_seconds: float = 3.0) -> Outcome:
    tally = Tally()
    perms = {"bit-reversal": gen.affine_permutation(seed, 0, n),
             "random": gen.random_permutation(seed, 0, n)}
    families = {"bit-reversal": "affine", "random": "random"}
    directory = Path(tempfile.mkdtemp(dir=root))
    service = PermutationService(width=WIDTH, cache_dir=directory)
    compile_s, first, sizes, units = provision(
        service, perms, families, tally)
    payloads = gen.payload_pool(seed, POOL, n)
    expected = {(name, i): gen.reference(p, a)
                for name, p in perms.items()
                for i, a in enumerate(payloads)}
    names = list(perms)
    gathers = [gather_of(p) for p in perms.values()]

    # A traced run cycles through an untraced op, a traced op and a
    # plain np.take floor on the same payload and index maps; all three
    # follow the same output check, so they see the same cache state
    # and the same host conditions.
    op_s: list[float] = []
    traced: list[float] = []
    floor_s: list[float] = []
    per_op: list[dict[str, float]] = []
    memory_before = service.planner.memory.stats()
    for i in timed_loop(seconds):
        a = payloads[i % POOL]
        role = i % 3 if trace else 0
        try:
            if role == 1:
                with LayerTrace() as lt:
                    t0 = perf()
                    outs = [service.apply(name, a) for name in names]
                    traced.append(perf() - t0)
                per_op.append(self_times(lt.spans))
            else:
                t0 = perf()
                if role == 2:
                    outs = [a.take(g) for g in gathers]
                else:
                    outs = [service.apply(name, a) for name in names]
                (floor_s if role == 2 else op_s).append(perf() - t0)
        except Exception as exc:  # a failed op is counted, not fatal
            tally.record(False, f"{type(exc).__name__}: {exc}")
            continue
        ok = all(gen.same_bits(out, expected[(name, i % POOL)])
                 for name, out in zip(names, outs))
        tally.record(ok, None if ok else "wrong answer")

    layers: dict[str, float] = {}
    if trace:
        memory_after = service.planner.memory.stats()
        layers = zero_layers()
        layers.update(layer_medians(per_op))
        layers["unattributed_frac"] = reconcile(
            sum(traced), sum(sum(d.values()) for d in per_op))
        layers["trace_overhead_frac"] = median(traced) / median(op_s) - 1
        layers["exec.np_take_floor_s"] = median(floor_s)
        layers["overhead_share"] = 1.0 - median(floor_s) / median(op_s)
        hits = memory_after["memory_hits"] - memory_before["memory_hits"]
        misses = (memory_after["memory_misses"]
                  - memory_before["memory_misses"])
        layers["planner.memory_hit_ratio"] = hits / max(1, hits + misses)
        layers["exec.computed_bytes_per_op"] = len(names) * n * (
            2 * payloads[0].itemsize + gathers[0].itemsize)
        layers.update(disk_layers(directory, perms, service))
        layers.update(served_layers(service, perms, payloads, expected,
                                    serve_seconds, tally))

    metrics, samples = op_metrics(op_s, len(op_s) / sum(op_s), tally)
    cm, cs = compile_metrics(compile_s["affine"], compile_s["random"],
                             first, sizes)
    metrics.update(cm)
    samples.update(cs)
    metrics["setup_s"] = median(units)
    samples["setup_s"] = len(units)
    sealed = service.compiled(names[0]).sealed
    shutil.rmtree(directory, ignore_errors=True)
    return Outcome(metrics, layers, samples, tally, {
        "n": n, "engine": ENGINE, "width": WIDTH, "ops": len(op_s),
        "payload_bytes": int(payloads[0].nbytes),
        "index_bytes": int(sealed.gather.nbytes if sealed else 0),
        "payload_pool_bytes": int(sum(a.nbytes for a in payloads)),
    })


def disk_layers(directory: Path, perms: dict[str, np.ndarray],
                service: PermutationService) -> dict[str, float]:
    """Plan and sidecar file sizes per permutation, and the median
    predicted rounds, of the registrations the set-up compiled."""
    plan, sealed = file_bytes(directory)
    rounds = [service.compiled(name).predicted_rounds() or 0
              for name in service.names()]
    return {
        "core.io.plan_file_bytes": plan / len(perms),
        "core.io.sealed_file_bytes": sealed / len(perms),
        "passes.predicted_rounds": median(rounds),
    }


# ----------------------------------------------------------------------
# the served leg of the warm-apply traced run
# ----------------------------------------------------------------------


@dataclass
class Served:
    """One client-observed request."""

    observed_s: float
    wait_s: float
    service_s: float
    coalesced: bool
    attempts: int


def client_loop(server: PermutationServer, names: list[str],
                payloads: list[np.ndarray],
                expected: dict[tuple[str, int], np.ndarray],
                offset: int, end: float, tally: Tally,
                out: list[Served]) -> None:
    """A closed-loop client: submit, wait, verify, repeat."""
    i = offset
    while perf() < end:
        name = names[i % len(names)]
        k = i % len(payloads)
        i += 1
        t0 = perf()
        try:
            result = server.submit(name, payloads[k])
            got = result.result(timeout=60.0)
        except Exception as exc:  # shed, expired or failed: counted
            tally.record(False, f"{type(exc).__name__}: {exc}")
            continue
        out.append(Served(perf() - t0, result.wait_s, result.service_s,
                          result.coalesced, result.attempts))
        tally.check(got, expected[(name, k)])


def observations(server: PermutationServer) -> int:
    """Histogram observations recorded in the server's registry."""
    return sum(
        row["count"]
        for rows in server.metrics.snapshot().values()
        for row in rows
        if row["kind"] == "histogram"
    )


def served_layers(service: PermutationService,
                  perms: dict[str, np.ndarray],
                  payloads: list[np.ndarray],
                  expected: dict[tuple[str, int], np.ndarray],
                  seconds: float, tally: Tally) -> dict[str, float]:
    """Serve the warm registrations through a default
    :class:`PermutationServer` (coalescing on, no deadlines) from a
    closed loop of :data:`CLIENTS` threads, traced, and report the server
    and telemetry layers."""
    server = PermutationServer(service)
    for name, p in perms.items():
        server.register(name, p, engine=ENGINE)
    server.warm()
    names = list(perms)
    served: list[list[Served]] = [[] for _ in range(CLIENTS)]
    try:
        seen = observations(server)
        with LayerTrace() as lt:
            end = perf() + seconds
            threads = [
                threading.Thread(
                    target=client_loop,
                    args=(server, names, payloads, expected, c, end,
                          tally, served[c]),
                )
                for c in range(CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        recorded = observations(server) - seen
    finally:
        server.close()
    requests = [r for rs in served for r in rs]
    handoff = [r.observed_s - r.wait_s - r.service_s for r in requests]
    # Layer time inside the dispatch, a coalesced batch counting once
    # per request it answered.
    span_s = sum(rows * sum(g.values())
                 for rows, g in layer_groups(lt.spans))
    return {
        "server.queue_wait_s": median([r.wait_s for r in requests]),
        "server.dispatch_s": median([r.service_s for r in requests]),
        "server.handoff_self_s": median(handoff),
        "server.coalesced_ratio": (
            sum(r.coalesced for r in requests) / len(requests)),
        "server.attempts_per_request": float(
            np.mean([r.attempts for r in requests])),
        "telemetry.observations_per_request": recorded / len(requests),
        "server.unattributed_frac": reconcile(
            sum(r.observed_s for r in requests),
            sum(r.wait_s for r in requests) + sum(handoff) + span_s),
    }
