"""Quick all-in-one reproduction report (``python -m repro report``).

Runs scaled-down versions of every experiment in DESIGN.md's index and
prints a PASS/FAIL line per claim, in under a minute.  The full-size
regeneration lives in ``benchmarks/`` (pytest-benchmark harness); this
is the smoke-check a user runs right after installing.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro import telemetry
from repro.analysis.stats import summarize
from repro.core import theory
from repro.core.conventional import (
    DDesignatedPermutation,
    SDesignatedPermutation,
)
from repro.core.distribution import (
    distribution,
    distribution_fraction,
    expected_random_distribution,
)
from repro.core.dmm_permutation import (
    DMMConventionalPermutation,
    DMMScheduledPermutation,
)
from repro.core.scheduled import ScheduledPermutation
from repro.core.transpose import TiledTranspose
from repro.machine.cache import L2Cache
from repro.machine.dmm import DMM
from repro.machine.hmm import HMM
from repro.machine.params import MachineParams
from repro.machine.umm import UMM
from repro.permutations.named import (
    bit_reversal,
    identical,
    random_permutation,
    shuffle,
    transpose_permutation,
)

_WIDTH = 32
_MACHINE = MachineParams(width=_WIDTH, latency=100, num_dmms=8,
                         shared_capacity=None)
_N = 128 * 128


def _check_table1() -> str:
    p = random_permutation(_N, seed=0)
    sched = ScheduledPermutation.plan(p, width=_WIDTH).simulate(_MACHINE)
    conv = DDesignatedPermutation(p).simulate(_MACHINE)
    assert sched.num_rounds == 32 and conv.num_rounds == 3
    assert sched.count_classified() == {
        "coalesced reads (global)": 11,
        "coalesced writes (global)": 5,
        "conflict-free reads (shared)": 8,
        "conflict-free writes (shared)": 8,
    }
    assert sched.time == theory.scheduled_time(_N, _WIDTH, 100, 8)
    assert conv.time == theory.conventional_time(
        _N, _WIDTH, 100, distribution(p, _WIDTH)
    )
    return "32/3 rounds, times == closed forms"


def _check_table2() -> str:
    times = {}
    for name, p in (
        ("identical", identical(_N)),
        ("shuffle", shuffle(_N)),
        ("bit-reversal", bit_reversal(_N)),
        ("transpose", transpose_permutation(_N)),
    ):
        times[name] = (
            DDesignatedPermutation(p).simulate(_MACHINE).time,
            ScheduledPermutation.plan(p, width=_WIDTH)
            .simulate(_MACHINE).time,
        )
    scheds = {s for _c, s in times.values()}
    assert len(scheds) == 1
    assert times["identical"][0] < times["identical"][1]
    assert times["bit-reversal"][0] > times["bit-reversal"][1]
    assert times["transpose"][0] > times["transpose"][1]
    ratio = times["bit-reversal"][0] / times["bit-reversal"][1]
    return (f"scheduled constant, wins hard perms "
            f"({ratio:.2f}x on bit-reversal), loses identity")


def _check_table3() -> str:
    scheds, convs, fracs = [], [], []
    for seed in range(10):
        p = random_permutation(_N, seed=seed)
        convs.append(DDesignatedPermutation(p).simulate(_MACHINE).time)
        scheds.append(
            ScheduledPermutation.plan(p, width=_WIDTH).simulate(_MACHINE).time
        )
        fracs.append(distribution_fraction(p, _WIDTH))
    s, c, f = summarize(scheds), summarize(convs), summarize(fracs)
    assert s.minimum == s.maximum
    assert s.average < c.average
    expect = expected_random_distribution(_N, _WIDTH) / _N
    assert abs(f.average - expect) < 0.01
    return (f"random perms: sched const, {c.average / s.average:.2f}x "
            f"faster, D_w/n = {f.average:.4f} (E = {expect:.4f})")


def _check_fig3() -> str:
    stream = np.concatenate([[7, 5, 15, 0], [10, 11, 12, 13]])
    assert DMM(4, 5).simulate([stream]).total_time == 7
    assert UMM(4, 5).simulate([stream]).total_time == 9
    return "DMM 3 stages -> l+2, UMM 5 stages -> l+4"


def _check_fig4() -> str:
    machine = MachineParams(width=_WIDTH, latency=100, num_dmms=8,
                            shared_capacity=None)
    diag = TiledTranspose(128, _WIDTH, diagonal=True).simulate(machine).time
    naive = TiledTranspose(128, _WIDTH, diagonal=False).simulate(machine).time
    assert naive > diag
    return f"diagonal {diag} vs naive {naive} time units"


def _check_fig6() -> str:
    p = np.array([12, 13, 8, 9, 1, 0, 3, 7, 2, 6, 5, 14, 4, 15, 11, 10])
    plan = ScheduledPermutation.plan(p, width=4)
    a = np.arange(16.0)
    out = plan.apply(a)
    expected = np.empty_like(a)
    expected[p] = a
    assert np.array_equal(out, expected)
    return "paper's 4x4 example routed correctly"


def _check_capacity() -> str:
    assert 2 * 4096 * 8 > 48 * 1024          # double 4096: rejected
    assert 2 * 4096 * 4 <= 48 * 1024         # float 4096: fits
    hmm = HMM(MachineParams.gtx680())
    from repro.errors import SharedMemoryCapacityError
    from repro.machine.requests import Kernel
    try:
        hmm.check_capacity(Kernel("x", (), 2 * 4096 * 8))
    except SharedMemoryCapacityError:
        return "sqrt(n)=4096 doubles rejected at 48 KB (Table II(b) wall)"
    raise AssertionError("capacity wall not enforced")


def _check_cache() -> str:
    p = random_permutation(64 * 64, seed=11)
    cache = L2Cache(capacity_bytes=1 << 20, miss_stages=4)
    conv = DDesignatedPermutation(p).simulate(HMM(_MACHINE, cache)).time
    cache2 = L2Cache(capacity_bytes=1 << 20, miss_stages=4)
    sched = ScheduledPermutation.plan(p, width=_WIDTH).simulate(
        HMM(_MACHINE, cache2)
    ).time
    assert conv < sched
    return "L2 model: conventional wins while resident (paper's small-n)"


def _check_dmm() -> str:
    p = random_permutation(1024, seed=0)
    dmm = DMM(_WIDTH)
    conv = DMMConventionalPermutation(p, _WIDTH).time(dmm)
    sched = DMMScheduledPermutation.plan(p, _WIDTH).time(dmm)
    assert sched < conv
    return f"single-DMM predecessor: {conv / sched:.2f}x (paper 1.5x)"


def _check_resilience() -> str:
    import tempfile
    from pathlib import Path

    from repro.core.io import load_plan, save_plan
    from repro.errors import PlanIntegrityError
    from repro.resilience import FaultPlan, ResilientPermutation

    p = random_permutation(32 * 32, seed=3)
    a = np.arange(32 * 32, dtype=np.float32)
    expected = np.empty_like(a)
    expected[p] = a
    # Every injected plan-file fault is rejected before apply can run.
    plan = ScheduledPermutation.plan(p, width=_WIDTH)
    faults = FaultPlan(seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        for mode in ("bit-flip", "truncate", "delete-key",
                     "stale-version"):
            path = Path(tmp) / "plan.npz"
            save_plan(path, plan)
            faults.corrupt_plan_file(path, mode)
            try:
                load_plan(path)
                raise AssertionError(f"{mode} fault not detected")
            except PlanIntegrityError:
                pass
    # A transient planning fault still yields a correct permutation,
    # with the degradation recorded in the FailureReport.
    with FaultPlan(seed=3, transient_coloring_failures=1):
        resilient = ResilientPermutation(p, width=_WIDTH,
                                         sleep=lambda _s: None)
    assert np.array_equal(resilient.apply(a), expected)
    assert resilient.degraded and resilient.report.attempts_total == 2
    return ("4/4 file faults rejected, transient fault absorbed "
            f"(engine: {resilient.report.engine_used})")


def _check_serving() -> str:
    import tempfile
    from pathlib import Path

    from repro.errors import ValidationError
    from repro.resilience import FaultPlan
    from repro.service import PermutationServer

    p = random_permutation(1024, seed=7)
    a = np.arange(1024, dtype=np.float32)
    expected = np.empty_like(a)
    expected[p] = a
    with tempfile.TemporaryDirectory() as tmp:
        server = PermutationServer(
            width=_WIDTH, cache_dir=Path(tmp), workers=2,
            backoff_base=0.0,
        )
        try:
            fp = server.register("perm", p, engine="padded")
            server.warm()
            # Concurrent traffic (these coalesce) is answered exactly.
            futures = [server.submit("perm", a) for _ in range(8)]
            assert all(
                np.array_equal(f.result(timeout=30.0), expected)
                for f in futures
            )
            # Silent re-registration is refused.
            try:
                server.register(
                    "perm", random_permutation(1024, seed=8),
                    engine="padded",
                )
                raise AssertionError("re-registration not refused")
            except ValidationError:
                pass
            # A corrupted disk entry plus a transient colouring fault
            # heal end to end: detect, re-plan, retry — same answer.
            # The sealed sidecar carries its own proof and would serve
            # despite the poisoned plan; corrupt it too so the resolve
            # falls through to the plan tier and must re-plan.
            FaultPlan(seed=7).corrupt_plan_file(
                server.service.planner.disk.path_for(fp), "bit-flip"
            )
            FaultPlan(seed=7).corrupt_plan_file(
                server.service.planner.disk.sealed_path_for(fp),
                "bit-flip",
            )
            server.service.planner.memory.invalidate(fp)
            with FaultPlan(seed=7, transient_coloring_failures=1):
                out = server.submit("perm", a).result(timeout=30.0)
            assert np.array_equal(out, expected)
            stats = server.stats()
            assert stats["server.faults_absorbed"] >= 1
            assert stats["disk_corrupt"] >= 1
            health = server.health()["status"]
        finally:
            server.close()
    return ("9 served (8 concurrent), corrupt plan healed, transient "
            f"fault absorbed, health {health}")


def _check_staticcheck() -> str:
    import dataclasses

    from repro.machine.requests import AccessRound
    from repro.staticcheck import certify_plan, detect_races, run_lint

    # A sound plan certifies positively from its arrays alone.
    p = random_permutation(1024, seed=5)
    plan = ScheduledPermutation.plan(p, width=_WIDTH)
    cert = certify_plan(plan)
    assert cert.ok and cert.num_rounds == 32
    # Corrupting one schedule entry produces a located counterexample.
    bad_s = plan.step1.s.copy()
    bad_s[0, 1] = bad_s[0, 0]
    bad = dataclasses.replace(
        plan, step1=dataclasses.replace(plan.step1, s=bad_s)
    )
    bad_cert = certify_plan(bad)
    assert not bad_cert.ok
    assert bad_cert.counterexample.kernel == "step1.rowwise"
    # The race detector flags a duplicate-address write round.
    racy = AccessRound("global", "write", np.array([0, 1, 1, 3]), "b")
    assert len(detect_races([racy])) == 1
    # And the shipped package passes its own lint rules.
    assert run_lint() == []
    return ("32/32 rounds certified, corruption localised to "
            f"{bad_cert.counterexample.kernel}, race + lint clean")


def _check_registry() -> str:
    from repro.exec import (
        BatchExecutor,
        ReferenceExecutor,
        SimulatorExecutor,
    )
    from repro.ir.registry import engine_names, get_engine

    n = 1024
    p = bit_reversal(n)
    a = np.arange(n, dtype=np.float32)
    expected = np.empty_like(a)
    expected[p] = a
    from repro.staticcheck import certify_program

    for name in engine_names():
        engine = get_engine(name).plan(p, width=_WIDTH)
        program = engine.lower()
        assert np.array_equal(engine.apply(a.copy()), expected), name
        assert np.array_equal(
            ReferenceExecutor().run(program, a), expected
        ), name
        batch = BatchExecutor().run(program, np.stack([a, a]))
        assert np.array_equal(batch[0], expected), name
        assert SimulatorExecutor().simulate(program, _MACHINE).time > 0, name
        reloaded = type(engine).from_program(program, engine.p)
        assert np.array_equal(reloaded.apply(a.copy()), expected), name
        # The optimized program must stay equivalent, never costlier,
        # and (when fully regular) still certify conflict-free.
        optimized = engine.lower_optimized()
        assert optimized.num_rounds <= program.num_rounds, name
        assert np.array_equal(
            ReferenceExecutor().run(optimized, a), expected
        ), name
        opt_batch = BatchExecutor().run(optimized, np.stack([a, a]))
        assert np.array_equal(opt_batch[0], expected), name
        if optimized.is_regular and program.is_regular:
            assert certify_program(optimized).ok, name
    return (f"{len(engine_names())} engines x 3 executors agree on "
            f"bit-reversal({n}), raw and optimized; all reconstruct "
            "from their IR")


def _check_passes() -> str:
    import tempfile

    from repro.ir.program import concat_programs
    from repro.passes import default_pipeline
    from repro.planner import Planner
    from repro.resilience import FaultPlan

    n = 1024
    p = bit_reversal(n)
    a = np.arange(n, dtype=np.float32)
    expected = np.empty_like(a)
    expected[p] = a
    pipeline = default_pipeline()
    # A scheduled roundtrip (p then p^-1) cancels to the identity.
    plan = ScheduledPermutation.plan(p, width=_WIDTH)
    raw = concat_programs(plan.lower(), plan.inverse().lower(),
                          engine="roundtrip")
    optimized = pipeline.run(raw)
    assert raw.num_rounds == 64 and optimized.num_rounds == 0
    # The pipeline is idempotent: a second run changes nothing.
    again = pipeline.run(optimized)
    assert again.num_rounds == optimized.num_rounds
    assert len(again.ops) == len(optimized.ops)
    # The planner serves memory hits, disk hits across processes, and
    # degrades gracefully (re-plan) when the cached file is tampered.
    with tempfile.TemporaryDirectory() as tmp:
        planner = Planner(cache_dir=tmp)
        cold = planner.compile(p, width=_WIDTH)
        warm = planner.compile(p, width=_WIDTH)
        assert warm is cold and planner.stats()["memory_hits"] == 1
        fresh = Planner(cache_dir=tmp)
        fresh.compile(p, width=_WIDTH)
        assert fresh.stats()["sealed_hits"] == 1
        assert fresh.stats()["cold_plans"] == 0
        path = planner.disk.path_for(cold.fingerprint)
        FaultPlan(seed=0).corrupt_plan_file(path, "bit-flip")
        planner.disk.sealed_path_for(cold.fingerprint).unlink()
        tampered = Planner(cache_dir=tmp)
        out = tampered.compile(p, width=_WIDTH).apply(a)
        assert np.array_equal(out, expected)
        assert tampered.stats()["disk_corrupt"] == 1
        assert tampered.stats()["cold_plans"] == 1
    return ("roundtrip 64 -> 0 rounds, pipeline idempotent; cache: "
            "memory + sealed hits served, tampered entry re-planned")


def _check_semantics() -> str:
    """Translation validation: every engine x family x pipeline proves
    raw == optimized == requested; a seeded mutant pipeline is caught
    by the validator (with per-pass blame) without executing any
    payload; saved plans embed the certificate and re-verify it on
    load."""
    import tempfile
    from pathlib import Path

    from repro.core.io import load_plan, save_plan
    from repro.errors import SemanticValidationError
    from repro.ir.ops import CycleRotate
    from repro.ir.registry import engine_names, get_engine
    from repro.passes import aggressive_pipeline, default_pipeline
    from repro.passes.framework import PassPipeline
    from repro.staticcheck.semantics import validate_translation

    n, width = 256, 16
    families = {
        "bit-reversal": bit_reversal(n),
        "transpose": transpose_permutation(n),
        "random": random_permutation(n, seed=7),
    }
    pipelines = (default_pipeline(), aggressive_pipeline())
    proven = 0
    for engine in sorted(engine_names()):
        for p in families.values():
            raw = get_engine(engine).plan(p, width=width).lower()
            for pipeline in pipelines:
                optimized = pipeline.run(raw, validate=True)
                cert = validate_translation(
                    raw, optimized, requested=p,
                    pipeline_signature=pipeline.signature(),
                )
                assert cert.ok, cert.summary()
                proven += 1

    # A mutant pass that silently perturbs the program is refuted by
    # the validator — blamed by name, no payload ever permuted.
    class _Mutant:
        name = "mutant-rotate"

        def run(self, program):
            from dataclasses import replace

            rng = np.random.default_rng(11)
            q = rng.permutation(program.n).astype(np.int64)
            return replace(
                program,
                ops=(*program.ops,
                     CycleRotate(label="mutant", p=q)),
                meta=None,
            )

    broken = PassPipeline((_Mutant(),), name="mutant")
    raw = ScheduledPermutation.plan(
        families["random"], width=width
    ).lower()
    try:
        broken.run(raw, validate=True)
        raise AssertionError("mutant pipeline was not refuted")
    except SemanticValidationError as exc:
        assert exc.certificate is not None
        assert exc.certificate.blame == "mutant-rotate"
        assert exc.certificate.counterexample is not None

    # Saved plans carry the certificate; load re-proves it against the
    # recomputed denotation.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sem.npz"
        plan = ScheduledPermutation.plan(families["random"],
                                         width=width)
        save_plan(path, plan)
        reloaded = load_plan(path)
        cert = reloaded.semantic_certificate
        assert cert is not None and cert.ok
    return (f"{proven} engine x family x pipeline proofs, mutant pass "
            "blamed pre-execution, certs survive save/load")


def _check_optimality() -> str:
    ratio = theory.optimality_ratio(1 << 22, _WIDTH, 100, 8)
    assert ratio <= 9
    return f"sched/lower-bound = {ratio:.2f} -> 8 + 8/d"


def _check_outofcore() -> str:
    """Out-of-core sharding: bit-reversal n = 2^16 factors into d = 4
    row stripes plus a proven column exchange, streams disk-to-disk
    under a resident budget of payload/8 bit-for-bit, and a seeded
    broken shuffle is refused with a counterexample."""
    import tempfile
    from pathlib import Path

    from repro.exec.streaming import StreamingExecutor
    from repro.ir.registry import get_engine
    from repro.shard import shard_program
    from repro.staticcheck.semantics import denote_program

    n, d = 1 << 16, 4
    p = bit_reversal(n)
    program = get_engine("d-designated").plan(p, width=_WIDTH).lower()
    sharded = shard_program(program, d)

    # Denotation equality, proven by the attached certificate and
    # re-checked directly against the reassembled three-op program.
    assert sharded.proven
    assert np.array_equal(
        denote_program(sharded.as_program()).index_map,
        denote_program(program).index_map,
    )

    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "in.npy"
        dst = Path(tmp) / "out.npy"
        a = np.arange(n, dtype=np.float64) * 0.5 + 1.0
        np.save(src, a)
        budget = a.nbytes // 8
        stats = StreamingExecutor(
            max_resident_bytes=budget
        ).run_sharded(sharded, src, dst, tmp_dir=tmp)
        expected = np.empty_like(a)
        expected[p] = a
        assert np.array_equal(np.load(dst), expected), (
            "streamed output differs from the definitional scatter"
        )
        assert stats.peak_resident_total_bytes <= budget

    # A tampered exchange must be refuted with a counterexample.
    broken_exchange = sharded.exchange.copy()
    broken_exchange[[0, 1]] = broken_exchange[[1, 0]]
    cert = sharded.with_exchange(broken_exchange).verify()
    assert not cert.ok and cert.counterexample is not None

    mib = 1024 * 1024
    return (
        f"n=2^16 d={d} proven & streamed bit-for-bit, peak resident "
        f"{stats.peak_resident_total_bytes / mib:.2f} MiB <= "
        f"{budget / mib:.3g} MiB budget; broken shuffle refuted at "
        f"element {cert.counterexample.index}"
    )


_CHECKS: list[tuple[str, Callable[[], str]]] = [
    ("Table I   rounds & times", _check_table1),
    ("Table II  permutation sweep", _check_table2),
    ("Table III random permutations", _check_table3),
    ("Figure 3  pipeline example", _check_fig3),
    ("Figure 4  diagonal layout", _check_fig4),
    ("Figure 6  4x4 routing", _check_fig6),
    ("II(b)     48 KB capacity wall", _check_capacity),
    ("A2        L2 small-n regime", _check_cache),
    ("[8]/[9]   single-DMM variant", _check_dmm),
    ("Sec VII   optimality ratio", _check_optimality),
    ("IR        engine registry", _check_registry),
    ("Passes    pipeline & plan cache", _check_passes),
    ("Resil.    faults & fallback", _check_resilience),
    ("Serving   concurrent core", _check_serving),
    ("Static    certifier & lint", _check_staticcheck),
    ("Semantics translation validation", _check_semantics),
    ("Shard     out-of-core sharding", _check_outofcore),
]


def run_report() -> tuple[str, bool]:
    """Run every check under a tracer; returns (report text, all_passed).

    Each check runs inside a ``report.check`` span, so every PASS line
    carries its wall time and the footer names the slowest check and
    the counters the checks emitted along the way.
    """
    lines = ["repro smoke report — paper claims at reduced scale", ""]
    all_ok = True
    tracer = telemetry.Tracer()
    timings: list[tuple[str, float]] = []
    with telemetry.use_tracer(tracer), telemetry.counting() as counts:
        for label, check in _CHECKS:
            with telemetry.span("report.check", check=label) as sp:
                try:
                    detail = check()
                    failure = None
                except Exception as exc:  # pragma: no cover - failure path
                    all_ok = False
                    failure = exc
            timings.append((label, sp.duration_ms))
            if failure is None:
                lines.append(
                    f"  PASS  {label}: {detail}  [{sp.duration_ms:.0f} ms]"
                )
            else:  # pragma: no cover - failure path
                lines.append(f"  FAIL  {label}: {failure!r}")
    slow_label, slow_ms = max(timings, key=lambda item: item[1])
    total_ms = sum(ms for _label, ms in timings)
    counters = ", ".join(
        f"{name}={value:g}" for name, value in sorted(counts.items())
    )
    lines.append("")
    lines.append(
        f"slowest check: {' '.join(slow_label.split())} "
        f"({slow_ms:.0f} ms of {total_ms:.0f} ms total)"
    )
    lines.append(
        f"telemetry: {len(tracer.spans)} spans; "
        f"counters: {counters or 'none'}"
    )
    lines.append("")
    lines.append(
        "all claims verified — run `pytest benchmarks/ --benchmark-only` "
        "for the full tables" if all_ok else "SOME CLAIMS FAILED"
    )
    return "\n".join(lines), all_ok
