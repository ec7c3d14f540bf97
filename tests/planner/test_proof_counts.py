"""A cold compile proves each fact once.

The raw program is denoted once, and so is each rewrite the pipeline
applies; those denotations feed the translation certificate and the
certificate the plan file embeds.  The conflict certificate is issued
at most once, by the plan writer.  Calls are counted by monkeypatching
the proof functions at every place the compile path looks them up.
"""

import numpy as np
import pytest

import repro.passes.seal
import repro.staticcheck.certifier
import repro.staticcheck.semantics
from repro.core.io import load_plan
from repro.ir.registry import get_engine
from repro.passes import default_pipeline
from repro.permutations.named import bit_reversal, random_permutation
from repro.planner import Planner

_N, _WIDTH = 1024, 32


@pytest.fixture
def proofs(monkeypatch):
    """Record every program denoted and every plan certified."""
    denoted, certified = [], []
    denote = repro.staticcheck.semantics.denote_program
    certify = repro.staticcheck.certifier.certify_plan

    def counting_denote(program):
        denoted.append(program)
        return denote(program)

    def counting_certify(plan):
        certified.append(plan)
        return certify(plan)

    for module in (repro.staticcheck.semantics, repro.passes.seal):
        monkeypatch.setattr(module, "denote_program", counting_denote)
    monkeypatch.setattr(repro.staticcheck.certifier, "certify_plan",
                        counting_certify)
    return denoted, certified


def _applied_rewrites(p, pipeline=None):
    """How many rewrites ``pipeline`` applies to ``p``'s raw program
    (run unvalidated, so nothing is denoted)."""
    raw = get_engine("scheduled").plan(p, width=_WIDTH).lower()
    _optimized, changes = (pipeline or default_pipeline()).explain(raw)
    return len(changes)


def _assert_each_program_once(denoted):
    for i, program in enumerate(denoted):
        assert all(program is not other for other in denoted[:i]), (
            f"program {i} ({program.engine}, {len(program.ops)} ops) "
            "was denoted twice"
        )


@pytest.mark.parametrize("family", ["bit-reversal", "random"])
@pytest.mark.parametrize("persist", [False, True],
                         ids=["memory-only", "cache-dir"])
def test_cold_compile_denotes_each_program_once(family, persist, proofs,
                                                tmp_path):
    p = (bit_reversal(_N) if family == "bit-reversal"
         else random_permutation(_N, seed=3))
    rewrites = _applied_rewrites(p)
    denoted, certified = proofs
    planner = Planner(cache_dir=tmp_path if persist else None)
    compiled = planner.compile(p, engine="scheduled", width=_WIDTH)
    assert rewrites >= 1
    assert len(denoted) == 1 + rewrites
    _assert_each_program_once(denoted)
    assert len(certified) == (1 if persist else 0)
    assert compiled.sealed is not None
    assert compiled.semantic_certificate.ok
    if persist:
        stats = planner.stats()
        assert stats["disk_stores"] == 1 and stats["sealed_stores"] == 1
        # The loader still re-proves everything the writer reused.
        denoted.clear()
        loaded = load_plan(planner.disk.path_for(compiled.fingerprint))
        assert len(denoted) == 1
        assert loaded.semantic_certificate.ok


def test_sidecar_bound_to_the_checksum_the_write_returned(tmp_path,
                                                          monkeypatch):
    import repro.core.io

    def no_reread(path):
        raise AssertionError(f"cold compile re-opened {path}")

    monkeypatch.setattr(repro.core.io, "read_plan_checksum", no_reread)
    p = random_permutation(_N, seed=4)
    planner = Planner(cache_dir=tmp_path)
    compiled = planner.compile(p, engine="scheduled", width=_WIDTH)
    sha = compiled.sealed.meta["plan_sha"]
    monkeypatch.undo()
    from repro.core.io import load_sealed, read_plan_checksum

    path = planner.disk.path_for(compiled.fingerprint)
    assert sha == read_plan_checksum(path)
    load_sealed(planner.disk.sealed_path_for(compiled.fingerprint),
                expected_plan_sha=sha)
    # A fresh process serves from the sidecar.
    fresh = Planner(cache_dir=tmp_path)
    fresh.compile(p, engine="scheduled", width=_WIDTH)
    assert fresh.stats()["sealed_hits"] == 1


def _swapping_pipeline():
    """The default passes plus one that swaps two outputs: refuted."""
    import dataclasses

    from repro.ir.ops import CasualWrite
    from repro.passes import PassPipeline

    class Swapper:
        name = "swap-two"

        def run(self, program):
            q = np.arange(program.n, dtype=np.int64)
            q[0], q[1] = q[1], q[0]
            return dataclasses.replace(
                program,
                ops=(*program.ops, CasualWrite(label="swap", p=q)),
                meta=None,
            )

    return PassPipeline(
        (*default_pipeline().passes, Swapper()), name="broken"
    )


def test_refuted_pipeline_persists_the_plan_unsealed(proofs, tmp_path):
    p = random_permutation(_N, seed=9)
    pipeline = _swapping_pipeline()
    denoted, certified = proofs
    planner = Planner(cache_dir=tmp_path, pipeline=pipeline)
    compiled = planner.compile(p, engine="scheduled", width=_WIDTH)
    # Raw, each accepted rewrite, and the refuted one: each once.
    _assert_each_program_once(denoted)
    assert 2 <= len(denoted) <= 2 + _applied_rewrites(p, default_pipeline())
    assert len(certified) == 1
    # Served unsealed from the raw program, blamed and not cached.
    a = np.arange(_N, dtype=np.float64)
    expected = np.empty_like(a)
    expected[p] = a
    assert np.array_equal(compiled.apply(a), expected)
    assert compiled.sealed is None
    assert compiled.fingerprint not in planner.memory
    counters = planner.metrics.counter_values()
    assert counters[
        'planner_semantic_rejections_total{blame="swap-two"}'] == 1
    # The plan is persisted with the raw program's proof; no sidecar.
    stats = planner.stats()
    assert stats["disk_stores"] == 1 and stats["sealed_stores"] == 0
    assert not planner.disk.sealed_path_for(compiled.fingerprint).exists()
    loaded = load_plan(planner.disk.path_for(compiled.fingerprint))
    assert loaded.semantic_certificate.ok
    assert np.array_equal(loaded.p, p)
