"""The certificates a cold compile embeds equal standalone proofs.

The planner's plan write reuses the compile's denotations instead of
re-proving, so its embedded certificates must be exactly what the
standalone provers issue: ``certify_plan(plan)`` and
``validate_translation(raw, raw, requested=p)``, bound to the file's
checksum, JSON for JSON.  A precomputed certificate that does not
match the plan is ignored, never embedded.
"""

import numpy as np
import pytest

from repro.core.io import (
    _certifiable_plan,
    _read_npz,
    load_plan,
    read_plan_checksum,
    save_plan,
)
from repro.ir.registry import get_engine
from repro.permutations.named import bit_reversal, random_permutation
from repro.planner import Planner
from repro.staticcheck import certify_plan
from repro.staticcheck.semantics import validate_translation

_N, _WIDTH = 1024, 8


def _affine(n, seed):
    """``x -> A x xor c`` for a seeded unit lower-triangular GF(2)
    matrix ``A`` (always invertible)."""
    k = n.bit_length() - 1
    rng = np.random.default_rng(seed)
    a = np.tril(rng.integers(0, 2, size=(k, k)), -1) + np.eye(k, dtype=int)
    x = np.arange(n, dtype=np.int64)
    y = np.full(n, int(rng.integers(n)), dtype=np.int64)
    for j in range(k):
        column = int(sum(int(a[i, j]) << i for i in range(k)))
        y ^= ((x >> j) & 1) * column
    return y


_FAMILIES = {
    "affine": lambda: _affine(_N, seed=5),
    "random": lambda: random_permutation(_N, seed=6),
    "bit-reversal": lambda: bit_reversal(_N),
}


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("engine", ["scheduled", "padded", "d-designated"])
def test_embedded_certificates_equal_standalone_proofs(engine, family,
                                                       tmp_path):
    p = _FAMILIES[family]()
    assert np.array_equal(np.sort(p), np.arange(_N))
    planner = Planner(cache_dir=tmp_path)
    compiled = planner.compile(p, engine=engine, width=_WIDTH)
    path = planner.disk.path_for(compiled.fingerprint)
    arrays = _read_npz(path)
    checksum = read_plan_checksum(path)
    plan = compiled.engine
    raw = plan.lower()

    semantic = validate_translation(raw, raw, requested=p)
    assert semantic.ok
    assert str(arrays["semantic_certificate"]) == (
        semantic.bound_to(checksum).to_json())

    certifiable = _certifiable_plan(plan)
    if certifiable is None:
        assert "certificate" not in arrays
    else:
        cert = certify_plan(certifiable)
        assert cert.ok
        assert str(arrays["certificate"]) == cert.bound_to(checksum).to_json()
    # The loader re-proves both and accepts the file.
    assert np.array_equal(load_plan(path).p, p)


@pytest.fixture(scope="module")
def plans():
    p = random_permutation(_N, seed=7)
    q = random_permutation(_N, seed=8)
    engine = get_engine("scheduled")
    return (engine.plan(p, width=_WIDTH), engine.plan(q, width=_WIDTH),
            p, q)


def test_matching_certificate_is_embedded_as_given(plans, tmp_path):
    plan, _other, p, _q = plans
    raw = plan.lower()
    given = validate_translation(raw, raw, requested=p)
    reference = tmp_path / "reference.npz"
    reused = tmp_path / "reused.npz"
    checksum = save_plan(reference, plan)
    assert save_plan(reused, plan, semantic_certificate=given) == checksum
    assert (str(_read_npz(reused)["semantic_certificate"])
            == str(_read_npz(reference)["semantic_certificate"]))


@pytest.mark.parametrize("mismatch", [
    "other-permutation", "optimized", "refuted", "wrong-width",
])
def test_mismatched_certificate_is_reproved(plans, mismatch, tmp_path,
                                            monkeypatch):
    import dataclasses

    import repro.staticcheck.semantics as semantics

    plan, other, p, q = plans
    raw = plan.lower()
    given = {
        "other-permutation": lambda: validate_translation(
            other.lower(), other.lower(), requested=q),
        "optimized": lambda: validate_translation(
            raw, raw, requested=p, pipeline_signature="default@v1(x)"),
        "refuted": lambda: validate_translation(raw, raw, requested=q),
        "wrong-width": lambda: dataclasses.replace(
            validate_translation(raw, raw, requested=p), width=4),
    }[mismatch]()
    denoted = []
    denote = semantics.denote_program

    def counting(program):
        denoted.append(program)
        return denote(program)

    monkeypatch.setattr(semantics, "denote_program", counting)
    path = tmp_path / "plan.npz"
    checksum = save_plan(path, plan, semantic_certificate=given)
    assert len(denoted) == 1   # ignored: the writer proved it itself
    monkeypatch.undo()
    embedded = str(_read_npz(path)["semantic_certificate"])
    expected = validate_translation(raw, raw, requested=p)
    assert embedded == expected.bound_to(checksum).to_json()
