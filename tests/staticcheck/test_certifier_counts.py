"""The certifier's counting primitives against plain references.

``shared_bank_multiplicities`` counts with one ``np.bincount`` and
``global_group_counts`` sorts only the warps that span several groups;
both must agree with the obvious scatter-add and sort-every-warp
implementations on every stream, and so must every verdict and
counterexample built on them.  Tiled-transpose verdicts are memoized
per shape, so a memoized refutation must still name the right kernel
and round.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.staticcheck.certifier as certifier
from repro.ir.ops import RowwiseScatter, Transpose
from repro.ir.program import KernelProgram
from repro.staticcheck import (
    StaticRound,
    analyze_round,
    certify_program,
    certify_rounds,
    global_group_counts,
    program_rounds,
    shared_bank_multiplicities,
)


def reference_bank_multiplicities(addresses, width):
    warps = np.asarray(addresses, dtype=np.int64).reshape(-1, width)
    counts = np.zeros((warps.shape[0], width), dtype=np.int64)
    rows = np.repeat(np.arange(warps.shape[0], dtype=np.int64), width)
    np.add.at(counts, (rows, (warps % width).reshape(-1)), 1)
    return counts.max(axis=1)


def reference_group_counts(addresses, width):
    warps = np.asarray(addresses, dtype=np.int64).reshape(-1, width)
    groups = np.sort(warps // width, axis=1)
    return np.count_nonzero(np.diff(groups, axis=1), axis=1) + 1


@st.composite
def streams(draw):
    """(addresses, width): random, conflicted or uncoalesced rounds."""
    width = draw(st.sampled_from([1, 2, 4, 8, 32]))
    warps = draw(st.integers(1, 24))
    n = warps * width
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(
        ["identity", "random", "conflicted", "strided", "mixed"]
    ))
    if shape == "identity":
        addresses = np.arange(n, dtype=np.int64)
    elif shape == "random":
        addresses = rng.integers(0, 4 * n, size=n)
    elif shape == "conflicted":
        # Every lane of a warp in one bank.
        addresses = rng.integers(0, 8, size=n) * width
    elif shape == "strided":
        addresses = np.arange(n, dtype=np.int64) * width
    else:
        # Mostly coalesced; a few warps get one lane moved elsewhere.
        addresses = np.arange(n, dtype=np.int64)
        for lane in rng.choice(n, size=min(n, 3), replace=False):
            addresses[lane] = rng.integers(0, 4 * n)
    return np.asarray(addresses, dtype=np.int64), width


@settings(max_examples=300, deadline=None)
@given(stream=streams())
def test_counts_match_references(stream):
    addresses, width = stream
    banks = shared_bank_multiplicities(addresses, width)
    groups = global_group_counts(addresses, width)
    assert banks.dtype == groups.dtype == np.int64
    np.testing.assert_array_equal(
        banks, reference_bank_multiplicities(addresses, width))
    np.testing.assert_array_equal(
        groups, reference_group_counts(addresses, width))


@settings(max_examples=150, deadline=None)
@given(stream=streams(), space=st.sampled_from(["shared", "global"]))
def test_verdicts_and_counterexamples_match_references(stream, space,
                                                       ):
    addresses, width = stream
    rnd = StaticRound(
        kernel="k", index=3, space=space, kind="write", array="x",
        addresses=addresses,
        block_size=addresses.shape[0] if space == "shared" else None,
    )
    got = analyze_round(rnd, width)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certifier, "shared_bank_multiplicities",
                   reference_bank_multiplicities)
        mp.setattr(certifier, "global_group_counts",
                   reference_group_counts)
        want = analyze_round(rnd, width)
    assert got == want


def _transpose_program(m, width, diagonal):
    ops = (
        Transpose(label="first", m=m, width=width, diagonal=True),
        Transpose(label="second", m=m, width=width, diagonal=diagonal),
    )
    return KernelProgram(engine="test", n=m * m, width=width, ops=ops)


@pytest.mark.parametrize("diagonal", [True, False])
def test_memoized_transpose_verdicts_match_fresh_analysis(diagonal):
    program = _transpose_program(64, 8, diagonal)
    fresh = certify_rounds(program_rounds(program), width=8,
                           n=program.n, m=0)
    for _ in range(2):   # second pass is served from the memo
        assert certify_program(program) == fresh


def test_non_diagonal_transpose_is_refuted_at_its_own_round():
    cert = certify_program(_transpose_program(64, 8, diagonal=False))
    assert not cert.ok and not cert.conflict_free
    bad = cert.counterexample
    assert bad is not None
    assert (bad.kernel, bad.round_index) == ("second", 6)
    assert bad.space == "shared" and len(bad.lanes) > 1
    assert [r.kernel for r in cert.rounds] == ["first"] * 4 + ["second"] * 4
    assert [r.index for r in cert.rounds] == list(range(8))


def test_rowwise_plan_program_still_analysed_per_op():
    # A scheduled plan's program mixes row-wise ops (analysed from
    # their schedules) and transposes (memoized): both appear.
    from repro.core.scheduled import ScheduledPermutation
    from repro.permutations.named import random_permutation

    plan = ScheduledPermutation.plan(random_permutation(1024, seed=2),
                                     width=8)
    program = plan.lower()
    assert any(isinstance(op, RowwiseScatter) for op in program.ops)
    assert certify_program(program) == certify_rounds(
        program_rounds(program), width=8, n=1024, m=plan.m)
