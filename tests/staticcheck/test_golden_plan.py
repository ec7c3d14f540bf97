"""The checked-in golden plans must stay loadable, certified and exact.

Both fixtures follow one recipe (random permutation, ``seed=0``,
``n=256``, ``width=4``, written by ``save_plan`` with an embedded
certificate):

* ``tests/data/golden_plan.npz`` was written by the earlier recursive
  Euler colouring in the version-2 layout.  It pins the on-disk format
  (a format change that can't read old files fails here first) and the
  certificate chain (load re-validates the embedded proof): plans and
  caches written before the level-synchronous colouring must still
  load, certify and permute.
* ``tests/data/golden_plan_levelsync.npz`` was written by the
  level-synchronous colouring in the version-3 layout (every member
  deflated by ``np.savez_compressed``).  It pins planning determinism:
  re-planning the same seed must reproduce the stored schedule bit for
  bit.

Both files' bytes are pinned: later format versions must read them as
they are, never regenerate them.
"""

import hashlib
from pathlib import Path

import numpy as np

from repro.core.io import load_plan
from repro.core.scheduled import ScheduledPermutation
from repro.permutations.named import random_permutation
from repro.staticcheck import certify_plan

DATA = Path(__file__).parent.parent / "data"
GOLDEN = DATA / "golden_plan.npz"
GOLDEN_LEVELSYNC = DATA / "golden_plan_levelsync.npz"

GOLDEN_SHA256 = {
    GOLDEN: "cd9395eb758d90ee2ed76852a8e16a95808bac8c2da15cc79760846021d8cbed",
    GOLDEN_LEVELSYNC: (
        "d7960b02f6e7ef1c998a4d606e0bd1c45943db5a18bd927ea9dc5b335610d428"
    ),
}


def test_golden_plan_bytes_unchanged():
    for path, digest in GOLDEN_SHA256.items():
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_golden_plan_format_versions():
    with np.load(GOLDEN) as data:
        assert int(data["format_version"]) == 2
    with np.load(GOLDEN_LEVELSYNC) as data:
        assert int(data["format_version"]) == 3


def test_golden_plan_loads_with_certificate():
    plan = load_plan(GOLDEN)
    assert plan.n == 256 and plan.width == 4
    cert = plan.certificate
    assert cert is not None and cert.ok
    assert cert.num_rounds == 32
    assert cert.plan_sha is not None


def test_golden_plan_recertifies_identically():
    plan = load_plan(GOLDEN)
    fresh = certify_plan(plan)
    assert fresh.ok
    assert fresh.rounds == plan.certificate.rounds


def test_golden_plan_matches_fresh_planning():
    plan = load_plan(GOLDEN_LEVELSYNC)
    assert plan.certificate is not None and plan.certificate.ok
    fresh = ScheduledPermutation.plan(
        random_permutation(256, seed=0), width=4
    )
    assert np.array_equal(plan.p, fresh.p)
    assert np.array_equal(plan.step1.s, fresh.step1.s)
    assert np.array_equal(plan.step1.t, fresh.step1.t)
    assert np.array_equal(plan.step3.s, fresh.step3.s)


def test_golden_plan_still_permutes():
    plan = load_plan(GOLDEN)
    a = np.arange(256.0)
    expected = np.empty_like(a)
    expected[plan.p] = a
    assert np.array_equal(plan.apply(a), expected)


def test_levelsync_golden_recertifies_and_permutes():
    plan = load_plan(GOLDEN_LEVELSYNC)
    assert certify_plan(plan).rounds == plan.certificate.rounds
    assert plan.semantic_certificate is not None
    a = np.arange(256.0)
    expected = np.empty_like(a)
    expected[plan.p] = a
    assert np.array_equal(plan.apply(a), expected)
