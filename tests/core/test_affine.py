"""Closed-form plans for affine (BMMC) permutations and their formula
plan files (:mod:`repro.core.affine`)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.cli import main
from repro.core import affine
from repro.core.io import (
    _read_npz,
    _write_npz,
    load_plan,
    plan_checksum,
    save_plan,
)
from repro.core.scheduled import ScheduledPermutation
from repro.errors import ColoringError, PlanCorruptionError
from repro.permutations.named import (
    bit_reversal,
    random_permutation,
    transpose_permutation,
)
from repro.resilience import FaultPlan


def _seeded_form(n, seed):
    """A seeded invertible bit matrix (rejection-sampled) and offset."""
    rng = np.random.default_rng(seed)
    bits = n.bit_length() - 1
    while True:
        columns = tuple(int(v) for v in rng.integers(0, n, size=bits))
        form = affine.AffineForm(bits, columns, int(rng.integers(0, n)))
        try:
            form.validate()
            return form
        except Exception:
            continue


def _same_program(x, y):
    """Same ops with bitwise-equal arrays of equal dtypes."""
    assert [op.kind for op in x.ops] == [op.kind for op in y.ops]
    for op, other in zip(x.ops, y.ops):
        for name in op._ARRAY_FIELDS:
            mine, theirs = getattr(op, name), getattr(other, name)
            assert (mine is None) == (theirs is None)
            if mine is not None:
                assert np.array_equal(mine, theirs)
                assert mine.dtype == theirs.dtype
    return True


def _scatter(p, a):
    out = np.empty_like(a)
    out[p] = a
    return out


def _cases():
    for n in (1 << 8, 1 << 12, 1 << 16):
        m = int(np.sqrt(n))
        for width in (4, 32):
            if m % width:
                continue
            for name in ("bit-reversal", "transpose", "seed0", "seed1"):
                yield n, width, name


def _permutation(n, name):
    if name == "bit-reversal":
        return bit_reversal(n)
    if name == "transpose":
        return transpose_permutation(n)
    return _seeded_form(n, int(name[4:]) + n).permutation()


class TestDetection:
    @pytest.mark.parametrize("n", [16, 256, 1 << 16])
    def test_named_families_are_affine(self, n):
        for p in (bit_reversal(n), transpose_permutation(n)):
            form = affine.detect(p)
            assert form is not None
            assert np.array_equal(form.permutation(), p)

    def test_seeded_member_recovered_exactly(self):
        form = _seeded_form(1 << 12, 7)
        assert affine.detect(form.permutation()) == form

    def test_random_permutation_rejected_by_probes(self):
        """A random permutation fails a probe index long before the
        O(n) check (which would read the whole array)."""
        p = random_permutation(1 << 16, seed=3)
        assert affine.detect(p) is None
        form = affine.AffineForm(
            16, tuple(int(p[1 << j]) ^ int(p[0]) for j in range(16)),
            int(p[0]),
        )
        assert any(int(p[x]) != form.at(x)
                   for x in affine._probes(16))

    def test_swapped_pair_is_not_affine(self):
        p = bit_reversal(1 << 12).copy()
        p[[9, 700]] = p[[700, 9]]
        assert affine.detect(p) is None

    def test_non_power_of_two_is_not_affine(self):
        assert affine.detect(np.arange(36)[::-1].copy()) is None


@settings(max_examples=60, deadline=None)
@given(bits=st.integers(2, 12), dim=st.integers(0, 12),
       seed=st.integers(0, 2**32 - 1))
def test_common_complement_of_equal_dimension_subspaces(bits, dim, seed):
    """Two subspaces of equal dimension always have a common
    complement, and the greedy construction finds one."""
    dim = min(dim, bits)
    rng = np.random.default_rng(seed)

    def subspace():
        span = affine._Span()
        basis = []
        while len(basis) < dim:
            v = int(rng.integers(1, 1 << bits))
            if v not in span:
                span.add(v)
                basis.append(v)
        return basis

    u, w = subspace(), subspace()
    complement = affine.common_complement(u, w, bits)
    assert len(complement) == bits - dim
    for side in (u, w):
        assert len(affine._Span(side + complement)) == bits


class TestClosedFormPlans:
    @pytest.mark.parametrize("n, width, name", list(_cases()))
    def test_plan_is_certified_and_exact(self, n, width, name):
        p = _permutation(n, name)
        form = affine.detect(p)
        assert form is not None
        if n >= affine.CLOSED_FORM_MIN_N:
            plan = ScheduledPermutation.plan(p, width=width)
        else:
            plan = ScheduledPermutation.from_affine(form, width)
        assert plan.affine == form
        assert np.array_equal(plan.p, p)
        plan.verify()
        assert plan.certify().ok
        a = np.random.default_rng(n + width).random(n)
        expected = _scatter(p, a)
        assert np.array_equal(plan.apply(a), expected)
        rebuilt = ScheduledPermutation.from_program(plan.lower(), p)
        rebuilt.verify()
        assert np.array_equal(rebuilt.apply(a), expected)
        assert _same_program(rebuilt.lower(), plan.lower())

    def test_from_affine_is_the_planned_plan(self):
        p = _permutation(1 << 16, "seed1")
        plan = ScheduledPermutation.plan(p, width=32)
        again = ScheduledPermutation.from_affine(plan.affine, 32)
        assert _same_program(again.lower(), plan.lower())

    def test_no_colouring_backend_runs(self):
        with telemetry.counting() as counts:
            plan = ScheduledPermutation.plan(bit_reversal(1 << 16), width=32)
        assert plan.affine is not None
        assert counts["plans_affine_closed_total"] == 1
        assert not any(k.startswith(("coloring_euler", "coloring_matching"))
                       for k in counts)

    def test_swapped_pair_falls_back_to_colouring(self):
        p = bit_reversal(1 << 16).copy()
        p[[3, 40000]] = p[[40000, 3]]
        with telemetry.counting() as counts:
            plan = ScheduledPermutation.plan(p, width=32)
        assert plan.affine is None
        assert counts["coloring_euler_calls_total"] == 4
        assert "plans_affine_closed_total" not in counts
        a = np.arange(float(p.shape[0]))
        assert np.array_equal(plan.apply(a), _scatter(p, a))

    def test_explicit_backend_still_colours(self):
        p = bit_reversal(1 << 16)
        with telemetry.counting() as counts:
            plan = ScheduledPermutation.plan(p, width=32, backend="euler")
        assert plan.affine is None
        assert counts["coloring_euler_calls_total"] == 4

    def test_small_affine_permutations_keep_colouring(self):
        plan = ScheduledPermutation.plan(bit_reversal(1 << 12), width=32)
        assert plan.affine is None


class TestFaults:
    def test_transient_fault_fires_at_the_affine_site(self):
        p = transpose_permutation(1 << 16)
        with FaultPlan(transient_coloring_failures=1,
                       coloring_sites=("affine",)):
            with pytest.raises(ColoringError, match="'affine'"):
                ScheduledPermutation.plan(p, width=32)
            plan = ScheduledPermutation.plan(p, width=32)
        assert plan.affine is not None

    def test_site_filter_excludes_affine(self):
        with FaultPlan(transient_coloring_failures=1,
                       coloring_sites=("euler",)):
            plan = ScheduledPermutation.plan(bit_reversal(1 << 16),
                                             width=32)
        assert plan.affine is not None

    def test_capacity_wall_sees_the_global_degree(self):
        from repro.errors import SharedMemoryCapacityError

        with FaultPlan(capacity_threshold=256):
            with pytest.raises(SharedMemoryCapacityError):
                ScheduledPermutation.plan(bit_reversal(1 << 16), width=32)
        # Bank colourings have degree m / w = 8: under a wall of 16 only
        # the global (degree 256) colouring hits it.
        with FaultPlan(capacity_threshold=16):
            with pytest.raises(SharedMemoryCapacityError,
                               match="degree 256"):
                ScheduledPermutation.plan(bit_reversal(1 << 16), width=32)


@pytest.fixture(scope="module")
def formula_plan():
    return ScheduledPermutation.plan(
        _permutation(1 << 16, "seed0"), width=32
    )


def _rewrite(path, mutate, rechecksum=False, strip_certificates=False):
    arrays = _read_npz(path)
    mutate(arrays)
    if strip_certificates:
        arrays.pop("certificate", None)
        arrays.pop("semantic_certificate", None)
    if rechecksum:
        payload = {k: v for k, v in arrays.items()
                   if k not in ("checksum", "library_version",
                                "certificate", "semantic_certificate")}
        arrays["checksum"] = np.str_(plan_checksum(payload))
    _write_npz(path, arrays)


def _flip_bit(key, bit=0):
    def mutate(arrays):
        value = np.asarray(arrays[key]).copy()
        value.reshape(-1)[0] ^= 1 << bit
        arrays[key] = value
    return mutate


class TestFormulaFiles:
    def test_round_trip(self, formula_plan, tmp_path):
        path = tmp_path / "plan.npz"
        save_plan(path, formula_plan)
        arrays = _read_npz(path)
        assert "affine.recipe" in arrays and "p" not in arrays
        assert not any(k.startswith("op") for k in arrays)
        assert path.stat().st_size < 4096
        loaded = load_plan(path)
        assert loaded.affine == formula_plan.affine
        assert loaded.certificate is not None and loaded.certificate.ok
        assert loaded.semantic_certificate.ok
        assert _same_program(loaded.lower(), formula_plan.lower())
        a = np.random.default_rng(5).random(loaded.n)
        assert np.array_equal(loaded.apply(a), _scatter(formula_plan.p, a))

    @pytest.mark.parametrize("mutate", [
        _flip_bit("affine.A", 3),
        _flip_bit("affine.c", 0),
        lambda arrays: arrays.update({"affine.recipe": np.int64(2)}),
    ], ids=["A", "c", "recipe"])
    @pytest.mark.parametrize("rechecksum", [False, True],
                             ids=["stale-checksum", "rechecksummed"])
    def test_tampering_rejected(self, formula_plan, tmp_path, mutate,
                                rechecksum):
        path = tmp_path / "plan.npz"
        save_plan(path, formula_plan)
        _rewrite(path, mutate, rechecksum=rechecksum)
        with pytest.raises(PlanCorruptionError):
            load_plan(path)

    def test_unknown_recipe_rejected_without_certificates(
        self, formula_plan, tmp_path
    ):
        path = tmp_path / "plan.npz"
        save_plan(path, formula_plan)
        _rewrite(path,
                 lambda arrays: arrays.update(
                     {"affine.recipe": np.int64(2)}),
                 rechecksum=True, strip_certificates=True)
        with pytest.raises(PlanCorruptionError, match="recipe 2"):
            load_plan(path)

    def test_singular_matrix_rejected_without_certificates(
        self, formula_plan, tmp_path
    ):
        def singular(arrays):
            columns = np.asarray(arrays["affine.A"]).copy()
            columns[1] = columns[0]
            arrays["affine.A"] = columns
        path = tmp_path / "plan.npz"
        save_plan(path, formula_plan)
        _rewrite(path, singular, rechecksum=True, strip_certificates=True)
        with pytest.raises(PlanCorruptionError, match="singular"):
            load_plan(path)

    def test_fault_injection_modes_rejected(self, formula_plan, tmp_path):
        from repro.errors import PlanIntegrityError
        from repro.resilience import FILE_FAULT_MODES

        faults = FaultPlan(seed=4)
        for mode in FILE_FAULT_MODES:
            path = tmp_path / f"{mode}.npz"
            save_plan(path, formula_plan)
            faults.corrupt_plan_file(path, mode)
            with pytest.raises(PlanIntegrityError):
                load_plan(path)

    def test_verify_plan_cli(self, formula_plan, tmp_path, capsys):
        path = tmp_path / "plan.npz"
        save_plan(path, formula_plan)
        assert main(["verify-plan", str(path)]) == 0
        out = capsys.readouterr().out
        assert "plan OK" in out
        assert "formula: affine" in out
        _rewrite(path, _flip_bit("affine.A", 2))
        with pytest.raises(SystemExit, match="REJECTED"):
            main(["verify-plan", str(path)])

    def test_random_plans_keep_the_program_layout(self, tmp_path):
        path = tmp_path / "plan.npz"
        plan = ScheduledPermutation.plan(
            random_permutation(1 << 16, seed=2), width=32
        )
        save_plan(path, plan)
        arrays = _read_npz(path)
        assert "affine.recipe" not in arrays and "op0.s" in arrays
        assert load_plan(path).affine is None


class TestPlanner:
    def test_cold_formula_plan_serves_from_disk(self, tmp_path):
        from repro.planner import Planner

        p = _permutation(1 << 16, "seed1")
        planner = Planner(cache_dir=tmp_path)
        compiled = planner.compile(p, width=32)
        assert compiled.engine.affine is not None
        assert planner.metrics.counter_values()[
            "planner_affine_plans_total"] == 1
        assert "repro_planner_affine_plans_total 1" in (
            planner.metrics.prometheus_text())
        fp = compiled.fingerprint
        assert "affine.recipe" in _read_npz(planner.disk.path_for(fp))
        # Without the sidecar a fresh planner takes the plan file: the
        # formula regenerates, re-proves and serves.
        planner.disk.sealed_path_for(fp).unlink()
        fresh = Planner(cache_dir=tmp_path)
        a = np.random.default_rng(0).random(p.shape[0])
        assert np.array_equal(fresh.compile(p, width=32).apply(a),
                              _scatter(p, a))
        assert fresh.stats()["disk_hits"] == 1
        assert fresh.stats()["cold_plans"] == 0
