"""Tests for the checksummed plan-file format (format version 4,
with version-2 migration coverage) and its bit-packed members."""

import numpy as np
import pytest

import repro
from repro.core.io import (
    FORMAT_VERSION,
    METADATA_KEYS,
    PAYLOAD_KEYS,
    _read_npz,
    _write_npz,
    load_plan,
    plan_checksum,
    save_plan,
    save_plan_v2,
)
from repro.core.scheduled import ScheduledPermutation
from repro.errors import (
    PlanCorruptionError,
    PlanIntegrityError,
    PlanVersionError,
    ValidationError,
)
from repro.ir.registry import get_engine
from repro.permutations.named import random_permutation
from repro.resilience import FILE_FAULT_MODES, FaultPlan


@pytest.fixture
def plan():
    return ScheduledPermutation.plan(
        random_permutation(256, seed=5), width=4
    )


@pytest.fixture
def saved(plan, tmp_path):
    path = tmp_path / "plan.npz"
    save_plan(path, plan)
    return path


def _resave(path, mutate):
    """Reload the logical arrays, apply ``mutate``, write back through
    the plan-file codec."""
    arrays = _read_npz(path)
    mutate(arrays)
    _write_npz(path, arrays)


def _payload(path):
    return {
        k: v for k, v in _read_npz(path).items() if k not in METADATA_KEYS
    }


class TestFormat:
    def test_format_version_is_4(self):
        assert FORMAT_VERSION == 4

    def test_file_carries_stamps(self, saved):
        data = _read_npz(saved)
        assert int(data["format_version"]) == 4
        assert str(data["library_version"]) == repro.__version__
        assert str(data["engine"]) == "scheduled"
        assert int(data["num_ops"]) == 5
        checksum = str(data["checksum"])
        assert len(checksum) == 64          # SHA-256 hex
        assert plan_checksum(_payload(saved)) == checksum

    def test_checksum_covers_every_payload_key(self, saved):
        arrays = _payload(saved)
        base = plan_checksum(arrays)
        for key in arrays:
            mutated = dict(arrays)
            flat = np.ascontiguousarray(mutated[key]).copy()
            buf = bytearray(flat.tobytes())
            buf[0] ^= 1
            mutated[key] = np.frombuffer(
                bytes(buf), dtype=flat.dtype
            ).reshape(flat.shape)
            assert plan_checksum(mutated) != base, key

    def test_checksum_covers_the_key_set_itself(self, saved):
        """Dropping a key changes the digest even if no bytes change."""
        arrays = _payload(saved)
        base = plan_checksum(arrays)
        smaller = dict(arrays)
        del smaller["op0.gamma"]
        assert plan_checksum(smaller) != base

    def test_roundtrip_still_exact(self, plan, saved):
        loaded = load_plan(saved)
        a = np.random.default_rng(0).random(256)
        assert np.array_equal(loaded.apply(a), plan.apply(a))


class TestVersion2Migration:
    def test_v2_file_still_loads(self, plan, tmp_path):
        path = tmp_path / "plan_v2.npz"
        save_plan_v2(path, plan)
        with np.load(path) as data:
            assert int(data["format_version"]) == 2
            for key in PAYLOAD_KEYS:
                assert key in data.files
        loaded = load_plan(path)
        assert isinstance(loaded, ScheduledPermutation)
        a = np.random.default_rng(1).random(256)
        assert np.array_equal(loaded.apply(a), plan.apply(a))
        assert loaded.certificate is not None and loaded.certificate.ok

    def test_v2_checksum_uses_canonical_key_order(self, plan, tmp_path):
        path = tmp_path / "plan_v2.npz"
        save_plan_v2(path, plan)
        with np.load(path) as data:
            arrays = {k: np.asarray(data[k]) for k in PAYLOAD_KEYS}
            stored = str(data["checksum"])
        assert plan_checksum(arrays, keys=PAYLOAD_KEYS) == stored

    def test_v2_missing_payload_key_names_it(self, plan, tmp_path):
        path = tmp_path / "plan_v2.npz"
        save_plan_v2(path, plan)
        _resave(path, lambda arrays: arrays.pop("gamma1"))
        with pytest.raises(PlanCorruptionError, match="gamma1"):
            load_plan(path)

    def test_v2_tampering_detected(self, plan, tmp_path):
        path = tmp_path / "plan_v2.npz"
        save_plan_v2(path, plan)

        def flip(arrays):
            s1 = arrays["s1"].copy()
            s1[0, 0] ^= 1
            arrays["s1"] = s1
        _resave(path, flip)
        with pytest.raises(PlanCorruptionError, match="checksum"):
            load_plan(path)


class TestRejection:
    def test_checksum_mismatch(self, saved):
        def flip(arrays):
            s1 = arrays["op0.s"].copy()
            s1[0, 0] ^= 1
            arrays["op0.s"] = s1
        _resave(saved, flip)
        with pytest.raises(PlanCorruptionError, match="checksum"):
            load_plan(saved)

    def test_missing_checksum_key(self, saved):
        _resave(saved, lambda arrays: arrays.pop("checksum"))
        with pytest.raises(PlanCorruptionError, match="checksum"):
            load_plan(saved)

    def test_missing_payload_key(self, saved):
        """Deleting a schedule array changes the hashed key set, so the
        stored digest no longer matches."""
        _resave(saved, lambda arrays: arrays.pop("op0.gamma"))
        with pytest.raises(PlanCorruptionError, match="checksum"):
            load_plan(saved)

    def test_truncated_file(self, saved):
        raw = saved.read_bytes()
        saved.write_bytes(raw[: len(raw) // 3])
        with pytest.raises(PlanCorruptionError) as excinfo:
            load_plan(saved)
        assert str(saved) in str(excinfo.value)

    def test_not_an_archive_at_all(self, tmp_path):
        path = tmp_path / "plan.npz"
        path.write_bytes(b"definitely not a zip file")
        with pytest.raises(PlanCorruptionError):
            load_plan(path)

    def test_error_message_names_the_path(self, saved):
        _resave(saved, lambda arrays: arrays.pop("p"))
        with pytest.raises(PlanCorruptionError) as excinfo:
            load_plan(saved)
        assert str(saved) in str(excinfo.value)


class TestVersioning:
    def test_version_1_rejected_loudly(self, saved):
        _resave(
            saved,
            lambda arrays: arrays.update(format_version=np.int64(1)),
        )
        with pytest.raises(PlanVersionError) as excinfo:
            load_plan(saved)
        message = str(excinfo.value)
        assert "format version 1" in message
        assert "python -m repro plan" in message    # how to re-plan
        assert "save_plan" in message

    def test_future_version_rejected(self, saved):
        _resave(
            saved,
            lambda arrays: arrays.update(
                format_version=np.int64(FORMAT_VERSION + 1)
            ),
        )
        with pytest.raises(PlanVersionError):
            load_plan(saved)

    def test_version_error_beats_checksum_error(self, saved):
        """A v1 file gets the actionable version message even though
        its checksum is (necessarily) also stale."""
        def make_v1(arrays):
            arrays["format_version"] = np.int64(1)
            arrays.pop("checksum")
            arrays.pop("library_version")
        _resave(saved, make_v1)
        with pytest.raises(PlanVersionError):
            load_plan(saved)


def _raw(path):
    """The archive's members as stored (packed bytes and specs)."""
    with np.load(path) as data:
        return {k: np.asarray(data[k]) for k in data.files}


def _flip(arr, bit):
    buf = bytearray(arr.tobytes())
    buf[bit // 8] ^= 1 << (bit % 8)
    return np.frombuffer(bytes(buf), dtype=arr.dtype).reshape(arr.shape)


@pytest.fixture
def packed(tmp_path):
    """A v4 plan whose index arrays the writer bit-packs: n = 4093
    values of 12 bits leave 4 zero pad bits in the last byte."""
    plan = get_engine("cpu-naive").plan(
        random_permutation(4093, seed=1), width=32
    )
    path = tmp_path / "packed.npz"
    save_plan(path, plan)
    raw = _raw(path)
    assert "p.bitpacked" in raw and "p.bitspec" in raw
    assert "p" not in raw
    return path


class TestPackedMembers:
    def test_packed_plan_round_trips(self, packed):
        plan = load_plan(packed)
        assert np.array_equal(
            plan.p, random_permutation(4093, seed=1)
        )

    def test_data_bit_flip_rejected(self, packed):
        raw = _raw(packed)
        raw["p.bitpacked"] = _flip(raw["p.bitpacked"], 5)
        np.savez(packed, **raw)
        with pytest.raises(PlanCorruptionError, match="checksum"):
            load_plan(packed)

    def test_pad_bit_flip_rejected(self, packed):
        raw = _raw(packed)
        data = raw["p.bitpacked"]
        assert (4093 * 12) % 8 == 4            # four pad bits
        raw["p.bitpacked"] = _flip(data, 8 * data.size - 1)
        np.savez(packed, **raw)
        with pytest.raises(PlanCorruptionError, match="pad bits"):
            load_plan(packed)

    def test_every_spec_bit_flip_rejected(self, packed):
        raw = _raw(packed)
        spec = raw["p.bitspec"]
        for bit in range(8 * spec.dtype.itemsize):
            np.savez(packed, **{**raw, "p.bitspec": _flip(spec, bit)})
            with pytest.raises(PlanCorruptionError):
                load_plan(packed)

    def test_deleted_spec_rejected(self, packed):
        raw = _raw(packed)
        del raw["p.bitspec"]
        np.savez(packed, **raw)
        with pytest.raises(PlanCorruptionError, match="no bit-packing"):
            load_plan(packed)

    def test_orphan_spec_rejected(self, packed):
        raw = _raw(packed)
        del raw["p.bitpacked"]
        np.savez(packed, **raw)
        with pytest.raises(PlanCorruptionError, match="no packed"):
            load_plan(packed)

    def test_spec_claiming_more_bits_rejected(self, packed):
        raw = _raw(packed)
        raw["p.bitspec"] = np.asarray(np.bytes_(
            bytes(raw["p.bitspec"].item()).replace(b'"bits": 12',
                                                   b'"bits": 13')
        ))
        np.savez(packed, **raw)
        with pytest.raises(PlanCorruptionError, match="bytes"):
            load_plan(packed)

    @pytest.mark.parametrize("mode", FILE_FAULT_MODES)
    @pytest.mark.parametrize("engine", ["cpu-naive", "scheduled"])
    def test_fault_plan_modes_detected(self, mode, engine, tmp_path):
        n = 4093 if engine == "cpu-naive" else 4096
        path = tmp_path / "plan.npz"
        save_plan(path, get_engine(engine).plan(
            random_permutation(n, seed=1), width=32
        ))
        assert any(k.endswith(".bitpacked") for k in _raw(path))
        FaultPlan(seed=3).corrupt_plan_file(path, mode)
        with pytest.raises(PlanIntegrityError):
            load_plan(path)

    def test_fault_plan_rewrite_keeps_packed_layout(self, packed):
        FaultPlan(seed=3).corrupt_plan_file(packed, "bit-flip")
        assert any(k.endswith(".bitpacked") for k in _raw(packed))


class TestHierarchy:
    def test_plan_errors_are_validation_errors(self):
        assert issubclass(PlanCorruptionError, PlanIntegrityError)
        assert issubclass(PlanVersionError, PlanIntegrityError)
        assert issubclass(PlanIntegrityError, ValidationError)
        assert issubclass(PlanIntegrityError, ValueError)
