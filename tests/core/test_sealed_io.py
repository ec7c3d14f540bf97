"""Sealed sidecar persistence: save/load round trip, checksum and
binding enforcement, version gating, the raw-or-delta gather choice,
bit-packed members, and the version-1 fixture."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.core.io import (
    SEALED_FORMAT_VERSION,
    _read_npz,
    _write_npz,
    load_sealed,
    plan_checksum,
    read_plan_checksum,
    save_plan,
    save_sealed,
)
from repro.errors import (
    PlanCorruptionError,
    PlanIntegrityError,
    PlanVersionError,
)
from repro.ir.registry import get_engine
from repro.passes import default_pipeline, seal_program
from repro.permutations.named import bit_reversal, random_permutation
from repro.resilience import FILE_FAULT_MODES, FaultPlan

_N, _WIDTH = 4096, 32

#: A version-1 sidecar written by the zigzag-delta-only writer: the
#: planner's sidecar for random_permutation(1024, seed=0), scheduled,
#: width 32.  Its bytes are pinned; it must keep loading.
GOLDEN_V1 = Path(__file__).parent.parent / "data" / "golden_sealed_v1.npz"
GOLDEN_V1_SHA256 = (
    "efe4d0e5bcbdabd8bf9eaaad2264ce636426fe57f43cb1caa5ad53d93c54014d"
)


def _sealed(p=None, engine="scheduled"):
    if p is None:
        p = bit_reversal(_N)
    plan = get_engine(engine).plan(p, width=_WIDTH)
    program = default_pipeline().run(plan.lower())
    return seal_program(
        program, requested=p, fingerprint="a" * 64,
        pipeline_signature="sig@v1",
    )


class TestRoundTrip:
    def test_save_load_preserves_maps_and_meta(self, tmp_path):
        sealed = _sealed()
        path = tmp_path / "x.sealed.npz"
        save_sealed(path, sealed)
        back = load_sealed(path)
        assert np.array_equal(back.scatter, sealed.scatter)
        assert np.array_equal(back.gather, sealed.gather)
        assert back.engine == sealed.engine
        assert back.width == sealed.width
        assert back.meta["fingerprint"] == "a" * 64
        assert back.meta["pipeline"] == "sig@v1"
        assert (back.meta["denotation_sha"]
                == sealed.meta["denotation_sha"])

    def test_sidecar_is_much_smaller_than_plan(self, tmp_path):
        p = bit_reversal(_N)
        plan = get_engine("scheduled").plan(p, width=_WIDTH)
        plan_path = tmp_path / "plan.npz"
        save_plan(plan_path, plan)
        sealed_path = tmp_path / "plan.sealed.npz"
        save_sealed(sealed_path, _sealed(p))
        # Delta + zigzag + min_scalar_type narrowing: the near-sorted
        # gather compresses far below the full schedule arrays.
        assert sealed_path.stat().st_size < (
            plan_path.stat().st_size / 2
        )

    def test_random_permutation_round_trips(self, tmp_path):
        p = random_permutation(_N, seed=11)
        sealed = _sealed(p)
        path = tmp_path / "r.sealed.npz"
        save_sealed(path, sealed)
        assert np.array_equal(load_sealed(path).scatter, p)


def _resave(path, mutate):
    """Apply ``mutate`` to the logical arrays; rewrite via the codec."""
    arrays = _read_npz(path)
    mutate(arrays)
    _write_npz(path, arrays)


class TestRejection:
    def test_bit_flip_rejected(self, tmp_path):
        path = tmp_path / "x.sealed.npz"
        save_sealed(path, _sealed())

        def flip(arrays):
            delta = arrays["gather_delta"].copy()
            delta[7] ^= 1
            arrays["gather_delta"] = delta
        _resave(path, flip)
        with pytest.raises(PlanCorruptionError):
            load_sealed(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "x.sealed.npz"
        save_sealed(path, _sealed())
        _resave(path, lambda a: a.update(sealed_version=np.int64(99)))
        with pytest.raises(PlanVersionError):
            load_sealed(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "x.sealed.npz"
        save_sealed(path, _sealed())
        _resave(path, lambda arrays: arrays.pop("gather_delta"))
        with pytest.raises(PlanCorruptionError):
            load_sealed(path)

    def test_binding_mismatch_rejected(self, tmp_path):
        path = tmp_path / "x.sealed.npz"
        save_sealed(path, _sealed(), plan_sha="f" * 64)
        with pytest.raises(PlanIntegrityError):
            load_sealed(path, expected_plan_sha="0" * 64)

    def test_unbound_sidecar_tolerates_expected_sha(self, tmp_path):
        # A sidecar without a recorded binding predates (or outlived)
        # its plan file; the caller's expectation cannot refute it.
        path = tmp_path / "x.sealed.npz"
        save_sealed(path, _sealed())
        load_sealed(path, expected_plan_sha="0" * 64)

    def test_binding_match_accepted(self, tmp_path):
        p = bit_reversal(_N)
        plan = get_engine("scheduled").plan(p, width=_WIDTH)
        plan_path = tmp_path / "plan.npz"
        save_plan(plan_path, plan)
        sha = read_plan_checksum(plan_path)
        sealed = _sealed(p)
        sealed.meta["plan_sha"] = sha
        path = tmp_path / "plan.sealed.npz"
        save_sealed(path, sealed)
        back = load_sealed(path, expected_plan_sha=sha)
        assert back.meta["plan_sha"] == sha

    def test_unreadable_file_rejected(self, tmp_path):
        path = tmp_path / "x.sealed.npz"
        path.write_bytes(b"not a zipfile")
        with pytest.raises(PlanCorruptionError):
            load_sealed(path)


class TestReadPlanChecksum:
    def test_matches_full_load_checksum(self, tmp_path):
        p = bit_reversal(_N)
        plan = get_engine("scheduled").plan(p, width=_WIDTH)
        path = tmp_path / "plan.npz"
        save_plan(path, plan)
        cheap = read_plan_checksum(path)
        assert cheap == str(_read_npz(path)["checksum"])
        assert len(cheap) == 64

    def test_missing_file_raises_integrity_error(self, tmp_path):
        with pytest.raises(PlanIntegrityError):
            read_plan_checksum(tmp_path / "absent.npz")


class TestDeltaNarrowing:
    def test_identityish_gather_stores_narrow_deltas(self, tmp_path):
        # A near-identity permutation has deltas of ~1: the stored
        # zigzag array must narrow below int64.
        p = np.arange(_N, dtype=np.int64)
        p[0], p[1] = p[1], p[0]
        sealed = _sealed(p, engine="cpu-naive")
        path = tmp_path / "near.sealed.npz"
        save_sealed(path, sealed)
        stored = _read_npz(path)["gather_delta"]
        assert stored.dtype.itemsize < 8
        assert np.array_equal(load_sealed(path).scatter, p)

    def test_checksum_covers_every_payload_key(self, tmp_path):
        path = tmp_path / "x.sealed.npz"
        save_sealed(path, _sealed())
        arrays = _read_npz(path)
        from repro.core.io import SEALED_METADATA_KEYS

        payload = {
            k: v for k, v in arrays.items()
            if k not in SEALED_METADATA_KEYS
        }
        assert plan_checksum(
            payload, keys=tuple(sorted(payload))
        ) == str(arrays["checksum"])


class TestGatherEncoding:
    def test_random_gather_stored_raw(self, tmp_path):
        # Random deltas need a wider dtype than the gather itself and
        # barely deflate, so the raw narrowed gather is the smaller.
        p = random_permutation(_N, seed=11)
        path = tmp_path / "r.sealed.npz"
        save_sealed(path, _sealed(p))
        arrays = _read_npz(path)
        assert "gather" in arrays and "gather_delta" not in arrays
        assert int(arrays["sealed_version"]) == SEALED_FORMAT_VERSION == 2
        assert np.array_equal(load_sealed(path).scatter, p)

    def test_structured_gather_delta_encoded(self, tmp_path):
        path = tmp_path / "b.sealed.npz"
        save_sealed(path, _sealed())
        arrays = _read_npz(path)
        assert "gather_delta" in arrays and "gather" not in arrays

    def test_both_encodings_rejected(self, tmp_path):
        path = tmp_path / "x.sealed.npz"
        sealed = _sealed()
        save_sealed(path, sealed)
        _resave(path, lambda a: a.update(gather=sealed.gather.copy()))
        with pytest.raises(PlanCorruptionError, match="exactly one"):
            load_sealed(path)

    def test_neither_encoding_rejected(self, tmp_path):
        path = tmp_path / "x.sealed.npz"
        save_sealed(path, _sealed())
        _resave(path, lambda arrays: arrays.pop("gather_delta"))
        with pytest.raises(PlanCorruptionError, match="exactly one"):
            load_sealed(path)


def _raw(path):
    with np.load(path) as data:
        return {k: np.asarray(data[k]) for k in data.files}


def _flip(arr, bit):
    buf = bytearray(arr.tobytes())
    buf[bit // 8] ^= 1 << (bit % 8)
    return np.frombuffer(bytes(buf), dtype=arr.dtype).reshape(arr.shape)


@pytest.fixture
def packed(tmp_path):
    """A sidecar whose raw gather is bit-packed: 4093 values of 12 bits
    leave 4 zero pad bits in the last byte."""
    p = random_permutation(4093, seed=1)
    path = tmp_path / "packed.sealed.npz"
    save_sealed(path, _sealed(p, engine="cpu-naive"))
    raw = _raw(path)
    assert "gather.bitpacked" in raw and "gather.bitspec" in raw
    return path


class TestPackedSidecar:
    def test_round_trips(self, packed):
        assert np.array_equal(
            load_sealed(packed).scatter, random_permutation(4093, seed=1)
        )

    def test_data_bit_flip_rejected(self, packed):
        raw = _raw(packed)
        raw["gather.bitpacked"] = _flip(raw["gather.bitpacked"], 3)
        np.savez(packed, **raw)
        with pytest.raises(PlanCorruptionError, match="checksum"):
            load_sealed(packed)

    def test_pad_bit_flip_rejected(self, packed):
        raw = _raw(packed)
        data = raw["gather.bitpacked"]
        raw["gather.bitpacked"] = _flip(data, 8 * data.size - 2)
        np.savez(packed, **raw)
        with pytest.raises(PlanCorruptionError, match="pad bits"):
            load_sealed(packed)

    def test_every_spec_bit_flip_rejected(self, packed):
        raw = _raw(packed)
        spec = raw["gather.bitspec"]
        for bit in range(8 * spec.dtype.itemsize):
            np.savez(packed, **{**raw, "gather.bitspec": _flip(spec, bit)})
            with pytest.raises(PlanCorruptionError):
                load_sealed(packed)

    def test_deleted_spec_rejected(self, packed):
        raw = _raw(packed)
        del raw["gather.bitspec"]
        np.savez(packed, **raw)
        with pytest.raises(PlanCorruptionError, match="no bit-packing"):
            load_sealed(packed)

    def test_spec_claiming_more_bits_rejected(self, packed):
        raw = _raw(packed)
        raw["gather.bitspec"] = np.asarray(np.bytes_(
            bytes(raw["gather.bitspec"].item()).replace(
                b'"bits": 12', b'"bits": 16'
            )
        ))
        np.savez(packed, **raw)
        with pytest.raises(PlanCorruptionError, match="bytes"):
            load_sealed(packed)

    @pytest.mark.parametrize("mode", FILE_FAULT_MODES)
    def test_fault_plan_modes_detected(self, mode, packed):
        FaultPlan(seed=5).corrupt_plan_file(packed, mode)
        with pytest.raises(PlanIntegrityError):
            load_sealed(packed)


class TestVersion1Sidecar:
    def test_fixture_bytes_unchanged(self):
        digest = hashlib.sha256(GOLDEN_V1.read_bytes()).hexdigest()
        assert digest == GOLDEN_V1_SHA256

    def test_loads_and_reproves(self):
        arrays = _read_npz(GOLDEN_V1, what="sealed artifact")
        assert int(arrays["sealed_version"]) == 1
        assert "gather_delta" in arrays and "gather" not in arrays
        sealed = load_sealed(GOLDEN_V1)
        p = random_permutation(1024, seed=0)
        assert np.array_equal(sealed.scatter, p)
        assert sealed.certificate is not None and sealed.certificate.ok
        sealed.verify()

    def test_binding_still_enforced(self):
        sha = load_sealed(GOLDEN_V1).meta["plan_sha"]
        load_sealed(GOLDEN_V1, expected_plan_sha=sha)
        with pytest.raises(PlanIntegrityError):
            load_sealed(GOLDEN_V1, expected_plan_sha="0" * 64)
