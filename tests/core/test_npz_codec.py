"""The plan-file member codec: per-member encoding choice, exact-width
bit packing, and bit-identical round trips through ``_write_npz`` /
``_read_npz``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.io import (
    _encoding,
    _pack_bits,
    _read_npz,
    _unpack_bits,
    _write_npz,
    save_plan,
    save_sealed,
)
from repro.ir.registry import get_engine
from repro.passes import default_pipeline, seal_program
from repro.permutations.named import bit_reversal, random_permutation

_UNSIGNED = ("uint8", "uint16", "uint32", "uint64")

_SHAPES = st.one_of(
    st.sampled_from([(), (0,), (1,), (0, 3), (1, 1)]),
    st.tuples(st.integers(0, 300)),
    st.tuples(st.integers(1, 40), st.integers(1, 40)),
)


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("codec")


def _round_trip(tmp_dir, arrays):
    path = tmp_dir / "codec.npz"
    _write_npz(path, arrays)
    return _read_npz(path)


def _assert_identical(back, arr):
    assert back.dtype == arr.dtype
    assert back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


@st.composite
def unsigned_arrays(draw):
    """An unsigned array whose largest value needs exactly ``bits``
    bits, random or sorted (sorted members take the deflate path)."""
    dtype = np.dtype(draw(st.sampled_from(_UNSIGNED)))
    bits = draw(st.integers(1, 8 * dtype.itemsize))
    shape = draw(_SHAPES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = (1 << bits) - 1
    values = rng.integers(0, top, size=math.prod(shape), dtype=dtype,
                          endpoint=True)
    if values.size:
        values[rng.integers(values.size)] = top
        if draw(st.booleans()):
            values.sort()
    return values.reshape(shape)


@settings(max_examples=200, deadline=None)
@given(arr=unsigned_arrays())
def test_unsigned_members_round_trip(arr, tmp_dir):
    _assert_identical(_round_trip(tmp_dir, {"x": arr})["x"], arr)


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(
        ["int8", "int16", "int32", "int64", "float32", "float64",
         "bool", "str"]
    ),
    shape=_SHAPES,
    seed=st.integers(0, 2**32 - 1),
)
def test_other_members_come_back_untouched(kind, shape, seed, tmp_dir):
    rng = np.random.default_rng(seed)
    size = math.prod(shape)
    if kind == "str":
        arr = np.array(
            ["x" * int(k) for k in rng.integers(0, 9, size)],
            dtype="<U8",
        ).reshape(shape)
    elif kind == "bool":
        arr = (rng.random(size) < 0.5).reshape(shape)
    elif kind.startswith("float"):
        arr = rng.standard_normal(size).astype(kind).reshape(shape)
    else:
        info = np.iinfo(kind)
        arr = rng.integers(info.min, info.max, size=size, dtype=kind,
                           endpoint=True).reshape(shape)
    path = tmp_dir / "other.npz"
    _write_npz(path, {"x": arr})
    with np.load(path) as data:
        assert data.files == ["x"]              # never bit-packed
    _assert_identical(_read_npz(path)["x"], arr)


@pytest.mark.parametrize("dtype", _UNSIGNED)
def test_every_width_packs_exactly(dtype):
    dtype = np.dtype(dtype)
    rng = np.random.default_rng(0)
    for bits in range(1, 8 * dtype.itemsize + 1):
        for count in (1, 7, 8, 9, 61):
            values = rng.integers(0, (1 << bits) - 1, size=count,
                                  dtype=dtype, endpoint=True)
            data = _pack_bits(values, bits)
            assert data.size == -(-count * bits // 8)
            if (count * bits) % 8:
                assert int(data[-1]) >> ((count * bits) % 8) == 0
            back = _unpack_bits(data, bits, count, dtype)
            assert back.dtype == dtype
            assert np.array_equal(back, values), (dtype, bits, count)


@pytest.mark.parametrize("shape", [(1 << 16,), (256, 256), (3, 7, 11)])
def test_packed_member_round_trips(shape, tmp_dir):
    arr = np.random.default_rng(1).integers(
        0, 1 << 10, size=math.prod(shape)
    ).astype(np.uint16).reshape(shape)
    arr.flat[0] = 1023
    path = tmp_dir / "packed.npz"
    _write_npz(path, {"x": arr})
    with np.load(path) as data:
        packed = set(data.files) == {"x.bitpacked", "x.bitspec"}
    assert packed == (arr.size > 1000)
    _assert_identical(_read_npz(path)["x"], arr)


class TestChoice:
    def test_random_full_width_index_array_is_stored(self):
        arr = random_permutation(1 << 16, seed=0).astype(np.uint16)
        assert _encoding(arr)[:2] == ("store", 0)

    def test_random_narrow_index_array_is_packed(self):
        arr = np.random.default_rng(0).integers(
            0, 1 << 10, size=1 << 16
        ).astype(np.uint16)
        assert _encoding(arr)[:2] == ("pack", 10)

    def test_structured_array_is_deflated(self):
        arr = (np.arange(1 << 16) // 256).astype(np.uint16)
        assert _encoding(arr)[:2] == ("deflate", 6)

    def test_near_random_member_deflates_at_level_1(self, tmp_dir):
        # A random 2^16 plan's row-wise ``s`` schedules probe at ~0.8:
        # level 6 would save a fraction of a percent for ~3x the time.
        plan = get_engine("scheduled").plan(
            random_permutation(1 << 16, seed=1), width=32
        )
        s = np.asarray(plan.lower().ops[0].s)
        assert s.max() < 256   # the plan writer narrows it to uint8
        arr = s.astype(np.uint8)
        assert _encoding(arr)[:2] == ("deflate", 1)
        _assert_identical(_round_trip(tmp_dir, {"s": arr})["s"], arr)

    def test_small_members_are_deflated(self):
        # A scalar's .npy header dwarfs its data and is mostly padding.
        assert _encoding(np.asarray(np.int64(3)))[0] == "deflate"


def _affine(n: int, seed: int) -> np.ndarray:
    """``x -> A x xor c`` for a seeded invertible GF(2) matrix ``A``
    (unit lower times unit upper triangular, so always invertible)."""
    k = n.bit_length() - 1
    rng = np.random.default_rng(seed)
    eye = np.eye(k, dtype=np.int64)
    lower = np.tril(rng.integers(0, 2, (k, k)), -1) + eye
    upper = np.triu(rng.integers(0, 2, (k, k)), 1) + eye
    matrix = (lower @ upper) % 2
    x = np.arange(n, dtype=np.int64)
    y = np.full(n, int(rng.integers(n)), dtype=np.int64)
    for j in range(k):
        column = int(sum(int(matrix[i, j]) << i for i in range(k)))
        y ^= ((x >> j) & 1) * column
    return y


@pytest.mark.parametrize("family", ["bit-reversal", "affine", "random"])
def test_files_no_larger_than_savez_compressed(family, tmp_path):
    n = 1 << 12
    p = {
        "bit-reversal": lambda: bit_reversal(n),
        "affine": lambda: _affine(n, seed=2),
        "random": lambda: random_permutation(n, seed=2),
    }[family]()
    assert np.array_equal(np.sort(p), np.arange(n))
    plan = get_engine("scheduled").plan(p, width=32)
    plan_path = tmp_path / "plan.npz"
    save_plan(plan_path, plan)
    sealed_path = tmp_path / "plan.sealed.npz"
    save_sealed(sealed_path, seal_program(
        default_pipeline().run(plan.lower()), requested=p
    ))
    for path in (plan_path, sealed_path):
        ref = tmp_path / "ref.npz"
        np.savez_compressed(ref, **_read_npz(path))
        assert path.stat().st_size <= ref.stat().st_size, path.name
