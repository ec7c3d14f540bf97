"""Seeded workload inputs and the independent reference.

Everything the program under test receives is generated here from the
workload seed: affine (BMMC) and uniformly random permutations, and
pools of float64 payloads.  The reference output is the definitional
scatter ``out[p] = a``, computed with plain NumPy and never by the
planner or an executor.
"""

from __future__ import annotations

import numpy as np

#: Stream tags keep each family's draws independent of how many ops a
#: timed run happens to reach.
_AFFINE, _RANDOM, _PAYLOAD = 1, 2, 3


def _rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def gf2_rank(rows: np.ndarray) -> int:
    """Rank over GF(2) of a 0/1 matrix, by Gaussian elimination."""
    m = np.array(rows, dtype=np.uint8) & 1
    rank = 0
    for col in range(m.shape[1]):
        pivots = np.nonzero(m[rank:, col])[0]
        if pivots.size == 0:
            continue
        pivot = rank + int(pivots[0])
        m[[rank, pivot]] = m[[pivot, rank]]
        below = np.nonzero(m[:, col])[0]
        below = below[below != rank]
        m[below] ^= m[rank]
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def affine_map(matrix: np.ndarray, offset: int) -> np.ndarray:
    """The permutation ``x -> A x xor c`` on ``k``-bit indices.

    ``matrix`` is ``k x k`` over GF(2) (row ``i`` gives output bit
    ``i``).  Raises ``ValueError`` unless it is invertible, because
    only an invertible matrix gives a permutation.
    """
    a = np.asarray(matrix, dtype=np.uint8) & 1
    k = a.shape[0]
    if a.shape != (k, k) or gf2_rank(a) != k:
        raise ValueError("affine map needs an invertible GF(2) matrix")
    x = np.arange(1 << k, dtype=np.int64)
    y = np.full(x.shape, int(offset), dtype=np.int64)
    for j in range(k):
        # Column j of A, packed as the integer it XORs into y.
        column = int(sum(int(a[i, j]) << i for i in range(k)))
        y ^= ((x >> j) & 1) * column
    return y


def bit_reversal_matrix(k: int) -> np.ndarray:
    return np.eye(k, dtype=np.uint8)[::-1]


def transpose_matrix(k: int) -> np.ndarray:
    """Swap the high and low halves of the index bits (``k`` even):
    the row-major transpose of a ``2^(k/2)`` square matrix."""
    half = k // 2
    return np.roll(np.eye(k, dtype=np.uint8), half, axis=0)


def affine_permutation(seed: int, index: int, n: int) -> np.ndarray:
    """Member ``index`` of the seeded affine family on ``n = 2^k``.

    Members 0 and 1 are bit-reversal and transpose; the rest are a
    seeded invertible GF(2) matrix (rejection-sampled) plus a seeded
    offset.
    """
    k = n.bit_length() - 1
    if n != 1 << k:
        raise ValueError(f"affine permutations need n = 2^k, got {n}")
    if index == 0:
        return affine_map(bit_reversal_matrix(k), 0)
    if index == 1:
        return affine_map(transpose_matrix(k), 0)
    rng = _rng(seed, _AFFINE, index)
    while True:
        matrix = rng.integers(0, 2, size=(k, k), dtype=np.uint8)
        if gf2_rank(matrix) == k:
            break
    return affine_map(matrix, int(rng.integers(0, n)))


def random_permutation(seed: int, index: int, n: int) -> np.ndarray:
    return _rng(seed, _RANDOM, index).permutation(n).astype(np.int64)


def payload(seed: int, index: int, n: int) -> np.ndarray:
    return _rng(seed, _PAYLOAD, index).standard_normal(n)


def payload_pool(seed: int, size: int, n: int) -> list[np.ndarray]:
    return [payload(seed, i, n) for i in range(size)]


def reference(p: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The definitional scatter ``out[p[i]] = a[i]``."""
    out = np.empty_like(a)
    out[p] = a
    return out


def same_bits(got: object, expected: np.ndarray) -> bool:
    """Bit-for-bit equality (shape, dtype and every byte)."""
    arr = np.asarray(got)
    if arr.shape != expected.shape or arr.dtype != expected.dtype:
        return False
    size = expected.dtype.itemsize
    # Compare as unsigned integers of the same width, so the test is
    # bitwise: -0.0 differs from 0.0 and a NaN equals itself.
    as_bits = np.dtype(f"u{size}") if size in (1, 2, 4, 8) else np.uint8
    return np.array_equal(arr.view(as_bits), expected.view(as_bits))
