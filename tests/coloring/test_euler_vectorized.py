"""Tests for the level-synchronous Euler colouring and its split kernel.

Any balanced split is valid, so the kernel is pinned by its invariant:
each half is exactly ``degree/2``-regular on every node.  The colouring
is pinned by the shared proper-colouring checker on every graph shape
the planner builds, and by determinism.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.euler import _split, _split_edges, euler_split_coloring
from repro.coloring.hybrid import hybrid_coloring
from repro.coloring.multigraph import RegularBipartiteMultigraph
from repro.coloring.verify import verify_edge_coloring
from repro.permutations.named import random_permutation


def _random_regular(nodes, degree, seed):
    rng = np.random.default_rng(seed)
    left = np.tile(np.arange(nodes, dtype=np.int64), degree)
    right = np.concatenate(
        [rng.permutation(nodes).astype(np.int64) for _ in range(degree)]
    )
    return left, right, nodes


def _doubled_regular(nodes, degree, seed):
    """A degree-``degree`` multigraph in which every edge has a parallel
    twin (``degree // 2`` random matchings, each taken twice)."""
    left, right, n = _random_regular(nodes, max(degree // 2, 1), seed)
    if degree == 1:
        return left, right, n
    return np.concatenate([left, left]), np.concatenate([right, right]), n


def _row_multigraph(degree, seed):
    """The planner's global graph: source row -> destination row of a
    random ``degree**2`` permutation."""
    n = degree * degree
    p = random_permutation(n, seed=seed)
    i = np.arange(n, dtype=np.int64)
    return i // degree, p // degree, degree


def _bank_multigraph(degree, width, rows, seed):
    """The planner's stacked per-row graph: row ``j``'s source and
    destination banks at node offset ``j * width``."""
    m = degree * width
    rng = np.random.default_rng(seed)
    gamma = np.stack([rng.permutation(m) for _ in range(rows)])
    offset = (np.arange(rows, dtype=np.int64) * width)[:, None]
    cols = np.arange(m, dtype=np.int64)
    left = (offset + (cols % width)[None, :]).reshape(-1)
    right = (offset + gamma % width).reshape(-1)
    return left, right, rows * width


def _assert_balanced(left, right, nodes, degree, half):
    for take in (half, ~half):
        assert np.all(np.bincount(left[take], minlength=nodes) == degree // 2)
        assert np.all(np.bincount(right[take], minlength=nodes) == degree // 2)


class TestSplitKernel:
    def test_balanced_on_random_regular(self):
        for nodes, degree, seed in ((10, 4, 0), (64, 8, 1), (3, 2, 2)):
            left, right, n = _random_regular(nodes, degree, seed)
            _assert_balanced(left, right, n, degree,
                             _split_edges(left, right, n))

    def test_parallel_edges(self):
        left = np.array([0, 0, 1, 1], dtype=np.int64)
        right = np.array([0, 0, 1, 1], dtype=np.int64)
        _assert_balanced(left, right, 2, 2, _split_edges(left, right, 2))

    def test_two_cycle(self):
        # A single pair of parallel edges: one per half.
        left = np.zeros(2, dtype=np.int64)
        right = np.zeros(2, dtype=np.int64)
        assert _split_edges(left, right, 1).sum() == 1

    def test_long_cycle_halves_are_perfect_matchings(self):
        """One 2-regular cycle through 16+16 nodes: the two halves
        alternate along it, so each is a perfect matching."""
        nodes = 16
        perm1 = np.arange(nodes, dtype=np.int64)
        perm2 = np.roll(perm1, 1)
        left = np.concatenate([perm1, perm1])
        right = np.concatenate([perm1, perm2])
        half = _split_edges(left, right, nodes)
        _assert_balanced(left, right, nodes, 2, half)
        for take in (half, ~half):
            assert np.array_equal(np.sort(left[take]), np.arange(nodes))
            assert np.array_equal(np.sort(right[take]), np.arange(nodes))

    def test_left_and_right_views_agree(self):
        """The kernel reports the split twice, per node copy of the left
        and of the right incidence order; both must describe the same
        balanced split."""
        left, right, n = _random_regular(32, 8, seed=5)
        orders = np.stack([np.argsort(left, kind="stable"),
                           np.argsort(right, kind="stable")])
        halves = []
        for order, first in zip(orders, _split(orders)):
            half = np.empty(left.shape[0], dtype=bool)
            half[order[0::2]] = first
            half[order[1::2]] = ~first
            halves.append(half)
        assert np.array_equal(halves[0], halves[1])
        _assert_balanced(left, right, n, 8, halves[0])

    def test_empty(self):
        empty = np.empty(0, dtype=np.int64)
        assert _split_edges(empty, empty, 0).size == 0

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(min_value=1, max_value=12),
        st.sampled_from([2, 4, 6, 8]),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_property_balance(self, nodes, degree, seed):
        left, right, n = _random_regular(nodes, degree, seed)
        _assert_balanced(left, right, n, degree, _split_edges(left, right, n))


_SHAPES = ("random", "parallel", "row", "bank")


def _graph(shape, degree, seed, nodes, width, rows):
    if shape == "random":
        left, right, n = _random_regular(nodes, degree, seed)
    elif shape == "parallel":
        left, right, n = _doubled_regular(nodes, degree, seed)
    elif shape == "row":
        left, right, n = _row_multigraph(degree, seed)
    else:
        left, right, n = _bank_multigraph(degree, width, rows, seed)
    return RegularBipartiteMultigraph(left, right, n, n)


class TestLevelSynchronousColoring:
    @settings(deadline=None, max_examples=60)
    @given(
        st.sampled_from(_SHAPES),
        st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=6),
        st.sampled_from([1, 2, 4, 8]),
        st.integers(min_value=1, max_value=4),
    )
    def test_property_proper_coloring(self, shape, degree, seed, nodes,
                                      width, rows):
        graph = _graph(shape, degree, seed, nodes, width, rows)
        assert graph.degree == degree
        colors = euler_split_coloring(graph)
        verify_edge_coloring(graph, colors, expect_colors=degree)

    @pytest.mark.parametrize("shape", _SHAPES)
    def test_deterministic(self, shape):
        graph = _graph(shape, 32, seed=11, nodes=5, width=4, rows=3)
        twin = RegularBipartiteMultigraph(
            graph.left.copy(), graph.right.copy(),
            graph.num_left, graph.num_right,
        )
        first = euler_split_coloring(graph)
        assert np.array_equal(first, euler_split_coloring(graph))
        assert np.array_equal(first, euler_split_coloring(twin))

    def test_class_blocks_are_perfect_matchings(self):
        """Every colour class of the stacked bank graph is a perfect
        matching of the whole node set."""
        left, right, n = _bank_multigraph(16, 4, rows=8, seed=3)
        graph = RegularBipartiteMultigraph(left, right, n, n)
        colors = euler_split_coloring(graph)
        for c in range(16):
            mask = colors == c
            assert np.array_equal(np.sort(left[mask]), np.arange(n))
            assert np.array_equal(np.sort(right[mask]), np.arange(n))


@pytest.mark.parametrize("degree", [6, 12, 48])
def test_hybrid_splits_even_levels_with_the_kernel(degree):
    """The hybrid backend Euler-splits its even levels with the same
    kernel; degrees with odd factors must still colour properly, also
    with parallel edges."""
    for left, right, n in (_random_regular(8, degree, seed=degree),
                           _doubled_regular(4, degree, seed=degree)):
        graph = RegularBipartiteMultigraph(left, right, n, n)
        verify_edge_coloring(graph, hybrid_coloring(graph),
                             expect_colors=degree)
