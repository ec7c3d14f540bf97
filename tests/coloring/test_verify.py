"""Tests for the proper-colouring verifier."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.multigraph import RegularBipartiteMultigraph
from repro.coloring.verify import is_proper_edge_coloring, verify_edge_coloring
from repro.errors import ColoringError


def _k22():
    # Complete bipartite K_{2,2}: degree 2.
    return RegularBipartiteMultigraph.from_edges(
        [0, 0, 1, 1], [0, 1, 0, 1], 2, 2
    )


def test_accepts_proper():
    g = _k22()
    colors = np.array([0, 1, 1, 0])
    assert is_proper_edge_coloring(g, colors)
    verify_edge_coloring(g, colors, expect_colors=2)


def test_rejects_shared_left_node():
    g = _k22()
    colors = np.array([0, 0, 1, 1])  # node u0 sees colour 0 twice
    assert not is_proper_edge_coloring(g, colors)
    with pytest.raises(ColoringError):
        verify_edge_coloring(g, colors)


def test_rejects_shared_right_node():
    g = _k22()
    colors = np.array([0, 1, 0, 1])  # node v0 sees colour 0 twice
    assert not is_proper_edge_coloring(g, colors)


def test_rejects_too_many_colors():
    g = _k22()
    colors = np.array([0, 1, 2, 3])  # proper but uses 4 colours
    assert is_proper_edge_coloring(g, colors)
    with pytest.raises(ColoringError):
        verify_edge_coloring(g, colors, expect_colors=2)


def test_rejects_negative_color():
    g = _k22()
    assert not is_proper_edge_coloring(g, np.array([-1, 0, 0, 1]))


def test_rejects_wrong_length():
    g = _k22()
    with pytest.raises(ColoringError):
        verify_edge_coloring(g, np.array([0, 1]))


def test_empty_graph_ok():
    g = RegularBipartiteMultigraph(
        np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0, 0
    )
    verify_edge_coloring(g, np.empty(0, dtype=np.int64), expect_colors=0)


# ---------------------------------------------------------------------------
# Edge cases: degenerate sizes, non-square graphs, duplicate edges
# ---------------------------------------------------------------------------


def test_single_node_single_edge():
    # n = 1: one node per side, one edge, one colour.
    g = RegularBipartiteMultigraph.from_edges([0], [0], 1, 1)
    verify_edge_coloring(g, np.array([0]), expect_colors=1)
    assert not is_proper_edge_coloring(g, np.array([1, 0]))  # wrong len
    with pytest.raises(ColoringError):
        verify_edge_coloring(g, np.array([1]), expect_colors=1)


def test_width_one_star_of_loops():
    # w = 1 analogue: a 1-regular graph on m nodes per side is a
    # plain perfect matching; the single colour class must cover it.
    m = 5
    g = RegularBipartiteMultigraph.from_edges(
        np.arange(m), np.roll(np.arange(m), 2), m, m
    )
    verify_edge_coloring(g, np.zeros(m, dtype=np.int64), expect_colors=1)
    bad = np.zeros(m, dtype=np.int64)
    bad[3] = 1
    with pytest.raises(ColoringError):
        verify_edge_coloring(g, bad, expect_colors=1)


def test_non_square_sides():
    # A d-regular bipartite graph forces equal side sizes for d > 0,
    # so rectangular inputs (as a padded planner would produce before
    # squaring) must be rejected rather than silently mis-coloured.
    from repro.errors import NotRegularError

    with pytest.raises(NotRegularError):
        RegularBipartiteMultigraph.from_edges([0, 0, 1, 1], [0, 1, 1, 2], 2, 3)
    # Degree 0 is the only regular rectangular case.
    g = RegularBipartiteMultigraph(
        np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 2, 3
    )
    verify_edge_coloring(g, np.empty(0, dtype=np.int64), expect_colors=0)


def test_duplicate_edge_multigraph():
    # Two parallel edges between the same node pair (a fixed point of
    # the permutation routed twice) MUST get distinct colours.
    g = RegularBipartiteMultigraph.from_edges(
        [0, 0, 1, 1], [1, 1, 0, 0], 2, 2
    )
    verify_edge_coloring(g, np.array([0, 1, 0, 1]), expect_colors=2)
    with pytest.raises(ColoringError):
        verify_edge_coloring(g, np.array([0, 0, 1, 1]), expect_colors=2)


def test_all_parallel_edges():
    # Degree-3 dipole: three parallel edges need three distinct colours.
    g = RegularBipartiteMultigraph.from_edges([0, 0, 0], [0, 0, 0], 1, 1)
    verify_edge_coloring(g, np.array([0, 1, 2]), expect_colors=3)
    assert not is_proper_edge_coloring(g, np.array([0, 1, 1]))


def test_decomposition_verify_coloring_edge_cases():
    # The new ThreeStepDecomposition.verify_coloring must accept every
    # legal decomposition, including the degenerate n = 1 matrix.
    from repro.core.scheduler import decompose

    for n in (1, 16):
        p = np.arange(n)[::-1].copy()
        d = decompose(p)
        d.verify_coloring(p)

    from repro.errors import SchedulingError

    d = decompose(np.arange(16))
    with pytest.raises(SchedulingError):
        d.verify_coloring(np.arange(4))  # wrong length


# ---------------------------------------------------------------------------
# The counting check agrees with the sort-based check it replaced
# ---------------------------------------------------------------------------


def _sort_verdict(graph, colors, expect_colors):
    """The previous check: ``np.unique`` for the colour range, then a
    sort + adjacent compare of ``node * D + colour`` per side.  Returns
    ``None`` for a valid colouring, else the error it raised."""
    colors = np.asarray(colors, dtype=np.int64)
    if colors.shape != (graph.num_edges,):
        return "shape"
    if graph.num_edges == 0:
        return None
    if colors.min() < 0:
        return "negative colour found"
    used = np.unique(colors)
    if expect_colors is not None and (
        used.shape[0] > expect_colors or colors.max() >= expect_colors
    ):
        return (f"colouring uses colours {used.min()}..{colors.max()} "
                f"({used.shape[0]} distinct), expected at most "
                f"{expect_colors}")
    num_colors = int(colors.max()) + 1
    for nodes in (graph.left, graph.right):
        pair = np.sort(nodes * np.int64(num_colors) + colors)
        if np.any(pair[1:] == pair[:-1]):
            return "colouring is not proper: a node sees a colour twice"
    return None


def _count_verdict(graph, colors, expect_colors):
    try:
        verify_edge_coloring(graph, colors, expect_colors=expect_colors)
    except ColoringError as exc:
        return str(exc)
    return None


_MUTATIONS = ("none", "one-edge", "negative", "out-of-range", "huge")


@settings(max_examples=60, deadline=None)
@given(nodes=st.integers(1, 12), log_degree=st.integers(0, 4),
       mutation=st.sampled_from(_MUTATIONS), expect=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_counting_check_agrees_with_sort_check(
    nodes, log_degree, mutation, expect, seed
):
    from repro.coloring import euler_split_coloring

    rng = np.random.default_rng(seed)
    degree = 1 << log_degree
    left = np.repeat(np.arange(nodes), degree)
    right = np.concatenate(
        [rng.permutation(nodes) for _ in range(degree)]
    )
    graph = RegularBipartiteMultigraph.from_edges(left, right, nodes, nodes)
    colors = euler_split_coloring(graph)
    edge = int(rng.integers(graph.num_edges))
    if mutation == "one-edge":
        colors[edge] = (colors[edge] + 1 + int(rng.integers(degree))) % (
            degree + 1)
    elif mutation == "negative":
        colors[edge] = -1 - int(rng.integers(5))
    elif mutation == "out-of-range":
        colors[edge] = degree + int(rng.integers(3))
    elif mutation == "huge":
        colors[edge] = 1 << 40
    expect_colors = degree if expect else None
    verdict = _count_verdict(graph, colors, expect_colors)
    assert verdict == _sort_verdict(graph, colors, expect_colors)
    assert is_proper_edge_coloring(graph, colors) == (
        _sort_verdict(graph, colors, None) is None
    )
    if mutation == "none":
        assert verdict is None
