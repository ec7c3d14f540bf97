"""Hybrid edge colouring: Euler splits + matching extraction.

The Euler-split backend needs a power-of-two degree; the matching
backend pays one Hopcroft–Karp per colour.  The hybrid takes the best
of both for *any* degree:

* **even** degree: one Euler split (the kernel of
  :mod:`repro.coloring.euler`), recurse on both halves — no matching
  needed;
* **odd** degree: extract a single perfect matching (one colour
  class), leaving an even-degree multigraph.

A degree-``D`` graph therefore needs at most ``popcount``-ish many
matchings (one per odd level, ≤ log₂ D), against ``D`` for the pure
matching backend — e.g. degree 48 = 2⁴·3 costs exactly one matching.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from repro.coloring.euler import _split_edges
from repro.coloring.multigraph import RegularBipartiteMultigraph
from repro.errors import ColoringError


def _extract_matching_edges(
    left: np.ndarray, right: np.ndarray, num_left: int, num_right: int
) -> np.ndarray:
    """Return one edge index per left node forming a perfect matching.

    Parallel edges collapse for the matching itself; the returned
    indices pick one concrete instance per matched pair.
    """
    data = np.ones(left.shape[0], dtype=np.int8)
    graph = csr_matrix(
        (data, (left, right)), shape=(num_left, num_right)
    )
    match = maximum_bipartite_matching(graph, perm_type="column")
    if np.any(match < 0):
        raise ColoringError(
            "no perfect matching found; the multigraph is not regular"
        )
    # First edge instance of each (u, match[u]) pair.
    key = left * np.int64(max(num_right, 1)) + right
    wanted = (
        np.arange(num_left, dtype=np.int64)
        * np.int64(max(num_right, 1))
        + match
    )
    order = np.argsort(key, kind="stable")
    pos = np.searchsorted(key[order], wanted)
    chosen = order[pos]
    if not np.array_equal(key[chosen], wanted):  # pragma: no cover
        raise ColoringError("matching produced a non-existent edge")
    return chosen


def hybrid_coloring(graph: RegularBipartiteMultigraph) -> np.ndarray:
    """König colouring of any regular bipartite multigraph.

    Colours are ``0 .. degree-1``; verified proper by the shared
    checker in tests.
    """
    num_edges = graph.num_edges
    if num_edges == 0:
        return np.empty(0, dtype=np.int64)
    if graph.num_left != graph.num_right:
        raise ColoringError(
            "hybrid colouring needs equal sides, got "
            f"{graph.num_left} != {graph.num_right}"
        )
    colors = np.full(num_edges, -1, dtype=np.int64)

    def go(
        left: np.ndarray,
        right: np.ndarray,
        ids: np.ndarray,
        degree: int,
        base: int,
    ) -> None:
        if degree == 0:
            return
        if degree == 1:
            colors[ids] = base
            return
        if degree % 2 == 1:
            matched = _extract_matching_edges(
                left, right, graph.num_left, graph.num_right
            )
            colors[ids[matched]] = base
            keep = np.ones(left.shape[0], dtype=bool)
            keep[matched] = False
            go(left[keep], right[keep], ids[keep], degree - 1, base + 1)
            return
        half = _split_edges(left, right, graph.num_left)
        go(left[half], right[half], ids[half], degree // 2, base)
        go(
            left[~half], right[~half], ids[~half],
            degree // 2, base + degree // 2,
        )

    go(
        graph.left,
        graph.right,
        np.arange(num_edges, dtype=np.int64),
        graph.degree,
        0,
    )
    if np.any(colors < 0):  # pragma: no cover - regularity guards this
        raise ColoringError("some edges were never coloured")
    return colors
