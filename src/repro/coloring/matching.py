"""Edge colouring by repeated perfect-matching extraction.

König's theorem is constructive through Hall's theorem: a ``D``-regular
bipartite multigraph always contains a perfect matching; remove it and
the remainder is ``(D-1)``-regular, so ``D`` rounds of matching yield a
proper ``D``-edge-colouring.  This works for *any* degree (the
Euler-split backend needs powers of two) at the cost of a matching
computation per colour.

Two matching engines are provided:

* :func:`scipy.sparse.csgraph.maximum_bipartite_matching` — the fast C
  path used by :func:`matching_coloring`;
* :func:`hopcroft_karp_matching` — a dependency-free pure-Python
  Hopcroft–Karp used by :func:`hopcroft_karp_coloring` and as an
  independent cross-check in the test suite.

Multiplicities are handled via *edge buckets*: parallel edges share a
``(u, v)`` pair; each extracted matching consumes one edge instance per
matched pair.
"""

from __future__ import annotations

from collections import deque

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from repro import telemetry
from repro.coloring.multigraph import RegularBipartiteMultigraph
from repro.errors import ColoringError

_INF = float("inf")

#: Fault-injection hook (see :mod:`repro.resilience.faults`).  ``None``
#: in production; when set it is called as ``_fault_hook("matching",
#: graph)`` before each colouring and may raise.
_fault_hook = None


# ---------------------------------------------------------------------------
# Pure-Python Hopcroft-Karp
# ---------------------------------------------------------------------------


def hopcroft_karp_matching(
    adjacency: list[list[int]], num_right: int
) -> np.ndarray:
    """Maximum bipartite matching via Hopcroft–Karp.

    ``adjacency[u]`` lists the right-side neighbours of left node ``u``.
    Returns ``match[u]`` = matched right node or ``-1``.  Runs in
    ``O(E sqrt(V))``.
    """
    num_left = len(adjacency)
    match_left = [-1] * num_left
    match_right = [-1] * num_right
    dist = [0.0] * num_left

    def bfs() -> bool:
        queue: deque[int] = deque()
        for u in range(num_left):
            if match_left[u] == -1:
                dist[u] = 0.0
                queue.append(u)
            else:
                dist[u] = _INF
        found = False
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                w = match_right[v]
                if w == -1:
                    found = True
                elif dist[w] == _INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u: int) -> bool:
        for v in adjacency[u]:
            w = match_right[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                match_left[u] = v
                match_right[v] = u
                return True
        dist[u] = _INF
        return False

    while bfs():
        for u in range(num_left):
            if match_left[u] == -1:
                dfs(u)
    return np.asarray(match_left, dtype=np.int64)


# ---------------------------------------------------------------------------
# Colouring by repeated matching
# ---------------------------------------------------------------------------


def _coloring_by_matchings(
    graph: RegularBipartiteMultigraph, matcher
) -> np.ndarray:
    """Shared driver: extract ``degree`` perfect matchings.

    ``matcher(rows, cols, L, R)`` receives the currently-present
    ``(u, v)`` pairs and must return ``match[u]`` = matched ``v`` (or
    ``-1``) with every left node matched.
    """
    if _fault_hook is not None:
        _fault_hook("matching", graph)
    if graph.num_edges == 0:
        return np.empty(0, dtype=np.int64)
    if graph.num_left != graph.num_right:
        raise ColoringError(
            "perfect-matching colouring needs equal sides, got "
            f"{graph.num_left} != {graph.num_right}"
        )
    with telemetry.span("coloring.matching", edges=graph.num_edges,
                        degree=graph.degree):
        return _extract_matchings(graph, matcher)


def _extract_matchings(
    graph: RegularBipartiteMultigraph, matcher
) -> np.ndarray:
    order, starts, keys = graph.edge_buckets()
    remaining = np.diff(starts).astype(np.int64)  # multiplicity per bucket
    next_slot = starts[:-1].copy()
    rows_all = (keys // max(graph.num_right, 1)).astype(np.int64)
    cols_all = (keys % max(graph.num_right, 1)).astype(np.int64)
    colors = np.full(graph.num_edges, -1, dtype=np.int64)

    for color in range(graph.degree):
        present = remaining > 0
        rows = rows_all[present]
        cols = cols_all[present]
        match = matcher(rows, cols, graph.num_left, graph.num_right)
        if match.shape[0] != graph.num_left or np.any(match < 0):
            raise ColoringError(
                f"no perfect matching found at colour {color}; "
                "the multigraph is not regular"
            )
        # Locate the bucket of each matched pair and hand out one edge
        # instance from it.
        matched_keys = (
            np.arange(graph.num_left, dtype=np.int64)
            * np.int64(max(graph.num_right, 1))
            + match
        )
        bucket = np.searchsorted(keys, matched_keys)
        if np.any(bucket >= keys.shape[0]) or np.any(
            keys[np.minimum(bucket, keys.shape[0] - 1)] != matched_keys
        ):
            raise ColoringError("matching used a non-existent edge")
        if np.any(remaining[bucket] <= 0):
            raise ColoringError("matching reused an exhausted parallel edge")
        colors[order[next_slot[bucket]]] = color
        next_slot[bucket] += 1
        remaining[bucket] -= 1
        telemetry.count("coloring_matchings_extracted_total")

    if np.any(colors < 0):  # pragma: no cover - guarded by regularity
        raise ColoringError("some edges were never coloured")
    telemetry.count("coloring_matching_calls_total")
    telemetry.count("coloring_edges_colored_total", graph.num_edges)
    return colors


def _scipy_matcher(
    rows: np.ndarray, cols: np.ndarray, num_left: int, num_right: int
) -> np.ndarray:
    data = np.ones(rows.shape[0], dtype=np.int8)
    graph = csr_matrix((data, (rows, cols)), shape=(num_left, num_right))
    return maximum_bipartite_matching(graph, perm_type="column").astype(np.int64)


def _hk_matcher(
    rows: np.ndarray, cols: np.ndarray, num_left: int, num_right: int
) -> np.ndarray:
    adjacency: list[list[int]] = [[] for _ in range(num_left)]
    for u, v in zip(rows.tolist(), cols.tolist()):
        adjacency[u].append(v)
    return hopcroft_karp_matching(adjacency, num_right)


def matching_coloring(graph: RegularBipartiteMultigraph) -> np.ndarray:
    """König edge colouring via scipy's Hopcroft–Karp (any degree)."""
    return _coloring_by_matchings(graph, _scipy_matcher)


def hopcroft_karp_coloring(graph: RegularBipartiteMultigraph) -> np.ndarray:
    """König edge colouring via the pure-Python Hopcroft–Karp."""
    return _coloring_by_matchings(graph, _hk_matcher)
