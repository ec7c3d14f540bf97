"""Edge colouring by recursive Euler splitting.

A regular bipartite multigraph in which every node has even degree can
be split into two regular sub-multigraphs of half the degree: walk the
edges of each connected component in closed trails and alternate —
edges traversed left-to-right go to one half, right-to-left to the
other.  Every visit through a node consumes one incoming and one
outgoing edge, so the split is exactly balanced at every node.

Recursing ``log2(D)`` times colours a degree-``D = 2**k`` multigraph
with ``D`` colours in ``O(E log D)`` total time — the constructive core
of König's theorem for the power-of-two sizes the paper uses
(``sqrt(n)`` and ``sqrt(n)/w`` are powers of two throughout Section
VIII).

The trail walk is implemented iteratively over flat NumPy-backed CSR
adjacency arrays; the only Python-level loop is the walk itself, which
touches each edge exactly once per level.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.coloring.multigraph import RegularBipartiteMultigraph
from repro.errors import ColoringError
from repro.util.validation import is_power_of_two

#: Fault-injection hook (see :mod:`repro.resilience.faults`).  ``None``
#: in production — the only cost on the happy path is this None check.
#: When set (by an active ``FaultPlan``), it is called as
#: ``_fault_hook("euler", graph)`` before colouring and may raise.
_fault_hook = None


def euler_split(graph: RegularBipartiteMultigraph) -> np.ndarray:
    """Split an even-degree regular bipartite multigraph into two halves.

    Returns a boolean array of length ``num_edges``; ``True`` marks the
    edges of the first half.  Both halves are ``degree/2``-regular.
    """
    if graph.degree % 2 != 0:
        raise ColoringError(
            f"Euler split requires an even degree, got {graph.degree}"
        )
    return _euler_split_arrays(
        graph.left, graph.right, graph.num_left, graph.num_right
    )


#: Edge-count threshold above which the vectorised split is used; the
#: Python trail walk has lower constants on tiny graphs.
_VECTORIZE_THRESHOLD = 2048


def _euler_split_arrays(
    left: np.ndarray, right: np.ndarray, num_left: int, num_right: int
) -> np.ndarray:
    """Euler split over raw edge arrays (dispatcher).

    Two implementations produce (possibly different, both valid)
    balanced splits: a pure-Python trail walk (reference; lower
    overhead on small graphs) and a fully vectorised construction
    (NumPy pointer doubling; ~10x faster on the planner's graph sizes).
    Property tests check both against the balance invariant.
    """
    if left.shape[0] >= _VECTORIZE_THRESHOLD:
        return _euler_split_vectorized(left, right, num_left, num_right)
    return _euler_split_walk(left, right, num_left, num_right)


def _euler_split_vectorized(
    left: np.ndarray, right: np.ndarray, num_left: int, num_right: int
) -> np.ndarray:
    """Vectorised Euler split by node-splitting + pointer doubling.

    1. Pair the incident edges of every node arbitrarily (consecutive
       slots of the sorted incidence list).  Each pair is a *copy* of
       the node with exactly two incident edges, so the derived
       multigraph is 2-regular and its components are even cycles.
    2. On a 2-regular bipartite multigraph, define the involutions
       ``sigma(e)`` / ``pi(e)`` = the other edge at ``e``'s left /
       right copy.  The permutation ``tau = sigma ∘ pi`` steps two
       positions along a cycle, so its orbits are exactly the two
       direction classes of each cycle — the two halves of the split.
    3. Label orbits with their minimum edge id by pointer doubling
       (O(E log E), all NumPy) and take, from each partner pair of
       orbits, the one with the smaller label.

    Every node copy contributes one edge to each half, hence every
    original node exactly ``degree/2`` — the split is balanced.
    """
    num_edges = left.shape[0]
    # Incidences: entry e is edge e at its left endpoint, entry
    # e + num_edges is edge e at its right endpoint (offset node ids).
    endpoints = np.concatenate([left, right + num_left])
    order = np.argsort(endpoints, kind="stable")
    # Degrees are even, so node boundaries in ``order`` fall on even
    # positions and consecutive pairs never straddle nodes.
    partner = np.empty(2 * num_edges, dtype=np.int64)
    partner[order[0::2]] = order[1::2]
    partner[order[1::2]] = order[0::2]

    sigma = partner[:num_edges]                      # other edge at left copy
    pi = partner[num_edges:] - num_edges             # other edge at right copy
    tau = sigma[pi]

    # Min-label propagation along tau-orbits by pointer doubling.
    labels = np.arange(num_edges, dtype=np.int64)
    hop = tau
    steps = max(1, int(num_edges).bit_length())
    for _ in range(steps):
        labels = np.minimum(labels, labels[hop])
        hop = hop[hop]

    # Partner orbit of an orbit: where pi sends any of its edges.
    partner_label = np.empty(num_edges, dtype=np.int64)
    partner_label[labels] = labels[pi]
    return labels < partner_label[labels]


def _euler_split_walk(
    left: np.ndarray, right: np.ndarray, num_left: int, num_right: int
) -> np.ndarray:
    """Core trail-walking split over raw edge arrays.

    Node ids are unified: left nodes keep their ids, right nodes are
    offset by ``num_left``.  For each node we build a CSR list of
    incident edge ids, then repeatedly walk closed trails from every
    node, marking edge direction as we go.
    """
    num_edges = left.shape[0]
    half = np.zeros(num_edges, dtype=bool)
    if num_edges == 0:
        return half

    num_nodes = num_left + num_right
    endpoints = np.concatenate([left, right + num_left])
    edge_ids = np.concatenate(
        [np.arange(num_edges, dtype=np.int64)] * 2
    )
    order = np.argsort(endpoints, kind="stable")
    incident = edge_ids[order]
    degree = np.bincount(endpoints, minlength=num_nodes)
    ptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degree, out=ptr[1:])

    cursor = ptr[:-1].copy()        # next incidence slot to try, per node
    end = ptr[1:]
    used = np.zeros(num_edges, dtype=bool)

    # Localise for the hot loop.
    incident_l = incident.tolist()
    cursor_l = cursor.tolist()
    end_l = end.tolist()
    left_l = left.tolist()
    right_l = (right + num_left).tolist()
    used_l = used.tolist()
    half_l = half.tolist()

    for start in range(num_nodes):
        while True:
            # Advance the cursor of the start node past used edges.
            c = cursor_l[start]
            e = end_l[start]
            while c < e and used_l[incident_l[c]]:
                c += 1
            cursor_l[start] = c
            if c >= e:
                break  # start node exhausted
            node = start
            # Walk a closed trail; it must return to ``start`` because
            # every other node keeps even unused degree during the walk.
            while True:
                c = cursor_l[node]
                e = end_l[node]
                while c < e and used_l[incident_l[c]]:
                    c += 1
                cursor_l[node] = c
                if c >= e:
                    break  # trail closed (node == start here)
                edge = incident_l[c]
                cursor_l[node] = c + 1
                used_l[edge] = True
                if node == left_l[edge]:
                    # Traversed left -> right: first half.
                    half_l[edge] = True
                    node = right_l[edge]
                else:
                    node = left_l[edge]

    return np.asarray(half_l, dtype=bool)


def euler_split_coloring(graph: RegularBipartiteMultigraph) -> np.ndarray:
    """Colour a power-of-two-degree regular bipartite multigraph.

    Recursively Euler-splits until degree 1 (a perfect matching, one
    colour).  Colours are integers in ``[0, degree)``; edges in the
    ``True`` half of a split get the lower colour range.  Raises
    :class:`~repro.errors.ColoringError` when the degree is not a power
    of two (use :func:`repro.coloring.matching_coloring` instead).
    """
    with telemetry.span("coloring.euler", edges=graph.num_edges,
                        degree=graph.degree):
        if _fault_hook is not None:
            _fault_hook("euler", graph)
        if graph.num_edges == 0:
            return np.empty(0, dtype=np.int64)
        if not is_power_of_two(graph.degree):
            raise ColoringError(
                "Euler-split colouring requires a power-of-two degree, got "
                f"{graph.degree}; use the 'matching' backend for general "
                "degrees"
            )
        colors = np.zeros(graph.num_edges, dtype=np.int64)
        _color_recursive(
            graph.left,
            graph.right,
            graph.num_left,
            graph.num_right,
            graph.degree,
            np.arange(graph.num_edges, dtype=np.int64),
            colors,
            base=0,
        )
        telemetry.count("coloring_euler_calls_total")
        telemetry.count("coloring_edges_colored_total", graph.num_edges)
        return colors


def _color_recursive(
    left: np.ndarray,
    right: np.ndarray,
    num_left: int,
    num_right: int,
    degree: int,
    edge_ids: np.ndarray,
    colors: np.ndarray,
    base: int,
) -> None:
    """Assign colours ``base .. base + degree - 1`` to ``edge_ids``."""
    if degree == 1:
        colors[edge_ids] = base
        return
    half = _euler_split_arrays(left, right, num_left, num_right)
    for take, offset in ((half, 0), (~half, degree // 2)):
        _color_recursive(
            left[take],
            right[take],
            num_left,
            num_right,
            degree // 2,
            edge_ids[take],
            colors,
            base + offset,
        )
