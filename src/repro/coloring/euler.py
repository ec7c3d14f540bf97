"""Edge colouring by level-synchronous Euler splitting.

A regular bipartite multigraph in which every node has even degree can
be split into two regular sub-multigraphs of half the degree: walk its
closed trails and alternate — edges traversed left-to-right go to one
half, right-to-left to the other.  Every visit through a node consumes
one incoming and one outgoing edge, so the split is exactly balanced at
every node.  Splitting ``log2(D)`` times colours a degree-``D = 2**k``
multigraph with ``D`` colours — the constructive core of König's
theorem for the power-of-two sizes the paper uses (``sqrt(n)`` and
``sqrt(n)/w`` are powers of two throughout Section VIII).

No trail is walked edge by edge.  The split kernel pairs consecutive
incidences of every node (in node-sorted order) into two-edge node
*copies*; the copy graph is 2-regular, each of its even cycles
alternates between the halves, and ``tau = sigma ∘ pi`` (``sigma`` /
``pi`` = the other edge at an edge's left / right copy) steps two
places along a cycle, so the halves are the ``tau``-orbits.  The orbits
are labelled in linear time by
:func:`scipy.sparse.csgraph.connected_components` on the functional
graph ``e -> tau[e]``.

The colouring is level-synchronous.  At level ``k`` every colour class
is a ``D/2**k``-regular graph with exactly ``E/2**k`` edges, and one
kernel call splits their disjoint union, whose node ids are ``class *
num_nodes + node``.  The left and right incidence orders list the edges
sorted by that id.  They are sorted once, at the start.  Every node
copy holds one edge of each half, so after a split a per-pair select
and a reshape stably partition every equal-size class block and keep
the orders sorted: no later level sorts.  After ``log2(D)`` levels
block ``c`` of the left order is colour class ``c``.  Cost: one sort
(a radix sort on 16-bit node ids), then ``O(E)`` NumPy/C work per
level.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro import telemetry
from repro.coloring.multigraph import RegularBipartiteMultigraph
from repro.errors import ColoringError
from repro.util.arrays import smallest_index_dtype
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
    return _split_edges(graph.left, graph.right, graph.num_left)


def _incidence_orders(
    left: np.ndarray, right: np.ndarray, num_nodes: int
) -> np.ndarray:
    """The ``(2, E)`` array of edge ids sorted stably by left node (row
    0) and by right node (row 1).  Node ids are narrowed to the
    smallest dtype first: NumPy radix-sorts 8- and 16-bit keys."""
    dtype = smallest_index_dtype(max(num_nodes - 1, 0))
    return np.stack([
        np.argsort(nodes.astype(dtype), kind="stable")
        for nodes in (left, right)
    ])


def _split_edges(
    left: np.ndarray, right: np.ndarray, num_nodes: int
) -> np.ndarray:
    """Balanced split of the edges ``left[e] -> right[e]`` by edge id;
    both sides have ``num_nodes`` nodes, each of even degree."""
    half = np.zeros(left.shape[0], dtype=bool)
    if left.shape[0]:
        orders = _incidence_orders(left, right, num_nodes)
        first = _split(orders)[0]
        half[orders[0, 0::2]] = first
        half[orders[0, 1::2]] = ~first
    return half


def _csr_rows(num_edges: int) -> tuple[np.ndarray, np.ndarray]:
    """The unit entries and the row pointer ``arange(E + 1)`` of a
    one-entry-per-row CSR matrix over ``E`` edges, shared by every
    split of one colouring.  Positions are int32 while ``E`` fits:
    SciPy narrows CSR indices to int32 then, and takes int32 inputs
    without a copy."""
    dtype = np.int32 if num_edges < np.iinfo(np.int32).max else np.int64
    return np.ones(num_edges), np.arange(num_edges + 1, dtype=dtype)


def _split(
    orders: np.ndarray,
    rows: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """The split kernel.

    Rows 0 and 1 of ``orders`` list every edge id once, grouped by left
    and by right node, each group of even size — so positions ``2i``
    and ``2i + 1`` of a row always hold two edges of one node (a node
    copy), one in each half.  Returns the ``(2, E/2)`` array saying, per
    row, whether the edge at position ``2i`` is in the first half.

    Edges are named by their position in the left order: there
    ``sigma`` is ``q -> q ^ 1`` and every class block is contiguous, so
    the orbit labelling walks cache-sized blocks once the classes are
    small.
    """
    lorder, rorder = orders
    num_edges = lorder.shape[0]
    ones, indptr = rows if rows is not None else _csr_rows(num_edges)
    lpos = np.empty(num_edges, dtype=indptr.dtype)
    lpos[lorder] = indptr[:-1]
    # Right copies as position pairs (a[j], b[j]): pi swaps them.
    a = lpos[rorder[0::2]]
    b = lpos[rorder[1::2]]
    tau = np.empty_like(lpos)
    tau[a] = b ^ 1
    tau[b] = a ^ 1
    # Row q of the functional graph holds the single entry tau[q]; its
    # components are the tau-orbits.  sigma and pi both map an orbit
    # onto its partner (the other half of the same cycle).
    functional = csr_matrix(
        (ones, tau, indptr),
        shape=(num_edges, num_edges),
    )
    _, labels = connected_components(functional, connection="weak")
    return np.stack([labels[0::2] < labels[1::2], labels[a] < labels[b]])


def _partition(orders: np.ndarray, first: np.ndarray,
               blocks: int) -> np.ndarray:
    """Stable partition of each of ``blocks`` equal-size blocks of both
    rows of ``orders`` into its first-half edges, then the rest; block
    ``c`` becomes blocks ``2c`` and ``2c + 1``.  Each pair ``2i, 2i + 1``
    holds one edge of each half, ``first[:, i]`` saying which."""
    even = orders[:, 0::2]
    odd = orders[:, 1::2]
    return np.concatenate([
        np.where(first, even, odd).reshape(2, blocks, -1),
        np.where(first, odd, even).reshape(2, blocks, -1),
    ], axis=2).reshape(2, -1)


def euler_split_coloring(graph: RegularBipartiteMultigraph) -> np.ndarray:
    """Colour a power-of-two-degree regular bipartite multigraph.

    Euler-splits every colour class level by level until degree 1 (a
    perfect matching, one colour).  Colours are integers in ``[0,
    degree)``; edges in the ``True`` half of a split get the lower
    colour range.  The same input always gets the same colours.  Raises
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
        orders = _incidence_orders(graph.left, graph.right, graph.num_left)
        rows = _csr_rows(graph.num_edges)
        classes = 1
        while classes < graph.degree:
            orders = _partition(orders, _split(orders, rows), classes)
            classes *= 2
        # Block c of the left order now holds exactly the edges of
        # colour c.
        colors = np.empty(graph.num_edges, dtype=np.int64)
        colors[orders[0]] = np.repeat(
            np.arange(graph.degree, dtype=np.int64),
            graph.num_edges // graph.degree,
        )
        telemetry.count("coloring_euler_calls_total")
        telemetry.count("coloring_edges_colored_total", graph.num_edges)
        return colors
