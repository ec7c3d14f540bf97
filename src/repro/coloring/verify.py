"""Verification of edge colourings.

A colouring of a ``D``-regular bipartite multigraph is *proper* when no
two edges sharing a node have the same colour.  For a ``D``-regular
graph coloured with exactly ``D`` colours this is equivalent to: every
colour class is a perfect matching — which is precisely the property
the schedulers rely on (paper Section VI: "no two edges with the same
colour share a node").

These checks are used both defensively inside the planners and as the
oracle for property-based tests of all colouring backends.
"""

from __future__ import annotations

import numpy as np

from repro.coloring.multigraph import RegularBipartiteMultigraph
from repro.errors import ColoringError


#: A per-side count table is used while it has at most this many bins
#: per edge; sparser key spaces (a colouring with huge colour values)
#: are checked by sorting instead, so no input can make the check
#: allocate more than a small multiple of the edge count.
_DENSE_BINS_PER_EDGE = 4


def _repeats(graph: RegularBipartiteMultigraph, colors: np.ndarray) -> bool:
    """Whether some node sees a colour twice (``colors`` non-negative,
    one per edge).

    One ``np.bincount`` per side over ``node * num_colors + colour``:
    for a ``D``-regular graph coloured with ``D`` colours each table has
    exactly one bin per edge, and counting is several times cheaper
    than sorting the keys.
    """
    num_colors = int(colors.max()) + 1
    for nodes, num_nodes in ((graph.left, graph.num_left),
                             (graph.right, graph.num_right)):
        keys = nodes * np.int64(num_colors) + colors
        if num_nodes * num_colors <= _DENSE_BINS_PER_EDGE * keys.shape[0]:
            if np.bincount(keys).max() > 1:
                return True
        else:
            keys = np.sort(keys)
            if np.any(keys[1:] == keys[:-1]):
                return True
    return False


def is_proper_edge_coloring(
    graph: RegularBipartiteMultigraph, colors: np.ndarray
) -> bool:
    """Return ``True`` iff ``colors`` is a proper edge colouring.

    Vectorised: a colouring is proper iff every ``(node, colour)`` pair
    occurs at most once on each side.
    """
    colors = np.asarray(colors, dtype=np.int64)
    if colors.shape != (graph.num_edges,):
        return False
    if graph.num_edges == 0:
        return True
    if colors.min() < 0:
        return False
    return not _repeats(graph, colors)


def verify_edge_coloring(
    graph: RegularBipartiteMultigraph,
    colors: np.ndarray,
    expect_colors: int | None = None,
) -> None:
    """Raise :class:`~repro.errors.ColoringError` unless the colouring is
    proper and (optionally) uses exactly ``expect_colors`` colours.

    For ``expect_colors == graph.degree`` (the König bound) this also
    certifies that every colour class is a *perfect* matching: with
    ``E = D * L`` edges in ``D`` classes each touching every node at
    most once, each class must touch every node exactly once.
    """
    colors = np.asarray(colors, dtype=np.int64)
    if colors.shape != (graph.num_edges,):
        raise ColoringError(
            f"colour array has shape {colors.shape}, expected ({graph.num_edges},)"
        )
    if graph.num_edges == 0:
        return
    if colors.min() < 0:
        raise ColoringError("negative colour found")
    # Colours are non-negative, so more than expect_colors distinct
    # colours implies one at or past expect_colors: the maximum decides.
    if expect_colors is not None and colors.max() >= expect_colors:
        used = np.unique(colors)
        raise ColoringError(
            f"colouring uses colours {used.min()}..{colors.max()} "
            f"({used.shape[0]} distinct), expected at most {expect_colors}"
        )
    if _repeats(graph, colors):
        raise ColoringError("colouring is not proper: a node sees a colour twice")
