"""Global three-step decomposition of a permutation (paper Section VII).

Any permutation ``p`` of ``n = m²`` elements, viewed on the ``m x m``
matrix, factors into

    row-wise (gamma1)  ∘  column-wise (delta)  ∘  row-wise (gamma3)

The factorisation comes from König's theorem applied to the **row
multigraph**: nodes are the ``m`` source rows and the ``m`` destination
rows; each element contributes the edge (its source row -> its
destination row).  The multigraph is ``m``-regular, hence
``m``-edge-colourable, and the colour of an element is the
*intermediate column* it is routed through:

1. edges at one source-row node carry ``m`` distinct colours, so
   "move the element with colour k to column k" is a valid row
   permutation (``gamma1``),
2. edges of one colour form a perfect matching, so the ``m`` elements
   sitting in column ``k`` after step 1 have ``m`` distinct destination
   rows — "move to your destination row" is a valid column permutation
   (``delta``),
3. the elements arriving in destination row ``r`` have distinct
   destination columns, so the final row permutation (``gamma3``) is
   valid.

Figure 6 of the paper walks a 4 x 4 example; the test suite replays it
against this implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.coloring import RegularBipartiteMultigraph, edge_coloring
from repro.coloring.verify import verify_edge_coloring
from repro.errors import ColoringError, SchedulingError
from repro.util.validation import check_permutation, isqrt_exact


@dataclass(frozen=True)
class ThreeStepDecomposition:
    """The three per-row/per-column permutation families.

    Attributes
    ----------
    gamma1:
        ``(m, m)``; ``gamma1[r, c]`` = intermediate column (colour) of
        the element starting at ``(r, c)``.
    delta:
        ``(m, m)``; ``delta[k, r]`` = destination row of the element
        sitting at ``(r, k)`` after step 1 (indexed by column ``k``).
    gamma3:
        ``(m, m)``; ``gamma3[r, k]`` = final column of the element
        sitting at ``(r, k)`` after step 2.
    colors:
        Length-``n`` colour (= intermediate column) per source element.
    """

    gamma1: np.ndarray
    delta: np.ndarray
    gamma3: np.ndarray
    colors: np.ndarray

    @property
    def m(self) -> int:
        return int(self.gamma1.shape[0])

    def route(self, p: np.ndarray) -> None:
        """Check the decomposition routes every element of ``p`` home.

        Symbolically replays the three steps on indices and raises
        :class:`~repro.errors.SchedulingError` on any mismatch — used
        defensively after planning and directly by tests.
        """
        m = self.m
        n = m * m
        i = np.arange(n, dtype=np.int64)
        src_row, src_col = i // m, i % m
        # Step 1: within the source row, move to the colour column.
        col1 = self.gamma1[src_row, src_col]
        # Step 2: within that column, move to the destination row.
        row2 = self.delta[col1, src_row]
        # Step 3: within the destination row, move to the final column.
        col3 = self.gamma3[row2, col1]
        final = row2 * m + col3
        if not np.array_equal(final, np.asarray(p, dtype=np.int64)):
            raise SchedulingError(
                "three-step decomposition does not realise the permutation"
            )

    def verify_coloring(self, p: np.ndarray) -> None:
        """Check the stored colours are a proper König colouring of the
        row multigraph of ``p``.

        :meth:`route` proves the decomposition *moves elements
        correctly*; this proves the stronger structural property the
        paper's Section VII argument rests on — every colour class is a
        perfect matching between source and destination rows — by
        rebuilding the row multigraph and re-verifying the colouring
        against it.  Also checks ``gamma1`` is exactly the colour table
        (the planner derives it by reshape; a corrupted plan file can
        break that).  Raises :class:`~repro.errors.SchedulingError`.
        """
        m = self.m
        n = m * m
        p = np.asarray(p, dtype=np.int64)
        if p.shape != (n,):
            raise SchedulingError(
                f"permutation has length {p.shape}, decomposition "
                f"expects {n}"
            )
        if n == 0:
            return
        i = np.arange(n, dtype=np.int64)
        graph = RegularBipartiteMultigraph.from_edges(
            i // m, p // m, m, m
        )
        try:
            verify_edge_coloring(graph, self.colors, expect_colors=m)
        except ColoringError as exc:
            raise SchedulingError(
                "decomposition colours are not a proper edge colouring "
                f"of the row multigraph: {exc}"
            ) from exc
        if not np.array_equal(
            np.asarray(self.colors, dtype=np.int64).reshape(m, m),
            np.asarray(self.gamma1, dtype=np.int64),
        ):
            raise SchedulingError(
                "gamma1 does not match the colour table it must encode"
            )


def decompose(
    p: np.ndarray, backend: str = "auto"
) -> ThreeStepDecomposition:
    """Factor permutation ``p`` (length a perfect square) into the three
    steps of the scheduled algorithm.

    ``backend`` selects the König colouring implementation (see
    :func:`repro.coloring.edge_coloring`).
    """
    p = check_permutation(p)
    n = p.shape[0]
    m = isqrt_exact(n, "len(p)")
    if m == 0:
        empty = np.empty((0, 0), dtype=np.int64)
        return ThreeStepDecomposition(
            empty, empty, empty, np.empty(0, dtype=np.int64)
        )
    with telemetry.span("plan.decompose", n=int(n), m=m, backend=backend):
        return decompose_with(
            p, m, backend, lambda graph: edge_coloring(graph, backend=backend)
        )


def decompose_with(
    p: np.ndarray, m: int, backend: str, color
) -> ThreeStepDecomposition:
    """The decomposition of ``p`` (``m * m`` elements) from the König
    colouring ``color(graph)`` returns for its row multigraph.

    Every colouring is verified as a proper ``m``-colouring before it
    is used, whichever way ``color`` computed it; ``backend`` only
    labels the span.
    """
    n = m * m
    i = np.arange(n, dtype=np.int64)
    src_row = i // m
    dst = p
    dst_row, dst_col = dst // m, dst % m

    graph = RegularBipartiteMultigraph.from_edges(src_row, dst_row, m, m)
    with telemetry.span("plan.decompose.coloring", backend=backend):
        colors = color(graph)
        verify_edge_coloring(graph, colors, expect_colors=m)

    # gamma1[r, c] = colour of element (r, c): elements are enumerated
    # row-major, so this is just a reshape.
    gamma1 = colors.reshape(m, m)

    # delta[k, r] = destination row of the element with colour k in
    # source row r.  Each (colour, source row) pair occurs exactly once.
    delta = np.empty((m, m), dtype=np.int64)
    delta[colors, src_row] = dst_row

    # gamma3[r_d, k] = destination column of the element with colour k
    # arriving in destination row r_d.  Each (colour, dest row) pair
    # occurs exactly once (colour classes are perfect matchings).
    gamma3 = np.empty((m, m), dtype=np.int64)
    gamma3[dst_row, colors] = dst_col

    decomposition = ThreeStepDecomposition(
        gamma1=gamma1, delta=delta, gamma3=gamma3, colors=colors
    )
    decomposition.route(p)   # defensive: planning must be exact
    return decomposition
