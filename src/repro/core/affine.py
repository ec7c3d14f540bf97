"""Closed-form plans for affine (BMMC) permutations.

A permutation of ``n = 2^N`` indices is *affine* (bit-matrix multiply
and complement, BMMC) when ``p(x) = A x xor c`` over GF(2) for an
invertible ``N x N`` bit matrix ``A`` and an offset ``c``.  Bit
reversal and transpose, two of the paper's three families, are of this
form.  For them every König colouring the scheduled algorithm needs has
a closed form, so planning needs no colouring at all:

* **Global colour** (Section VII).  Let ``H`` select the row bits of an
  index (its high ``N/2`` bits).  A linear colour ``L`` routes ``p``
  exactly when ``[H; L]`` and ``[H·A; L]`` are both invertible: the
  elements of one source row (a coset of ``ker H``) then get distinct
  colours, and so do the elements of one destination row (a coset of
  ``ker H·A = A⁻¹ ker H``).  That holds exactly when ``ker L`` is a
  *common complement* of ``ker H`` and ``A⁻¹ ker H`` — two subspaces
  of equal dimension, which always have one (``docs/theory.md``).
  :func:`common_complement` builds it greedily; ``L`` is the projection
  onto ``ker H`` (the column bits) along it.
* **Bank colours** (Section VI).  Each row of ``gamma1``, ``delta`` and
  ``gamma3`` is then affine in the column bits, and all rows of one
  family share one linear part ``G``.  With ``Low`` selecting the low
  ``log w`` column bits, one map ``B`` whose kernel is a common
  complement of ``ker Low`` and ``G⁻¹ ker Low`` colours every row of
  the family at once.

Every closed-form colouring is still verified as a proper König
colouring (:func:`~repro.coloring.verify.verify_edge_coloring`) before
it is used, and the plan is an ordinary
:class:`~repro.core.scheduled.ScheduledPermutation`, so translation
validation, the certifier and sealing apply unchanged.  Because the
plan is a function of ``(A, c, width)`` alone, a plan file can store
that formula instead of the schedule arrays (:mod:`repro.core.io`).

Bit vectors are Python integers (bit ``j`` = coordinate ``j``) and a
matrix is the tuple of its column vectors, so ``A e_j`` is
``columns[j]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.core.colwise import ColumnwiseSchedule
from repro.core.rowwise import RowwiseSchedule
from repro.core.scheduler import ThreeStepDecomposition, decompose_with
from repro.core.transpose import TiledTranspose
from repro.errors import ValidationError

#: Version of the closed-form recipe.  A formula plan file is only as
#: good as the recipe that regenerates its schedule, so the file
#: records it and a loader refuses any other; bump it whenever the
#: closed form changes the schedule it produces for some ``(A, c)``.
RECIPE_VERSION = 1

#: Smallest ``n`` that :meth:`ScheduledPermutation.plan
#: <repro.core.scheduled.ScheduledPermutation.plan>` plans in closed
#: form under ``backend="auto"``.  Smaller affine permutations keep the
#: König colouring: it costs at most ~10 ms there (7–10 ms at
#: n = 2^12 on a 2-vCPU Xeon, against ~3 ms in closed form) and their
#: program files ~20 KB, and these sizes are where ``repro profile``,
#: the telemetry instrumentation checks and the sidecar-size check
#: observe the colouring backends and the program-file layout.
#: :meth:`~repro.core.scheduled.ScheduledPermutation.from_affine`
#: works at every size.
CLOSED_FORM_MIN_N = 1 << 14

#: Fault-injection hook (see :mod:`repro.resilience.faults`).  ``None``
#: in production.  When set, it is called as ``_fault_hook("affine",
#: graph)`` before each closed-form colouring of a plan, like the
#: colouring backends' own hooks, and may raise.
_fault_hook = None


# ----------------------------------------------------------------------
# GF(2) linear algebra on bit-vector integers
# ----------------------------------------------------------------------


def _table(columns) -> np.ndarray:
    """``table[x] = M x`` for every ``x < 2^len(columns)``, built by
    doubling: the upper half of each prefix is the lower half xor the
    next column."""
    table = np.zeros(1 << len(columns), dtype=np.int64)
    for j, column in enumerate(columns):
        table[1 << j:2 << j] = table[:1 << j] ^ column
    return table


def _inverse(columns) -> tuple[int, ...]:
    """Columns of ``M⁻¹``; raises :class:`ValidationError` when ``M``
    is singular.

    Gauss–Jordan on the pairs ``(M e_j, e_j)``: once the left halves
    are reduced to unit vectors ``e_i``, the right half of that pair is
    the combination of columns ``M`` maps to ``e_i``, i.e. ``M⁻¹ e_i``.
    """
    pairs = [(int(v), 1 << j) for j, v in enumerate(columns)]
    size = len(pairs)
    for bit in range(size):
        pivot = next(
            (i for i in range(bit, size) if pairs[i][0] >> bit & 1), None
        )
        if pivot is None:
            raise ValidationError("bit matrix is singular over GF(2)")
        pairs[bit], pairs[pivot] = pairs[pivot], pairs[bit]
        value, tag = pairs[bit]
        for i in range(size):
            if i != bit and pairs[i][0] >> bit & 1:
                pairs[i] = (pairs[i][0] ^ value, pairs[i][1] ^ tag)
    return tuple(tag for _, tag in pairs)


class _Span:
    """A subspace of GF(2)^N kept as an echelon basis (one vector per
    leading bit), for membership tests."""

    def __init__(self, vectors=()) -> None:
        self._basis: dict[int, int] = {}
        for v in vectors:
            self.add(v)

    def __len__(self) -> int:
        return len(self._basis)

    def _reduce(self, v: int) -> int:
        while v:
            lead = v.bit_length() - 1
            if lead not in self._basis:
                return v
            v ^= self._basis[lead]
        return 0

    def __contains__(self, v: int) -> bool:
        return self._reduce(v) == 0

    def add(self, v: int) -> None:
        v = self._reduce(v)
        if v:
            self._basis[v.bit_length() - 1] = v


def common_complement(u, w, bits: int) -> list[int]:
    """A basis of one subspace ``C`` of GF(2)^bits that complements
    both ``span(u)`` and ``span(w)`` (``u``, ``w`` independent, of
    equal length).

    Greedy: while ``U + C`` (and so ``W + C``) is proper, add a unit
    vector that lies in neither sum.  If every unit vector lies in one
    of them, some ``a`` is outside ``U + C`` (hence inside ``W + C``)
    and some ``b`` outside ``W + C`` (hence inside ``U + C``); then
    ``a xor b`` is outside both.  ``O(bits³)`` bit operations.
    """
    if len(u) != len(w):
        raise ValidationError(
            f"common complement needs subspaces of equal dimension, got "
            f"{len(u)} and {len(w)}"
        )
    su, sw = _Span(u), _Span(w)
    units = [1 << j for j in range(bits)]
    complement: list[int] = []
    while len(su) < bits:
        v = next((e for e in units if e not in su and e not in sw), None)
        if v is None:
            v = (next(e for e in units if e not in su)
                 ^ next(e for e in units if e not in sw))
        su.add(v)
        sw.add(v)
        complement.append(v)
    return complement


def _colour_map(u, w, bits: int) -> tuple[int, ...]:
    """A linear colour that is injective on every coset of ``span(u)``
    and on every coset of ``span(w)`` (equal dimensions): the projection
    onto ``span(u)`` along a common complement ``K`` of both, sending
    ``x = Σ a_i u_i + k`` (``k`` in ``K``) to the coordinates ``a``."""
    inverse = _inverse(list(u) + common_complement(u, w, bits))
    mask = (1 << len(u)) - 1
    return tuple(column & mask for column in inverse)


# ----------------------------------------------------------------------
# Detection
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AffineForm:
    """The map ``x -> A x xor c`` on ``bits``-bit indices, with
    ``columns[j] = A e_j`` and ``offset = c``."""

    bits: int
    columns: tuple[int, ...]
    offset: int

    @property
    def n(self) -> int:
        return 1 << self.bits

    def validate(self) -> None:
        """Raise :class:`ValidationError` unless this is a permutation
        of at least four indices: ``bits`` columns and an offset inside
        the index range, and an invertible ``A``."""
        if self.bits < 2 or len(self.columns) != self.bits or not (
            0 <= self.offset < self.n
            and all(0 <= col < self.n for col in self.columns)
        ):
            raise ValidationError(
                f"affine form on {self.bits} bits needs {self.bits} "
                f"columns and an offset below {self.n}"
            )
        _inverse(self.columns)

    def at(self, x: int) -> int:
        """``A x xor c`` for one index."""
        y = self.offset
        for j, column in enumerate(self.columns):
            if x >> j & 1:
                y ^= column
        return y

    def permutation(self) -> np.ndarray:
        """``p[x] = A x xor c`` for every index, as one broadcast xor of
        a high-bit and a low-bit table."""
        low = self.bits // 2
        high = _table(self.columns[low:]) ^ self.offset
        return (high[:, None] ^ _table(self.columns[:low])[None, :]
                ).reshape(-1)


def _probes(bits: int) -> list[int]:
    """A fixed handful of indices with two or more bits set: a
    non-affine permutation almost always fails one of them, so
    detection rejects it in O(1) before the O(n) check."""
    n = 1 << bits
    top, mid = 1 << (bits - 1), 1 << (bits // 2)
    candidates = (3, 5, 6, n - 1, top | 1, top | top >> 1,
                  mid | mid >> 1, top | mid)
    return [x for x in candidates if x < n and x & (x - 1)]


def detect(p: np.ndarray) -> AffineForm | None:
    """``p``'s affine form, or ``None`` when ``p`` is not affine.

    Reads ``c = p[0]`` and ``A e_j = p[2^j] xor c``, rejects on a fixed
    handful of probe indices, and only then checks all ``n`` indices.
    ``p`` must already be a validated permutation.
    """
    n = int(p.shape[0])
    if n < 4 or n & (n - 1):
        return None
    bits = n.bit_length() - 1
    offset = int(p[0])
    columns = tuple(int(p[1 << j]) ^ offset for j in range(bits))
    form = AffineForm(bits, columns, offset)
    if any(int(p[x]) != form.at(x) for x in _probes(bits)):
        return None
    # Agreeing with a bijection on every index makes A invertible.
    if not np.array_equal(form.permutation(), p):
        return None
    return form


# ----------------------------------------------------------------------
# Closed-form colourings
# ----------------------------------------------------------------------


def _closed(colors: np.ndarray, faults: bool):
    """A colouring callback that returns the precomputed ``colors``,
    after the fault hook (when ``faults``) has seen the graph."""
    def color(graph) -> np.ndarray:
        if faults and _fault_hook is not None:
            _fault_hook("affine", graph)
        return colors
    return color


def _bank_colours(gamma: np.ndarray, width: int) -> np.ndarray:
    """Bank colours of a row family whose rows are affine in the column
    bits with one shared linear part ``G`` (read off row 0): the colour
    of column ``i`` is ``B i`` in every row."""
    m = int(gamma.shape[1])
    k = m.bit_length() - 1
    s = width.bit_length() - 1
    base = int(gamma[0, 0])
    g = [int(gamma[0, 1 << j]) ^ base for j in range(k)]
    g_inv = _inverse(g)
    high = [1 << j for j in range(s, k)]       # ker Low
    colour = _colour_map(high, [g_inv[j] for j in range(s, k)], k)
    return np.tile(_table(colour), gamma.shape[0])


def plan_parts(
    form: AffineForm, width: int, p: np.ndarray, faults: bool
) -> tuple[ThreeStepDecomposition, RowwiseSchedule, ColumnwiseSchedule,
           RowwiseSchedule]:
    """The decomposition and the three row-wise schedules of the
    affine permutation ``p`` (which ``form`` describes), with every
    colouring in closed form.

    ``faults`` lets an active :class:`~repro.resilience.FaultPlan` see
    each colouring, as it sees the colouring backends' calls while
    planning (a plan file's regeneration passes ``False``).
    """
    half = form.bits // 2
    m = 1 << half
    with telemetry.span("affine.plan", n=form.n, width=width):
        a_inv = _inverse(form.columns)
        cols = [1 << j for j in range(half)]            # ker H
        colour = _colour_map(cols, [a_inv[j] for j in range(half)],
                             form.bits)
        # The colour is the identity on the column bits, so
        # gamma1[r, c] = L_row r xor c.
        colours = (_table(colour[half:])[:, None]
                   ^ np.arange(m, dtype=np.int64)[None, :]).reshape(-1)
        decomposition = decompose_with(
            p, m, "affine", _closed(colours, faults)
        )
        steps = [
            RowwiseSchedule.plan_with(
                gamma, width, "affine",
                _closed(_bank_colours(gamma, width), faults),
            )
            for gamma in (decomposition.gamma1, decomposition.delta,
                          decomposition.gamma3)
        ]
    step2 = ColumnwiseSchedule(
        rowwise=steps[1], transpose=TiledTranspose(m, width)
    )
    return decomposition, steps[0], step2, steps[2]
