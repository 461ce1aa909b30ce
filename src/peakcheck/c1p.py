"""Consecutive-ones recognition for weak orders and its plateau variants.

The base reduction maps each weak-order vote to an ``m x m`` binary block:
entry ``(a, b)`` is 0 when the vote strictly prefers ``a`` to ``b`` and 1
otherwise (including the diagonal).  The blocks are row-wise concatenated and
the profile is possibly single-peaked iff the resulting matrix has the
consecutive ones property; a witnessing column permutation is an axis.

The single-plateaued variant appends, per non-top indifferent pair ``{a, b}``,
three gadget rows (column ``a`` reads 0,1,1 top to bottom, column ``b`` reads
1,1,0, strictly preferred candidates read 1,1,1, all others 0,0,0) and rejects
outright on any three-way non-top indifference.  The Black variant rejects
additionally when a vote has more than one most-preferred candidate.

``build_*_matrix`` return the paper's matrices as defined.  ``recognize``
solves an equivalent, smaller one: candidates tied in a vote get identical
rows, so a vote's block has one distinct row per upper set (the candidates
of its first ``r`` buckets), and the full set never constrains.  It builds
one row per vote per upper set short of the full one, plus the gadget rows.

Both read the profile's rank matrix.  Its bucket sizes per vote give the
refusals and the indifferent pairs (``_levels``); each vote's rows are then
one numpy comparison of its rank row against the rows' bucket thresholds,
packed to bits (``_packed_rows``).  ``recognize`` deduplicates the packed
rows, cuts the distinct ones into a circular-ones instance around the
column that sheds the most cells, and hands them to the PQ-tree as
``pqtree.Bitset`` rows, which the tree tests as masks without unpacking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import axis_check
from .errors import ClassError, InternalError
from .model import Notion, OrderClass, Refusal, Verdict
from .pqtree import Bitset, solve_c1p_sets


@dataclass
class C1Matrix:
    """0/1 matrix with row provenance; rows stored as column bitmasks."""

    m: int
    rows: list[int] = field(default_factory=list)
    provenance: list[tuple] = field(default_factory=list)
    short_circuit: bool = False
    short_circuit_reason: tuple | None = None

    def row_bits(self, i):
        mask = self.rows[i]
        return [(mask >> c) & 1 for c in range(self.m)]

    def dense(self):
        return [self.row_bits(i) for i in range(len(self.rows))]

    def to_text(self, names=None):
        """Plain-text 0/1 grid with a header row of column labels."""
        names = names or [str(c) for c in range(self.m)]
        width = max(len(s) for s in names)
        lines = [" ".join(s.rjust(width) for s in names)]
        for i in range(len(self.rows)):
            lines.append(" ".join(str(b).rjust(width) for b in self.row_bits(i)))
        return "\n".join(lines)


def _require_weak(profile, what):
    if profile.order_class() > OrderClass.WEAK:
        raise ClassError(f"{what} requires a profile of weak orders")


# notion -> (name of its reduction, gadget rows, reject a top plateau)
_REDUCTIONS = {
    Notion.PSP: ("the consecutive-ones reduction", False, False),
    Notion.PLATEAUED: ("the single-plateaued reduction", True, False),
    Notion.BLACK: ("the Black single-peaked reduction", True, True),
    Notion.NECESSARY: ("the single-plateaued reduction", True, False),
}


def _levels(profile, notion):
    """The level arrays of ``notion``'s reduction, read off the rank matrix.

    Returns ``(ranks, pairs, stop)``.  ``stop`` is ``(k, reason)`` for the
    first vote ``k`` that forces rejection, or None: a top plateau when the
    notion rejects one, or (with gadget rows) a non-top indifference class of
    three or more.  ``ranks`` holds the rank-matrix rows of the votes before
    it.  With gadget rows, ``pairs`` holds one row ``(k, r, a, b)`` per
    non-top indifferent pair ``a < b`` in bucket ``r`` of vote ``k``, in vote
    and bucket order; without, it has no rows.
    """
    what, gadgets, single_top = _REDUCTIONS[notion]
    _require_weak(profile, what)
    ranks = profile.rank_matrix()
    n, m = ranks.shape
    # sizes[k, r]: the number of candidates in bucket r of vote k
    cells = ranks + np.arange(0, n * m, m)[:, None]
    sizes = np.bincount(cells.ravel(), minlength=n * m).reshape(n, m)
    plateau = sizes[:, 0] >= 2 if single_top else np.zeros(n, bool)
    triple = (sizes[:, 1:] >= 3).any(axis=1) if gadgets else np.zeros(n, bool)
    stop = None
    bad = np.flatnonzero(plateau | triple)
    if len(bad):
        k = int(bad[0])
        stop = (k, "more than one most-preferred candidate" if plateau[k]
                else "three-way non-top indifference")
        ranks, sizes = ranks[:k], sizes[:k]
    pairs = np.empty((0, 4), np.int64)
    if gadgets:
        k, r = np.nonzero(sizes[:, 1:] == 2)
        r += 1
        voters, row = np.unique(k, return_inverse=True)
        # each such vote's candidates by bucket, each bucket in candidate
        # order; bucket r starts after the candidates of buckets 0..r-1
        order = np.argsort(ranks[voters], axis=1, kind="stable")
        at = np.cumsum(sizes, axis=1)[k, r - 1]
        pairs = np.column_stack((k, r, order[row, at], order[row, at + 1]))
    return ranks, pairs, stop


def _packed_rows(ranks, pairs, chain):
    """The reduction's rows as a ``rows x ceil(m / 8)`` array of packed bits
    (column ``c`` is bit ``c % 8`` of byte ``c // 8``).

    Per vote, its base rows come first: with ``chain`` one per upper set short
    of the full one, best first, else the paper's block, one row per candidate
    in candidate order.  The upper set of bucket ``r`` is the candidates of
    buckets ``0..r``.  Then the three gadget rows of each of its pairs
    ``(r, a, b)``: the upper set of bucket ``r - 1`` plus ``b``, the upper
    set of bucket ``r``, and the upper set of bucket ``r - 1`` plus ``a``.
    """
    n, m = ranks.shape
    levels = np.arange(m)
    tops = ranks.max(axis=1).tolist()
    gadget_levels = (pairs[:, 1:2] + [-1, 0, -1]).reshape(-1)
    bounds = np.searchsorted(pairs[:, 0], np.arange(n + 1)).tolist()
    blocks = [np.empty((0, (m + 7) // 8), np.uint8)]
    for k, row in enumerate(ranks):
        # each row is the upper set of its bucket: the candidates ranked at
        # or above it
        level = levels[: tops[k]] if chain else row
        lo, hi = bounds[k], bounds[k + 1]
        if lo == hi:
            block = row <= level[:, None]
        else:
            base = len(level)
            level = np.concatenate((level, gadget_levels[3 * lo : 3 * hi]))
            block = row <= level[:, None]
            first = np.arange(base, len(level), 3)
            block[first, pairs[lo:hi, 3]] = True
            block[first + 2, pairs[lo:hi, 2]] = True
        blocks.append(np.packbits(block, axis=1, bitorder="little"))
    return np.concatenate(blocks)


def _paper_matrix(profile, notion):
    """The paper's matrix of ``notion``, up to the first vote that forces
    rejection (see ``_levels``), without that vote's rows."""
    ranks, pairs, stop = _levels(profile, notion)
    mat = C1Matrix(profile.m, short_circuit=stop is not None, short_circuit_reason=stop)
    mat.rows = [int.from_bytes(row, "little") for row in _packed_rows(ranks, pairs, False)]
    by_vote = {}
    for k, _, a, b in pairs.tolist():
        by_vote.setdefault(k, []).append((a, b))
    for k in range(len(ranks)):
        mat.provenance.extend((k, "base", a) for a in range(profile.m))
        for pair in by_vote.get(k, ()):
            mat.provenance.extend((k, f"plateau-gadget-{j}", pair) for j in (1, 2, 3))
    return mat


def build_psp_matrix(profile):
    """Base reduction: one ``m x m`` block per vote, rows in candidate order."""
    return _paper_matrix(profile, Notion.PSP)


def build_plateaued_matrix(profile):
    """Base blocks plus per-pair plateau gadgets (single-plateaued variant)."""
    return _paper_matrix(profile, Notion.PLATEAUED)


def build_black_matrix(profile):
    """Single-plateaued reduction plus rejection of any top plateau."""
    return _paper_matrix(profile, Notion.BLACK)


def solve_c1p(matrix):
    """Witnessing column permutation of a ``C1Matrix``, or None."""
    if matrix.short_circuit:
        return None
    width = (matrix.m + 7) // 8
    packed = b"".join(mask.to_bytes(width, "little") for mask in matrix.rows)
    rows = np.frombuffer(packed, np.uint8).reshape(-1, width)
    return _solve(rows, matrix.m)


def _solve(packed, m):
    """Witnessing column permutation of the packed rows (see
    ``_packed_rows``), or None.

    Duplicate and unconstraining rows are dropped first; the distinct rows
    keep the order of their first occurrence.  The rows are then cut into a
    circular-ones instance around one column ``c`` (see ``_cut_column``):
    with an all-zero column ``z = m`` added, the matrix has consecutive ones
    iff it has circular ones (Tucker 1971), and on a circle a row may be
    replaced by its complement.  Complementing every row that holds ``c``
    leaves ``c`` in no row, so cutting the circle at ``c`` gives a
    consecutive-ones instance on ``m + 1`` columns (Hsu and McConnell 2003,
    *TCS* 296).  Its frontier, rotated so that ``z`` comes last and with
    ``z`` dropped, makes every original row consecutive.  Without a column
    whose cut saves cells the rows are solved as they are.
    """
    _, first = np.unique(packed.view(f"V{packed.shape[1]}").ravel(), return_index=True)
    bits = np.unpackbits(packed[np.sort(first)], axis=1, count=m, bitorder="little")
    # empty, complete or singleton rows never constrain
    size = bits.sum(axis=1)
    bits = bits[(size > 1) & (size < m)]
    c = _cut_column(bits, m)
    if c is None:
        return solve_c1p_sets(_bitsets(bits), m)
    holds_c = bits[:, c] == 1
    bits[holds_c] ^= 1
    rows = _bitsets(np.column_stack((bits, holds_c)))
    perm = solve_c1p_sets(rows, m + 1)
    if perm is None:
        return None
    # z must be a column of the frontier before it is rotated there
    if sorted(perm) != list(range(m + 1)):
        raise InternalError(
            f"consecutive-ones solver returned a frontier that does not order"
            f" the {m + 1} columns"
        )
    z = perm.index(m)
    return perm[z + 1 :] + perm[:z]


def _cut_column(bits, m):
    """The column whose cut saves the most cells, or None if none saves any.

    Complementing a row ``S`` in ``m + 1`` columns turns ``|S|`` cells into
    ``m + 1 - |S|``, so cutting at ``c`` saves the sum of ``2|S| - m - 1``
    over the rows that hold ``c``.  Ties go to the smallest column.
    """
    if not len(bits):
        return None
    saved = 2 * bits.sum(axis=1, dtype=np.int64) - (m + 1)
    gain = np.einsum("r,rc->c", saved, bits)
    c = int(np.argmax(gain))
    return c if gain[c] > 0 else None


def _bitsets(bits):
    """Each row of the 0/1 matrix as the ``Bitset`` of its set columns."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    from_bytes = Bitset.from_bytes
    return [from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]


def recognize(profile, notion=Notion.PSP):
    """Consistency of a weak-order profile with ``notion``: build the notion's
    matrix, solve it, and verify the axis with the notion's axis check.

    Necessary single-peakedness equals single-plateaued consistency restricted
    to votes whose top indifference class has at most two members; that size
    test is axis-independent, so any single-plateaued axis also witnesses it.
    """
    notion = Notion(notion)
    if notion == Notion.NECESSARY:
        _require_weak(profile, "necessarily-single-peaked recognition")
        refusal = axis_check.top_class_refusal(profile)
        if refusal is not None:
            return Verdict.no(refusal, notion=notion, algorithm="c1p")
    ranks, pairs, stop = _levels(profile, notion)
    if stop is not None:
        k, why = stop
        return Verdict.no(Refusal(why, vote_index=k), notion=notion, algorithm="c1p")
    perm = _solve(_packed_rows(ranks, pairs, chain=True), profile.m)
    if perm is None:
        return Verdict.no(
            Refusal("no column permutation yields consecutive ones"),
            notion=notion,
            algorithm="c1p",
        )
    return axis_check.verified(profile, perm, "c1p", notion)


def recognize_psp_c1p(profile):
    """Possibly-single-peaked consistency of a weak-order profile."""
    return recognize(profile, Notion.PSP)


def recognize_plateaued(profile):
    """Single-plateaued consistency of a weak-order profile."""
    return recognize(profile, Notion.PLATEAUED)


def recognize_black(profile):
    """Black single-peaked consistency of a weak-order profile."""
    return recognize(profile, Notion.BLACK)


def recognize_necessary(profile):
    """Necessarily-single-peaked consistency of a weak-order profile."""
    return recognize(profile, Notion.NECESSARY)
