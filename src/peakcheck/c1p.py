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
``solve_c1p`` then cuts the distinct rows into a circular-ones instance
around the column that sheds the most cells, and the PQ-tree solves that.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

import numpy as np

from . import axis_check
from .errors import ClassError, InternalError
from .model import Axis, Notion, OrderClass, Refusal, Verdict
from .pqtree import backtracking_c1p, solve_c1p_sets


@dataclass
class C1Matrix:
    """0/1 matrix with row provenance; rows stored as column bitmasks."""

    m: int
    rows: list[int] = field(default_factory=list)
    provenance: list[tuple] = field(default_factory=list)
    short_circuit: bool = False
    short_circuit_reason: tuple | None = None

    def append(self, mask, tag):
        self.rows.append(mask)
        self.provenance.append(tag)

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


def _vote_chain(vote, gadgets, single_top):
    """The rows one vote contributes, or the reason it forces rejection.

    Returns ``(cum, pairs, reason)``.  ``cum[r]`` is the column bitmask of the
    candidates in buckets ``0..r``, the vote's upper sets best first; the last
    one holds every candidate.  With ``gadgets``, ``pairs`` lists each non-top
    indifferent pair as ``(r, (a, b))`` with ``a < b`` in bucket ``r``.  A
    non-top indifference class of three or more (``gadgets``) or a top
    plateau (``single_top``) sets ``reason`` instead.
    """
    levels = [0] * (max(vote.ranks) + 1)
    for c, r in enumerate(vote.ranks):
        levels[r] |= 1 << c
    if single_top and levels[0].bit_count() >= 2:
        return None, None, "more than one most-preferred candidate"
    pairs = []
    if gadgets:
        for r in range(1, len(levels)):
            size = levels[r].bit_count()
            if size >= 3:
                return None, None, "three-way non-top indifference"
            if size == 2:
                a = (levels[r] & -levels[r]).bit_length() - 1
                pairs.append((r, (a, levels[r].bit_length() - 1)))
    return list(itertools.accumulate(levels, operator.or_)), pairs, None


# notion -> (name of its reduction, gadget rows, reject a top plateau)
_REDUCTIONS = {
    Notion.PSP: ("the consecutive-ones reduction", False, False),
    Notion.PLATEAUED: ("the single-plateaued reduction", True, False),
    Notion.BLACK: ("the Black single-peaked reduction", True, True),
    Notion.NECESSARY: ("the single-plateaued reduction", True, False),
}


def _build(profile, notion, chain=False):
    """Per vote its base rows and, for the plateau notions, the three gadget
    rows of each non-top indifferent pair.  The base rows are the paper's
    block, one row per candidate in candidate order, or with ``chain`` one
    row per upper set short of the full one.  Stops at the first vote that
    forces rejection (see ``_vote_chain``), without that vote's rows."""
    what, gadgets, single_top = _REDUCTIONS[notion]
    _require_weak(profile, what)
    mat = C1Matrix(profile.m)
    for k, vote in enumerate(profile.votes):
        cum, pairs, reason = _vote_chain(vote, gadgets, single_top)
        if reason is not None:
            mat.short_circuit = True
            mat.short_circuit_reason = (k, reason)
            return mat
        if chain:
            for r in range(len(cum) - 1):
                mat.append(cum[r], (k, "upper", r))
        else:
            for a, r in enumerate(vote.ranks):
                mat.append(cum[r], (k, "base", a))
        for r, (a, b) in pairs:
            preferred = cum[r - 1]
            mat.append(preferred | (1 << b), (k, "plateau-gadget-1", (a, b)))
            mat.append(cum[r], (k, "plateau-gadget-2", (a, b)))
            mat.append(preferred | (1 << a), (k, "plateau-gadget-3", (a, b)))
    return mat


def build_psp_matrix(profile):
    """Base reduction: one ``m x m`` block per vote, rows in candidate order."""
    return _build(profile, Notion.PSP)


def build_plateaued_matrix(profile):
    """Base blocks plus per-pair plateau gadgets (single-plateaued variant)."""
    return _build(profile, Notion.PLATEAUED)


def build_black_matrix(profile):
    """Single-plateaued reduction plus rejection of any top plateau."""
    return _build(profile, Notion.BLACK)


def solve_c1p(matrix, use_backtracking=False):
    """Witnessing column permutation, or None.

    Duplicate and unconstraining rows are dropped first.  The rows are then
    cut into a circular-ones instance around one column ``c`` (see
    ``_cut_column``): with an all-zero column ``z = m`` added, the matrix has
    consecutive ones iff it has circular ones (Tucker 1971), and on a circle
    a row may be replaced by its complement.  Complementing every row that
    holds ``c`` leaves ``c`` in no row, so cutting the circle at ``c`` gives
    a consecutive-ones instance on ``m + 1`` columns (Hsu and McConnell 2003,
    *TCS* 296).  Its frontier, rotated so that ``z`` comes last and with ``z``
    dropped, makes every original row consecutive.  Without a column whose
    cut saves cells the rows are solved as they are.

    ``use_backtracking`` solves the uncut rows with the independent
    small-scale oracle for the PQ-tree solver.
    """
    if matrix.short_circuit:
        return None
    m = matrix.m
    full = (1 << m) - 1
    # empty, complete or singleton rows never constrain
    masks = [
        mask for mask in dict.fromkeys(matrix.rows) if mask & (mask - 1) and mask != full
    ]
    bits = _bit_rows(masks, m)
    if use_backtracking:
        return backtracking_c1p(_column_lists(bits), m)
    c = _cut_column(bits, m)
    if c is None:
        return _checked(solve_c1p_sets(_column_lists(bits), m), m)
    holds_c = bits[:, c] == 1
    bits[holds_c] ^= 1
    rows = _column_lists(np.column_stack((bits, holds_c)))
    perm = _checked(solve_c1p_sets(rows, m + 1), m + 1)
    if perm is None:
        return None
    z = perm.index(m)
    return perm[z + 1 :] + perm[:z]


def _bit_rows(masks, m):
    """The bitmasks as a ``len(masks) x m`` 0/1 ``uint8`` matrix."""
    width = (m + 7) // 8
    packed = b"".join(mask.to_bytes(width, "little") for mask in masks)
    return np.unpackbits(
        np.frombuffer(packed, dtype=np.uint8).reshape(len(masks), width),
        axis=1,
        count=m,
        bitorder="little",
    )


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


def _column_lists(bits):
    """Per row of the 0/1 matrix, the ascending list of its set columns."""
    # one shared Python int per column, so no row allocates its own
    columns = np.array(range(bits.shape[1]), dtype=object)
    return [columns[row].tolist() for row in bits.view(bool)]


def _checked(perm, width):
    """``perm`` if it is None or orders columns ``0..width-1``."""
    if perm is not None and sorted(perm) != list(range(width)):
        raise InternalError(
            f"consecutive-ones solver returned a frontier that does not order"
            f" the {width} columns"
        )
    return perm


def _refusal(matrix, reason):
    if matrix.short_circuit:
        k, why = matrix.short_circuit_reason
        return Refusal(why, vote_index=k)
    return Refusal(reason)


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
    matrix = _build(profile, notion, chain=True)
    perm = solve_c1p(matrix)
    if perm is None:
        return Verdict.no(
            _refusal(matrix, "no column permutation yields consecutive ones"),
            notion=notion,
            algorithm="c1p",
        )
    axis = Axis(tuple(perm))
    if not axis_check.check_on_axis(profile, axis, notion):
        raise InternalError("consecutive-ones solver produced an invalid axis")
    return Verdict.yes(axis, notion=notion, algorithm="c1p")


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
