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
"""

from __future__ import annotations

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


def _cumulative_bucket_masks(vote):
    """mask[r] = candidates with bucket index <= r."""
    masks = [0] * (max(vote.ranks) + 1)
    for c, r in enumerate(vote.ranks):
        masks[r] |= 1 << c
    acc = 0
    for r, mk in enumerate(masks):
        acc |= mk
        masks[r] = acc
    return masks


def _build(profile, what, gadgets=False, single_top=False):
    """One base block per vote and, with ``gadgets``, the three gadget rows of
    each non-top indifferent pair.  Stops at the first vote that forces
    rejection: a non-top indifference class of three or more (``gadgets``)
    or a top plateau (``single_top``)."""
    _require_weak(profile, what)
    mat = C1Matrix(profile.m)
    for k, vote in enumerate(profile.votes):
        if single_top and len(vote.buckets()[0]) >= 2:
            mat.short_circuit = True
            mat.short_circuit_reason = (k, "more than one most-preferred candidate")
            return mat
        cum = _cumulative_bucket_masks(vote)
        for a in range(profile.m):
            mat.append(cum[vote.ranks[a]], (k, "base", a))
        if not gadgets:
            continue
        for bucket in vote.buckets()[1:]:
            if len(bucket) >= 3:
                mat.short_circuit = True
                mat.short_circuit_reason = (k, "three-way non-top indifference")
                return mat
            if len(bucket) == 2:
                a, b = sorted(bucket)
                preferred = cum[vote.ranks[a] - 1]
                mat.append(preferred | (1 << b), (k, "plateau-gadget-1", (a, b)))
                mat.append(preferred | (1 << a) | (1 << b), (k, "plateau-gadget-2", (a, b)))
                mat.append(preferred | (1 << a), (k, "plateau-gadget-3", (a, b)))
    return mat


def build_psp_matrix(profile):
    """Base reduction: one ``m x m`` block per vote, rows in candidate order."""
    return _build(profile, "the consecutive-ones reduction")


def build_plateaued_matrix(profile):
    """Base blocks plus per-pair plateau gadgets (single-plateaued variant)."""
    return _build(profile, "the single-plateaued reduction", gadgets=True)


def build_black_matrix(profile):
    """Single-plateaued reduction plus rejection of any top plateau."""
    return _build(
        profile, "the Black single-peaked reduction", gadgets=True, single_top=True
    )


def solve_c1p(matrix, use_backtracking=False):
    """Witnessing column permutation, or None.

    Duplicate and unconstraining rows are dropped before solving; the
    backtracking path is the small-scale oracle for the PQ-tree solver.
    """
    if matrix.short_circuit:
        return None
    m = matrix.m
    full = (1 << m) - 1
    distinct = []
    seen = set()
    for mask in matrix.rows:
        if mask in seen:
            continue
        seen.add(mask)
        if mask == 0 or mask == full or mask & (mask - 1) == 0:
            continue  # empty, complete or singleton rows never constrain
        distinct.append(mask)
    rows = _column_lists(distinct, m)
    if use_backtracking:
        return backtracking_c1p(rows, m)
    return solve_c1p_sets(rows, m)


def _column_lists(masks, m):
    """Per bitmask, the ascending list of its set column indices."""
    if not masks:
        return []
    width = (m + 7) // 8
    packed = b"".join(mask.to_bytes(width, "little") for mask in masks)
    bits = np.unpackbits(
        np.frombuffer(packed, dtype=np.uint8).reshape(len(masks), width),
        axis=1,
        bitorder="little",
    )
    cols = np.nonzero(bits)[1].tolist()  # row-major, so grouped by mask
    rows = []
    start = 0
    for mask in masks:
        end = start + mask.bit_count()
        rows.append(cols[start:end])
        start = end
    return rows


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
        for k, vote in enumerate(profile.votes):
            if len(vote.buckets()[0]) > 2:
                return Verdict.no(
                    Refusal("top indifference class larger than two", vote_index=k),
                    notion=notion,
                    algorithm="c1p",
                )
    # looked up per call, so that a wrapped module attribute is the one called
    builder = {
        Notion.PSP: build_psp_matrix,
        Notion.PLATEAUED: build_plateaued_matrix,
        Notion.BLACK: build_black_matrix,
        Notion.NECESSARY: build_plateaued_matrix,
    }[notion]
    matrix = builder(profile)
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
