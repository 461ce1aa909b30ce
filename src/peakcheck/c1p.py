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


def build_psp_matrix(profile):
    """Base reduction: one ``m x m`` block per vote, rows in candidate order."""
    _require_weak(profile, "the consecutive-ones reduction")
    mat = C1Matrix(profile.m)
    for k, vote in enumerate(profile.votes):
        cum = _cumulative_bucket_masks(vote)
        for a in range(profile.m):
            mat.append(cum[vote.ranks[a]], (k, "base", a))
    return mat


def _append_plateau_gadgets(mat, k, vote):
    """Gadget rows for vote ``k``; True if a non-top triple forces rejection."""
    cum = _cumulative_bucket_masks(vote)
    for bucket in vote.buckets()[1:]:
        if len(bucket) >= 3:
            mat.short_circuit = True
            mat.short_circuit_reason = (k, "three-way non-top indifference")
            return True
        if len(bucket) == 2:
            a, b = sorted(bucket)
            preferred = cum[vote.ranks[a] - 1]
            mat.append(preferred | (1 << b), (k, "plateau-gadget-1", (a, b)))
            mat.append(preferred | (1 << a) | (1 << b), (k, "plateau-gadget-2", (a, b)))
            mat.append(preferred | (1 << a), (k, "plateau-gadget-3", (a, b)))
    return False


def build_plateaued_matrix(profile):
    """Base blocks plus per-pair plateau gadgets (single-plateaued variant)."""
    _require_weak(profile, "the single-plateaued reduction")
    mat = C1Matrix(profile.m)
    for k, vote in enumerate(profile.votes):
        cum = _cumulative_bucket_masks(vote)
        for a in range(profile.m):
            mat.append(cum[vote.ranks[a]], (k, "base", a))
        if _append_plateau_gadgets(mat, k, vote):
            return mat
    return mat


def build_black_matrix(profile):
    """Single-plateaued reduction plus rejection of any top plateau."""
    _require_weak(profile, "the Black single-peaked reduction")
    mat = C1Matrix(profile.m)
    for k, vote in enumerate(profile.votes):
        if len(vote.buckets()[0]) >= 2:
            mat.short_circuit = True
            mat.short_circuit_reason = (k, "more than one most-preferred candidate")
            return mat
        cum = _cumulative_bucket_masks(vote)
        for a in range(profile.m):
            mat.append(cum[vote.ranks[a]], (k, "base", a))
        if _append_plateau_gadgets(mat, k, vote):
            return mat
    return mat


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


def _recognise(profile, builder, verifier, notion, name):
    matrix = builder(profile)
    perm = solve_c1p(matrix)
    if perm is None:
        return Verdict.no(
            _refusal(matrix, "no column permutation yields consecutive ones"),
            notion=notion,
            algorithm=name,
        )
    axis = Axis(tuple(perm))
    verdict = verifier(profile, axis)
    if not verdict:
        raise InternalError("consecutive-ones solver produced an invalid axis")
    return Verdict.yes(axis, notion=notion, algorithm=name)


def recognize_psp_c1p(profile):
    """Possibly-single-peaked consistency of a weak-order profile."""
    return _recognise(
        profile,
        build_psp_matrix,
        axis_check.is_possibly_sp_on_axis,
        Notion.PSP,
        "c1p",
    )


def recognize_plateaued(profile):
    """Single-plateaued consistency of a weak-order profile."""
    return _recognise(
        profile,
        build_plateaued_matrix,
        axis_check.check_plateaued_on_axis,
        Notion.PLATEAUED,
        "c1p",
    )


def recognize_black(profile):
    """Black single-peaked consistency of a weak-order profile."""
    return _recognise(
        profile,
        build_black_matrix,
        axis_check.check_black_on_axis,
        Notion.BLACK,
        "c1p",
    )


def recognize_necessary(profile):
    """Necessarily-single-peaked consistency of a weak-order profile.

    Equals single-plateaued consistency restricted to votes whose top
    indifference class has at most two members; that size test is
    axis-independent, so any single-plateaued axis also witnesses this notion.
    """
    _require_weak(profile, "necessarily-single-peaked recognition")
    for k, vote in enumerate(profile.votes):
        if len(vote.buckets()[0]) > 2:
            return Verdict.no(
                Refusal("top indifference class larger than two", vote_index=k),
                notion=Notion.NECESSARY,
                algorithm="c1p",
            )
    return _recognise(
        profile,
        build_plateaued_matrix,
        axis_check.check_necessary_on_axis,
        Notion.NECESSARY,
        "c1p",
    )
