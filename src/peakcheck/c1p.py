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

Both read the profile's rank matrix, whose bucket sizes give the refusals
and the indifferent pairs (``_levels``).  Every row is an upper set, or one
plus a column, so ``_packed_rows`` gathers all rows from one table of upper
sets as packed 32-bit words, which one ``np.bincount`` and a running sum give.
``recognize`` drops duplicates on the words, cuts the distinct rows into a
circular-ones instance around the column that sheds the most cells, and
unpacks each only then, into the ``pqtree.Bitset`` the tree tests as a mask.
"""

from __future__ import annotations

import itertools
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


def _buckets(ranks):
    """``(bucket, upto)``: the votes' buckets, numbered vote by vote, best
    first.  ``bucket[k, c]`` numbers candidate ``c``'s bucket in vote ``k``;
    ``upto[i]`` counts the candidates in buckets ``0..i``.  As a vote ranks
    all ``m`` candidates, bucket ``i`` is in vote ``k = (upto[i] - 1) // m``,
    its upper set has ``upto[i] - k * m`` members, and it is ``k``'s last
    bucket iff ``m`` divides ``upto[i]``."""
    count = ranks.max(axis=1) + 1
    bucket = ranks + (np.cumsum(count) - count)[:, None]
    return bucket, np.cumsum(np.bincount(bucket.ravel(), minlength=count.sum()))


def _levels(profile, notion):
    """The level arrays of ``notion``'s reduction, read off the rank matrix.

    Returns ``(bucket, upto, pairs, stop)``.  ``stop`` is ``(k, reason)`` for
    the first vote ``k`` that forces rejection, or None: a top plateau when
    the notion rejects one, or (with gadget rows) a non-top indifference
    class of three or more.  ``bucket`` and ``upto`` (``_buckets``) cover the
    votes before it.  With gadget rows, ``pairs`` holds one row
    ``(k, i, a, b)`` per non-top indifferent pair ``a < b``, bucket ``i`` of
    vote ``k``, in bucket order; without, it has no rows.
    """
    what, gadgets, single_top = _REDUCTIONS[notion]
    _require_weak(profile, what)
    bucket, upto = _buckets(profile.rank_matrix())
    n, m = bucket.shape
    size = np.diff(upto, prepend=0)
    vote = (upto - 1) // m
    top = (upto - size) % m == 0
    plateau = (size[top] >= 2) & single_top
    triple = (np.bincount(vote, ~top & (size >= 3), n) > 0) & gadgets
    stop = None
    bad = np.flatnonzero(plateau | triple)
    if len(bad):
        k = int(bad[0])
        stop = (k, "more than one most-preferred candidate" if plateau[k]
                else "three-way non-top indifference")
        bucket, upto = bucket[:k], upto[: np.searchsorted(vote, k)]
    pairs = np.empty((0, 4), np.int64)
    if gadgets:
        # the pairs' candidates, vote by vote, grouped by bucket
        k, c = np.nonzero(((size == 2) & ~top)[bucket])
        order = np.argsort(bucket[k, c], kind="stable")
        k, c = k[order], c[order]
        pairs = np.column_stack((k[::2], bucket[k[::2], c[::2]], c[::2], c[1::2]))
    return bucket, upto, pairs, stop


def _packed_rows(bucket, upto, pairs, chain):
    """The reduction's rows as packed words, ``(words, source, extra)``: row
    ``j`` is the upper set of bucket ``source[j]`` plus column ``extra[j]``
    unless that is -1.  ``words[j]`` holds it in little-endian 32-bit words,
    column ``c`` in bit ``c % 32`` of word ``c // 32``, with room for a
    column ``m``.

    Per vote, its base rows come first: with ``chain`` one per upper set short
    of the full one, best first, else the paper's block, one row per candidate
    in candidate order.  Then the three gadget rows of each of its pairs
    ``(i, a, b)``: the upper sets of buckets ``i - 1`` plus ``b``, ``i``, and
    ``i - 1`` plus ``a``.
    """
    n, m = bucket.shape
    width, cols = m // 32 + 1, np.arange(m)
    bit = np.exp2(cols % 32)
    # a bucket's candidates hold disjoint bits, so their sum is their OR, and
    # so is the running sum over a vote's buckets; each vote's first bucket
    # takes off the full set of the vote before it.  The words wrap modulo
    # 2^32, which keeps every result exact
    upper = np.bincount((bucket * width + cols // 32).ravel(), np.tile(bit, n),
                        len(upto) * width).astype("<u4").reshape(-1, width)
    full = np.bincount(cols // 32, bit, width).astype("<u4")
    upper[np.flatnonzero(upto % m == 0)[:-1] + 1] -= full
    np.cumsum(upper, axis=0, dtype=upper.dtype, out=upper)
    # every bucket but each vote's last, or each candidate's
    source = np.flatnonzero(upto % m) if chain else bucket.ravel()
    extra = np.full(len(source), -1)
    if len(pairs):
        _, i, a, b = pairs.T
        source = np.concatenate((source, np.column_stack((i - 1, i, i - 1)).ravel()))
        extra = np.concatenate((extra, np.column_stack((b, np.full_like(b, -1), a)).ravel()))
        # each vote's gadget rows right after its base rows
        order = np.argsort((upto[source] - 1) // m, kind="stable")
        source, extra = source[order], extra[order]
    words = upper[source]
    j = np.flatnonzero(extra >= 0)
    words[j, extra[j] // 32] |= (1 << extra[j] % 32).astype(words.dtype)
    return words, source, extra


def _bitsets(words):
    """Each row of packed words (``_packed_rows``) as a ``Bitset``."""
    # a bytes item drops its trailing zero bytes, the high ones here
    items = words.view(f"S{words.itemsize * words.shape[1]}").ravel().tolist()
    return list(map(Bitset.from_bytes, items, itertools.repeat("little")))


def _paper_matrix(profile, notion):
    """The paper's matrix of ``notion``, up to the first vote that forces
    rejection (see ``_levels``), without that vote's rows."""
    bucket, upto, pairs, stop = _levels(profile, notion)
    mat = C1Matrix(profile.m, short_circuit=stop is not None, short_circuit_reason=stop)
    mat.rows = _bitsets(_packed_rows(bucket, upto, pairs, chain=False)[0])
    by_vote = {}
    for k, _, a, b in pairs.tolist():
        by_vote.setdefault(k, []).append((a, b))
    for k in range(len(bucket)):
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
    """Witnessing column permutation of a ``C1Matrix``, or None.  Raises
    ValueError on a row with a column outside ``0..m - 1``."""
    if matrix.short_circuit:
        return None
    m = matrix.m
    if any(mask < 0 or mask >> m for mask in matrix.rows):
        raise ValueError(f"a row holds a column out of range for {m} columns")
    if not m:
        return []
    # a row that constrains is the upper set of a two-bucket vote
    width = (m + 7) // 8
    rows = b"".join(mask.to_bytes(width, "little") for mask in matrix.rows
                    if 1 < mask.bit_count() < m)
    bits = np.unpackbits(np.frombuffer(rows, np.uint8).reshape(-1, width), axis=1,
                         count=m, bitorder="little")
    return _solve(*_buckets(1 - bits.astype(np.int32)), pairs=())


def _solve(bucket, upto, pairs):
    """Witnessing column permutation of the chain rows of the buckets
    (``_packed_rows``), or None.

    The rows stay packed words until they reach the tree.  Duplicates are
    dropped on the words, the distinct rows keeping the order of their first
    occurrence, and so are the rows of fewer than two or of all ``m`` columns.
    With an all-zero column ``z = m`` added, the matrix has consecutive ones
    iff it has circular ones (Tucker 1971), where a row may be replaced by
    its complement; complementing, by XOR, every row that holds a column
    ``c`` and cutting the circle at ``c`` gives a consecutive-ones instance
    on ``m + 1`` columns (Hsu and McConnell 2003, *TCS* 296).  Its frontier,
    rotated so that ``z`` comes last and with ``z`` dropped, is the answer.
    A row ``S`` has ``m + 1 - |S|`` cells once complemented, so the cut is at
    the column that saves the most, the sum of ``2|S| - m - 1`` over the rows
    that hold it (the smallest on a tie), if that is positive.
    """
    m = bucket.shape[1]
    words, source, extra = _packed_rows(bucket, upto, pairs, chain=True)
    nbytes = words.itemsize * words.shape[1]
    _, keep = np.unique(words.view(f"V{nbytes}").ravel(), return_index=True)
    keep.sort()
    # a row's size: its bucket's upper set (``_buckets``), and its extra column
    size = (upto[source[keep]] - 1) % m + 1 + (extra[keep] >= 0)
    constrains = (size > 1) & (size < m)
    keep, saved = keep[constrains], 2 * size[constrains] - (m + 1)
    words, source, extra = words[keep], source[keep], extra[keep]
    # after[i] sums the savings of bucket i and all later ones; summed over a
    # column's bucket in each vote, it counts each row once per column it
    # holds, and once per vote before the row's own, which is taken off
    after = np.cumsum(np.bincount(source, saved, len(upto))[::-1])[::-1]
    gain = after[bucket].sum(axis=0) - saved @ ((upto[source] - 1) // m)
    gain += np.bincount(extra + 1, saved, m + 1)[1:]
    c = int(np.argmax(gain))
    cut = bool(gain[c] > 0)
    if cut:
        everything = np.frombuffer(((1 << (m + 1)) - 1).to_bytes(nbytes, "little"), words.dtype)
        words[(words[:, c // 32] >> c % 32 & 1) == 1] ^= everything
    perm = solve_c1p_sets(_bitsets(words), m + cut)
    if perm is None or not cut:
        return perm
    # z must be a column of the frontier before it is rotated there
    if sorted(perm) != list(range(m + 1)):
        raise InternalError(
            f"consecutive-ones solver returned a frontier that does not order"
            f" the {m + 1} columns"
        )
    z = perm.index(m)
    return perm[z + 1 :] + perm[:z]


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
    bucket, upto, pairs, stop = _levels(profile, notion)
    if stop is not None:
        k, why = stop
        return Verdict.no(Refusal(why, vote_index=k), notion=notion, algorithm="c1p")
    perm = _solve(bucket, upto, pairs)
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
