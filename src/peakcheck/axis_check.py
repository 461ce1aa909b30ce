"""Verification of single-peakedness notions against a given axis.

A vote blocks an axis through a small set of forbidden substructures:

* v-valley: ``c1 |> c2 |> c3`` on the axis with ``c1 > c2`` and ``c3 > c2``.
* u-valley: ``a |> {b, c} |> d`` with ``a > b`` and ``d > c`` (four distinct
  candidates; only relevant for genuinely partial votes).
* plateau: two axis-adjacent candidates the vote is indifferent between.
* nonpeak plateau: ``a |> b |> c`` with ``a > b ~ c`` or ``c > b ~ a``.

Possibly single-peaked = no u/v-valley; single-plateaued = no v-valley and no
nonpeak plateau; Black = no v-valley and no plateau; necessarily single-peaked
= single-plateaued with every top indifference class of size at most two.

Witness searches scan candidate triples/quadruples in lexicographic axis
position, so certificates are deterministic.
"""

from __future__ import annotations

import numpy as np

from .errors import AxisError, ClassError, WitnessError
from .model import (
    Axis,
    Notion,
    OrderClass,
    PreferenceOrder,
    Profile,
    Refusal,
    ValleyWitness,
    Verdict,
    WitnessKind,
)

# ---------------------------------------------------------------------------
# fast existence tests (no witness construction)
# ---------------------------------------------------------------------------


def _rank_seq(vote, axis):
    r = vote.ranks
    return [r[c] for c in axis]


def _v_valley_exists_ranked(seq):
    """Strict rise followed by a strict fall in the rank sequence."""
    rose = False
    prev = seq[0]
    for x in seq[1:]:
        if x > prev:
            rose = True
        elif x < prev and rose:
            return True
        prev = x
    return False


def v_valley_rows(ranks):
    """Per row of a rank matrix (one vote per row, columns in axis order):
    whether it holds a v-valley, by the rule of :func:`_v_valley_exists_ranked`
    applied to every row at once."""
    step = np.diff(ranks, axis=1)
    rose = np.logical_or.accumulate(step > 0, axis=1)
    return np.any(rose[:, :-1] & (step[:, 1:] < 0), axis=1)


def _upper_positions(vote, pos):
    """Per candidate: (min, max) axis position of its strict dominators, from
    one pass over the vote's pairs."""
    m = vote.m
    lo = [m] * m
    hi = [-1] * m
    for a, b in vote.pairs():
        pa = pos[a]
        if pa < lo[b]:
            lo[b] = pa
        if pa > hi[b]:
            hi[b] = pa
    return lo, hi


def _v_valley_exists_pairs(vote, pos):
    lo, hi = _upper_positions(vote, pos)
    return any(lo[c] < pos[c] < hi[c] for c in range(vote.m))


def _u_valley_exists_pairs(vote, pos):
    lo, hi = _upper_positions(vote, pos)
    m = vote.m
    for b in range(m):
        if lo[b] >= m:
            continue
        for c in range(m):
            if c == b or hi[c] < 0:
                continue
            inner_lo = min(pos[b], pos[c])
            inner_hi = max(pos[b], pos[c])
            if lo[b] < inner_lo and hi[c] > inner_hi:
                return True
    return False


# ---------------------------------------------------------------------------
# witness construction (lexicographic axis-position scans)
# ---------------------------------------------------------------------------


def _lex_v_valley(vote, axis, vote_index):
    order = axis.order
    m = len(order)
    for i in range(m - 2):
        ci = order[i]
        for j in range(i + 1, m - 1):
            cj = order[j]
            if not vote.prefers(ci, cj):
                continue
            for k in range(j + 1, m):
                if vote.prefers(order[k], cj):
                    return ValleyWitness(
                        WitnessKind.V_VALLEY, vote_index, (ci, cj, order[k])
                    )
    return None


def _lex_u_valley(vote, axis, vote_index):
    order = axis.order
    m = len(order)
    for i in range(m - 3):
        a = order[i]
        for j in range(i + 1, m - 2):
            for k in range(j + 1, m - 1):
                for l in range(k + 1, m):
                    d = order[l]
                    b, c = order[j], order[k]
                    if (vote.prefers(a, b) and vote.prefers(d, c)) or (
                        vote.prefers(a, c) and vote.prefers(d, b)
                    ):
                        return ValleyWitness(
                            WitnessKind.U_VALLEY, vote_index, (a, b, c, d)
                        )
    return None


def has_v_valley(vote, axis, vote_index=0):
    """First v-valley of ``vote`` on ``axis`` in lexicographic position order."""
    if vote.has_ranks():
        if not _v_valley_exists_ranked(_rank_seq(vote, axis)):
            return None
    else:
        if not _v_valley_exists_pairs(vote, axis.positions()):
            return None
    return _lex_v_valley(vote, axis, vote_index)


def has_u_valley(vote, axis, vote_index=0):
    """First u-valley of ``vote`` on ``axis`` in lexicographic position order.

    Weak orders can contain u-valleys too, but for them a u-valley always
    comes with a v-valley on the same axis, so recognition only needs this
    test for genuinely partial votes.
    """
    if not _u_valley_exists_pairs(vote, axis.positions()):
        return None
    return _lex_u_valley(vote, axis, vote_index)


def _vote_psp_ok(vote, axis, pos):
    if vote.has_ranks():
        return not _v_valley_exists_ranked(_rank_seq(vote, axis))
    return not (
        _v_valley_exists_pairs(vote, pos) or _u_valley_exists_pairs(vote, pos)
    )


def is_possibly_sp_on_axis(profile, axis):
    """Possibly single-peaked with respect to ``axis``.

    Weak-or-tighter votes only need the v-valley test; u-valleys are checked
    for genuinely partial votes.
    """
    pos = axis.positions()
    for idx, vote in enumerate(profile.votes):
        if not _vote_psp_ok(vote, axis, pos):
            witness = has_v_valley(vote, axis, idx) or has_u_valley(vote, axis, idx)
            return Verdict.no(witness, algorithm="axis-check")
    return Verdict.yes(axis, algorithm="axis-check")


# ---------------------------------------------------------------------------
# plateau-based notions (weak orders)
# ---------------------------------------------------------------------------


def _nonpeak_plateau_exists(seq):
    m = len(seq)
    first = {}
    last = {}
    for i, x in enumerate(seq):
        first.setdefault(x, i)
        last[x] = i
    # strictly better somewhere left + same rank somewhere right, or mirrored
    best = seq[0]
    for j in range(1, m):
        if best < seq[j] and last[seq[j]] > j:
            return True
        best = min(best, seq[j])
    best = seq[-1]
    for j in range(m - 2, -1, -1):
        if best < seq[j] and first[seq[j]] < j:
            return True
        best = min(best, seq[j])
    return False


def _lex_nonpeak_plateau(vote, axis, vote_index):
    order = axis.order
    m = len(order)
    for i in range(m - 2):
        for j in range(i + 1, m - 1):
            for k in range(j + 1, m):
                x, y, z = order[i], order[j], order[k]
                if vote.prefers(x, y) and not vote.prefers(y, z) and not vote.prefers(z, y):
                    return ValleyWitness(
                        WitnessKind.NONPEAK_PLATEAU, vote_index, (x, y, z)
                    )
                if vote.prefers(z, y) and not vote.prefers(y, x) and not vote.prefers(x, y):
                    return ValleyWitness(
                        WitnessKind.NONPEAK_PLATEAU, vote_index, (x, y, z)
                    )
    return None


def has_nonpeak_plateau(vote, axis, vote_index=0):
    if not _nonpeak_plateau_exists(_rank_seq(vote, axis)):
        return None
    return _lex_nonpeak_plateau(vote, axis, vote_index)


def has_plateau(vote, axis, vote_index=0):
    """First axis-adjacent indifferent pair."""
    seq = _rank_seq(vote, axis)
    for i in range(len(seq) - 1):
        if seq[i] == seq[i + 1]:
            return ValleyWitness(
                WitnessKind.PLATEAU, vote_index, (axis[i], axis[i + 1])
            )
    return None


def _require_weak(profile):
    if profile.order_class() > OrderClass.WEAK:
        raise ClassError("plateau-based checks are defined for weak orders only")


def check_plateaued_on_axis(profile, axis):
    """Single-plateaued w.r.t. ``axis``: no v-valley, no nonpeak plateau."""
    _require_weak(profile)
    for idx, vote in enumerate(profile.votes):
        w = has_v_valley(vote, axis, idx) or has_nonpeak_plateau(vote, axis, idx)
        if w is not None:
            return Verdict.no(w, notion=Notion.PLATEAUED, algorithm="axis-check")
    return Verdict.yes(axis, notion=Notion.PLATEAUED, algorithm="axis-check")


def check_black_on_axis(profile, axis):
    """Black single-peaked w.r.t. ``axis``: no v-valley, no plateau at all."""
    _require_weak(profile)
    for idx, vote in enumerate(profile.votes):
        w = has_v_valley(vote, axis, idx) or has_plateau(vote, axis, idx)
        if w is not None:
            return Verdict.no(w, notion=Notion.BLACK, algorithm="axis-check")
    return Verdict.yes(axis, notion=Notion.BLACK, algorithm="axis-check")


def check_necessary_on_axis(profile, axis):
    """Necessarily single-peaked w.r.t. ``axis``.

    Equivalent to single-plateaued with plateaus of size at most two; the
    plateau of a single-plateaued vote is its top indifference class, whose
    size does not depend on the axis.
    """
    _require_weak(profile)
    for idx, vote in enumerate(profile.votes):
        top = vote.buckets()[0]
        if len(top) > 2:
            return Verdict.no(
                Refusal("top indifference class larger than two", idx),
                notion=Notion.NECESSARY,
                algorithm="axis-check",
            )
    inner = check_plateaued_on_axis(profile, axis)
    if not inner:
        return Verdict.no(inner.certificate, notion=Notion.NECESSARY, algorithm="axis-check")
    return Verdict.yes(axis, notion=Notion.NECESSARY, algorithm="axis-check")


def check_on_axis(profile, axis, notion=Notion.PSP):
    """Dispatch to the verifier for ``notion``."""
    notion = Notion(notion)
    if axis.m != profile.m:
        raise AxisError(
            f"axis orders {axis.m} candidates, the profile has {profile.m}"
        )
    if notion == Notion.PSP:
        return is_possibly_sp_on_axis(profile, axis)
    if notion == Notion.PLATEAUED:
        return check_plateaued_on_axis(profile, axis)
    if notion == Notion.BLACK:
        return check_black_on_axis(profile, axis)
    return check_necessary_on_axis(profile, axis)


# ---------------------------------------------------------------------------
# constructive extension (used to certify possibly-single-peakedness)
# ---------------------------------------------------------------------------


def extend_to_sp_total_order(vote, axis):
    """A total order extending ``vote`` that is single-peaked w.r.t. ``axis``.

    Built bottom-up: the next-lowest candidate is the rightmost remaining one
    if that is minimal in the restricted vote, else the leftmost.  Requires
    the vote to be free of u- and v-valleys on ``axis``; raises
    :class:`WitnessError` with the offending valley otherwise.
    """
    w = has_v_valley(vote, axis) or (
        None if vote.has_ranks() else has_u_valley(vote, axis)
    )
    if w is not None:
        raise WitnessError("vote contains a valley on this axis", witness=w)
    remaining = list(axis.order)
    bottom_up = []
    while remaining:
        right = remaining[-1]
        if not any(vote.prefers(right, other) for other in remaining):
            bottom_up.append(remaining.pop())
        else:
            bottom_up.append(remaining.pop(0))
    return PreferenceOrder.from_total(bottom_up[::-1])
