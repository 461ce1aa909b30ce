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

Every axis is verified here, in two steps.  First one row rule per notion
flags the rows of a rank matrix whose columns are in axis order, reading the
steps between axis neighbours (a fall is a step to a better bucket):

* psp (:func:`v_valley_rows`): a rise followed by a fall;
* plateaued (:func:`plateaued_rows`): steps that do not read
  (falling)* (flat)* (rising)*;
* Black (:func:`black_rows`): a v-valley, or any flat step.

A weak-or-tighter profile is read from its rank matrix, a block of cells at
a time; any other profile vote by vote, where a pair-based vote gets one
u/v-valley test.  Then the first flagged vote alone is scanned for its
witness over candidate pairs, triples or quadruples in lexicographic axis
position, so certificates are deterministic.  A ranked vote is scanned for a
v-valley only when :func:`v_valley_rows` flags one.

Every engine answers "yes" through :func:`verified`, which re-checks the
engine's axis here and turns a bad one into an :class:`InternalError`.
"""

from __future__ import annotations

from itertools import combinations, pairwise

import numpy as np

from .errors import AxisError, ClassError, InternalError, WitnessError
from .model import (
    Axis,
    Notion,
    OrderClass,
    PreferenceOrder,
    Refusal,
    ValleyWitness,
    Verdict,
    WitnessKind,
    iter_bits,
)

# Rank cells handled at once by the verifier's axis-ordered copy of the rank
# matrix and by guided's gathered and threshold rows.  Built whole, each took
# fresh pages from the system on every call at m = 10,000.
_BLOCK_CELLS = 1 << 17

# ---------------------------------------------------------------------------
# row rules (one vote per row, columns in axis order)
# ---------------------------------------------------------------------------


def v_valley_rows(ranks):
    """Per row of a rank matrix: whether it holds a v-valley, a strict rise
    followed by a strict fall."""
    step = np.diff(ranks, axis=1)
    rose = np.logical_or.accumulate(step > 0, axis=1)
    return np.any(rose[:, :-1] & (step[:, 1:] < 0), axis=1)


def plateaued_rows(ranks):
    """Per row: whether it is not single-plateaued, i.e. a fall follows a
    flat or rising step, or a flat step follows a rising one."""
    step = np.diff(ranks, axis=1)
    rose = np.logical_or.accumulate(step > 0, axis=1)
    level = np.logical_or.accumulate(step >= 0, axis=1)
    after = step[:, 1:]
    return np.any((level[:, :-1] & (after < 0)) | (rose[:, :-1] & (after == 0)), axis=1)


def black_rows(ranks):
    """Per row: whether it holds a v-valley or an axis-adjacent tie."""
    return v_valley_rows(ranks) | np.any(np.diff(ranks, axis=1) == 0, axis=1)


def _rule(notion):
    # looked up when a check runs, so a replaced module attribute is used
    if notion == Notion.PSP:
        return v_valley_rows
    if notion == Notion.BLACK:
        return black_rows
    return plateaued_rows


def _rank_row(vote, order):
    """The vote's buckets in axis order, as a one-row rank matrix."""
    return np.asarray(vote.ranks, np.int32)[None, order]


def _upper_positions(vote, order):
    """Per candidate: (min, max) axis position of its strict dominators, the
    first row holding it in a walk along the axis from either end."""
    m, rows = vote.m, vote.rows()
    lo, hi = [m] * m, [-1] * m
    for bound, walk in ((lo, range(m)), (hi, range(m - 1, -1, -1))):
        seen = 0
        for p in walk:
            row = rows[order[p]]
            for b in iter_bits(row & ~seen):
                bound[b] = p
            seen |= row
    return lo, hi


def _pair_valley(vote, axis):
    """Whether the vote has a u- or v-valley: candidates b and c (b == c for
    a v-valley) with a dominator of b left of both and one of c right of
    both."""
    lo, hi = map(np.array, _upper_positions(vote, axis.order))
    pos = np.array(axis.positions())
    b = np.flatnonzero(lo < pos)
    c = np.flatnonzero(hi > pos)
    return bool(np.any((lo[b, None] < pos[c]) & (hi[c] > pos[b, None])))


def _first_flagged(profile, axis, rule):
    """Index of the first vote ``rule`` flags on ``axis``, or None."""
    order = np.asarray(axis.order, np.intp)
    # votes all have rank buckets exactly when the profile is weak or tighter
    if profile.order_class() <= OrderClass.WEAK:
        ranks = profile.rank_matrix()
        rows = max(1, _BLOCK_CELLS // max(1, profile.m))
        for start in range(0, len(ranks), rows):
            hit = np.flatnonzero(rule(ranks[start : start + rows][:, order]))
            if len(hit):
                return start + int(hit[0])
        return None
    for idx, vote in enumerate(profile.votes):
        if vote.has_ranks():
            flagged = rule(_rank_row(vote, order))[0]
        else:
            flagged = _pair_valley(vote, axis)
        if flagged:
            return idx
    return None


def top_class_refusal(profile):
    """The refusal naming the first vote of a weak-or-tighter profile whose
    top indifference class has more than two members, or None."""
    wide = np.flatnonzero(np.count_nonzero(profile.rank_matrix() == 0, axis=1) > 2)
    if len(wide):
        return Refusal("top indifference class larger than two", int(wide[0]))
    return None


# ---------------------------------------------------------------------------
# witness construction (lexicographic axis-position scans)
# ---------------------------------------------------------------------------


def _lex_v_valley(vote, axis, vote_index):
    order = axis.order
    for i, j in combinations(range(len(order) - 1), 2):
        a, b = order[i], order[j]
        if vote.prefers(a, b):
            for c in order[j + 1 :]:
                if vote.prefers(c, b):
                    return ValleyWitness(WitnessKind.V_VALLEY, vote_index, (a, b, c))
    return None


def _lex_u_valley(vote, axis, vote_index):
    p = vote.prefers
    for a, b, c, d in combinations(axis.order, 4):
        if (p(a, b) and p(d, c)) or (p(a, c) and p(d, b)):
            return ValleyWitness(WitnessKind.U_VALLEY, vote_index, (a, b, c, d))
    return None


def has_v_valley(vote, axis, vote_index=0):
    """First v-valley of ``vote`` on ``axis`` in lexicographic position order;
    a ranked vote is scanned only when its v-valley row rule flags one."""
    if vote.has_ranks() and not v_valley_rows(_rank_row(vote, list(axis.order)))[0]:
        return None
    return _lex_v_valley(vote, axis, vote_index)


def has_u_valley(vote, axis, vote_index=0):
    """First u-valley of ``vote`` on ``axis`` in lexicographic position order.

    Weak orders can contain u-valleys too, but for them a u-valley always
    comes with a v-valley on the same axis, so recognition only needs this
    test for genuinely partial votes.
    """
    if not _pair_valley(vote, axis):
        return None
    return _lex_u_valley(vote, axis, vote_index)


def has_nonpeak_plateau(vote, axis, vote_index=0):
    """First nonpeak plateau of ``vote`` on ``axis``."""
    p = vote.prefers
    for x, y, z in combinations(axis.order, 3):
        if (p(x, y) and not p(y, z) and not p(z, y)) or (
            p(z, y) and not p(y, x) and not p(x, y)
        ):
            return ValleyWitness(WitnessKind.NONPEAK_PLATEAU, vote_index, (x, y, z))
    return None


def has_plateau(vote, axis, vote_index=0):
    """First axis-adjacent indifferent pair."""
    r = vote.ranks
    for a, b in pairwise(axis.order):
        if r[a] == r[b]:
            return ValleyWitness(WitnessKind.PLATEAU, vote_index, (a, b))
    return None


def _witness(notion, vote, axis, vote_index):
    """The flagged vote's first v-valley, else its first substructure of the
    notion's own kind."""
    witness = has_v_valley(vote, axis, vote_index)
    if witness is None:
        if notion == Notion.BLACK:
            witness = has_plateau(vote, axis, vote_index)
        elif notion != Notion.PSP:
            witness = has_nonpeak_plateau(vote, axis, vote_index)
        elif not vote.has_ranks():
            witness = _lex_u_valley(vote, axis, vote_index)
    if witness is None:
        raise InternalError(f"axis check flagged vote {vote_index} but found no witness")
    return witness


# ---------------------------------------------------------------------------
# the verifiers
# ---------------------------------------------------------------------------


def _check(profile, axis, notion):
    """Whether ``profile`` has ``notion`` on ``axis``: the first flagged
    vote's witness, or the axis."""
    if axis.m != profile.m:
        raise AxisError(
            f"axis orders {axis.m} candidates, the profile has {profile.m}"
        )
    if notion != Notion.PSP and profile.order_class() > OrderClass.WEAK:
        raise ClassError("plateau-based checks are defined for weak orders only")
    if notion == Notion.NECESSARY:
        refusal = top_class_refusal(profile)
        if refusal is not None:
            return Verdict.no(refusal, notion=notion, algorithm="axis-check")
    idx = _first_flagged(profile, axis, _rule(notion))
    if idx is None:
        return Verdict.yes(axis, notion=notion, algorithm="axis-check")
    witness = _witness(notion, profile.vote(idx), axis, idx)
    return Verdict.no(witness, notion=notion, algorithm="axis-check")


def is_possibly_sp_on_axis(profile, axis):
    """Possibly single-peaked with respect to ``axis``.

    Weak-or-tighter votes only need the v-valley test; u-valleys are checked
    for genuinely partial votes.
    """
    return _check(profile, axis, Notion.PSP)


def check_plateaued_on_axis(profile, axis):
    """Single-plateaued w.r.t. ``axis``: no v-valley, no nonpeak plateau."""
    return _check(profile, axis, Notion.PLATEAUED)


def check_black_on_axis(profile, axis):
    """Black single-peaked w.r.t. ``axis``: no v-valley, no plateau at all."""
    return _check(profile, axis, Notion.BLACK)


def check_necessary_on_axis(profile, axis):
    """Necessarily single-peaked w.r.t. ``axis``.

    Equivalent to single-plateaued with plateaus of size at most two; the
    plateau of a single-plateaued vote is its top indifference class, whose
    size does not depend on the axis.
    """
    return _check(profile, axis, Notion.NECESSARY)


def check_on_axis(profile, axis, notion=Notion.PSP):
    """Dispatch to the verifier for ``notion``."""
    notion = Notion(notion)
    if notion == Notion.PSP:
        return is_possibly_sp_on_axis(profile, axis)
    if notion == Notion.PLATEAUED:
        return check_plateaued_on_axis(profile, axis)
    if notion == Notion.BLACK:
        return check_black_on_axis(profile, axis)
    return check_necessary_on_axis(profile, axis)


def verified(profile, order, algorithm, notion=Notion.PSP):
    """The "yes" of engine ``algorithm``: ``order`` as an axis that the
    ``notion`` verifier accepts.  An order that is not a permutation of the
    profile's candidates, or an axis the verifier rejects, is a fault of the
    engine and raises :class:`InternalError`."""
    notion = Notion(notion)
    try:
        axis = Axis(order)
    except ValueError:
        axis = None
    if axis is None or axis.m != profile.m:
        raise InternalError(
            f"{algorithm} engine returned an order that is not a permutation"
            f" of the profile's {profile.m} candidates"
        )
    if not check_on_axis(profile, axis, notion):
        raise InternalError(
            f"{algorithm} engine produced an axis that fails the {notion.value} check"
        )
    return Verdict.yes(axis, notion=notion, algorithm=algorithm)


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
