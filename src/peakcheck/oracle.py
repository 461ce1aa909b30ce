"""Brute-force ground truth by axis enumeration.

The oracle enumerates all axes (halved by reversal symmetry: only the
lexicographically smaller of each axis/reverse pair is kept) and checks the
requested notion directly on each.  The per-vote tests are deliberately
primitive and independent of the recognition algorithms:

* possibly single-peaked: no u-/v-valley substructures,
* single-plateaued / Black: the raw shape test on the rank sequence
  (strictly falling buckets, optionally flat at the minimum, strictly rising),
* necessarily single-peaked: every linear extension of every vote is
  single-peaked, by full extension enumeration.

One survivor loop serves every notion.  It keeps the indices of the axes no
vote has ruled out yet and tests each vote only on those, with ``int8``
position arrays; it stops as soon as no axis is left.  Dropping an axis keeps
the others in enumeration order, so the first survivor is the
lexicographically least witness.

Also hosts the majority-relation utilities used to reproduce the
intransitive-majority counterexample.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ClassError, SizeError
from .model import Axis, Notion, OrderClass, Refusal, Verdict, iter_bits

DEFAULT_BOUND = 8
# 9!/2 = 181,440 axes; 10 would enumerate 1.8 M and 15 would never finish
MAX_BOUND = 9


@functools.lru_cache(maxsize=8)
def _axes_and_positions(m):
    """All axes (lex order, reversal-deduplicated), one per column, and each
    candidate's position on each: read-only ``int8`` arrays of m rows.

    One column per axis keeps each row contiguous, so a test on the live
    axes runs over long rows rather than over short ones.
    """
    perms = np.zeros((1, 0), np.int8)
    for k in range(1, m + 1):
        # the permutations of k items in lex order: each first item in turn,
        # followed by those of k - 1 items relabelled to skip it
        first = np.repeat(np.arange(k, dtype=np.int8), len(perms))
        rest = np.tile(perms, (k, 1))
        rest += rest >= first[:, None]
        perms = np.column_stack((first, rest))
    if m >= 2:
        # a permutation is the lex-smaller of its reversal pair iff its first
        # item is smaller than its last
        perms = perms[perms[:, 0] < perms[:, -1]]
    axes = perms.T.copy()
    pos = np.empty_like(axes)
    pos[axes, np.arange(len(perms))] = np.arange(m, dtype=np.int8)[:, None]
    axes.flags.writeable = pos.flags.writeable = False
    return axes, pos


def _rank_steps(vote, axes):
    """Rank differences between neighbours along each axis (column)."""
    return np.diff(np.asarray(vote.ranks, dtype=np.int8)[axes], axis=0)


def _psp_bad_axes(vote, axes, pos):
    """Axes on which ``vote`` contains a valley."""
    if vote.has_ranks():
        d = _rank_steps(vote, axes)
        rose = np.maximum.accumulate(d > 0, axis=0)
        return np.any(rose[:-1] & (d[1:] < 0), axis=0)
    ups = [[] for _ in range(vote.m)]
    for a, row in enumerate(vote.rows()):
        for c in iter_bits(row):
            ups[c].append(a)
    dominated = [c for c, up in enumerate(ups) if up]
    bad = np.zeros(pos.shape[1], dtype=bool)
    # u-valley: a dominator of c left of both c and d and a dominator of d
    # right of both; with c == d it is a v-valley, c between two dominators
    p = pos[dominated]
    hi = np.array([pos[ups[d]].max(axis=0) for d in dominated])
    for c, pc in zip(dominated, p):
        lo = pos[ups[c]].min(axis=0)
        bad |= ((lo < np.minimum(pc, p)) & (hi > np.maximum(pc, p))).any(axis=0)
    return bad


def _plateaued_bad_axes(vote, axes, pos):
    """Raw shape fails: steps must read (falling)* (flat)* (rising)*."""
    d = _rank_steps(vote, axes)
    seen_flat_or_rise = np.maximum.accumulate(d >= 0, axis=0)
    seen_rise = np.maximum.accumulate(d > 0, axis=0)
    bad = np.any(seen_flat_or_rise[:-1] & (d[1:] < 0), axis=0)
    bad |= np.any(seen_rise[:-1] & (d[1:] == 0), axis=0)
    return bad


def _black_bad_axes(vote, axes, pos):
    """Raw shape fails: steps must read (falling)* (rising)* with no flat step."""
    d = _rank_steps(vote, axes)
    bad = np.any(d == 0, axis=0)
    seen_rise = np.maximum.accumulate(d > 0, axis=0)
    bad |= np.any(seen_rise[:-1] & (d[1:] < 0), axis=0)
    return bad


def _vote_necessarily_sp(vote, axis_order):
    positions = {c: i for i, c in enumerate(axis_order)}
    for ext in vote.extensions():
        seq = [0] * len(ext)
        for r, c in enumerate(ext):
            seq[positions[c]] = r
        rose = False
        prev = seq[0]
        ok = True
        for x in seq[1:]:
            if x > prev:
                rose = True
            elif x < prev and rose:
                ok = False
                break
            prev = x
        if not ok:
            return False
    return True


def _necessary_bad_axes(vote, axes, pos):
    """Axes on which some linear extension of ``vote`` has a valley."""
    return np.array(
        [not _vote_necessarily_sp(vote, axis) for axis in axes.T.tolist()],
        dtype=bool,
    )


# per notion: the test naming the axes (columns) one vote rules out
_BAD_AXES = {
    Notion.PSP: _psp_bad_axes,
    Notion.PLATEAUED: _plateaued_bad_axes,
    Notion.BLACK: _black_bad_axes,
    Notion.NECESSARY: _necessary_bad_axes,
}


def _live_axes(profile, axes, pos, bad_axes):
    """Indices of the axes on which no vote is bad, in enumeration order.

    Each vote is tested only on the axes still standing, and the loop stops
    once none is left.
    """
    live = np.arange(axes.shape[1])
    for vote in profile.votes:
        if len(live) == 0:
            break
        bad = bad_axes(vote, axes.take(live, axis=1), pos.take(live, axis=1))
        live = live[~bad]
    return live


def oracle_recognize(profile, notion=Notion.PSP, bound=DEFAULT_BOUND):
    """Exhaustive recognition; returns the lexicographically least witness.

    The least witness is taken after reversal-symmetry reduction (for each
    axis/reverse pair only the lexicographically smaller one is enumerated).
    ``bound`` may not exceed ``MAX_BOUND``.
    """
    notion = Notion(notion)
    if bound > MAX_BOUND:
        raise SizeError(f"oracle bound {bound} exceeds the maximum {MAX_BOUND}")
    if profile.m > bound:
        raise SizeError(f"m={profile.m} exceeds the oracle bound {bound}")
    if notion != Notion.PSP and profile.order_class() > OrderClass.WEAK:
        what = (
            "necessarily single-peaked is"
            if notion == Notion.NECESSARY
            else "plateau-based notions are"
        )
        raise ClassError(f"{what} defined for weak orders only")
    axes, pos = _axes_and_positions(profile.m)
    live = _live_axes(profile, axes, pos, _BAD_AXES[notion])
    if len(live) == 0:
        return Verdict.no(
            Refusal("every axis contains a forbidden substructure"),
            notion=notion,
            algorithm="oracle",
        )
    return Verdict.yes(
        Axis(tuple(int(c) for c in axes[:, live[0]])), notion=notion, algorithm="oracle"
    )


def extension_enumerate(vote, bound=DEFAULT_BOUND):
    """All linear extensions of a vote, streamed as best-to-worst tuples."""
    if vote.m > bound:
        raise SizeError(f"m={vote.m} exceeds the extension bound {bound}")
    return vote.extensions()


def majority_relation(profile):
    """Strict pairwise majority relation as a set of (winner, loser) pairs."""
    if profile.order_class() > OrderClass.WEAK:
        raise ClassError("the majority relation is computed for weak orders only")
    m = profile.m
    wins = [[0] * m for _ in range(m)]
    for vote, mult in zip(profile.votes, profile.multiplicities):
        ranks = vote.ranks
        for a in range(m):
            for b in range(m):
                if ranks[a] < ranks[b]:
                    wins[a][b] += mult
    return {
        (a, b)
        for a in range(m)
        for b in range(m)
        if a != b and wins[a][b] > wins[b][a]
    }


def weak_condorcet_winners(profile):
    """Candidates not beaten by any other under strict pairwise majority."""
    beaten = {b for (_, b) in majority_relation(profile)}
    return frozenset(range(profile.m)) - beaten
