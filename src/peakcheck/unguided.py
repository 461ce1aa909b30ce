"""The Unguided Algorithm: recognition of top-order profiles.

Works per connected component of the co-rankedness graph (candidates joined
when some vote ranks both).  Each component is solved on its gather of the
profile's rank matrix alone; each vote's chain, its ranked candidates best
first, is read from that matrix once.  Within a component, each candidate is
tried as the leftmost axis candidate, fewest-ranked first (ties by id): a
vote's ranked candidates form an axis interval around its peak, so an axis
end lies in few of them.  The order is free, because every "yes" axis leaves
through ``axis_check.verified`` and a "no" still tries every start.  The
axis grows rightwards by absorbing votes whose peak is already placed
(``oplus`` appends the vote's chain and checks its row).  When no vote peaks
at the current right end, an intersecting vote is fetched and the stretch of
candidates it ranks above the right end is ordered by a pinned run of the
guided algorithm.  That subproblem is one gather of the matrix's columns
plus a fresh boundary candidate ``x``: in every vote, ``x`` takes the place
of the best-ranked candidate that is neither placed nor in the stretch.  The
fetched vote ranks ``x`` last and the axis's right end second-to-last, so
the pinned run's axis starts at that right end and ends at ``x``.
"""

from __future__ import annotations

import numpy as np

from . import axis_check
from .errors import ClassError, InternalError
from .guided import guided_recognize
from .model import OrderClass, Profile, Refusal, Verdict, iter_bits


def _require_top(profile):
    if profile.order_class() > OrderClass.TOP:
        raise ClassError("the unguided algorithm requires top orders")


def _bottoms(ranks):
    """Each row's bottom level in a matrix of dense top orders: its top rank,
    or m (a new level) for a total vote.  A row ranks exactly the candidates
    whose rank is less than that level, so it is also the row's chain length."""
    top = ranks.max(axis=1)
    return np.where(top == ranks.shape[1] - 1, ranks.shape[1], top)


def _chains(ranks):
    """Each row's ranked candidates, best first, from a matrix of dense top
    orders: ranks 0, 1, … in order, plus the bottom level only for a total
    vote."""
    order = np.argsort(ranks, axis=1, kind="stable")
    return [row[:k] for row, k in zip(order.tolist(), _bottoms(ranks).tolist())]


def connected_components(profile):
    """Partition of the candidates by co-rankedness, with each part's votes.

    Returns a list of (candidates, vote_indices) pairs; candidates sorted
    ascending, parts ordered by smallest member.  Votes ranking nothing are
    assigned to no part.
    """
    _require_top(profile)
    parts = {}  # disjoint candidate masks -> vote indices; a chain absorbs those it meets
    for k, chain in enumerate(_chains(profile.rank_matrix())):
        if not chain:
            continue
        mask, votes = sum(1 << c for c in chain), [k]
        for part in [p for p in parts if p & mask]:
            mask |= part
            votes += parts.pop(part)
        parts[mask] = votes
    covered = sum(parts)  # the union of disjoint masks
    parts.update((1 << c, []) for c in range(profile.m) if not covered >> c & 1)
    return [
        (list(iter_bits(p)), sorted(parts[p])) for p in sorted(parts, key=lambda p: p & -p)
    ]


def oplus(axis_candidates, chain, ranks):
    """Extend a partial axis by a vote's unplaced ranked candidates.

    ``chain`` is the vote's ranked candidates, best first, and ``ranks`` its
    row of the rank matrix.  Appends, in chain order, the candidates not yet
    on the axis, then demands the vote be possibly single-peaked on the
    extended partial axis (restricted to the placed candidates).  Returns
    the new candidate list, or None when incompatible.
    """
    placed = set(axis_candidates)
    new_axis = list(axis_candidates) + [c for c in chain if c not in placed]
    if axis_check.v_valley_rows(ranks[None, new_axis])[0]:
        return None
    return new_axis


def _subproblem(ranks, keep, outside):
    """The guided subproblem on the ``keep`` columns plus a last column x.

    In each row, x takes the place of the best-ranked ``outside``
    candidate, or goes to the bottom when the row ranks none: x holds the
    best rank among the ``outside`` columns, capped at the row's bottom
    level, which is m (a new level) for a total vote and the top level
    otherwise.
    """
    m = ranks.shape[1]
    x = np.minimum(_bottoms(ranks), ranks[:, outside].min(axis=1, initial=m))
    return Profile.from_rank_matrix(np.column_stack((ranks[:, keep], x)))


class IntersectionIndex:
    """Per candidate, the votes whose strictly-above sets are set-maximal,
    and the votes peaking at it (``peak_votes``, in row order).

    Built from the rank matrix of a top-order profile, as ``_chains`` reads
    it; it keeps the matrix as ``ranks`` and each row's chain as ``chains``.

    On a single-peaked axis the candidates strictly above ``c`` in a vote form
    a contiguous stretch directly left or right of ``c``, so at most two
    distinct maximal sets may exist per candidate and they must be disjoint;
    otherwise the component is not possibly single-peaked.  Only votes
    ranking ``c`` pin their above-set next to ``c``, and there that set is a
    prefix of the vote's chain.
    """

    def __init__(self, ranks):
        self.ranks = ranks
        self.refusal = None
        self.maximal = []
        self.chains = _chains(ranks)
        self.ranked_masks = []
        self.peak_votes = {}
        above = [{} for _ in range(ranks.shape[1])]  # above-set mask -> first vote
        for k, chain in enumerate(self.chains):
            mask = 0
            for c in chain:
                above[c].setdefault(mask, k)
                mask |= 1 << c
            self.ranked_masks.append(mask)
            if chain:
                self.peak_votes.setdefault(chain[0], []).append(k)
        for c, sets in enumerate(above):
            # largest first: a strict superset is kept before its subsets
            maximal = []
            for s in sorted(sets, key=int.bit_count, reverse=True):
                if s and not any(s & t == s for t in maximal):
                    maximal.append(s)
            maximal.sort(key=sets.__getitem__)  # by first vote
            if len(maximal) > 2:
                self.refusal = Refusal(
                    "three set-maximal above-sets for one candidate",
                    detail=f"candidate {c}",
                )
                return
            if len(maximal) == 2 and (maximal[0] & maximal[1]):
                self.refusal = Refusal(
                    "two overlapping set-maximal above-sets",
                    detail=f"candidate {c}",
                )
                return
            self.maximal.append([(s, sets[s]) for s in maximal])


def intersecting_vote(index, axis_candidates):
    """A vote ranking both a placed and an unplaced candidate.

    Prefers the set-maximal votes of the rightmost placed candidate, picking
    the one that does not rank the second-rightmost candidate above it; falls
    back to a scan in row order.  Returns a vote index, or raises
    :class:`InternalError` if none exists (impossible for a connected
    component).
    """
    ranks = index.ranks
    placed_mask = 0
    for c in axis_candidates:
        placed_mask |= 1 << c
    a_i = axis_candidates[-1]
    prev = axis_candidates[-2] if len(axis_candidates) >= 2 else None

    def qualifies(k):
        rm = index.ranked_masks[k]
        return (rm & placed_mask) != 0 and (rm & ~placed_mask) != 0

    candidates = [k for (_, k) in index.maximal[a_i] if qualifies(k)]
    if candidates:
        if prev is not None:
            preferred = [k for k in candidates if ranks[k, prev] >= ranks[k, a_i]]
            if preferred:
                return preferred[0]
        return candidates[0]
    for k in range(len(index.chains)):
        if qualifies(k):
            return k
    raise InternalError(
        "unguided engine found no intersecting vote; component is disconnected"
    )


def _solve_component(ranks):
    """Axis for one component's gathered rank matrix, or None: the first one
    grown from a leftmost candidate, tried fewest-ranked first, ties by id.

    A candidate's count is the number of votes ranking it (a total vote
    ranks every candidate).  A vote's ranked candidates form an axis
    interval around its peak, so an axis end lies in few of them, and a
    "yes" component stops after a start or two.  The order is free: a "yes"
    axis is verified by ``axis_check.verified`` whichever start found it,
    and a "no" tries every start."""
    index = IntersectionIndex(ranks)
    if index.refusal is not None:
        return None
    counts = (ranks < _bottoms(ranks)[:, None]).sum(axis=0)
    for c_start in np.argsort(counts, kind="stable").tolist():
        axis = _grow_axis(index, c_start)
        if axis is not None:
            return axis
    return None


def _grow_axis(index, c_start):
    """The axis grown from ``c_start`` over the index's matrix, or None.
    Axis candidates are distinct, so each vote is absorbed once, at its peak."""
    ranks = index.ranks
    m = ranks.shape[1]
    axis = [c_start]
    i = 0
    while i < len(axis):
        a_i = axis[i]
        for k in index.peak_votes.get(a_i, ()):
            axis = oplus(axis, index.chains[k], ranks[k])
            if axis is None:
                return None
        if len(axis) == i + 1 and len(axis) < m:
            k = intersecting_vote(index, axis)
            upper = index.chains[k][: ranks[k, a_i]]
            placed = set(axis)
            if not index.ranked_masks[k] >> a_i & 1 or any(c in placed for c in upper):
                return None
            keep = sorted(upper + [a_i])
            sub = _subproblem(ranks, keep, sorted(set(range(m)) - placed - set(keep)))
            result = guided_recognize(sub, sub.vote(k), pinned=True)
            if not result:
                return None
            axis.extend(keep[j] for j in result.axis.order[1:-1])
        i += 1
    return axis if len(axis) == m else None


def unguided_recognize(profile):
    """Recognise a top-order profile without a guiding vote.

    Decomposes into connected components, solves each on its own rank
    matrix, concatenates the component axes (smallest-candidate order) and
    verifies the result.
    """
    _require_top(profile)
    order = []
    for candidates, vote_idx in connected_components(profile):
        if len(candidates) == 1:
            order.extend(candidates)
            continue
        # already dense: a vote's ranked candidates lie in its component, one
        # per level, and its tied bottom level is present exactly when one of
        # its unranked candidates is in the component
        part_axis = _solve_component(profile.rank_matrix()[np.ix_(vote_idx, candidates)])
        if part_axis is None:
            return Verdict.no(
                Refusal(
                    "no start candidate completes a component axis",
                    detail=f"component of {len(candidates)} candidates, "
                    f"smallest {candidates[0]}",
                ),
                algorithm="unguided",
            )
        order.extend(candidates[j] for j in part_axis)
    return axis_check.verified(profile, order, "unguided")
