"""The Unguided Algorithm: recognition of top-order profiles.

Works per connected component of the co-rankedness graph (candidates joined
when some vote ranks both).  Within a component, each candidate is tried as
the leftmost axis candidate; the axis grows rightwards by absorbing votes
whose peak is already placed (the ``oplus`` extension).  When no vote peaks
at the current right end, an intersecting vote is fetched and the stretch of
candidates it ranks above the right end is ordered by a pinned run of the
guided algorithm, with a fresh boundary candidate ``x`` standing in for the
highest-ranked candidate outside the subproblem in every vote.
"""

from __future__ import annotations

from . import axis_check
from .errors import ClassError, InternalError, NoIntersectionError, PinError
from .guided import guided_recognize
from .model import (
    Axis,
    OrderClass,
    PreferenceOrder,
    Profile,
    Refusal,
    Verdict,
)


def _require_top(profile):
    if profile.order_class() > OrderClass.TOP:
        raise ClassError("the unguided algorithm requires top orders")


def connected_components(profile):
    """Partition of the candidates by co-rankedness, with each part's votes.

    Returns a list of (candidates, vote_indices) pairs; candidates sorted
    ascending, parts ordered by smallest member.  Votes ranking nothing are
    assigned to no part.
    """
    _require_top(profile)
    parent = list(range(profile.m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    ranked_sets = []
    for vote in profile.votes:
        ranked = vote.ranked_candidates()
        ranked_sets.append(ranked)
        for a, b in zip(ranked, ranked[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

    groups = {}
    for c in range(profile.m):
        groups.setdefault(find(c), []).append(c)
    parts = sorted(groups.values(), key=lambda g: g[0])
    out = []
    for part in parts:
        root = find(part[0])
        vote_idx = [
            k for k, ranked in enumerate(ranked_sets) if ranked and find(ranked[0]) == root
        ]
        out.append((part, vote_idx))
    return out


def oplus(axis_candidates, vote):
    """Extend a partial axis by a vote's unplaced ranked candidates.

    Appends, in the vote's order, its ranked candidates not yet on the axis,
    then demands the vote be possibly single-peaked on the extended partial
    axis (restricted to the placed candidates).  Returns the new candidate
    list, or None when incompatible.
    """
    placed = set(axis_candidates)
    extension = [c for c in vote.ranked_candidates() if c not in placed]
    new_axis = list(axis_candidates) + extension
    sub, remap = vote.restrict_with_map(new_axis)
    sub_axis = Axis(tuple(remap[c] for c in new_axis))
    if axis_check.has_v_valley(sub, sub_axis) is not None:
        return None
    return new_axis


def rep_top(vote, replace_set, x=None):
    """Substitute the vote's highest-ranked member of ``replace_set`` by a
    fresh candidate ``x`` (id ``m``), extending the domain by one.

    If the vote ranks no member of the set it is unchanged apart from ``x``
    joining its minimal candidates.
    """
    m = vote.m
    if x is None:
        x = m
    if x != m:
        raise ValueError("the boundary candidate must be the next free id")
    ranks = list(vote.ranks)
    ranked = set(vote.ranked_candidates())
    targets = [c for c in replace_set if c in ranked]
    worst = max(ranks)
    bottom = worst if ranks.count(worst) > 1 else worst + 1
    ranks.append(bottom)  # x starts among the minimal candidates
    if targets:
        target = min(targets, key=lambda c: ranks[c])
        ranks[x], ranks[target] = ranks[target], bottom
    return PreferenceOrder.from_ranks(ranks)


class IntersectionIndex:
    """Per candidate, the votes whose strictly-above sets are set-maximal.

    On a single-peaked axis the candidates strictly above ``c`` in a vote form
    a contiguous stretch directly left or right of ``c``, so at most two
    distinct maximal sets may exist per candidate and they must be disjoint;
    otherwise the component is not possibly single-peaked.
    """

    def __init__(self, profile):
        self.profile = profile
        self.refusal = None
        self.maximal = []
        masks = []
        ranked_mask = []
        for vote in profile.votes:
            rm = 0
            for c in vote.ranked_candidates():
                rm |= 1 << c
            ranked_mask.append(rm)
            masks.append([0] * profile.m)
        for k, vote in enumerate(profile.votes):
            ranks = vote.ranks
            above = 0
            by_rank = sorted(range(profile.m), key=lambda c: ranks[c])
            i = 0
            while i < profile.m:
                j = i
                while j < profile.m and ranks[by_rank[j]] == ranks[by_rank[i]]:
                    j += 1
                bucket_mask = 0
                for t in range(i, j):
                    masks[k][by_rank[t]] = above
                    bucket_mask |= 1 << by_rank[t]
                above |= bucket_mask
                i = j
        self.ranked_masks = ranked_mask
        for c in range(profile.m):
            sets = {}
            for k in range(profile.n):
                # only votes ranking c pin their above-set next to c on an axis
                if ranked_mask[k] >> c & 1:
                    sets.setdefault(masks[k][c], []).append(k)
            keys = [s for s in sets if s]
            maximal = [
                s for s in keys if not any(s != t and s & t == s for t in keys)
            ]
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
            self.maximal.append([(s, sets[s][0]) for s in maximal])


def build_intersection_index(profile):
    return IntersectionIndex(profile)


def intersecting_vote(index, axis_candidates):
    """A vote ranking both a placed and an unplaced candidate.

    Prefers the set-maximal votes of the rightmost placed candidate, picking
    the one that does not rank the second-rightmost candidate above it; falls
    back to a profile-order scan.  Returns a vote index, or raises
    :class:`NoIntersectionError` if none exists (impossible for a connected
    component).
    """
    profile = index.profile
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
            preferred = [
                k for k in candidates if not profile.votes[k].prefers(prev, a_i)
            ]
            if preferred:
                return preferred[0]
        return candidates[0]
    for k in range(profile.n):
        if qualifies(k):
            return k
    raise NoIntersectionError("no intersecting vote; component is disconnected")


def _solve_component(profile, starts=None):
    """Axis for one connected component, or None.

    ``starts`` overrides the default ascending-id iteration over leftmost
    candidates (used by tests replaying specific runs).
    """
    m = profile.m
    if m == 1:
        return [0]
    index = build_intersection_index(profile)
    if index.refusal is not None:
        return None
    peak_votes = {}
    for k, vote in enumerate(profile.votes):
        p = vote.peak()
        if p is not None:
            peak_votes.setdefault(p, []).append(k)

    for c_start in (range(m) if starts is None else starts):
        axis = [c_start]
        consumed = [False] * profile.n
        i = 0
        failed = False
        while i < len(axis):
            a_i = axis[i]
            for k in peak_votes.get(a_i, ()):
                if consumed[k]:
                    continue
                extended = oplus(axis, profile.votes[k])
                if extended is None:
                    failed = True
                    break
                axis = extended
                consumed[k] = True
            if failed:
                break
            if len(axis) == i + 1 and len(axis) < m:
                k = intersecting_vote(index, axis)
                vote = profile.votes[k]
                if a_i not in vote.ranked_candidates():
                    failed = True
                    break
                upper = [c for c in vote.ranked_candidates() if vote.prefers(c, a_i)]
                if any(c in set(axis) for c in upper):
                    failed = True
                    break
                sub_candidates = sorted(upper + [a_i])
                x = profile.m  # boundary candidate in the original space
                outside = set(range(m)) - set(axis) - set(sub_candidates)
                transformed = [rep_top(v, outside, x) for v in profile.votes]
                keep = sorted(sub_candidates + [x])
                remap = {c: j for j, c in enumerate(keep)}
                sub_votes = tuple(v.restrict(keep) for v in transformed)
                sub_profile = Profile(len(keep), sub_votes)
                guiding = sub_votes[k]
                try:
                    result = guided_recognize(
                        sub_profile,
                        guiding,
                        pin_left=remap[a_i],
                        pin_right=remap[x],
                    )
                except PinError:
                    failed = True
                    break
                if not result:
                    failed = True
                    break
                inverse = {j: c for c, j in remap.items()}
                spliced = [inverse[j] for j in result.axis.order]
                if spliced[0] != a_i or spliced[-1] != x:
                    raise InternalError("pinned guided subproblem moved an endpoint")
                axis.extend(spliced[1:-1])
            i += 1
        if not failed and len(axis) == m:
            return axis
    return None


def unguided_recognize(profile):
    """Recognise a top-order profile without a guiding vote.

    Decomposes into connected components, solves each, concatenates the
    component axes (smallest-candidate order) and verifies the result.
    """
    _require_top(profile)
    order = []
    for candidates, vote_idx in connected_components(profile):
        if len(candidates) == 1:
            order.extend(candidates)
            continue
        remap = {c: j for j, c in enumerate(candidates)}
        votes = tuple(profile.votes[k].restrict(candidates) for k in vote_idx)
        if not votes:
            order.extend(candidates)
            continue
        part_axis = _solve_component(Profile(len(candidates), votes))
        if part_axis is None:
            return Verdict.no(
                Refusal(
                    "no start candidate completes a component axis",
                    detail=f"component {candidates}",
                ),
                algorithm="unguided",
            )
        inverse = {j: c for c, j in remap.items()}
        order.extend(inverse[j] for j in part_axis)
    axis = Axis(tuple(order))
    verdict = axis_check.is_possibly_sp_on_axis(profile, axis)
    if not verdict:
        raise InternalError("unguided algorithm produced an invalid axis")
    return Verdict.yes(axis, algorithm="unguided")
