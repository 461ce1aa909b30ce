"""The Guided Algorithm: linear-time recognition given a guiding total order.

Candidates are placed on the axis bottom-up in guiding-vote order, each going
to the rightmost or leftmost free position.  Per vote ``k``, four conditions
block a side (``c_i`` is the candidate being placed, ``C_>i`` the not yet
placed ones):

* R1: ``c_i >_k min_k(C_>i)``  and  ``max_k(A_L) >_k min_k(C_>i)``
* R2: ``max_k(C_>i) >_k c_i``  and  ``max_k(A_R) >_k c_i``
* L1: ``c_i >_k min_k(C_>i)``  and  ``max_k(A_R) >_k min_k(C_>i)``
* L2: ``max_k(C_>i) >_k c_i``  and  ``max_k(A_L) >_k c_i``

R1 or R2 forbids the right side, L1 or L2 the left side; both sides blocked
means the profile is not possibly single-peaked.  When both sides are free
the candidate is placed right.  All extrema reduce to comparisons of bucket
indices, so one placement step is O(n) and the whole run O(m*n); the
implementation vectorises the n-dimension with numpy.

The final axis is re-checked for v-valleys on the same rank matrix, one
vectorised pass over all votes.

Endpoint pins (used by the unguided algorithm's subproblems) require the
pinned-right candidate to be ranked last in the guiding vote and the
pinned-left candidate second-to-last; the left pin forces the first placement
to the left-hand side.

When no vote is total, an implicit guiding vote is searched for by removing
uniquely-last candidates one at a time.  Each removal updates all votes with
one vectorised step, and finding the next candidate usually looks at the
first vote or two; the worst case is O(n*m) for the whole search.
"""

from __future__ import annotations

import numpy as np

from . import axis_check
from .errors import ClassError, InternalError, PinError
from .model import (
    Axis,
    OrderClass,
    PreferenceOrder,
    Refusal,
    Verdict,
)

_BIG = np.iinfo(np.int32).max // 2


def _guiding_sequence(guiding):
    """Guiding vote candidates worst-to-last first (c_1, c_2, ..., c_m)."""
    if guiding.order_class() != OrderClass.TOTAL:
        raise ClassError("the guiding vote must be a total order")
    seq = sorted(range(guiding.m), key=lambda c: guiding.ranks[c], reverse=True)
    return seq


def guided_recognize(profile, guiding, pin_left=None, pin_right=None):
    """Recognise a weak-order profile guided by a total order.

    The guiding vote is treated as part of the constraint set; if it is not
    already a vote of the profile it is appended as one.  Raises
    :class:`PinError` when an endpoint pin cannot be respected.
    """
    if profile.order_class() > OrderClass.WEAK:
        raise ClassError("the guided algorithm requires weak-or-tighter votes")
    if guiding.m != profile.m:
        raise ValueError("guiding vote ranges over a different candidate set")
    votes = list(profile.votes)
    if guiding not in votes:
        votes.append(guiding)

    m = profile.m
    seq = _guiding_sequence(guiding)
    if pin_right is not None and seq[0] != pin_right:
        raise PinError("pinned-right candidate must be ranked last in the guiding vote")
    if pin_left is not None and (m < 2 or seq[1] != pin_left):
        raise PinError(
            "pinned-left candidate must be ranked second-to-last in the guiding vote"
        )
    if m == 1:
        return Verdict.yes(Axis((0,)), algorithm="guided")

    ranks = np.array([v.ranks for v in votes], dtype=np.int32)
    rg = ranks[:, seq]  # rg[k, i] = bucket of candidate c_{i+1} in vote k
    # exclusive suffix extrema over the not-yet-placed candidates
    best_sfx = np.full_like(rg, _BIG)
    worst_sfx = np.full_like(rg, -1)
    best_sfx[:, :-1] = np.minimum.accumulate(rg[:, :0:-1], axis=1)[:, ::-1]
    worst_sfx[:, :-1] = np.maximum.accumulate(rg[:, :0:-1], axis=1)[:, ::-1]

    n = len(votes)
    max_left = np.full(n, _BIG, dtype=np.int32)
    max_right = rg[:, 0].copy()
    left_part = []
    right_part = [seq[0]]

    for i in range(1, m):
        rci = rg[:, i]
        worst = worst_sfx[:, i]
        best = best_sfx[:, i]
        ci_above_min = rci < worst
        max_above_ci = best < rci
        right_blocked = bool(
            ((ci_above_min & (max_left < worst)) | (max_above_ci & (max_right < rci))).any()
        )
        left_blocked = bool(
            ((ci_above_min & (max_right < worst)) | (max_above_ci & (max_left < rci))).any()
        )
        if pin_left is not None and seq[i] == pin_left:
            if left_blocked:
                raise PinError(
                    f"candidate {pin_left} cannot be placed at the left end"
                )
            go_right = False
        elif not right_blocked:
            go_right = True
        elif not left_blocked:
            go_right = False
        else:
            return Verdict.no(
                Refusal(
                    "both axis sides blocked",
                    detail=f"while placing candidate {seq[i]}",
                ),
                algorithm="guided",
            )
        if go_right:
            right_part.append(seq[i])
            np.minimum(max_right, rci, out=max_right)
        else:
            left_part.append(seq[i])
            np.minimum(max_left, rci, out=max_left)

    axis = Axis(tuple(left_part + right_part[::-1]))
    if pin_left is not None and axis[0] != pin_left:
        raise PinError(f"candidate {pin_left} did not end up leftmost")
    if pin_right is not None and axis[-1] != pin_right:
        raise PinError(f"candidate {pin_right} did not end up rightmost")
    if axis_check.v_valley_rows(ranks[:, axis.order]).any():
        raise InternalError("guided algorithm produced an invalid axis")
    return Verdict.yes(axis, algorithm="guided")


# ---------------------------------------------------------------------------
# implicit guiding votes
# ---------------------------------------------------------------------------


def find_implicit_guiding_vote(profile):
    """A total order implicitly contained in a weak-order profile, or None.

    Repeatedly removes a candidate that is uniquely ranked last in some vote
    (scanning votes in profile order); the removal sequence read backwards is
    the guiding vote.  The choice made at each step does not affect whether
    the profile is possibly single-peaked.

    Every (vote, bucket) cell keeps the number of live candidates in it and
    the sum of their ids, so a cell holding one candidate names it.  A
    removal updates the candidate's cell in every vote with one indexed
    decrement; each vote's bottom pointer moves up only when that vote is
    looked at.
    """
    if profile.order_class() > OrderClass.WEAK:
        raise ClassError("implicit guiding votes are defined for weak orders")
    m = profile.m
    ranks = np.array([v.ranks for v in profile.votes], dtype=np.int64)
    size = ranks.max(axis=1) + 1  # buckets per vote
    first = np.cumsum(size) - size  # flat index of each vote's top bucket
    cell = (ranks + first[:, None]).ravel()  # flat (vote, bucket) per candidate
    count = np.bincount(cell)
    # float weights are exact here: an id sum stays far below 2**53
    id_sum = np.bincount(cell, weights=np.tile(np.arange(m), len(ranks)))
    id_sum = id_sum.astype(np.int64)
    cell_of = np.ascontiguousarray(cell.reshape(ranks.shape).T)  # [c]: c's cell per vote
    bottom = (first + size - 1).tolist()
    removed = []
    for _ in range(m):
        # a live candidate remains, so every vote has a non-empty bucket
        for k, b in enumerate(bottom):
            while count[b] == 0:
                b -= 1
            bottom[k] = b
            if count[b] == 1:
                candidate = int(id_sum[b])
                break
        else:
            return None
        removed.append(candidate)
        at = cell_of[candidate]
        count[at] -= 1
        id_sum[at] -= candidate
    return PreferenceOrder.from_total(removed[::-1])


def enumerate_implicit_guiding_votes(profile):
    """All total orders obtainable as implicit guiding votes (desk scale)."""
    if profile.order_class() > OrderClass.WEAK:
        raise ClassError("implicit guiding votes are defined for weak orders")

    def rec(votes, alive, removed):
        if not alive:
            yield PreferenceOrder.from_total(removed[::-1])
            return
        options = []
        for v in votes:
            bottom = max(v.ranks[c] for c in alive)
            members = [c for c in alive if v.ranks[c] == bottom]
            if len(members) == 1 and members[0] not in options:
                options.append(members[0])
        for c in options:
            yield from rec(votes, [x for x in alive if x != c], removed + [c])

    seen = set()
    for g in rec(list(profile.votes), list(range(profile.m)), []):
        if g not in seen:
            seen.add(g)
            yield g
