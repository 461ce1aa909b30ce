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

Endpoint pins (used by the unguided algorithm's subproblems) require the
pinned-right candidate to be ranked last in the guiding vote and the
pinned-left candidate second-to-last; the left pin forces the first placement
to the left-hand side.
"""

from __future__ import annotations

import numpy as np

from . import axis_check
from .errors import ClassError, InternalError, PinError
from .model import (
    Axis,
    OrderClass,
    PreferenceOrder,
    Profile,
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
            np.any((ci_above_min & (max_left < worst)) | (max_above_ci & (max_right < rci)))
        )
        left_blocked = bool(
            np.any((ci_above_min & (max_right < worst)) | (max_above_ci & (max_left < rci)))
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
    check = axis_check.is_possibly_sp_on_axis(
        Profile(m, tuple(votes)), axis
    )
    if not check:
        raise InternalError("guided algorithm produced an invalid axis")
    return Verdict.yes(axis, algorithm="guided")


# ---------------------------------------------------------------------------
# implicit guiding votes
# ---------------------------------------------------------------------------


class _BottomTracker:
    """Per-vote bottom-bucket bookkeeping with O(1) candidate removal."""

    def __init__(self, vote):
        self.ranks = vote.ranks
        self.members = {}
        for c, r in enumerate(self.ranks):
            self.members.setdefault(r, []).append(c)
        self.pos = {}
        for r, lst in self.members.items():
            for i, c in enumerate(lst):
                self.pos[c] = i
        self.bottom = max(self.ranks)

    def unique_last(self):
        lst = self.members[self.bottom]
        return lst[0] if len(lst) == 1 else None

    def remove(self, c):
        r = self.ranks[c]
        lst = self.members[r]
        i = self.pos.pop(c)
        last = lst.pop()
        if last != c:
            lst[i] = last
            self.pos[last] = i
        while self.bottom >= 0 and not self.members.get(self.bottom):
            self.bottom -= 1

    def exhausted(self):
        return self.bottom < 0


def find_implicit_guiding_vote(profile):
    """A total order implicitly contained in a weak-order profile, or None.

    Repeatedly removes a candidate that is uniquely ranked last in some vote
    (scanning votes in profile order); the removal sequence read backwards is
    the guiding vote.  The choice made at each step does not affect whether
    the profile is possibly single-peaked.
    """
    if profile.order_class() > OrderClass.WEAK:
        raise ClassError("implicit guiding votes are defined for weak orders")
    trackers = [_BottomTracker(v) for v in profile.votes]
    removed = []
    for _ in range(profile.m):
        candidate = None
        for t in trackers:
            if t.exhausted():
                continue
            candidate = t.unique_last()
            if candidate is not None:
                break
        if candidate is None:
            return None
        removed.append(candidate)
        for t in trackers:
            t.remove(candidate)
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
