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
indices, so one placement step is O(n) and the whole run O(m*n).

The placement and the implicit search both read the profile's cached rank
matrix (``Profile.rank_matrix``).  The placement copies it into an m x n array
with one row per candidate in guiding order, in 16-bit entries up to 2**15
candidates; its threshold rows, states and tails take the same type, whose
largest value hides any bucket.  For a block of steps at a time, one pass
over the block's rows turns the per-vote conditions into one threshold row
per candidate: the "c_i above the remaining minimum" and "remaining maximum
above c_i" masks select the buckets that can block.  Blocks grow from a few
steps, so a run that stops early builds few rows.  One pass of numpy calls
then decides a window of steps: each step's side is guessed from the tops of
both axis halves at the window's start (a side blocked then stays blocked,
since the tops only rise), one running minimum per side gives the tops the
guesses imply, and every step is tested again on those.  The window keeps
the steps up to the first one whose test disagrees with its guess; that step
starts the next window, whose guess for it is exact.  A pinned run tests
``c_2`` at the left end on its own row before any window.

Every running extremum (suffix extrema, tails, a window's minima) takes
ceil(log2 k) elementwise passes over its k rows, each combining a row with the
one s rows before it, in buffers allocated once per placement: numpy's
``ufunc.accumulate`` loops per cell, and is cheaper only below 4,096 cells.

The final axis leaves through the engines' one exit,
``axis_check.verified``, and the guiding vote's own row is then checked on
it with ``axis_check.v_valley_rows``; a valley there is an ``InternalError``.

A pinned run (the unguided algorithm's subproblems) fixes both ends of the
axis: the guiding vote's last candidate, placed first, always ends at the
right end, and its second-to-last candidate must take the left end.  When the
left end is blocked for it the answer is "no", as for any other blocked
placement.

When no vote is total, an implicit guiding vote is searched for by removing
uniquely-last candidates one at a time, scanning the votes in profile order.
A vote's bucket counts and id sums, plain lists, are built when the scan first
reaches it, and a removal is only recorded: a vote catches up with the
removals it has not seen when the scan next reads it.  A vote whose bottom
holds L >= 2 candidates is passed over for L - 1 removals, and none is read
when no vote has a uniquely last candidate.  The search costs O(m) per vote
it reaches, usually a handful, and O(n*m) when it reaches every vote.
"""

from __future__ import annotations

import numpy as np

from . import axis_check
from .axis_check import _BLOCK_CELLS
from .errors import ClassError, InternalError, PeakcheckError, PinError
from .model import OrderClass, PreferenceOrder, Refusal, Verdict

# Most steps one window decides.  _place over guided-wide's seven slots (run
# seeds 20-22, 2 vCPUs, numpy 2.4.6, min of 20 interleaved runs) took 27.1,
# 26.2, 26.7 ms with windows of 128 steps, 26.1, 25.3, 25.8 with 256 and 32.7,
# 28.9, 28.7 with 512: a longer window more often runs past a wrong guess.
_WINDOW = 256

# Fewest cells for which log-step passes beat ufunc.accumulate: on int16 rows
# of 100 columns, 40 rows take 12 us either way, 1,310 rows 107 against 321 us.
_SCAN_CELLS = 4096


def _running(op, a, out, tmp):
    """Write the inclusive running ``op`` of ``a`` along its second-to-last
    axis into ``out``, leaving ``a`` as it is.  The log-step passes (Hillis and
    Steele) alternate between ``out`` and ``tmp``, of one shape, so that the
    last one writes ``out``."""
    passes = max(a.shape[-2] - 1, 0).bit_length()  # ceil(log2 k)
    if a.size < _SCAN_CELLS or not passes:
        op.accumulate(a, axis=-2, out=out)
        return
    src, bufs = a, (out, tmp) if passes % 2 else (tmp, out)
    for j in range(passes):
        s, dst = 1 << j, bufs[j % 2]
        dst[..., :s, :] = src[..., :s, :]
        op(src[..., s:, :], src[..., :-s, :], out=dst[..., s:, :])
        src = dst


def _thresholds(block, after_max, after_min, gate, tmp):
    """Write the threshold rows worst', best' of consecutive steps into
    ``gate``, for the rules R1 and R2, given the worst and best buckets of
    the candidates after them.

    c_i may not go right iff max(A_L) or max(A_R) lies above (is a smaller
    bucket than) its entry of the row in some vote:
      worst' = max_k(C_>i)'s bucket where c_i >_k min_k(C_>i), else 0
      best'  = c_i's bucket where max_k(C_>i) >_k c_i, else 0
    With A_L and A_R swapped the same rows give L1 and L2.  An entry that
    can block is above 0, and as buckets are >= 0 a 0 never blocks.
    ``tmp``, one row shorter than the block, is the scans' other buffer.
    """
    worst, best = gate
    # exclusive suffix extrema of C_>i
    worst[-1], best[-1] = after_max, after_min
    _running(np.maximum, block[:0:-1], worst[-2::-1], tmp[::-1])
    _running(np.minimum, block[:0:-1], best[-2::-1], tmp[::-1])
    np.maximum(worst[:-1], after_max, out=worst[:-1])
    np.minimum(best[:-1], after_min, out=best[:-1])
    worst *= block < worst
    np.multiply(block, best < block, out=best)


def _place(rg, pinned_left):
    """Place c_2, ..., c_m on the axis, ``rg[i]`` holding c_{i+1}'s buckets.

    Returns the steps (indices into the guiding sequence) in axis order and
    None, or None and the first step whose candidate fits on neither side.
    With ``pinned_left`` step 1 may only go left.
    """
    (m, n), dt = rg.shape, rg.dtype
    big = np.iinfo(dt).max  # all ones below the sign bit: a bucket | big is big
    side = np.zeros(m, np.int8)  # 1 where a step went left
    state = np.empty((2, 1, n), dt)  # max(A_L), max(A_R)
    state[0], state[1] = big, rg[0]
    start = 1
    if pinned_left and m > 1:
        # at the left end only L1 can block c_2: some vote ranks c_1 and
        # c_2 both above the worst of the rest
        if np.any(np.maximum(rg[0], rg[1]) < rg[2:].max(axis=0, initial=-1)):
            return None, 1
        side[1] = 1
        state[0] = rg[1]
        start = 2
    size = max(1, _BLOCK_CELLS // n)  # most steps per block
    # blocks grow from 9 steps to size, so that a run that stops early
    # builds few threshold rows
    starts = [start]
    while starts[-1] < m:
        starts.append(min(m, starts[-1] + min(size, 8 + starts[-1])))
    # worst and best bucket of the candidates from each block on; the last
    # row, for none, blocks nothing
    tail_max = np.full((len(starts), n), -1, dt)
    tail_min = np.full((len(starts), n), big, dt)
    if start < m:
        cuts = starts[:-1]
        tmp = np.empty((len(cuts), n), dt)[::-1]
        _running(np.maximum, np.maximum.reduceat(rg, cuts)[::-1], tail_max[-2::-1], tmp)
        _running(np.minimum, np.minimum.reduceat(rg, cuts)[::-1], tail_min[-2::-1], tmp)
    # one array for every block's threshold rows and their scans' spare
    # rows: a fresh one per block took fresh pages each time
    gates = np.empty((3, min(size, m), n), dt)
    # a window's states, the values they are the running minima of, a spare
    states, raw, spare = np.empty((3, 2, min(size, _WINDOW) + 1, n), dt)
    i, width = start, 8
    for b, (lo, hi) in enumerate(zip(starts, starts[1:])):
        gate = gates[:2, : hi - lo]
        _thresholds(rg[lo:hi], tail_max[b + 1], tail_min[b + 1], gate, gates[2, : hi - lo - 1])
        while i < hi:
            # guess each step of a window from the state at its start: a side
            # blocked then stays blocked, as both maxima only rise
            rows = gate[:, i - lo : i - lo + width]
            k = rows.shape[1]
            guess = (state < rows).any(axis=(0, 2))  # right blocked: go left
            # the states before each step if the guess holds, and each step
            # tested on them
            hide = np.multiply(~guess, big, dtype=dt)[:, None]
            raw[:, 0] = state[:, 0]
            np.bitwise_or(rg[i : i + k], hide, out=raw[0, 1 : k + 1])
            np.bitwise_or(rg[i : i + k], big - hide, out=raw[1, 1 : k + 1])
            _running(np.minimum, raw[:, : k + 1], states[:, : k + 1], spare[:, : k + 1])
            right = (states[:, :k] < rows).any(axis=(0, 2))
            left = (states[::-1, :k] < rows).any(axis=(0, 2))
            # the guess holds up to the first step that must go left or fits
            # nowhere; the first step's guess is exact, so e > 0 or a stop
            miss = np.flatnonzero(right & (left | ~guess))
            e = miss[0] if miss.size else k
            if e < k and left[e]:
                return None, int(i + e)
            side[i : i + e] = guess[:e]
            state[:, 0] = states[:, e]
            i += e
            width = min(2 * width, _WINDOW) if e == k else max(8, e)
    return np.flatnonzero(side).tolist() + np.flatnonzero(side == 0)[::-1].tolist(), None


def guided_recognize(profile, guiding, pinned=False):
    """Recognise a weak-order profile guided by a total order.

    The guiding vote is treated as part of the constraint set.  When it is
    not a vote of the profile it never blocks a placement (each ``c_i`` is
    its worst remaining candidate), so only the final check reads it.
    With ``pinned`` the axis must run from the guiding vote's second-to-last
    candidate to its last; a profile on which it cannot is a "no", and one
    of fewer than two candidates raises :class:`PinError`.
    """
    if profile.order_class() > OrderClass.WEAK:
        raise ClassError("the guided algorithm requires weak-or-tighter votes")
    if guiding.m != profile.m:
        raise PeakcheckError("guiding vote ranges over a different candidate set")
    if guiding.order_class() != OrderClass.TOTAL:
        raise ClassError("the guiding vote must be a total order")
    if pinned and profile.m < 2:
        raise PinError("a pinned run needs two candidates")

    # c_1, ..., c_m: the guiding vote's candidates, worst first
    guide = np.array(guiding.ranks, np.int32)
    seq = np.argsort(guide)[::-1]
    # row i: the buckets of candidate c_{i+1}, one per vote, below m; gathered
    # a block at a time and dropped before the final check
    ranks = profile.rank_matrix().T
    rg = np.empty(ranks.shape, np.int16 if profile.m <= 1 << 15 else np.int32)
    size = max(1, _BLOCK_CELLS // rg.shape[1])
    for a in range(0, profile.m, size):
        rg[a : a + size] = ranks[seq[a : a + size]]
    steps, blocked = _place(rg, pinned_left=pinned)
    del rg
    if blocked == 1 and pinned:
        # the detail ends in a word: it names no placed candidate
        refusal = Refusal(
            "pinned-left candidate blocked at the left end",
            detail=f"candidate {seq[1]} pinned left",
        )
        return Verdict.no(refusal, algorithm="guided")
    if blocked is not None:
        return Verdict.no(
            Refusal(
                "both axis sides blocked",
                detail=f"while placing candidate {seq[blocked]}",
            ),
            algorithm="guided",
        )
    placed = seq[steps]
    if pinned and (placed[0] != seq[1] or placed[-1] != seq[0]):
        raise InternalError("guided placement moved a pinned endpoint")
    verdict = axis_check.verified(profile, placed.tolist(), "guided")
    if axis_check.v_valley_rows(guide[None, placed])[0]:
        raise InternalError("guided engine's axis gives the guiding vote a valley")
    return verdict


# ---------------------------------------------------------------------------
# implicit guiding votes
# ---------------------------------------------------------------------------


def find_implicit_guiding_vote(profile):
    """A total order implicitly contained in a weak-order profile, or None.

    Repeatedly removes a candidate that is uniquely ranked last in some vote
    (scanning votes in profile order); the removal sequence read backwards is
    the guiding vote.  The choice made at each step does not affect whether
    the profile is possibly single-peaked.

    Every bucket of a vote keeps two plain counts: the number of live
    candidates in it and the sum of their ids, so a bucket holding one
    candidate names it.  A vote's counts are built when the scan first
    reaches it, with one vectorised pass over a block of votes that doubles
    in size each time.  A removal is only appended to the removal list; a
    vote read again first applies the removals it has not seen, one
    decrement of each count, then moves its bottom pointer up past empty
    buckets.  A bottom of L >= 2 is not read again for L - 1 removals, each
    lowering its count by at most one, and no vote is read with no bottom of
    one (``Profile.bottom_sizes``).  The cost is O(m) per vote the scan
    reaches, and O(n*m) when it reaches every vote.
    """
    if profile.order_class() > OrderClass.WEAK:
        raise ClassError("implicit guiding votes are defined for weak orders")
    if not np.any(profile.bottom_sizes() == 1):
        return None  # no vote has a uniquely last candidate to remove first
    m = profile.m
    ranks = profile.rank_matrix()
    ids = np.arange(m, dtype=np.float64)
    votes = []  # per vote read: [counts, id sums, its rank row, bottom bucket, removals seen]
    wake = [0] * len(ranks)  # per vote: removals before which its bottom holds two or more
    removed = []
    for step in range(m):
        for k in range(len(ranks)):
            if k == len(votes):
                # votes k to 2k - 1, so the blocks hold 1, 1, 2, 4, ... votes
                block = ranks[k : max(1, 2 * k)]
                size = block.max(axis=1) + 1  # buckets per vote
                first = np.cumsum(size) - size  # flat index of each vote's top bucket
                cell = (block + first[:, None]).ravel()
                count = np.bincount(cell).tolist()
                # float weights are exact here: an id sum stays far below 2**53
                id_sum = np.bincount(cell, weights=np.tile(ids, len(block))).astype(np.int64).tolist()
                votes += [
                    [count[f : f + s], id_sum[f : f + s], row, s - 1, 0]
                    for f, s, row in zip(first.tolist(), size.tolist(), map(memoryview, block))
                ]
            elif wake[k] > step:
                continue
            vote = votes[k]
            count, id_sum, rank, b, seen = vote
            if seen < step:  # catch up with the removals made since the last read
                for c in removed[seen:]:
                    r = rank[c]
                    count[r] -= 1
                    id_sum[r] -= c
                vote[4] = step
            # a live candidate remains, so the vote has a non-empty bucket
            while not count[b]:
                b -= 1
            vote[3] = b
            if count[b] == 1:
                removed.append(id_sum[b])
                break
            wake[k] = step + count[b] - 1
        else:
            return None
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
