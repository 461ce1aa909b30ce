"""Shared test helpers: small generators and slow references for guided,
the PrefLib parser, weak-order detection, pair-set closure, restriction and
classification, the oracle's per-axis tests, the 2-SAT engine, the axis
verifiers, unguided's subproblems, the c1p reduction's rows and the
consecutive-ones solver."""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

import numpy as np

from peakcheck import axis_check, guided
from peakcheck.c1p import C1Matrix
from peakcheck.errors import (
    AxisError,
    ClassError,
    CycleError,
    InternalError,
    ParseError,
    PeakcheckError,
    PinError,
    UnknownCandidateError,
)
from peakcheck.model import (
    Axis,
    Notion,
    OrderClass,
    PreferenceOrder,
    Profile,
    Refusal,
    Verdict,
)
from peakcheck.preflib import _COUNT_LINE, _META_LINE, _NAME_LINE


def random_weak(m, rng):
    levels = rng.randint(1, m)
    return PreferenceOrder.from_ranks([rng.randrange(levels) for _ in range(m)])


def random_top(m, rng, max_ranked=None):
    hi = m if max_ranked is None else min(m, max_ranked)
    return PreferenceOrder.top_order(rng.sample(range(m), rng.randint(0, hi)), m)


def random_total(m, rng):
    seq = list(range(m))
    rng.shuffle(seq)
    return PreferenceOrder.from_total(seq)


def random_local_weak(m, rng):
    sub = rng.sample(range(m), rng.randint(0, m))
    levels = rng.randint(1, max(1, len(sub)))
    level = {c: rng.randrange(levels) for c in sub}
    pairs = [(x, y) for x in sub for y in sub if level[x] < level[y]]
    return PreferenceOrder.from_pairs(pairs, m)


def random_partial(m, rng, density=0.4):
    seq = list(range(m))
    rng.shuffle(seq)
    pairs = [
        (seq[i], seq[j])
        for i in range(m)
        for j in range(i + 1, m)
        if rng.random() < density
    ]
    return PreferenceOrder.from_pairs(pairs, m)


def random_weak_profile(m, n, rng):
    return Profile(m, tuple(random_weak(m, rng) for _ in range(n)))


def random_top_profile(m, n, rng, max_ranked=None):
    return Profile(m, tuple(random_top(m, rng, max_ranked) for _ in range(n)))


class ReferenceGuided:
    """Direct condition-by-condition transcription of the guided placement.

    Deliberately unoptimised and structured around explicit extremum
    recomputation; used to cross-check the vectorised implementation and to
    host the placement-invariant assertion (a not-yet-placed candidate may
    never be strictly below the tops of both axis halves in any vote).
    """

    def __init__(self, profile, guiding):
        self.votes = list(profile.votes)
        if guiding not in self.votes:
            self.votes.append(guiding)
        self.guiding = guiding
        self.m = profile.m

    @staticmethod
    def _min(vote, group):
        worst = max(vote.ranks[c] for c in group)
        return next(c for c in group if vote.ranks[c] == worst)

    @staticmethod
    def _max(vote, group):
        best = min(vote.ranks[c] for c in group)
        return next(c for c in group if vote.ranks[c] == best)

    def run(self):
        seq = sorted(range(self.m), key=lambda c: self.guiding.ranks[c], reverse=True)
        left, right = [], [seq[0]]
        for i in range(1, self.m):
            ci = seq[i]
            future = seq[i + 1 :]
            ok_right = ok_left = True
            for vote in self.votes:
                if future:
                    fut_min = self._min(vote, future)
                    fut_max = self._max(vote, future)
                    ci_over_min = vote.prefers(ci, fut_min)
                    max_over_ci = vote.prefers(fut_max, ci)
                else:
                    ci_over_min = max_over_ci = False
                max_l_over_min = bool(
                    left and future and vote.prefers(self._max(vote, left), fut_min)
                )
                max_r_over_min = bool(
                    future and vote.prefers(self._max(vote, right), fut_min)
                )
                max_l_over_ci = bool(left and vote.prefers(self._max(vote, left), ci))
                max_r_over_ci = vote.prefers(self._max(vote, right), ci)
                if (ci_over_min and max_l_over_min) or (max_over_ci and max_r_over_ci):
                    ok_right = False
                if (ci_over_min and max_r_over_min) or (max_over_ci and max_l_over_ci):
                    ok_left = False
            self._assert_not_buried(seq[i:], left, right)
            if ok_right:
                right.append(ci)
            elif ok_left:
                left.append(ci)
            else:
                return None
        return Axis(tuple(left + right[::-1]))

    def _assert_not_buried(self, unplaced, left, right):
        # no unplaced candidate may sit strictly below the tops of both halves
        for vote in self.votes:
            for cj in unplaced:
                below_left = bool(left) and vote.prefers(self._max(vote, left), cj)
                below_right = vote.prefers(self._max(vote, right), cj)
                assert not (below_left and below_right), (
                    "placement invariant violated: candidate strictly below "
                    "both axis halves"
                )


def reference_guided_recognize(profile, guiding, pin_left=None, pin_right=None):
    """The guided placement as it was before the profile's rank matrix: the
    ranks converted per call, both sides tested at every step with the four
    rule masks, and the same verdicts, refusal texts and errors."""
    if profile.order_class() > OrderClass.WEAK:
        raise ClassError("the guided algorithm requires weak-or-tighter votes")
    if guiding.m != profile.m:
        raise PeakcheckError("guiding vote ranges over a different candidate set")
    votes = list(profile.votes)
    if guiding not in votes:
        votes.append(guiding)

    m = profile.m
    if guiding.order_class() != OrderClass.TOTAL:
        raise ClassError("the guiding vote must be a total order")
    seq = sorted(range(guiding.m), key=lambda c: guiding.ranks[c], reverse=True)
    if pin_right is not None and seq[0] != pin_right:
        raise PinError("pinned-right candidate must be ranked last in the guiding vote")
    if pin_left is not None and (m < 2 or seq[1] != pin_left):
        raise PinError(
            "pinned-left candidate must be ranked second-to-last in the guiding vote"
        )
    if m == 1:
        return Verdict.yes(Axis((0,)), algorithm="guided")

    big = np.iinfo(np.int32).max // 2
    ranks = np.array([v.ranks for v in votes], dtype=np.int32)
    rg = ranks[:, seq]  # rg[k, i] = bucket of candidate c_{i+1} in vote k
    best_sfx = np.full_like(rg, big)
    worst_sfx = np.full_like(rg, -1)
    best_sfx[:, :-1] = np.minimum.accumulate(rg[:, :0:-1], axis=1)[:, ::-1]
    worst_sfx[:, :-1] = np.maximum.accumulate(rg[:, :0:-1], axis=1)[:, ::-1]

    n = len(votes)
    max_left = np.full(n, big, dtype=np.int32)
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
                return Verdict.no(
                    Refusal(
                        "pinned-left candidate blocked at the left end",
                        detail=f"candidate {pin_left} pinned left",
                    ),
                    algorithm="guided",
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
    if (pin_left is not None and axis[0] != pin_left) or (
        pin_right is not None and axis[-1] != pin_right
    ):
        raise InternalError("guided placement moved a pinned endpoint")
    if axis_check.v_valley_rows(ranks[:, axis.order]).any():
        raise InternalError("guided algorithm produced an invalid axis")
    return Verdict.yes(axis, algorithm="guided")


def placement_rows(profile, guiding):
    """The placement's input as ``guided_recognize`` builds it: one rank row
    per candidate, in the guiding vote's order, worst first."""
    return profile.rank_matrix().T[np.argsort(guiding.ranks)[::-1]]


def _reference_thresholds(block, after_max, after_min):
    """Threshold rows [worst' | best'] of consecutive steps, for the rules
    R1 and R2, given the worst and best buckets of the candidates after them.

    c_i may not go right iff max(A_L) or max(A_R) lies above (is a smaller
    bucket than) its entry of the row in some vote:
      worst' = max_k(C_>i)'s bucket where c_i >_k min_k(C_>i), else -1
      best'  = c_i's bucket where max_k(C_>i) >_k c_i, else -1
    With A_L and A_R swapped the same row gives L1 and L2.  Buckets are
    >= 0, so a -1 never blocks.
    """
    k, n = block.shape
    gate = np.empty((k, 2 * n), np.int32)
    worst, best = gate[:, :n], gate[:, n:]
    # exclusive suffix extrema of C_>i
    worst[-1], best[-1] = after_max, after_min
    np.maximum.accumulate(block[:0:-1], axis=0, out=worst[-2::-1])
    np.minimum.accumulate(block[:0:-1], axis=0, out=best[-2::-1])
    np.maximum(worst[:-1], after_max, out=worst[:-1])
    np.minimum(best[:-1], after_min, out=best[:-1])
    np.putmask(worst, block >= worst, -1)
    above_ci = best < block
    best.fill(-1)
    np.copyto(best, block, where=above_ci)
    return gate


def reference_place(rg, pinned_left):
    """The guided placement one step per Python iteration, as ``_place`` was
    before it decided windows of steps: the same arguments and result.

    Place c_2, ..., c_m on the axis, ``rg[i]`` holding c_{i+1}'s buckets.
    Returns the steps (indices into the guiding sequence) in axis order and
    None, or None and the first step whose candidate fits on neither side.
    With ``pinned_left`` step 1 may only go left.  Blocks of rows are sized
    by ``guided._BLOCK_CELLS`` as in the engine.
    """
    big = np.iinfo(np.int32).max // 2
    m, n = rg.shape
    size = max(1, guided._BLOCK_CELLS // n)  # steps per block
    starts = range(0, m, size)
    # worst and best bucket of the candidates from each block on; the last
    # row, for none, blocks nothing
    tail_max = np.full((len(starts) + 1, n), -1, np.int32)
    tail_min = np.full((len(starts) + 1, n), big, np.int32)
    block_max = np.maximum.reduceat(rg, starts, axis=0)
    block_min = np.minimum.reduceat(rg, starts, axis=0)
    np.maximum.accumulate(block_max[::-1], axis=0, out=tail_max[-2::-1])
    np.minimum.accumulate(block_min[::-1], axis=0, out=tail_min[-2::-1])

    # rows max(A_L), max(A_R), max(A_R), max(A_L): the first two face the
    # threshold row for the right side, the last two the row for the left
    state = np.empty((4, n), np.int32)
    max_left, max_right = state[::3], state[1:3]
    max_left.fill(big)
    max_right[:] = rg[0]
    right_state, left_state = state[:2].reshape(-1), state[2:].reshape(-1)
    pinned_step = 1 if pinned_left else None
    left_part = []
    right_part = [0]
    for b, start in enumerate(starts):
        block = rg[start : start + size]
        gate = _reference_thresholds(block, tail_max[b + 1], tail_min[b + 1])
        for i in range(max(start, 1), start + len(block)):
            row = gate[i - start]
            # the left side is tested only when the right one is blocked or
            # c_i is pinned left
            if i != pinned_step and not np.count_nonzero(right_state < row):
                right_part.append(i)
                np.minimum(max_right, rg[i], out=max_right)
            elif not np.count_nonzero(left_state < row):
                left_part.append(i)
                np.minimum(max_left, rg[i], out=max_left)
            else:
                return None, i
    return left_part + right_part[::-1], None


def reference_implicit_guiding_vote(profile):
    """Greedy implicit guiding vote by direct rescans of the live candidates.

    Removes the uniquely last candidate of the first vote (in profile order)
    that has one, until no candidate is left; None when no vote has one.
    """
    alive = set(range(profile.m))
    removed = []
    while alive:
        for vote in profile.votes:
            bottom = max(vote.ranks[c] for c in alive)
            last = [c for c in alive if vote.ranks[c] == bottom]
            if len(last) == 1:
                break
        else:
            return None
        removed.append(last[0])
        alive.remove(last[0])
    return PreferenceOrder.from_total(removed[::-1])


def rep_top(vote, replace_set):
    """Substitute the vote's highest-ranked member of ``replace_set`` by a
    fresh candidate ``x`` (id ``m``), extending the domain by one.

    If the vote ranks no member of the set it is unchanged apart from ``x``
    joining its minimal candidates.
    """
    x = vote.m
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


def reference_subproblem(profile, keep, outside):
    """Unguided's guided subproblem built vote by vote: each vote's best
    ``outside`` candidate replaced by the boundary candidate m, then
    restricted to ``keep`` and m."""
    columns = sorted(keep) + [profile.m]
    votes = tuple(rep_top(v, outside).restrict(columns) for v in profile.votes)
    return Profile(len(columns), votes)


def _reference_vote_chain(vote, gadgets, single_top):
    """The rows one vote contributes, or the reason it forces rejection.

    Returns ``(cum, pairs, reason)``.  ``cum[r]`` is the column bitmask of the
    candidates in buckets ``0..r``, the vote's upper sets best first; the last
    one holds every candidate.  With ``gadgets``, ``pairs`` lists each non-top
    indifferent pair as ``(r, (a, b))`` with ``a < b`` in bucket ``r``.  A
    non-top indifference class of three or more (``gadgets``) or a top
    plateau (``single_top``) sets ``reason`` instead.
    """
    levels = [0] * (max(vote.ranks) + 1)
    for c, r in enumerate(vote.ranks):
        levels[r] |= 1 << c
    if single_top and levels[0].bit_count() >= 2:
        return None, None, "more than one most-preferred candidate"
    pairs = []
    if gadgets:
        for r in range(1, len(levels)):
            size = levels[r].bit_count()
            if size >= 3:
                return None, None, "three-way non-top indifference"
            if size == 2:
                a = (levels[r] & -levels[r]).bit_length() - 1
                pairs.append((r, (a, levels[r].bit_length() - 1)))
    return list(itertools.accumulate(levels, operator.or_)), pairs, None


# notion -> (gadget rows, reject a top plateau)
_REFERENCE_REDUCTIONS = {
    Notion.PSP: (False, False),
    Notion.PLATEAUED: (True, False),
    Notion.BLACK: (True, True),
    Notion.NECESSARY: (True, False),
}


def reference_c1p_matrix(profile, notion, chain=False):
    """The c1p reduction built vote by vote from rank tuples.

    Per vote its base rows and, for the plateau notions, the three gadget
    rows of each non-top indifferent pair.  The base rows are the paper's
    block, one row per candidate in candidate order, or with ``chain`` one
    row per upper set short of the full one.  Stops at the first vote that
    forces rejection, without that vote's rows."""
    gadgets, single_top = _REFERENCE_REDUCTIONS[Notion(notion)]
    mat = C1Matrix(profile.m)

    def append(mask, tag):
        mat.rows.append(mask)
        mat.provenance.append(tag)

    for k, vote in enumerate(profile.votes):
        cum, pairs, reason = _reference_vote_chain(vote, gadgets, single_top)
        if reason is not None:
            mat.short_circuit = True
            mat.short_circuit_reason = (k, reason)
            return mat
        if chain:
            for r in range(len(cum) - 1):
                append(cum[r], (k, "upper", r))
        else:
            for a, r in enumerate(vote.ranks):
                append(cum[r], (k, "base", a))
        for r, (a, b) in pairs:
            preferred = cum[r - 1]
            append(preferred | (1 << b), (k, "plateau-gadget-1", (a, b)))
            append(cum[r], (k, "plateau-gadget-2", (a, b)))
            append(preferred | (1 << a), (k, "plateau-gadget-3", (a, b)))
    return mat


def _reference_columns(mask):
    cols = []
    while mask:
        low = mask & -mask
        cols.append(low.bit_length() - 1)
        mask ^= low
    return cols


def reference_cut_rows(masks, m):
    """The rows and width c1p hands ``solve_c1p_sets`` for the matrix rows
    ``masks``, as ascending column lists, computed on Python ints.

    The distinct rows with two to m - 1 columns, in order of first
    occurrence.  If some column c has a positive gain, the sum of
    ``2|S| - m - 1`` over the rows S holding it, the first column of largest
    gain is cut: a column m is added, and every row holding c is replaced by
    its complement in m + 1 columns.
    """
    full = (1 << m) - 1
    rows = [mask for mask in dict.fromkeys(masks) if mask & (mask - 1) and mask != full]
    gain = [0] * m
    for mask in rows:
        saved = 2 * mask.bit_count() - m - 1
        for c in _reference_columns(mask):
            gain[c] += saved
    if not rows or max(gain) <= 0:
        return [_reference_columns(mask) for mask in rows], m
    c = gain.index(max(gain))
    cut = [(mask ^ full) | (1 << m) if mask >> c & 1 else mask for mask in rows]
    return [_reference_columns(mask) for mask in cut], m + 1


def backtracking_c1p(rows, m):
    """Small-scale independent C1P solver by left-to-right column placement.

    Prunes a branch as soon as a row that has started but not finished skips a
    position.  Intended as the test oracle for :func:`solve_c1p_sets`.
    """
    rows = [frozenset(r) for r in rows if 0 < len(r) < m]
    rows = list(dict.fromkeys(rows))
    sizes = [len(r) for r in rows]
    in_row = [[] for _ in range(m)]
    for ri, r in enumerate(rows):
        for c in r:
            in_row[c].append(ri)
    placed = [0] * len(rows)
    perm = []
    used = [False] * m

    def open_rows_ok(c):
        for ri, r in enumerate(rows):
            if 0 < placed[ri] < sizes[ri] and c not in r:
                return False
        return True

    def rec():
        if len(perm) == m:
            return True
        for c in range(m):
            if used[c] or not open_rows_ok(c):
                continue
            used[c] = True
            perm.append(c)
            for ri in in_row[c]:
                placed[ri] += 1
            if rec():
                return True
            for ri in in_row[c]:
                placed[ri] -= 1
            perm.pop()
            used[c] = False
        return False

    if rec():
        return list(perm)
    return None


def rows_consecutive_under(rows, perm):
    """Check every row is consecutive under the column permutation."""
    pos = {c: i for i, c in enumerate(perm)}
    for r in rows:
        r = set(r)
        if not r:
            continue
        ps = [pos[c] for c in r]
        if max(ps) - min(ps) + 1 != len(ps):
            return False
    return True


def reference_bucketise(m, pairs):
    """Ranks if the strict relation ``pairs`` is a weak order, else None.

    Sorts candidates by the size of their lower set, then compares every
    ordered pair of candidates with the resulting levels: O(m^2).
    """
    lower = [0] * m
    for a, _ in pairs:
        lower[a] += 1
    order = sorted(range(m), key=lambda c: -lower[c])
    ranks = [0] * m
    level = 0
    for i, c in enumerate(order):
        if i > 0 and lower[c] != lower[order[i - 1]]:
            level += 1
        ranks[c] = level
    for a in range(m):
        for b in range(m):
            if a != b and ((a, b) in pairs) != (ranks[a] < ranks[b]):
                return None
    return ranks


def reference_close(pairs, m):
    """The transitive closure of strict comparisons ``a > b`` as a frozenset
    of pairs, by one breadth-first search per candidate.

    The pair-set closure that bitset rows replaced in ``from_pairs``; it
    raises ``ValueError`` and ``CycleError`` on the same inputs.
    """
    succ = [set() for _ in range(m)]
    for a, b in pairs:
        if not (0 <= a < m and 0 <= b < m):
            raise ValueError(f"candidate out of range: ({a}, {b})")
        if a == b:
            raise CycleError(f"reflexive comparison {a} > {a}")
        succ[a].add(b)
    closed = []
    for a in range(m):
        seen = set()
        stack = list(succ[a])
        while stack:
            b = stack.pop()
            if b in seen:
                continue
            seen.add(b)
            stack.extend(succ[b])
        if a in seen:
            raise CycleError(f"candidate {a} is preferred to itself after closure")
        closed.append(seen)
    return frozenset((a, b) for a in range(m) for b in closed[a])


def reference_restrict(closed, subset):
    """The closed pairs among ``subset``, renumbered in sorted order and
    closed again, as the pair-set ``restrict_with_map`` did."""
    remap = {c: i for i, c in enumerate(sorted(subset))}
    pairs = [(remap[a], remap[b]) for a, b in closed if a in remap and b in remap]
    return reference_close(pairs, len(remap))


def reference_class(m, closed):
    """Class of the closed relation ``closed``: the dense-rank rule when it
    is a weak order, else local weak when the candidates outside every pair
    leave a weak order, rebuilt by ``reference_restrict``."""
    ranks = reference_bucketise(m, closed)
    if ranks is not None:
        top = max(ranks, default=0)
        if top == m - 1:
            return OrderClass.TOTAL
        if ranks.count(top) == m - top:
            return OrderClass.TOP
        return OrderClass.WEAK
    rest = sorted({c for pair in closed for c in pair})
    if reference_bucketise(len(rest), reference_restrict(closed, rest)) is not None:
        return OrderClass.LOCAL_WEAK
    return OrderClass.PARTIAL


def reference_parse_preflib(text):
    """(Profile, names, metadata) by a character-at-a-time ballot scanner.

    The parser's line-by-line predecessor: each ranking is read one character
    at a time into tokens of ASCII digits, then placed into a rank list
    candidate by candidate.  Multiplicities and header numbers are ASCII
    digits too, and whitespace inside a ranking is ASCII.  Used to
    cross-check the vectorised scan.
    """
    names = {}
    metadata = {}
    declared_m = None
    ballots = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            match = _NAME_LINE.match(line)
            if match:
                names[_reference_number(match.group(1), "candidate", lineno)] = match.group(2)
                continue
            match = _COUNT_LINE.match(line)
            if match:
                declared_m = _reference_number(match.group(1), "count", lineno)
                continue
            match = _META_LINE.match(line)
            if match:
                metadata[match.group(1).strip().upper()] = match.group(2)
            continue
        if ":" not in line:
            raise ParseError("expected 'count: ranking'", line=lineno)
        head, _, tail = line.partition(":")
        mult = _reference_number(head.strip(), "multiplicity", lineno)
        if mult <= 0:
            raise ParseError("multiplicity must be positive", line=lineno)
        ballots.append((lineno, mult, _reference_ranking(tail.strip(), lineno)))
    if declared_m is None:
        seen = {c for _, _, groups in ballots for g in groups for c in g}
        seen |= set(names)
        declared_m = max(seen, default=0)
    m = declared_m
    if m == 0:
        raise ParseError("no alternatives declared or referenced")
    if not ballots:
        raise ParseError("no ballots in file")
    votes = []
    mults = []
    for lineno, mult, groups in ballots:
        ranks = [None] * m
        level = 0
        for group in groups:
            for c in group:
                if not 1 <= c <= m:
                    raise UnknownCandidateError(
                        f"candidate {c} outside 1..{m}", line=lineno
                    )
                if ranks[c - 1] is not None:
                    raise ParseError(f"candidate {c} listed twice", line=lineno)
                ranks[c - 1] = level
            level += 1
        for c in range(m):
            if ranks[c] is None:
                ranks[c] = level  # unranked: jointly last
        votes.append(PreferenceOrder.from_ranks(ranks))
        mults.append(mult)
    profile = Profile(m, tuple(votes), tuple(mults))
    name_list = [names.get(i, str(i)) for i in range(1, m + 1)]
    return profile, name_list, metadata


# the whitespace a ranking may hold between tokens: ASCII, and no line break
_RANKING_SPACES = " \t\x1f"


def _reference_number(text, what, lineno, column=None):
    if not (text.isascii() and text.isdigit()):
        raise ParseError(f"invalid {what} {text!r}", line=lineno, column=column)
    try:
        return int(text)
    except ValueError:  # beyond the interpreter's integer-string limit
        raise ParseError(f"{what} too long", line=lineno, column=column) from None


def _reference_ranking(text, lineno):
    groups = []
    i = 0
    token = ""
    in_group = None

    def flush_single():
        nonlocal token
        tok = token.strip(_RANKING_SPACES)
        token = ""
        if tok:
            groups.append([_reference_number(tok, "candidate", lineno, column=i)])

    while i < len(text):
        ch = text[i]
        if ch == "{":
            if in_group is not None:
                raise ParseError("nested '{'", line=lineno, column=i + 1)
            flush_single()
            in_group = []
        elif ch == "}":
            if in_group is None:
                raise ParseError("unmatched '}'", line=lineno, column=i + 1)
            tok = token.strip(_RANKING_SPACES)
            token = ""
            if tok:
                in_group.append(_reference_number(tok, "candidate", lineno, column=i))
            if in_group:
                groups.append(in_group)
            in_group = None
        elif ch == ",":
            if in_group is not None:
                tok = token.strip(_RANKING_SPACES)
                token = ""
                if tok:
                    in_group.append(_reference_number(tok, "candidate", lineno, column=i))
            else:
                flush_single()
        else:
            token += ch
        i += 1
    if in_group is not None:
        raise ParseError("unterminated '{'", line=lineno)
    flush_single()
    return groups


def reference_oracle_ok(profile, notion):
    """(axes, ok): every axis one row, in the oracle's enumeration order, and
    whether the profile has ``notion`` on it.

    The oracle's predecessor: every vote is tested on every axis (except
    once no axis is left), with ``int64`` position arrays of one row per
    axis.  Used to cross-check the survivor loop.
    """
    notion = Notion(notion)
    m = profile.m
    kept = [p for p in itertools.permutations(range(m)) if p[::-1] >= p]
    axes = np.array(kept, dtype=np.int64).reshape(len(kept), m)
    pos = np.empty_like(axes)
    pos[np.arange(len(kept))[:, None], axes] = np.arange(m)[None, :]
    return axes, _reference_ok(profile, notion, axes, pos)


def _reference_ok(profile, notion, axes, pos):
    if notion == Notion.PSP:
        return _reference_psp_ok(profile, axes, pos)
    if notion == Notion.PLATEAUED:
        return _reference_shape_ok(profile, axes, _reference_plateaued_rows)
    if notion == Notion.BLACK:
        return _reference_shape_ok(profile, axes, _reference_black_rows)
    return _reference_necessary_ok(profile, axes)


def _reference_rows_have_valley(seqs):
    if seqs.shape[1] < 3:
        return np.zeros(len(seqs), dtype=bool)
    d = np.diff(seqs, axis=1)
    rose = np.maximum.accumulate(d > 0, axis=1)
    return np.any(rose[:, :-1] & (d[:, 1:] < 0), axis=1)


def _reference_dominator_positions(vote, pos):
    n_axes, m = pos.shape
    lo = np.full((n_axes, m), m + 1, dtype=np.int64)
    hi = np.full((n_axes, m), -1, dtype=np.int64)
    for c in range(m):
        dom = sorted(vote.upper_set(c))
        if dom:
            sub = pos[:, dom]
            lo[:, c] = sub.min(axis=1)
            hi[:, c] = sub.max(axis=1)
    return lo, hi


def _reference_psp_ok(profile, axes, pos):
    ok = np.ones(len(axes), dtype=bool)
    for vote in profile.votes:
        if vote.has_ranks():
            seqs = np.asarray(vote.ranks)[axes]
            ok &= ~_reference_rows_have_valley(seqs)
        else:
            lo, hi = _reference_dominator_positions(vote, pos)
            v_valley = np.any((lo < pos) & (pos < hi), axis=1)
            inner_lo = np.minimum(pos[:, :, None], pos[:, None, :])
            inner_hi = np.maximum(pos[:, :, None], pos[:, None, :])
            u = (lo[:, :, None] < inner_lo) & (hi[:, None, :] > inner_hi)
            u &= ~np.eye(profile.m, dtype=bool)[None, :, :]
            ok &= ~(v_valley | np.any(u, axis=(1, 2)))
        if not ok.any():
            break
    return ok


def _reference_plateaued_rows(seqs):
    if seqs.shape[1] < 2:
        return np.ones(len(seqs), dtype=bool)
    d = np.diff(seqs, axis=1)
    seen_flat_or_rise = np.maximum.accumulate(d >= 0, axis=1)
    seen_rise = np.maximum.accumulate(d > 0, axis=1)
    bad = np.any(seen_flat_or_rise[:, :-1] & (d[:, 1:] < 0), axis=1)
    bad |= np.any(seen_rise[:, :-1] & (d[:, 1:] == 0), axis=1)
    return ~bad


def _reference_black_rows(seqs):
    if seqs.shape[1] < 2:
        return np.ones(len(seqs), dtype=bool)
    d = np.diff(seqs, axis=1)
    bad = np.any(d == 0, axis=1)
    seen_rise = np.maximum.accumulate(d > 0, axis=1)
    bad |= np.any(seen_rise[:, :-1] & (d[:, 1:] < 0), axis=1)
    return ~bad


def _reference_shape_ok(profile, axes, row_check):
    if profile.order_class() > OrderClass.WEAK:
        raise ClassError("plateau-based notions are defined for weak orders only")
    ok = np.ones(len(axes), dtype=bool)
    for vote in profile.votes:
        ok &= row_check(np.asarray(vote.ranks)[axes])
        if not ok.any():
            break
    return ok


def _reference_vote_necessarily_sp(vote, axis_order):
    positions = {c: i for i, c in enumerate(axis_order)}
    for ext in vote.extensions():
        seq = [0] * len(ext)
        for r, c in enumerate(ext):
            seq[positions[c]] = r
        rose = False
        prev = seq[0]
        for x in seq[1:]:
            if x > prev:
                rose = True
            elif x < prev and rose:
                return False
            prev = x
    return True


def _reference_necessary_ok(profile, axes):
    if profile.order_class() > OrderClass.WEAK:
        raise ClassError("necessarily single-peaked is defined for weak orders only")
    ok = np.ones(len(axes), dtype=bool)
    for vote in profile.votes:
        for i in range(len(axes)):
            if ok[i] and not _reference_vote_necessarily_sp(vote, axes[i]):
                ok[i] = False
    return ok


@dataclass
class ClauseInstance:
    """2-SAT clauses over variables; literals are (variable, negated) pairs."""

    num_vars: int
    clauses: list = field(default_factory=list)

    def add(self, lit1, lit2):
        self.clauses.append((lit1, lit2))


def reference_encode_clauses(profile):
    """The paper's clause encoding of a local-weak-order profile: for every
    valley triple ``(a, b, c)`` (``a`` and ``c`` preferred to ``b`` in some
    vote) the clauses ``(ba or cb)`` and ``(ab or bc)``, plus exclusive-or
    clauses over every unordered pair.  Variables are indexed ``a*m + b``."""
    m = profile.m
    inst = ClauseInstance(m * m)
    seen = set()
    for vote in profile.votes:
        for b in range(m):
            dominators = sorted(vote.upper_set(b))
            for i, a in enumerate(dominators):
                for c in dominators[i + 1 :]:
                    if (a, b, c) in seen:
                        continue
                    seen.add((a, b, c))
                    inst.add((b * m + a, False), (c * m + b, False))
                    inst.add((a * m + b, False), (b * m + c, False))
    for a in range(m):
        for b in range(a + 1, m):
            inst.add((a * m + b, False), (b * m + a, False))
            inst.add((a * m + b, True), (b * m + a, True))
    return inst


def tarjan_2sat(instance):
    """Satisfying assignment (list of bool) of a ``ClauseInstance``, or None.

    Implication-graph strongly connected components (iterative Tarjan;
    Aspvall, Plass & Tarjan 1979): a variable is true iff its component
    comes after its negation's in reverse topological order.
    """
    n = instance.num_vars
    size = 2 * n  # literal 2v = positive, 2v+1 = negative
    adj = [[] for _ in range(size)]
    for (v1, n1), (v2, n2) in instance.clauses:
        a, b = 2 * v1 + n1, 2 * v2 + n2
        adj[a ^ 1].append(b)
        adj[b ^ 1].append(a)

    comp = [-1] * size
    low = [0] * size
    num = [0] * size
    visited = [False] * size
    counter = 0
    ncomp = 0
    stack = []
    on_stack = [False] * size
    for root in range(size):
        if visited[root]:
            continue
        work = [(root, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                visited[node] = True
                num[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            recurse = False
            for i in range(pi, len(adj[node])):
                nxt = adj[node][i]
                if not visited[nxt]:
                    work[-1] = (node, i + 1)
                    work.append((nxt, 0))
                    recurse = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], num[nxt])
            if recurse:
                continue
            if low[node] == num[node]:
                while True:
                    top = stack.pop()
                    on_stack[top] = False
                    comp[top] = ncomp
                    if top == node:
                        break
                ncomp += 1
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    assignment = []
    for v in range(n):
        if comp[2 * v] == comp[2 * v + 1]:
            return None
        # Tarjan numbers components in reverse topological order
        assignment.append(comp[2 * v] < comp[2 * v + 1])
    return assignment


# ---------------------------------------------------------------------------
# axis verifiers: one Python loop per notion, vote by vote
# ---------------------------------------------------------------------------


def reference_v_valley_exists_ranked(seq):
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


def reference_nonpeak_plateau_exists(seq):
    """A rank strictly better somewhere left and the same rank somewhere
    right, or mirrored."""
    m = len(seq)
    first = {}
    last = {}
    for i, x in enumerate(seq):
        first.setdefault(x, i)
        last[x] = i
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


def _reference_bounds(vote, pos):
    """Per candidate: (min, max) axis position of its strict dominators."""
    m = vote.m
    lo, hi = [m] * m, [-1] * m
    for c in range(m):
        for a in vote.upper_set(c):
            lo[c], hi[c] = min(lo[c], pos[a]), max(hi[c], pos[a])
    return lo, hi


def _reference_v_valley(vote, axis, idx):
    if vote.has_ranks():
        found = reference_v_valley_exists_ranked([vote.ranks[c] for c in axis])
    else:
        pos = axis.positions()
        lo, hi = _reference_bounds(vote, pos)
        found = any(lo[c] < pos[c] < hi[c] for c in range(vote.m))
    return axis_check._lex_v_valley(vote, axis, idx) if found else None


def _reference_u_valley(vote, axis, idx):
    pos = axis.positions()
    lo, hi = _reference_bounds(vote, pos)
    found = any(
        b != c and lo[b] < min(pos[b], pos[c]) and hi[c] > max(pos[b], pos[c])
        for b in range(vote.m)
        for c in range(vote.m)
    )
    return axis_check._lex_u_valley(vote, axis, idx) if found else None


def _reference_nonpeak_plateau(vote, axis, idx):
    if not reference_nonpeak_plateau_exists([vote.ranks[c] for c in axis]):
        return None
    return axis_check.has_nonpeak_plateau(vote, axis, idx)


def _reference_vote_witness(notion, vote, axis, idx):
    if notion == Notion.PSP:
        # a u-valley of a weak order comes with a v-valley
        return _reference_v_valley(vote, axis, idx) or (
            None if vote.has_ranks() else _reference_u_valley(vote, axis, idx)
        )
    if notion == Notion.BLACK:
        return _reference_v_valley(vote, axis, idx) or axis_check.has_plateau(
            vote, axis, idx
        )
    return _reference_v_valley(vote, axis, idx) or _reference_nonpeak_plateau(
        vote, axis, idx
    )


def reference_check_on_axis(profile, axis, notion=Notion.PSP):
    """The verifier as one per-vote loop per notion: each vote's existence
    test in pure Python, then the witness scan on the first vote that fails.
    Necessarily single-peaked first refuses a top indifference class larger
    than two, then is single-plateaued.  Used to cross-check the row rules."""
    notion = Notion(notion)
    if axis.m != profile.m:
        raise AxisError(
            f"axis orders {axis.m} candidates, the profile has {profile.m}"
        )
    if notion != Notion.PSP and profile.order_class() > OrderClass.WEAK:
        raise ClassError("plateau-based checks are defined for weak orders only")
    if notion == Notion.NECESSARY:
        for idx, vote in enumerate(profile.votes):
            if len(vote.buckets()[0]) > 2:
                return Verdict.no(
                    Refusal("top indifference class larger than two", idx),
                    notion=notion,
                    algorithm="axis-check",
                )
    for idx, vote in enumerate(profile.votes):
        witness = _reference_vote_witness(notion, vote, axis, idx)
        if witness is not None:
            return Verdict.no(witness, notion=notion, algorithm="axis-check")
    return Verdict.yes(axis, notion=notion, algorithm="axis-check")
