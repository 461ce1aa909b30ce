"""Shared test helpers: small generators and slow references for guided,
the PrefLib parser and weak-order detection."""

from __future__ import annotations

from peakcheck.errors import ParseError, UnknownCandidateError
from peakcheck.model import Axis, PreferenceOrder, Profile
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


def reference_parse_preflib(text):
    """(Profile, names, metadata) by a character-at-a-time ballot scanner.

    The parser's line-by-line predecessor: each ranking is read one character
    at a time into tokens converted by ``int``, then placed into a rank list
    candidate by candidate.  Used to cross-check the vectorised scan.
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
                names[int(match.group(1))] = match.group(2)
                continue
            match = _COUNT_LINE.match(line)
            if match:
                declared_m = int(match.group(1))
                continue
            match = _META_LINE.match(line)
            if match:
                metadata[match.group(1).strip().upper()] = match.group(2)
            continue
        if ":" not in line:
            raise ParseError("expected 'count: ranking'", line=lineno)
        head, _, tail = line.partition(":")
        try:
            mult = int(head.strip())
        except ValueError:
            raise ParseError(f"invalid multiplicity {head.strip()!r}", line=lineno)
        if mult <= 0:
            raise ParseError("multiplicity must be positive", line=lineno)
        ballots.append((lineno, mult, _reference_ranking(tail, lineno)))
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


def _reference_ranking(text, lineno):
    groups = []
    i = 0
    token = ""
    in_group = None

    def flush_single():
        nonlocal token
        tok = token.strip()
        token = ""
        if not tok:
            return
        try:
            groups.append([int(tok)])
        except ValueError:
            raise ParseError(f"invalid candidate {tok!r}", line=lineno, column=i)

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
            tok = token.strip()
            token = ""
            if tok:
                try:
                    in_group.append(int(tok))
                except ValueError:
                    raise ParseError(
                        f"invalid candidate {tok!r}", line=lineno, column=i
                    )
            if in_group:
                groups.append(in_group)
            in_group = None
        elif ch == ",":
            if in_group is not None:
                tok = token.strip()
                token = ""
                if tok:
                    try:
                        in_group.append(int(tok))
                    except ValueError:
                        raise ParseError(
                            f"invalid candidate {tok!r}", line=lineno, column=i
                        )
            else:
                flush_single()
        else:
            token += ch
        i += 1
    if in_group is not None:
        raise ParseError("unterminated '{'", line=lineno)
    flush_single()
    return groups
