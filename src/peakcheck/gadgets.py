"""Instance generators: hardness-reduction profiles and random corpora.

The two reductions build profiles whose possibly-single-peaked consistency
coincides with the source combinatorial problem:

* betweenness: per ordered triple ``(a, b, c)`` two votes, ``{a > c, b > c}``
  and ``{b > a, c > a}``; together they force ``b`` between ``a`` and ``c``
  on any valley-free axis.
* set splitting: per 3-subset ``{c_i, c_j, c_k}`` (indices ascending) one
  vote ``{c_i > c_j, x > c_k}`` over the ground set plus a fresh candidate
  ``x``, and one total vote ``x > c_m > ... > c_1``.

Random generators are seeded with Python's Mersenne Twister
(``random.Random``; identifier ``python-random-mt19937`` in corpus
metadata), so corpora are reproducible.
"""

from __future__ import annotations

import random

from .errors import PeakcheckError
from .model import Notion, OrderClass, PreferenceOrder, Profile

RNG_ID = "python-random-mt19937"


def from_betweenness(num_elements, triples):
    """Profile of local weak orders encoding a betweenness instance."""
    votes = []
    for t in triples:
        if len(t) != 3 or len(set(t)) != 3:
            raise ValueError(f"malformed triple {t!r}: need three distinct elements")
        a, b, c = t
        for x in t:
            if not 0 <= x < num_elements:
                raise ValueError(f"triple element {x} out of range")
        votes.append(PreferenceOrder.from_pairs([(a, c), (b, c)], num_elements))
        votes.append(PreferenceOrder.from_pairs([(b, a), (c, a)], num_elements))
    if not votes:
        votes.append(PreferenceOrder.empty(num_elements))
    return Profile(num_elements, tuple(votes))


def from_set_splitting(num_elements, subsets):
    """Profile of partial orders (with one total vote) encoding set splitting.

    Candidates ``0..m-1`` are the ground set, ``m`` is the extra candidate.
    """
    m = num_elements
    votes = []
    for s in subsets:
        if len(set(s)) != 3:
            raise ValueError(f"set {s!r} must have cardinality three")
        i, j, k = sorted(s)
        if not (0 <= i and k < m):
            raise ValueError(f"set element out of range in {s!r}")
        votes.append(PreferenceOrder.from_pairs([(i, j), (m, k)], m + 1))
    votes.append(PreferenceOrder.from_total([m] + list(range(m - 1, -1, -1))))
    return Profile(m + 1, tuple(votes))


def sample_sp_total_order(axis_order, rng):
    """A uniformly drawn total order single-peaked on the given axis.

    Built bottom-up: each next-lowest candidate is one of the two ends of the
    still-unused stretch of the axis, chosen by coin flip.  This covers
    exactly the single-peaked total orders for the axis.
    """
    lo, hi = 0, len(axis_order) - 1
    worst_first = []
    while lo <= hi:
        if lo == hi:
            worst_first.append(axis_order[lo])
            lo += 1
        elif rng.random() < 0.5:
            worst_first.append(axis_order[lo])
            lo += 1
        else:
            worst_first.append(axis_order[hi])
            hi -= 1
    return worst_first[::-1]


def _merge_boundaries(seq, pos, peak_pos, notion, p, rng):
    """Rank array for ``seq`` with notion-safe indifference introduced.

    Boundary ``i`` separates ranks ``i-1`` and ``i``.  Dissolving a boundary
    merges two adjacent ranks; which boundaries are eligible depends on the
    notion being preserved:

    * psp: any boundary (chains allowed),
    * plateaued: the top boundary chain, plus pairs straddling the peak,
    * necessary: one top merge at most, plus straddling pairs,
    * black: straddling pairs only.
    """
    m = len(seq)
    dissolved = [False] * m  # dissolved[i]: seq[i] ties with seq[i-1]
    if notion == "psp":
        for i in range(1, m):
            if rng.random() < p:
                dissolved[i] = True
        return dissolved
    top_limit = m if notion == "plateaued" else min(m, 2 if notion == "necessary" else 1)
    i = 1
    while i < top_limit and rng.random() < p:
        dissolved[i] = True
        i += 1
    while i < m - 1:
        left, right = seq[i], seq[i + 1]
        straddle = (pos[left] < peak_pos) != (pos[right] < peak_pos)
        if straddle and rng.random() < p:
            dissolved[i + 1] = True
            i += 2  # no chains below the top
        else:
            i += 1
    return dissolved


def random_sp_profile(m, n, notion="psp", incompleteness=0.0, seed=0):
    """A profile guaranteed consistent for ``notion``, with hidden axis.

    Draws a hidden axis, samples single-peaked total orders on it, then
    deletes information (ties, and for the psp notion also truncation to a
    top order) without breaking the requested notion.
    """
    notion = Notion(notion)
    if not (0.0 <= incompleteness <= 1.0):
        raise PeakcheckError(f"incompleteness must lie in [0, 1], got {incompleteness}")
    rng = random.Random(seed)
    axis = list(range(m))
    rng.shuffle(axis)
    pos = [0] * m
    for i, c in enumerate(axis):
        pos[c] = i
    votes = []
    for _ in range(n):
        seq = sample_sp_total_order(axis, rng)
        peak_pos = pos[seq[0]]
        dissolved = _merge_boundaries(seq, pos, peak_pos, notion, incompleteness, rng)
        ranks = [0] * m
        level = 0
        for i, c in enumerate(seq):
            if i > 0 and not dissolved[i]:
                level += 1
            ranks[c] = level
        if notion == "psp" and incompleteness > 0 and rng.random() < incompleteness:
            cut = rng.randint(0, level)
            ranks = [min(r, cut) for r in ranks]
        votes.append(PreferenceOrder.from_ranks(ranks))
    return Profile(m, tuple(votes))


def random_profile(m, n, order_class=OrderClass.PARTIAL, seed=0):
    """Unconstrained seeded sampling within an order class (no consistency
    guarantee; for negative-case coverage)."""
    rng = random.Random(seed)
    order_class = OrderClass(order_class)
    votes = []
    for _ in range(n):
        votes.append(_random_vote(m, order_class, rng))
    return Profile(m, tuple(votes))


def _random_vote(m, order_class, rng):
    if order_class == OrderClass.TOTAL:
        seq = list(range(m))
        rng.shuffle(seq)
        return PreferenceOrder.from_total(seq)
    if order_class == OrderClass.TOP:
        seq = rng.sample(range(m), rng.randint(0, m))
        return PreferenceOrder.top_order(seq, m)
    if order_class == OrderClass.WEAK:
        levels = rng.randint(1, m)
        return PreferenceOrder.from_ranks([rng.randrange(levels) for _ in range(m)])
    if order_class == OrderClass.LOCAL_WEAK:
        sub = rng.sample(range(m), rng.randint(0, m))
        levels = rng.randint(1, max(1, len(sub)))
        level = {c: rng.randrange(levels) for c in sub}
        pairs = [
            (x, y) for x in sub for y in sub if level[x] < level[y]
        ]
        return PreferenceOrder.from_pairs(pairs, m)
    # partial: a random sub-relation of a random total order, closed
    seq = list(range(m))
    rng.shuffle(seq)
    pairs = []
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < 0.4:
                pairs.append((seq[i], seq[j]))
    return PreferenceOrder.from_pairs(pairs, m)
