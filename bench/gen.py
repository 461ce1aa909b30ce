"""Known-answer profile generators for the benchmark.

Every generator returns a freshly built ``Profile`` whose verdict is known
from its construction.  Yes-instances are built around a hidden axis: each
vote is a single-peaked total order on that axis from which information was
removed (ties, truncation, dropped comparisons), so the total order is an
extension that witnesses consistency.

No-instances take a yes-instance and replace three votes, at seeded positions,
by a planted triple ``{a, b, c}``: the vote planted for member ``t`` ranks the
other two strictly above ``t``.  Whichever of the three lies between the other
two on an axis then forms a v-valley in its vote, so no axis works for any
notion.  The planted vote keeps the class of the votes it replaces -- a weak
order ``{x, y} > rest``, a top order ``x > y > rest``, or the pairs
``(x, t), (y, t)`` for local weak and partial orders -- and is never a total
order or a vote with a unique last candidate, so engine routing is unchanged.

``self_test`` checks the generators against ``oracle_recognize`` at m <= 8.
"""

from __future__ import annotations

import random

from peakcheck import (
    Notion,
    OrderClass,
    PreferenceOrder,
    Profile,
    oracle_recognize,
    random_sp_profile,
)
from peakcheck.gadgets import sample_sp_total_order
from peakcheck.guided import find_implicit_guiding_vote


def _planted_vote(vote_kind, m, x, y, t):
    if vote_kind == "weak":
        ranks = [1] * m
        ranks[x] = ranks[y] = 0
        return PreferenceOrder.from_ranks(ranks)
    if vote_kind == "top":
        return PreferenceOrder.top_order([x, y], m)
    return PreferenceOrder.from_pairs([(x, t), (y, t)], m)


def plant_no(profile, rng, vote_kind, keep=()):
    """The profile with three votes replaced by a planted no-triple.

    ``keep`` lists vote positions that must survive (a guiding total vote).
    """
    m = profile.m
    if m < 4:
        raise ValueError("a planted triple needs m >= 4 to keep vote classes")
    votes = list(profile.votes)
    positions = rng.sample([k for k in range(len(votes)) if k not in keep], 3)
    triple = rng.sample(range(m), 3)
    for k, t in zip(positions, triple):
        x, y = (c for c in triple if c != t)
        votes[k] = _planted_vote(vote_kind, m, x, y, t)
    return Profile(m, tuple(votes))


def _hidden_axis(m, rng):
    axis = list(range(m))
    rng.shuffle(axis)
    return axis


# ---------------------------------------------------------------------------
# yes-instance families, one per engine the workloads route to; weak orders
# consistent for a notion come from ``random_sp_profile`` directly
# ---------------------------------------------------------------------------


def weak_c1p_profile(m, n, incompleteness, seed):
    """Weak orders with no explicit or implicit guiding vote (routes to c1p).

    Takes the first seed from ``seed`` upward whose profile has none, and
    returns it freshly built, so that no vote carries a cached class.
    """
    while find_implicit_guiding_vote(random_sp_profile(m, n, "psp", incompleteness, seed)):
        seed += 1
    return random_sp_profile(m, n, "psp", incompleteness, seed)


def weak_total_profile(m, n, seed):
    """Weak orders plus an explicit total vote first (routes to guided).

    Same construction as acceptance criterion 6: both draws share the seed and
    so the hidden axis.
    """
    profile = random_sp_profile(m, n, "psp", 0.5, seed)
    total = random_sp_profile(m, 1, "psp", 0.0, seed).votes[0]
    return Profile(m, (total,) + profile.votes[1:])


def top_profile(m, n, seed):
    """Top orders with at least two unranked candidates each (routes to
    unguided: no vote is total or has a unique last candidate)."""
    rng = random.Random(seed)
    axis = _hidden_axis(m, rng)
    votes = []
    for _ in range(n):
        seq = sample_sp_total_order(axis, rng)
        votes.append(PreferenceOrder.top_order(seq[: rng.randint(1, m - 2)], m))
    return Profile(m, tuple(votes))


def _local_weak_vote(seq, rng):
    """Ties between neighbours of ``seq``, then restricted to a subset."""
    m = len(seq)
    keep = rng.sample(seq, rng.randint(3, m - 1))
    level, cur = {}, 0
    for i, c in enumerate(seq):
        if i > 0 and rng.random() >= 0.3:
            cur += 1
        level[c] = cur
    levels = {level[c] for c in keep}
    if len(levels) < 2:  # all tied: no comparison left, resample
        return None
    pairs = [(a, b) for a in keep for b in keep if level[a] < level[b]]
    return PreferenceOrder.from_pairs(pairs, m)


def local_weak_total_profile(m, n, seed):
    """One total vote first plus local weak orders (routes to twosat)."""
    rng = random.Random(seed)
    axis = _hidden_axis(m, rng)
    votes = [PreferenceOrder.from_total(sample_sp_total_order(axis, rng))]
    while len(votes) < n:
        vote = _local_weak_vote(sample_sp_total_order(axis, rng), rng)
        if vote is not None and vote.order_class() == OrderClass.LOCAL_WEAK:
            votes.append(vote)
    return Profile(m, tuple(votes))


def partial_profile(m, n, seed):
    """Random sub-relations of single-peaked total orders, each a local weak
    or partial order (routes to the oracle)."""
    rng = random.Random(seed)
    axis = _hidden_axis(m, rng)
    votes = []
    while len(votes) < n:
        seq = sample_sp_total_order(axis, rng)
        pairs = [
            (seq[i], seq[j])
            for i in range(m)
            for j in range(i + 1, m)
            if rng.random() < 0.4
        ]
        vote = PreferenceOrder.from_pairs(pairs, m)
        if vote.order_class() >= OrderClass.LOCAL_WEAK:
            votes.append(vote)
    return Profile(m, tuple(votes))


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------

# (family, notion, vote kind of planted votes, builder(seed), kept positions)
SELF_TEST_FAMILIES = (
    ("weak-psp", Notion.PSP, "weak", lambda s: weak_c1p_profile(8, 12, 0.9, s), ()),
    ("weak-plateaued", Notion.PLATEAUED, "weak",
     lambda s: random_sp_profile(7, 8, "plateaued", 0.5, s), ()),
    ("weak-black", Notion.BLACK, "weak", lambda s: random_sp_profile(7, 8, "black", 0.5, s), ()),
    ("weak-necessary", Notion.NECESSARY, "weak",
     lambda s: random_sp_profile(5, 5, "necessary", 0.5, s), ()),
    ("weak-implicit", Notion.PSP, "weak",
     lambda s: random_sp_profile(8, 12, "psp", 0.3, s), ()),
    ("weak-total", Notion.PSP, "weak", lambda s: weak_total_profile(8, 12, s), (0,)),
    ("top", Notion.PSP, "top", lambda s: top_profile(8, 12, s), ()),
    ("localweak-total", Notion.PSP, "pairs",
     lambda s: local_weak_total_profile(7, 8, s), (0,)),
    ("partial", Notion.PSP, "pairs", lambda s: partial_profile(7, 8, s), ()),
)


def self_test(seed, families, rounds):
    """Check the named generator families against the brute-force oracle at
    m <= 8, ``rounds`` yes- and no-instances each.

    Returns a list of failure descriptions (empty when all agree).
    """
    failures = []
    for name, notion, vote_kind, build, keep in SELF_TEST_FAMILIES:
        if name not in families:
            continue
        for r in range(rounds):
            s = seed * 1000 + r
            yes = build(s)
            no = plant_no(build(s), random.Random(s), vote_kind, keep)
            for label, profile, expected in (("yes", yes, True), ("no", no, False)):
                got = oracle_recognize(profile, notion).consistent
                if got != expected:
                    failures.append(f"{name} {label} seed={s}: oracle says {got}")
    return failures
