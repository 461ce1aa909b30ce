"""Engines checked against each other past the oracle's reach, and against
relabelled copies of their own inputs.

Each family but the random total orders is built from single-peaked total
orders on one hidden axis (``random_sp_profile`` at incompleteness 0),
coarsened or cut into the family's class, so it is a "yes"; a planted copy
replaces three votes by a no-triple of the same class, so it is a "no".  The guiding total vote, where
a family has one, is vote 0 and is never replaced.
"""

import random

import pytest

from conftest import random_local_weak, random_top, random_total, random_weak
from peakcheck.axis_check import check_on_axis
from peakcheck.cli import applicable_engines, dispatch
from peakcheck.gadgets import random_sp_profile
from peakcheck.model import Axis, Notion, PreferenceOrder, Profile, iter_bits


def _coarsened(seq, rng, tie):
    """Ranks of the total order ``seq`` (best first) with each boundary
    between neighbours dissolved with probability ``tie``."""
    ranks, level = [0] * len(seq), 0
    for i, c in enumerate(seq):
        level += i > 0 and rng.random() >= tie
        ranks[c] = level
    return ranks


def _family_vote(kind, seq, rng):
    m = len(seq)
    if kind == "total":
        return PreferenceOrder.from_total(seq)
    if kind == "top":
        return PreferenceOrder.top_order(seq[: rng.randint(1, m - 2)], m)
    ranks = _coarsened(seq, rng, 0.4)
    if kind == "weak":
        return PreferenceOrder.from_ranks(ranks)
    keep = rng.sample(seq, rng.randint(2, m - 1))  # local weak: a weak order on keep
    return PreferenceOrder.from_pairs(
        [(a, b) for a in keep for b in keep if ranks[a] < ranks[b]], m
    )


def _planted_vote(kind, m, x, y, t, rng):
    # t is below x and y, so t cannot sit between them on any axis
    if kind == "total":
        rest = [c for c in range(m) if c not in (x, y, t)]
        rng.shuffle(rest)
        return PreferenceOrder.from_total([x, y, t] + rest)
    if kind == "top":
        return PreferenceOrder.top_order([x, y], m)
    if kind == "weak":
        return PreferenceOrder.from_ranks([0 if c in (x, y) else 1 for c in range(m)])
    return PreferenceOrder.from_pairs([(x, t), (y, t)], m)


def _plant(votes, kind, positions, rng):
    """Replace the votes at three ``positions`` by a no-triple of class
    ``kind``: each candidate of a random triple is below the other two in
    one of them."""
    m = votes[0].m
    triple = rng.sample(range(m), 3)
    for k, t in zip(positions, triple):
        x, y = (c for c in triple if c != t)
        votes[k] = _planted_vote(kind, m, x, y, t, rng)


def sp_family(kind, m, n, seed, with_total, planted):
    """n votes of class ``kind`` single-peaked on one hidden axis; vote 0 is
    that axis's total order when ``with_total``.  ``planted`` swaps three
    later votes for a no-triple."""
    rng = random.Random(seed)
    seqs = [
        sorted(range(m), key=v.ranks.__getitem__)
        for v in random_sp_profile(m, n, "psp", 0.0, seed=seed).votes
    ]
    votes = [_family_vote(kind, seq, rng) for seq in seqs]
    if with_total:
        votes[0] = PreferenceOrder.from_total(seqs[0])
    if planted:
        _plant(votes, kind, rng.sample(range(1, n), 3), rng)
    return Profile(m, tuple(votes))


def _cross_engine_profiles():
    rng = random.Random(8)
    for seed in range(16):
        m, n = rng.randint(10, 60), rng.randint(6, 14)
        for planted in (False, True):
            yield "sp-total", planted, sp_family("total", m, n, seed, False, planted)
            yield "top+total", planted, sp_family("top", m, n, seed, True, planted)
            yield "weak+total", planted, sp_family("weak", m, n, seed, True, planted)
        votes = [random_total(m, rng) for _ in range(n)]
        yield "random-total", None, Profile(m, tuple(votes))
        _plant(votes, "total", rng.sample(range(n), 3), rng)
        yield "random-total", True, Profile(m, tuple(votes))


def test_applicable_engines_agree_past_the_oracle():
    runs = 0
    for family, planted, profile in _cross_engine_profiles():
        engines = [(name, run) for name, run in applicable_engines(profile) if name != "oracle"]
        bits = {name: run(profile).consistent for name, run in engines}
        runs += len(bits)
        assert len(bits) >= 3, (family, list(bits))
        assert len(set(bits.values())) == 1, (family, planted, profile.m, bits)
        if planted is not None:
            assert bits.popitem()[1] is not planted, (family, planted, profile.m)
    assert runs == 16 * (2 * (4 + 4 + 3) + 2 * 4)


# (engine, notion, vote class of the family, vote 0 total, extra vote of that class)
METAMORPHIC_CASES = [
    ("c1p", Notion.PSP, "weak", False, random_weak),
    ("c1p", Notion.PLATEAUED, "weak", False, random_weak),
    ("c1p", Notion.BLACK, "weak", False, random_weak),
    ("c1p", Notion.NECESSARY, "weak", False, random_weak),
    ("guided", Notion.PSP, "weak", True, random_weak),
    ("unguided", Notion.PSP, "top", False, random_top),
    ("twosat", Notion.PSP, "local-weak", True, random_local_weak),
]


def _relabelled(profile, new, rng):
    """The profile with candidate c renamed ``new[c]`` and its votes shuffled."""
    m = profile.m
    votes = []
    for v in profile.votes:
        if v.has_ranks():
            ranks = [0] * m
            for c, r in enumerate(v.ranks):
                ranks[new[c]] = r
            votes.append(PreferenceOrder.from_ranks(ranks))
        else:
            pairs = [(new[a], new[b]) for a, row in enumerate(v.rows()) for b in iter_bits(row)]
            votes.append(PreferenceOrder.from_pairs(pairs, m))
    rng.shuffle(votes)
    return Profile(m, tuple(votes))


@pytest.mark.parametrize(
    "engine, notion, kind, with_total, extra_vote",
    METAMORPHIC_CASES,
    ids=[f"{e}-{n.value}" for e, n, *_ in METAMORPHIC_CASES],
)
def test_verdicts_survive_relabelling(engine, notion, kind, with_total, extra_vote):
    rng = random.Random(f"{engine}-{notion.value}")
    answers = set()
    for seed in range(24):
        m, n = rng.randint(12, 40), rng.randint(5, 10)
        if notion == Notion.PSP:
            profile = sp_family(kind, m, n, seed, with_total, planted=seed % 2 == 1)
        else:
            # generated for the notion, with a weak no-triple in odd seeds
            votes = list(random_sp_profile(m, n, notion, 0.4, seed=seed).votes)
            if seed % 2:
                _plant(votes, "weak", rng.sample(range(n), 3), rng)
            profile = Profile(m, tuple(votes))
        verdict = dispatch(profile, notion, engine)
        answers.add(verdict.consistent)
        new = list(range(m))
        rng.shuffle(new)
        relabelled = _relabelled(profile, new, rng)
        assert relabelled.order_class() == profile.order_class()
        assert dispatch(relabelled, notion, engine).consistent == verdict.consistent, seed
        if verdict.consistent:
            image = Axis([new[c] for c in verdict.axis.order])
            assert check_on_axis(relabelled, image, notion).consistent, seed
        else:
            grown = Profile(m, profile.votes + (extra_vote(m, rng),))
            assert grown.order_class() <= profile.order_class()
            assert not dispatch(grown, notion, engine).consistent, seed
    assert answers == {True, False}
