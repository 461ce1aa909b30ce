import hashlib
import itertools
import operator
import random

import pytest

from peakcheck.errors import PeakcheckError
from peakcheck.gadgets import (
    from_betweenness,
    from_set_splitting,
    random_profile,
    random_sp_profile,
    sample_sp_total_order,
)
from peakcheck.model import Notion, OrderClass, PreferenceOrder
from peakcheck.oracle import oracle_recognize


def betweenness_brute(m, triples):
    for perm in itertools.permutations(range(m)):
        pos = {c: i for i, c in enumerate(perm)}
        if all(
            pos[a] < pos[b] < pos[c] or pos[c] < pos[b] < pos[a]
            for a, b, c in triples
        ):
            return True
    return False


def set_splitting_brute(m, subsets):
    for bits in itertools.product([0, 1], repeat=m):
        if all(
            any(bits[x] for x in s) and any(not bits[x] for x in s) for s in subsets
        ):
            return True
    return False


def test_betweenness_gadget_shapes():
    prof = from_betweenness(3, [(0, 1, 2)])
    assert prof.n == 2
    assert prof.votes[0].pairs() == frozenset({(0, 2), (1, 2)})
    assert prof.votes[1].pairs() == frozenset({(1, 0), (2, 0)})
    assert oracle_recognize(prof, "psp").consistent
    wide = from_betweenness(5, [(0, 1, 2)])
    assert wide.order_class() == OrderClass.LOCAL_WEAK


def test_betweenness_contradictory_instance():
    prof = from_betweenness(3, [(0, 1, 2), (1, 0, 2)])
    assert not betweenness_brute(3, [(0, 1, 2), (1, 0, 2)])
    assert not oracle_recognize(prof, "psp").consistent


def test_betweenness_empty_triples():
    prof = from_betweenness(3, [])
    assert oracle_recognize(prof, "psp").consistent


def test_betweenness_malformed():
    with pytest.raises(ValueError):
        from_betweenness(3, [(0, 0, 1)])
    with pytest.raises(ValueError):
        from_betweenness(3, [(0, 1, 5)])


def test_set_splitting_shapes():
    prof = from_set_splitting(3, [(0, 1, 2)])
    assert prof.m == 4 and prof.n == 2
    assert prof.contains_total_order()
    assert prof.order_class() == OrderClass.PARTIAL
    assert oracle_recognize(prof, "psp").consistent  # split {0} / {1,2} works
    empty = from_set_splitting(3, [])
    assert oracle_recognize(empty, "psp").consistent


def test_set_splitting_malformed():
    with pytest.raises(ValueError):
        from_set_splitting(4, [(0, 1)])
    with pytest.raises(ValueError):
        from_set_splitting(4, [(0, 1, 7)])


def test_set_splitting_no_instance():
    # every bipartition of a 5-set leaves a side of size >= 3, so taking all
    # ten 3-subsets gives a certified no-instance
    subsets = list(itertools.combinations(range(5), 3))
    assert not set_splitting_brute(5, subsets)
    prof = from_set_splitting(5, subsets)
    assert not oracle_recognize(prof, "psp").consistent


def test_reduction_fidelity_sampled():
    rng = random.Random(0)
    triples4 = list(itertools.permutations(range(4), 3))
    for _ in range(150):
        triples = rng.sample(triples4, rng.randint(1, 4))
        prof = from_betweenness(4, triples)
        assert (
            oracle_recognize(prof, "psp").consistent
            == betweenness_brute(4, triples)
        )
    subsets5 = list(itertools.combinations(range(5), 3))
    for _ in range(100):
        zs = rng.sample(subsets5, rng.randint(1, 4))
        prof = from_set_splitting(5, zs)
        assert (
            oracle_recognize(prof, "psp").consistent == set_splitting_brute(5, zs)
        )


def test_sample_sp_total_order_is_single_peaked():
    rng = random.Random(1)
    from peakcheck.axis_check import has_v_valley
    from peakcheck.model import Axis

    for _ in range(200):
        m = rng.randint(1, 7)
        axis = list(range(m))
        rng.shuffle(axis)
        order = sample_sp_total_order(axis, rng)
        vote = PreferenceOrder.from_total(order)
        assert has_v_valley(vote, Axis(tuple(axis))) is None


def test_random_sp_profile_consistent_for_every_notion():
    for notion in Notion:
        for seed in range(40):
            prof = random_sp_profile(5, 5, notion.value, incompleteness=0.6, seed=seed)
            assert oracle_recognize(prof, notion).consistent, (notion, seed)


def test_random_sp_profile_zero_incompleteness_is_total():
    prof = random_sp_profile(6, 8, "psp", incompleteness=0.0, seed=3)
    assert prof.order_class() == OrderClass.TOTAL
    assert oracle_recognize(prof, "psp").consistent


def test_random_sp_profile_reproducible():
    a = random_sp_profile(6, 8, "psp", 0.4, seed=7)
    b = random_sp_profile(6, 8, "psp", 0.4, seed=7)
    assert a == b
    c = random_sp_profile(6, 8, "psp", 0.4, seed=8)
    assert a != c


def test_random_sp_profile_refuses_incompleteness_outside_the_unit_interval():
    for bad in (-0.1, 1.5):
        with pytest.raises(PeakcheckError, match=r"^incompleteness must lie in \[0, 1\], got "):
            random_sp_profile(6, 3, "psp", bad, 1)


# sha256 of the seeded sweep below: the benchmark's corpora and the pinned
# frontiers are drawn from these profiles
_SP_PROFILE_DIGEST = "ec44547da079a39e00c5808928d27ce98da758904e87b87bf7a7a071da474481"


def test_random_sp_profile_reads_its_notion_by_name():
    for bad in ("bogus", "PSP"):
        with pytest.raises(PeakcheckError, match=f"^unknown notion {bad!r}$"):
            random_sp_profile(6, 3, bad, 0.9, 1)
    # each notion as a name and as a member: the same profiles as before
    for form in (operator.attrgetter("value"), lambda notion: notion):
        digest = hashlib.sha256()
        for notion in Notion:
            for seed in range(60):
                m, n = 1 + seed % 9, 1 + seed % 5
                prof = random_sp_profile(m, n, form(notion), (seed % 4) / 3, seed=seed)
                digest.update(repr([v.ranks for v in prof.votes]).encode() + b"\n")
        assert digest.hexdigest() == _SP_PROFILE_DIGEST


def test_random_profile_classes():
    rng_seeds = range(10)
    for cls in OrderClass:
        for seed in rng_seeds:
            prof = random_profile(5, 4, cls, seed)
            assert prof.order_class() <= cls


def test_random_profile_oracle_documented_seeds():
    # three documented seeds with frozen oracle verdicts (weak orders, m=4)
    expected = {0: False, 1: False, 2: True}
    for seed, verdict in expected.items():
        prof = random_profile(4, 5, OrderClass.WEAK, seed)
        assert oracle_recognize(prof, "psp").consistent == verdict
