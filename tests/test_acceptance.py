"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see per-criterion lines.
"""

import functools
import itertools
import math
import os
import random
import time

import pytest

from conftest import random_local_weak, random_top, random_total, random_weak
from peakcheck import axis_check, c1p, oracle, preflib, unguided
from peakcheck.cli import applicable_engines, dispatch
from peakcheck.gadgets import from_betweenness, from_set_splitting, random_sp_profile
from peakcheck.guided import enumerate_implicit_guiding_votes, guided_recognize
from peakcheck.model import Notion, PreferenceOrder, Profile

# -- worked-example fixtures -------------------------------------------------

EX1 = Profile(
    6,
    (
        PreferenceOrder.from_ranks([0, 1, 0, 2, 2, 3]),  # <a~c > b > e~d > f>
        PreferenceOrder.from_ranks([0, 1, 2, 3, 3, 4]),  # <a > b > c > e~d > f>
    ),
)
X1_EXPECTED = [
    [1, 0, 1, 0, 0, 0],
    [1, 1, 1, 0, 0, 0],
    [1, 0, 1, 0, 0, 0],
    [1, 1, 1, 1, 1, 0],
    [1, 1, 1, 1, 1, 0],
    [1, 1, 1, 1, 1, 1],
]
X2_EXPECTED = [
    [1, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0],
    [1, 1, 1, 0, 0, 0],
    [1, 1, 1, 1, 1, 0],
    [1, 1, 1, 1, 1, 0],
    [1, 1, 1, 1, 1, 1],
]

EX2 = Profile(
    5,
    (
        PreferenceOrder.from_ranks([0, 1, 2, 2, 3]),
        PreferenceOrder.from_ranks([0, 0, 0, 1, 2]),
        PreferenceOrder.from_ranks([3, 1, 2, 0, 0]),
    ),
)

A, B, C, D, E, F, G, H = range(8)
EX4 = Profile(
    8,
    (
        PreferenceOrder.top_order([B, C, A], 8),
        PreferenceOrder.top_order([C, D], 8),
        PreferenceOrder.top_order([F, G, H, E, A], 8),
        PreferenceOrder.top_order([H, G, F], 8),
    ),
)

FISHBURN = Profile(
    3,
    (
        PreferenceOrder.from_total([1, 0, 2]),
        PreferenceOrder.from_total([2, 1, 0]),
        PreferenceOrder.from_ranks([0, 1, 1]),
    ),
    (1, 2, 2),
)


def test_criterion_1_worked_example_regression():
    t0 = time.perf_counter()
    matrix = c1p.build_psp_matrix(EX1)
    dense = matrix.dense()
    assert dense[:6] == X1_EXPECTED and dense[6:] == X2_EXPECTED
    res1 = c1p.recognize_psp_c1p(EX1)
    assert res1.consistent
    assert axis_check.is_possibly_sp_on_axis(EX1, res1.axis).consistent

    guiding_votes = list(enumerate_implicit_guiding_votes(EX2))
    assert guiding_votes
    assert all(not guided_recognize(EX2, g).consistent for g in guiding_votes)

    res4 = unguided.unguided_recognize(EX4)
    assert res4.consistent
    assert axis_check.is_possibly_sp_on_axis(EX4, res4.axis).consistent
    witness_run = unguided._grow_axis(unguided.IntersectionIndex(EX4.rank_matrix()), H)
    assert witness_run is not None and witness_run[:7] == [H, G, F, E, A, B, C]

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"worked examples took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 worked-example regression: PASS ({elapsed*1000:.0f} ms)")


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(20_000)
    per_class = 1000
    checked = 0

    def check(profile):
        nonlocal checked
        expected = oracle.oracle_recognize(profile, Notion.PSP).consistent
        for name, runner in applicable_engines(profile, Notion.PSP):
            if name == "oracle":
                continue
            got = runner(profile).consistent
            assert got == expected, (name, profile)
            checked += 1

    for _ in range(per_class):
        m, n = rng.randint(1, 6), rng.randint(1, 8)
        check(Profile(m, tuple(random_weak(m, rng) for _ in range(n))))
    for _ in range(per_class):
        m, n = rng.randint(1, 6), rng.randint(1, 8)
        check(Profile(m, tuple(random_top(m, rng) for _ in range(n))))
    for _ in range(per_class):
        m, n = rng.randint(1, 6), rng.randint(1, 8)
        votes = [random_local_weak(m, rng) for _ in range(n - 1)] if n > 1 else []
        votes.append(random_total(m, rng))
        check(Profile(m, tuple(votes)))

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"oracle-equivalence suite took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE 2 oracle equivalence: PASS "
        f"({3 * per_class} profiles, {checked} engine runs, {elapsed:.1f} s)"
    )


@functools.cache
def _between_mask(m, triple):
    """Bitmask over the permutations of range(m), each read as the position
    array of one order (so every order occurs once), of the orders that put
    the triple's middle element between its ends."""
    a, b, c = triple
    return sum(
        1 << i
        for i, pos in enumerate(itertools.permutations(range(m)))
        if pos[a] < pos[b] < pos[c] or pos[c] < pos[b] < pos[a]
    )


def _betweenness_brute(m, triples):
    orders = (1 << math.factorial(m)) - 1
    for triple in triples:
        orders &= _between_mask(m, triple)
    return orders != 0


def _set_splitting_brute(m, subsets):
    for bits in itertools.product([0, 1], repeat=m):
        if all(
            any(bits[x] for x in s) and any(not bits[x] for x in s) for s in subsets
        ):
            return True
    return False


def test_criterion_3_reduction_fidelity():
    t0 = time.perf_counter()
    checked = 0
    # betweenness: each constraint is symmetric under reversal, so triples
    # with ends in ascending order enumerate all distinct constraints
    for size in (3, 4, 5):
        triples = [
            (a, b, c)
            for a, b, c in itertools.permutations(range(size), 3)
            if a < c
        ]
        for k in range(1, 5):
            for chosen in itertools.combinations(triples, k):
                prof = from_betweenness(size, list(chosen))
                got = oracle.oracle_recognize(prof, Notion.PSP).consistent
                assert got == _betweenness_brute(size, chosen), chosen
                checked += 1
    # set splitting: every collection of 3-subsets of ground sets up to 5
    for size in (3, 4, 5):
        subsets = list(itertools.combinations(range(size), 3))
        for k in range(len(subsets) + 1):
            for chosen in itertools.combinations(subsets, k):
                prof = from_set_splitting(size, list(chosen))
                got = oracle.oracle_recognize(prof, Notion.PSP).consistent
                assert got == _set_splitting_brute(size, chosen), chosen
                checked += 1
    elapsed = time.perf_counter() - t0
    print(
        f"\nACCEPTANCE 3 reduction fidelity: PASS ({checked} instances, "
        f"{elapsed:.1f} s)"
    )


def test_criterion_4_intransitive_majority_counterexample():
    rel = oracle.majority_relation(FISHBURN)
    assert (0, 2) in rel and (2, 1) in rel and (1, 0) in rel
    assert oracle.weak_condorcet_winners(FISHBURN) == frozenset()
    res = c1p.recognize_psp_c1p(FISHBURN)
    assert res.consistent
    assert oracle.oracle_recognize(FISHBURN, Notion.PSP).axis.order == (0, 1, 2)
    print("\nACCEPTANCE 4 intransitive-majority counterexample: PASS")


def test_criterion_5_containment_suite():
    rng = random.Random(50_000)
    tested = 0
    for _ in range(800):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        prof = Profile(m, tuple(random_weak(m, rng) for _ in range(n)))
        chain = [
            c1p.recognize_black(prof).consistent,
            c1p.recognize_necessary(prof).consistent,
            c1p.recognize_plateaued(prof).consistent,
            c1p.recognize_psp_c1p(prof).consistent,
        ]
        for stronger, weaker in zip(chain, chain[1:]):
            assert not stronger or weaker, (prof, chain)
        tested += 1
    print(f"\nACCEPTANCE 5 containment suite: PASS ({tested} profiles, 0 violations)")


def _profile_with_total_guiding(m, n, seed):
    # same seed => same hidden axis, so the fresh total order stays consistent
    profile = random_sp_profile(m, n, "psp", incompleteness=0.5, seed=seed)
    total = random_sp_profile(m, 1, "psp", incompleteness=0.0, seed=seed).votes[0]
    return Profile(m, (total,) + profile.votes[1:])


def test_criterion_6_performance():
    # consecutive-ones path: tie-dense (ratings-like) weak profile
    prof = random_sp_profile(1000, 100, "psp", incompleteness=0.9, seed=6)
    t0 = time.perf_counter()
    res = c1p.recognize_psp_c1p(prof)
    c1p_time = time.perf_counter() - t0
    assert res.consistent
    assert c1p_time <= 30.0, f"c1p took {c1p_time:.1f}s"

    # guided path at m = 10,000 with an explicit guiding vote
    big = _profile_with_total_guiding(10_000, 100, seed=7)
    guiding = big.first_total_order()
    t0 = time.perf_counter()
    res = guided_recognize(big, guiding)
    guided_time = time.perf_counter() - t0
    assert res.consistent
    assert guided_time <= 5.0, f"guided took {guided_time:.2f}s"

    # linearity: doubling m at fixed n at most 2.5x (medians of three). The
    # two sizes' samples alternate, so a change in host speed during the
    # test reaches both medians alike.
    sizes = [
        _profile_with_total_guiding(5_000, 100, seed=8),
        _profile_with_total_guiding(10_000, 100, seed=9),
    ]
    samples = [[], []]
    for _ in range(3):
        for prof, times in zip(sizes, samples):
            g = prof.first_total_order()
            t0 = time.perf_counter()
            assert guided_recognize(prof, g).consistent
            times.append(time.perf_counter() - t0)
    t_half, t_full = (sorted(times)[1] for times in samples)
    ratio = t_full / t_half
    assert ratio <= 2.5, f"doubling m scaled runtime by {ratio:.2f}"
    print(
        f"\nACCEPTANCE 6 performance: PASS (c1p m=1000 n=100: {c1p_time:.1f} s; "
        f"guided m=10000 n=100: {guided_time:.2f} s; doubling ratio {ratio:.2f})"
    )


def test_criterion_7_preflib_sweep(tmp_path):
    # local synthetic sweep always runs; a real PrefLib directory is used when
    # PEAKCHECK_PREFLIB_DIR is set (best-effort, corpus is a moving target)
    files = []
    for seed in range(3):
        prof = random_sp_profile(8, 6, "psp", 0.5, seed=seed)
        path = tmp_path / f"sp{seed}.toc"
        path.write_text(preflib.write_preflib(prof))
        files.append(path)
    cyclic = tmp_path / "cyclic.soc"
    cyclic.write_text("# NUMBER ALTERNATIVES: 3\n1: 1,2,3\n1: 2,3,1\n1: 3,1,2\n")
    files.append(cyclic)

    verdicts = {}
    for path in files:
        profile, names = preflib.parse_any(path.read_text())
        verdict = dispatch(profile, Notion.PSP, "auto")
        verdicts[path.name] = verdict.consistent
    assert verdicts["cyclic.soc"] is False
    assert all(verdicts[f"sp{i}.toc"] for i in range(3))

    corpus_dir = os.environ.get("PEAKCHECK_PREFLIB_DIR")
    scanned = 0
    inconsistent = 0
    if corpus_dir:
        for name in sorted(os.listdir(corpus_dir)):
            if not name.endswith((".toc", ".toi", ".soc", ".soi")):
                continue
            text = open(os.path.join(corpus_dir, name)).read()
            profile, _, _ = preflib.parse_preflib_full(text)
            verdict = dispatch(profile, Notion.PSP, "auto")
            scanned += 1
            inconsistent += 0 if verdict.consistent else 1
        note = f", PrefLib dir: {inconsistent}/{scanned} not consistent"
    else:
        note = ", live corpus skipped (PEAKCHECK_PREFLIB_DIR unset)"
    print(f"\nACCEPTANCE 7 PrefLib sweep: PASS (4 local files{note})")
