import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_local_weak,
    random_partial,
    random_top,
    random_weak,
    random_weak_profile,
    reference_oracle_ok,
)
from peakcheck import oracle
from peakcheck.errors import ClassError, SizeError
from peakcheck.model import Notion, PreferenceOrder, Profile, all_axes, build_order
from peakcheck.oracle import (
    extension_enumerate,
    majority_relation,
    oracle_recognize,
    weak_condorcet_winners,
)

FISHBURN = Profile(
    3,
    (
        PreferenceOrder.from_total([1, 0, 2]),  # <b > a > c>
        PreferenceOrder.from_total([2, 1, 0]),  # <c > b > a>
        PreferenceOrder.from_ranks([0, 1, 1]),  # <a > b ~ c>
    ),
    (1, 2, 2),
)


def test_fishburn_counterexample():
    rel = majority_relation(FISHBURN)
    assert (0, 2) in rel and (2, 1) in rel and (1, 0) in rel  # a>c>b>a cycle
    assert weak_condorcet_winners(FISHBURN) == frozenset()
    res = oracle_recognize(FISHBURN, "psp")
    assert res.consistent
    assert res.axis.order == (0, 1, 2)  # lexicographically least witness


def test_majority_trivia():
    total = PreferenceOrder.from_total([2, 0, 1])
    prof = Profile(3, (total,))
    assert majority_relation(prof) == {(2, 0), (2, 1), (0, 1)}
    assert weak_condorcet_winners(prof) == frozenset({2})
    opposite = Profile(
        2,
        (PreferenceOrder.from_total([0, 1]), PreferenceOrder.from_total([1, 0])),
    )
    assert majority_relation(opposite) == set()
    assert weak_condorcet_winners(opposite) == frozenset({0, 1})


def test_majority_rejects_partial():
    with pytest.raises(ClassError):
        majority_relation(Profile(4, (build_order([(0, 2), (1, 2)], 4),)))


def test_single_candidate_profile():
    prof = Profile(1, (PreferenceOrder.empty(1),))
    assert oracle_recognize(prof, "psp").consistent


def test_betweenness_pair_alone_consistent():
    prof = Profile(
        3,
        (build_order([(0, 2), (1, 2)], 3), build_order([(1, 0), (2, 0)], 3)),
    )
    res = oracle_recognize(prof, "psp")
    assert res.consistent
    assert res.axis.order == (0, 1, 2)


def test_size_bound():
    prof = Profile(9, (PreferenceOrder.empty(9),))
    with pytest.raises(SizeError):
        oracle_recognize(prof)


def test_extension_enumerate_examples():
    tie = PreferenceOrder.from_ranks([0, 0])
    assert sorted(extension_enumerate(tie)) == [(0, 1), (1, 0)]
    total = PreferenceOrder.from_total([1, 0, 2])
    assert list(extension_enumerate(total)) == [(1, 0, 2)]
    vee = build_order([(0, 1), (0, 2)], 3)  # b, c incomparable below a
    assert len(list(extension_enumerate(vee))) == 2
    with pytest.raises(SizeError):
        extension_enumerate(PreferenceOrder.empty(9))


def test_reversal_invariance_and_relabeling_equivariance():
    rng = random.Random(0)
    for _ in range(60):
        m = rng.randint(1, 5)
        prof = random_weak_profile(m, rng.randint(1, 4), rng)
        res = oracle_recognize(prof, "psp")
        relabel = list(range(m))  # relabel[old] = new
        rng.shuffle(relabel)
        inv = [0] * m
        for old, new in enumerate(relabel):
            inv[new] = old
        mapped = Profile(
            m,
            tuple(
                PreferenceOrder.from_ranks([v.ranks[inv[c]] for c in range(m)])
                for v in prof.votes
            ),
        )
        res2 = oracle_recognize(mapped, "psp")
        assert res.consistent == res2.consistent
        if res.consistent:
            # the relabelled profile is consistent on the relabelled axis
            image = tuple(relabel[c] for c in res.axis.order)
            from peakcheck.axis_check import is_possibly_sp_on_axis
            from peakcheck.model import Axis

            assert is_possibly_sp_on_axis(mapped, Axis(image)).consistent


def test_notion_containments_on_random_suite():
    rng = random.Random(1)
    for _ in range(150):
        m = rng.randint(1, 5)
        prof = random_weak_profile(m, rng.randint(1, 4), rng)
        black = oracle_recognize(prof, "black").consistent
        necessary = oracle_recognize(prof, "necessary").consistent
        plateaued = oracle_recognize(prof, "plateaued").consistent
        psp = oracle_recognize(prof, "psp").consistent
        assert not black or necessary
        assert not necessary or plateaued
        assert not plateaued or psp


def test_plateau_notions_reject_partial_orders():
    prof = Profile(4, (build_order([(0, 2), (1, 2)], 4),))
    with pytest.raises(ClassError):
        oracle_recognize(prof, "plateaued")


_VOTE_MAKERS = {
    "partial": random_partial,
    "local_weak": random_local_weak,
    "weak": random_weak,
    "top": random_top,
}


@st.composite
def _oracle_cases(draw):
    notion = draw(st.sampled_from(list(Notion)))
    # necessary enumerates every extension on every axis: keep it small
    m = draw(st.integers(1, 5 if notion == Notion.NECESSARY else 7))
    kind = draw(st.sampled_from([*_VOTE_MAKERS, "mixed"]))
    makers = list(_VOTE_MAKERS.values()) if kind == "mixed" else [_VOTE_MAKERS[kind]]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    votes = tuple(rng.choice(makers)(m, rng) for _ in range(draw(st.integers(1, 5))))
    return Profile(m, votes), notion


@given(_oracle_cases())
@settings(max_examples=300, deadline=None)
def test_survivor_loop_matches_full_pass_reference(case):
    profile, notion = case
    try:
        ref_axes, ref_ok = reference_oracle_ok(profile, notion)
    except ClassError:
        with pytest.raises(ClassError):
            oracle_recognize(profile, notion)
        return
    axes, pos = oracle._axes_and_positions(profile.m)
    assert np.array_equal(axes.T, ref_axes)
    live = oracle._live_axes(profile, axes, pos, oracle._BAD_AXES[notion])
    ok = np.zeros(len(ref_ok), dtype=bool)
    ok[live] = True
    assert np.array_equal(ok, ref_ok)
    res = oracle_recognize(profile, notion)
    assert res.consistent == bool(ref_ok.any())
    if res.consistent:
        assert res.axis.order == tuple(ref_axes[np.flatnonzero(ref_ok)[0]])


def _recording_psp_test(monkeypatch):
    seen = []
    test = oracle._BAD_AXES[Notion.PSP]

    def recording(vote, axes, pos):
        seen.append(axes.shape[1])
        return test(vote, axes, pos)

    monkeypatch.setitem(oracle._BAD_AXES, Notion.PSP, recording)
    return seen


def test_later_votes_are_tested_on_surviving_axes_only(monkeypatch):
    # work count, no timing: each vote sees only the axes earlier votes left
    seen = _recording_psp_test(monkeypatch)
    prof = Profile(
        6,
        (
            build_order([(0, 5), (1, 5)], 6),  # 5 may not lie between 0 and 1
            build_order([(2, 3), (4, 3)], 6),
            build_order([(1, 0)], 6),
        ),
    )
    assert oracle_recognize(prof, "psp").consistent
    assert seen[0] == math.factorial(6) // 2
    assert len(seen) == 3
    assert all(later < seen[0] for later in seen[1:])


def test_survivor_loop_stops_when_no_axis_is_left(monkeypatch):
    seen = _recording_psp_test(monkeypatch)
    # on three candidates each vote rules out the axis with its worst in the
    # middle; after three votes no axis is left and two votes stay untested
    worst_1, worst_2, worst_0 = ([0, 2, 1], [0, 1, 2], [1, 2, 0])
    votes = [PreferenceOrder.from_total(v) for v in (worst_1, worst_2, worst_0)]
    votes += [PreferenceOrder.from_total([2, 1, 0]), PreferenceOrder.empty(3)]
    assert not oracle_recognize(Profile(3, tuple(votes)), "psp").consistent
    assert seen == [3, 2, 1]


def test_bound_above_the_maximum_is_refused_before_enumeration(monkeypatch):
    def enumerate_axes(m):
        raise AssertionError(f"axes enumerated for m={m}")

    monkeypatch.setattr(oracle, "_axes_and_positions", enumerate_axes)
    prof = Profile(15, (build_order([(0, 1), (2, 3)], 15),))
    tracemalloc.start()
    try:
        with pytest.raises(SizeError):
            oracle_recognize(prof, "psp", bound=20)
        with pytest.raises(SizeError):
            oracle_recognize(Profile(3, (PreferenceOrder.empty(3),)), bound=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_bound_at_the_maximum_is_accepted():
    prof = Profile(3, (PreferenceOrder.from_total([1, 0, 2]),))
    assert oracle_recognize(prof, "psp", bound=oracle.MAX_BOUND).consistent


@pytest.mark.parametrize("m", range(1, 9))
def test_axis_table_is_all_axes(m):
    axes, pos = oracle._axes_and_positions(m)
    assert [tuple(column) for column in axes.T.tolist()] == [
        a.order for a in all_axes(m)
    ]
    # pos is the inverse of each axis
    inverse = np.take_along_axis(pos, axes.astype(np.intp), axis=0)
    assert (inverse == np.arange(m)[:, None]).all()
    assert not axes.flags.writeable and not pos.flags.writeable
