import hashlib
import random
from collections import Counter

import numpy as np
import pytest

from conftest import random_top_profile, reference_subproblem, rep_top
from peakcheck import guided, oracle, unguided
from peakcheck.axis_check import is_possibly_sp_on_axis
from peakcheck.errors import ClassError, InternalError
from peakcheck.gadgets import random_sp_profile
from peakcheck.model import PreferenceOrder, Profile
from peakcheck.unguided import (
    _grow_axis,
    IntersectionIndex,
    _subproblem,
    connected_components,
    intersecting_vote,
    oplus,
    unguided_recognize,
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


def test_connected_components_examples():
    parts = connected_components(EX4)
    assert len(parts) == 1 and parts[0][0] == list(range(8))
    two = Profile(
        4,
        (PreferenceOrder.top_order([0, 1], 4), PreferenceOrder.top_order([2, 3], 4)),
    )
    assert [p[0] for p in connected_components(two)] == [[0, 1], [2, 3]]
    empty = Profile(3, (PreferenceOrder.empty(3),))
    assert [p[0] for p in connected_components(empty)] == [[0], [1], [2]]


def test_oplus_worked_example_steps():
    idx = IntersectionIndex(EX4.rank_matrix())
    assert oplus([H], idx.chains[3], idx.ranks[3]) == [H, G, F]
    assert oplus([H, G, F], idx.chains[2], idx.ranks[2]) == [H, G, F, E, A]
    # vote ranking nothing outside the axis and single-peaked on it: unchanged
    assert oplus([H, G, F], idx.chains[3], idx.ranks[3]) == [H, G, F]


def test_oplus_incompatible():
    vote = PreferenceOrder.top_order([0, 2, 1], 3)  # <0 > 2 > 1>
    # axis <0 1> extends to <0 1 2>; candidate 1 dips below 0 and 2 -> valley
    assert oplus([0, 1], vote.ranked_candidates(), np.asarray(vote.ranks)) is None


def test_rep_top_examples():
    v2 = PreferenceOrder.top_order([C, D], 8)
    out = rep_top(v2, {D})
    assert out.ranked_candidates() == [C, 8]
    v1 = PreferenceOrder.top_order([B, C, A], 8)
    out = rep_top(v1, {D})
    assert out.ranked_candidates() == [B, C, A]  # x joins the unranked tail
    assert out.m == 9
    unchanged = rep_top(v1, set())
    assert unchanged.ranked_candidates() == [B, C, A]


def test_intersecting_vote_worked_example():
    idx = IntersectionIndex(EX4.rank_matrix())
    assert idx.refusal is None
    k = intersecting_vote(idx, [H, G, F, E, A])
    assert k == 0  # V1 = <b > c > a > .> intersects at a


def test_index_refusals():
    # three pairwise-incomparable maximal above-sets for candidate 3
    votes = (
        PreferenceOrder.top_order([0, 3], 5),
        PreferenceOrder.top_order([1, 3], 5),
        PreferenceOrder.top_order([2, 3], 5),
    )
    idx = IntersectionIndex(Profile(5, votes).rank_matrix())
    assert idx.refusal is not None
    assert not unguided_recognize(Profile(5, votes)).consistent

    # two overlapping maximal above-sets for candidate 3
    votes = (
        PreferenceOrder.top_order([0, 1, 3], 4),
        PreferenceOrder.top_order([1, 2, 3], 4),
    )
    idx = IntersectionIndex(Profile(4, votes).rank_matrix())
    assert idx.refusal is not None
    assert not unguided_recognize(Profile(4, votes)).consistent


def test_unguided_worked_example():
    res = unguided_recognize(EX4)
    assert res.consistent
    assert is_possibly_sp_on_axis(EX4, res.axis).consistent
    # the documented successful run starts at h
    axis = _grow_axis(IntersectionIndex(EX4.rank_matrix()), H)
    assert axis[:7] == [H, G, F, E, A, B, C]


def test_unguided_single_short_vote():
    prof = Profile(3, (PreferenceOrder.top_order([0, 1], 3),))
    assert unguided_recognize(prof).consistent


def test_unguided_rejects_weak_orders():
    prof = Profile(3, (PreferenceOrder.from_ranks([0, 0, 1]),))
    with pytest.raises(ClassError):
        unguided_recognize(prof)


def test_gadget_candidate_never_on_axis():
    rng = random.Random(1)
    for _ in range(300):
        m = rng.randint(2, 6)
        prof = random_top_profile(m, rng.randint(1, 6), rng)
        res = unguided_recognize(prof)
        if res.consistent:
            assert sorted(res.axis.order) == list(range(m))


def test_agreement_with_oracle():
    rng = random.Random(2)
    for _ in range(1200):
        m = rng.randint(1, 6)
        prof = random_top_profile(m, rng.randint(1, 7), rng)
        res = unguided_recognize(prof)
        assert res.consistent == oracle.oracle_recognize(prof, "psp").consistent
        if res.consistent:
            assert is_possibly_sp_on_axis(prof, res.axis).consistent


def test_agreement_with_oracle_truncation_heavy():
    rng = random.Random(3)
    for _ in range(800):
        m = rng.randint(2, 7)
        prof = random_top_profile(m, rng.randint(1, 8), rng, max_ranked=3)
        res = unguided_recognize(prof)
        assert res.consistent == oracle.oracle_recognize(prof, "psp").consistent


def test_component_order_does_not_change_verdict():
    rng = random.Random(4)
    for _ in range(150):
        m = rng.randint(4, 7)
        half = m // 2
        left = random_top_profile(half, rng.randint(1, 3), rng)
        right = random_top_profile(m - half, rng.randint(1, 3), rng)
        votes = tuple(
            PreferenceOrder.top_order(v.ranked_candidates(), m) for v in left.votes
        ) + tuple(
            PreferenceOrder.top_order(
                [c + half for c in v.ranked_candidates()], m
            )
            for v in right.votes
        )
        prof = Profile(m, votes)
        expected = (
            unguided_recognize(left).consistent
            and unguided_recognize(right).consistent
        )
        assert unguided_recognize(prof).consistent == expected


def test_index_refusals_agree_with_oracle():
    votes = (
        PreferenceOrder.top_order([0, 3], 5),
        PreferenceOrder.top_order([1, 3], 5),
        PreferenceOrder.top_order([2, 3], 5),
    )
    prof = Profile(5, votes)
    assert not oracle.oracle_recognize(prof, "psp").consistent
    votes = (
        PreferenceOrder.top_order([0, 1, 3], 4),
        PreferenceOrder.top_order([1, 2, 3], 4),
    )
    prof = Profile(4, votes)
    assert not oracle.oracle_recognize(prof, "psp").consistent


def _subproblem_vote(m, rng, kinds):
    seq = rng.sample(range(m), m)
    kind = rng.choice(("total", "empty", "all but one", "top"))
    kinds[kind] += 1
    if kind == "total":
        return PreferenceOrder.from_total(seq)
    if kind == "empty":
        return PreferenceOrder.empty(m)
    if kind == "all but one":  # the last candidate alone in the bottom bucket
        return PreferenceOrder.top_order(seq[: m - 1], m)
    return PreferenceOrder.top_order(seq[: rng.randint(0, m - 2)], m)


def test_subproblem_gather_matches_per_vote_reference():
    rng = random.Random(11)
    kinds = dict.fromkeys(("total", "empty", "all but one", "top"), 0)
    empty_outside = 0
    for _ in range(1500):
        m = rng.randint(2, 12)
        profile = Profile(
            m, tuple(_subproblem_vote(m, rng, kinds) for _ in range(rng.randint(1, 8)))
        )
        # split the candidates into the subproblem, the partial axis and the rest
        seq = rng.sample(range(m), m)
        cut = rng.randint(1, m)
        keep = sorted(seq[:cut])
        outside = sorted(seq[rng.randint(cut, m) :])
        empty_outside += not outside
        sub = _subproblem(profile.rank_matrix(), keep, outside)
        ref = reference_subproblem(profile, keep, outside)
        assert sub.votes == ref.votes
        assert sub.rank_matrix().tolist() == ref.rank_matrix().tolist()
        assert sub._vote_classes().tolist() == ref._vote_classes().tolist()
    assert min(kinds.values()) > 300 and empty_outside > 100


def test_component_matrix_is_already_dense():
    # each component is solved on its gather of the profile's rank matrix,
    # as it stands: renumbering it to dense ranks must change nothing
    rng = random.Random(22)
    shapes = Counter()
    for _ in range(1500):
        m = rng.randint(2, 12)
        short = rng.choice((2, 3, None))  # short votes leave several components
        profile = random_top_profile(m, rng.randint(1, 8), rng, max_ranked=short)
        for candidates, vote_idx in connected_components(profile):
            if not vote_idx:
                continue
            ranks = profile.rank_matrix()[np.ix_(vote_idx, candidates)]
            assert np.array_equal(Profile.from_rank_matrix(ranks).rank_matrix(), ranks)
            shapes[len(candidates) < m] += 1
    # whole profiles and proper parts of them
    assert min(shapes.values()) > 500, shapes


def test_refusal_detail_is_bounded():
    # one component of 300 candidates (1..300) whose three pair votes would
    # each need their pair adjacent on the axis; 0 and 301 stay unranked
    m = 302
    votes = (PreferenceOrder.top_order(list(range(1, 301)), m),) + tuple(
        PreferenceOrder.top_order(pair, m) for pair in ([1, 150], [1, 300], [150, 300])
    )
    res = unguided_recognize(Profile(m, votes))
    assert not res.consistent
    assert res.certificate.reason == "no start candidate completes a component axis"
    assert res.certificate.detail == "component of 300 candidates, smallest 1"
    assert len(res.certificate.detail) < 80


def test_component_axis_that_is_no_permutation_is_an_internal_error(monkeypatch):
    # a component solver that repeats a candidate reaches the exit, which
    # names unguided
    assert unguided_recognize(EX4).consistent
    monkeypatch.setattr(unguided, "_solve_component", lambda ranks: [0] * ranks.shape[1])
    with pytest.raises(InternalError, match="^unguided engine .* not a permutation"):
        unguided_recognize(EX4)


def test_disconnected_component_is_an_internal_error():
    # once {0, 1} is placed, no vote ranks a placed and an unplaced candidate
    prof = Profile(
        4, (PreferenceOrder.top_order([0, 1], 4), PreferenceOrder.top_order([2, 3], 4))
    )
    with pytest.raises(InternalError, match="^unguided engine found no intersecting vote"):
        intersecting_vote(IntersectionIndex(prof.rank_matrix()), [0, 1])


def test_misplaced_pinned_endpoint_is_an_internal_error(monkeypatch):
    # a pinned placement that moves an endpoint is a bug, not a rejected
    # start: on single-peaked total orders cut to top orders it must surface
    place = guided._place

    def misplaced(rg, pinned_left):
        steps, blocked = place(rg, pinned_left)
        return (steps[::-1] if pinned_left and steps else steps), blocked

    rng = random.Random(15)
    profiles = []
    for seed in range(10):
        totals = random_sp_profile(30, 10, "psp", 0.0, seed=seed).votes
        cut = [sorted(range(30), key=v.ranks.__getitem__)[: rng.randint(1, 28)] for v in totals]
        profiles.append(Profile(30, tuple(PreferenceOrder.top_order(c, 30) for c in cut)))
    assert all(unguided_recognize(p).consistent for p in profiles)
    monkeypatch.setattr(guided, "_place", misplaced)
    for p in profiles:
        with pytest.raises(InternalError, match="pinned endpoint"):
            unguided_recognize(p)


# sha256 of the records below: a rewrite of the engine or of its guided
# subproblems must find the same verdicts and refusals
_UNGUIDED_DIGEST = "6c1000692efce7d881caf018f337c6ec19112170da52d1f51ff746909ab56018"
# sha256 of the axes alone: which valid axis the engine returns may change,
# and then this is re-pinned with the reason
_UNGUIDED_AXES_DIGEST = "58f6f67975d2491c4764cc1ece82f7445d3b1f8767de8e2c6d226677a552bb45"


def _cut_sp_profile(m, n, seed, rng):
    """Single-peaked total orders cut to top orders: a yes-instance."""
    totals = random_sp_profile(m, n, "psp", 0.0, seed=seed).votes
    cut = [sorted(range(m), key=v.ranks.__getitem__)[: rng.randint(1, m)] for v in totals]
    return Profile(m, tuple(PreferenceOrder.top_order(c, m) for c in cut))


def _digest_profiles():
    rng = random.Random(21)
    for i in range(2000):
        m = rng.randint(1, 9)
        yield random_top_profile(m, rng.randint(1, 8), rng)
        if i % 50 == 0:
            # yes-instances over more candidates
            m = rng.randint(20, 100)
            yield _cut_sp_profile(m, rng.randint(1, 8), i, rng)


def test_unguided_digest_is_pinned():
    # verdict bit and certificate of every profile, one line each
    digest = hashlib.sha256()
    kinds = Counter()
    for prof in _digest_profiles():
        res = unguided_recognize(prof)
        kinds[res.consistent] += 1
        digest.update(f"{res.consistent} {res.certificate!r}\n".encode())
    assert kinds == {True: 1194, False: 846}
    assert digest.hexdigest() == _UNGUIDED_DIGEST


def test_unguided_axes_are_pinned():
    digest = hashlib.sha256()
    for prof in _digest_profiles():
        res = unguided_recognize(prof)
        digest.update(f"{res.axis.order if res.axis else None}\n".encode())
    assert digest.hexdigest() == _UNGUIDED_AXES_DIGEST


def _count_starts(monkeypatch):
    starts, grow = [], unguided._grow_axis
    monkeypatch.setattr(
        unguided, "_grow_axis", lambda index, c: starts.append(c) or grow(index, c)
    )
    return starts


def test_a_yes_component_stops_after_few_starts(monkeypatch):
    # an axis end lies in few of the votes' ranked intervals, so the
    # fewest-ranked start is nearly always one; trying ids in ascending order
    # takes 411 starts on these profiles
    rng = random.Random(36)
    profiles = [_cut_sp_profile(100, 50, seed, rng) for seed in range(10)]
    starts = _count_starts(monkeypatch)
    for p in profiles:
        assert unguided_recognize(p).consistent
    assert len(starts) <= 2 * len(profiles)


def test_a_no_component_tries_every_start(monkeypatch):
    # yes-instances with a planted triple: the vote planted for each member
    # ranks the other two first, so the member between them on any axis
    # forms a v-valley; where the index passes, every start must fail
    rng = random.Random(36)
    starts, tried = _count_starts(monkeypatch), 0
    for seed in range(10):
        votes = list(_cut_sp_profile(30, 20, seed, rng).votes)
        triple = rng.sample(range(30), 3)
        for k, t in zip(rng.sample(range(20), 3), triple):
            votes[k] = PreferenceOrder.top_order([c for c in triple if c != t], 30)
        p = Profile(30, tuple(votes))
        assert not unguided_recognize(p).consistent
        [(candidates, vote_idx)] = [
            part for part in connected_components(p) if triple[0] in part[0]
        ]
        ranks = p.rank_matrix()[np.ix_(vote_idx, candidates)]
        if IntersectionIndex(ranks).refusal is not None:
            continue
        starts.clear()
        assert unguided._solve_component(ranks) is None
        assert sorted(starts) == list(range(len(candidates)))
        tried += 1
    assert tried >= 5


def test_starts_run_fewest_ranked_first_with_ties_by_id(monkeypatch):
    # ranked by: candidate 0 the total vote only, 1 two votes, 2 all three,
    # 3 two votes, 4 the total vote only (its last candidate counts)
    profile = Profile(
        5,
        (
            PreferenceOrder.top_order([2, 1], 5),
            PreferenceOrder.top_order([2, 3], 5),
            PreferenceOrder.top_order([2, 1, 0, 3, 4], 5),
        ),
    )
    starts = []
    monkeypatch.setattr(unguided, "_grow_axis", lambda index, c: starts.append(c))
    assert unguided._solve_component(profile.rank_matrix()) is None
    assert starts == [0, 4, 1, 3, 2]
