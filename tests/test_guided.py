import hashlib
import random
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ReferenceGuided,
    placement_rows,
    random_top_profile,
    random_total,
    random_weak,
    reference_guided_recognize,
    reference_implicit_guiding_vote,
    reference_place,
)
from peakcheck import axis_check, c1p, cli, guided, oracle, unguided
from peakcheck.axis_check import check_on_axis, is_possibly_sp_on_axis
from peakcheck.errors import ClassError, InternalError, PeakcheckError, PinError
from peakcheck.guided import (
    enumerate_implicit_guiding_votes,
    find_implicit_guiding_vote,
    guided_recognize,
)
from peakcheck.gadgets import random_sp_profile
from peakcheck.model import Axis, PreferenceOrder, Profile, Refusal, build_order
from peakcheck.preflib import write_preflib

EX2_V1 = PreferenceOrder.from_ranks([0, 1, 2, 2, 3])  # <a > b > c~d > e>
EX2_V2 = PreferenceOrder.from_ranks([0, 0, 0, 1, 2])  # <a~b~c > d > e>
EX2_V3 = PreferenceOrder.from_ranks([3, 1, 2, 0, 0])  # <e~d > b > c > a>
EX2 = Profile(5, (EX2_V1, EX2_V2, EX2_V3))


def test_find_implicit_guiding_vote_example():
    guiding = find_implicit_guiding_vote(EX2)
    assert guiding == PreferenceOrder.from_total([0, 1, 2, 3, 4])


def test_enumerate_guiding_votes_contains_documented_alternative():
    votes = list(enumerate_implicit_guiding_votes(EX2))
    assert PreferenceOrder.from_total([3, 1, 2, 4, 0]) in votes  # <d>b>c>e>a>
    assert len(votes) == len(set(votes))


def test_no_unique_last():
    prof = Profile(2, (PreferenceOrder.empty(2),))
    assert find_implicit_guiding_vote(prof) is None


def test_implicit_guiding_votes_need_weak_orders():
    local_weak = Profile(3, (PreferenceOrder.from_pairs([(0, 1)], 3),))
    message = "^implicit guiding votes are defined for weak orders$"
    with pytest.raises(ClassError, match=message):
        find_implicit_guiding_vote(local_weak)
    votes = enumerate_implicit_guiding_votes(local_weak)  # raises once iterated
    with pytest.raises(ClassError, match=message):
        next(votes)


def test_axis_giving_an_outside_guiding_vote_a_valley_is_an_internal_error(monkeypatch):
    # the only vote ties every candidate, so every axis verifies; the outside
    # guiding vote 0 > 1 > 2 has a valley at 2 on the axis 0, 2, 1
    prof = Profile(3, (PreferenceOrder.empty(3),))
    guiding = PreferenceOrder.from_total([0, 1, 2])
    assert guided_recognize(prof, guiding).consistent
    # the steps index the guiding vote worst first: 2, 1, 0
    monkeypatch.setattr(guided, "_place", lambda rg, pinned_left: ([2, 0, 1], None))
    with pytest.raises(InternalError, match="axis gives the guiding vote a valley$"):
        guided_recognize(prof, guiding)


def test_implicit_search_is_first_enumerated_order():
    # a candidate enters the search's options only once it is uniquely last
    # somewhere and stays available until taken, so the greedy choice fails
    # exactly when no implicit guiding vote exists
    rng = random.Random(11)
    found = 0
    for _ in range(4000):
        m = rng.randint(1, 6)
        prof = Profile(m, tuple(random_weak(m, rng) for _ in range(rng.randint(1, 5))))
        expected = next(enumerate_implicit_guiding_votes(prof), None)
        assert find_implicit_guiding_vote(prof) == expected
        found += expected is not None
    assert 0 < found < 4000


def test_implicit_search_matches_reference_at_scale():
    rng = random.Random(12)
    outcomes = set()
    for i in range(6):
        m = rng.randint(200, 400)
        prof = random_sp_profile(m, rng.randint(5, 30), "psp", rng.choice((0.1, 0.3, 0.5)), seed=i)
        if i % 2:
            # two candidates tied in every vote: the search removes the
            # others, then finds no uniquely last candidate
            x, y = rng.sample(range(m), 2)
            votes = []
            for vote in prof.votes:
                ranks = list(vote.ranks)
                ranks[y] = ranks[x]
                votes.append(PreferenceOrder.from_ranks(ranks))
            prof = Profile(m, tuple(votes))
        expected = reference_implicit_guiding_vote(prof)
        assert find_implicit_guiding_vote(prof) == expected
        outcomes.add(expected is None)
    assert outcomes == {False, True}


def _deep_scan_profile(m, n, tied, rng):
    """Weak orders on which the implicit search first reads votes late, and
    the guiding vote it must find (None when ``tied``).

    All candidates but a and b are split into four segments, each owned by
    a segment vote; the segment votes sit at increasing indices, the last
    at 40 or beyond.  A segment vote ranks its segment as singletons below
    a tie of a and b, so it offers that segment one candidate at a time,
    and then never again.  Every other vote ends in the tie of a and b.  So
    the segments go in order, and the votes after a segment vote are first
    read once its segment and every earlier one are gone, hundreds of
    removals in.  The last segment vote ranks a above b unless ``tied``;
    then the search reads every vote and ends in None.
    """
    a, b, *rest = rng.sample(range(m), m)
    size = len(rest) // 4
    segments = [rest[i * size : (i + 1) * size] for i in range(3)] + [rest[3 * size :]]
    owners = sorted(rng.sample(range(40), 3)) + [rng.randint(40, n - 1)]
    votes = []
    for k in range(n):
        ranks = [rng.randrange(20) for _ in range(m)]
        ranks[a] = ranks[b] = 20
        if k in owners:
            if k == owners[-1] and not tied:
                ranks[b] = 21
            for depth, c in enumerate(segments[owners.index(k)]):
                ranks[c] = 1000 - depth  # the segment's first is its last
        votes.append(PreferenceOrder.from_ranks(ranks))
    removals = [c for segment in segments for c in segment] + [b, a]
    return Profile(m, tuple(votes)), None if tied else PreferenceOrder.from_total(removals[::-1])


def test_implicit_search_reads_deep_votes_late():
    # each scan step crosses the lazily built blocks of votes up to the
    # current segment vote; a vote first read after earlier segments went
    # catches up with all of their removals
    rng = random.Random(23)
    for i in range(6):
        prof, expected = _deep_scan_profile(rng.randint(280, 320), 48, i % 2 == 1, rng)
        assert reference_implicit_guiding_vote(prof) == expected
        assert find_implicit_guiding_vote(prof) == expected


# sha256 of the guiding votes over the profiles below: a rewrite of the search
# must return the same vote, or None, on each
_IMPLICIT_DIGEST = "e374b6a9afe6c1836e77249e4e677b1ce505deda3a69b261abea7fc888c779e0"


def test_implicit_guiding_vote_digest_is_pinned():
    # guided-wide's implicit slots at m = 500-2,000 with 100 votes, each also
    # with two candidates tied in every vote, where the search ends in None
    digest = hashlib.sha256()
    outcomes = Counter()
    for s, (m, p) in enumerate((m, p) for m in (500, 1000, 2000) for p in (0.1, 0.3, 0.5)):
        prof = random_sp_profile(m, 100, "psp", p, s)
        ranks = prof.rank_matrix().copy()
        ranks[:, s + 1] = ranks[:, s]
        for profile in (prof, Profile.from_rank_matrix(ranks)):
            guiding = find_implicit_guiding_vote(profile)
            outcomes[guiding is None] += 1
            got = None if guiding is None else tuple(guiding.ranks)
            digest.update(f"{m} {p} {got}\n".encode())
    assert outcomes == {False: 9, True: 9}
    assert digest.hexdigest() == _IMPLICIT_DIGEST


def test_guided_placement_that_is_no_permutation_is_an_internal_error(monkeypatch):
    # a placement that puts one step twice reaches the exit, which names guided
    guiding = PreferenceOrder.from_total([0, 1, 2])
    prof = Profile(3, (guiding, PreferenceOrder.from_ranks([1, 0, 0])))
    monkeypatch.setattr(guided, "_place", lambda rg, pinned_left: ([0, 0, 1], None))
    for outside in (False, True):
        votes = prof.votes[1:] if outside else prof.votes
        with pytest.raises(InternalError, match="^guided engine .* not a permutation"):
            guided_recognize(Profile(3, votes), guiding)


def test_guided_final_check_failure_is_an_internal_error(monkeypatch, tmp_path, capsys):
    guiding = PreferenceOrder.from_total([0, 1, 2])
    prof = Profile(3, (guiding,))
    assert guided_recognize(prof, guiding).consistent
    monkeypatch.setattr(
        axis_check, "v_valley_rows", lambda ranks: np.ones(len(ranks), dtype=bool)
    )
    with pytest.raises(InternalError):
        guided_recognize(prof, guiding)

    path = tmp_path / "one.soc"
    path.write_text(write_preflib(prof))
    rc = cli.main(["recognize", str(path), "--algorithm", "guided"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")


def test_example_2_not_single_peaked_under_every_guiding_vote():
    for guiding in enumerate_implicit_guiding_votes(EX2):
        assert not guided_recognize(EX2, guiding).consistent


def test_single_guiding_vote_alone():
    for m in (1, 2, 5):
        vote = PreferenceOrder.from_total(list(range(m))[::-1])
        res = guided_recognize(Profile(m, (vote,)), vote)
        assert res.consistent


def test_pinned_subproblem_from_unguided_example():
    # P' over C' = {a, b, c, x}: <b>c>a>x> and <c>x>.>, pins a left, x right
    w1 = PreferenceOrder.from_total([1, 2, 0, 3])
    w2 = PreferenceOrder.top_order([2, 3], 4)
    res = guided_recognize(Profile(4, (w1, w2)), w1, pinned=True)
    assert res.consistent
    assert res.axis.order == (0, 1, 2, 3)


def test_guiding_vote_over_other_candidates_is_a_peakcheck_error():
    guiding = PreferenceOrder.from_total([0, 1, 2, 3])
    prof = Profile(3, (PreferenceOrder.from_total([0, 1, 2]),))
    text = "^guiding vote ranges over a different candidate set$"
    for recognize in (guided_recognize, reference_guided_recognize):
        with pytest.raises(PeakcheckError, match=text) as info:
            recognize(prof, guiding)
        assert type(info.value) is PeakcheckError


def test_pin_violations_raise():
    # a pinned run needs a second-to-last candidate to pin left
    single = PreferenceOrder.from_total([0])
    with pytest.raises(PinError):
        guided_recognize(Profile(1, (single,)), single, pinned=True)
    # infeasible left pin: a vote placing some unseated candidate strictly
    # below both the pinned-left candidate and the pinned-right end.  That is
    # a "no", and its detail ends in a word, not a placed candidate.
    g = PreferenceOrder.from_total([3, 2, 0, 1])  # ranks: 0 second-to-last, 1 last
    blocker = PreferenceOrder.from_ranks([0, 0, 1, 2])  # 0 ~ 1 > 2 > 3
    res = guided_recognize(Profile(4, (g, blocker)), g, pinned=True)
    assert not res.consistent
    assert res.certificate == Refusal(
        "pinned-left candidate blocked at the left end", detail="candidate 0 pinned left"
    )


def test_rejects_non_weak_profiles_and_non_total_guiding():
    partial = build_order([(0, 2), (1, 2)], 4)
    with pytest.raises(ClassError):
        guided_recognize(Profile(4, (partial,)), PreferenceOrder.from_total([0, 1, 2, 3]))
    weak = PreferenceOrder.from_ranks([0, 0, 1])
    with pytest.raises(ClassError):
        guided_recognize(Profile(3, (weak,)), weak)


def test_agreement_with_oracle_small():
    rng = random.Random(7)
    for _ in range(600):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        votes = [random_weak(m, rng) for _ in range(n)] + [random_total(m, rng)]
        prof = Profile(m, tuple(votes))
        res = guided_recognize(prof, prof.first_total_order())
        assert res.consistent == oracle.oracle_recognize(prof, "psp").consistent
        if res.consistent:
            assert is_possibly_sp_on_axis(prof, res.axis).consistent


def test_agreement_with_c1p_medium():
    rng = random.Random(8)
    for _ in range(200):
        m = rng.randint(7, 10)
        n = rng.randint(1, 6)
        votes = [random_weak(m, rng) for _ in range(n)] + [random_total(m, rng)]
        prof = Profile(m, tuple(votes))
        res = guided_recognize(prof, prof.first_total_order())
        assert res.consistent == c1p.recognize_psp_c1p(prof).consistent


def test_agreement_with_reference_implementation():
    # the slow transcription also asserts the placement invariant throughout
    rng = random.Random(9)
    for _ in range(400):
        m = rng.randint(1, 6)
        n = rng.randint(1, 5)
        votes = [random_weak(m, rng) for _ in range(n)] + [random_total(m, rng)]
        prof = Profile(m, tuple(votes))
        guiding = prof.first_total_order()
        ref = ReferenceGuided(prof, guiding).run()
        got = guided_recognize(prof, guiding)
        assert (ref is None) == (not got.consistent)
        if ref is not None:
            assert got.axis.order == ref.order


def test_guiding_vote_choice_never_changes_outcome():
    rng = random.Random(10)
    for _ in range(150):
        m = rng.randint(2, 5)
        n = rng.randint(1, 4)
        prof = Profile(m, tuple(random_weak(m, rng) for _ in range(n)))
        outcomes = {
            guided_recognize(prof, g).consistent
            for g in enumerate_implicit_guiding_votes(prof)
        }
        assert len(outcomes) <= 1


def test_external_guiding_vote_is_a_constraint():
    # axis must be single-peaked for the supplied guiding vote as well
    prof = Profile(3, (PreferenceOrder.empty(3),))
    guiding = PreferenceOrder.from_total([1, 0, 2])
    res = guided_recognize(prof, guiding)
    assert res.consistent
    assert is_possibly_sp_on_axis(Profile(3, (guiding,)), res.axis).consistent


def test_linear_scaling_probe():
    # runtime grows roughly linearly in m at fixed n (soft check, generous)
    timings = []
    for m in (1500, 3000):
        prof = random_sp_profile(m, 20, "psp", incompleteness=0.2, seed=1)
        votes = list(prof.votes)
        votes[0] = _sp_total(m, seed=2)
        prof = Profile(m, tuple(votes))
        guiding = prof.first_total_order()
        t0 = time.perf_counter()
        res = guided_recognize(prof, guiding)
        timings.append(time.perf_counter() - t0)
        assert res.consistent or res.certificate is not None
    assert timings[1] <= max(timings[0] * 3.5, timings[0] + 0.25)


def _sp_total(m, seed):
    return random_sp_profile(m, 1, "psp", incompleteness=0.0, seed=seed).votes[0]


def test_fixed_budget_doubling_stays_linear():
    # doubling m while halving n keeps the total work budget fixed; the
    # amortised-extrema implementation should grow only mildly (spec bound
    # 1.3x, asserted with medians and retries to damp timer noise)
    def median_time(m, n, seed, reps=7):
        prof = random_sp_profile(m, n, "psp", 0.5, seed=seed)
        total = random_sp_profile(m, 1, "psp", 0.0, seed=seed).votes[0]
        prof = Profile(m, (total,) + prof.votes[1:])
        guiding = prof.first_total_order()
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter()
            assert guided_recognize(prof, guiding).consistent
            samples.append(time.perf_counter() - t0)
        return sorted(samples)[len(samples) // 2]

    for attempt in range(3):
        base = median_time(1000, 800, seed=21)
        doubled = median_time(2000, 400, seed=22)
        if doubled / base <= 1.3:
            break
    assert doubled / base <= 1.3, f"ratio {doubled / base:.2f}"


def _outcome(recognize, profile, guiding, **pins):
    """Verdict bit, axis and certificate, or the error's type and text."""
    try:
        verdict = recognize(profile, guiding, **pins)
    except (PeakcheckError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    axis = verdict.axis.order if verdict.axis else None
    return verdict.consistent, axis, verdict.certificate, verdict.algorithm


def _plant_no(profile, rng):
    """Three votes replaced by a triple whose every member is ranked below
    the other two in one of them, so every axis has a v-valley."""
    votes = list(profile.votes)
    triple = rng.sample(range(profile.m), 3)
    for k, t in zip(rng.sample(range(1, len(votes)), 3), triple):
        ranks = [1] * profile.m
        for c in triple:
            if c != t:
                ranks[c] = 0
        votes[k] = PreferenceOrder.from_ranks(ranks)
    return Profile(profile.m, tuple(votes))


def _guided_cases(rng):
    """(profile, guiding) pairs: explicit and implicit guiding votes, yes
    instances, planted noes and random weak profiles that mostly refuse."""
    for i in range(60):
        m = rng.randint(4, 300 if i % 6 == 0 else 12)
        n = rng.randint(4, 12)
        prof = random_sp_profile(m, n, "psp", rng.choice((0.1, 0.3, 0.6)), seed=i)
        if i % 3 == 1:
            prof = _plant_no(prof, rng)
        implicit = find_implicit_guiding_vote(prof)
        if implicit is not None:
            yield prof, implicit
            yield Profile(m, (implicit,) + prof.votes), implicit
        # a total order on another hidden axis: mostly a refusal
        total = random_sp_profile(m, 1, "psp", 0.0, seed=1000 + i).votes[0]
        yield Profile(m, (total,) + prof.votes[1:]), total
    for _ in range(300):
        m = rng.randint(1, 7)
        votes = [random_weak(m, rng) for _ in range(rng.randint(1, 5))]
        guiding = random_total(m, rng)
        if rng.random() < 0.5:
            votes.append(guiding)
        yield Profile(m, tuple(votes)), guiding


@pytest.mark.parametrize("small_blocks", [False, True])
def test_matches_reference_guided_with_explicit_and_implicit_votes(
    monkeypatch, small_blocks
):
    if small_blocks:
        # threshold rows built a few steps at a time, and the final check
        # reading a row or a few at a time
        monkeypatch.setattr(guided, "_BLOCK_CELLS", 24)
        monkeypatch.setattr(axis_check, "_BLOCK_CELLS", 24)
    rng = random.Random(31)
    seen = set()
    for prof, guiding in _guided_cases(rng):
        expected = _outcome(reference_guided_recognize, prof, guiding)
        assert _outcome(guided_recognize, prof, guiding) == expected
        if expected[0] is True:
            assert check_on_axis(prof, Axis(expected[1])).consistent
        seen.add(expected[0])
    assert seen == {True, False}


def test_matches_reference_guided_on_unguided_subproblems(monkeypatch):
    # the pinned subproblems the unguided engine poses, replayed on both
    calls = []

    def recording(profile, guiding, pinned=False):
        calls.append((profile, guiding, pinned))
        return guided_recognize(profile, guiding, pinned=pinned)

    monkeypatch.setattr(unguided, "guided_recognize", recording)
    rng = random.Random(32)
    for i in range(150):
        m = rng.randint(3, 9)
        unguided.unguided_recognize(random_top_profile(m, rng.randint(1, 5), rng))
        if i % 10 == 0:
            # single-peaked total orders cut to top orders: yes-instances
            # over more candidates
            m = rng.randint(20, 60)
            totals = random_sp_profile(m, 8, "psp", 0.0, seed=i).votes
            tops = tuple(
                PreferenceOrder.top_order(
                    sorted(range(m), key=v.ranks.__getitem__)[: rng.randint(1, m)], m
                )
                for v in totals
            )
            unguided.unguided_recognize(Profile(m, tops))
    kinds = set()
    for prof, guiding, pinned in calls:
        # the reference takes the pins the guiding vote fixes explicitly:
        # its second-to-last candidate left, its last right
        worst_first = sorted(range(prof.m), key=guiding.ranks.__getitem__, reverse=True)
        pins = {"pin_left": worst_first[1], "pin_right": worst_first[0]} if pinned else {}
        expected = _outcome(reference_guided_recognize, prof, guiding, **pins)
        assert _outcome(guided_recognize, prof, guiding, pinned=pinned) == expected
        kinds.add(expected[2].reason if expected[0] is False else expected[0])
    assert kinds == {
        True,
        "both axis sides blocked",
        "pinned-left candidate blocked at the left end",
    }



# ---------------------------------------------------------------------------
# the placement against the per-step reference
# ---------------------------------------------------------------------------


def _yes_rows(m, n, seed):
    """Placement input of a yes-instance: weak orders and a total guiding
    vote drawn on one hidden axis."""
    prof = random_sp_profile(m, n, "psp", 0.5, seed)
    total = random_sp_profile(m, 1, "psp", 0.0, seed).votes[0]
    return placement_rows(Profile(m, (total,) + prof.votes[1:]), total)


def _blocked_at(rg, s, pinned):
    """``rg`` with two votes added that block step s and no step before it,
    or None.

    Step 1 is blocked by votes that rank c_1 and c_2 both above the rest
    (L1), and c_1 above the rest above c_2 (R2).  A later step s is blocked
    by two votes of a top bucket and a bottom one: c_{s+1} shares the top
    with the candidate placed at step s - 1 in one of them, and with the
    latest candidate placed on the other side in the other, so it must sit
    next to both; neither vote blocks an earlier step.
    """
    m, n = rg.shape
    votes = np.ones((m, 2), np.int32)
    if s == 1:
        votes[:2, 0] = 0
        votes[0, 1], votes[1, 1] = 0, 2
        return np.column_stack((rg, votes))
    steps, blocked = reference_place(rg, pinned)
    if blocked is not None:
        return None
    # the left part ascends and the right part descends to step 0, so a
    # step below m - 1 went left iff no larger step precedes it
    before = np.maximum.accumulate([-1] + steps[:-1])
    went_left = before[np.argsort(steps)] < np.arange(m)
    other = np.flatnonzero(went_left[: s - 1] != went_left[s - 1])
    if not other.size:
        return None
    votes[[s, s - 1], 0] = 0
    votes[[s, other[-1]], 1] = 0
    return np.column_stack((rg, votes))


@pytest.mark.parametrize("block_cells", [None, 24])
def test_place_matches_reference_place(monkeypatch, block_cells):
    # runs blocked at every step up to 45 and in the bands 60-75, 125-159
    # and 270-285: these hold the first and last steps of the early windows
    # and the early block boundaries, at the default block size and at
    # blocks of 3 or 4 steps
    if block_cells is not None:
        monkeypatch.setattr(guided, "_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(26)
    cases = [(rng.integers(0, 3, (m, 6)).astype(np.int32), pinned)
             for m in (1, 1, 2, 2, 2, 3) for pinned in (False, True)]
    targets = {*range(1, 46), *range(60, 76), *range(125, 160), *range(270, 286)}
    blocked_at = {False: set(), True: set()}
    bases = ((40, 0), (60, 2), (290, 4), (300, 3), (310, 5))  # (m, seed)
    for m, seed in bases:
        rg = _yes_rows(m, 6, seed)
        for pinned in (False, True):
            # a yes-instance, pinned or not
            assert reference_place(rg, pinned)[1] is None
            cases.append((rg, pinned))
            for s in sorted(targets | {m - 3, m - 2} if m > 100 else range(1, m - 1)):
                grown = _blocked_at(rg, s, pinned) if s < m - 1 else None
                if grown is not None:
                    assert reference_place(grown, pinned) == (None, s)
                    blocked_at[pinned].add(s)
                    cases.append((grown, pinned))
    for rg, pinned in cases:
        assert guided._place(rg, pinned) == reference_place(rg, pinned)
    # each target step is blocked in some case, pinned and not
    for pinned in (False, True):
        assert targets | {287, 288, 297, 298, 307, 308} <= blocked_at[pinned]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_place_matches_reference_place_on_drawn_buckets(data):
    # any bucket matrix, or a yes-instance with a few cells redrawn, in 16
    # or 32 bits as guided_recognize gathers them, at the default block size
    # or at blocks of a step or a few
    m = data.draw(st.integers(1, 60), label="m")
    n = data.draw(st.integers(1, 6), label="n")
    if data.draw(st.booleans(), label="from a yes-instance"):
        rg = _yes_rows(m, n, data.draw(st.integers(0, 10**6), label="seed")).copy()
        for _ in range(data.draw(st.integers(0, 3), label="redrawn cells")):
            i = data.draw(st.integers(0, m - 1))
            rg[i, data.draw(st.integers(0, n - 1))] = data.draw(st.integers(0, m - 1))
    else:
        levels = data.draw(st.integers(1, m), label="levels")
        cells = data.draw(st.lists(st.integers(0, levels - 1), min_size=m * n, max_size=m * n))
        rg = np.array(cells, np.int32).reshape(m, n)
    rg = rg.astype(data.draw(st.sampled_from([np.int16, np.int32]), label="dtype"))
    pinned = data.draw(st.booleans(), label="pinned")
    block_cells = data.draw(st.sampled_from([guided._BLOCK_CELLS, 1, 5, 24]), label="block cells")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(guided, "_BLOCK_CELLS", block_cells)
        assert guided._place(rg, pinned) == reference_place(rg, pinned)


# ---------------------------------------------------------------------------
# past 2**15 candidates, where the placement rows are int32
# ---------------------------------------------------------------------------


def _spy_place_dtypes(monkeypatch):
    dtypes, place = [], guided._place
    monkeypatch.setattr(
        guided, "_place", lambda rg, *a, **k: dtypes.append(rg.dtype) or place(rg, *a, **k)
    )
    return dtypes


def test_guided_above_2_15_candidates_finds_a_yes_axis(monkeypatch):
    # a total vote falling along the identity axis, a vote of plateaus
    # around its middle and one with ten candidates tied at the top
    dtypes = _spy_place_dtypes(monkeypatch)
    m = 2**15 + 1
    c = np.arange(m)
    prof = Profile.from_rank_matrix(np.stack([c, abs(c - m // 2) // 100, np.where(c < 10, 0, 1)]))
    verdict = guided_recognize(prof, prof.first_total_order())
    assert verdict.consistent
    assert check_on_axis(prof, verdict.axis).consistent
    assert dtypes == [np.int32]


def test_guided_above_2_15_candidates_refuses_a_planted_triple(monkeypatch):
    # a, b and x are each ranked below the other two in one vote, so every
    # axis gives one of them a valley
    dtypes = _spy_place_dtypes(monkeypatch)
    m = 2**15 + 1
    a, b, x = 100, 20_000, 32_000
    ranks = np.full((3, m), 2)
    ranks[0] = np.arange(m)  # the total vote ranks x below a and b
    ranks[1, [b, x, a]] = 0, 0, 1
    ranks[2, [a, x, b]] = 0, 0, 1
    prof = Profile.from_rank_matrix(ranks)
    verdict = guided_recognize(prof, prof.first_total_order())
    assert not verdict.consistent
    assert verdict.certificate.reason == "both axis sides blocked"
    assert dtypes == [np.int32]
