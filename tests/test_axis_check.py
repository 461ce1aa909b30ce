import hashlib
import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_local_weak,
    random_partial,
    random_top,
    random_total,
    random_weak,
    random_weak_profile,
    reference_check_on_axis,
    reference_nonpeak_plateau_exists,
    reference_v_valley_exists_ranked,
)
from peakcheck import axis_check, c1p, oracle
from peakcheck.axis_check import (
    _upper_positions,
    black_rows,
    check_black_on_axis,
    check_necessary_on_axis,
    check_on_axis,
    check_plateaued_on_axis,
    extend_to_sp_total_order,
    has_nonpeak_plateau,
    has_plateau,
    has_u_valley,
    has_v_valley,
    is_possibly_sp_on_axis,
    plateaued_rows,
    v_valley_rows,
    verified,
)
from peakcheck.errors import (
    AxisError,
    ClassError,
    InternalError,
    PeakcheckError,
    WitnessError,
)
from peakcheck.gadgets import random_sp_profile
from peakcheck.model import (
    Axis,
    Notion,
    PreferenceOrder,
    Profile,
    WitnessKind,
    all_axes,
    build_order,
)


def axis(*order):
    return Axis(tuple(order))


def test_v_valley_spec_examples():
    total = PreferenceOrder.from_total([0, 1, 2])
    assert has_v_valley(total, axis(0, 1, 2)) is None
    vote = build_order([(0, 1), (2, 1)], 3)
    w = has_v_valley(vote, axis(0, 1, 2))
    assert w is not None and w.kind == WitnessKind.V_VALLEY
    assert w.candidates == (0, 1, 2)
    # the first vote of the intransitive-majority profile: <b>a>c> on a|>b|>c
    fishburn_v1 = PreferenceOrder.from_total([1, 0, 2])
    assert has_v_valley(fishburn_v1, axis(0, 1, 2)) is None


def test_u_valley_spec_examples():
    vote = build_order([(0, 1), (3, 2)], 4)  # a>b, d>c
    w = has_u_valley(vote, axis(0, 1, 2, 3))
    assert w is not None and w.candidates == (0, 1, 2, 3)
    w = has_u_valley(vote, axis(0, 2, 1, 3))
    assert w is not None and w.candidates == (0, 2, 1, 3)
    assert has_u_valley(vote, axis(1, 0, 2, 3)) is None


def test_u_valley_implies_v_valley_for_weak_orders():
    # exhaustive over weak orders and axes for m <= 4, randomised for m = 5
    rng = random.Random(0)
    cases = []
    for ranks in itertools.product(range(3), repeat=4):
        cases.append(PreferenceOrder.from_ranks(list(ranks)))
    cases += [random_weak(5, rng) for _ in range(120)]
    for vote in cases:
        for ax in all_axes(vote.m):
            if has_u_valley(vote, ax) is not None:
                assert has_v_valley(vote, ax) is not None


def test_is_possibly_sp_example_1_profile():
    v1 = PreferenceOrder.from_ranks([0, 1, 0, 2, 2, 3])
    v2 = PreferenceOrder.from_ranks([0, 1, 2, 3, 3, 4])
    prof = Profile(6, (v1, v2))
    assert is_possibly_sp_on_axis(prof, axis(1, 0, 2, 3, 4, 5)).consistent


def test_is_possibly_sp_trivial_and_gadget():
    prof = Profile(3, (PreferenceOrder.empty(3),))
    assert is_possibly_sp_on_axis(prof, axis(2, 0, 1)).consistent
    # betweenness pair for (a, b, c): rejected whenever c sits between a and b
    pair = Profile(
        3,
        (
            build_order([(0, 2), (1, 2)], 3),
            build_order([(1, 0), (2, 0)], 3),
        ),
    )
    for ax in all_axes(3, halve_by_reversal=False):
        pos = ax.positions()
        b_between = min(pos[0], pos[2]) < pos[1] < max(pos[0], pos[2])
        assert is_possibly_sp_on_axis(pair, ax).consistent == b_between


def test_extension_empty_vote():
    ext = extend_to_sp_total_order(PreferenceOrder.empty(3), axis(0, 1, 2))
    assert ext == PreferenceOrder.from_total([0, 1, 2])


def test_extension_identity_on_sp_totals():
    for m in range(1, 6):
        for perm in itertools.permutations(range(m)):
            vote = PreferenceOrder.from_total(list(perm))
            for ax in all_axes(m):
                if has_v_valley(vote, ax) is None:
                    assert extend_to_sp_total_order(vote, ax) == vote


def test_extension_lemma_equivalence():
    # a vote extends to an SP total order iff it has no valleys (m <= 5)
    rng = random.Random(1)
    for _ in range(250):
        m = rng.randint(1, 5)
        vote = (
            random_weak(m, rng) if rng.random() < 0.5 else random_local_weak(m, rng)
        )
        for ax in all_axes(m):
            prof = Profile(m, (vote,))
            ok = is_possibly_sp_on_axis(prof, ax).consistent
            if ok:
                ext = extend_to_sp_total_order(vote, ax)
                assert has_v_valley(ext, ax) is None
                for a in range(m):
                    for b in range(m):
                        if vote.prefers(a, b):
                            assert ext.prefers(a, b)
            else:
                with pytest.raises(WitnessError):
                    extend_to_sp_total_order(vote, ax)


def test_plateau_checks_spec_examples():
    # V = <a > b~c> on a|>b|>c: nonpeak plateau, not single-plateaued
    v = PreferenceOrder.from_ranks([0, 1, 1])
    prof = Profile(3, (v,))
    res = check_plateaued_on_axis(prof, axis(0, 1, 2))
    assert not res.consistent
    assert res.certificate.kind == WitnessKind.NONPEAK_PLATEAU
    assert res.certificate.candidates == (0, 1, 2)

    # V = <a~b > c> on a|>b|>c: plateaued and necessarily SP, not Black
    v = PreferenceOrder.from_ranks([0, 0, 1])
    prof = Profile(3, (v,))
    assert check_plateaued_on_axis(prof, axis(0, 1, 2)).consistent
    assert check_necessary_on_axis(prof, axis(0, 1, 2)).consistent
    black = check_black_on_axis(prof, axis(0, 1, 2))
    assert not black.consistent
    assert black.certificate.kind == WitnessKind.PLATEAU

    # V = <a~b~c>: plateaued everywhere but never necessarily SP
    v = PreferenceOrder.empty(3)
    prof = Profile(3, (v,))
    for ax in all_axes(3):
        assert check_plateaued_on_axis(prof, ax).consistent
        assert not check_necessary_on_axis(prof, ax).consistent


def test_plateau_checks_reject_partial_votes():
    prof = Profile(4, (build_order([(0, 2), (1, 2)], 4),))
    with pytest.raises(ClassError):
        check_plateaued_on_axis(prof, axis(0, 1, 2, 3))


def test_reversal_symmetry():
    rng = random.Random(2)
    for _ in range(120):
        m = rng.randint(1, 5)
        prof = random_weak_profile(m, rng.randint(1, 4), rng)
        for ax in list(all_axes(m))[:6]:
            rev = ax.reversed()
            assert (
                is_possibly_sp_on_axis(prof, ax).consistent
                == is_possibly_sp_on_axis(prof, rev).consistent
            )
            assert (
                check_plateaued_on_axis(prof, ax).consistent
                == check_plateaued_on_axis(prof, rev).consistent
            )
            assert (
                check_black_on_axis(prof, ax).consistent
                == check_black_on_axis(prof, rev).consistent
            )


def test_notion_containment_on_axes():
    # black => necessary => plateaued => possibly single-peaked
    rng = random.Random(3)
    for _ in range(200):
        m = rng.randint(1, 5)
        prof = random_weak_profile(m, rng.randint(1, 4), rng)
        for ax in list(all_axes(m))[:8]:
            flags = [
                check_black_on_axis(prof, ax).consistent,
                check_necessary_on_axis(prof, ax).consistent,
                check_plateaued_on_axis(prof, ax).consistent,
                is_possibly_sp_on_axis(prof, ax).consistent,
            ]
            for stronger, weaker in zip(flags, flags[1:]):
                assert not stronger or weaker


def test_necessary_equals_extension_enumeration():
    rng = random.Random(4)
    for _ in range(120):
        m = rng.randint(1, 5)
        prof = random_weak_profile(m, rng.randint(1, 3), rng)
        for ax in list(all_axes(m))[:6]:
            expected = all(
                has_v_valley(PreferenceOrder.from_total(list(ext)), ax) is None
                for vote in prof.votes
                for ext in vote.extensions()
            )
            assert check_necessary_on_axis(prof, ax).consistent == expected


def test_subprofile_closure():
    rng = random.Random(5)
    for _ in range(100):
        m = rng.randint(2, 5)
        prof = random_weak_profile(m, rng.randint(1, 4), rng)
        for ax in list(all_axes(m))[:5]:
            if not is_possibly_sp_on_axis(prof, ax).consistent:
                continue
            subset = sorted(rng.sample(range(m), rng.randint(1, m)))
            assert is_possibly_sp_on_axis(
                prof.restrict(subset), ax.restrict(subset)
            ).consistent


def test_degenerate_small_m():
    two = Profile(2, (PreferenceOrder.empty(2),))
    ax = axis(0, 1)
    assert is_possibly_sp_on_axis(two, ax).consistent
    assert check_plateaued_on_axis(two, ax).consistent
    assert check_necessary_on_axis(two, ax).consistent
    assert not check_black_on_axis(two, ax).consistent  # top plateau of size 2


def test_hypothesis_reversal_symmetry_weak_votes():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        st.lists(st.integers(0, 3), min_size=2, max_size=6),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=250, deadline=None)
    def run(ranks, rnd):
        vote = PreferenceOrder.from_ranks(ranks)
        order = list(range(vote.m))
        rnd.shuffle(order)
        ax = Axis(tuple(order))
        assert (has_v_valley(vote, ax) is None) == (
            has_v_valley(vote, ax.reversed()) is None
        )
        assert (has_nonpeak_plateau(vote, ax) is None) == (
            has_nonpeak_plateau(vote, ax.reversed()) is None
        )

    run()


@given(
    st.integers(1, 8).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(0, 3), min_size=m, max_size=m), min_size=1, max_size=5
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_v_valley_rows_matches_scalar_rule(rows):
    # rank matrices with ties: each notion's row rule flags exactly the rows
    # its scalar rules flag
    ranks = np.array(rows, dtype=np.int32)
    valley = [reference_v_valley_exists_ranked(row) for row in rows]
    assert v_valley_rows(ranks).tolist() == valley
    assert plateaued_rows(ranks).tolist() == [
        v or reference_nonpeak_plateau_exists(row) for v, row in zip(valley, rows)
    ]
    assert black_rows(ranks).tolist() == [
        v or any(a == b for a, b in zip(row, row[1:])) for v, row in zip(valley, rows)
    ]


def test_check_on_axis_rejects_axis_of_other_size():
    prof = Profile(3, (PreferenceOrder.from_total([0, 1, 2]),))
    verifiers = (
        check_on_axis,
        is_possibly_sp_on_axis,
        check_plateaued_on_axis,
        check_black_on_axis,
        check_necessary_on_axis,
    )
    for verify in verifiers:
        for ax in (axis(0, 1), axis(0, 1, 2, 3)):
            with pytest.raises(AxisError):
                verify(prof, ax)


def test_verified_is_the_yes_of_an_engine():
    # the one exit: a verified axis gives "yes" under the engine's name and
    # notion; anything else is a fault of the engine that names it
    prof = Profile(3, (PreferenceOrder.from_ranks([1, 0, 0]),))
    verdict = verified(prof, [0, 1, 2], "c1p", Notion.PLATEAUED)
    assert verdict.consistent and verdict.axis == axis(0, 1, 2)
    assert (verdict.notion, verdict.algorithm) == (Notion.PLATEAUED, "c1p")
    assert verified(prof, (2, 1, 0), "twosat").notion == Notion.PSP
    for order in ([0, 1], [0, 1, 1], [0, 1, 3], [0, 1, 2, 3], []):
        with pytest.raises(InternalError, match="^guided engine .* not a permutation"):
            verified(prof, order, "guided")
    # the top plateau 1 ~ 2 is single-plateaued, never Black
    assert not check_black_on_axis(prof, axis(0, 1, 2))
    with pytest.raises(InternalError, match="^unguided engine .* fails the black check"):
        verified(prof, [0, 1, 2], "unguided", "black")


def _outcome(check, profile, ax, notion):
    """Verdict bit, axis, certificate, notion and engine, or the error's type
    and text."""
    try:
        verdict = check(profile, ax, notion)
    except PeakcheckError as exc:
        return type(exc).__name__, str(exc)
    return (
        verdict.consistent,
        verdict.axis,
        verdict.certificate,
        verdict.notion,
        verdict.algorithm,
    )


def _kind(outcome):
    """Yes, the witness kind, a refusal, or the error's type."""
    if outcome[0] is True:
        return "yes"
    if outcome[0] is False:
        return getattr(outcome[2], "kind", "refusal")
    return outcome[0]


_MAKERS = {
    "total": random_total,
    "top": random_top,
    "weak": random_weak,
    "local-weak": random_local_weak,
    "partial": random_partial,
}


def _random_axis(m, rng):
    order = list(range(m))
    rng.shuffle(order)
    return Axis(tuple(order))


def test_matches_reference_check_on_axis():
    # every notion on profiles of every order class at m <= 8, on random
    # axes and on the oracle's axis when there is one
    rng = random.Random(43)
    kinds = Counter()
    vote_indices = set()
    for i in range(400):
        m = rng.randint(1, 8)
        if i % 3 == 0:
            notion = rng.choice(("psp", "plateaued", "black"))
            prof = random_sp_profile(
                m, rng.randint(1, 5), notion, rng.choice((0.0, 0.3, 0.7)), seed=i
            )
            votes = list(prof.votes)
            if rng.random() < 0.5:
                votes[rng.randrange(len(votes))] = random_weak(m, rng)
            prof = Profile(m, tuple(votes))
        else:
            classes = rng.sample(list(_MAKERS), rng.randint(1, 2))
            votes = [_MAKERS[rng.choice(classes)](m, rng) for _ in range(rng.randint(1, 5))]
            prof = Profile(m, tuple(votes))
        axes = [_random_axis(m, rng), _random_axis(m, rng)]
        found = oracle.oracle_recognize(prof, "psp")
        if found:
            axes.append(found.axis)
        for ax in axes:
            for notion in Notion:
                expected = _outcome(reference_check_on_axis, prof, ax, notion)
                assert _outcome(check_on_axis, prof, ax, notion) == expected
                kinds[_kind(expected)] += 1
                if expected[0] is False:
                    vote_indices.add(expected[2].vote_index)
    assert set(kinds) == {"yes", "refusal", "ClassError", *WitnessKind}
    assert max(vote_indices) >= 3


def _bad_vote(ax, rng):
    """A vote with a v-valley on ``ax`` (one middle candidate ranked below
    all others), or a random weak vote."""
    if rng.random() < 0.5:
        return random_weak(ax.m, rng)
    ranks = [0] * ax.m
    ranks[ax[rng.randrange(1, ax.m - 1)]] = 1
    return PreferenceOrder.from_ranks(ranks)


def test_matches_reference_on_wide_profiles_across_blocks(monkeypatch):
    # consistent wide profiles with a few bad votes planted: with one, three
    # or seven rows per block the first flagged vote falls inside a later
    # block, and every block size reports the same vote and witness
    rng = random.Random(44)
    offsets = set()
    for i in range(18):
        notion = ("psp", "plateaued", "black")[i % 3]
        m, n = rng.randint(20, 60), rng.randint(10, 40)
        prof = random_sp_profile(m, n, notion, 0.3, seed=100 + i)
        ax = c1p.recognize(prof, notion).axis
        votes = list(prof.votes)
        for k in rng.sample(range(n), rng.randint(1, 3)):
            votes[k] = _bad_vote(ax, rng)
        prof = Profile(m, tuple(votes))
        expected = {nt: _outcome(reference_check_on_axis, prof, ax, nt) for nt in Notion}
        for rows in (1, 3, 7, None):
            if rows is not None:
                monkeypatch.setattr(axis_check, "_BLOCK_CELLS", rows * m)
            else:
                monkeypatch.undo()
            for nt in Notion:
                assert _outcome(check_on_axis, prof, ax, nt) == expected[nt]
            if rows == 7 and expected[Notion.PSP][0] is False:
                offsets.add(expected[Notion.PSP][2].vote_index % rows)
    assert len(offsets) >= 3


def test_verifier_reads_rows_in_blocks_like_one_pass(monkeypatch):
    # a few cells per block give the verdict and witness of the default size
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(200):
        m, n = (int(x) for x in rng.integers(1, 8, size=2))
        rows = rng.integers(0, m, size=(n, m)).tolist()
        votes = tuple(PreferenceOrder.from_ranks(row) for row in rows)
        cases.append((Profile(m, votes), Axis(tuple(rng.permutation(m).tolist()))))
    default = [
        _outcome(check_on_axis, prof, ax, notion)
        for prof, ax in cases
        for notion in Notion
    ]
    assert {outcome[0] for outcome in default} == {True, False}
    monkeypatch.setattr(axis_check, "_BLOCK_CELLS", 10)
    assert [
        _outcome(check_on_axis, prof, ax, notion)
        for prof, ax in cases
        for notion in Notion
    ] == default


def test_dominator_positions_match_lower_set_scan():
    # the two walks over the rows give the bounds a per-candidate scan of
    # lower sets gives, for pair-based and rank-based votes
    rng = random.Random(41)
    for _ in range(300):
        m = rng.randint(1, 9)
        vote = rng.choice((random_partial, random_local_weak, random_weak))(m, rng)
        order = list(range(m))
        rng.shuffle(order)
        pos = Axis(tuple(order)).positions()
        lo, hi = [m] * m, [-1] * m
        for a in range(m):
            for b in vote.lower_set(a):
                lo[b], hi[b] = min(lo[b], pos[a]), max(hi[b], pos[a])
        assert _upper_positions(vote, order) == (lo, hi)



# sha256 of the records below: any rewrite of the witness scans must find
# the same witnesses
_WITNESS_DIGEST = "38d1b10e530ffd716569fff57518295061b16188896844f846d005dce6c46449"


def test_witness_digest_is_pinned():
    # 6,000 seeded profiles of every order class at m <= 9 on random axes,
    # every notion: the verdict bit and the certificate's repr, or the
    # error's type, one line per check
    rng = random.Random(45)
    digest = hashlib.sha256()
    kinds = Counter()
    for i in range(6000):
        m = rng.randint(1, 9)
        if i % 4 == 0:
            notion = rng.choice(("psp", "plateaued", "black"))
            prof = random_sp_profile(m, rng.randint(1, 4), notion, 0.3, seed=i)
        else:
            classes = rng.sample(list(_MAKERS), rng.randint(1, 2))
            votes = [_MAKERS[rng.choice(classes)](m, rng) for _ in range(rng.randint(1, 4))]
            prof = Profile(m, tuple(votes))
        ax = _random_axis(m, rng)
        for notion in Notion:
            outcome = _outcome(check_on_axis, prof, ax, notion)
            kinds[_kind(outcome)] += 1
            if isinstance(outcome[0], bool):
                line = f"{outcome[0]} {outcome[2]!r}"
            else:
                line = outcome[0]
            digest.update(line.encode() + b"\n")
    assert set(kinds) == {"yes", "refusal", "ClassError", *WitnessKind}
    assert sum(kinds.values()) == 24000
    assert digest.hexdigest() == _WITNESS_DIGEST
