import itertools
import random

import pytest

from conftest import (
    ClauseInstance,
    random_local_weak,
    random_total,
    random_weak,
    reference_encode_clauses,
    tarjan_2sat,
)
from peakcheck import oracle
from peakcheck.axis_check import is_possibly_sp_on_axis
from peakcheck.errors import ClassError, InternalError, NoTotalOrderError
from peakcheck.guided import guided_recognize
from peakcheck.model import PreferenceOrder, Profile, build_order
from peakcheck.twosat import (
    TwoSatInstance,
    encode,
    pair_var,
    recognize_lwo_with_total,
    solve_2sat,
)


def test_encode_valley_clauses():
    vote = build_order([(0, 1), (2, 1)], 3)
    total = PreferenceOrder.from_total([0, 2, 1])
    inst = encode(Profile(3, (vote, total)))
    # "0 left of 1" negates the variable of {0, 1}; "2 left of 1" is {1, 2}'s
    assert pair_var(0, 1) == (0, True)
    assert pair_var(2, 1) == (2, False)
    # one variable per pair, and one clause per vote: the valley triple
    # (0, 1, 2), where 0 and 2 lie on one side of 1
    assert inst.num_vars == 3
    assert inst.clauses == [(0, 2, True), (0, 2, True)]


def test_encode_requires_total_vote():
    vote = build_order([(0, 1), (2, 1)], 3)
    with pytest.raises(NoTotalOrderError):
        encode(Profile(3, (vote,)))


def test_encode_rejects_general_partial_orders():
    # a>b plus c>d is not a local weak order (two separate components of
    # comparability with cross-incomparability is fine, but a diamond is not)
    vote = build_order([(0, 1), (0, 2), (3, 2)], 4)
    total = PreferenceOrder.from_total([0, 1, 2, 3])
    with pytest.raises(ClassError):
        encode(Profile(4, (vote, total)))


def test_single_total_order_satisfiable():
    total = PreferenceOrder.from_total([0, 1, 2])
    res = recognize_lwo_with_total(Profile(3, (total,)))
    assert res.consistent
    assert is_possibly_sp_on_axis(Profile(3, (total,)), res.axis).consistent


def test_solve_2sat_spec_examples():
    inst = ClauseInstance(2)
    inst.add((0, False), (1, False))
    inst.add((0, True), (1, False))
    model = tarjan_2sat(inst)
    assert model is not None and model[1] is True
    forced = ClauseInstance(1)
    forced.add((0, False), (0, False))
    forced.add((0, True), (0, True))
    assert tarjan_2sat(forced) is None


def test_solve_2sat_against_enumeration():
    rng = random.Random(0)
    for _ in range(1500):
        nv = rng.randint(1, 10)
        inst = ClauseInstance(nv)
        for _ in range(rng.randint(1, 14)):
            inst.add(
                (rng.randrange(nv), rng.random() < 0.5),
                (rng.randrange(nv), rng.random() < 0.5),
            )
        got = tarjan_2sat(inst)
        ref = any(
            all(
                (bits[v1] != n1) or (bits[v2] != n2)
                for (v1, n1), (v2, n2) in inst.clauses
            )
            for bits in itertools.product([False, True], repeat=nv)
        )
        assert (got is not None) == ref
        if got is not None:
            assert all(
                (got[v1] != n1) or (got[v2] != n2)
                for (v1, n1), (v2, n2) in inst.clauses
            )


def test_solve_2sat_on_equivalence_systems_against_enumeration():
    rng = random.Random(3)
    outcomes = set()
    for _ in range(1500):
        nv = rng.randint(1, 10)
        eqs = [
            (rng.randrange(nv), rng.randrange(nv), rng.random() < 0.5)
            for _ in range(rng.randint(1, 14))
        ]
        got = solve_2sat(TwoSatInstance(nv, eqs))
        ref = any(
            all(bits[u] == (bits[v] ^ flip) for u, v, flip in eqs)
            for bits in itertools.product([False, True], repeat=nv)
        )
        assert (got is not None) == ref
        outcomes.add(ref)
        if got is not None:
            assert len(got) == nv
            assert all(got[u] == (got[v] ^ flip) for u, v, flip in eqs)
    assert outcomes == {False, True}


def test_betweenness_gadget_forces_middle():
    # gadget pair for (a, b, c) plus a completing total order: any surviving
    # assignment puts b between a and c
    total = PreferenceOrder.from_total([0, 1, 2])
    prof = Profile(
        3,
        (
            build_order([(0, 2), (1, 2)], 3),
            build_order([(1, 0), (2, 0)], 3),
            total,
        ),
    )
    res = recognize_lwo_with_total(prof)
    assert res.consistent
    pos = res.axis.positions()
    assert min(pos[0], pos[2]) < pos[1] < max(pos[0], pos[2])


def test_example_2_with_explicit_total():
    v1 = PreferenceOrder.from_ranks([0, 1, 2, 2, 3])
    v2 = PreferenceOrder.from_ranks([0, 0, 0, 1, 2])
    v3 = PreferenceOrder.from_ranks([3, 1, 2, 0, 0])
    total = PreferenceOrder.from_total([0, 1, 2, 3, 4])  # implicit guiding vote
    prof = Profile(5, (v1, v2, v3, total))
    assert not recognize_lwo_with_total(prof).consistent


def test_agreement_with_oracle():
    rng = random.Random(1)
    for _ in range(700):
        m = rng.randint(1, 6)
        votes = [random_local_weak(m, rng) for _ in range(rng.randint(1, 6))]
        votes.append(random_total(m, rng))
        prof = Profile(m, tuple(votes))
        res = recognize_lwo_with_total(prof)
        assert res.consistent == oracle.oracle_recognize(prof, "psp").consistent
        if res.consistent:
            assert is_possibly_sp_on_axis(prof, res.axis).consistent


def test_agreement_with_guided_on_weak_profiles():
    rng = random.Random(2)
    for _ in range(300):
        m = rng.randint(1, 8)
        votes = [random_weak(m, rng) for _ in range(rng.randint(1, 5))]
        votes.append(random_total(m, rng))
        prof = Profile(m, tuple(votes))
        lhs = recognize_lwo_with_total(prof).consistent
        rhs = guided_recognize(prof, prof.first_total_order()).consistent
        assert lhs == rhs


def _sp_sequence(axis, rng):
    """A random total order single-peaked on ``axis``, best first."""
    lo = hi = rng.randrange(len(axis))
    seq = [axis[lo]]
    while len(seq) < len(axis):
        if hi == len(axis) - 1 or (lo > 0 and rng.random() < 0.5):
            lo -= 1
            seq.append(axis[lo])
        else:
            hi += 1
            seq.append(axis[hi])
    return seq


def _sp_local_weak_vote(axis, rng):
    """``_sp_sequence`` coarsened into levels of neighbours and restricted to
    a random subset of candidates."""
    seq = _sp_sequence(axis, rng)
    level, cur = {}, 0
    for c in seq:
        cur += rng.random() < 0.7
        level[c] = cur
    keep = rng.sample(seq, rng.randint(2, len(seq)))
    pairs = [(a, b) for a in keep for b in keep if level[a] < level[b]]
    return PreferenceOrder.from_pairs(pairs, len(axis))


def test_agreement_with_clause_encoding_beyond_the_oracle():
    # m 10-40: the equivalence engine against the paper's clause encoding
    # solved by the Tarjan reference; half the profiles get one random vote
    rng = random.Random(4)
    verdicts = set()
    for _ in range(40):
        m = rng.randint(10, 40)
        axis = rng.sample(range(m), m)
        votes = [_sp_local_weak_vote(axis, rng) for _ in range(rng.randint(2, 6))]
        votes.append(PreferenceOrder.from_total(_sp_sequence(axis, rng)))
        if rng.random() < 0.5:
            votes[rng.randrange(len(votes) - 1)] = random_local_weak(m, rng)
        prof = Profile(m, tuple(votes))
        res = recognize_lwo_with_total(prof)
        ref = tarjan_2sat(reference_encode_clauses(prof)) is not None
        assert res.consistent == ref
        verdicts.add(ref)
        if res.consistent:
            assert is_possibly_sp_on_axis(prof, res.axis).consistent
    assert verdicts == {False, True}


def test_encode_size_is_quadratic_per_vote():
    # one variable per unordered pair, |U|-1 chained equalities per (vote, b)
    rng = random.Random(5)
    for _ in range(50):
        m = rng.randint(1, 12)
        votes = [random_local_weak(m, rng) for _ in range(rng.randint(0, 5))]
        votes.append(random_total(m, rng))
        prof = Profile(m, tuple(votes))
        chained = sum(
            max(len(vote.upper_set(b)) - 1, 0) for vote in votes for b in range(m)
        )
        inst = encode(prof)
        assert inst.num_vars == m * (m - 1) // 2
        assert len(inst.clauses) == chained
        # each variable is one pair's: "a left of b" and "b left of a"
        pairs = {pair_var(a, b) for a in range(m) for b in range(m) if a != b}
        assert pairs == {(v, n) for v in range(inst.num_vars) for n in (False, True)}
        for a in range(m):
            for b in range(a + 1, m):
                assert pair_var(b, a) == (pair_var(a, b)[0], False)


def test_assignment_with_a_valley_is_an_internal_error(monkeypatch, tmp_path, capsys):
    # the axis check, not a transitivity scan, rejects a bad assignment: this
    # one is transitive (0 left of 2 left of 1) but puts a valley at 2 for
    # the vote 0 > 1 > 2
    from peakcheck import cli, twosat

    m = 3
    left = {(0, 1), (0, 2), (2, 1)}
    assignment = [(b, a) in left for b in range(m) for a in range(b)]
    monkeypatch.setattr(twosat, "solve_2sat", lambda instance: list(assignment))
    with pytest.raises(InternalError, match="^twosat engine .* fails the psp check"):
        recognize_lwo_with_total(Profile(m, (PreferenceOrder.from_total([0, 1, 2]),)))

    election = tmp_path / "total.soc"
    election.write_text("# NUMBER ALTERNATIVES: 3\n1: 1,2,3\n")
    rc = cli.main(["recognize", str(election), "--algorithm", "twosat"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
