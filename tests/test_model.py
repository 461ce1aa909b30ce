import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    reference_bucketise,
    reference_class,
    reference_close,
    reference_restrict,
)
from peakcheck.errors import ClassError, CycleError
from peakcheck.model import (
    Axis,
    OrderClass,
    PreferenceOrder,
    Profile,
    _weak_ranks,
    build_order,
    classify,
    maximal_elements,
    minimal_elements,
    restrict,
)
from peakcheck import dispatch
from peakcheck.preflib import parse_any


def test_build_order_betweenness_gadget_vote():
    # a>c, b>c over three candidates: one non-top tie, a weak order <a~b > c>
    order = build_order([(0, 2), (1, 2)], 3)
    assert order.prefers(0, 2) and order.prefers(1, 2)
    assert not order.prefers(0, 1) and not order.prefers(1, 0)
    # tightest class is Weak here; over four or more candidates the extra
    # isolated candidate breaks transitivity of the tie relation
    assert classify(order) == OrderClass.WEAK
    wide = build_order([(0, 2), (1, 2)], 4)
    assert classify(wide) == OrderClass.LOCAL_WEAK


def test_build_order_empty_relation():
    order = build_order([], 3)
    # all-incomparable is vacuously a local weak order (and in fact a top
    # order: every candidate is minimal), so the tightest tag is Top
    assert classify(order) == OrderClass.TOP
    assert order.order_class() <= OrderClass.LOCAL_WEAK


def test_build_order_cycle():
    with pytest.raises(CycleError):
        build_order([(0, 1), (1, 0)], 2)
    with pytest.raises(CycleError):
        build_order([(0, 1), (1, 2), (2, 0)], 3)


def test_build_order_closure_is_transitive():
    order = build_order([(0, 1), (1, 2)], 3)
    assert order.prefers(0, 2)


def test_restrict_spec_examples():
    # <b>c>a>x> restricted keeps the chain
    v = PreferenceOrder.from_total([1, 2, 0, 3])
    sub = restrict(v, [0, 1, 2, 3])
    assert sub == v
    total = PreferenceOrder.from_total([2, 1, 0])  # <c>b>a>
    sub = restrict(total, [0, 2])  # candidates a, c -> new ids 0, 1
    assert sub == PreferenceOrder.from_total([1, 0])
    empty = restrict(total, [])
    assert empty.m == 0


def test_classify_examples():
    assert classify(PreferenceOrder.from_total([0, 1, 2])) == OrderClass.TOTAL
    top = PreferenceOrder.top_order([2, 3], 7)
    assert classify(top) == OrderClass.TOP
    weak = PreferenceOrder.from_ranks([0, 0, 1])
    assert classify(weak) == OrderClass.WEAK


def test_classify_monotone_hierarchy():
    # a total order satisfies every weaker predicate
    total = PreferenceOrder.from_total([1, 0, 2])
    assert total.order_class() == OrderClass.TOTAL
    assert total.order_class() <= OrderClass.TOP <= OrderClass.WEAK
    assert total.order_class() <= OrderClass.PARTIAL


def test_minimal_maximal():
    top = PreferenceOrder.top_order([2, 3], 7)
    assert minimal_elements(top) == frozenset({0, 1, 4, 5, 6})
    assert maximal_elements(top) == frozenset({2})
    total = PreferenceOrder.from_total([1, 0, 2])
    assert minimal_elements(total) == frozenset({2})
    assert maximal_elements(total) == frozenset({1})
    empty = PreferenceOrder.empty(3)
    assert minimal_elements(empty) == frozenset({0, 1, 2})
    assert maximal_elements(empty) == frozenset({0, 1, 2})


def test_closure_idempotent():
    rng = random.Random(3)
    for _ in range(100):
        m = rng.randint(1, 5)
        seq = list(range(m))
        rng.shuffle(seq)
        pairs = [
            (seq[i], seq[j])
            for i in range(m)
            for j in range(i + 1, m)
            if rng.random() < 0.5
        ]
        once = build_order(pairs, m)
        twice = build_order(sorted(once.pairs()), m)
        assert once == twice


def test_restrict_preserves_closure():
    rng = random.Random(4)
    for _ in range(150):
        m = rng.randint(1, 5)
        seq = list(range(m))
        rng.shuffle(seq)
        pairs = [
            (seq[i], seq[j])
            for i in range(m)
            for j in range(i + 1, m)
            if rng.random() < 0.5
        ]
        order = build_order(pairs, m)
        subset = sorted(rng.sample(range(m), rng.randint(0, m)))
        sub = order.restrict(subset)
        remap = {c: i for i, c in enumerate(subset)}
        direct = build_order(
            [
                (remap[a], remap[b])
                for (a, b) in order.pairs()
                if a in remap and b in remap
            ],
            len(subset),
        )
        assert sub == direct


@given(st.lists(st.integers(0, 4), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_from_ranks_roundtrip(ranks):
    order = PreferenceOrder.from_ranks(ranks)
    # dense normalisation keeps the relation intact
    for a in range(order.m):
        for b in range(order.m):
            assert order.prefers(a, b) == (ranks[a] < ranks[b])


@given(st.lists(st.integers(0, 6), min_size=1, max_size=9))
@settings(max_examples=300, deadline=None)
def test_rank_classification_matches_bucket_sizes(ranks):
    order = PreferenceOrder.from_ranks(ranks)
    sizes = [len(bucket) for bucket in order.buckets()]
    assert all(sizes)  # stored ranks are dense
    if all(size == 1 for size in sizes):
        expected = OrderClass.TOTAL
    elif all(size == 1 for size in sizes[:-1]):
        expected = OrderClass.TOP
    else:
        expected = OrderClass.WEAK
    assert order.order_class() == expected


def test_ranked_candidates_and_peak():
    top = PreferenceOrder.top_order([2, 3], 7)
    assert top.ranked_candidates() == [2, 3]
    assert top.peak() == 2
    total = PreferenceOrder.from_total([1, 0])
    assert total.ranked_candidates() == [1, 0]
    assert PreferenceOrder.empty(3).peak() is None


def test_rank_queries_refuse_a_vote_of_a_wider_class():
    pair_based = PreferenceOrder.from_pairs([(0, 1)], 3)  # 2 compares to none
    with pytest.raises(ClassError, match="^rank buckets exist only for weak-or-tighter"):
        pair_based.ranks
    weak = PreferenceOrder.from_ranks([0, 0, 1])
    with pytest.raises(ClassError, match="^ranked_candidates requires a top order$"):
        weak.ranked_candidates()


def test_profile_basics():
    v = PreferenceOrder.from_total([0, 1])
    p = Profile(2, (v, v), (3, 2))
    assert p.n == 2 and p.total_voters == 5
    assert p.order_class() == OrderClass.TOTAL
    assert p.contains_total_order()
    with pytest.raises(ValueError):
        Profile(2, ())
    with pytest.raises(ValueError):
        Profile(2, (v,), (0,))
    with pytest.raises(ValueError):
        Profile(3, (v,))


def test_empty_candidate_set_is_refused():
    # the construction check, not numpy's zero-size reduction in dispatch
    with pytest.raises(ValueError, match="at least one candidate"):
        Profile(0, (PreferenceOrder.from_ranks([]),))


def test_axis_basics():
    axis = Axis((2, 0, 1))
    assert axis.positions() == [1, 2, 0]
    assert axis.reversed().order == (1, 0, 2)
    assert list(axis.restrict([0, 2])) == [1, 0]
    with pytest.raises(ValueError):
        Axis((0, 0, 1))


def test_pairs_rank_consistency():
    # an order built from pairs that happens to be weak normalises to ranks
    order = build_order([(0, 1), (0, 2), (1, 2)], 3)
    assert order.has_ranks()
    assert classify(order) == OrderClass.TOTAL


@st.composite
def _strict_relations(draw):
    """Irreflexive pair sets over m <= 6: arbitrary, or closed weak or partial
    orders, so that both outcomes of the weak-order test occur."""
    m = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["any", "weak", "partial"]))
    if kind == "weak":
        ranks = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
        return m, frozenset(
            (a, b) for a in range(m) for b in range(m) if ranks[a] < ranks[b]
        )
    pairs = draw(
        st.frozensets(
            st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)).filter(
                lambda p: p[0] != p[1]
            )
        )
    )
    if kind == "partial":
        # the pairs that agree with 0 > 1 > ... > m-1, transitively closed
        pairs = {(a, b) for a, b in pairs if a < b}
        for k in range(m):
            pairs |= {
                (a, c)
                for a in range(m)
                for c in range(m)
                if (a, k) in pairs and (k, c) in pairs
            }
    return m, frozenset(pairs)


@given(_strict_relations())
@settings(max_examples=400, deadline=None)
def test_bucketise_matches_reference(relation):
    m, pairs = relation
    rows = [0] * m
    for a, b in pairs:
        rows[a] |= 1 << b
    assert _weak_ranks(rows, range(m)) == reference_bucketise(m, pairs)


@st.composite
def _pair_lists(draw):
    """Pair lists over m <= 12, repeats allowed: arbitrary (often cyclic),
    partial orders closed or not, local weak orders and weak orders."""
    m = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["any", "partial", "local_weak", "weak"]))
    cand = st.integers(0, m - 1)
    if kind in ("any", "partial"):
        pairs = draw(st.lists(st.tuples(cand, cand)))
    if kind == "any":
        return m, [(a, b) for a, b in pairs if a != b]
    if kind == "partial":
        # comparisons that agree with one total order, closed or not
        order = draw(st.permutations(range(m)))
        pairs = [(order[a], order[b]) for a, b in pairs if a < b]
        if draw(st.booleans()):
            pairs = sorted(reference_close(pairs, m))
        return m, pairs + pairs[: draw(st.integers(0, len(pairs)))]
    members = draw(st.lists(cand, unique=True, min_size=0 if kind == "local_weak" else m))
    level = {c: draw(st.integers(0, 3)) for c in members}
    pairs = [(a, b) for a in members for b in members if level[a] < level[b]]
    return m, draw(st.permutations(pairs))


def _subsets(m, rng):
    """Every subset of range(m) for m <= 7, else 40 sampled ones."""
    if m <= 7:
        for k in range(m + 1):
            yield from itertools.combinations(range(m), k)
    else:
        for _ in range(40):
            yield tuple(c for c in range(m) if rng.random() < 0.5)


@given(_pair_lists(), _pair_lists(), st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_rows_match_the_pair_set_reference(first, second, seed):
    rng = random.Random(seed)
    votes, closures = [], []
    for m, pairs in (first, second):
        try:
            closed = reference_close(pairs, m)
        except CycleError:
            with pytest.raises(CycleError):
                PreferenceOrder.from_pairs(pairs, m)
            continue
        vote = PreferenceOrder.from_pairs(pairs, m)
        assert vote.pairs() == closed
        assert {(a, b) for a in range(m) for b in range(m) if vote.prefers(a, b)} == closed
        ranks = reference_bucketise(m, closed)
        assert vote.has_ranks() == (ranks is not None)
        if ranks is not None:
            assert vote.ranks == tuple(ranks)
            assert vote == PreferenceOrder.from_ranks(ranks)
            assert hash(vote) == hash(PreferenceOrder.from_ranks(ranks))
        assert vote.order_class() == reference_class(m, closed)
        rebuilt = PreferenceOrder.from_pairs(sorted(closed, reverse=True), m)
        assert rebuilt == vote and hash(rebuilt) == hash(vote)
        for subset in _subsets(m, rng):
            sub = vote.restrict(subset)
            sub_closed = reference_restrict(closed, subset)
            assert sub.pairs() == sub_closed
            assert sub.has_ranks() == (reference_bucketise(len(subset), sub_closed) is not None)
            if subset:
                assert sub.order_class() == reference_class(len(subset), sub_closed)
        votes.append(vote)
        closures.append((m, closed))
    if len(votes) == 2:
        assert (votes[0] == votes[1]) == (closures[0] == closures[1])
        if votes[0] == votes[1]:
            assert hash(votes[0]) == hash(votes[1])


def test_closure_matches_the_bfs_reference_on_random_relations():
    # sparse random relations over m <= 9, about half of them cyclic: a
    # closure that drops a successor's row shows on a few in a thousand
    rng = random.Random(7)
    for _ in range(6000):
        m = rng.randint(2, 9)
        pairs = [(rng.randrange(m), rng.randrange(m)) for _ in range(rng.randint(1, 2 * m))]
        pairs = [(a, b) for a, b in pairs if a != b]
        try:
            closed = reference_close(pairs, m)
        except CycleError:
            with pytest.raises(CycleError):
                PreferenceOrder.from_pairs(pairs, m)
            continue
        vote = PreferenceOrder.from_pairs(pairs, m)
        assert vote.pairs() == closed
        assert vote.order_class() == reference_class(m, closed)


def test_total_order_from_pairs_constructor_has_ranks():
    # built directly from pairs, a total order used to keep its pairs:
    # classed local weak, equal to but hashed apart from the ranked vote,
    # and refused by dispatch
    m = 12
    vote = PreferenceOrder.from_pairs({(a, b) for a in range(m) for b in range(a + 1, m)}, m)
    total = PreferenceOrder.from_total(range(m))
    assert vote.has_ranks() and vote.order_class() == OrderClass.TOTAL
    assert vote == total and hash(vote) == hash(total) and len({vote, total}) == 1
    direct = dispatch(Profile(m, (vote,)))
    assert direct.consistent
    assert direct == dispatch(Profile(m, (PreferenceOrder.from_pairs(vote.pairs(), m),)))
    # axis_check._first_flagged reads the rank matrix exactly when every vote
    # has rank buckets, which holds exactly for weak-or-tighter profiles
    rng = random.Random(13)
    for _ in range(200):
        k = rng.randint(1, 8)
        pairs = [(a, b) for a in range(k) for b in range(k) if a != b and rng.random() < 0.3]
        try:
            v = PreferenceOrder.from_pairs(pairs, k)
        except CycleError:
            continue
        assert v.has_ranks() == (v.order_class() <= OrderClass.WEAK)


def test_empty_vote_over_many_candidates_parses_as_one_tie():
    # the weak-order test is linear in m and the pairs, so a 40-byte file
    # naming 20,000 candidates parses to one all-tied vote
    profile, names = parse_any('{"m": 20000, "votes": [{"pairs": []}]}')
    assert profile.m == 20000 and len(names) == 20000
    (vote,) = profile.votes
    assert vote.has_ranks() and not any(vote.ranks)


@st.composite
def _ranked_profiles(draw):
    """Profiles of total, top and weak votes (rank buckets only)."""
    m = draw(st.integers(1, 8))
    votes = []
    for _ in range(draw(st.integers(1, 5))):
        order = draw(st.permutations(range(m)))
        kind = draw(st.sampled_from(("total", "top", "weak")))
        if kind == "total":
            votes.append(PreferenceOrder.from_total(order))
        elif kind == "top":
            votes.append(PreferenceOrder.top_order(order[: draw(st.integers(0, m))], m))
        else:
            ranks = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
            votes.append(PreferenceOrder.from_ranks(ranks))
    return Profile(m, tuple(votes))


@given(_ranked_profiles())
@settings(max_examples=300, deadline=None)
def test_rank_matrix_holds_the_votes_and_is_read_only(profile):
    ranks = profile.rank_matrix()
    assert ranks.dtype == np.int32 and ranks.shape == (profile.n, profile.m)
    assert ranks.tolist() == [list(v.ranks) for v in profile.votes]
    assert profile.rank_matrix() is ranks
    with pytest.raises(ValueError):
        ranks[0, 0] = 1
    # the cache lies outside the dataclass fields
    fresh = Profile(profile.m, profile.votes, profile.multiplicities)
    assert fresh == profile and hash(fresh) == hash(profile)
    source = ranks.copy()
    rebuilt = Profile.from_rank_matrix(source, profile.multiplicities)
    source[...] = 0
    assert rebuilt == profile
    assert rebuilt.rank_matrix().tolist() == ranks.tolist()
    assert not rebuilt.rank_matrix().flags.writeable


@given(_ranked_profiles())
@settings(max_examples=300, deadline=None)
def test_vectorised_classes_match_each_vote(profile):
    classes = [v._classify() for v in profile.votes]
    assert profile._vote_classes().tolist() == classes
    assert profile.order_class() == max(classes)
    totals = [v for v, c in zip(profile.votes, classes) if c == OrderClass.TOTAL]
    assert profile.first_total_order() is (totals[0] if totals else None)
    assert profile.contains_total_order() == bool(totals)


def test_pair_based_profile_classifies_vote_by_vote():
    total = PreferenceOrder.from_total([2, 0, 1, 3])
    local_weak = build_order([(0, 2), (1, 2)], 4)
    partial = build_order([(0, 1), (2, 3)], 4)
    assert not local_weak.has_ranks() and not partial.has_ranks()
    profile = Profile(4, (local_weak, total))
    with pytest.raises(ClassError):
        profile.rank_matrix()
    assert profile.order_class() == OrderClass.LOCAL_WEAK
    assert profile.first_total_order() is total
    assert profile.contains_total_order()
    profile = Profile(4, (partial, local_weak))
    assert profile.order_class() == OrderClass.PARTIAL
    assert profile.first_total_order() is None
    assert not profile.contains_total_order()


@st.composite
def _rank_matrices(draw):
    """n×m matrices of non-negative ints, dense or not."""
    m = draw(st.integers(1, 8))
    top = draw(st.integers(0, 40))
    row = st.lists(st.integers(0, top), min_size=m, max_size=m)
    return draw(st.lists(row, min_size=1, max_size=5))


def _assert_from_rank_matrix_renumbers(rows):
    m = len(rows[0])
    built = Profile.from_rank_matrix(np.array(rows))
    expected = Profile(m, tuple(PreferenceOrder.from_ranks(r) for r in rows))
    assert built.votes == expected.votes
    assert built.rank_matrix().tolist() == expected.rank_matrix().tolist()
    assert built._vote_classes().tolist() == [v._classify() for v in expected.votes]
    assert built.order_class() == expected.order_class()
    return built


@given(_rank_matrices())
@settings(max_examples=300, deadline=None)
def test_from_rank_matrix_renumbers_each_row_to_dense_ranks(rows):
    _assert_from_rank_matrix_renumbers(rows)


def test_from_rank_matrix_with_a_skipped_level_is_not_total():
    # row 0 skips level 1: it is <0 > 1~2>, a top order, not a total one
    profile = _assert_from_rank_matrix_renumbers([[0, 2, 2], [1, 0, 2]])
    assert profile.votes[0].order_class() == OrderClass.TOP
    assert repr(profile.votes[0]) == "PreferenceOrder<0 > 1~2>"
    assert profile.first_total_order() is profile.votes[1]
    with pytest.raises(ValueError):
        Profile.from_rank_matrix([[0, -1]])


@pytest.mark.parametrize(
    "shape, message",
    [((1, 0), "at least one candidate"), ((0, 3), "at least one vote"),
     ((0, 0), "at least one candidate")],
)
def test_from_rank_matrix_refuses_an_empty_matrix_by_name(shape, message):
    with pytest.raises(ValueError, match=message):
        Profile.from_rank_matrix(np.zeros(shape, np.int32))


@given(_rank_matrices(), st.data())
@settings(max_examples=300, deadline=None)
def test_matrix_profile_builds_its_votes_only_when_read(rows, data):
    m, n = len(rows[0]), len(rows)
    weights = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    lazy = Profile.from_rank_matrix(np.array(rows), weights)
    votes = tuple(PreferenceOrder.from_ranks(r) for r in rows)
    eager = Profile(m, votes, tuple(weights))
    stored = lazy.__dict__["_rank_matrix"]
    assert lazy.rank_matrix() is stored
    assert np.array_equal(stored, eager.rank_matrix())
    assert lazy.n == eager.n == n
    assert lazy.multiplicities == eager.multiplicities == tuple(weights)
    assert lazy.total_voters == eager.total_voters
    assert [lazy.vote(k) for k in range(n)] == [eager.vote(k) for k in range(n)] == list(votes)
    assert lazy.order_class() == eager.order_class()
    assert lazy.first_total_order() == eager.first_total_order()
    assert "_votes" not in lazy.__dict__  # nothing above built them
    assert lazy == eager and eager == lazy and hash(lazy) == hash(eager)
    assert repr(lazy) == repr(eager)
    assert lazy.votes == votes and lazy.votes is lazy.votes
    assert lazy.rank_matrix() is stored


@pytest.mark.parametrize(
    "weights, message",
    [((1,), "one multiplicity per vote"), ((1, 2, 3), "one multiplicity per vote"),
     ((1, 0), "multiplicities must be positive"), ((2, -1), "multiplicities must be positive")],
)
def test_matrix_and_vote_profiles_refuse_the_same_multiplicities(weights, message):
    rows = np.array([[0, 1, 1], [1, 0, 2]])
    votes = tuple(PreferenceOrder.from_ranks(r) for r in rows.tolist())
    with pytest.raises(ValueError, match=message):
        Profile(3, votes, weights)
    with pytest.raises(ValueError, match=message):
        Profile.from_rank_matrix(rows, weights)


@pytest.mark.parametrize(
    "ranks",
    [np.zeros(3, np.int32), np.zeros((2, 2, 2), np.int32), [[0, 1.5]]],
    ids=["1-D", "3-D", "float"],
)
def test_from_rank_matrix_refuses_a_non_integer_or_non_matrix_input(ranks):
    with pytest.raises(ValueError, match="expected an n×m integer matrix"):
        Profile.from_rank_matrix(ranks)


@pytest.mark.parametrize(
    "name, expected",
    [
        ("total", OrderClass.TOTAL),
        ("SOC", OrderClass.TOTAL),
        ("top", OrderClass.TOP),
        ("toi", OrderClass.TOP),
        (" soi ", OrderClass.TOP),
        ("weak", OrderClass.WEAK),
        ("Toc", OrderClass.WEAK),
        ("LocalWeak", OrderClass.LOCAL_WEAK),
        ("partial\n", OrderClass.PARTIAL),
    ],
)
def test_order_class_from_name(name, expected):
    # the names generate --class and --seed-corpus take, in any case and
    # with surrounding whitespace; a value still gives its class
    assert OrderClass(name) is expected
    assert OrderClass(int(expected)) is expected


def test_order_class_refuses_unknown_names():
    from peakcheck.gadgets import random_profile

    for bad in ("bogus", "", "local weak", "2", 5):
        with pytest.raises(ValueError, match="is not a valid OrderClass"):
            OrderClass(bad)
    assert random_profile(4, 2, "weak", 3) == random_profile(4, 2, OrderClass.WEAK, 3)
