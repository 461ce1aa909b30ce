import collections
import copy
import functools
import hashlib
import itertools
import operator
import random

import pytest

from conftest import backtracking_c1p, reference_end_run, rows_consecutive_under
from peakcheck import c1p, pqtree
from peakcheck.gadgets import random_sp_profile
from peakcheck.model import PreferenceOrder, Profile
from peakcheck.pqtree import Bitset, PQTree, solve_c1p_sets


def test_trivial_cases():
    assert solve_c1p_sets([], 0) == []
    assert solve_c1p_sets([], 3) is not None
    assert solve_c1p_sets([{0}], 3) is not None
    assert solve_c1p_sets([{0, 1, 2}], 3) is not None


@pytest.mark.parametrize(
    "rows, m, col", [([{0, 1, 2, 7}], 4, 7), ([{0, 5}], 3, 5), ([{-1, 2}], 4, -1)]
)
def test_out_of_range_column_is_refused(rows, m, col):
    # {0, 1, 2, 7} has as many columns as m = 4 and must not pass as a full
    # row; a negative column is named too, not left to the bit shift
    with pytest.raises(ValueError, match=f"column {col} is out of range"):
        solve_c1p_sets(rows, m)


def test_known_negative():
    rows = [{0, 2}, {1, 2}, {0, 1}]
    assert solve_c1p_sets(rows, 3) is None
    assert backtracking_c1p(rows, 3) is None


def test_tucker_forbidden_cycle():
    # the cyclic pattern over 4+ columns is a classical non-C1P matrix
    rows = [{0, 1}, {1, 2}, {2, 3}, {3, 0}]
    assert solve_c1p_sets(rows, 4) is None


def test_interval_instances_solved():
    rng = random.Random(1)
    for _ in range(400):
        m = rng.randint(2, 10)
        perm = list(range(m))
        rng.shuffle(perm)
        rows = []
        for _ in range(rng.randint(1, 12)):
            i = rng.randint(0, m - 1)
            j = rng.randint(i, m - 1)
            rows.append(set(perm[i : j + 1]))
        got = solve_c1p_sets(rows, m)
        assert got is not None
        assert rows_consecutive_under(rows, got)


def test_agreement_with_backtracking():
    rng = random.Random(2)
    for _ in range(1500):
        m = rng.randint(1, 9)
        rows = [
            set(rng.sample(range(m), rng.randint(0, m)))
            for _ in range(rng.randint(0, 8))
        ]
        got = solve_c1p_sets(rows, m)
        ref = backtracking_c1p(rows, m)
        assert (got is None) == (ref is None)
        if got is not None:
            assert rows_consecutive_under(rows, got)


def test_nonroot_q_node_with_partial_child_at_left_end():
    # C1P instances where a non-root Q-node's only pertinent child is partial
    # and sits at the node's left end, so the node must be turned around
    # (which case reaches that state depends on the tree's child orders)
    cases = [
        ([{4}, {7}, {1, 2, 3, 5}, {4, 6}, {0, 8, 6}, {0, 1, 2, 3, 5}, {7}], 9),
        ([{2, 3, 4}, {0, 2, 6}, {1, 3, 5}], 7),
    ]
    for rows, m in cases:
        got = solve_c1p_sets(rows, m)
        assert got is not None
        assert sorted(got) == list(range(m))
        assert rows_consecutive_under(rows, got)


def _prefix_chain(axis, rng):
    """Upper sets of one weak order single-peaked on ``axis``.

    Each is an interval of the axis around the peak and each contains the
    one before it, as the rows of one weak vote's block do.
    """
    lo = hi = rng.randrange(len(axis))
    upper = {axis[lo]}
    rows = [set(upper)]
    while lo > 0 or hi < len(axis) - 1:
        if lo > 0 and (hi == len(axis) - 1 or rng.random() < 0.5):
            lo -= 1
            upper.add(axis[lo])
        else:
            hi += 1
            upper.add(axis[hi])
        if rng.random() < 0.3:
            rows.append(set(upper))
    return rows


def test_nested_prefix_chains():
    rng = random.Random(3)
    for _ in range(80):
        m = rng.randint(20, 60)
        axis = rng.sample(range(m), m)
        rows = [
            row for _ in range(rng.randint(3, 25)) for row in _prefix_chain(axis, rng)
        ]
        got = solve_c1p_sets(rows, m)
        assert got is not None
        assert sorted(got) == list(range(m))
        assert rows_consecutive_under(rows, got)
        a, b, c = rng.sample(range(m), 3)
        planted = list(rows)
        for triple_row in ({a, b}, {b, c}, {a, c}):
            planted.insert(rng.randint(0, len(planted)), triple_row)
        assert solve_c1p_sets(planted, m) is None


def test_bitset_is_a_sized_collection_of_ascending_columns():
    rng = random.Random(6)
    for _ in range(300):
        cols = rng.sample(range(300), rng.randint(0, 60))
        row = Bitset.of(cols)
        assert isinstance(row, int) and row == sum(1 << c for c in cols)
        assert len(row) == row.bit_count() == len(cols)
        assert list(row) == sorted(cols)
        assert Bitset(int(row)) == row and list(Bitset(int(row))) == sorted(cols)
    assert len(Bitset(0)) == 0 and list(Bitset(0)) == []


def test_bitset_rows_agree_with_column_lists():
    # the oracle, the consecutiveness check and the solver take bitset rows
    # as they take lists of columns
    rng = random.Random(7)
    for _ in range(400):
        m = rng.randint(1, 8)
        rows = [
            rng.sample(range(m), rng.randint(0, m)) for _ in range(rng.randint(0, 6))
        ]
        bitsets = [Bitset.of(row) for row in rows]
        assert backtracking_c1p(bitsets, m) == backtracking_c1p(rows, m)
        assert solve_c1p_sets(bitsets, m) == solve_c1p_sets(rows, m)
        perm = rng.sample(range(m), m)
        assert rows_consecutive_under(bitsets, perm) == rows_consecutive_under(
            rows, perm
        )


def test_reduce_incremental():
    tree = PQTree(5)
    assert tree.reduce({0, 1})
    assert tree.reduce({1, 2})
    assert tree.reduce({0, 1, 2, 3})
    frontier = tree.frontier()
    assert sorted(frontier) == list(range(5))
    assert rows_consecutive_under([{0, 1}, {1, 2}, {0, 1, 2, 3}], frontier)
    assert not tree.reduce({0, 2, 4})


def test_hypothesis_agreement_with_backtracking():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @st.composite
    def instances(draw):
        m = draw(st.integers(2, 7))
        rows = draw(
            st.lists(
                st.sets(st.integers(0, m - 1), max_size=m), min_size=0, max_size=6
            )
        )
        return m, rows

    @given(instances())
    @settings(max_examples=300, deadline=None)
    def run(case):
        m, rows = case
        got = solve_c1p_sets(rows, m)
        ref = backtracking_c1p(rows, m)
        assert (got is None) == (ref is None)
        if got is not None:
            assert rows_consecutive_under(rows, got)

    run()


def test_repeated_rows_in_any_column_order_agree_with_backtracking():
    # callers pass distinct rows; a repeated row, in any column order, is
    # only reduced again
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @st.composite
    def instances(draw):
        m = draw(st.integers(2, 7))
        rows = draw(
            st.lists(
                st.lists(st.integers(0, m - 1), unique=True, max_size=m), max_size=6
            )
        )
        repeats = draw(st.lists(st.sampled_from(rows), max_size=6)) if rows else []
        repeats = [draw(st.permutations(row)) for row in repeats]
        return m, draw(st.permutations(rows + repeats))

    @given(instances())
    @settings(max_examples=300, deadline=None)
    def run(case):
        m, rows = case
        got = solve_c1p_sets(rows, m)
        ref = backtracking_c1p(rows, m)
        assert (got is None) == (ref is None)
        if got is not None:
            assert sorted(got) == list(range(m))
            assert rows_consecutive_under(rows, got)

    run()


def _shape(tree, node):
    """The tree below ``node`` as nested kind and leaf tuples, its children
    in frontier order."""
    if node.kind == "L":
        return node.col
    return node.kind, tuple(_shape(tree, ch) for ch in tree._ordered(node))


def _keeps(tree, row):
    """Whether every permutation ``tree`` represents already keeps the
    columns of the bitmask ``row`` consecutive, so reducing by it changes
    nothing.

    Exactly when the row is all of the pertinent root's leaves, or when
    the pertinent root is a Q-node and the row is the union of a run of
    its children: the cases ``reduce`` returns from without a change, the
    second by the test over the Q-node's cached cuts.
    """
    node, below = tree._pertinent_root(row)
    return node.mask == row or node.kind == "Q" and tree._full_run(node, below, row)


def _assert_keeps_is_exact(m, rows):
    """Reduce ``rows`` in order; before each one, ``_keeps`` must say the row
    changes nothing exactly when the reduction templates, run on a copy
    without that test, leave the tree's shape as it was."""
    tree = PQTree(m)
    for row in rows:
        if 1 < len(row) < m:
            before = _shape(tree, tree.root)
            reduced = copy.deepcopy(tree)
            mask = Bitset.of(row)
            node, _ = reduced._pertinent_root(mask)
            if node.mask == mask:
                ok = True
            elif node.kind == "Q":
                ok = reduced._reduce_q_root(node, mask)
            else:
                ok = reduced._reduce_p_root(node, mask)
            unchanged = ok and _shape(reduced, reduced.root) == before
            assert _keeps(tree, mask) == unchanged
        if not tree.reduce(row):
            return


def _row_sequences(rng, count, top=9):
    """Random row sequences at m <= ``top``, a third of their rows repeated."""
    for _ in range(count):
        m = rng.randint(2, top)
        rows = []
        for _ in range(rng.randint(1, 12)):
            if rows and rng.random() < 0.3:
                row = list(rng.choice(rows))
                rng.shuffle(row)
            elif rng.random() < 0.5:
                perm = rng.sample(range(m), m)  # an interval of a hidden axis
                i = rng.randrange(m)
                row = perm[i : rng.randint(i + 1, m)]
            else:
                row = rng.sample(range(m), rng.randint(0, m))
            rows.append(row)
        yield m, rows


def test_keeps_says_unchanged_exactly_when_the_marking_body_changes_nothing():
    for m, rows in _row_sequences(random.Random(4), 1500):
        _assert_keeps_is_exact(m, rows)


def test_hypothesis_keeps_is_exact():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @st.composite
    def instances(draw):
        m = draw(st.integers(2, 9))
        rows = draw(
            st.lists(
                st.lists(st.integers(0, m - 1), unique=True, max_size=m), max_size=8
            )
        )
        repeats = draw(st.lists(st.sampled_from(rows), max_size=4)) if rows else []
        return m, draw(st.permutations(rows + repeats))

    @given(instances())
    @settings(max_examples=400, deadline=None)
    def run(case):
        _assert_keeps_is_exact(*case)

    run()


def _assert_tree_invariants(tree):
    """Masks, parent links, P-node leaf masks, and each Q-node's
    cached reaches and cuts agree with the children.  Returns the number of
    Q-node caches checked."""
    assert tree.root.parent is None
    assert sorted(tree.frontier()) == list(range(tree.m))
    cached = 0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.kind == "L":
            assert node.mask == 1 << node.col and not node.children
            continue
        children = node.children if node.kind == "P" else tree._ordered(node)
        masks = [ch.mask for ch in children]
        assert node.mask == functools.reduce(operator.or_, masks, node.leaves)
        assert all(ch.parent is node for ch in children)
        if node.kind == "P":
            # the leaves are held in the mask alone, every one of them with
            # this node as its parent, and the other children are listed
            cols = [c for c in range(tree.m) if node.leaves >> c & 1]
            assert all(tree.leaves[c].parent is node for c in cols)
            assert all(ch.kind != "L" for ch in node.children)
            assert len(cols) + len(node.children) >= 2
            assert node.sides is None
        else:
            assert node.leaves == 0 and not node.children
            # each side, read outward from the middle, is never empty; each
            # child's reach is the OR of the masks from the middle through
            # it, and the side's cuts are exactly 0 and those reaches
            assert len(node.sides) == 2
            for side, cuts in node.sides:
                assert side
                reaches = list(itertools.accumulate((ch.mask for ch in side), operator.or_))
                assert [ch.reach for ch in side] == reaches
                assert cuts == {0, *reaches}
            cached += 1
        stack.extend(children)
    return cached


def _reduce_checking_invariants(rows, m):
    tree = PQTree(m)
    cached = 0
    for row in sorted(rows, key=len):
        if not tree.reduce(row):
            break
        cached += _assert_tree_invariants(tree)
    return cached


def test_tree_invariants_hold_after_every_reduction(monkeypatch):
    cached = 0
    for m, rows in _row_sequences(random.Random(5), 1000):
        cached += _reduce_checking_invariants(rows, m)
    # the rows c1p hands the tree on tie-dense weak profiles
    calls = []
    monkeypatch.setattr(
        c1p, "solve_c1p_sets", lambda rows, m: calls.append((list(rows), m))
    )
    for s in range(4):
        c1p.recognize(random_sp_profile(60, 30, "psp", 0.9, s))
    assert len(calls) == 4
    for rows, m in calls:
        cached += _reduce_checking_invariants(rows, m)
    assert cached  # some Q-node caches were checked


def _frontier_checking_invariants(rows, m):
    """The frontier after reducing ``rows`` in order, or None, with the tree
    checked after every reduction."""
    tree = PQTree(m)
    for row in rows:
        if not tree.reduce(row):
            return None
        _assert_tree_invariants(tree)
    return tree.frontier()


def test_q_node_caches_survive_turns_and_appends(monkeypatch):
    # a Q-node that Q2 turned or left as it was and that P4 or P6 then
    # extends at its right end, and a Q3 root with reduced ends spliced in,
    # keep their cached reaches and cuts, which are checked against the
    # children after every reduction
    seen = collections.Counter()
    turned = {}  # the nodes Q2 reduced in this reduction, to their turn
    depth = [0]  # inside a reduction below the pertinent root

    def reduce_q(node, part, start, turn, q2=pqtree._reduce_q):
        turned[node] = turn
        return q2(node, part, start, turn)

    def reduce_partial(self, node, row, partial=PQTree._reduce_partial):
        depth[0] += 1
        try:
            return partial(self, node, row)
        finally:
            depth[0] -= 1

    def push(node, side, kids, push=pqtree._push):
        if not depth[0] and node in turned:
            if kids[0].parent not in (None, node):
                seen["Q2 then P6"] += 1
            else:
                seen["Q2 turn then P4" if turned[node] else "Q2 then P4"] += 1
        return push(node, side, kids)

    def splice(node, i, q, back, splice=pqtree._splice):
        if not depth[0]:
            seen["Q3 splice"] += 1
        return splice(node, i, q, back)

    def reduce(self, row, reduce=PQTree.reduce):
        turned.clear()
        return reduce(self, row)

    monkeypatch.setattr(pqtree, "_reduce_q", reduce_q)
    monkeypatch.setattr(PQTree, "_reduce_partial", reduce_partial)
    monkeypatch.setattr(pqtree, "_push", push)
    monkeypatch.setattr(pqtree, "_splice", splice)
    monkeypatch.setattr(PQTree, "reduce", reduce)
    sequences = list(_row_sequences(random.Random(24), 20000, top=12))
    frontiers = [
        (_frontier_checking_invariants(rows, m),
         _frontier_checking_invariants(sorted(rows, key=len), m))
        for m, rows in sequences
    ]
    assert all(seen[p] for p in ("Q2 turn then P4", "Q2 then P4", "Q2 then P6", "Q3 splice")), seen
    assert all(
        f is None or rows_consecutive_under(rows, f)
        for (_, rows), pair in zip(sequences, frontiers) for f in pair
    )
    # the frontiers of the tree that rebuilt its Q-node caches after each
    # turn or append: caches that survive them must not change one
    digest = hashlib.sha256(repr(frontiers).encode()).hexdigest()
    assert digest == "a7e455798d87d18f780f56d719345bd336ec280984b698a1cbf11f4a1f6fe822"


def _pinned_row_sequences():
    """Fixed seeded row sequences at m <= 40: interval rows of a hidden
    axis, nested upper sets of weak votes on it, and now and then a random
    row that may break consecutiveness."""
    rng = random.Random(16)
    for _ in range(400):
        m = rng.randint(3, 40)
        axis = rng.sample(range(m), m)
        rows = []
        for _ in range(rng.randint(1, 12)):
            if rng.random() < 0.5:
                i = rng.randrange(m)
                rows.append(axis[i : rng.randint(i + 1, m)])
            else:
                rows.extend(_prefix_chain(axis, rng))
        if rng.random() < 0.2:
            rows.insert(rng.randrange(len(rows)), rng.sample(range(m), rng.randint(2, m - 1)))
        yield rows, m


def test_frontiers_are_pinned():
    # the witnesses themselves, not only their validity: any change to the
    # order in which the reduction templates arrange children shows here
    sequences = list(_pinned_row_sequences())
    frontiers = [solve_c1p_sets(rows, m) for rows, m in sequences]
    assert sum(f is None for f in frontiers) > 10
    digest = hashlib.sha256(repr(frontiers).encode()).hexdigest()
    assert digest == "545b7651a1a743cb7188f40696a16309dbd0e730fb787ae28859de47514f5080"
    # the same rows reduced in the order given, not smallest first: only then
    # can a P-node root whose children all meet the row hang in a P-node
    in_order = []
    for rows, m in sequences:
        tree = PQTree(m)
        in_order.append(tree.frontier() if all(map(tree.reduce, rows)) else None)
    # a pinned frontier is a witness, whichever one the tree returns
    for found in (frontiers, in_order):
        assert all(
            f is None or sorted(f) == list(range(m)) and rows_consecutive_under(rows, f)
            for (rows, m), f in zip(sequences, found)
        )
    digest = hashlib.sha256(repr(in_order).encode()).hexdigest()
    assert digest == "320a2309649f2032f0eb87c15e3223df3103f78c6a1038350a0392ebecaf96fc"


def _checking_end_runs(monkeypatch):
    """Make every ``_end_run`` call check its result against the walk of
    ``reference_end_run``; returns a counter of the kinds of result."""
    seen = collections.Counter()

    def end_run(node, row, end_run=PQTree._end_run):
        got = end_run(node, row)
        assert got == reference_end_run(node, row)
        if got is None:
            seen["refused"] += 1
        else:
            part, _, turn = got
            seen["turned" if turn else "as is"] += 1
            seen["partial" if part is not None else "full"] += 1
        return got

    monkeypatch.setattr(PQTree, "_end_run", staticmethod(end_run))
    return seen


def test_end_run_bisection_matches_the_walk(monkeypatch):
    seen = _checking_end_runs(monkeypatch)
    for rows, m in _pinned_row_sequences():
        solve_c1p_sets(rows, m)
    for m, rows in _row_sequences(random.Random(37), 3000, top=12):
        tree = PQTree(m)
        all(map(tree.reduce, rows))  # in the order given, up to a refusal
        solve_c1p_sets(rows, m)
    # long Q-nodes: the rows c1p hands the tree on tie-dense weak profiles
    for s in range(3):
        c1p.recognize(random_sp_profile(120, 40, "psp", 0.9, s))
    assert all(seen[k] for k in ("refused", "turned", "as is", "partial", "full")), seen


def test_hypothesis_end_run_bisection_matches_the_walk(monkeypatch):
    from hypothesis import given, settings
    from hypothesis import strategies as st

    seen = _checking_end_runs(monkeypatch)

    @st.composite
    def instances(draw):
        m = draw(st.integers(3, 12))
        rows = draw(
            st.lists(
                st.lists(st.integers(0, m - 1), unique=True, min_size=2, max_size=m - 1),
                max_size=12,
            )
        )
        return m, rows

    @given(instances())
    @settings(max_examples=400, deadline=None)
    def run(case):
        m, rows = case
        tree = PQTree(m)
        all(map(tree.reduce, rows))
        solve_c1p_sets(rows, m)

    run()
    assert seen["refused"] and seen["turned"] and seen["as is"], seen


def test_c1p_axes_are_pinned():
    # the axes c1p returns on tie-dense weak profiles, which change with the
    # rows c1p hands the tree as well as with the tree
    axes = []
    for m in (40, 80, 160):
        for s in range(5):
            verdict = c1p.recognize(random_sp_profile(m, 30, "psp", 0.9, s))
            axes.append(verdict.axis.order)
    digest = hashlib.sha256(repr(axes).encode()).hexdigest()
    assert digest == "0d2e255d10fbd89d682f29e6bc9bf483d684712dd24203b4c49d5d9328efe433"
    # wide P-node pertinent roots: hundreds of leaf children, few in the row
    wide = [
        c1p.recognize(random_sp_profile(500, 100, "psp", 0.9, s)).axis.order
        for s in range(3)
    ]
    digest = hashlib.sha256(repr(wide).encode()).hexdigest()
    assert digest == "7b3b577ee699ca4c03d4f124d97a7f006721f45903902026a1187cc5de1c1177"


def test_smallest_first_meets_a_planted_no_early(monkeypatch):
    # a no-triple planted in a tie-dense weak profile is three votes whose
    # top buckets are two columns each; smallest first reduces those rows
    # early, so the tree says no long before the rows' own order would
    calls = []
    monkeypatch.setattr(
        c1p, "solve_c1p_sets", lambda rows, m: calls.append((list(rows), m))
    )
    triple = [
        PreferenceOrder.from_ranks([0 if c in top else 1 for c in range(60)])
        for top in ({0, 1}, {1, 2}, {0, 2})
    ]
    for s in range(3):
        profile = random_sp_profile(60, 30, "psp", 0.9, s)
        c1p.recognize(Profile(profile.m, (*profile.votes, *triple)))
    assert len(calls) == 3
    reductions = [0]

    def reduce(self, row, reduce=PQTree.reduce):
        reductions[0] += 1
        return reduce(self, row)

    monkeypatch.setattr(PQTree, "reduce", reduce)
    for rows, m in calls:
        reductions[0] = 0
        assert solve_c1p_sets(rows, m) is None
        smallest_first = reductions[0]
        reductions[0] = 0
        tree = PQTree(m)
        assert not all(map(tree.reduce, rows))
        assert smallest_first * 10 <= reductions[0], (smallest_first, reductions[0])
