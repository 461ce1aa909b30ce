import importlib.util
import random
from pathlib import Path

import pytest

from conftest import (
    backtracking_c1p,
    random_weak,
    random_weak_profile,
    reference_c1p_matrix,
    reference_cut_rows,
    rows_consecutive_under,
)
from peakcheck import axis_check, c1p, oracle
from peakcheck.c1p import (
    C1Matrix,
    build_black_matrix,
    build_plateaued_matrix,
    build_psp_matrix,
    recognize_black,
    recognize_necessary,
    recognize_plateaued,
    recognize_psp_c1p,
    solve_c1p,
)
from peakcheck.errors import ClassError
from peakcheck.gadgets import random_sp_profile
from peakcheck.model import Notion, PreferenceOrder, Profile, all_axes, build_order
from peakcheck.pqtree import Bitset

EX1_V1 = PreferenceOrder.from_ranks([0, 1, 0, 2, 2, 3])  # <a~c > b > e~d > f>
EX1_V2 = PreferenceOrder.from_ranks([0, 1, 2, 3, 3, 4])  # <a > b > c > e~d > f>
EX1 = Profile(6, (EX1_V1, EX1_V2))

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


def test_worked_example_matrices_bit_exact():
    mat = build_psp_matrix(EX1)
    dense = mat.dense()
    assert dense[:6] == X1_EXPECTED
    assert dense[6:] == X2_EXPECTED
    assert [p[:2] for p in mat.provenance] == [(0, "base")] * 6 + [(1, "base")] * 6


def test_base_matrix_small_cases():
    single = Profile(2, (PreferenceOrder.from_total([0, 1]),))
    assert build_psp_matrix(single).dense() == [[1, 0], [1, 1]]
    tied = Profile(2, (PreferenceOrder.empty(2),))
    assert build_psp_matrix(tied).dense() == [[1, 1], [1, 1]]


def test_base_matrix_rejects_partial():
    prof = Profile(4, (build_order([(0, 2), (1, 2)], 4),))
    with pytest.raises(ClassError):
        build_psp_matrix(prof)


def test_plateau_gadget_columns():
    # V = <p > a~b> with p=0, a=1, b=2
    prof = Profile(3, (PreferenceOrder.from_ranks([0, 1, 1]),))
    mat = build_plateaued_matrix(prof)
    gadget = mat.dense()[3:]
    assert [row[0] for row in gadget] == [1, 1, 1]
    assert [row[1] for row in gadget] == [0, 1, 1]
    assert [row[2] for row in gadget] == [1, 1, 0]
    assert [p[1] for p in mat.provenance[3:]] == [
        "plateau-gadget-1",
        "plateau-gadget-2",
        "plateau-gadget-3",
    ]


def test_plateaued_short_circuit_on_triple():
    prof = Profile(4, (PreferenceOrder.from_ranks([0, 1, 1, 1]),))
    mat = build_plateaued_matrix(prof)
    assert mat.short_circuit
    assert solve_c1p(mat) is None
    assert not recognize_plateaued(prof).consistent


def test_plateaued_total_vote_has_no_gadgets():
    prof = Profile(3, (PreferenceOrder.from_total([2, 0, 1]),))
    base = build_psp_matrix(prof)
    plat = build_plateaued_matrix(prof)
    assert plat.dense() == base.dense()


def test_black_short_circuit_on_top_plateau():
    prof = Profile(3, (PreferenceOrder.from_ranks([0, 0, 1]),))
    mat = build_black_matrix(prof)
    assert mat.short_circuit
    assert not recognize_black(prof).consistent


def test_black_equals_plateaued_for_totals():
    prof = Profile(3, (PreferenceOrder.from_total([0, 1, 2]),))
    assert build_black_matrix(prof).dense() == build_plateaued_matrix(prof).dense()


def test_solve_c1p_examples():
    assert solve_c1p(build_psp_matrix(EX1)) is not None
    all_ones = C1Matrix(3, [0b111, 0b111], [(0, "base", 0)] * 2)
    assert solve_c1p(all_ones) == [0, 1, 2]
    neg = C1Matrix(3, [0b101, 0b110, 0b011], [(0, "base", 0)] * 3)
    assert solve_c1p(neg) is None
    assert backtracking_c1p([Bitset(row) for row in neg.rows], 3) is None


def test_recognize_worked_example():
    res = recognize_psp_c1p(EX1)
    assert res.consistent
    assert axis_check.is_possibly_sp_on_axis(EX1, res.axis).consistent


def test_recognize_example_2_profile():
    v1 = PreferenceOrder.from_ranks([0, 1, 2, 2, 3])
    v2 = PreferenceOrder.from_ranks([0, 0, 0, 1, 2])
    v3 = PreferenceOrder.from_ranks([3, 1, 2, 0, 0])
    prof = Profile(5, (v1, v2, v3))
    assert not recognize_psp_c1p(prof).consistent
    assert not oracle.oracle_recognize(prof, "psp").consistent


def test_fishburn_profile_psp_but_not_plateaued():
    v1 = PreferenceOrder.from_total([1, 0, 2])
    v23 = PreferenceOrder.from_total([2, 1, 0])
    v45 = PreferenceOrder.from_ranks([0, 1, 1])
    prof = Profile(3, (v1, v23, v45), (1, 2, 2))
    assert recognize_psp_c1p(prof).consistent
    assert not recognize_plateaued(prof).consistent
    assert not oracle.oracle_recognize(prof, "plateaued").consistent


def test_permutation_makes_all_rows_consecutive():
    rng = random.Random(0)
    for _ in range(200):
        prof = random_weak_profile(rng.randint(1, 6), rng.randint(1, 5), rng)
        mat = build_psp_matrix(prof)
        perm = solve_c1p(mat)
        if perm is not None:
            rows = [
                {c for c in range(mat.m) if (mask >> c) & 1} for mask in mat.rows
            ]
            assert rows_consecutive_under(rows, perm)


def test_constructions_match_axis_checks_per_axis():
    # a column order witnesses the matrix iff the corresponding axis passes
    # the independent substructure check, for all three constructions
    rng = random.Random(1)
    for _ in range(150):
        m = rng.randint(1, 5)
        prof = Profile(m, tuple(random_weak(m, rng) for _ in range(rng.randint(1, 3))))
        psp_mat = build_psp_matrix(prof)
        plat_mat = build_plateaued_matrix(prof)
        black_mat = build_black_matrix(prof)
        for ax in all_axes(m, halve_by_reversal=False):
            perm = list(ax.order)

            def consecutive(mat):
                if mat.short_circuit:
                    return False
                rows = [
                    {c for c in range(mat.m) if (mask >> c) & 1} for mask in mat.rows
                ]
                return rows_consecutive_under(rows, perm)

            assert consecutive(psp_mat) == axis_check.is_possibly_sp_on_axis(
                prof, ax
            ).consistent
            assert consecutive(plat_mat) == axis_check.check_plateaued_on_axis(
                prof, ax
            ).consistent
            assert consecutive(black_mat) == axis_check.check_black_on_axis(
                prof, ax
            ).consistent


def test_recognizers_agree_with_oracle():
    rng = random.Random(2)
    for _ in range(400):
        prof = random_weak_profile(rng.randint(1, 6), rng.randint(1, 6), rng)
        assert (
            recognize_psp_c1p(prof).consistent
            == oracle.oracle_recognize(prof, "psp").consistent
        )
        assert (
            recognize_plateaued(prof).consistent
            == oracle.oracle_recognize(prof, "plateaued").consistent
        )
        assert (
            recognize_black(prof).consistent
            == oracle.oracle_recognize(prof, "black").consistent
        )


def test_monotone_containment_of_recognizers():
    rng = random.Random(3)
    for _ in range(300):
        prof = random_weak_profile(rng.randint(1, 6), rng.randint(1, 6), rng)
        chain = [
            recognize_black(prof).consistent,
            recognize_necessary(prof).consistent,
            recognize_plateaued(prof).consistent,
            recognize_psp_c1p(prof).consistent,
        ]
        for stronger, weaker in zip(chain, chain[1:]):
            assert not stronger or weaker


def test_matrix_text_dump():
    mat = build_psp_matrix(Profile(2, (PreferenceOrder.from_total([0, 1]),)))
    text = mat.to_text(["a", "b"])
    assert text.splitlines()[0].split() == ["a", "b"]
    assert text.splitlines()[1].split() == ["1", "0"]


def test_gadget_rows_block_same_side_pairs():
    # whenever a non-top indifferent pair sits on one side of the peak, the
    # three gadget rows cannot all be consecutive (exhaustive, m <= 5)
    rng = random.Random(4)
    for _ in range(200):
        m = rng.randint(3, 5)
        vote = random_weak(m, rng)
        prof = Profile(m, (vote,))
        mat = build_plateaued_matrix(prof)
        if mat.short_circuit:
            continue
        gadget_rows = [
            {c for c in range(m) if (mask >> c) & 1}
            for mask, prov in zip(mat.rows, mat.provenance)
            if prov[1].startswith("plateau-gadget")
        ]
        if not gadget_rows:
            continue
        tops = {c for c in range(m) if vote.ranks[c] == 0}
        pairs = [
            tuple(b)
            for b in vote.buckets()[1:]
            if len(b) == 2
        ]
        for ax in all_axes(m, halve_by_reversal=False):
            pos = ax.positions()
            same_side = False
            for a, b in pairs:
                lo = min(pos[a], pos[b])
                hi = max(pos[a], pos[b])
                if not any(lo < pos[p] < hi for p in tops):
                    same_side = True
            if same_side:
                assert not rows_consecutive_under(gadget_rows, list(ax.order))


def test_invalid_solver_axis_raises_internal_error(monkeypatch, tmp_path, capsys):
    from peakcheck import c1p, cli
    from peakcheck.errors import InternalError
    from peakcheck.model import Axis
    from peakcheck.preflib import write_preflib

    profile = Profile(3, (PreferenceOrder.from_ranks([0, 1, 2]),))
    bad = [1, 2, 0]  # candidate 2 is a valley between 1 and 0
    assert not axis_check.is_possibly_sp_on_axis(profile, Axis(tuple(bad)))
    monkeypatch.setattr(c1p, "solve_c1p_sets", lambda rows, m: list(bad))
    with pytest.raises(InternalError):
        recognize_psp_c1p(profile)

    path = tmp_path / "one.soc"
    path.write_text(write_preflib(profile))
    rc = cli.main(["recognize", str(path), "--algorithm", "c1p"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")


def test_cut_frontier_without_z_raises_internal_error(monkeypatch, tmp_path, capsys):
    from peakcheck import c1p, cli
    from peakcheck.errors import InternalError
    from peakcheck.preflib import write_preflib

    # rows {0,1} and {0,1,2} over four columns: cutting at column 2 saves a cell
    profile = Profile(4, (PreferenceOrder.from_ranks([0, 1, 2, 3]),))
    widths = []

    def solver(rows, m):
        widths.append(m)
        return list(range(profile.m))  # the added column z = 4 is missing

    monkeypatch.setattr(c1p, "solve_c1p_sets", solver)
    with pytest.raises(InternalError):
        recognize_psp_c1p(profile)
    assert widths == [profile.m + 1]

    path = tmp_path / "one.soc"
    path.write_text(write_preflib(profile))
    rc = cli.main(["recognize", str(path), "--algorithm", "c1p"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")


def test_uncut_frontier_that_is_no_permutation_is_an_internal_error(
    monkeypatch, tmp_path, capsys
):
    from peakcheck import cli
    from peakcheck.errors import InternalError
    from peakcheck.preflib import write_preflib

    # the one row {0, 1} over three columns: no cut saves a cell, so the
    # solver's frontier goes to the exit as it is, for every notion
    profile = Profile(3, (PreferenceOrder.from_ranks([0, 1, 2]),))
    widths = []

    def solver(rows, m):
        widths.append(m)
        return [0, 1, 1]

    monkeypatch.setattr(c1p, "solve_c1p_sets", solver)
    for notion in Notion:
        with pytest.raises(InternalError, match="^c1p engine .* not a permutation"):
            c1p.recognize(profile, notion)
    assert widths == [profile.m] * len(Notion)

    path = tmp_path / "one.soc"
    path.write_text(write_preflib(profile))
    rc = cli.main(["recognize", str(path), "--algorithm", "c1p"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: c1p engine returned an order")


def test_cut_agrees_with_backtracking(monkeypatch):
    # the circular-ones cut against the uncut backtracking oracle, on the
    # paper's matrices of all three constructions
    from peakcheck import c1p

    widths = []
    solver = c1p.solve_c1p_sets

    def recording(rows, m):
        widths.append(m)
        return solver(rows, m)

    monkeypatch.setattr(c1p, "solve_c1p_sets", recording)
    rng = random.Random(6)
    branches = set()
    for _ in range(1500):
        m = rng.randint(1, 7)
        prof = random_weak_profile(m, rng.randint(1, 4), rng)
        for build in (build_psp_matrix, build_plateaued_matrix, build_black_matrix):
            mat = build(prof)
            widths.clear()
            got = solve_c1p(mat)
            ref = None if mat.short_circuit else backtracking_c1p(map(Bitset, mat.rows), m)
            assert (got is None) == (ref is None)
            if not mat.short_circuit:
                branches.add((widths == [m + 1], got is not None))
                assert widths in ([m], [m + 1])
            rows = [{c for c in range(m) if (mask >> c) & 1} for mask in mat.rows]
            for order in (got, ref):
                if order is not None:
                    assert sorted(order) == list(range(m))
                    assert rows_consecutive_under(rows, order)
    # cut and uncut, each with a yes and a no
    assert branches == {(True, True), (True, False), (False, True), (False, False)}


def test_recognize_passes_distinct_cut_rows(monkeypatch):
    # work count, no timing: a tie-dense profile with no guiding vote reaches
    # the PQ-tree as distinct rows with at most 3/4 of the uncut cells
    from peakcheck import c1p
    from peakcheck.gadgets import random_sp_profile
    from peakcheck.guided import find_implicit_guiding_vote

    profile = random_sp_profile(350, 100, "psp", 0.9, seed=0)
    assert find_implicit_guiding_vote(profile) is None
    calls = []
    solver = c1p.solve_c1p_sets

    def recording(rows, m):
        calls.append(rows)
        return solver(rows, m)

    monkeypatch.setattr(c1p, "solve_c1p_sets", recording)
    assert recognize_psp_c1p(profile).consistent
    (rows,) = calls
    keys = [tuple(sorted(row)) for row in rows]
    assert len(set(keys)) == len(keys)
    full = (1 << profile.m) - 1
    uncut = {
        mask
        for mask in build_psp_matrix(profile).rows
        if mask & (mask - 1) and mask != full
    }
    assert sum(map(len, rows)) <= 0.75 * sum(mask.bit_count() for mask in uncut)


NOTIONS = (Notion.PSP, Notion.PLATEAUED, Notion.BLACK, Notion.NECESSARY)


def _seam_calls(monkeypatch):
    """The (rows, width) of every ``solve_c1p_sets`` call c1p makes."""
    calls = []
    solver = c1p.solve_c1p_sets

    def recording(rows, m):
        calls.append((rows, m))
        return solver(rows, m)

    monkeypatch.setattr(c1p, "solve_c1p_sets", recording)
    return calls


def _assert_matches_reference_builder(profile, calls):
    """The rank-matrix builder against the vote-by-vote reference, for every
    notion: the paper's rows, provenance and short circuit, the upper-set
    rows, the refusal, and the rows handed to the PQ-tree."""
    for notion in NOTIONS:
        paper = c1p._paper_matrix(profile, notion)
        ref = reference_c1p_matrix(profile, notion)
        assert paper.rows == ref.rows
        assert paper.provenance == ref.provenance
        assert paper.short_circuit == ref.short_circuit
        assert paper.short_circuit_reason == ref.short_circuit_reason

        chain = reference_c1p_matrix(profile, notion, chain=True)
        bucket, upto, pairs, stop = c1p._levels(profile, notion)
        words = c1p._packed_rows(bucket, upto, pairs, chain=True)[0]
        assert [int.from_bytes(row, "little") for row in words] == chain.rows
        assert stop == chain.short_circuit_reason

        calls.clear()
        verdict = c1p.recognize(profile, notion)
        if notion == Notion.NECESSARY and axis_check.top_class_refusal(profile):
            assert not calls
            continue
        if stop is not None:
            assert not calls
            k, why = stop
            assert verdict.certificate.vote_index == k
            assert verdict.certificate.reason == why
            continue
        ((got, width),) = calls
        want, want_width = reference_cut_rows(chain.rows, profile.m)
        assert width == want_width
        assert [list(row) for row in got] == want


def test_rank_matrix_builder_matches_reference(monkeypatch):
    calls = _seam_calls(monkeypatch)
    rng = random.Random(14)
    for _ in range(300):
        profile = random_weak_profile(rng.randint(1, 8), rng.randint(1, 5), rng)
        _assert_matches_reference_builder(profile, calls)


@pytest.mark.parametrize(
    "ranks, stops",
    [
        pytest.param([[0]], {}, id="m=1"),
        pytest.param(
            [[0, 0, 0, 0]],
            {Notion.BLACK: (0, "more than one most-preferred candidate")},
            id="all-tied",
        ),
        pytest.param(
            [[0, 0, 1, 2]],
            {Notion.BLACK: (0, "more than one most-preferred candidate")},
            id="two-tie-at-top",
        ),
        pytest.param(
            [[0, 1, 2, 3, 4], [0, 1, 1, 1, 2]],
            {
                notion: (1, "three-way non-top indifference")
                for notion in (Notion.PLATEAUED, Notion.BLACK, Notion.NECESSARY)
            },
            id="three-tie-below-top",
        ),
        pytest.param(
            [[2, 0, 1], [0, 0, 1]],
            {Notion.BLACK: (1, "more than one most-preferred candidate")},
            id="black-top-plateau",
        ),
    ],
)
def test_rank_matrix_builder_edge_cases(monkeypatch, ranks, stops):
    profile = Profile(len(ranks[0]), tuple(map(PreferenceOrder.from_ranks, ranks)))
    for notion in NOTIONS:
        assert c1p._levels(profile, notion)[-1] == stops.get(notion)
    _assert_matches_reference_builder(profile, _seam_calls(monkeypatch))


def _pair_tied_ranks(m, rng, last_pair):
    """Ranks of a vote with a single top candidate and indifference classes
    of at most two below it, the last one a pair when ``last_pair``."""
    sizes = [1]
    while sum(sizes) < m:
        sizes.append(2 if m - sum(sizes) >= 2 and rng.random() < 0.4 else 1)
    if last_pair and sizes[-1] == 1:
        # [..., 2, 1] becomes [..., 1, 2], and [..., 1, 1] becomes [..., 2]
        sizes[-2:] = [1, 2] if sizes[-2] == 2 else [2]
    cands = rng.sample(range(m), m)
    ranks = [0] * m
    for r, size in enumerate(sizes):
        for c in cands[:size]:
            ranks[c] = r
        cands = cands[size:]
    return ranks


@pytest.mark.parametrize("m", [31, 32, 33, 63, 64, 65])
def test_rank_matrix_builder_across_word_boundaries(monkeypatch, m):
    # rows are packed 32 columns to a word, and the cut adds column z = m,
    # which opens a new word at m = 32 and m = 64
    rng = random.Random(m)
    votes = [_pair_tied_ranks(m, rng, last_pair=k == 0) for k in range(6)]
    assert sorted(votes[0]).count(max(votes[0])) == 2
    pair_tied = Profile(m, tuple(map(PreferenceOrder.from_ranks, votes)))
    chain = reference_c1p_matrix(pair_tied, Notion.PSP, chain=True)
    assert reference_cut_rows(chain.rows, m)[1] == m + 1
    calls = _seam_calls(monkeypatch)
    for profile in (
        pair_tied,
        random_sp_profile(m, 6, "plateaued", 0.6, seed=m),
        random_weak_profile(m, 4, rng),
    ):
        _assert_matches_reference_builder(profile, calls)


@pytest.mark.parametrize("mask", [0b10000, 0b1000, -1, -0b110])
def test_solve_c1p_rejects_rows_outside_its_columns(mask):
    # a column at or above m, or a negative mask, is no row of the matrix
    with pytest.raises(ValueError, match="out of range for 3 columns"):
        solve_c1p(C1Matrix(3, rows=[0b011, mask]))
    with pytest.raises(ValueError, match="out of range for 3 columns"):
        solve_c1p(C1Matrix(3, rows=[mask]))


def test_solve_c1p_of_no_columns_is_the_empty_order():
    # as with columns but no rows, where every order is a witness
    assert solve_c1p(C1Matrix(3)) == [0, 1, 2]
    assert solve_c1p(C1Matrix(0)) == []
    assert solve_c1p(C1Matrix(0, rows=[0, 0])) == []
    with pytest.raises(ValueError, match="out of range for 0 columns"):
        solve_c1p(C1Matrix(0, rows=[1]))


def _bench_gen():
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def test_recognize_hands_the_tree_the_reference_rows(monkeypatch):
    # the benchmark's c1p profiles reach the PQ-tree as the reference path's
    # rows, in its order, as bitsets, so the tree reduces the same rows in
    # the same order and a row's len counts its cells
    gen = _bench_gen()
    calls = _seam_calls(monkeypatch)
    for seed in range(3):
        profile = gen.weak_c1p_profile(350, 100, 0.9, seed)
        calls.clear()
        assert recognize_psp_c1p(profile).consistent
        ((rows, width),) = calls
        chain = reference_c1p_matrix(profile, Notion.PSP, chain=True)
        want, want_width = reference_cut_rows(chain.rows, profile.m)
        assert width == want_width
        assert all(isinstance(row, Bitset) for row in rows)
        assert [list(row) for row in rows] == want
        assert list(map(len, rows)) == list(map(len, want))
