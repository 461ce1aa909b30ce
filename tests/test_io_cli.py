import json
import random

import pytest

from conftest import random_local_weak
from peakcheck.cli import applicable_engines, dispatch, main
from peakcheck.errors import ClassError, HardnessError, ParseError, UnknownCandidateError
from peakcheck.gadgets import random_profile, random_sp_profile
from peakcheck.model import (
    Axis,
    Notion,
    OrderClass,
    PreferenceOrder,
    Profile,
    Verdict,
    build_order,
)
from peakcheck.preflib import (
    parse_any,
    parse_preflib,
    parse_preflib_full,
    parse_profile_json,
    write_preflib,
    write_profile_json,
    write_verdict_json,
)

TOC_SAMPLE = """# DATA TYPE: toc
# NUMBER ALTERNATIVES: 4
# ALTERNATIVE NAME 1: Alpha
# ALTERNATIVE NAME 2: Beta
# ALTERNATIVE NAME 3: Gamma
# ALTERNATIVE NAME 4: Delta
3: 1,{2,3},4
"""


def test_parse_toc_line():
    profile, names, meta = parse_preflib_full(TOC_SAMPLE)
    assert names == ["Alpha", "Beta", "Gamma", "Delta"]
    assert profile.m == 4 and profile.n == 1
    assert profile.multiplicities == (3,)
    assert profile.votes[0] == PreferenceOrder.from_ranks([0, 1, 1, 2])
    assert meta["DATA TYPE"] == "toc"


def test_parse_toi_truncation_semantics():
    text = "# NUMBER ALTERNATIVES: 4\n1: 2,1\n"
    profile = parse_preflib(text)
    assert profile.votes[0] == PreferenceOrder.top_order([1, 0], 4)
    assert profile.votes[0].order_class() == OrderClass.TOP


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_preflib("# NUMBER ALTERNATIVES: 2\nnot a ballot\n")
    with pytest.raises(UnknownCandidateError):
        parse_preflib("# NUMBER ALTERNATIVES: 2\n1: 1,5\n")
    with pytest.raises(ParseError):
        parse_preflib("# NUMBER ALTERNATIVES: 2\n1: 1,{2\n")
    with pytest.raises(ParseError):
        parse_preflib("# NUMBER ALTERNATIVES: 2\n1: 1,1\n")
    with pytest.raises(ParseError):
        parse_preflib("# NUMBER ALTERNATIVES: 3\n0: 1,2,3\n")
    with pytest.raises(ParseError):
        parse_preflib("# NUMBER ALTERNATIVES: 3\n")


def test_roundtrip_generated_corpora():
    rng = random.Random(0)
    for seed in range(25):
        prof = random_sp_profile(
            rng.randint(1, 7), rng.randint(1, 6), "psp", 0.5, seed=seed
        )
        again = parse_preflib(write_preflib(prof))
        assert again == prof
    for seed in range(10):
        prof = random_profile(5, 4, OrderClass.TOP, seed)
        assert parse_preflib(write_preflib(prof)) == prof


def test_write_preflib_rejects_partial_orders():
    prof = Profile(4, (build_order([(0, 2), (1, 2)], 4),))
    with pytest.raises(ClassError):
        write_preflib(prof)
    again, _ = parse_profile_json(write_profile_json(prof))
    assert again == prof


def test_parse_any_sniffs_format():
    prof = Profile(3, (PreferenceOrder.from_total([2, 0, 1]),))
    assert parse_any(write_preflib(prof))[0] == prof
    assert parse_any(write_profile_json(prof))[0] == prof


def test_verdict_json_schema():
    verdict = Verdict.yes(
        Axis((1, 0, 2, 3, 4, 5)), notion=Notion.PSP, algorithm="c1p"
    )
    payload = json.loads(
        write_verdict_json(verdict, {"m": 6}, ["a", "b", "c", "d", "e", "f"])
    )
    assert payload["axis"] == ["b", "a", "c", "d", "e", "f"]
    assert payload["verdict"] == "consistent"
    assert payload["schema_version"] == 1
    from peakcheck.model import ValleyWitness, WitnessKind

    verdict = Verdict.no(
        ValleyWitness(WitnessKind.V_VALLEY, 2, (0, 1, 2)),
        notion=Notion.PSP,
        algorithm="axis-check",
    )
    payload = json.loads(write_verdict_json(verdict, names=["a", "b", "c"]))
    assert payload["certificate"] == {
        "kind": "v_valley",
        "vote": 2,
        "candidates": ["a", "b", "c"],
    }


def test_verdict_json_deterministic():
    verdict = Verdict.yes(Axis((0, 1)), algorithm="c1p")
    assert write_verdict_json(verdict) == write_verdict_json(verdict)


def test_dispatch_routing():
    rng = random.Random(1)
    # weak profile with implicit guiding vote routes to guided
    weak = Profile(
        3,
        (
            PreferenceOrder.from_ranks([0, 1, 2]),
            PreferenceOrder.from_ranks([0, 0, 1]),
        ),
    )
    assert dispatch(weak).algorithm == "guided"
    # weak profile without guiding vote routes to c1p
    tied = Profile(2, (PreferenceOrder.empty(2),))
    no_guide = Profile(
        4,
        (
            PreferenceOrder.from_ranks([0, 0, 1, 1]),
            PreferenceOrder.from_ranks([1, 1, 0, 0]),
        ),
    )
    assert dispatch(no_guide).algorithm == "c1p"
    # top orders without guiding vote route to unguided
    top = Profile(
        4,
        (
            PreferenceOrder.top_order([0, 1], 4),
            PreferenceOrder.top_order([1, 2], 4),
        ),
    )
    assert dispatch(top).algorithm == "unguided"
    # local weak with a total vote routes to 2-SAT
    lw = Profile(
        4,
        (
            random_local_weak(4, rng),
            build_order([(0, 2), (1, 2)], 4),
            PreferenceOrder.from_total([0, 1, 2, 3]),
        ),
    )
    assert dispatch(lw).algorithm in ("twosat", "guided")
    # partial orders: oracle within the bound, hardness error beyond
    partial = Profile(
        5,
        (
            build_order([(0, 2), (4, 3)], 5),
            build_order([(1, 0), (2, 0)], 5),
        ),
    )
    assert dispatch(partial).algorithm == "oracle"
    big = Profile(50, (build_order([(0, 2), (4, 3)], 50),))
    with pytest.raises(HardnessError):
        dispatch(big)


def test_dispatch_given_axis():
    prof = Profile(3, (PreferenceOrder.from_total([0, 1, 2]),))
    res = dispatch(prof, given_axis=Axis((0, 1, 2)))
    assert res.consistent and res.algorithm == "axis-check"


def test_dispatch_plateau_notions():
    prof = Profile(3, (PreferenceOrder.from_ranks([0, 0, 1]),))
    assert dispatch(prof, notion="plateaued").consistent
    assert dispatch(prof, notion="necessary").consistent
    assert not dispatch(prof, notion="black").consistent
    with pytest.raises(ClassError):
        dispatch(prof, notion="plateaued", algorithm="guided")


def test_applicable_engines_agree():
    rng = random.Random(2)
    for _ in range(120):
        m = rng.randint(1, 5)
        prof = Profile(
            m, tuple(random_local_weak(m, rng) for _ in range(rng.randint(1, 4)))
        )
        engines = applicable_engines(prof)
        assert engines, "oracle always applies at this size"
        bits = {name: runner(prof).consistent for name, runner in engines}
        assert len(set(bits.values())) == 1, bits


def test_cli_end_to_end(tmp_path, capsys):
    sp = random_sp_profile(6, 5, "psp", 0.4, seed=11)
    good = tmp_path / "good.toc"
    good.write_text(write_preflib(sp))
    rc = main(["recognize", str(good), "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload["verdict"] == "consistent"
    assert payload["m"] == 6

    # every candidate ranked last somewhere: no axis avoids a valley
    bad = tmp_path / "bad.toc"
    bad.write_text("# NUMBER ALTERNATIVES: 3\n1: 1,2,3\n1: 2,3,1\n1: 3,1,2\n")
    rc = main(["recognize", str(bad)])
    capsys.readouterr()
    assert rc == 1

    rc = main(["recognize", str(good), "--cross-validate"])
    capsys.readouterr()
    assert rc == 0

    rc = main(["recognize", str(tmp_path / "missing.toc")])
    err = capsys.readouterr()
    assert rc == 2

    axis_file = tmp_path / "axis.txt"
    axis_file.write_text("1 2 3 4 5 6\n")
    rc = main(["recognize", str(good), "--axis", str(axis_file)])
    capsys.readouterr()
    assert rc in (0, 1)


def test_cli_seed_corpus(capsys):
    rc = main(["recognize", "--seed-corpus", "4,3,weak,5,3"])
    out = capsys.readouterr().out
    assert rc in (0, 1)
    assert out.count("seed-corpus[") == 3


def test_cli_generate_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "corpus.toc"
    rc = main(
        [
            "generate",
            str(out_file),
            "--kind",
            "sp",
            "--m",
            "5",
            "--n",
            "4",
            "--seed",
            "9",
            "--incompleteness",
            "0.5",
        ]
    )
    capsys.readouterr()
    assert rc == 0
    prof = parse_preflib(out_file.read_text())
    assert prof.m == 5 and prof.n == 4
    rc = main(["recognize", str(out_file)])
    capsys.readouterr()
    assert rc == 0  # generated single-peaked corpus is consistent


@pytest.mark.parametrize("axis_text", ["1 2\n", "1 2 2\n", "1 2 3 1\n"])
def test_cli_axis_file_must_order_every_candidate_once(tmp_path, capsys, axis_text):
    # too short, a repeat in place of a candidate, and a repeat on top of all
    election = tmp_path / "three.soc"
    election.write_text("# NUMBER ALTERNATIVES: 3\n1: 1,2,3\n")
    axis_file = tmp_path / "axis.txt"
    axis_file.write_text(axis_text)
    rc = main(["recognize", str(election), "--axis", str(axis_file)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "payload",
    [
        {"m": 3, "votes": []},
        {"votes": [{"pairs": [[0, 1]]}]},
        {"m": 3, "votes": [{"pairs": [[0, "x"]]}]},
        {"m": 3, "votes": [{"pairs": [[0, 1.5]]}]},
        {"m": 3, "votes": [{"multiplicity": 1}]},
        {"m": 3, "votes": [{"pairs": [[0, 3]]}]},
        {"m": 3, "votes": [{"pairs": [[0, 1]], "multiplicity": 0}]},
        {"m": 2, "names": ["a"], "votes": [{"pairs": [[0, 1]]}]},
        {"m": "3", "votes": [{"pairs": []}]},
    ],
)
def test_cli_malformed_json_profile_is_an_error(tmp_path, capsys, payload):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ParseError):
        parse_profile_json(path.read_text())
    rc = main(["recognize", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
