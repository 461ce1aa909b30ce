import argparse
import gc
import json
import os
import random
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from conftest import random_local_weak
import peakcheck
from peakcheck import c1p, cli, oracle, preflib
from peakcheck.axis_check import check_on_axis
from peakcheck.cli import ALGORITHMS, applicable_engines, dispatch, main
from peakcheck.errors import (
    ClassError,
    HardnessError,
    ParseError,
    PeakcheckError,
    UnknownCandidateError,
)
from peakcheck.guided import find_implicit_guiding_vote
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
from peakcheck.oracle import oracle_recognize
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


def test_writers_refuse_names_their_parsers_would_not_read_back():
    prof = Profile(3, (PreferenceOrder.from_total([2, 0, 1]),))
    for names in (["a", "b"], ["a", "b", "c", "d"], ["a", "b", 3], []):
        with pytest.raises(PeakcheckError, match="names must list 3 strings"):
            write_profile_json(prof, names=names)
        with pytest.raises(PeakcheckError, match="names must list 3 strings"):
            write_preflib(prof, names=names)
    # a line break would end the header line early
    for names, comments in (
        (["a", "b\nc", "d"], ()),
        (["a\r", "b", "c"], ()),
        (["a", "b", "c"], ["one\ntwo"]),
    ):
        with pytest.raises(PeakcheckError, match="line break"):
            write_preflib(prof, names=names, comments=comments)
    # m names without line breaks come back as they were written
    names = ["alpha", "b c", "\u00fc"]
    assert parse_profile_json(write_profile_json(prof, names)) == (prof, names)
    assert parse_preflib_full(write_preflib(prof, names, ["a comment"]))[:2] == (prof, names)


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


def test_dispatch_unknown_algorithm_is_a_peakcheck_error():
    prof = Profile(3, (PreferenceOrder.from_total([0, 1, 2]),))
    with pytest.raises(PeakcheckError, match="^unknown algorithm 'bogus'$") as info:
        dispatch(prof, algorithm="bogus")
    assert type(info.value) is PeakcheckError


def test_unknown_notion_is_a_peakcheck_error():
    prof = Profile(3, (PreferenceOrder.from_total([0, 1, 2]),))
    entry_points = (
        lambda notion: dispatch(prof, notion=notion),
        lambda notion: applicable_engines(prof, notion),
        lambda notion: c1p.recognize(prof, notion),
        lambda notion: check_on_axis(prof, Axis((0, 1, 2)), notion),
        lambda notion: oracle_recognize(prof, notion),
    )
    for call in entry_points:
        with pytest.raises(PeakcheckError, match="^unknown notion 'bogus'$") as info:
            call("bogus")
        assert type(info.value) is PeakcheckError


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


@pytest.mark.parametrize(
    "text",
    [
        None,  # a consistent weak-order profile
        "# NUMBER ALTERNATIVES: 3\n1: 1,2,3\n1: 2,3,1\n1: 3,1,2\n",
    ],
)
def test_python_m_peakcheck_matches_main(tmp_path, capsys, text):
    # ``python -m peakcheck`` runs the package's __main__, with no warning
    # about ``peakcheck.cli`` being imported twice, and answers as ``main``
    path = tmp_path / "profile.toc"
    path.write_text(text or write_preflib(random_sp_profile(8, 6, "psp", 0.5, seed=3)))
    rc = main(["recognize", str(path), "--json"])
    expected = json.loads(capsys.readouterr().out)
    src = os.path.dirname(os.path.dirname(peakcheck.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "peakcheck",
         "recognize", str(path), "--json"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert run.stderr == ""
    assert run.returncode == rc == (0 if text is None else 1)
    got = json.loads(run.stdout)
    for payload in (got, expected):
        del payload["wall_time_ms"]
    assert got == expected


def test_cli_reads_utf8_whatever_the_locale(tmp_path):
    # under the C locale with UTF-8 mode off, open() would default to ASCII
    path = tmp_path / "names.toc"
    path.write_text(
        "# NUMBER ALTERNATIVES: 2\n# ALTERNATIVE NAME 1: Zoë\n1: 1,2\n", encoding="utf-8"
    )
    src = os.path.dirname(os.path.dirname(peakcheck.__file__))
    env = dict(
        os.environ, PYTHONPATH=src, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0"
    )
    run = subprocess.run(
        [sys.executable, "-m", "peakcheck", "recognize", str(path), "--json"],
        capture_output=True, env=env, check=False,
    )
    assert run.returncode == 0, run.stderr
    assert sorted(json.loads(run.stdout)["axis"]) == ["2", "Zoë"]


def test_import_does_not_load_numpy_random():
    # numpy.random costs megabytes of resident memory, and numpy 2 loads it
    # only on first use; peakcheck draws nothing random from numpy
    src = os.path.dirname(os.path.dirname(peakcheck.__file__))
    probe = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import peakcheck, peakcheck.cli\n"
        "print(sorted(m for m in set(sys.modules) - before"
        " if m.split('.')[:2] == ['numpy', 'random']))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), check=False,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_readme_python_blocks_run(tmp_path):
    # the README's library examples, each in a fresh interpreter on the
    # source tree
    root = Path(__file__).resolve().parents[1]
    blocks = re.findall(r"^```python\n(.*?)^```$", (root / "README.md").read_text(), re.M | re.S)
    assert blocks
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for block in blocks:
        run = subprocess.run(
            [sys.executable, "-c", block],
            capture_output=True, text=True, env=env, cwd=tmp_path, check=False,
        )
        assert run.returncode == 0, run.stderr


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


def test_cli_json_records_name_their_source(tmp_path, capsys):
    # one pretty-printed record per input, in order, each naming its input
    def sources():
        records = json.loads("[" + capsys.readouterr().out.replace("}\n{", "},{") + "]")
        assert {record["schema_version"] for record in records} == {1}
        return [record["source"] for record in records]

    paths = [tmp_path / "b.toc", tmp_path / "a.toc"]
    for seed, path in enumerate(paths):
        path.write_text(write_preflib(random_sp_profile(6, 4, "psp", 0.5, seed=seed)))
    assert main(["recognize", *map(str, paths), "--json"]) == 0
    assert sources() == list(map(str, paths))
    main(["recognize", "--seed-corpus", "5,3,weak,1,2", "--json"])
    assert sources() == ["seed-corpus[0]", "seed-corpus[1]"]


def _weak_with_total(m, n, seed):
    weak = random_sp_profile(m, n, "psp", 0.6, seed=seed)
    total = random_sp_profile(m, 1, "psp", 0.0, seed=seed).votes[0]
    return Profile(m, weak.votes[:-1] + (total,))


@pytest.mark.parametrize(
    "suffix, profile, engine",
    [("toc", random_sp_profile(30, 12, "psp", 0.8, seed=4), "c1p"),
     ("toc", _weak_with_total(30, 12, 5), "guided"),
     ("toi", random_sp_profile(30, 12, "psp", 1.0, seed=6), "unguided")],
    ids=["c1p", "guided", "unguided"],
)
def test_recognize_json_builds_no_votes_for_the_parsed_profile(
    tmp_path, capsys, monkeypatch, suffix, profile, engine
):
    # engines and the verifier read the parsed profile's rank matrix; a
    # vote they need (the guiding one) is built alone
    built, parsed = [], []
    build, parse = peakcheck.model._Votes.build, preflib.parse_any
    monkeypatch.setattr(
        peakcheck.model._Votes, "build", staticmethod(lambda p: built.append(p) or build(p))
    )
    monkeypatch.setattr(preflib, "parse_any", lambda text: parsed.append(parse(text)) or parsed[-1])
    path = tmp_path / f"profile.{suffix}"
    path.write_text(write_preflib(profile))
    assert main(["recognize", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["algorithm"] == engine
    (parsed_profile, _), = parsed
    assert not any(p is parsed_profile for p in built)
    assert parsed_profile == profile  # reads the votes, through the spy
    assert built[-1] is parsed_profile


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


@pytest.mark.parametrize(
    "axis_text",
    [
        "1 2\n",
        "1 2 2\n",
        "1 2 3 1\n",
        pytest.param("1 2 \u00b2\n", id="superscript-two"),
        pytest.param("1 2 " + "3" * 5000 + "\n", id="5000-digits"),
    ],
)
def test_cli_axis_file_must_order_every_candidate_once(tmp_path, capsys, axis_text):
    # too short, a repeat in place of a candidate, a repeat on top of all, a
    # non-ASCII digit, and a number beyond the interpreter's digit limit
    election = tmp_path / "three.soc"
    election.write_text("# NUMBER ALTERNATIVES: 3\n1: 1,2,3\n")
    axis_file = tmp_path / "axis.txt"
    axis_file.write_text(axis_text)
    rc = main(["recognize", str(election), "--axis", str(axis_file)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "ballot, notion, line",
    [
        ("1,2,3", "psp", "certificate: v_valley in vote 0: a, c, b  ("),
        (
            "{1,2,3}",
            "necessary",
            "certificate: refusal in vote 0: top indifference class larger than two  (",
        ),
    ],
)
def test_cli_text_certificate_names_its_candidates(tmp_path, capsys, ballot, notion, line):
    # the text line reads the certificate record --json writes, with names
    election = tmp_path / "named.toc"
    names = "".join(f"# ALTERNATIVE NAME {i}: {c}\n" for i, c in enumerate("abc", 1))
    election.write_text(f"# NUMBER ALTERNATIVES: 3\n{names}1: {ballot}\n")
    axis_file = tmp_path / "axis.txt"
    axis_file.write_text("a c b\n")
    rc = main(["recognize", str(election), "--axis", str(axis_file), "--notion", notion])
    assert rc == 1
    assert line in capsys.readouterr().out


@pytest.mark.parametrize(
    "payload",
    [
        {"m": 3, "votes": []},
        {"votes": [{"pairs": [[0, 1]]}]},
        {"m": 3, "votes": [{"pairs": [[0, "x"]]}]},
        {"m": 3, "votes": [{"pairs": [[0, 1.5]]}]},
        {"m": 3, "votes": [{"multiplicity": 1}]},
        {"m": 3, "votes": [{"pairs": [[0, 3]]}]},
        {"m": 3, "votes": [{"pairs": [[-1, 0]]}]},
        {"m": 3, "votes": [{"pairs": [[True, 1]]}]},
        {"m": 3, "votes": [{"pairs": [[0, 1, 2]]}]},
        {"m": 3, "votes": [{"pairs": [[1, 1]]}]},
        {"m": 3, "votes": [{"pairs": [[0, 1]], "multiplicity": 0}]},
        {"m": 2, "names": ["a"], "votes": [{"pairs": [[0, 1]]}]},
        {"m": "3", "votes": [{"pairs": []}]},
        # only an absent or null "names" means no names
        *(
            {"m": 2, "names": names, "votes": [{"pairs": [[0, 1]]}]}
            for names in ([], 0, False, "", {})
        ),
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


def test_cli_text_that_opens_like_json_must_be_json(tmp_path, capsys):
    # text whose first character is "{" is read as a JSON profile
    path = tmp_path / "profile.txt"
    path.write_text("{m: 3, votes: []}\n")
    with pytest.raises(ParseError, match="^invalid JSON: "):
        parse_profile_json(path.read_text())
    assert main(["recognize", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: invalid JSON: ")


def test_cli_recognize_without_input_is_an_error(capsys):
    # main's one handler prints the error; the command only raises it
    assert main(["recognize"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: no input files (or --seed-corpus) given\n")
    args = argparse.Namespace(
        notion="psp", oracle_bound=oracle.DEFAULT_BOUND, seed_corpus=None, files=[]
    )
    with pytest.raises(PeakcheckError, match=r"^no input files \(or --seed-corpus\) given$"):
        cli._cmd_recognize(args)


_T, _R = PreferenceOrder.from_total, PreferenceOrder.from_ranks
_TOTAL = _T([1, 2, 0, 3])
_LOCAL_WEAK = build_order([(0, 1), (0, 2)], 4)  # candidate 3 compares to none
_PARTIAL = build_order([(0, 1), (2, 3)], 4)
_WEAK_PLATEAU = "c1p c1p ClassError ClassError ClassError oracle"
_LOOSE_PLATEAU = "ClassError ClassError ClassError ClassError ClassError ClassError"

# (order class, guiding vote) -> votes over m=4, then dispatch's engine or
# error per algorithm in ALGORITHMS order (auto first), for psp and for each
# of the plateaued, black and necessary notions.  A top-order profile without
# a total vote has no implicit guiding vote: no vote has a single last.
ROUTES = {
    ("total", "explicit"): (
        [_T([0, 1, 2, 3]), _TOTAL],
        "guided c1p guided unguided twosat oracle", _WEAK_PLATEAU,
    ),
    ("top", "explicit"): (
        [_R([0, 1, 2, 2]), _TOTAL],
        "guided c1p guided unguided twosat oracle", _WEAK_PLATEAU,
    ),
    ("top", "none"): (
        [_R([0, 1, 1, 1]), _R([1, 0, 1, 1]), _R([1, 1, 0, 1]), _R([1, 1, 1, 0])],
        "unguided c1p NoTotalOrderError unguided NoTotalOrderError oracle", _WEAK_PLATEAU,
    ),
    ("weak", "explicit"): (
        [_R([0, 0, 1, 2]), _TOTAL],
        "guided c1p guided ClassError twosat oracle", _WEAK_PLATEAU,
    ),
    ("weak", "implicit"): (
        [_R([0, 1, 1, 2]), _R([0, 1, 2, 2])],
        "guided c1p guided ClassError NoTotalOrderError oracle", _WEAK_PLATEAU,
    ),
    ("weak", "none"): (
        [_R([0, 0, 1, 1]), _R([1, 1, 0, 0]), _R([0, 1, 1, 0]), _R([1, 0, 0, 1])],
        "c1p c1p NoTotalOrderError ClassError NoTotalOrderError oracle", _WEAK_PLATEAU,
    ),
    ("local_weak", "explicit"): (
        [_LOCAL_WEAK, _TOTAL],
        "twosat ClassError ClassError ClassError twosat oracle", _LOOSE_PLATEAU,
    ),
    ("local_weak", "none"): (
        [_LOCAL_WEAK],
        "oracle ClassError NoTotalOrderError ClassError NoTotalOrderError oracle",
        _LOOSE_PLATEAU,
    ),
    ("partial", "explicit"): (
        [_PARTIAL, _TOTAL],
        "oracle ClassError ClassError ClassError ClassError oracle", _LOOSE_PLATEAU,
    ),
    ("partial", "none"): (
        [_PARTIAL],
        "oracle ClassError NoTotalOrderError ClassError ClassError oracle", _LOOSE_PLATEAU,
    ),
}


@pytest.mark.parametrize("key", list(ROUTES), ids="-".join)
def test_dispatch_routing_table(key):
    (class_name, guiding), (votes, psp, plateau) = key, ROUTES[key]
    prof = Profile(4, tuple(votes))
    assert prof.order_class() == OrderClass[class_name.upper()]
    assert (prof.first_total_order() is not None) == (guiding == "explicit")
    if guiding != "explicit" and prof.order_class() <= OrderClass.WEAK:
        assert (find_implicit_guiding_vote(prof) is not None) == (guiding == "implicit")
    wrong = []
    for notion in Notion:
        expected = (psp if notion == Notion.PSP else plateau).split()
        for algorithm, want in zip(ALGORITHMS, expected):
            try:
                got = dispatch(prof, notion, algorithm).algorithm
            except PeakcheckError as exc:
                got = type(exc).__name__
            if got != want:
                wrong.append((notion.value, algorithm, got, want))
    assert not wrong


def test_cli_cross_validate_runs_every_applicable_engine(tmp_path, capsys):
    election = tmp_path / "total.soc"
    election.write_text("# NUMBER ALTERNATIVES: 3\n1: 1,2,3\n1: 2,1,3\n")
    rc = main(["recognize", str(election), "--cross-validate"])
    assert rc == 0
    assert "[psp/c1p+guided+unguided+twosat+oracle]" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["recognize", "--seed-corpus", "a,b,weak,1"],
        ["recognize", "--seed-corpus", "3,0,weak,1"],
        ["recognize", "--seed-corpus", "3,2,weak"],
        ["generate", "OUT", "--m", "5", "--n", "3", "--kind", "random", "--class", "bogus"],
        ["generate", "OUT", "--m", "5", "--n", "3", "--incompleteness", "2"],
        ["generate", "OUT", "--m", "0", "--n", "3"],
        ["recognize", "--seed-corpus", "3,2,weak,0,0"],
        ["recognize", "--seed-corpus", "3,2,weak,0,-2"],
        ["recognize", "--oracle-bound", "-1", "--algorithm", "oracle", "--seed-corpus", "5,2,weak,1"],
    ],
)
def test_cli_malformed_arguments_are_errors(tmp_path, capsys, argv):
    out = tmp_path / "x.toc"
    rc = main([str(out) if a == "OUT" else a for a in argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
    assert "no input files" not in err  # every case gives an input
    assert not out.exists()


def test_cli_seed_corpus_count_below_one_is_an_error(tmp_path, capsys):
    # with a file beside it, the corpus of no profiles was dropped unannounced
    path = tmp_path / "one.soc"
    path.write_text("# NUMBER ALTERNATIVES: 3\n1: 1,2,3\n")
    rc = main(["recognize", "--seed-corpus", "3,2,weak,0,0", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: --seed-corpus count must be at least 1 (got 0)\n"
    assert captured.out == ""


def test_cli_negative_oracle_bound_is_an_error(tmp_path, capsys):
    # it was taken, and the oracle then refused m=5 as above the bound -1
    path = tmp_path / "five.toc"
    path.write_text(write_preflib(random_sp_profile(5, 3, "psp", 0.5, seed=1)))
    rc = main(["recognize", "--oracle-bound", "-1", "--algorithm", "oracle", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: --oracle-bound must be at least 0 (got -1)\n"
    assert captured.out == ""
    # a bound of 0 still means that the oracle never applies
    for bound, applies in (("0", False), ("5", True)):
        assert main(["recognize", "--oracle-bound", bound, "--cross-validate", str(path)]) == 0
        engines = re.search(r"\[psp/([a-z0-9+]+)\]", capsys.readouterr().out).group(1)
        assert ("oracle" in engines.split("+")) == applies


def test_cli_class_names_are_shared(tmp_path, capsys):
    # generate --class takes the PrefLib names that --seed-corpus takes
    out = tmp_path / "x.toc"
    rc = main(["generate", str(out), "--m", "4", "--n", "2", "--kind", "random", "--class", "toc"])
    capsys.readouterr()
    assert rc == 0
    assert parse_preflib(out.read_text()).order_class() <= OrderClass.WEAK
    rc = main(["recognize", "--seed-corpus", "4,2,LocalWeak,3"])
    assert rc in (0, 1)
    assert "seed-corpus[0]" in capsys.readouterr().out


@pytest.mark.parametrize("notion", ["psp", "plateaued", "black", "necessary"])
def test_cli_generate_single_candidate(tmp_path, capsys, notion):
    out = tmp_path / "one.toc"
    argv = ["generate", str(out), "--m", "1", "--n", "2", "--notion", notion]
    assert main(argv) == 0
    capsys.readouterr()
    assert parse_preflib(out.read_text()).m == 1


def test_cli_oracle_bound_above_the_maximum_is_an_error(tmp_path, capsys, monkeypatch):
    # 15!/2 axes would never finish: refused before any enumeration
    from peakcheck import oracle

    def enumerate_axes(m):
        raise AssertionError(f"axes enumerated for m={m}")

    monkeypatch.setattr(oracle, "_axes_and_positions", enumerate_axes)
    path = tmp_path / "partial.json"
    path.write_text(write_profile_json(Profile(15, (build_order([(0, 1), (2, 3)], 15),))))
    rc = main(["recognize", "--oracle-bound", "20", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "--oracle-bound" in err


def test_cli_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    # an exception outside PeakcheckError and OSError, such as a generated
    # size that does not fit in memory, exits 2 and never 1 ("not consistent")
    from peakcheck import gadgets

    def out_of_memory(*args):
        raise MemoryError("cannot allocate the profile")

    monkeypatch.setattr(gadgets, "random_profile", out_of_memory)
    rc = main(["recognize", "--seed-corpus", "4,3,weak,5"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: internal error: MemoryError: cannot allocate the profile\n"
    assert captured.out == ""


def test_applicable_engines_for_plateau_notions():
    weak = Profile(
        4, (PreferenceOrder.from_ranks([0, 1, 1, 2]), PreferenceOrder.from_ranks([1, 0, 2, 2]))
    )
    for notion in ("plateaued", "black", "necessary"):
        assert [name for name, _ in applicable_engines(weak, notion)] == ["c1p", "oracle"]
    # the necessary notion's oracle stops at m=6; the others keep it
    wide = Profile(7, (PreferenceOrder.from_ranks([0, 1, 1, 2, 3, 4, 5]),))
    assert [name for name, _ in applicable_engines(wide, "necessary")] == ["c1p"]
    assert [name for name, _ in applicable_engines(wide, "plateaued")] == ["c1p", "oracle"]
    # a local weak order is outside both c1p and the plateau oracle
    local = Profile(4, (build_order([(0, 2), (1, 2)], 4),))
    assert local.order_class() == OrderClass.LOCAL_WEAK
    assert applicable_engines(local, "plateaued") == []
    assert [name for name, _ in applicable_engines(local)] == ["oracle"]


def test_cli_cross_validate_reports_disagreement_and_no_engine(tmp_path, capsys, monkeypatch):
    from peakcheck import oracle
    from peakcheck.model import Refusal

    election = tmp_path / "total.soc"
    election.write_text("# NUMBER ALTERNATIVES: 3\n1: 1,2,3\n1: 2,1,3\n")
    with monkeypatch.context() as patch:
        patch.setattr(
            oracle,
            "oracle_recognize",
            lambda *args: Verdict.no(Refusal("planted"), algorithm="oracle"),
        )
        rc = main(["recognize", str(election), "--cross-validate"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: engines disagree: c1p=True, ") and "oracle=False" in err

    local = tmp_path / "local.json"
    local.write_text(write_profile_json(Profile(4, (build_order([(0, 2), (1, 2)], 4),))))
    rc = main(["recognize", str(local), "--cross-validate", "--notion", "plateaued"])
    assert rc == 2
    assert capsys.readouterr().err == "error: no engine applies to this profile\n"


def test_cli_axis_file_names_candidates_by_number(tmp_path, capsys):
    # with candidate names in the header, a number is the candidate's place
    election = tmp_path / "named.toc"
    election.write_text(TOC_SAMPLE)
    outputs = []
    for axis_text in ("1 2 3 4\n", "Alpha, 2, Gamma, 4\n", "Alpha Beta Gamma Delta\n"):
        axis_file = tmp_path / "axis.txt"
        axis_file.write_text(axis_text)
        rc = main(["recognize", str(election), "--axis", str(axis_file), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        del payload["wall_time_ms"]
        outputs.append(payload)
    assert outputs[0]["axis"] == ["Alpha", "Beta", "Gamma", "Delta"]
    assert outputs[0] == outputs[1] == outputs[2]


def test_cli_generate_partial_writes_json_that_recognize_reads(tmp_path, capsys):
    out = tmp_path / "partial.json"
    argv = ["generate", str(out), "--m", "6", "--n", "4", "--kind", "random",
            "--class", "partial", "--seed", "2"]
    assert main(argv) == 0
    capsys.readouterr()
    generated = random_profile(6, 4, OrderClass.PARTIAL, 2)
    assert generated.order_class() > OrderClass.WEAK  # so no PrefLib file can hold it
    text = out.read_text()
    json.loads(text)
    assert parse_any(text)[0] == generated
    rc = main(["recognize", str(out)])
    assert rc == (0 if dispatch(generated).consistent else 1)
    assert capsys.readouterr().out.startswith(f"{out}: ")


def test_cli_failing_input_ends_the_call_after_the_verdicts_before_it(
    tmp_path, capsys, monkeypatch
):
    # inputs are decided and printed in order: a file that does not parse
    # ends the call after the verdict of the file before it, its error names
    # it, and the file after it is never decided
    good, bad, good2 = (tmp_path / name for name in ("good.soc", "bad.soc", "good2.soc"))
    good.write_text("# NUMBER ALTERNATIVES: 3\n1: 1,2,3\n")
    bad.write_text("# NUMBER ALTERNATIVES: 3\n1: 1,x\n")
    good2.write_text("# NUMBER ALTERNATIVES: 3\n1: 2,1,3\n")
    assert main(["recognize", str(good)]) == 0
    alone = capsys.readouterr().out
    decided = []
    run_one = cli._run_one
    monkeypatch.setattr(cli, "_run_one", lambda *a: decided.append(a[0].m) or run_one(*a))
    rc = main(["recognize", str(good), str(bad), str(good2)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert decided == [3]
    assert re.sub(r"\(\d+\.\d ms\)", "", out) == re.sub(r"\(\d+\.\d ms\)", "", alone)
    assert out.count("\n") == 1
    assert err == f"error: invalid character 'x' (line 2, column 3) in {bad}\n"


def test_cli_decode_error_names_its_file_once(tmp_path, capsys):
    path = tmp_path / "binary.soc"
    path.write_bytes(b"1: 1,2\n\xff\xfe\n")
    assert main(["recognize", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} is not text") and err.count(str(path)) == 1


def test_cli_holds_one_input_profile_at_a_time(tmp_path, capsys, monkeypatch):
    # the seed corpus first, then each file in order; every input's profile
    # is dead by the time the next input is read
    from peakcheck import gadgets

    refs, alive = [], []

    def spy(load):
        def reading(*args):
            gc.collect()
            alive.append(sum(ref() is not None for ref in refs))
            result = load(*args)
            refs.append(weakref.ref(result[0] if isinstance(result, tuple) else result))
            return result
        return reading

    monkeypatch.setattr(preflib, "parse_any", spy(preflib.parse_any))
    monkeypatch.setattr(gadgets, "random_profile", spy(gadgets.random_profile))
    paths = []
    for seed in range(3):
        paths.append(tmp_path / f"sp{seed}.toc")
        paths[-1].write_text(write_preflib(random_sp_profile(8, 5, "psp", 0.4, seed=seed)))
    rc = main(["recognize", "--seed-corpus", "5,4,weak,7,2", *map(str, paths)])
    out = capsys.readouterr().out
    assert rc in (0, 1)
    assert alive == [0] * 5
    sources = [line.split(": ", 1)[0] for line in out.splitlines()]
    assert sources == ["seed-corpus[0]", "seed-corpus[1]", *map(str, paths)]
