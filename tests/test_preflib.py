"""The vectorised PrefLib ballot scan against the character-at-a-time
reference, plus fuzzing of ``parse_any`` and ``cli.main``."""

import contextlib
import io
import json
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from conftest import reference_parse_preflib
from peakcheck import preflib
from peakcheck.cli import main
from peakcheck.errors import ParseError
from peakcheck.gadgets import random_sp_profile
from peakcheck.model import Profile
from peakcheck.preflib import (
    parse_any,
    parse_preflib,
    parse_preflib_full,
    write_preflib,
)


def _outcome(parse, text):
    """What a parser makes of ``text``: the profile, names and metadata, or
    the exception class and line."""
    try:
        profile, names, metadata = parse(text)
    except ParseError as exc:
        return type(exc), exc.line
    return (
        profile.m,
        [vote.ranks for vote in profile.votes],
        profile.multiplicities,
        names,
        metadata,
    )


# ballot tails: arbitrary strings over the ranking alphabet, and well-formed
# rankings of small ids with a sprinkling of spaces
_RAW_TAIL = st.text("0123456789,{} \t", max_size=16)
_ID = st.integers(0, 11).map(str)
_GROUP = st.lists(_ID, max_size=3).map(lambda ids: "{" + ",".join(ids) + "}")
_RANKING = st.builds(
    lambda tokens, sep: sep.join(tokens),
    st.lists(st.one_of(_ID, _GROUP), max_size=6),
    st.sampled_from([",", ", ", " ,", ",\t"]),
)
# a well-formed ranking with a stray brace, digit or space at its end
_SPOILT = st.builds(
    lambda tail, end: tail + end, _RANKING, st.text("{}1 ", min_size=1, max_size=2)
)
_HEAD = st.sampled_from(["1", "2", " 3 ", "10", "0", "-1", "x", ""])
_BALLOT = st.builds(
    lambda head, tail: f"{head}:{tail}", _HEAD, st.one_of(_RAW_TAIL, _RANKING, _SPOILT)
)
_LINE = st.one_of(
    _BALLOT,
    _BALLOT,
    _BALLOT,
    st.sampled_from(["no colon", "# ALTERNATIVE NAME 2: Beta", "# TITLE: t", ""]),
)


@given(st.one_of(st.none(), st.integers(1, 9)), st.lists(_LINE, max_size=6))
@example(None, ["1: 1,{2", "1: 3"])
@example(3, ["1: {1,{2}}"])
@example(3, ["1: 1}"])
@example(3, ["1: 1 2"])
@settings(max_examples=400, deadline=None)
def test_scan_matches_reference_parser(declared, lines):
    if declared is not None:
        lines = [f"# NUMBER ALTERNATIVES: {declared}"] + lines
    text = "\n".join(lines) + "\n"
    # without a declared count the largest id sets m; keep it small
    assume(declared is not None or not re.search(r"\d{4}", text))
    assert _outcome(parse_preflib_full, text) == _outcome(reference_parse_preflib, text)


@pytest.mark.parametrize("notion", ["psp", "plateaued", "black", "necessary"])
@pytest.mark.parametrize("m, n", [(1000, 100), (100, 100)])
def test_scan_matches_reference_on_written_profiles(monkeypatch, notion, m, n):
    text = write_preflib(random_sp_profile(m, n, notion, 0.5, seed=m + n))
    expected = _outcome(reference_parse_preflib, text)
    assert _outcome(parse_preflib_full, text) == expected
    # chunks of a few ballots each, and a ballot longer than the budget
    monkeypatch.setattr(preflib, "_CHUNK_BYTES", 700)
    assert _outcome(parse_preflib_full, text) == expected


def test_huge_candidate_id_is_a_parse_error(tmp_path, capsys):
    # with no NUMBER ALTERNATIVES line the largest id sets m; 10**12
    # candidates cannot be held, and the allocation fails at once
    path = tmp_path / "huge.soi"
    path.write_text("1: 1000000000000\n")
    assert main(["recognize", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "m=1000000000000" in err


def test_huge_candidate_count_in_json_is_a_parse_error(tmp_path, capsys):
    # a JSON vote's rows need one int per candidate; 10**12 of them cannot
    # be held, and the allocation fails at once
    path = tmp_path / "huge.json"
    path.write_text('{"m": 1000000000000, "votes": [{"pairs": []}]}')
    assert main(["recognize", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "m=1000000000000" in err


@pytest.mark.parametrize(
    "text",
    [
        "# NUMBER ALTERNATIVES: 3\n1: +3\n",  # spellings int() accepted
        "# NUMBER ALTERNATIVES: 20\n1: 1_0\n",
        "# NUMBER ALTERNATIVES: 3\n1: ٣\n",
        "# NUMBER ALTERNATIVES: 3\n1: 1,\xa02\n",
        "# NUMBER ALTERNATIVES: 3\n1: 1 2\n",
        "# NUMBER ALTERNATIVES: 3\n1: 1, " + "9" * 5000 + "\n",
        "# NUMBER ALTERNATIVES: " + "9" * 5000 + "\n1: 1\n",
        "# NUMBER ALTERNATIVES: 2\n1_0: 1,2\n",  # multiplicities and header
        "# NUMBER ALTERNATIVES: 2\n+3: 1,2\n",  # numbers are ASCII digits too
        "# NUMBER ALTERNATIVES: 2\n٣: 1,2\n",
        "# NUMBER ALTERNATIVES: ٣\n1: 1,2\n",
        "# NUMBER ALTERNATIVES: 3\n# ALTERNATIVE NAME ٣: c\n1: 1,2\n",
        '{"m": 3, "votes": [{"pairs": [[0, 1], [1, 0]]}]}',
        '{"m": [' + "[" * 100_000 + "]" * 100_000 + "]}",
    ],
)
def test_malformed_input_is_a_parse_error(text):
    with pytest.raises(ParseError):
        parse_any(text)


@pytest.mark.parametrize(
    "line",
    [
        "1_0: 1,2",
        "+3: 1,2",
        "٣: 1,2",
        "# NUMBER ALTERNATIVES: ٣",
        "# ALTERNATIVE NAME ٣: c",
        "# ALTERNATIVE NAME x: c",
        "# NUMBER ALTERNATIVES: 3 or 4",
    ],
)
def test_number_that_is_not_ascii_digits_fails_on_its_line(line):
    # a count or name line with such a number is not read as metadata either
    text = f"# NUMBER ALTERNATIVES: 3\n1: 1,2\n{line}\n1: 2,1\n"
    with pytest.raises(ParseError) as caught:
        parse_preflib_full(text)
    assert caught.value.line == 3


# every line boundary of str.splitlines, and "\r\n", which is one
_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# whitespace that str.strip and the header patterns take, but a ranking
# holds only between its ASCII tokens
_WIDE = st.sampled_from(["", " ", "\t", "\xa0", "\u3000"])
_WIDE_BALLOT = st.builds(
    lambda a, head, b, c, tail, d: f"{a}{head}{b}:{c}{tail}{d}",
    _WIDE,
    _HEAD,
    _WIDE,
    _WIDE,
    st.one_of(
        _RANKING,
        _SPOILT,
        st.builds(lambda tail, space: tail.replace(",", "," + space, 1), _RANKING, _WIDE),
    ),
    _WIDE,
)
_WIDE_HEADER = st.one_of(
    st.builds(
        lambda a, b, c, k: f"#{a}NUMBER{b}ALTERNATIVES{c}:{a}{k}{b}",
        _WIDE, _WIDE, _WIDE, st.integers(0, 9),
    ),
    st.builds(
        lambda a, b, k, name: f"{a}#{a}ALTERNATIVE NAME{b}{k}{a}:{b}{name}",
        _WIDE, _WIDE, st.integers(1, 9), st.sampled_from(["Zoë", "b c", "", "x:y"]),
    ),
    st.builds(lambda a, b: f"#{a}TITLE{b}:{a}t{b}", _WIDE, _WIDE),
)


@given(st.lists(st.tuples(st.one_of(_WIDE_BALLOT, _WIDE_HEADER, _LINE), st.sampled_from(_BREAKS))))
@example([("# NUMBER ALTERNATIVES: 3", brk) for brk in _BREAKS] + [("1: 1,2", "\n")])
@example([("1: 1", brk) for brk in _BREAKS] + [("1: 1,\xa02", "\n")])
@example([("1:\u30003,\t1\xa0", "\r"), ("", "\n"), ("\xa02\u3000: 2", "\x85")])
@settings(max_examples=300, deadline=None)
def test_scan_matches_reference_across_line_breaks_and_wide_spaces(lines):
    text = "".join(line + brk for line, brk in lines)
    assume(not re.search(r"\d{4}", text))
    assert _outcome(parse_preflib_full, text) == _outcome(reference_parse_preflib, text)


@pytest.mark.parametrize("notion", ["psp", "black"])
def test_parsing_transient_memory_is_a_few_times_the_text(notion):
    # peak less retained memory while parsing an m=1000 file of 100 ballots:
    # each ballot chunk goes to its rows of the rank matrix, so the scan's
    # temporaries stay near one chunk's worth
    text = write_preflib(random_sp_profile(1000, 100, notion, 0.5, seed=1100))
    tracemalloc.start()
    try:
        parsed = parse_preflib_full(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed[0].m == 1000
    assert peak - retained < 4 * len(text)


def test_cli_undecodable_file_is_an_error(tmp_path, capsys):
    path = tmp_path / "binary.soc"
    path.write_bytes(b"1: 1,2\n\xff\xfe\n")
    assert main(["recognize", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


# fuzz inputs: arbitrary text, PrefLib-like lines and JSON-like payloads.
# Candidate ids and counts stay below 1000 (a huge id has its own test).
_JSON_VALUE = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 9), st.text(max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(
            st.sampled_from(["m", "votes", "pairs", "multiplicity", "names"]),
            inner,
            max_size=4,
        ),
    ),
    max_leaves=12,
)
_PREFLIB_LIKE = st.lists(
    st.one_of(
        _LINE,
        st.integers(0, 12).map(lambda k: f"# NUMBER ALTERNATIVES: {k}"),
        st.text(max_size=10),
    ),
    max_size=8,
).map("\n".join)
_ANY_TEXT = st.one_of(
    st.text(max_size=60),
    _PREFLIB_LIKE,
    _JSON_VALUE.map(json.dumps),
    st.builds(
        lambda m, votes: json.dumps({"m": m, "votes": votes}),
        st.integers(0, 6),
        st.lists(
            st.fixed_dictionaries(
                {"pairs": st.lists(st.lists(st.integers(-1, 6), min_size=2, max_size=2))}
            ),
            max_size=3,
        ),
    ),
)


def _small_ids(text):
    return not re.search(r"\d{4}", text)


@given(_ANY_TEXT)
@settings(max_examples=400, deadline=None)
def test_fuzz_parse_any_returns_profile_or_parse_error(text):
    assume(_small_ids(text))
    try:
        profile, names = parse_any(text)
    except ParseError:
        return
    assert len(names) == profile.m


@given(_ANY_TEXT)
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_fuzz_cli_exit_codes(text):
    assume(_small_ids(text))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["recognize", path])
    assert rc in (0, 1, 2)
    if rc == 2:
        assert err.getvalue().startswith("error:")


def test_parser_hands_over_its_rank_matrix():
    profile = random_sp_profile(300, 20, "psp", 0.5, seed=3)
    parsed = parse_any(write_preflib(profile))[0]
    ranks = parsed.__dict__["_rank_matrix"]  # set by the parser, not rebuilt
    assert parsed.rank_matrix() is ranks
    assert ranks.dtype == np.int32 and not ranks.flags.writeable
    assert ranks.tolist() == [list(v.ranks) for v in parsed.votes]
    assert parsed == profile


@st.composite
def _preflib_texts(draw):
    """A well-formed file of one PrefLib kind: strict or tied buckets, each
    ballot listing every candidate or only its first ones."""
    kind = draw(st.sampled_from(["soc", "soi", "toc", "toi"]))
    m = draw(st.integers(1, 9))
    lines = [f"# DATA TYPE: {kind}", f"# NUMBER ALTERNATIVES: {m}"]
    for _ in range(draw(st.integers(1, 5))):
        order = draw(st.permutations(range(1, m + 1)))
        listed = draw(st.integers(1, m)) if kind.endswith("i") else m
        cuts = [0, listed]
        if kind.startswith("t"):
            cuts += draw(st.lists(st.integers(1, listed), max_size=listed))
        cuts = sorted(set(cuts))
        buckets = [order[a:b] for a, b in zip(cuts, cuts[1:])]
        tokens = [
            str(b[0]) if len(b) == 1 else "{" + ",".join(map(str, b)) + "}"
            for b in buckets
        ]
        lines.append(f"{draw(st.integers(1, 3))}: {','.join(tokens)}")
    return "\n".join(lines) + "\n"


@given(_preflib_texts())
@settings(max_examples=300, deadline=None)
def test_parsed_profile_equals_its_renumbered_rank_matrix(text):
    parsed = parse_preflib(text)
    rebuilt = Profile.from_rank_matrix(parsed.rank_matrix(), parsed.multiplicities)
    assert parsed.votes == rebuilt.votes
    assert parsed.rank_matrix().dtype == rebuilt.rank_matrix().dtype == np.int32
    assert np.array_equal(parsed.rank_matrix(), rebuilt.rank_matrix())
    assert parsed._vote_classes().tolist() == rebuilt._vote_classes().tolist()
    assert parsed.order_class() == rebuilt.order_class()
