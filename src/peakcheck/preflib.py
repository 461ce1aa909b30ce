"""PrefLib election-format parsing and writing, plus machine-readable output.

Handles the PrefLib order formats (soc/soi/toc/toi): ``#``-prefixed metadata
lines (``NUMBER ALTERNATIVES``, ``ALTERNATIVE NAME i``), then one ballot per
line as ``multiplicity: ranking`` with ``{...}`` for tied groups.  Candidates
are 1-based in files and mapped to dense 0-based ids in file order.

Candidates missing from a ballot are read as unranked: jointly last and
mutually incomparable (top-order semantics for truncated ballots).  Writing
is canonical-complete: every bucket is listed, bottom buckets included, so a
parse/write round trip reproduces the profile exactly.

Profiles of local weak or partial orders have no PrefLib representation; for
those a JSON format (``write_profile_json``) serialises the strict pairs.
"""

from __future__ import annotations

import json
import re

from .errors import ClassError, ParseError, UnknownCandidateError
from .model import (
    OrderClass,
    PreferenceOrder,
    Profile,
    Refusal,
    ValleyWitness,
    Verdict,
)

_NAME_LINE = re.compile(r"#\s*ALTERNATIVE\s+NAME\s+(\d+)\s*:\s*(.*)\s*$", re.I)
_COUNT_LINE = re.compile(r"#\s*NUMBER\s+ALTERNATIVES\s*:\s*(\d+)\s*$", re.I)
_META_LINE = re.compile(r"#\s*([A-Z ]+?)\s*:\s*(.*)\s*$")


def parse_preflib_full(text):
    """(Profile, candidate names, metadata dict) from PrefLib text."""
    names = {}
    metadata = {}
    declared_m = None
    ballots = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            match = _NAME_LINE.match(line)
            if match:
                names[int(match.group(1))] = match.group(2)
                continue
            match = _COUNT_LINE.match(line)
            if match:
                declared_m = int(match.group(1))
                continue
            match = _META_LINE.match(line)
            if match:
                metadata[match.group(1).strip().upper()] = match.group(2)
            continue
        if ":" not in line:
            raise ParseError("expected 'count: ranking'", line=lineno)
        head, _, tail = line.partition(":")
        try:
            mult = int(head.strip())
        except ValueError:
            raise ParseError(f"invalid multiplicity {head.strip()!r}", line=lineno)
        if mult <= 0:
            raise ParseError("multiplicity must be positive", line=lineno)
        ballots.append((lineno, mult, _parse_ranking(tail, lineno)))
    if declared_m is None:
        seen = {c for _, _, groups in ballots for g in groups for c in g}
        seen |= set(names)
        declared_m = max(seen, default=0)
    m = declared_m
    if m == 0:
        raise ParseError("no alternatives declared or referenced")
    if not ballots:
        raise ParseError("no ballots in file")
    votes = []
    mults = []
    for lineno, mult, groups in ballots:
        ranks = [None] * m
        level = 0
        for group in groups:
            for c in group:
                if not 1 <= c <= m:
                    raise UnknownCandidateError(
                        f"candidate {c} outside 1..{m}", line=lineno
                    )
                if ranks[c - 1] is not None:
                    raise ParseError(f"candidate {c} listed twice", line=lineno)
                ranks[c - 1] = level
            level += 1
        for c in range(m):
            if ranks[c] is None:
                ranks[c] = level  # unranked: jointly last
        votes.append(PreferenceOrder.from_ranks(ranks))
        mults.append(mult)
    profile = Profile(m, tuple(votes), tuple(mults))
    name_list = [names.get(i, str(i)) for i in range(1, m + 1)]
    return profile, name_list, metadata


def parse_preflib(text):
    """Profile from PrefLib text (names and metadata discarded)."""
    return parse_preflib_full(text)[0]


def _parse_ranking(text, lineno):
    groups = []
    i = 0
    token = ""
    in_group = None

    def flush_single():
        nonlocal token
        tok = token.strip()
        token = ""
        if not tok:
            return
        try:
            groups.append([int(tok)])
        except ValueError:
            raise ParseError(f"invalid candidate {tok!r}", line=lineno, column=i)

    while i < len(text):
        ch = text[i]
        if ch == "{":
            if in_group is not None:
                raise ParseError("nested '{'", line=lineno, column=i + 1)
            flush_single()
            in_group = []
        elif ch == "}":
            if in_group is None:
                raise ParseError("unmatched '}'", line=lineno, column=i + 1)
            tok = token.strip()
            token = ""
            if tok:
                try:
                    in_group.append(int(tok))
                except ValueError:
                    raise ParseError(
                        f"invalid candidate {tok!r}", line=lineno, column=i
                    )
            if in_group:
                groups.append(in_group)
            in_group = None
        elif ch == ",":
            if in_group is not None:
                tok = token.strip()
                token = ""
                if tok:
                    try:
                        in_group.append(int(tok))
                    except ValueError:
                        raise ParseError(
                            f"invalid candidate {tok!r}", line=lineno, column=i
                        )
            else:
                flush_single()
        else:
            token += ch
        i += 1
    if in_group is not None:
        raise ParseError("unterminated '{'", line=lineno)
    flush_single()
    return groups


def write_preflib(profile, names=None, comments=()):
    """Canonical PrefLib text for a profile of weak-or-tighter orders."""
    if profile.order_class() > OrderClass.WEAK:
        raise ClassError(
            "only weak-or-tighter orders have a PrefLib representation; "
            "use write_profile_json for looser classes"
        )
    m = profile.m
    names = list(names) if names is not None else [str(i) for i in range(1, m + 1)]
    data_type = "soc" if all(v.is_total() for v in profile.votes) else "toc"
    lines = [f"# DATA TYPE: {data_type}"]
    lines += [f"# {c}" for c in comments]
    lines.append(f"# NUMBER ALTERNATIVES: {m}")
    lines.append(f"# NUMBER VOTERS: {profile.total_voters}")
    lines.append(f"# NUMBER UNIQUE ORDERS: {profile.n}")
    for i, name in enumerate(names, start=1):
        lines.append(f"# ALTERNATIVE NAME {i}: {name}")
    for vote, mult in zip(profile.votes, profile.multiplicities):
        parts = []
        for bucket in vote.buckets():
            ids = sorted(c + 1 for c in bucket)
            if len(ids) == 1:
                parts.append(str(ids[0]))
            else:
                parts.append("{" + ",".join(map(str, ids)) + "}")
        lines.append(f"{mult}: {','.join(parts)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------


def write_profile_json(profile, names=None):
    """JSON serialisation by strict pairs (covers every order class)."""
    payload = {
        "schema": "peakcheck-profile-v1",
        "m": profile.m,
        "names": list(names) if names else None,
        "votes": [
            {
                "pairs": sorted(map(list, vote.pairs())),
                "multiplicity": mult,
            }
            for vote, mult in zip(profile.votes, profile.multiplicities)
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _json_int(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, not {value!r}")
    return value


def parse_profile_json(text):
    """(Profile, candidate names) from the ``write_profile_json`` format."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict) or "m" not in payload:
        raise ParseError('a JSON profile must be an object with an "m" field')
    m = _json_int(payload["m"], '"m"')
    if m < 1:
        raise ParseError(f'"m" must be positive, not {m}')
    entries = payload.get("votes")
    if not isinstance(entries, list) or not entries:
        raise ParseError('"votes" must be a non-empty list')
    votes = []
    mults = []
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("pairs"), list):
            raise ParseError(f'vote {k} must be an object with a "pairs" list')
        pairs = []
        for pair in entry["pairs"]:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError(f"vote {k}: a pair must list two candidates, not {pair!r}")
            a, b = (_json_int(c, f"vote {k}: a candidate") for c in pair)
            if not (0 <= a < m and 0 <= b < m):
                raise ParseError(f"vote {k}: pair {pair} names a candidate outside 0..{m - 1}")
            pairs.append((a, b))
        mult = _json_int(entry.get("multiplicity", 1), f"vote {k}: the multiplicity")
        if mult < 1:
            raise ParseError(f"vote {k}: the multiplicity must be positive, not {mult}")
        votes.append(PreferenceOrder.from_pairs(pairs, m))
        mults.append(mult)
    names = payload.get("names") or [str(i) for i in range(1, m + 1)]
    if not isinstance(names, list) or len(names) != m or not all(
        isinstance(name, str) for name in names
    ):
        raise ParseError(f'"names" must list {m} strings')
    return Profile(m, tuple(votes), tuple(mults)), names


def parse_any(text):
    """Sniff JSON vs PrefLib; returns (profile, names)."""
    if text.lstrip().startswith("{"):
        return parse_profile_json(text)
    profile, names, _ = parse_preflib_full(text)
    return profile, names


def write_verdict_json(verdict, stats=None, names=None):
    """Versioned machine-readable verdict record."""
    stats = stats or {}
    names = names or []

    def name_of(c):
        return names[c] if c < len(names) else str(c + 1)

    certificate = None
    if verdict.certificate is not None:
        cert = verdict.certificate
        if isinstance(cert, ValleyWitness):
            certificate = {
                "kind": cert.kind.value,
                "vote": cert.vote_index,
                "candidates": [name_of(c) for c in cert.candidates],
            }
        elif isinstance(cert, Refusal):
            certificate = {
                "kind": "refusal",
                "reason": cert.reason,
                "vote": cert.vote_index,
                "detail": cert.detail,
            }
    payload = {
        "schema_version": 1,
        "notion": verdict.notion.value,
        "algorithm": verdict.algorithm,
        "verdict": "consistent" if verdict.consistent else "not_consistent",
        "axis": [name_of(c) for c in verdict.axis] if verdict.axis else None,
        "certificate": certificate,
    }
    payload.update(stats)
    return json.dumps(payload, indent=2) + "\n"
