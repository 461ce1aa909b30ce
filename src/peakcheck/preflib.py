"""PrefLib election-format parsing and writing, plus machine-readable output.

Handles the PrefLib order formats (soc/soi/toc/toi): ``#``-prefixed metadata
lines (``NUMBER ALTERNATIVES``, ``ALTERNATIVE NAME i``), then one ballot per
line as ``multiplicity: ranking`` with ``{...}`` for tied groups.  A ranking
holds ASCII decimal candidate numbers separated by commas, with ASCII
whitespace allowed between tokens.  Candidates are 1-based in files and mapped
to dense 0-based ids in file order.

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

import numpy as np

from .errors import (
    ClassError,
    CycleError,
    ParseError,
    PeakcheckError,
    UnknownCandidateError,
)
from .model import (
    OrderClass,
    PreferenceOrder,
    Profile,
    Refusal,
    ValleyWitness,
)

_NAME_LINE = re.compile(r"#\s*ALTERNATIVE\s+NAME\s+(\d+)\s*:\s*(.*)\s*$", re.I)
_COUNT_LINE = re.compile(r"#\s*NUMBER\s+ALTERNATIVES\s*:\s*(\d+)\s*$", re.I)
_META_LINE = re.compile(r"#\s*([A-Z ]+?)\s*:\s*(.*)\s*$")


def parse_preflib_full(text):
    """(Profile, candidate names, metadata dict) from PrefLib text.

    The header and each ballot's multiplicity are read line by line; the
    rankings are scanned with numpy, ``_CHUNK_BYTES`` of ballot text at a
    time.  Errors keep the order of a line-by-line reader: the first malformed
    line in the file is reported, and unknown or repeated candidates only
    once every line is well formed.
    """
    names = {}
    metadata = {}
    declared_m = None
    linenos, mults, tails = [], [], []
    failure = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            match = _NAME_LINE.match(line)
            if match:
                names[_header_int(match.group(1), lineno)] = match.group(2)
                continue
            match = _COUNT_LINE.match(line)
            if match:
                declared_m = _header_int(match.group(1), lineno)
                continue
            match = _META_LINE.match(line)
            if match:
                metadata[match.group(1).strip().upper()] = match.group(2)
            continue
        if ":" not in line:
            failure = ParseError("expected 'count: ranking'", line=lineno)
            break
        head, _, tail = line.partition(":")
        try:
            mult = int(head.strip())
        except ValueError:
            failure = ParseError(f"invalid multiplicity {head.strip()!r}", line=lineno)
            break
        if mult <= 0:
            failure = ParseError("multiplicity must be positive", line=lineno)
            break
        linenos.append(lineno)
        mults.append(mult)
        tails.append(tail.strip())
    # rankings above a malformed line are checked before it is reported
    values, lines, levels, groups, exact = _scan_ballots(tails, linenos)
    if failure is not None:
        raise failure
    if declared_m is None:
        top = max(exact.values()) if exact else int(values.max(initial=0))
        declared_m = max(top, max(names, default=0))
    m = declared_m
    if m == 0:
        raise ParseError("no alternatives declared or referenced")
    if not tails:
        raise ParseError("no ballots in file")
    n = len(tails)
    try:
        ranks = np.empty((n, m), np.int32)
        listed = np.zeros((n, m), bool)
    except (MemoryError, ValueError):
        raise ParseError(
            f"m={m} candidates: a {n} x {m} rank matrix does not fit in memory"
        ) from None
    outside = (values < 1) | (values > m)
    if not outside.any():
        listed[lines, values - 1] = True
    if outside.any() or np.count_nonzero(listed) < len(values):
        _raise_first_bad_cell(outside, values, lines, exact, m, linenos)
    del listed
    # every bucket holds a candidate, so the levels are dense ranks already;
    # candidates a ballot leaves out share the level after its last bucket
    ranks[:] = groups[:, None]
    ranks[lines, values - 1] = levels
    profile = Profile._from_dense_ranks(ranks, mults)
    name_list = [names.get(i, str(i)) for i in range(1, m + 1)]
    return profile, name_list, metadata


def parse_preflib(text):
    """Profile from PrefLib text (names and metadata discarded)."""
    return parse_preflib_full(text)[0]


def _header_int(digits, lineno):
    try:
        return int(digits)
    except ValueError:  # beyond the interpreter's integer-string limit
        raise ParseError(f"a number of {len(digits)} digits is too long", line=lineno) from None


# Ballot text is scanned at most this many bytes at a time (a longer ballot
# is scanned alone), which bounds the scan's temporaries.
_CHUNK_BYTES = 1 << 16

# the bytes a ranking holds besides whitespace: digits and separators
_TOKENS = b"0123456789,{}\n"
# the ASCII whitespace that can occur inside a line
_SPACES = b" \t\x1f"

# digit runs up to _DIGITS long are read exactly in int64; longer ones are
# converted one by one and stored as at most _HUGE, above any allocatable m
_DIGITS = 18
_POW10 = 10 ** np.arange(_DIGITS, dtype=np.int64)
_HUGE = 2**62


def _scan_ballots(tails, linenos):
    """Candidate cells of all ballots, scanned ``_CHUNK_BYTES`` at a time.

    Returns per cell (in file order) its candidate id, its ballot's index and
    its bucket level within the ballot; per ballot its number of buckets; and
    the exact ids of cells stored as ``_HUGE``, by cell index.  Raises
    ``ParseError`` for the first ballot with a syntax error.
    """
    parts = []
    exact = {}
    cells = 0
    start = 0
    while start < len(tails):
        stop, size = start + 1, len(tails[start]) + 1
        while stop < len(tails) and size + len(tails[stop]) < _CHUNK_BYTES:
            size += len(tails[stop]) + 1
            stop += 1
        values, lines, levels, groups, huge = _scan_chunk(
            tails[start:stop], linenos[start:stop]
        )
        exact.update((cells + cell, value) for cell, value in huge.items())
        cells += len(values)
        parts.append((values, lines + start, levels, groups))
        start = stop
    if not parts:
        empty = np.zeros(0, np.int64)
        return empty, empty, empty, empty, exact
    return (*(np.concatenate(column) for column in zip(*parts)), exact)


def _scan_chunk(tails, linenos):
    """One numpy pass over consecutive ballot tails (see ``_scan_ballots``)."""
    raw = ("\n".join(tails) + "\n").encode("ascii", "replace")
    buf = np.frombuffer(raw, np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    braces = np.flatnonzero((buf == ord("{")) | (buf == ord("}")))
    opening = buf[braces] == ord("{")
    # brace depth after each brace; it is 0 at the start of every ballot up
    # to the first malformed one, and only that one is reported
    depth = np.cumsum(np.where(opening, 1, -1))
    digit = (buf - ord("0")) < 10  # bytes below "0" wrap around
    stops = np.flatnonzero(digit[:-1] > digit[1:]) + 1  # ends of digit runs

    errors = []  # (byte position, message): the first error of each kind
    rest = raw.translate(None, _TOKENS)
    invalid = rest.translate(None, _SPACES)
    if invalid:
        token = np.isin(buf, np.frombuffer(_TOKENS + _SPACES, np.uint8))
        errors.append((int(np.argmin(token)), None))
    if len(rest) > len(invalid):  # whitespace: look for a number split by it
        spaces = np.flatnonzero(np.isin(buf, np.frombuffer(_SPACES, np.uint8)))
        gap = np.flatnonzero(np.diff(spaces) != 1)
        first, last = spaces[np.r_[0, gap + 1]], spaces[np.r_[gap, len(spaces) - 1]]
        split = last[digit[first - 1] & digit[last + 1]] + 1  # digit[-1] is "\n"
        if len(split):
            errors.append((int(split[0]), "invalid candidate: a number split by whitespace"))
    wrong = np.flatnonzero((depth < 0) | (depth > 1))
    if len(wrong):
        message = "nested '{'" if opening[wrong[0]] else "unmatched '}'"
        errors.append((int(braces[wrong[0]]), message))
    unclosed = ends[np.r_[0, depth][braces.searchsorted(ends)] != 0]
    if len(unclosed):
        errors.append((int(unclosed[0]), "unterminated '{'"))

    # candidate ids: the digits from the right, one decimal place at a time
    values = (buf[stops - 1] - ord("0")).astype(np.int64)
    more = np.ones(len(stops), bool)  # runs with a digit at this place
    for place in range(1, _DIGITS + 1):
        more &= digit[stops - 1 - place]  # index -1 is "\n" and ends every run
        if place == _DIGITS or not more.any():
            break
        values[more] += (buf[stops[more] - 1 - place] - ord("0")) * _POW10[place]
    huge = {}
    for cell in np.flatnonzero(more).tolist():  # runs of more than _DIGITS
        stop = int(stops[cell])
        begin = len(raw[:stop].rstrip(b"0123456789"))
        try:
            huge[cell] = int(raw[begin:stop])
        except ValueError:  # beyond the interpreter's integer-string limit
            errors.append((begin, "invalid candidate: too many digits"))
        values[cell] = min(huge.get(cell, 0), _HUGE)

    if errors:
        at, message = min(errors, key=lambda error: error[0])
        index = int(ends.searchsorted(at))
        column = at - raw.rfind(b"\n", 0, at)
        if message is None:  # name the character as written, not as encoded
            message = f"invalid character {tails[index][column - 1]!r}"
        raise ParseError(
            message, line=linenos[index], column=None if at in ends else column
        )

    # a cell opens a bucket unless the last brace before it is a "{" that
    # also precedes the cell before it; levels count buckets per ballot
    cells_per_line = np.diff(stops.searchsorted(ends, "right"), prepend=0)
    line = np.repeat(np.arange(len(tails)), cells_per_line)
    after_brace = braces.searchsorted(stops)
    opens_bucket = ~np.r_[False, opening][after_brace]
    opens_bucket[:1] = True
    opens_bucket[1:] |= after_brace[1:] != after_brace[:-1]
    bucket = np.cumsum(opens_bucket.view(np.int8), dtype=np.int32)
    groups = np.diff(np.r_[0, bucket][np.cumsum(cells_per_line)], prepend=0)
    levels = bucket - 1 - (np.cumsum(groups) - groups)[line]
    huge = {cell: value for cell, value in huge.items() if value > _HUGE}
    return values, line, levels, groups, huge


def _raise_first_bad_cell(outside, values, lines, exact, m, linenos):
    """Raise for the first cell, in file order, that is outside 1..m or names
    a candidate already listed in its ballot."""
    order = np.lexsort((np.arange(len(values)), values, lines))
    again = np.zeros(len(values), bool)
    again[order[1:]] = (values[order[1:]] == values[order[:-1]]) & (
        lines[order[1:]] == lines[order[:-1]]
    )
    cell = int(np.argmax(outside | again))
    candidate = exact.get(cell, int(values[cell]))
    lineno = linenos[int(lines[cell])]
    if outside[cell]:
        raise UnknownCandidateError(f"candidate {candidate} outside 1..{m}", line=lineno)
    raise ParseError(f"candidate {candidate} listed twice", line=lineno)


def _names(names, m):
    """``names`` as a list; a PeakcheckError unless it lists ``m`` strings,
    which is what the parsers read back."""
    names = list(names)
    if len(names) != m or not all(isinstance(name, str) for name in names):
        raise PeakcheckError(f"names must list {m} strings, one per candidate")
    return names


def write_preflib(profile, names=None, comments=()):
    """Canonical PrefLib text for a profile of weak-or-tighter orders.

    ``names``, if given, lists one string per candidate.  A name or comment
    holding a line break would end its header line early, so it is refused
    with a PeakcheckError."""
    if profile.order_class() > OrderClass.WEAK:
        raise ClassError(
            "only weak-or-tighter orders have a PrefLib representation; "
            "use write_profile_json for looser classes"
        )
    m = profile.m
    names = _names(names, m) if names is not None else [str(i) for i in range(1, m + 1)]
    for text in (*names, *map(str, comments)):
        if "".join(text.splitlines()) != text:
            raise PeakcheckError(f"a PrefLib name or comment holds a line break: {text!r}")
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
    """JSON serialisation by strict pairs (covers every order class).
    ``names``, if given, lists one string per candidate."""
    payload = {
        "schema": "peakcheck-profile-v1",
        "m": profile.m,
        "names": _names(names, profile.m) if names is not None else None,
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
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
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
        pairs = entry["pairs"]
        # one pass; type() is int refuses booleans, and from_pairs the rest
        for pair in pairs:
            if type(pair) is not list or len(pair) != 2:
                raise ParseError(f"vote {k}: a pair must list two candidates, not {pair!r}")
            if type(pair[0]) is not int or type(pair[1]) is not int:
                for c in pair:
                    _json_int(c, f"vote {k}: a candidate")
        mult = _json_int(entry.get("multiplicity", 1), f"vote {k}: the multiplicity")
        if mult < 1:
            raise ParseError(f"vote {k}: the multiplicity must be positive, not {mult}")
        try:  # from_pairs refuses candidates out of range and a > a
            votes.append(PreferenceOrder.from_pairs(pairs, m))
        except (ValueError, CycleError) as exc:
            raise ParseError(f"vote {k}: {exc}") from None
        except MemoryError:
            raise ParseError(f"m={m} candidates: vote {k} does not fit in memory") from None
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


def candidate_name(c, names):
    """The name of candidate ``c``, or its 1-based number if it has none."""
    return names[c] if c < len(names) else str(c + 1)


def certificate_record(certificate, names):
    """A certificate as a plain record with candidate names: a witness's kind,
    vote and candidates, or a refusal's reason, vote and detail."""
    if isinstance(certificate, ValleyWitness):
        return {
            "kind": certificate.kind.value,
            "vote": certificate.vote_index,
            "candidates": [candidate_name(c, names) for c in certificate.candidates],
        }
    if isinstance(certificate, Refusal):
        return {
            "kind": "refusal",
            "reason": certificate.reason,
            "vote": certificate.vote_index,
            "detail": certificate.detail,
        }
    return None


def write_verdict_json(verdict, stats=None, names=None):
    """Versioned machine-readable verdict record."""
    stats = stats or {}
    names = names or []
    payload = {
        "schema_version": 1,
        "notion": verdict.notion.value,
        "algorithm": verdict.algorithm,
        "verdict": "consistent" if verdict.consistent else "not_consistent",
        "axis": [candidate_name(c, names) for c in verdict.axis] if verdict.axis else None,
        "certificate": certificate_record(verdict.certificate, names),
    }
    payload.update(stats)
    return json.dumps(payload, indent=2) + "\n"
