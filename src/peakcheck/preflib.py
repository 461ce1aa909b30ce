"""PrefLib election-format parsing and writing, plus machine-readable output.

Handles the PrefLib order formats (soc/soi/toc/toi): ``#``-prefixed metadata
lines (``NUMBER ALTERNATIVES``, ``ALTERNATIVE NAME i``), then one ballot per
line as ``multiplicity: ranking`` with ``{...}`` for tied groups.  Lines are
those of ``str.splitlines``.  Multiplicities, candidate numbers and the numbers
of the two header lines are ASCII decimal digits; a ranking holds candidate
numbers separated by commas, with ASCII whitespace allowed between tokens.
Candidates are 1-based in files and mapped to dense 0-based ids in file order.

The header lines and each ballot's multiplicity are read line by line.  The
rankings are read ``_CHUNK_BYTES`` of ballot text at a time, each chunk in
one pass of numpy calls from its bytes to its rows of the rank matrix: the
last digit of every number, every brace and every line end are found in one
sorted list; the numbers are read four digits at a time from their last
digit; and a number's bucket follows from the separator before it.

Candidates missing from a ballot are read as unranked: jointly last and
mutually incomparable (top-order semantics for truncated ballots).  Writing
is canonical-complete: every bucket is listed, bottom buckets included, so a
parse/write round trip reproduces the profile exactly.

Profiles of local weak or partial orders have no PrefLib representation; for
those a JSON format (``write_profile_json``) serialises the strict pairs.
"""

from __future__ import annotations

import contextlib
import itertools
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

_NAME_LINE = re.compile(r"#\s*ALTERNATIVE\s+NAME\s+([^\s:]+)\s*:\s*(.*)\s*$", re.I)
_COUNT_LINE = re.compile(r"#\s*NUMBER\s+ALTERNATIVES\s*:\s*(.*)\s*$", re.I)
_META_LINE = re.compile(r"#\s*([A-Z ]+?)\s*:\s*(.*)\s*$")


def parse_preflib_full(text):
    """(Profile, candidate names, metadata dict) from PrefLib text.

    The header lines and each ballot's multiplicity are read line by line,
    then the rankings chunk by chunk (see the module docstring); a chunk is
    written straight into its rows of the rank matrix when the file has a
    ``NUMBER ALTERNATIVES`` line, and kept until the largest candidate sets m
    when it has none.  Errors keep the order of a line-by-line reader: the
    first malformed line in the file is reported, with its line and, inside a
    ranking, its column there; unknown or repeated candidates only once every
    line is well formed.
    """
    names = {}
    metadata = {}
    m = None
    ballots = []  # (line number, line, index of its colon)
    mults = []
    failure = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            if line.startswith("#"):
                match = _NAME_LINE.match(line)
                if match:
                    number, name = match.groups()
                    names[_ascii_int(number, "candidate number", lineno)] = name
                elif match := _COUNT_LINE.match(line):
                    m = _ascii_int(match.group(1), "number of alternatives", lineno)
                elif match := _META_LINE.match(line):
                    metadata[match.group(1).strip().upper()] = match.group(2)
                continue
            colon = line.find(":")
            if colon < 0:
                raise ParseError("expected 'count: ranking'", line=lineno)
            mult = _ascii_int(line[:colon].strip(), "multiplicity", lineno)
            if mult == 0:
                raise ParseError("multiplicity must be positive", line=lineno)
        except ParseError as exc:
            failure = exc
            break
        ballots.append((lineno, line, colon))
        mults.append(mult)
    n = len(ballots)
    ranks = None
    if m is not None:
        with contextlib.suppress(ParseError):  # raised again below, in order
            ranks = _rank_matrix(n, m)
    pending = []  # chunks scanned before there is a matrix to hold them
    bad = None  # the first unknown or repeated candidate
    # rankings above a malformed line are checked before it is reported
    for row, cells in _scan_ballots(ballots):
        if ranks is None:
            pending.append((row, cells))
        elif bad is None:
            bad = _fill(ranks, row, cells, ballots)
        del cells  # before the next chunk is scanned
    if failure is not None:
        raise failure
    if m is None:
        top = max((_largest(cells) for _, cells in pending), default=0)
        m = max(top, max(names, default=0))
    if m == 0:
        raise ParseError("no alternatives declared or referenced")
    if not n:
        raise ParseError("no ballots in file")
    if ranks is None:
        ranks = _rank_matrix(n, m)
        for row, cells in pending:
            bad = bad or _fill(ranks, row, cells, ballots)
    if bad is not None:
        raise bad
    del ballots, pending  # the ballot text, before the profile is built
    profile = Profile._from_dense_ranks(ranks, mults)
    name_list = [names.get(i, str(i)) for i in range(1, m + 1)]
    return profile, name_list, metadata


def parse_preflib(text):
    """Profile from PrefLib text (names and metadata discarded)."""
    return parse_preflib_full(text)[0]


def _ascii_int(digits, what, lineno):
    """``digits`` as an int; a ParseError unless they are ASCII decimal digits
    (``int`` would also take ``+3``, ``1_0`` and other scripts' digits)."""
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"invalid {what} {digits!r}", line=lineno)
    try:
        return int(digits)
    except ValueError:  # beyond the interpreter's integer-string limit
        raise ParseError(f"a number of {len(digits)} digits is too long", line=lineno) from None


def _rank_matrix(n, m):
    try:
        return np.empty((n, m), np.int32)
    except (MemoryError, ValueError):
        raise ParseError(
            f"m={m} candidates: a {n} x {m} rank matrix does not fit in memory"
        ) from None


# Ballot text is scanned at most this many bytes at a time (a longer ballot
# is scanned alone), which bounds the scan's temporaries.
_CHUNK_BYTES = 1 << 16

# the bytes a ranking holds besides whitespace: digits and separators
_TOKENS = b"0123456789,{}\n"
# the ASCII whitespace that can occur inside a line
_SPACES = b" \t\x1f"

# digit runs up to _DIGITS long are read exactly in int64; longer ones are
# converted one by one and stored as at most _HUGE, above any allocatable m
_DIGITS = 16
_HUGE = 2**62
_LEAD = "\n" * (_DIGITS - 1)


def _scan_ballots(ballots):
    """``(first row, cells)`` per chunk of consecutive ballots, in file order
    (see ``_scan_chunk``).  Raises ``ParseError`` for the first ballot with a
    syntax error."""
    start = 0
    while start < len(ballots):
        stop, size = start + 1, _tail_bytes(ballots[start])
        while stop < len(ballots) and size + _tail_bytes(ballots[stop]) < _CHUNK_BYTES:
            size += _tail_bytes(ballots[stop])
            stop += 1
        yield start, _scan_chunk(ballots[start:stop])
        start = stop


def _tail_bytes(ballot):
    _, line, colon = ballot
    return len(line) - colon


def _scan_chunk(ballots):
    """The cells of consecutive ballots, in one pass of numpy calls.

    Returns per cell, in file order, its candidate id and its bucket, the
    buckets numbered from 1 across the chunk; per ballot i, in ``bounds[i]``
    and ``totals[i]``, the cells and the buckets before it, one entry more
    for the end; and the exact ids of cells stored as ``_HUGE``, by cell.
    Raises ``ParseError`` for the first ballot with a syntax error.
    """
    tails = [line[colon + 1 :].strip() for _, line, colon in ballots]
    # the tails start at byte _DIGITS, after line ends only, so that reading
    # up to _DIGITS bytes before a digit stays in the chunk
    raw = "\n".join([_LEAD, *tails, ""]).encode("ascii", "replace")
    ends = np.fromiter(  # the "\n" after each tail
        itertools.accumulate((len(tail) + 1 for tail in tails), initial=len(_LEAD)),
        np.intp,
        len(tails) + 1,
    )[1:]
    buf = np.frombuffer(raw, np.uint8)
    digits = buf - ord("0")  # bytes below "0" wrap around
    digit = digits < 10
    # the structure in one sorted list: the last digit of every run, and
    # every byte above "z" (braces) or a line end
    marks = (buf > ord("z")) | (buf == ord("\n"))
    marks[:-1] |= digit[:-1] > digit[1:]
    events = np.flatnonzero(marks)
    kinds = buf[events]
    is_cell = (kinds - ord("0")) < 10
    at_cell = np.flatnonzero(is_cell)
    separators = kinds[np.flatnonzero(~is_cell)]
    last = events[at_cell]
    # each array takes up to 8 bytes per chunk byte: it goes once read, so
    # that few are alive at a time
    del marks, events, kinds, is_cell

    # a well-formed chunk holds digits, commas, and separators that are
    # "{}" pairs and line ends; whitespace or an error is located apart
    opening = separators == ord("{")
    commas = np.count_nonzero(buf == ord(","))
    well_formed = (
        np.count_nonzero(digit) + commas + len(separators) == len(buf)
        and 2 * np.count_nonzero(opening) + _DIGITS + len(tails) == len(separators)
        and np.array_equal(opening[:-1], separators[1:] == ord("}"))
    )
    if not well_formed:
        _raise_first_error(raw, buf, digit, ends, tails, ballots)

    # with braces in pairs, a cell lies in a "{...}" when the separator
    # before it is a "{", and continues the bucket of the cell before it when
    # no separator lies between them
    before = at_cell  # the index of the separator before each cell
    before -= np.arange(1, len(last) + 1)
    inner = opening[before]
    inner[1:] &= before[1:] == before[:-1]
    inner[:1] = False
    buckets = np.zeros(len(last) + 1, np.int32)
    np.cumsum(np.logical_not(inner, out=inner), dtype=np.int32, out=buckets[1:])
    del at_cell, before, inner

    # candidate ids, four digits at a time from the right: where byte i + 3
    # is a digit, quads[i] is the number that bytes i to i + 3 spell in its
    # run (0 for a byte that is not a digit, and for every byte before one)
    digits *= digit
    pairs = digits[:-1] * 10 + digits[1:]
    del digits
    runs = digit[:-1] & digit[1:]
    quads = np.multiply(pairs[:-2] * runs[1:-1], 100, dtype=np.uint16)
    quads += pairs[2:]
    fours = runs[:-2] & runs[2:]
    del pairs, runs
    values = quads[last - 3].astype(np.int64)
    span = fours  # span[i]: bytes i to i + place - 1 are digits
    exact = {}
    for place in range(4, _DIGITS + 1, 4):
        longer = span[:-1] & digit[place:]  # a run of more than `place` digits
        if not longer.any():
            break
        if place == _DIGITS:
            exact, error = _exact_ids(raw, last, np.flatnonzero(longer[last - place]))
            if error:
                raise _error_at(raw, ends, tails, ballots, *error)
            break
        # the quad before a run's last `place` digits, where they all are
        upper = quads[: len(span) - 3] * span[3:]
        values += upper[last - 3 - place].astype(np.int64) * 10**place
        span = span[:-4] & fours[place:]
    for cell, value in exact.items():
        values[cell] = min(value, _HUGE)

    bounds = np.zeros(len(tails) + 1, np.intp)
    bounds[1:] = last.searchsorted(ends)
    totals = buckets[bounds]
    exact = {cell: value for cell, value in exact.items() if value > _HUGE}
    return values, buckets[1:], bounds, totals, exact


def _exact_ids(raw, last, cells):
    """The ids of the digit runs ending at ``last[cells]``, by cell, and the
    (byte position, message) of the first run too long to read, or None."""
    exact = {}
    for cell in cells.tolist():
        stop = int(last[cell]) + 1
        begin = len(raw[:stop].rstrip(b"0123456789"))
        try:
            exact[cell] = int(raw[begin:stop])
        except ValueError:  # beyond the interpreter's integer-string limit
            return exact, (begin, "invalid candidate: too many digits")
    return exact, None


def _raise_first_error(raw, buf, digit, ends, tails, ballots):
    """Raise for the first syntax error of a chunk; return if there is none
    (whitespace between tokens is no error)."""
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
        split = last[digit[first - 1] & digit[last + 1]] + 1
        if len(split):
            errors.append((int(split[0]), "invalid candidate: a number split by whitespace"))
    # brace depth after each brace; it is 0 at the start of every ballot up
    # to the first malformed one, and only that one is reported.  "|", "~"
    # and DEL count as braces here, but each is reported as invalid at or
    # before any error it causes that way
    braces = np.flatnonzero(buf > ord("z"))
    opening = buf[braces] == ord("{")
    depth = np.cumsum(np.where(opening, 1, -1))
    wrong = np.flatnonzero((depth < 0) | (depth > 1))
    if len(wrong):
        message = "nested '{'" if opening[wrong[0]] else "unmatched '}'"
        errors.append((int(braces[wrong[0]]), message))
    unclosed = ends[np.r_[0, depth][braces.searchsorted(ends)] != 0]
    if len(unclosed):
        errors.append((int(unclosed[0]), "unterminated '{'"))
    edges = np.flatnonzero(digit[1:] != digit[:-1])  # around each digit run
    long_runs = np.flatnonzero(edges[1::2] - edges[0::2] > _DIGITS)
    error = _exact_ids(raw, edges[1::2], long_runs)[1]
    if error:
        errors.append(error)
    if errors:
        raise _error_at(raw, ends, tails, ballots, *min(errors, key=lambda error: error[0]))


def _error_at(raw, ends, tails, ballots, at, message):
    """The ParseError for byte ``at`` of a chunk: its line, and its column
    in the ranking unless it is the line's end.  A message of None names the
    character there."""
    index = int(ends.searchsorted(at))
    column = at - raw.rfind(b"\n", 0, at)
    if message is None:  # name the character as written, not as encoded
        message = f"invalid character {tails[index][column - 1]!r}"
    return ParseError(message, line=ballots[index][0], column=None if at in ends else column)


def _largest(cells):
    values, _, _, _, exact = cells
    return max(exact.values()) if exact else int(values.max(initial=0))


def _fill(ranks, row, cells, ballots):
    """Write one chunk's ballots into their rows of ``ranks``, where every
    candidate a ballot leaves out takes the level after its last bucket.
    Returns the error for the chunk's first unknown or repeated candidate
    instead, if it has one, and leaves the rows unfinished."""
    values, buckets, bounds, totals, _ = cells
    m = ranks.shape[1]
    block = ranks[row : row + len(bounds) - 1]
    if len(values) and (values.min() < 1 or values.max() > m):
        return _first_bad_cell(row, cells, m, ballots)
    block.fill(-1)
    flat = np.repeat(np.arange(len(block)) * m - 1, np.diff(bounds))
    flat += values
    block.reshape(-1)[flat] = buckets
    missing = block < 0
    if missing.size - np.count_nonzero(missing) < len(values):
        return _first_bad_cell(row, cells, m, ballots)
    # every bucket holds a candidate, so the levels are dense ranks already
    np.copyto(block, totals[1:, None] + 1, where=missing)
    block -= totals[:-1, None] + 1
    return None


def _first_bad_cell(row, cells, m, ballots):
    """The error for the first cell of a chunk, in file order, that is
    outside 1..m or names a candidate already listed in its ballot."""
    values, _, bounds, _, exact = cells
    lines = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    order = np.lexsort((np.arange(len(values)), values, lines))
    again = np.zeros(len(values), bool)
    again[order[1:]] = (values[order[1:]] == values[order[:-1]]) & (
        lines[order[1:]] == lines[order[:-1]]
    )
    outside = (values < 1) | (values > m)
    cell = int(np.argmax(outside | again))
    candidate = exact.get(cell, int(values[cell]))
    lineno = ballots[row + int(lines[cell])][0]
    if outside[cell]:
        return UnknownCandidateError(f"candidate {candidate} outside 1..{m}", line=lineno)
    return ParseError(f"candidate {candidate} listed twice", line=lineno)


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
