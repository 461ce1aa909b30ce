"""The three benchmark workloads.

A workload is a fixed cycle of request slots.  The benchmark runs whole
cycles, so every run holds the same mix of sizes and answers however many
cycles fit in it; only the generated content changes with the seed.  Each
request's inputs are generated just before it runs, outside its timer, as
new objects, so no cache of an earlier request is reused.

* ``c1p-psp``: library ``dispatch`` on tie-dense weak orders with no guiding
  vote.  The PQ-tree solve is most of every request, so this is where c1p
  and pqtree changes show; guided, 2-SAT and preflib do almost nothing.
  Planted no-instances stop the reduction partway.
* ``guided-wide``: library ``dispatch`` on wide weak-order profiles that all
  route to guided, half with an explicit total vote and half with only an
  implicit one.  Guided placement, the implicit-vote search and axis
  verification dominate; the PQ-tree does nothing.
* ``cli-mixed``: in-process ``peakcheck.cli.main`` on PrefLib and JSON files
  written just before each invocation, two files per invocation.  The only
  workload that parses files, writes JSON and runs unguided, 2-SAT, the
  oracle and the CLI's thread pool.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from functools import partial

import gen
from peakcheck import (
    Axis,
    Notion,
    cli,
    random_sp_profile,
    write_preflib,
    write_profile_json,
)
from peakcheck.axis_check import check_on_axis

# A fresh interpreter's first verdict, for the set-up time; it prints the
# engine and the verdict bit.
_LIBRARY_SETUP = (
    "import peakcheck\n"
    "v = peakcheck.dispatch({profile})\n"
    "print(v.algorithm, v.consistent)\n"
)


def request_seed(seed, cycle, slot):
    """Seed of one request, from the run seed and the request's place."""
    return random.Random(f"{seed}:{cycle}:{slot}").randrange(2**31)


class Outcome:
    """What one request returned, judged against its known answer."""

    def __init__(self):
        self.verdicts = 0
        self.routes = []  # (expected engine, engine that answered)
        self.problems = []
        self.reported_ms = 0.0  # the CLI's own wall_time_ms, summed


def verify_verdict(consistent, axis, profile, notion, expected):
    """Problems with one verdict: wrong bit, or an axis that fails the check."""
    if consistent != expected:
        return [f"verdict {consistent}, expected {expected}"]
    if consistent and (
        axis is None or axis.m != profile.m or not check_on_axis(profile, axis, notion)
    ):
        return ["returned axis fails re-verification"]
    return []


# ---------------------------------------------------------------------------
# library workloads
# ---------------------------------------------------------------------------


class LibraryWorkload:
    """Closed-loop ``dispatch`` calls on freshly generated profiles."""

    def __init__(self, name, engine, slots, families, setup_profile):
        self.name = name
        self.engine = engine
        self.slots = slots  # (label, build(seed) -> profile, expected bit)
        self.families = families  # self-test families of its generators
        self.setup_code = _LIBRARY_SETUP.format(profile=setup_profile)
        self.setup_args = ()
        self.setup_engine = engine
        self.root_span = "bench.request"

    def setup(self, workdir, seed):
        pass

    def prepare(self, slot, seed):
        _, build, expected = self.slots[slot]
        return build(seed), expected

    def execute(self, request):
        return cli.dispatch(request[0])

    def judge(self, request, verdict):
        profile, expected = request
        outcome = Outcome()
        outcome.verdicts = 1
        outcome.routes.append((self.engine, verdict.algorithm))
        outcome.problems += verify_verdict(
            verdict.consistent, verdict.axis, profile, Notion.PSP, expected
        )
        return outcome


def _planted(build, no, keep=()):
    """``build(seed)``, or with a planted no-triple when ``no``."""

    def request(seed):
        profile = build(seed)
        return gen.plant_no(profile, random.Random(seed), "weak", keep) if no else profile

    return request


def _c1p(m, no):
    return _planted(partial(gen.weak_c1p_profile, m, 100, 0.9), no)


def _explicit(m, no):
    return _planted(partial(gen.weak_total_profile, m, 100), no, keep=(0,))


def _implicit(m, incompleteness, no):
    return _planted(partial(random_sp_profile, m, 100, "psp", incompleteness), no)


def c1p_psp():
    # sizes spread over 250..500; two of seven are planted no.  The two no
    # slots are the fastest, the three m=350 yes slots come next, so that the
    # median request lands in the middle of those three, away from the no
    # slots whose time depends on where the reduction stops
    sizes = ((250, True), (350, True), (350, False), (350, False),
             (350, False), (450, False), (500, False))
    return LibraryWorkload(
        "c1p-psp",
        "c1p",
        [(f"m={m} {'no' if no else 'yes'}", _c1p(m, no), not no) for m, no in sizes],
        ("weak-psp",),
        "peakcheck.random_sp_profile(40, 20, 'psp', 0.9, 1)",
    )


def guided_wide():
    # three slots with an explicit total vote, four with only an implicit
    # guiding vote; two of seven are planted no-instances.  The middle four
    # take about the same time, so that the median lands inside them.
    return LibraryWorkload(
        "guided-wide",
        "guided",
        [
            ("explicit m=2000 yes", _explicit(2000, False), True),
            ("explicit m=5000 no", _explicit(5000, True), False),
            ("explicit m=10000 yes", _explicit(10000, False), True),
            ("implicit m=2000 p=0.1 yes", _implicit(2000, 0.1, False), True),
            ("implicit m=2000 p=0.3 no", _implicit(2000, 0.3, True), False),
            ("implicit m=2000 p=0.5 yes", _implicit(2000, 0.5, False), True),
            ("implicit m=3000 p=0.3 yes", _implicit(3000, 0.3, False), True),
        ],
        ("weak-total", "weak-implicit"),
        "peakcheck.Profile(200, (peakcheck.random_sp_profile(200, 1, 'psp', 0.0, 1).votes[0],)"
        " + peakcheck.random_sp_profile(200, 20, 'psp', 0.5, 1).votes[1:])",
    )


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------

# (kind, --notion, engine, planted vote kind, kept votes, sizes of files 0-3,
#  build(m, seed), file suffix); file 3 is a planted no.  The sizes put
# eleven of the sixteen slots at 0.1-0.3 s and the rest at 0.45-0.6 s, so the
# median request lies among the fast ones rather than in the gap.  Top orders
# stay at m=100: the unguided engine's time varies several-fold between
# inputs of one size, and at m=150 it was 0.15-1.3 s per call.
CLI_KINDS = (
    ("top", "psp", "unguided", "top", (), (100, 100, 100, 100),
     lambda m, s: gen.top_profile(m, 50, s), "toi"),
    ("weak-total", "psp", "guided", "weak", (0,), (1000, 1000, 1000, 1000),
     lambda m, s: gen.weak_total_profile(m, 100, s), "toc"),
    ("weak-psp", "psp", "c1p", "weak", (), (100, 100, 100, 100),
     lambda m, s: gen.weak_c1p_profile(m, 100, 0.9, s), "toc"),
    ("weak-plateaued", "plateaued", "c1p", "weak", (), (100, 100, 100, 100),
     lambda m, s: random_sp_profile(m, 100, "plateaued", 0.5, s), "toc"),
    ("weak-black", "black", "c1p", "weak", (), (100, 100, 100, 100),
     lambda m, s: random_sp_profile(m, 100, "black", 0.5, s), "toc"),
    ("weak-necessary", "necessary", "c1p", "weak", (), (100, 100, 100, 100),
     lambda m, s: random_sp_profile(m, 100, "necessary", 0.5, s), "toc"),
    ("localweak-total", "psp", "twosat", "pairs", (0,), (40, 40, 40, 40),
     lambda m, s: gen.local_weak_total_profile(m, 10, s), "json"),
    ("partial", "psp", "oracle", "pairs", (), (7, 8, 8, 7),
     lambda m, s: gen.partial_profile(m, 10, s), "json"),
)


class CliWorkload:
    """Closed-loop ``cli.main`` invocations, two freshly written files each."""

    name = "cli-mixed"
    root_span = "cli.main"
    setup_engine = "oracle"
    families = tuple(f for f, *_ in gen.SELF_TEST_FAMILIES)
    setup_code = (
        "import contextlib, io, json, sys\n"
        "from peakcheck.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    main(['recognize', '--json', sys.argv[1]])\n"
        "record = json.loads(out.getvalue())\n"
        "print(record['algorithm'], record['verdict'] == 'consistent')\n"
    )

    def __init__(self):
        # per kind two slots: files 0 and 1 are both yes; files 2 and 3 are a
        # yes and a planted no
        self.slots = [
            (f"{kind[0]} {'yes+no' if pair else 'yes+yes'}", kind, pair)
            for kind in CLI_KINDS
            for pair in (0, 1)
        ]
        self.workdir = None
        self.setup_args = ()

    def setup(self, workdir, seed):
        self.workdir = workdir
        # small fixed profile for the set-up time: partial orders at m=8,
        # which also builds the oracle's cached axis table
        small = os.path.join(workdir, "setup-partial.json")
        with open(small, "w") as fh:
            fh.write(write_profile_json(gen.partial_profile(8, 6, 1)))
        self.setup_args = (small,)

    def prepare(self, slot, seed):
        _, kind, pair = self.slots[slot]
        name, notion, engine, vote_kind, keep, sizes, build, suffix = kind
        files = []
        for i in (2 * pair, 2 * pair + 1):
            s = seed + i
            profile = build(sizes[i], s)
            no = i == 3
            if no:
                profile = gen.plant_no(profile, random.Random(s), vote_kind, keep)
            path = os.path.join(self.workdir, f"{name}-{i}.{suffix}")
            text = write_profile_json(profile) if suffix == "json" else write_preflib(profile)
            with open(path, "w") as fh:
                fh.write(text)
            files.append((path, profile, Notion(notion), engine, not no))
        argv = ["recognize", "--json", "--notion", notion, *(f[0] for f in files)]
        return argv, files

    def execute(self, request):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(request[0])
        return code, out.getvalue(), err.getvalue()

    def judge(self, request, result):
        code, stdout, stderr = result
        files = request[1]
        expected_code = 0 if all(f[4] for f in files) else 1
        outcome = Outcome()
        if code != expected_code:
            outcome.problems.append(
                f"exit code {code}, expected {expected_code}: {stderr.strip()[:200]}"
            )
        try:
            records = _json_records(stdout)
        except ValueError as exc:
            outcome.problems.append(f"unparseable JSON: {exc}")
            return outcome
        if len(records) != len(files):
            outcome.problems.append(f"{len(records)} JSON records for {len(files)} files")
        for (_, profile, notion, engine, expected), record in zip(files, records):
            outcome.verdicts += 1
            outcome.routes.append((engine, record.get("algorithm")))
            outcome.reported_ms += record.get("wall_time_ms", 0.0)
            outcome.problems += _record_problems(record, profile, notion, expected)
        return outcome


def _json_records(text):
    decoder = json.JSONDecoder()
    records, i = [], 0
    while True:
        while i < len(text) and text[i].isspace():
            i += 1
        if i == len(text):
            return records
        record, i = decoder.raw_decode(text, i)
        records.append(record)


def _record_problems(record, profile, notion, expected):
    if record.get("schema_version") != 1:
        return [f"schema_version {record.get('schema_version')!r}"]
    verdict = record.get("verdict")
    if verdict not in ("consistent", "not_consistent"):
        return [f"verdict {verdict!r}"]
    try:
        names = record["axis"]
        axis = Axis(tuple(int(name) - 1 for name in names)) if names else None
    except (TypeError, ValueError, KeyError) as exc:
        return [f"unreadable axis: {exc}"]
    return verify_verdict(verdict == "consistent", axis, profile, notion, expected)


WORKLOADS = {"c1p-psp": c1p_psp, "guided-wide": guided_wide, "cli-mixed": CliWorkload}
