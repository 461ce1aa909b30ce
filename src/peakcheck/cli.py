"""Algorithm dispatch and the ``peakcheck`` command line.

``applicable_engines`` is the one statement of when an engine applies:
``c1p`` for weak orders, ``guided`` for weak orders with an explicit or
implicit guiding vote, ``unguided`` for top orders, ``twosat`` for local weak
orders that include a total vote, and the brute-force ``oracle`` up to its
size bound.  For the plateau notions only ``c1p`` applies, and the oracle on
weak orders (for the necessary notion only up to m=6).

``dispatch`` with a given axis short-circuits to the axis verifier.  Its auto
path for possibly-single-peakedness runs the first applicable engine in
``AUTO_PRIORITY`` (guided > unguided > c1p > twosat > oracle) and reports the
NP-hard frontier as an error when none applies.  An explicit algorithm, and
auto for a plateau notion (which means ``c1p``), runs that engine directly,
so an engine refuses a profile outside its class with its own error.

``peakcheck recognize`` takes its inputs in order, the ``--seed-corpus``
profiles first and then each file, and reads, decides and prints each one
before it reads the next.  An input that fails ends the call with exit 2,
after the verdicts of the inputs before it; a parse error names its file.

Exit codes: 0 consistent, 1 not consistent, 2 error.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys
import time

from . import axis_check, c1p, gadgets, oracle, preflib, twosat, unguided
from .errors import (
    ClassError,
    HardnessError,
    NoTotalOrderError,
    ParseError,
    PeakcheckError,
    SizeError,
)
from .guided import find_implicit_guiding_vote, guided_recognize
from .model import Axis, Notion, OrderClass

ALGORITHMS = ("auto", "c1p", "guided", "unguided", "twosat", "oracle")
AUTO_PRIORITY = ("guided", "unguided", "c1p", "twosat", "oracle")


def _guiding_vote(profile):
    explicit = profile.first_total_order()
    if explicit is not None:
        return explicit
    if profile.order_class() <= OrderClass.WEAK:
        return find_implicit_guiding_vote(profile)
    return None


def _runner(name, notion, oracle_bound, guiding=None):
    """Engine ``name`` as a callable on a profile.  Engines are looked up on
    their modules when this runs, never at import, so a replaced module
    attribute is the one called."""
    if name == "c1p":
        return lambda p: c1p.recognize(p, notion)
    if name == "guided":
        return lambda p: guided_recognize(p, guiding)
    if name == "unguided":
        return unguided.unguided_recognize
    if name == "twosat":
        return twosat.recognize_lwo_with_total
    return lambda p: oracle.oracle_recognize(p, notion, oracle_bound)


def dispatch(profile, notion=Notion.PSP, algorithm="auto", given_axis=None,
             oracle_bound=oracle.DEFAULT_BOUND):
    """Run the selected (or automatically chosen) recognition engine."""
    notion = Notion(notion)
    if given_axis is not None:
        return axis_check.check_on_axis(profile, given_axis, notion)
    if algorithm not in ALGORITHMS:
        raise PeakcheckError(f"unknown algorithm {algorithm!r}")
    if algorithm == "auto" and notion == Notion.PSP:
        engines = dict(applicable_engines(profile, notion, oracle_bound))
        for name in AUTO_PRIORITY:
            if name in engines:
                return engines[name](profile)
        raise HardnessError(
            "recognition for this order class is NP-complete and the instance "
            f"exceeds the brute-force bound (m={profile.m} > {oracle_bound})"
        )
    if algorithm == "auto":
        algorithm = "c1p"
    if notion != Notion.PSP and algorithm not in ("c1p", "oracle"):
        raise ClassError(
            f"the {algorithm} engine only decides possibly-single-peakedness"
        )
    guiding = None
    if algorithm == "guided":
        guiding = _guiding_vote(profile)
        if guiding is None:
            raise NoTotalOrderError("no explicit or implicit guiding vote found")
    return _runner(algorithm, notion, oracle_bound, guiding)(profile)


def applicable_engines(profile, notion=Notion.PSP, oracle_bound=oracle.DEFAULT_BOUND):
    """(name, runner) pairs of every engine whose preconditions hold."""
    notion = Notion(notion)
    cls = profile.order_class()
    names = ["c1p"] if cls <= OrderClass.WEAK else []
    guiding = None
    if notion == Notion.PSP:
        if cls <= OrderClass.WEAK:
            guiding = _guiding_vote(profile)
            if guiding is not None:
                names.append("guided")
        if cls <= OrderClass.TOP:
            names.append("unguided")
        if cls <= OrderClass.LOCAL_WEAK and profile.contains_total_order():
            names.append("twosat")
        oracle_applies = True
    else:
        oracle_applies = cls <= OrderClass.WEAK and not (
            notion == Notion.NECESSARY and profile.m > 6
        )
    if oracle_applies and profile.m <= oracle_bound:
        names.append("oracle")
    return [(name, _runner(name, notion, oracle_bound, guiding)) for name in names]


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not text in the expected encoding: {exc}") from None


def _read_axis(path, names):
    text = _read_text(path).strip()
    labels = [t for t in text.replace(",", " ").split() if t]
    index = {name: i for i, name in enumerate(names)}
    order = []
    for label in labels:
        if label in index:
            order.append(index[label])
        # ASCII digits only: str.isdigit() also passes '²', which int() refuses
        elif label.isascii() and label.isdigit() and (
            1 <= preflib._ascii_int(label, "candidate", None) <= len(names)
        ):
            order.append(int(label) - 1)
        else:
            raise ParseError(f"unknown candidate {label!r} in axis file")
    if len(set(order)) != len(order):
        raise ParseError("axis file names a candidate twice")
    if len(order) != len(names):
        raise ParseError(
            f"axis file orders {len(order)} of {len(names)} candidates"
        )
    return Axis(tuple(order))


def _order_class(name):
    try:
        return OrderClass(name)
    except ValueError:
        raise PeakcheckError(f"unknown class {name.strip().lower()!r}") from None


def _require_sizes(m, n):
    if m < 1 or n < 1:
        raise PeakcheckError(f"m and n must be at least 1 (got m={m}, n={n})")


def _seed_corpus_inputs(spec):
    """Inputs from 'm,n,class,seed[,count]' (class: soc/toc/toi or order class)."""
    parts = spec.split(",")
    if len(parts) not in (4, 5):
        raise PeakcheckError("--seed-corpus expects m,n,class,seed[,count]")
    try:
        m, n, seed = int(parts[0]), int(parts[1]), int(parts[3])
        count = int(parts[4]) if len(parts) == 5 else 1
    except ValueError:
        raise PeakcheckError(
            f"--seed-corpus expects integer m, n, seed and count, got {spec!r}"
        ) from None
    _require_sizes(m, n)
    if count < 1:
        raise PeakcheckError(f"--seed-corpus count must be at least 1 (got {count})")
    cls = _order_class(parts[2])
    names = [str(c + 1) for c in range(m)]
    for i in range(count):
        yield f"seed-corpus[{i}]", lambda seed=seed + i: (
            gadgets.random_profile(m, n, cls, seed), names
        )


def _parse_file(path):
    text = _read_text(path)  # whose decode error already names the path
    try:
        return preflib.parse_any(text)
    except ParseError as exc:
        exc.args = (f"{exc} in {path}",)
        raise


def _run_one(profile, names, args):
    t0 = time.perf_counter()
    axis = _read_axis(args.axis, names) if args.axis else None
    if args.cross_validate and axis is None:
        results = [
            (name, runner(profile))
            for name, runner in applicable_engines(
                profile, args.notion, args.oracle_bound
            )
        ]
        if not results:
            raise HardnessError("no engine applies to this profile")
        bits = {v.consistent for _, v in results}
        if len(bits) != 1:
            detail = ", ".join(f"{n}={v.consistent}" for n, v in results)
            raise PeakcheckError(f"engines disagree: {detail}")
        verdict = dataclasses.replace(
            results[0][1], algorithm="+".join(n for n, _ in results)
        )
    else:
        verdict = dispatch(
            profile, args.notion, args.algorithm, axis, args.oracle_bound
        )
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    stats = {
        "m": profile.m,
        "n": profile.n,
        "total_voters": profile.total_voters,
        "wall_time_ms": round(elapsed_ms, 3),
    }
    return verdict, stats


def _recognize_one(source, load, args):
    """Load, decide and print one input.  ``load()`` returns its profile and
    candidate names, which die when this returns."""
    profile, names = load()
    verdict, stats = _run_one(profile, names, args)
    _print_result(source, verdict, stats, names, args.json)
    return 0 if verdict.consistent else 1


def _print_result(source, verdict, stats, names, as_json):
    out = sys.stdout
    if as_json:
        out.write(preflib.write_verdict_json(verdict, stats, names))
        return
    status = "consistent" if verdict.consistent else "not consistent"
    out.write(f"{source}: {status} [{verdict.notion.value}/{verdict.algorithm}]")
    if verdict.axis is not None:
        labels = [preflib.candidate_name(c, names) for c in verdict.axis]
        out.write("  axis: " + " > ".join(labels))
    elif verdict.certificate is not None:
        cert = preflib.certificate_record(verdict.certificate, names)
        where = "" if cert["vote"] is None else f" in vote {cert['vote']}"
        if "candidates" in cert:
            what = ", ".join(cert["candidates"])
        else:
            what = cert["reason"] + (f" ({cert['detail']})" if cert["detail"] else "")
        out.write(f"  certificate: {cert['kind']}{where}: {what}")
    out.write(f"  ({stats['wall_time_ms']:.1f} ms)\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="peakcheck",
        description="Decide whether incomplete preference profiles are "
        "possibly single-peaked (and variants).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("recognize", help="recognise one or more election files")
    rec.add_argument("files", nargs="*", help="PrefLib (soc/soi/toc/toi) or JSON profiles")
    rec.add_argument(
        "--notion",
        choices=[n.value for n in Notion],
        default="psp",
    )
    rec.add_argument("--algorithm", choices=ALGORITHMS, default="auto")
    rec.add_argument("--axis", help="file with a candidate order to verify against")
    rec.add_argument("--json", action="store_true", help="machine-readable output")
    rec.add_argument(
        "--cross-validate",
        action="store_true",
        help="run every applicable engine and require agreement",
    )
    rec.add_argument(
        "--seed-corpus",
        metavar="M,N,CLASS,SEED[,COUNT]",
        help="recognise generated profiles instead of files",
    )
    rec.add_argument(
        "--oracle-bound",
        type=int,
        default=oracle.DEFAULT_BOUND,
        help=f"largest m the brute-force oracle takes, 0 to {oracle.MAX_BOUND} (0: never)",
    )

    gen = sub.add_parser("generate", help="write a reproducible corpus")
    gen.add_argument("out", help="output file")
    gen.add_argument("--kind", choices=["sp", "random"], default="sp")
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--notion", choices=[n.value for n in Notion], default="psp")
    gen.add_argument("--class", dest="order_class", default="weak")
    gen.add_argument("--incompleteness", type=float, default=0.3)
    gen.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        return _cmd_recognize(args)
    except (PeakcheckError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # an engine bug, or a size that does not fit
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _cmd_generate(args):
    _require_sizes(args.m, args.n)
    if not 0.0 <= args.incompleteness <= 1.0:
        raise PeakcheckError(
            f"--incompleteness must lie in [0, 1], got {args.incompleteness}"
        )
    if args.kind == "sp":
        profile = gadgets.random_sp_profile(
            args.m, args.n, args.notion, args.incompleteness, args.seed
        )
    else:
        cls = _order_class(args.order_class)
        profile = gadgets.random_profile(args.m, args.n, cls, args.seed)
    comments = [
        f"GENERATOR: peakcheck {args.kind} m={args.m} n={args.n} "
        f"notion={args.notion} incompleteness={args.incompleteness} "
        f"seed={args.seed} rng={gadgets.RNG_ID}"
    ]
    if profile.order_class() <= OrderClass.WEAK:
        text = preflib.write_preflib(profile, comments=comments)
    else:
        text = preflib.write_profile_json(profile)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.out} (m={profile.m}, n={profile.n})")
    return 0


def _cmd_recognize(args):
    args.notion = Notion(args.notion)
    if args.oracle_bound > oracle.MAX_BOUND:
        raise SizeError(
            f"--oracle-bound {args.oracle_bound} exceeds the maximum {oracle.MAX_BOUND}"
        )
    if args.oracle_bound < 0:  # 0 means that the oracle never applies
        raise SizeError(f"--oracle-bound must be at least 0 (got {args.oracle_bound})")
    if not (args.seed_corpus or args.files):
        raise PeakcheckError("no input files (or --seed-corpus) given")
    seeds = _seed_corpus_inputs(args.seed_corpus) if args.seed_corpus else ()
    files = ((path, lambda path=path: _parse_file(path)) for path in args.files)
    worst = 0
    for source, load in itertools.chain(seeds, files):
        worst = max(worst, _recognize_one(source, load, args))
    return worst


if __name__ == "__main__":
    sys.exit(main())
