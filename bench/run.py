"""Seeded known-answer benchmark for peakcheck.

Usage, from the root of a checkout:

    python3 bench/run.py --workload c1p-psp|guided-wide|cli-mixed \
        --seed N --seconds S --trace 0|1

One process, one caller, no concurrency of its own: requests run in a closed
loop, each only after the previous one returned.  Every verdict is checked
against the answer known from how its input was built, and every returned
axis is verified again; before the requests, the run checks the generators
it uses against the brute-force oracle.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing installed.  Requests run in whole cycles of the workload's slots, so
every run holds the same mix of sizes and answers; throughput, median and
tail latency are taken over all requests of the run.

On a shared host the speed of a core changes by tens of per cent within
minutes, in steps: the same Python code runs either fast or up to about 40 %
slower, depending on what the neighbours do.  So every time the end-to-end
metrics report is scaled to a reference speed.  Just before and just after
each request, outside its timer, the run times a fixed pure-Python kernel (a
probe).  A request's latency is multiplied by ``REFERENCE_S`` over the mean
probe time of its cycle, a few seconds long; the median set-up launch is
scaled the same way by the probes just before and after each launch.  The
mean, not the median, of the probes tracks the share of time the host spends
slow.  The unscaled figures are printed on the lines before the result.

With ``--trace 1`` every request runs twice on fresh copies of its input,
once plain and once traced, in alternating order, and the tracer's wrappers
are installed around the traced one only; the metrics are the per-layer ones
and the tracing overhead, and the spans are written to ``.bench_out/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_LAUNCHES = 11
SELF_TEST_ROUNDS = 2
TAIL_SHARE = 0.2  # latency_tail_s is the mean of this slowest share
# one probe's time at the reference speed.  Only its being fixed matters; it
# is near the probe's time on one vCPU of a shared 2 GHz Xeon VM, where the
# probe took 0.012-0.02 s
REFERENCE_S = 0.02


def _import_peakcheck():
    """Import peakcheck from this checkout's ``src``, or exit with an error."""
    if not os.path.isfile(os.path.join(SRC, "peakcheck", "__init__.py")):
        sys.exit(f"error: no peakcheck sources under {SRC}")
    sys.path.insert(0, SRC)
    import peakcheck

    if not os.path.abspath(peakcheck.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: peakcheck was imported from {peakcheck.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def _reference_work():
    """A fixed pure-Python computation: dicts, lists, sets, a sort, tuples."""
    total = 0
    for round_ in range(3):
        buckets = {}
        for i in range(12_000):
            bucket = buckets.setdefault((i * 7919 + round_) % 1009, [])
            bucket.append(i)
            total += len(bucket)
        seen = set()
        for bucket in buckets.values():
            seen.update(x % 97 for x in bucket)
        order = sorted(buckets, key=lambda k: (len(buckets[k]), -k))
        pairs = frozenset((a, b) for a in range(60) for b in range(a + 1, 60) if (a ^ b) & 1)
        total += len(seen) + order[0] + len(pairs)
    return total


def probe():
    """Wall time of one pass of the reference kernel."""
    start = time.perf_counter()
    _reference_work()
    return time.perf_counter() - start


def measure_setup(workload):
    """Median time of fresh interpreters returning their first verdict, at
    the reference speed and unscaled.

    The run and its launches are pinned to one core meanwhile, so that the
    probes time the core the launches run on: each core of a shared host
    has neighbours of its own."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times, probes = [], []
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    try:
        for _ in range(SETUP_LAUNCHES):
            probes.append(probe())
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", workload.setup_code, *workload.setup_args],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
            )
            times.append(time.perf_counter() - start)
            probes.append(probe())
            expected = f"{workload.setup_engine} True"
            if proc.returncode != 0 or proc.stdout.strip() != expected:
                raise RuntimeError(
                    f"set-up launch printed {proc.stdout.strip()!r} (exit "
                    f"{proc.returncode}), expected {expected!r}: {proc.stderr[-500:]}"
                )
    finally:
        os.sched_setaffinity(0, cores)
    median = statistics.median(times)
    return median * REFERENCE_S / statistics.mean(probes), median


class Record:
    """One request: its place, timed latency, the probes around it and its
    judged outcome."""

    def __init__(self, cycle, slot, latency, outcome, traced, probes):
        self.cycle = cycle
        self.slot = slot
        self.latency = latency
        self.outcome = outcome
        self.traced = traced
        self.probes = probes


def run_request(workload, cycle, slot, seed, tracer=None, probed=False):
    """Prepare (untimed), execute (timed) and judge (untimed) one request;
    when ``probed``, time a probe just before and just after it."""
    from workloads import Outcome

    request = workload.prepare(slot, seed)
    # collect the garbage of input generation and earlier requests now, so
    # that no request pays for it on its own clock
    gc.collect()
    probes = [probe()] if probed else []
    scope = contextlib.nullcontext() if tracer is None else tracer.request(workload.root_span)
    start = time.perf_counter()
    try:
        with scope:
            result = workload.execute(request)
    except (Exception, SystemExit) as exc:
        latency = time.perf_counter() - start
        if probed:
            probes.append(probe())
        outcome = Outcome()
        outcome.problems.append(f"exception: {exc!r}")
        traceback.print_exc(file=sys.stderr)
        return Record(cycle, slot, latency, outcome, tracer is not None, probes)
    latency = time.perf_counter() - start
    if probed:
        probes.append(probe())
    try:
        outcome = workload.judge(request, result)
    except Exception as exc:
        outcome = Outcome()
        outcome.problems.append(f"exception while checking: {exc!r}")
        traceback.print_exc(file=sys.stderr)
    return Record(cycle, slot, latency, outcome, tracer is not None, probes)


def run_cycles(workload, seed, seconds, tracer=None):
    """Whole cycles of requests until one more would pass ``seconds``."""
    from workloads import request_seed

    records = []
    start = time.perf_counter()
    cycle = 0
    while True:
        for slot in range(len(workload.slots)):
            s = request_seed(seed, cycle, slot)
            if tracer is None:
                records.append(run_request(workload, cycle, slot, s, probed=True))
                continue
            # plain and traced run on fresh copies, alternating which goes
            # first so that warm-up favours neither
            first_traced = (cycle + slot) % 2 == 1
            for traced in (first_traced, not first_traced):
                records.append(
                    run_request(workload, cycle, slot, s, tracer if traced else None)
                )
        cycle += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / cycle > seconds:
            return records, cycle


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _metric(value, unit):
    return {"value": value, "unit": unit}


def scaled_latencies(records):
    """Each request's latency at the reference speed, from the mean of the
    probes of its cycle."""
    probes = {}
    for r in records:
        probes.setdefault(r.cycle, []).extend(r.probes)
    mean = {cycle: statistics.mean(p) for cycle, p in probes.items()}
    return [r.latency * REFERENCE_S / mean[r.cycle] for r in records]


def end_to_end_metrics(records, setup_s, attempted, failed):
    """Throughput and latencies over all requests of the run, at the
    reference speed.

    Throughput is verdicts per second of time spent inside requests: input
    generation, probes and output checks are the benchmark's own work and
    stay outside, as they stay outside each latency.
    """
    latencies = scaled_latencies(records)
    verdicts = sum(r.outcome.verdicts for r in records)
    return {
        "verdicts_per_s": _metric(verdicts / sum(latencies), "1/s"),
        "latency_p50_s": _metric(statistics.median(latencies), "s"),
        "latency_tail_s": _metric(tail(latencies), "s"),
        "ok_share": _metric((attempted - failed) / attempted, "ratio"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def tail(latencies):
    """Mean latency of the slowest ``TAIL_SHARE`` of requests, at least one.

    A mean over the slowest requests moves less from run to run than a
    single high percentile, which lands between two request sizes."""
    return statistics.mean(sorted(latencies)[-tail_count(latencies):])


def tail_count(latencies):
    return max(1, math.ceil(len(latencies) * TAIL_SHARE))


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer, records):
    """Per-layer metrics of a traced run, each per traced request."""
    self_s = tracer.self_times()
    counts = tracer.counts
    n = tracer.requests
    plain = [r for r in records if not r.traced]
    traced = [r for r in records if r.traced]

    def seconds(*names):
        return _metric(sum(self_s[name] for name in names) / n, "s/req")

    def count(name):
        return _metric(counts[name] / n, "count/req")

    def ratio(num, den):
        return _metric(_ratio(counts[num], counts[den]), "ratio")

    metrics = {
        "pqtree.solve_s": seconds("pqtree.solve"),
        "pqtree.rows": count("pqtree.rows"),
        "pqtree.row_cells": count("pqtree.row_cells"),
        "c1p.build_s": seconds("c1p.build"),
        "c1p.solve_self_s": seconds("c1p.solve"),
        "c1p.rows_built": count("c1p.rows_built"),
        "c1p.useful_row_ratio": ratio("pqtree.rows", "c1p.rows_built"),
        "guided.implicit_search_s": seconds("guided.implicit_search"),
        "guided.implicit_found_ratio": ratio("guided.implicit_found", "guided.implicit_calls"),
        "guided.place_self_s": seconds("guided.place"),
        "guided.calls": count("guided.calls"),
        "guided.placements": count("guided.placements"),
        "axis_check.verify_s": seconds("axis_check.verify"),
        "axis_check.verify_calls": _metric(
            tracer.outermost_calls("axis_check.verify") / n, "count/req"
        ),
        "model.classify_s": seconds("model.classify"),
        "model.from_pairs_s": seconds("model.from_pairs"),
        "preflib.parse_s": seconds("preflib.parse"),
        "preflib.parse_bytes": count("preflib.parse_bytes"),
        "preflib.write_s": seconds("preflib.write"),
        "cli.invocation_self_s": seconds("cli.main", "cli.run_one"),
        "cli.dispatch_self_s": seconds("cli.dispatch"),
        "cli.reported_over_measured": _metric(
            _ratio(
                sum(r.outcome.reported_ms for r in plain) / 1000.0,
                sum(r.latency for r in plain),
            ),
            "ratio",
        ),
        "twosat.encode_s": seconds("twosat.encode"),
        "twosat.solve_s": seconds("twosat.solve"),
        "twosat.extract_self_s": seconds("twosat.extract"),
        "twosat.clauses": count("twosat.clauses"),
        "twosat.vars": count("twosat.vars"),
        "oracle.s": seconds("oracle.recognize"),
        "oracle.axes": count("oracle.axes"),
        "unguided.self_s": seconds("unguided.recognize", "unguided.components", "unguided.oplus"),
        "unguided.components": count("unguided.components"),
        "unguided.oplus_calls": count("unguided.oplus_calls"),
        "unguided.oplus_ok_ratio": ratio("unguided.oplus_ok", "unguided.oplus_calls"),
        "unguided.subproblems": count("unguided.subproblems"),
        "unguided.subproblem_ok_ratio": ratio("unguided.subproblems_ok", "unguided.subproblems"),
    }
    for layer in ("cli", "c1p", "pqtree", "guided", "axis_check", "model",
                  "preflib", "twosat", "oracle", "unguided"):
        metrics[f"{layer}.errors"] = _metric(tracer.errors[layer], "count")
    plain_s = sum(r.latency for r in plain)
    traced_s = sum(r.latency for r in traced)
    metrics["trace.overhead_s"] = _metric((traced_s - plain_s) / n, "s/req")
    metrics["trace.overhead_ratio"] = _metric(_ratio(traced_s - plain_s, plain_s), "ratio")
    return metrics


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def describe(workload, records, cycles, tracer=None):
    """Human-readable lines printed before the JSON result."""
    latencies = [r.latency for r in records]
    engines = Counter(got for r in records for _, got in r.outcome.routes)
    lines = [
        f"{workload.name}: {len(records)} requests in {cycles} cycles of "
        f"{len(workload.slots)}; {sum(latencies):.2f} s inside requests",
        f"latency_tail_s is the mean of the slowest {tail_count(latencies)} "
        f"of {len(records)} requests",
        "engine mix: " + ", ".join(f"{e}={c}" for e, c in sorted(engines.items())),
    ]
    by_slot = {}
    for r in records:
        by_slot.setdefault(r.slot, []).append(r.latency)
    for slot, times in sorted(by_slot.items()):
        label = workload.slots[slot][0]
        lines.append(f"  slot {label}: median {statistics.median(times):.4f} s "
                     f"over {len(times)}")
    if tracer is None:
        probes = [p for r in records for p in r.probes]
        lines += [
            f"probes: mean {statistics.mean(probes):.5f} s, min {min(probes):.5f} s, "
            f"max {max(probes):.5f} s over {len(probes)}; REFERENCE_S is {REFERENCE_S} s",
            f"unscaled: {sum(r.outcome.verdicts for r in records) / sum(latencies):.4f} "
            f"verdicts/s, p50 {statistics.median(latencies):.4f} s, "
            f"tail {tail(latencies):.4f} s",
        ]
    else:
        lines.append("self time per traced request, largest first:")
        for name, total in tracer.self_times().most_common():
            lines.append(f"  {name:<24} {total / tracer.requests:10.5f} s")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_peakcheck()
    import gen
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    workload = WORKLOADS[args.workload]()
    problems = gen.self_test(args.seed, workload.families, SELF_TEST_ROUNDS)
    workdir = os.path.join(ROOT, ".bench_work", f"{workload.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload.setup(workdir, args.seed)
        if args.trace:
            import tracing

            setup_s = unscaled_setup_s = None
            tracer = tracing.Tracer()
            records, cycles = run_cycles(workload, args.seed, args.seconds, tracer)
        else:
            setup_s, unscaled_setup_s = measure_setup(workload)
            tracer = None
            records, cycles = run_cycles(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))  # only when no other run uses it

    attempted = len(records)
    failed = sum(1 for r in records if r.outcome.problems)
    for r in records:
        for problem in r.outcome.problems:
            problems.append(f"{workload.slots[r.slot][0]}: {problem}")
    misrouted = Counter(
        (want, got) for r in records for want, got in r.outcome.routes if want != got
    )
    if misrouted:
        problems.append(
            "ENGINE-ROUTING GUARD FAILED: "
            + ", ".join(f"{got} answered {c} request(s) meant for {want}"
                        for (want, got), c in misrouted.items())
        )

    if tracer is None:
        metrics = end_to_end_metrics(records, setup_s, attempted, failed)
        lines = describe(workload, records, cycles)
        lines.append(f"unscaled setup_s: {unscaled_setup_s:.4f} s")
    else:
        metrics = per_layer_metrics(tracer, records)
        lines = describe(workload, records, cycles, tracer)
        outdir = os.path.join(ROOT, ".bench_out")
        os.makedirs(outdir, exist_ok=True)
        path = os.path.join(outdir, f"trace-{workload.name}-seed{args.seed}.json")
        tracer.write(path)
        lines.append(f"spans written to {os.path.relpath(path, ROOT)}")
        lines.append(f"tracing overhead: {metrics['trace.overhead_s']['value']:.5f} s "
                     f"per request ({metrics['trace.overhead_ratio']['value']:.1%})")
    for line in lines:
        print(line)
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    correct = not problems
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
