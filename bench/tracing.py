"""Span tracing of peakcheck from outside the program.

While a traced request runs (``Tracer.request``), module and class
attributes of peakcheck are replaced with wrappers that record a span per
call: name, start, end, parent span and request id.  The originals are put
back when the request returns, so untraced requests and the benchmark's own
input generation and output checks never pass through a wrapper.  Spans and
counts stay in memory and are written out once, at the end of the run.

A span's self time is its duration minus the part of it that its child spans
cover.  Calls made on the CLI's worker threads have no span of their own
thread above them; their parent is the request's root span.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import threading
import time
from collections import Counter, defaultdict

from peakcheck import axis_check, c1p, cli, model, oracle, preflib, twosat, unguided
from peakcheck.errors import PinError


def _axes_enumerated(m):
    return math.factorial(m) // 2 if m > 1 else 1


def _guided_placements(args, kwargs, result):
    # candidates placed before the verdict: all of them on a yes; on a no,
    # the blocked candidate's index in the worst-first guiding order
    m = args[0].m
    if result.consistent:
        return m
    guiding = args[1] if len(args) > 1 else kwargs["guiding"]
    blocked = result.certificate.detail.rsplit(" ", 1)[-1]
    return m - 1 - guiding.ranks[int(blocked)] if blocked.isdigit() else 0


def _guided(args, kwargs, result):
    return {"guided.calls": 1, "guided.placements": _guided_placements(args, kwargs, result)}


def _subproblem(args, kwargs, result):
    counts = _guided(args, kwargs, result)
    counts.update({"unguided.subproblems": 1, "unguided.subproblems_ok": result.consistent})
    return counts


def _rows_built(args, kwargs, result):
    return {"c1p.rows_built": len(result.rows)}


# (owner, attribute, span name, counts(args, kwargs, result) -> {count: n})
TARGETS = (
    (cli, "dispatch", "cli.dispatch", None),
    (cli, "_run_one", "cli.run_one", None),
    (cli, "find_implicit_guiding_vote", "guided.implicit_search",
     lambda a, k, r: {"guided.implicit_calls": 1, "guided.implicit_found": r is not None}),
    (cli, "guided_recognize", "guided.place", _guided),
    (unguided, "guided_recognize", "guided.place", _subproblem),
    (c1p, "build_psp_matrix", "c1p.build", _rows_built),
    (c1p, "build_plateaued_matrix", "c1p.build", _rows_built),
    (c1p, "build_black_matrix", "c1p.build", _rows_built),
    (c1p, "solve_c1p", "c1p.solve", None),
    (c1p, "solve_c1p_sets", "pqtree.solve",
     lambda a, k, r: {"pqtree.rows": len(a[0]),
                      "pqtree.row_cells": sum(len(row) for row in a[0])}),
    (axis_check, "is_possibly_sp_on_axis", "axis_check.verify", None),
    (axis_check, "check_plateaued_on_axis", "axis_check.verify", None),
    (axis_check, "check_black_on_axis", "axis_check.verify", None),
    (axis_check, "check_necessary_on_axis", "axis_check.verify", None),
    (twosat, "recognize_lwo_with_total", "twosat.extract", None),
    (twosat, "encode", "twosat.encode",
     lambda a, k, r: {"twosat.clauses": len(r.clauses), "twosat.vars": r.num_vars}),
    (twosat, "solve_2sat", "twosat.solve", None),
    (unguided, "unguided_recognize", "unguided.recognize", None),
    (unguided, "connected_components", "unguided.components",
     lambda a, k, r: {"unguided.components": len(r)}),
    (unguided, "oplus", "unguided.oplus",
     lambda a, k, r: {"unguided.oplus_calls": 1, "unguided.oplus_ok": r is not None}),
    (oracle, "oracle_recognize", "oracle.recognize",
     lambda a, k, r: {"oracle.axes": _axes_enumerated(a[0].m)}),
    (preflib, "parse_any", "preflib.parse", lambda a, k, r: {"preflib.parse_bytes": len(a[0])}),
    (preflib, "write_verdict_json", "preflib.write", None),
    (model.Profile, "order_class", "model.classify", None),
    (model.PreferenceOrder, "from_pairs", "model.from_pairs", None),
)

# A PinError escaping a guided subproblem is how the unguided engine rejects
# a start candidate: it counts as a failed subproblem, not as an error.
_EXPECTED = {
    (unguided, "guided_recognize"): (
        PinError, {"guided.calls": 1, "unguided.subproblems": 1}
    ),
}


class Tracer:
    """In-memory spans and counts for the requests of one traced run."""

    def __init__(self):
        self.spans = []  # (span id, parent id, request id, name, start, end)
        self.counts = Counter()
        self.errors = Counter()
        self.requests = 0
        self._request = None  # (request id, root span id) while one runs
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []

    # -- installation ------------------------------------------------------

    def _install(self):
        for owner, attr, name, counts in TARGETS:
            raw = owner.__dict__[attr]
            expected = _EXPECTED.get((owner, attr), (None, None))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, counts, expected))
            else:
                wrapped = self._wrap(raw, name, counts, expected)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def _uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, counts, expected):
        tracer = self
        layer = name.split(".", 1)[0]
        expected_type, expected_counts = expected

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            request = tracer._request
            stack = tracer._stack()
            parent = stack[-1] if stack else request[1]
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, request[0], name, start, end))
                with tracer._lock:
                    if expected_type is not None and isinstance(exc, expected_type):
                        tracer.counts.update(expected_counts)
                    else:
                        tracer.errors[layer] += 1
                raise
            end = time.perf_counter()
            stack.pop()
            tracer.spans.append((span_id, parent, request[0], name, start, end))
            if counts is not None:
                added = counts(args, kwargs, result)
                with tracer._lock:
                    tracer.counts.update(added)
            return result

        return traced

    # -- requests ----------------------------------------------------------

    @contextlib.contextmanager
    def request(self, name):
        """One traced request, under a root span called ``name``; the
        wrappers are installed for its duration only."""
        self.requests += 1
        root = next(self._ids)
        self._request = (self.requests, root)
        self._stack().append(root)
        self._install()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._uninstall()
            self._stack().pop()
            self._request = None
            self.spans.append((root, 0, self.requests, name, start, end))

    # -- reduction ---------------------------------------------------------

    def self_times(self):
        """Total self time per span name."""
        children = defaultdict(list)
        for _, parent, _, _, start, end in self.spans:
            children[parent].append((start, end))
        totals = Counter()
        for span_id, _, _, name, start, end in self.spans:
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            totals[name] += (end - start) - covered
        return totals

    def outermost_calls(self, name):
        """Spans called ``name`` whose parent span has another name."""
        names = {span[0]: span[3] for span in self.spans}
        return sum(
            1 for span in self.spans if span[3] == name and names.get(span[1]) != name
        )

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["span", "parent", "request", "name", "start", "end"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "errors": dict(self.errors),
                },
                fh,
            )

