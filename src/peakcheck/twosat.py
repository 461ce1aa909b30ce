"""2-SAT based recognition for local weak orders containing a total order.

One Boolean variable per candidate pair ``a < b``, indexed
``b*(b-1)//2 + a`` and true when ``b`` is left of ``a`` on the axis, so
"``a`` left of ``b``" is its negation.  The valley clauses ``(ba or cb)``
and ``(ab or bc)`` of a vote preferring ``a`` and ``c`` to ``b`` say
``ab == cb``, so a chain over the sorted dominators of ``b`` states them
all.  ``encode`` finds every chain in one numpy pass: it stacks each vote's
dominance bits (a ranked vote compares its ranks, a pair-based vote unpacks
its rows) and one ``np.nonzero`` lists the dominators of each vote and
candidate in order.  A union-find with a parity bit decides such a system;
it applies each distinct equivalence once, as a repeat finds both ends in
one class with the parity it already states, so it changes nothing and
closes no odd cycle.  With a total order in the profile, any solution is
transitive and therefore an axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import axis_check
from .errors import ClassError, NoTotalOrderError
from .model import OrderClass, Refusal, Verdict


@dataclass
class TwoSatInstance:
    """Equivalences over pair variables: ``(u, v, flip)`` says u == v xor flip."""

    num_vars: int
    clauses: list[tuple[int, int, bool]] = field(default_factory=list)


def pair_var(a, b):
    """The variable of the pair {a, b} and whether "a left of b" negates it."""
    if a < b:
        return b * (b - 1) // 2 + a, True
    return a * (a - 1) // 2 + b, False


def encode(profile):
    """Equivalence system for a local-weak-order profile containing a total order.

    Per vote and candidate ``b``, the equalities ``ab == cb`` between
    consecutive sorted dominators ``a, c`` of ``b``.
    """
    if profile.order_class() > OrderClass.LOCAL_WEAK:
        raise ClassError("the 2-SAT encoding requires local weak orders")
    if not profile.contains_total_order():
        raise NoTotalOrderError(
            "the 2-SAT recognizer requires a profile containing a total order"
        )
    m = profile.m
    # dominated[k, b, a]: vote k prefers a to b
    dominated = np.empty((len(profile.votes), m, m), bool)
    for vote, block in zip(profile.votes, dominated):
        if vote.has_ranks():
            ranks = np.array(vote.ranks)
            np.less(ranks, ranks[:, None], out=block)
        else:
            row = b"".join(r.to_bytes((m + 7) // 8, "little") for r in vote.rows())
            bits = np.frombuffer(row, np.uint8).reshape(m, -1)
            block[...] = np.unpackbits(bits, axis=1, count=m, bitorder="little").T
    # the dominators of each (vote, b) in ascending order; a clause joins
    # each one to the next of the same (vote, b)
    k, b, a = np.nonzero(dominated)
    same = (k[1:] == k[:-1]) & (b[1:] == b[:-1])
    b, first, second = b[1:][same], a[:-1][same], a[1:][same]

    def var(c):
        hi, lo = np.maximum(c, b), np.minimum(c, b)
        return hi * (hi - 1) // 2 + lo

    flip = (first < b) ^ (second < b)
    clauses = list(zip(var(first).tolist(), var(second).tolist(), flip.tolist()))
    return TwoSatInstance(m * (m - 1) // 2, clauses)


def solve_2sat(instance):
    """Assignment (list of bool) satisfying every equivalence, or None.

    Union-find by size with a parity bit: ``parity[v]`` is v's value xor its
    parent's.  An equivalence inside one class that disagrees with the
    parities closes an odd cycle, so the system has no solution.  Each
    distinct equivalence is applied once, in order of first occurrence.
    Every root is false, so a variable's value is its parity to its root.
    """
    n = instance.num_vars
    parent = list(range(n))
    parity = [False] * n
    size = [1] * n

    def find(v):
        """Root of v and v's parity to it; compresses the path."""
        path = []
        while parent[v] != v:
            path.append(v)
            v = parent[v]
        flip = False
        for u in reversed(path):
            flip ^= parity[u]
            parent[u], parity[u] = v, flip
        return v, flip

    for u, v, flip in dict.fromkeys(instance.clauses):
        ru, pu = find(u)
        rv, pv = find(v)
        if ru == rv:
            if pu ^ pv != flip:
                return None
            continue
        if size[ru] > size[rv]:
            ru, rv = rv, ru
        parent[ru], parity[ru] = rv, pu ^ pv ^ flip
        size[rv] += size[ru]
    return [find(v)[1] for v in range(n)]


def recognize_lwo_with_total(profile):
    """Recognise a local-weak-order profile that contains a total order."""
    inst = encode(profile)
    assignment = solve_2sat(inst)
    if assignment is None:
        return Verdict.no(
            Refusal("pair-ordering constraints are unsatisfiable"),
            algorithm="twosat",
        )
    # candidates sorted by how many others they are left of; the verified
    # exit, not a transitivity scan, catches an assignment that is no order
    m = profile.m
    b, a = np.tril_indices(m, -1)
    left_counts = np.bincount(np.where(assignment, b, a), minlength=m)
    order = np.argsort(-left_counts, kind="stable").tolist()
    return axis_check.verified(profile, order, "twosat")
