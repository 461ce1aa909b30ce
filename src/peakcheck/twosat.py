"""2-SAT based recognition for local weak orders containing a total order.

One Boolean variable per candidate pair ``a < b``, indexed
``b*(b-1)//2 + a`` and true when ``b`` is left of ``a`` on the axis, so
"``a`` left of ``b``" is its negation.  The valley clauses ``(ba or cb)``
and ``(ab or bc)`` of a vote preferring ``a`` and ``c`` to ``b`` say
``ab == cb``, so a chain over the sorted dominators of ``b`` states them
all.  A union-find with a parity bit decides such a system.  With a total
order in the profile, any solution is transitive and therefore an axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    clauses = []
    for rows in (vote.rows() for vote in profile.votes):
        for b in range(m):
            dominators = [pair_var(a, b) for a, row in enumerate(rows) if row >> b & 1]
            clauses.extend(
                (u, v, nu ^ nv) for (u, nu), (v, nv) in zip(dominators, dominators[1:])
            )
    return TwoSatInstance(m * (m - 1) // 2, clauses)


def solve_2sat(instance):
    """Assignment (list of bool) satisfying every equivalence, or None.

    Union-find by size with a parity bit: ``parity[v]`` is v's value xor its
    parent's.  An equivalence inside one class that disagrees with the
    parities closes an odd cycle, so the system has no solution.  Every root
    is false, so a variable's value is its parity to its root.
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

    for u, v, flip in instance.clauses:
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
    left_counts = [0] * m
    pairs = ((a, b) for b in range(m) for a in range(b))
    for (a, b), b_left in zip(pairs, assignment):
        left_counts[b if b_left else a] += 1
    order = sorted(range(m), key=lambda c: -left_counts[c])
    return axis_check.verified(profile, order, "twosat")
