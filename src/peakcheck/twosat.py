"""2-SAT based recognition for local weak orders containing a total order.

One Boolean variable per ordered candidate pair: ``ab`` true means ``a`` is
left of ``b`` on the axis.  For every vote and every candidate pair ``a, c``
both preferred to some ``b`` (a potential valley around ``b``), the clauses
``(ba or cb)`` and ``(ab or bc)`` forbid placing ``b`` between ``a`` and
``c``; exclusive-or clauses make the pair variables a proper orientation.
With a total order present in the profile, any satisfying assignment is
transitive and therefore an axis.

Variables are indexed ``a*m + b``; the complement variable of ``v`` is
``(v % m) * m + (v // m)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import axis_check
from .errors import ClassError, InternalError, NoTotalOrderError
from .model import Axis, OrderClass, Refusal, Verdict


@dataclass
class TwoSatInstance:
    """Clauses over pair variables; literals are (variable, negated) pairs."""

    num_vars: int
    clauses: list[tuple[tuple[int, bool], tuple[int, bool]]] = field(
        default_factory=list
    )

    def add(self, lit1, lit2):
        self.clauses.append((lit1, lit2))

    def to_dimacs(self):
        """DIMACS-style dump (variables 1-based, '-' for negation)."""
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        for (v1, n1), (v2, n2) in self.clauses:
            a = -(v1 + 1) if n1 else v1 + 1
            b = -(v2 + 1) if n2 else v2 + 1
            lines.append(f"{a} {b} 0")
        return "\n".join(lines)


def pair_var(a, b, m):
    return a * m + b


def encode(profile):
    """2-SAT instance for a local-weak-order profile containing a total order.

    Only triples forming a potential valley (``a > b`` and ``c > b`` in some
    vote) generate clauses; the pairwise exclusive-or clauses are always
    present.
    """
    if profile.order_class() > OrderClass.LOCAL_WEAK:
        raise ClassError("the 2-SAT encoding requires local weak orders")
    if not profile.contains_total_order():
        raise NoTotalOrderError(
            "the 2-SAT recognizer requires a profile containing a total order"
        )
    m = profile.m
    inst = TwoSatInstance(m * m)
    seen = set()
    for vote in profile.votes:
        for b in range(m):
            dominators = sorted(vote.upper_set(b))
            for i, a in enumerate(dominators):
                for c in dominators[i + 1 :]:
                    key = (a, b, c)
                    if key in seen:
                        continue
                    seen.add(key)
                    # b must not lie between a and c
                    inst.add((pair_var(b, a, m), False), (pair_var(c, b, m), False))
                    inst.add((pair_var(a, b, m), False), (pair_var(b, c, m), False))
    for a in range(m):
        for b in range(a + 1, m):
            ab, ba = pair_var(a, b, m), pair_var(b, a, m)
            inst.add((ab, False), (ba, False))
            inst.add((ab, True), (ba, True))
    return inst


def solve_2sat(instance):
    """Satisfying assignment (list of bool) or None.

    Implication-graph strongly connected components (iterative Tarjan);
    variable true iff its component comes after its negation's in reverse
    topological order.
    """
    n = instance.num_vars
    size = 2 * n  # literal 2v = positive, 2v+1 = negative
    adj = [[] for _ in range(size)]

    def lit(v, negated):
        return 2 * v + (1 if negated else 0)

    for (v1, n1), (v2, n2) in instance.clauses:
        a, b = lit(v1, n1), lit(v2, n2)
        adj[a ^ 1].append(b)
        adj[b ^ 1].append(a)

    comp = [-1] * size
    low = [0] * size
    num = [0] * size
    visited = [False] * size
    counter = 0
    ncomp = 0
    stack = []
    on_stack = [False] * size

    for root in range(size):
        if visited[root]:
            continue
        work = [(root, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                visited[node] = True
                num[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            recurse = False
            for i in range(pi, len(adj[node])):
                nxt = adj[node][i]
                if not visited[nxt]:
                    work[-1] = (node, i + 1)
                    work.append((nxt, 0))
                    recurse = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], num[nxt])
            if recurse:
                continue
            if low[node] == num[node]:
                while True:
                    top = stack.pop()
                    on_stack[top] = False
                    comp[top] = ncomp
                    if top == node:
                        break
                ncomp += 1
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    assignment = []
    for v in range(n):
        if comp[2 * v] == comp[2 * v + 1]:
            return None
        # Tarjan numbers components in reverse topological order
        assignment.append(comp[2 * v] < comp[2 * v + 1])
    return assignment


def recognize_lwo_with_total(profile):
    """Recognise a local-weak-order profile that contains a total order."""
    inst = encode(profile)
    assignment = solve_2sat(inst)
    if assignment is None:
        return Verdict.no(
            Refusal("pair-ordering constraints are unsatisfiable"),
            algorithm="twosat",
        )
    # candidates sorted by how many others they are left of; the axis check
    # below, not a transitivity scan, catches an assignment that is no order
    m = profile.m
    left_counts = [
        sum(assignment[c * m : (c + 1) * m]) - assignment[pair_var(c, c, m)]
        for c in range(m)
    ]
    order = sorted(range(m), key=lambda c: -left_counts[c])
    axis = Axis(tuple(order))
    if not axis_check.is_possibly_sp_on_axis(profile, axis):
        raise InternalError("2-SAT assignment produced an invalid axis")
    return Verdict.yes(axis, algorithm="twosat")
