"""Consecutive-ones solving via PQ-trees.

A PQ-tree over columns ``0..m-1`` compactly represents a set of column
permutations: P-node children may be permuted arbitrarily, Q-node children
only read forwards or backwards.  Reducing the tree by each row's column set
restricts the represented permutations to those where the set is consecutive;
the tree's frontier after all reductions is a witnessing permutation.

Every node keeps the bitmask of its leaf columns.  A P-node holds its leaf
children as one bitmask of their columns and lists only its other children,
so the leaves a row meets in it are one mask operation away and a leaf the
row misses is never visited.  A Q-node keeps its children on two stacks,
read leftwards and rightwards from a fixed middle.  Each child of a Q-node
caches its reach, the OR of the masks from the middle out through it, and
each side caches the set of its reaches, its cuts.  That cache is never
rebuilt: a turn swaps the two sides in O(1), a child added at either end
takes its reach from the end child, and children spliced in for one they
cover exactly get reaches of their own while every other reach stays.

A reduction climbs from the row's lowest leaf to the first node covering the
row, the pertinent root, and works top-down from there after Booth and
Lueker (1976, *JCSS* 13).  A row that is all of the pertinent root, or a run
of full children of a Q-node root, leaves the tree as it was.  The second
case takes O(1) at the root: the climb passes the root's child holding the
row's lowest column, and a few mask operations and set lookups compare the
row with the cuts around that child (``PQTree._full_run``).  Any other row
is reduced.  Each listed child is empty, full or partial by one test of its
mask against the row.  At a Q-node root the run of children the row meets
comes from keyed binary searches over the reaches of each side it meets,
and one more mask test tells whether the children inside the run are full.
Below the pertinent root a partial Q-node must meet the row in a run at one
of its ends, found by walking in from the other end.  So only partial
children are descended into, and below the pertinent root each partial node
may have one partial child.  That chain is reduced bottom-up by the P3, P5
and Q2 templates, then the pertinent root by P2, P4, P6 or Q3.  P3 and P5
add the new children at the two ends of the Q-node below, and P4 and P6 at
the right end of the root's reduced partial child.  A P-node's full leaves
are visited once, to move them into their new group.

A P-node's listed children keep their place among its leaves as a sort key,
and its leaves keep theirs as their columns, which stay ascending: a child
regrouped as full is keyed by its lowest column, one hung at the right end by
P2, P4 or P6 by a counter that starts at ``m``, and one put in another's place
takes that one's key.  ``frontier`` merges the two sequences by key, and
reads a Q-node's left side backwards and then its right side, so a turn is
honoured.  Q2 and Q3 splice the reduced children in where a partial child
was; they cover what it covered, so only their own reaches are new.

The witness depends on two orders: a P-node template orders the full
children it regroups by their lowest column, and at a P-node root with two
partial children the one whose lowest column in the row is larger takes in
the other.  ``solve_c1p_sets`` reduces the rows in ascending size order,
which on tie-dense weak profiles is 15-25 % faster than reducing them in
vote order; in that order about 80 % of the distinct rows ``c1p.recognize``
passes leave the tree unchanged, most of them at a Q-node root.

A row is a ``Bitset``: an ``int`` whose bit ``c`` is column ``c``, whose
``len`` is its number of columns and which iterates over its columns in
ascending order through ``model.iter_bits``.  The tree only ever tests it
as a mask.  Rows given as other collections of columns are converted to a
``Bitset`` once, when they enter the tree.

``solve_c1p_sets`` is the production solver.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from itertools import chain

from .model import iter_bits


class Bitset(int):
    """A set of column indices held as a bitmask: bit ``c`` is column ``c``.

    A sized collection of distinct columns: ``len`` is the popcount and
    iteration yields the columns in ascending order.
    """

    __slots__ = ()

    __len__ = int.bit_count

    __iter__ = iter_bits

    @classmethod
    def of(cls, cols):
        """The bitset of the distinct column indices ``cols``.  Raises
        ValueError on a negative column."""
        mask = 0
        for c in cols:
            if c < 0:
                raise ValueError(f"column {c} is out of range: columns are non-negative")
            mask |= 1 << c
        return cls(mask)


class _Node:
    __slots__ = ("kind", "children", "leaves", "parent", "col", "key", "mask",
                 "sides", "reach")

    def __init__(self, kind, children=None, leaves=0, col=None):
        self.kind = kind  # 'P', 'Q' or 'L'
        # a P-node holds its leaf children as the bitmask ``leaves`` of their
        # columns and lists only its other children, ascending by ``key``
        # (see ``PQTree._ordered``); a Q-node holds its children in ``sides``
        # (see ``_q_node``), and each of them keeps its ``reach`` there
        self.children = children or []
        self.leaves = leaves
        self.parent = None
        self.col = col
        self.key = col
        # bitmask of the node's leaf columns
        self.mask = 1 << col if kind == "L" else leaves
        self.sides = None
        for ch in self.children:
            ch.parent = self
            self.mask |= ch.mask


def _q_node(first, last):
    """A Q-node reading ``first`` then ``last``.

    A Q-node's ``sides`` are ``[(left, cuts), (right, cuts)]``: two stacks
    of its children, read outward from a fixed middle, so the node reads
    ``left[::-1] + right``.  Each child keeps as ``reach`` the columns of
    its stack from the middle out through itself, and a side's ``cuts`` is
    the set of its children's reaches and 0: for each place between two
    children, or at the middle, the columns between it and the middle.  A
    turn swaps the sides.  A child added at an end takes its reach from the
    end child.  Children spliced in for one whose columns they cover exactly
    leave the reaches outward of it as they were, and the last of them takes
    its reach, so no cut is ever lost.  Neither side is ever empty.
    """
    node = _Node("Q")
    node.sides = [([], {0}), ([], {0})]
    _push(node, 0, [first])
    _push(node, 1, [last])
    return node


def _stretch(node, kids, reach, cuts):
    """Adopt ``kids`` into the Q-node ``node`` as a stretch of one side,
    read outward from the cut ``reach``, and add each one's reach to the
    side's ``cuts``."""
    for ch in kids:
        ch.parent = node
        reach |= ch.mask
        ch.reach = reach
        cuts.add(reach)


def _push(node, side, kids):
    """Add ``kids`` at the left (``side`` 0) or right (1) end of the Q-node
    ``node``, the first of them next to the end child."""
    stack, cuts = node.sides[side]
    _stretch(node, kids, stack[-1].reach if stack else 0, cuts)
    stack += kids
    node.mask |= stack[-1].reach


def _reading(node, back=False):
    """The children of the Q-node ``node`` left to right, or right to left
    if ``back``."""
    (left, _), (right, _) = node.sides
    return right[::-1] + left if back else left[::-1] + right


def _at(node, i):
    """The child of the Q-node ``node`` at index ``i``, left to right."""
    (left, _), (right, _) = node.sides
    return left[len(left) - 1 - i] if i < len(left) else right[i - len(left)]


def _splice(node, i, q, back):
    """Put the children of the Q-node ``q``, read backwards if ``back``,
    where the child of ``node`` at index ``i`` is.  They cover what that
    child covered, so only their own reaches are new."""
    k = len(node.sides[0][0])
    side, j = (0, k - 1 - i) if i < k else (1, i - k)
    stack, cuts = node.sides[side]
    kids = _reading(q, back != (side == 0))  # outward from the middle
    _stretch(node, kids, stack[j - 1].reach if j else 0, cuts)
    stack[j : j + 1] = kids


def _reduce_q(node, part, start, turn):
    """Q2: a partial Q-node below the pertinent root, turned if ``turn``,
    with its partial child's children spliced in where its run starts."""
    if turn:
        node.sides.reverse()
    if part is not None:
        _splice(node, start, part, False)
    return node


class PQTree:
    """PQ-tree over ``m`` columns, reducible row by row."""

    def __init__(self, m):
        self.m = m
        self.leaves = [_Node("L", col=c) for c in range(m)]
        # the next key of a child hung at the right end of a P-node, above
        # every column and every key given before
        self.next_key = m
        self.root = self._group((1 << m) - 1, [], None) if m else _Node("P")

    def _ordered(self, node):
        """The children of ``node`` left to right.  A P-node's leaf children
        take their columns as keys, so its two sequences merge by key."""
        if node.kind == "Q":
            return _reading(node)
        leaves = [self.leaves[c] for c in Bitset(node.leaves)]
        return sorted(leaves + node.children, key=operator.attrgetter("key"))

    def _group(self, leaves, nodes, parent):
        """One child of ``parent`` standing for the leaves of the columns in
        the bitmask ``leaves`` and the other children ``nodes``: the only one
        of them, or a P-node of them all, each keyed by its lowest column."""
        if not nodes and leaves & (leaves - 1) == 0:
            node = self.leaves[leaves.bit_length() - 1]
        elif not leaves and len(nodes) == 1:
            node = nodes[0]
        else:
            for ch in nodes:
                ch.key = (ch.mask & -ch.mask).bit_length() - 1
            nodes.sort(key=operator.attrgetter("key"))
            node = _Node("P", nodes, leaves)
            while leaves:  # a few leaves: cheaper than unpacking the mask
                low = leaves & -leaves
                self.leaves[low.bit_length() - 1].parent = node
                leaves ^= low
        node.parent = parent
        return node

    def _hang(self, node, child):
        """Put ``child`` at the right end of the P-node ``node``."""
        child.parent = node
        child.key = self.next_key
        self.next_key += 1
        node.children.append(child)

    def _replace(self, old, new):
        """Put ``new`` where the inner node ``old`` hangs in the tree."""
        parent = old.parent
        new.parent = parent
        new.key = old.key
        if parent is None:
            self.root = new
            return
        if parent.kind == "P":
            siblings = parent.children
        else:
            new.reach = old.reach
            siblings = next(stack for stack, _ in parent.sides if old in stack)
        siblings[siblings.index(old)] = new

    # -- reduction ---------------------------------------------------------

    def reduce(self, cols):
        """Restrict to permutations where ``cols`` is consecutive.

        ``cols`` is a sized collection of distinct column indices; a
        ``Bitset`` is used as it is, any other collection is converted to
        one.  Raises ValueError if a column is negative or not below ``m``.
        Returns False if the restriction is impossible; the tree is then left
        in an unspecified state and must not be reduced further.
        """
        row = cols if isinstance(cols, Bitset) else Bitset.of(cols)
        if row >> self.m:
            raise ValueError(
                f"column {row.bit_length() - 1} is out of range for {self.m} columns"
            )
        size = row.bit_count()
        if size <= 1 or size >= self.m:
            return True
        node, below = self._pertinent_root(row)
        if node.mask == row:
            return True
        if node.kind == "Q":
            return self._full_run(node, below, row) or self._reduce_q_root(node, row)
        return self._reduce_p_root(node, row)

    def _pertinent_root(self, row):
        """The deepest node whose leaves cover the bitmask ``row`` of two or
        more columns, found by climbing from the leaf of the row's lowest
        column, and its child the climb came from."""
        below = self.leaves[(row & -row).bit_length() - 1]
        node = below.parent
        while node.mask & row != row:
            below, node = node, node.parent
        return node, below

    @staticmethod
    def _full_run(node, below, row):
        """Whether ``row`` is the union of a run of children of the Q-node
        pertinent root ``node``, so that reducing by it changes nothing;
        ``below`` is the child holding the row's lowest column.

        Let ``lo`` be the reach of ``below`` minus the row.  The row is such
        a run exactly when ``lo`` and ``lo`` with the row's columns on
        ``below``'s side are both cuts of that side, and the row's columns
        on the other side, if any, are a cut there with ``lo`` empty (the
        run crosses the middle).  That is a few mask operations and set
        lookups, however long the node."""
        (stack, near), (other, far) = node.sides
        total = stack[-1].reach
        if not below.mask & total:
            near, far, total = far, near, other[-1].reach
        lo = below.reach & ~row
        own = row & total
        if own != row and (lo or row ^ own not in far):
            return False
        return lo in near and lo | own in near

    @staticmethod
    def _run(node, row):
        """``(first, last)``, the indices left to right of the first and the
        last child of the Q-node pertinent root ``node`` that meet ``row``,
        or None unless every child between them lies inside the row.

        ``reduce`` asks only for a row that ``_full_run`` found is not a run
        of full children, so a row that leaves the tree as it was is never
        searched for.  The cached reaches are read as they stand, since a
        turn only swapped the node's sides and appends and splices kept
        them.  The children are disjoint, so on each side the reaches meet
        the row's part there in a growing set: the children meeting it run
        from the first reach meeting it to the first covering it, two keyed
        bisections of the side.  A run with columns on both sides must hold
        the children next to the middle, so only its outer ends are sought.
        """
        (left, _), (right, _) = node.sides
        k = len(left)
        lpart = row & left[-1].reach
        rpart = row ^ lpart
        if lpart and rpart:
            b = bisect_left(left, lpart, key=lambda ch: ch.reach & lpart)
            c = bisect_left(right, rpart, key=lambda ch: ch.reach & rpart)
            inner = (left[b - 1].reach if b else 0) | (right[c - 1].reach if c else 0)
            first, last = k - 1 - b, k + c
        else:
            stack, part = (left, lpart) if lpart else (right, rpart)
            a = bisect_left(stack, 1, key=lambda ch: ch.reach & part)
            b = bisect_left(stack, part, key=lambda ch: ch.reach & part)
            inner = stack[b - 1].reach ^ stack[a].reach
            first, last = (k - 1 - b, k - 1 - a) if lpart else (k + a, k + b)
        return (first, last) if inner & row == inner else None

    @staticmethod
    def _end_run(node, row):
        """``(part, start, turn)`` for the partial Q-node ``node`` below the
        pertinent root, or None.  The children meeting ``row`` must be a run
        at one end of the node, all inside the row but for one partial child
        ``part`` at the run's inner end; the node is to be turned if the run
        is at its left end, and ``start`` is the index of ``part`` once it is.

        The children outside the run are walked in from the other end, and
        one mask test tells whether all beyond the first child meeting the
        row are inside it.  No cached reach is read."""
        (left, _), (right, _) = node.sides
        first = left[-1].mask
        # with both ends in the row, the partial one is the run's inner end
        turn = not right[-1].mask & row or first & row == first
        rest = node.mask
        walk = chain(reversed(right), left) if turn else chain(reversed(left), right)
        for start, ch in enumerate(walk):
            cut = ch.mask & row
            if cut:
                part = ch if cut != ch.mask else None
                if part is not None:
                    rest ^= ch.mask
                return None if rest & ~row else (part, start, turn)
            rest ^= ch.mask
        return None

    @staticmethod
    def _split(node, row):
        """The full leaf children of the P-node ``node`` as a bitmask, and
        its other children outside ``row``, inside it and partly in it, as
        three lists.  The empty leaves are never visited."""
        empties, fulls, parts = [], [], []
        for ch in node.children:
            cut = ch.mask & row
            if not cut:
                empties.append(ch)
            elif cut == ch.mask:
                fulls.append(ch)
            else:
                parts.append(ch)
        return node.leaves & row, empties, fulls, parts

    def _reduce_p(self, node, part, cut, empties, fulls, row):
        """P3 and P5: a partial P-node below the pertinent root becomes a
        Q-node of its empty children, its partial child's children and its
        full ones.  Two or more empty children stay in ``node``, so its empty
        leaves keep their parent.  The partial child, a Q-node, takes the
        empty and the full children at its ends; without one, a new Q-node
        holds them."""
        rest = node.leaves ^ cut
        if rest.bit_count() + len(empties) > 1:
            node.leaves, node.children = rest, empties
            node.mask &= ~(row | part.mask) if part is not None else ~row
            empty = node
        elif rest:
            empty = self.leaves[rest.bit_length() - 1]
        else:
            empty = empties[0] if empties else None
        full = self._group(cut, fulls, None) if cut or fulls else None
        if part is None:
            return _q_node(empty, full)
        if empty is not None:
            _push(part, 0, [empty])
        if full is not None:
            _push(part, 1, [full])
        return part

    def _reduce_partial(self, node, row):
        """Reduce the partial ``node`` below the pertinent root to a Q-node
        that reads from its children outside ``row`` to those inside, and
        return that Q-node, or None.  Each partial node on the way down may
        have one partial child; the chain is collected top-down and reduced
        bottom-up, each template taking the Q-node the one below returned."""
        chain = []
        while node is not None:
            if node.kind == "P":
                cut, empties, fulls, parts = self._split(node, row)
                if len(parts) > 1:
                    return None
                chain.append((self._reduce_p, node, cut, empties, fulls, row))
                node = parts[0] if parts else None
            else:
                run = self._end_run(node, row)
                if run is None:
                    return None
                part, start, turn = run
                chain.append((_reduce_q, node, start, turn))
                node = part
        below = None
        for template, node, *args in reversed(chain):
            below = template(node, below, *args)
        return below

    def _reduce_p_root(self, node, row):
        """P2, P4 and P6: the pertinent root is a P-node."""
        cut, empties, fulls, parts = self._split(node, row)
        node.leaves ^= cut
        node.children = empties
        if not parts:
            # P2: the full children become one P-node
            self._hang(node, self._group(cut, fulls, None))
            return True
        if len(parts) > 2:
            return False
        parts = [self._reduce_partial(p, row) for p in parts]
        if None in parts:
            return False
        # P4/P6: one Q-node holds the partial children and the full ones; of
        # two partial children, the one with the larger lowest row column
        # takes in the other
        if len(parts) == 2:
            a, b = (p.mask & row for p in parts)
            if a & -a < b & -b:
                parts.reverse()
        q = parts[0]
        if cut or fulls:
            _push(q, 1, [self._group(cut, fulls, None)])
        if len(parts) == 2:
            _push(q, 1, _reading(parts[1], back=True))
        if node.leaves or empties:
            self._hang(node, q)
        else:
            self._replace(node, q)
        return True

    def _reduce_q_root(self, node, row):
        """Q3: the pertinent root is a Q-node, empty* [partial] full* [partial] empty*."""
        run = self._run(node, row)
        if run is None:
            return False
        first, last = run
        for i in (last, first):
            end = _at(node, i)
            if end.mask & ~row:
                end = self._reduce_partial(end, row)  # full side last
                if end is None:
                    return False
                _splice(node, i, end, back=i == last)
        return True

    # -- output ------------------------------------------------------------

    def frontier(self):
        """Leaf columns left to right."""
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.kind == "L":
                out.append(node.col)
            else:
                stack.extend(reversed(self._ordered(node)))
        return out


def solve_c1p_sets(rows, m):
    """Column permutation making every row's columns consecutive, or None.

    ``rows`` is an iterable of sized collections of distinct column indices,
    such as ``Bitset`` rows.  Rows of size <= 1 or covering all columns are
    unconstraining and skipped.  The rows are reduced smallest first; rows of
    equal size keep their input order.  A repeated row, in any column order,
    leaves the tree unchanged.

    A ``Bitset`` row is tested as it is, with no pass over its cells; a row
    of another type is first converted to one.  A row the tree already keeps
    consecutive costs the climb from its lowest leaf and O(1) more.  One it
    does not costs, in each node it partly covers, a pass
    over the node's listed children if it is a P-node, whose leaf children
    are one mask, and a walk over the children outside the row's run if it
    is a Q-node below the pertinent root; the full leaves of a P-node are
    visited once, to move them into their new group.  ``c1p`` passes each
    distinct row of its reduction once, as a ``Bitset``, cut into a
    circular-ones instance on ``m + 1`` columns (``c1p._solve``).  A row
    with a negative column or one not below ``m`` raises ValueError.
    """
    tree = PQTree(m)
    for row in sorted(rows, key=len):
        if not tree.reduce(row):
            return None
    return tree.frontier()

