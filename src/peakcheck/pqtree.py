"""Consecutive-ones solving via PQ-trees.

A PQ-tree over columns ``0..m-1`` compactly represents a set of column
permutations: P-node children may be permuted arbitrarily, Q-node children
only read forwards or backwards.  Reducing the tree by each row's column set
restricts the represented permutations to those where the set is consecutive;
the tree's frontier after all reductions is a witnessing permutation.

Every node keeps the bitmask of its leaf columns, and a Q-node caches the
running OR of its children's masks until its child list changes.  Most rows
of a tie-dense weak profile are already consecutive in every permutation the
tree represents, so a reduction first climbs from the row's lowest leaf to
the first node covering the row, the pertinent root, and stops there if the
row is all of that node or a run of that Q-node's children (two binary
searches over the cached prefixes).  Exactly these reductions leave the tree
as it was.  Any other row is reduced after Booth and Lueker (1976, *JCSS*
13), on the row's leaves and their ancestors only:

- each leaf of the row walks up only until it meets an ancestor already
  marked by this row, and every marked node records its marked children;
- the pertinent root, the deepest node above all of the row's leaves, is
  found by descending from the root while a node has one marked child;
- the marked nodes below it are labelled full or partial bottom-up by the
  P2-P6 and Q2/Q3 templates.  A Q-node template looks at marked children
  only: it finds the pertinent span from one marked child outwards and
  splices a partial child in by slice assignment, so only the nodes that
  move get a new parent.  A P-node template also scans the node's empty
  children, which it regroups.

The marks live in dictionaries local to one reduction.  ``solve_c1p_sets``
reduces the rows in ascending size order, which on tie-dense weak profiles
is 15-25 % faster than reducing them in vote order; in that order about 80 %
of the distinct rows ``c1p.recognize`` passes leave the tree unchanged.

A row is a ``Bitset``: an ``int`` whose bit ``c`` is column ``c``, whose
``len`` is its number of columns and which iterates over its columns in
ascending order.  The tree tests it as its own mask, and only a row that
reaches the marking body is unpacked into columns, with numpy.  Rows given
as other collections of columns are converted to a ``Bitset`` once, when
they enter the tree.

``solve_c1p_sets`` is the production solver; ``backtracking_c1p`` is an
independent small-scale oracle used to cross-check it.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left

import numpy as np

FULL, PARTIAL = 1, 2


class Bitset(int):
    """A set of column indices held as a bitmask: bit ``c`` is column ``c``.

    A sized collection of distinct columns: ``len`` is the popcount and
    iteration yields the columns in ascending order.
    """

    __slots__ = ()

    __len__ = int.bit_count

    def __iter__(self):
        data = self.to_bytes((self.bit_length() + 7) // 8, "little")
        bits = np.unpackbits(np.frombuffer(data, np.uint8), bitorder="little")
        return iter(bits.nonzero()[0].tolist())

    @classmethod
    def of(cls, cols):
        """The bitset of the distinct column indices ``cols``."""
        mask = 0
        for c in cols:
            mask |= 1 << c
        return cls(mask)


class _Node:
    __slots__ = ("kind", "children", "parent", "col", "mask", "prefix")

    def __init__(self, kind, children=None, col=None):
        self.kind = kind  # 'P', 'Q' or 'L'
        self.children = children or []
        self.parent = None
        self.col = col
        # bitmask of the node's leaf columns; for a Q-node, ``prefix`` caches
        # the running OR of its children's masks and is None until needed
        self.mask = 1 << col if kind == "L" else 0
        self.prefix = None
        for ch in self.children:
            ch.parent = self
            self.mask |= ch.mask


def _group(nodes, parent):
    """One child of ``parent`` standing for ``nodes``: itself or a P-node."""
    node = nodes[0] if len(nodes) == 1 else _Node("P", children=nodes)
    node.parent = parent
    return node


def _adopt(node, children):
    for ch in children:
        ch.parent = node


class PQTree:
    """PQ-tree over ``m`` columns, reducible row by row."""

    def __init__(self, m):
        self.m = m
        self.leaves = [_Node("L", col=c) for c in range(m)]
        if m == 1:
            self.root = self.leaves[0]
        else:
            self.root = _Node("P", children=list(self.leaves))

    def _replace(self, old, new):
        """Put ``new`` where ``old`` hangs in the tree."""
        parent = old.parent
        new.parent = parent
        if parent is None:
            self.root = new
        else:
            siblings = parent.children
            siblings[siblings.index(old)] = new

    # -- reduction ---------------------------------------------------------

    def reduce(self, cols):
        """Restrict to permutations where ``cols`` is consecutive.

        ``cols`` is a sized collection of distinct column indices; a
        ``Bitset`` is used as it is, any other collection is converted to
        one.  Returns False if that is impossible; the tree is then left in
        an unspecified state and must not be reduced further.
        """
        row = cols if isinstance(cols, Bitset) else Bitset.of(cols)
        size = row.bit_count()
        if size <= 1 or size >= self.m:
            return True
        if self._keeps(row):
            return True
        return self._reduce_marked(row)

    def _keeps(self, row):
        """Whether every represented permutation already keeps the columns
        of the bitmask ``row`` consecutive, so reducing by it changes nothing.

        Climbs from the leaf of the row's lowest column to the first node
        whose leaves cover the row, the pertinent root.  The row is kept
        exactly when it is all of that node's leaves, or when that node is a
        Q-node and the row is the union of a run of its children: a Q3 root
        with no partial child, or a full pertinent root.
        """
        node = self.leaves[(row & -row).bit_length() - 1]
        while node.mask & row != row:
            node = node.parent
        if node.mask == row:
            return True
        if node.kind != "Q":
            return False
        prefix = node.prefix
        if prefix is None:
            masks = [ch.mask for ch in node.children]
            prefix = node.prefix = list(itertools.accumulate(masks, operator.or_))
        # the children are disjoint, so ``p & row`` grows along the prefixes:
        # the run starts at the first prefix meeting the row and ends at the
        # first covering it
        first = bisect_left(prefix, 1, key=row.__and__)
        last = bisect_left(prefix, row, key=row.__and__)
        before = prefix[first - 1] if first else 0
        return prefix[last] ^ before == row

    def _reduce_marked(self, cols):
        """``reduce`` by marking every leaf of ``cols`` and its ancestors."""
        # marked node -> its marked children (None for a leaf)
        marked = {}
        leaves = self.leaves
        for c in cols:
            child = leaves[c]
            marked[child] = None
            parent = child.parent
            while parent is not None:
                kids = marked.get(parent)
                if kids is not None:
                    kids.append(child)
                    break
                marked[parent] = [child]
                child = parent
                parent = child.parent
        proot = self.root
        kids = marked[proot]
        while len(kids) == 1:
            proot = kids[0]
            kids = marked[proot]
        # internal marked nodes, each after its parent; walked backwards
        order = [proot]
        for node in order:
            order.extend(filter(marked.__getitem__, marked[node]))
        # node -> its children labelled partial
        partials = {}
        for i in range(len(order) - 1, 0, -1):
            node = order[i]
            reduce_node = self._reduce_p if node.kind == "P" else self._reduce_q
            label = reduce_node(node, marked[node], partials.get(node, ()), marked)
            if label is None:
                return False
            if label == PARTIAL:
                partials.setdefault(node.parent, []).append(node)
        reduce_root = self._reduce_p_root if proot.kind == "P" else self._reduce_q_root
        return reduce_root(proot, marked[proot], partials.get(proot, ()), marked)

    @staticmethod
    def _reduce_p(node, kids, parts, marked):
        """P3 and P5: a P-node below the pertinent root."""
        if not parts and len(kids) == len(node.children):
            return FULL
        if len(parts) > 1:
            return None
        empties = [ch for ch in node.children if ch not in marked]
        node.kind = "Q"
        if not parts:
            # P3: a Q-node of the empty group then the full group
            node.children = [_group(empties, node), _group(kids, node)]
            return PARTIAL
        # P5: the partial child's children, extended on both ends
        q = parts[0]
        merged = q.children
        _adopt(node, merged)
        if empties:
            merged.insert(0, _group(empties, node))
        if len(kids) > 1:
            merged.append(_group([ch for ch in kids if ch is not q], node))
        node.children = merged
        return PARTIAL

    @staticmethod
    def _span(node, kids, marked):
        """Start of the run the marked ``kids`` form among ``node``'s
        children, or None if they do not form one run."""
        children = node.children
        lo = children.index(kids[0])
        hi = lo + 1
        while lo > 0 and children[lo - 1] in marked:
            lo -= 1
        n = len(children)
        while hi < n and children[hi] in marked:
            hi += 1
        return lo if hi - lo == len(kids) else None

    def _reduce_q(self, node, kids, parts, marked):
        """Q2: a Q-node below the pertinent root must read empty* [partial] full*."""
        children = node.children
        n = len(children)
        if not parts and len(kids) == n:
            return FULL
        if len(parts) > 1:
            return None
        lo = self._span(node, kids, marked)
        if lo is None:
            return None
        hi = lo + len(kids)
        # orient the node so that the run ends at its right end, with a
        # partial child at the run's inner (left) end
        if hi == n and (not parts or children[lo] is parts[0]):
            pass
        elif lo == 0 and (not parts or children[hi - 1] is parts[0]):
            children.reverse()
            lo = n - hi
        else:
            return None
        if parts:
            grand = parts[0].children  # empty side first, full side last
            _adopt(node, grand)
            children[lo : lo + 1] = grand
        return PARTIAL

    def _reduce_p_root(self, node, kids, parts, marked):
        """P2, P4 and P6: the pertinent root is a P-node."""
        if len(parts) > 2:
            return False
        if not parts and len(kids) == len(node.children):
            return True
        empties = [ch for ch in node.children if ch not in marked]
        if not parts:
            # P2: the full children become one P-node
            empties.append(_group(kids, node))
            node.children = empties
            return True
        # P4/P6: one Q-node holds the partial children and the full ones
        q = parts[0]
        if len(kids) > len(parts):
            fulls = _group([ch for ch in kids if ch not in parts], q)
            q.children.append(fulls)
            q.mask |= fulls.mask
        if len(parts) == 2:
            moved = parts[1].children
            moved.reverse()
            _adopt(q, moved)
            q.children.extend(moved)
            q.mask |= parts[1].mask
        q.prefix = None
        if empties:
            empties.append(q)
            node.children = empties
        else:
            self._replace(node, q)
        return True

    def _reduce_q_root(self, node, kids, parts, marked):
        """Q3: the pertinent root is a Q-node, empty* [partial] full* [partial] empty*."""
        lo = self._span(node, kids, marked)
        if lo is None:
            return False
        hi = lo + len(kids)
        children = node.children
        left, right = children[lo], children[hi - 1]
        if any(p is not left and p is not right for p in parts):
            return False
        if right in parts:
            grand = right.children
            grand.reverse()  # full side faces left
            _adopt(node, grand)
            children[hi - 1 : hi] = grand
        if left in parts:
            grand = left.children  # full side faces right
            _adopt(node, grand)
            children[lo : lo + 1] = grand
        node.prefix = None
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
                stack.extend(reversed(node.children))
        return out


def solve_c1p_sets(rows, m):
    """Column permutation making every row's columns consecutive, or None.

    ``rows`` is an iterable of sized collections of distinct column indices,
    such as ``Bitset`` rows.  Rows of size <= 1 or covering all columns are
    unconstraining and skipped.  The rows are reduced smallest first; rows of
    equal size keep their input order.  A repeated row, in any column order,
    leaves the tree unchanged.

    A ``Bitset`` row is tested as it is, with no pass over its cells; a row
    of another type is first converted to one.  Only a row the tree does not
    already keep consecutive then costs about one mark per cell.  So callers
    pass few cells: ``c1p.recognize`` passes one row per distinct upper set
    of a vote, not one per candidate, and ``c1p`` passes the distinct rows
    cut into a circular-ones instance on ``m + 1`` columns, in which every
    row holding the cut column is replaced by its complement.
    """
    if m == 0:
        return []
    tree = PQTree(m)
    for row in sorted(rows, key=len):
        if not tree.reduce(row):
            return None
    return tree.frontier()


def backtracking_c1p(rows, m):
    """Small-scale independent C1P solver by left-to-right column placement.

    Prunes a branch as soon as a row that has started but not finished skips a
    position.  Intended as the test oracle for :func:`solve_c1p_sets`.
    """
    rows = [frozenset(r) for r in rows if 0 < len(r) < m]
    rows = list(dict.fromkeys(rows))
    sizes = [len(r) for r in rows]
    in_row = [[] for _ in range(m)]
    for ri, r in enumerate(rows):
        for c in r:
            in_row[c].append(ri)
    placed = [0] * len(rows)
    perm = []
    used = [False] * m

    def open_rows_ok(c):
        for ri, r in enumerate(rows):
            if 0 < placed[ri] < sizes[ri] and c not in r:
                return False
        return True

    def rec():
        if len(perm) == m:
            return True
        for c in range(m):
            if used[c] or not open_rows_ok(c):
                continue
            used[c] = True
            perm.append(c)
            for ri in in_row[c]:
                placed[ri] += 1
            if rec():
                return True
            for ri in in_row[c]:
                placed[ri] -= 1
            perm.pop()
            used[c] = False
        return False

    if rec():
        return list(perm)
    return None


def rows_consecutive_under(rows, perm):
    """Check every row is consecutive under the column permutation."""
    pos = {c: i for i, c in enumerate(perm)}
    for r in rows:
        r = set(r)
        if not r:
            continue
        ps = [pos[c] for c in r]
        if max(ps) - min(ps) + 1 != len(ps):
            return False
    return True
