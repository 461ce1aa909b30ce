"""Data model: preference orders, profiles, axes and verdicts.

Candidates are dense integer ids ``0 .. m-1``; display names are resolved at
the I/O boundary only.  A preference order is a strict partial order stored
transitively closed.  Orders whose incomparability relation is transitive
(total, top and weak orders) are stored as rank buckets, which gives O(1)
pairwise comparisons and O(1) extremum queries.  Every other order is
stored as bitset rows: one Python int per candidate, holding the candidates
it is strictly preferred to, so a comparison is one bit test.
"""

from __future__ import annotations

import enum
import itertools
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ClassError, CycleError, PeakcheckError


class OrderClass(enum.IntEnum):
    """Order taxonomy, from most to least specific.

    ``TOTAL < TOP < WEAK < LOCAL_WEAK < PARTIAL``; every order of a class also
    satisfies the predicates of all later (more general) classes.  A class
    is also built from its name in any case, with surrounding whitespace
    ignored (``OrderClass(" LocalWeak")``), or from the PrefLib data type
    that holds it (``soc``, ``soi``, ``toc``, ``toi``).
    """

    TOTAL = 0
    TOP = 1
    WEAK = 2
    LOCAL_WEAK = 3
    PARTIAL = 4

    @classmethod
    def _missing_(cls, value):
        if isinstance(value, str):
            return _ORDER_CLASS_NAMES.get(value.strip().lower())
        return None


# order-class names, with the PrefLib data types that hold each class
_ORDER_CLASS_NAMES = {
    "total": OrderClass.TOTAL, "soc": OrderClass.TOTAL,
    "top": OrderClass.TOP, "toi": OrderClass.TOP, "soi": OrderClass.TOP,
    "weak": OrderClass.WEAK, "toc": OrderClass.WEAK,
    "localweak": OrderClass.LOCAL_WEAK, "partial": OrderClass.PARTIAL,
}


class Notion(str, enum.Enum):
    """Single-peakedness notions a profile can be checked for.  Looking up
    an unknown name raises :class:`PeakcheckError`."""

    PSP = "psp"
    PLATEAUED = "plateaued"
    BLACK = "black"
    NECESSARY = "necessary"

    @classmethod
    def _missing_(cls, value):
        raise PeakcheckError(f"unknown notion {value!r}")


class WitnessKind(str, enum.Enum):
    V_VALLEY = "v_valley"
    U_VALLEY = "u_valley"
    PLATEAU = "plateau"
    NONPEAK_PLATEAU = "nonpeak_plateau"


@dataclass(frozen=True)
class ValleyWitness:
    """A forbidden substructure of one vote on a checked axis.

    ``candidates`` are listed in axis order: three for a v-valley (outer two
    strictly preferred to the middle), four for a u-valley (leftmost beats one
    inner candidate, rightmost beats the other), two for a plateau (adjacent
    indifferent pair), three for a nonpeak plateau (an indifferent pair with a
    strictly better candidate on their far side).
    """

    kind: WitnessKind
    vote_index: int
    candidates: tuple[int, ...]


@dataclass(frozen=True)
class Refusal:
    """A named refusal point of a recognition algorithm (no axis exists)."""

    reason: str
    vote_index: int | None = None
    detail: str = ""


Certificate = ValleyWitness | Refusal


def iter_bits(x):
    """Indices of the set bits of the non-negative int ``x``, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _closed_rows(pairs, m):
    """Closed rows of the strict comparisons ``a > b``: row ``a`` is the
    bitset of candidates ``a`` is preferred to.  A depth-first search closes
    each row in reverse topological order as the OR of its successors'
    closed rows (Purdom 1970), skipping successors already inside it; a
    candidate met again while still on the search path closes a cycle."""
    below = [0] * m
    for a, b in pairs:
        if not (0 <= a < m and 0 <= b < m):
            raise ValueError(f"candidate out of range: ({a}, {b})")
        if a == b:
            raise CycleError(f"reflexive comparison {a} > {a}")
        below[a] |= 1 << b
    state = bytearray(m)  # 0 unseen, 1 on the search path, 2 closed
    for root in (c for c in range(m) if below[c] and not state[c]):
        state[root] = 1
        path = [[root, below[root]]]  # each candidate and its successors still to visit
        while path:
            a, rest = path[-1]
            if not rest:
                state[path.pop()[0]] = 2
                continue
            low = rest & -rest
            b = low.bit_length() - 1
            row = below[b]
            if state[b] == 2 or not row:
                below[a] |= row
                path[-1][1] = rest & ~(row | low)
            elif state[b] == 1:
                raise CycleError(f"candidate {b} is preferred to itself after closure")
            else:
                state[b] = 1
                path.append([b, row])
    return below


def _weak_ranks(below, cands):
    """Dense ranks of ``cands`` if their rows form a weak order over them,
    else None.  There a candidate is preferred to exactly the candidates
    with smaller rows: taken by row size, the first of each level has as
    many candidates before it as its row holds, and every row holds them."""
    size = [row.bit_count() for row in below]
    order = sorted(cands, key=size.__getitem__)
    smaller = done = 0
    for i, c in enumerate(order):
        if size[c] != done:
            if size[c] != i:
                return None
            smaller |= sum(1 << x for x in order[done:i])
            done = i
        if below[c] != smaller:
            return None
    level = {s: r for r, s in enumerate(sorted({size[c] for c in cands}, reverse=True))}
    return [level[size[c]] for c in cands]


class PreferenceOrder:
    """One voter's (possibly incomplete) strict order over ``m`` candidates.

    Instances are immutable.  ``a`` is preferred to ``b`` iff ``prefers(a, b)``;
    incomparability and indifference are not distinguished.

    Every constructor stores a weak-or-tighter order as rank buckets and any
    other as bitset rows (:meth:`rows`), so equal votes store equal fields.
    Rank buckets are dense: every constructor, and every caller that passes
    ``ranks`` to ``__init__``, stores ranks that use each level from 0 to
    ``max(ranks)`` at least once.  Classification relies on it.  Strict
    comparisons go through :meth:`from_pairs` only.
    """

    __slots__ = ("m", "_ranks", "_below", "_class", "_hash")

    def __init__(self, m, ranks):
        self.m, self._ranks, self._below = m, tuple(ranks), None
        self._class = self._hash = None

    def _store(self, below):
        """Keep closed rows, as rank buckets if they form a weak order."""
        self.m, self._class, self._hash = len(below), None, None
        ranks = _weak_ranks(below, range(self.m))
        self._ranks = None if ranks is None else tuple(ranks)
        self._below = tuple(below) if ranks is None else None
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs, m):
        """Build the transitive closure of strict comparisons ``a > b``.

        Raises :class:`CycleError` if the closure violates asymmetry.  Orders
        whose incomparability is transitive are stored as rank buckets.
        """
        return cls.__new__(cls)._store(_closed_rows(pairs, m))

    @classmethod
    def from_ranks(cls, ranks):
        """Build a weak order from bucket indices (0 = most preferred)."""
        ranks = list(ranks)
        levels = sorted(set(ranks))
        if levels != list(range(len(levels))):
            remap = {r: i for i, r in enumerate(levels)}
            ranks = [remap[r] for r in ranks]
        return cls(len(ranks), ranks=ranks)

    @classmethod
    def from_total(cls, order):
        """Total order from a best-to-worst candidate sequence."""
        ranks = [0] * len(order)
        for pos, c in enumerate(order):
            ranks[c] = pos
        return cls(len(order), ranks=ranks)

    @classmethod
    def top_order(cls, ranked, m):
        """Top order ranking ``ranked`` best-to-worst, all others tied last."""
        k = len(ranked)
        ranks = [k] * m
        for pos, c in enumerate(ranked):
            ranks[c] = pos
        return cls.from_ranks(ranks)

    @classmethod
    def empty(cls, m):
        return cls(m, ranks=[0] * m)

    # -- basic queries ------------------------------------------------------

    @property
    def ranks(self):
        """Bucket index per candidate; only for weak-or-tighter orders."""
        if self._ranks is None:
            raise ClassError("rank buckets exist only for weak-or-tighter orders")
        return self._ranks

    def has_ranks(self):
        return self._ranks is not None

    def rows(self):
        """Per candidate, the bitset of the candidates it is strictly
        preferred to: bit ``b`` of ``rows()[a]`` is set iff ``prefers(a, b)``."""
        if self._below is not None:
            return self._below
        r = self._ranks
        return tuple(sum(1 << b for b, rb in enumerate(r) if rb > ra) for ra in r)

    def prefers(self, a, b):
        """True iff this vote strictly prefers ``a`` to ``b``."""
        if self._ranks is not None:
            return self._ranks[a] < self._ranks[b]
        return bool(self._below[a] >> b & 1)

    def pairs(self):
        """The strict relation as a frozenset of (preferred, dominated) pairs."""
        return frozenset(
            (a, b) for a, row in enumerate(self.rows()) for b in iter_bits(row)
        )

    def upper_set(self, c):
        """Candidates strictly preferred to ``c``."""
        if self._ranks is not None:
            rc = self._ranks[c]
            return frozenset(a for a in range(self.m) if self._ranks[a] < rc)
        return frozenset(a for a, row in enumerate(self._below) if row >> c & 1)

    def lower_set(self, c):
        """Candidates ``c`` is strictly preferred to."""
        if self._ranks is not None:
            rc = self._ranks[c]
            return frozenset(a for a in range(self.m) if self._ranks[a] > rc)
        return frozenset(iter_bits(self._below[c]))

    def minimal_elements(self):
        """Candidates that are not preferred to any candidate (bottom)."""
        return frozenset(c for c in range(self.m) if not self.lower_set(c))

    def maximal_elements(self):
        """Candidates no candidate is preferred to (top)."""
        return frozenset(c for c in range(self.m) if not self.upper_set(c))

    def buckets(self):
        """Indifference classes best-to-worst; only for weak-or-tighter orders."""
        out = [[] for _ in range(max(self.ranks) + 1)]
        for c, r in enumerate(self.ranks):
            out[r].append(c)
        return out

    def ranked_candidates(self):
        """Ranked candidates of a top order, best-to-worst.

        These are the candidates comparable to every other candidate.  For a
        top order they form a chain; incomparability only occurs in the bottom
        bucket.
        """
        if self.order_class() > OrderClass.TOP:
            raise ClassError("ranked_candidates requires a top order")
        # levels above the bottom hold one candidate each; a lone bottom one is ranked
        ranks = self.ranks
        top = max(ranks, default=0)
        return sorted(range(self.m), key=ranks.__getitem__)[: top + (self.m - top == 1)]

    def peak(self):
        """Unique top-ranked candidate of a nonempty top order, else None."""
        ranked = self.ranked_candidates()
        return ranked[0] if ranked else None

    def is_total(self):
        return self.order_class() == OrderClass.TOTAL

    # -- classification -----------------------------------------------------

    def order_class(self):
        """Tightest applicable class tag."""
        if self._class is None:
            self._class = self._classify()
        return self._class

    def _classify(self):
        m = self.m
        if self._ranks is not None:
            # dense ranks: levels 0..top all occur, so the top level holds
            # m - top candidates exactly when every other level holds one
            top = max(self._ranks)
            if top == m - 1:
                return OrderClass.TOTAL
            if self._ranks.count(top) == m - top:
                return OrderClass.TOP
            return OrderClass.WEAK
        # rows: weak-or-tighter was ruled out on construction.  The rows of
        # the candidates outside every comparison are empty and in no row.
        dominated = 0
        for row in self._below:
            dominated |= row
        rest = [c for c, row in enumerate(self._below) if row or dominated >> c & 1]
        if _weak_ranks(self._below, rest) is not None:
            return OrderClass.LOCAL_WEAK
        return OrderClass.PARTIAL

    # -- transformations -----------------------------------------------------

    def restrict(self, subset):
        """Induced order on ``subset``, candidates reindexed in sorted order."""
        subset = sorted(subset)
        if self._ranks is not None:
            return PreferenceOrder.from_ranks([self._ranks[c] for c in subset])
        # the restriction of a closed relation is closed: gather its bits
        rows = [self._below[c] for c in subset]
        rows = [sum(1 << i for i, b in enumerate(subset) if row >> b & 1) for row in rows]
        return PreferenceOrder.__new__(PreferenceOrder)._store(rows)

    def extensions(self):
        """All total-order extensions, streamed best-to-worst.

        Yields candidate sequences (best first).  Standard topological
        enumeration: repeatedly pick any currently-maximal candidate.
        """
        above = [sum(1 << a for a in self.upper_set(c)) for c in range(self.m)]

        def rec(left, chosen):
            if not left:
                yield chosen
            for c in iter_bits(left):
                if not above[c] & left:
                    yield from rec(left & ~(1 << c), chosen + (c,))

        yield from rec((1 << self.m) - 1, ())

    # -- dunder ---------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PreferenceOrder):
            return NotImplemented
        return (self.m, self._ranks, self._below) == (other.m, other._ranks, other._below)

    def __hash__(self):
        if self._hash is None:
            stored = self._below if self._ranks is None else self._ranks
            self._hash = hash((self.m, stored))
        return self._hash

    def __repr__(self):
        if self._ranks is not None:
            parts = []
            for bucket in self.buckets():
                parts.append("~".join(str(c) for c in bucket))
            return f"PreferenceOrder<{' > '.join(parts)}>"
        return f"PreferenceOrder<pairs={sorted(self.pairs())}, m={self.m}>"


class _Votes:
    """``Profile.votes``: the votes given, or those of the rank matrix,
    built on first read."""

    def __get__(self, profile, owner=None):
        if profile is None:
            raise AttributeError("votes")  # the field has no default
        state = profile.__dict__
        if "_votes" not in state:
            state["_votes"] = self.build(profile)
        return state["_votes"]

    def __set__(self, profile, votes):
        profile.__dict__["_votes"] = votes

    @staticmethod
    def build(profile):
        rows = profile.__dict__["_rank_matrix"].tolist()
        return tuple(PreferenceOrder(profile.m, row) for row in rows)


@dataclass(frozen=True)
class Profile:
    """An ordered multiset of votes over a shared candidate set.

    A profile whose votes all have rank buckets also has a rank matrix
    (:meth:`rank_matrix`), and classifies its votes from it in one pass.
    The matrix and the vote classes are built on first use and cached
    outside the dataclass fields, so equality and hashing ignore them.
    A profile built from a matrix (:meth:`from_rank_matrix`, and so every
    PrefLib file) holds only the matrix until its ``votes`` are read;
    :meth:`vote` builds one vote alone.
    """

    m: int
    votes: tuple[PreferenceOrder, ...] = _Votes()
    multiplicities: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "votes", tuple(self.votes or ()))
        self._check(len(self.votes))
        for v in self.votes:
            if v.m != self.m:
                raise ValueError("all votes must range over the same candidate set")

    def _check(self, n):
        """The constructor's refusals for ``n`` votes; the multiplicities
        become a tuple, all 1 when none are given."""
        if self.m < 1:
            raise ValueError("a profile needs at least one candidate")
        if not n:
            raise ValueError("a profile needs at least one vote")
        weights = () if self.multiplicities is None else tuple(self.multiplicities)
        object.__setattr__(self, "multiplicities", weights or (1,) * n)
        if len(self.multiplicities) != n:
            raise ValueError("one multiplicity per vote required")
        if any(w <= 0 for w in self.multiplicities):
            raise ValueError("multiplicities must be positive")

    @classmethod
    def from_rank_matrix(cls, ranks, multiplicities=()):
        """Profile with one vote per row of an n×m matrix of bucket indices.

        Each row is renumbered to dense ranks, as by ``PreferenceOrder.from_ranks``:
        through a table of the indices present in O(n · largest index) while
        that index is below 4·m, by sorting each row in O(n · m log m) past
        it.  The result becomes the profile's rank matrix, and the votes are
        built from it only when read.
        """
        ranks = np.asarray(ranks)
        if ranks.ndim != 2 or not np.issubdtype(ranks.dtype, np.integer):
            raise ValueError(
                "expected an n×m integer matrix of bucket indices, "
                f"got a {ranks.ndim}-D array of {ranks.dtype}"
            )
        if ranks.min(initial=0) < 0:
            raise ValueError("bucket indices must be non-negative")
        top = int(ranks.max(initial=0))
        if top < 4 * ranks.shape[1]:
            rows = np.arange(len(ranks))[:, None]
            present = np.zeros((len(ranks), top + 1), bool)
            present[rows, ranks] = True
            dense = (np.cumsum(present, axis=1, dtype=np.int32) - 1)[rows, ranks]
        else:
            # a table that large outgrows the matrix: number the distinct
            # indices of each sorted row instead
            order = np.argsort(ranks, axis=1)
            level = np.take_along_axis(ranks, order, axis=1)
            step = np.zeros(ranks.shape, np.int32)
            step[:, 1:] = level[:, 1:] != level[:, :-1]
            dense = np.empty_like(step)
            np.put_along_axis(dense, order, np.cumsum(step, axis=1, dtype=np.int32), axis=1)
        return cls._from_dense_ranks(dense, multiplicities)

    @classmethod
    def _from_dense_ranks(cls, ranks, multiplicities=()):
        """``from_rank_matrix`` for an ``int32`` matrix whose rows are dense
        ranks already, which becomes the profile's rank matrix as it is."""
        profile = cls.__new__(cls)
        object.__setattr__(profile, "m", ranks.shape[1])
        object.__setattr__(profile, "multiplicities", multiplicities)
        profile._check(len(ranks))
        profile._cache("_rank_matrix", ranks)
        return profile

    def _cache(self, name, array):
        array.flags.writeable = False
        object.__setattr__(self, name, array)
        return array

    @property
    def n(self):
        """Number of distinct votes."""
        return len(self.multiplicities)

    @property
    def total_voters(self):
        return sum(self.multiplicities)

    def vote(self, k):
        """Vote ``k``, built alone when the profile holds only its matrix."""
        if "_votes" in self.__dict__:
            return self.votes[k]
        return PreferenceOrder(self.m, self.rank_matrix()[k].tolist())

    def rank_matrix(self):
        """Read-only ``int32`` n×m matrix whose row k is ``votes[k].ranks``.

        Raises :class:`ClassError` when a vote has no rank buckets.
        """
        ranks = self.__dict__.get("_rank_matrix")
        if ranks is None:
            # struct converts a whole rank tuple in one call, about twice as
            # fast as np.fromiter over the chained tuples; a vote without
            # rank buckets raises ClassError
            row = struct.Struct(f"={self.m}i")
            rows = b"".join(row.pack(*v.ranks) for v in self.votes)
            ranks = np.frombuffer(rows, np.int32).reshape(self.n, self.m)
            ranks = self._cache("_rank_matrix", ranks)
        return ranks

    def _vote_classes(self):
        """Each vote's class tag as an array.  With a rank matrix this is one
        vectorised pass of ``PreferenceOrder._classify``'s dense-rank rule:
        total when the top level is m - 1, top when the top level holds
        m - top candidates, weak otherwise."""
        classes = self.__dict__.get("_classes")
        if classes is None:
            try:
                ranks = self.rank_matrix()
            except ClassError:
                classes = np.array([v.order_class() for v in self.votes])
            else:
                top = ranks.max(axis=1)
                at_top = np.count_nonzero(ranks == top[:, None], axis=1)
                classes = np.where(
                    top == self.m - 1,
                    OrderClass.TOTAL,
                    np.where(at_top == self.m - top, OrderClass.TOP, OrderClass.WEAK),
                )
            classes = self._cache("_classes", classes)
        return classes

    def order_class(self):
        """Loosest class among the votes (the class of the profile)."""
        return OrderClass(int(self._vote_classes().max()))

    def contains_total_order(self):
        return bool(np.any(self._vote_classes() == OrderClass.TOTAL))

    def first_total_order(self):
        total = np.flatnonzero(self._vote_classes() == OrderClass.TOTAL)
        return self.vote(int(total[0])) if len(total) else None

    def restrict(self, subset):
        return Profile(
            len(subset),
            tuple(v.restrict(subset) for v in self.votes),
            self.multiplicities,
        )

    def __repr__(self):
        return f"Profile(m={self.m}, votes={list(self.votes)!r})"


@dataclass(frozen=True)
class Axis:
    """A total order of candidates (the societal axis)."""

    order: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError("axis must be a permutation of 0..m-1")

    @property
    def m(self):
        return len(self.order)

    def positions(self):
        """position-of-candidate array (inverse permutation)."""
        pos = [0] * len(self.order)
        for i, c in enumerate(self.order):
            pos[c] = i
        return pos

    def reversed(self):
        return Axis(tuple(reversed(self.order)))

    def restrict(self, subset):
        keep = set(subset)
        sub = [c for c in self.order if c in keep]
        remap = {c: i for i, c in enumerate(sorted(keep))}
        return Axis(tuple(remap[c] for c in sub))

    def __iter__(self):
        return iter(self.order)

    def __len__(self):
        return len(self.order)

    def __getitem__(self, i):
        return self.order[i]


@dataclass(frozen=True)
class Verdict:
    """Decision result: a witnessing axis, or a refusal with a certificate."""

    consistent: bool
    axis: Axis | None = None
    certificate: Certificate | None = None
    notion: Notion = Notion.PSP
    algorithm: str = ""

    @classmethod
    def yes(cls, axis, notion=Notion.PSP, algorithm=""):
        return cls(True, axis=axis, notion=notion, algorithm=algorithm)

    @classmethod
    def no(cls, certificate, notion=Notion.PSP, algorithm=""):
        return cls(False, certificate=certificate, notion=notion, algorithm=algorithm)

    def __bool__(self):
        return self.consistent


# -- module-level operation aliases (spec surface) ------------------------------


def build_order(pairs, m):
    """Transitive closure of comparisons with the tightest class tag."""
    return PreferenceOrder.from_pairs(pairs, m)


def restrict(order, subset):
    return order.restrict(subset)


def classify(order):
    return order.order_class()


def minimal_elements(order):
    return order.minimal_elements()


def maximal_elements(order):
    return order.maximal_elements()


def all_axes(m, halve_by_reversal=True):
    """Every axis in lexicographic order, keeping the lex-smaller of each
    reversal pair when ``halve_by_reversal`` is set."""
    for perm in itertools.permutations(range(m)):
        if halve_by_reversal and perm[::-1] < perm:
            continue
        yield Axis(perm)
