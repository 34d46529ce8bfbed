"""Finite topological spaces as posets.

A finite T0 space is stored as its specialization order, given by two
tuples of per-point int bitmasks ``(down, up)``: bit j of ``down[i]`` is set
iff j < i (point j lies in every open set containing point i), and bit j of
``up[i]`` iff i < j.  Removing a point drops one bit position from every
mask: ``delete`` keeps the bits below it and shifts those above it down by
one.  Minimal open sets, closures and Hasse diagrams are read off the
masks (a builder that already holds the upper cover lists stores them
instead, through ``_store``), heights are peeled off them level by level,
and the beat, core and isomorphism kernels work on them directly;
``is_leq(x, y)`` is the plain accessor for code that reads the order one
pair at a time.  One closure,
``_close_along``, builds every space given by covers, along an order its
caller holds: a Kahn walk for ``from_covers`` and the ``.poset`` parser,
``range(n)`` for face posets, and the two copies' linear extensions for
mapping cylinders.  ``is_isomorphic`` refines neither space when their
cached fingerprints differ.  Isomorphism colours are refined once per space
and cached with it, like its heights, signatures and covers, so comparing
one space with many others refines each of them once; refinement stops as
soon as the colours are all distinct or a round splits no class; a round
packs each point's neighbour colour counts into one int per side.  The one
isomorphism engine, ``_first_isomorphism``, also serves complexes, on vertex
signatures and edge masks; it checks the one bijection all-distinct colours
force, and only when some colour is shared does ``_backtrack`` search, with
no function call per placement.  The matrix constructor builds both masks in
one row walk; labels are checked in one pass unless one is at fault.
``_Record`` is the base of every module's immutable result records:
``__slots__`` classes built by one constructor from their
``__match_args__``, unless they validate or default a field in their own
``__init__``, so importing the package generates no methods.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
import re
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "FiniteSpace",
    "from_covers",
    "is_isomorphic",
]

_LABEL_BAD_CHARS = re.compile(r"[\s{}#]")  # \s is exactly str.isspace


def _check_label(label: str) -> str:
    if not isinstance(label, str) or not label:
        raise ValueError("labels must be nonempty strings")
    if _LABEL_BAD_CHARS.search(label):
        raise ValueError(f"label {label!r} contains whitespace or one of {{ }} #")
    return label


def _checked_labels(labels: Iterable[str]) -> tuple[str, ...]:
    """The labels as a tuple, checked at once: all strings (``join`` takes
    nothing else), all nonempty, no bad character anywhere in their join,
    and no repeat in their set.  Only a fault sends them through
    ``_check_label`` in turn, which names the first label at fault or the
    first repeat."""
    labels = tuple(labels)
    try:
        ok = not _LABEL_BAD_CHARS.search("".join(labels)) and all(labels)
        ok = ok and len(set(labels)) == len(labels)
    except TypeError:  # a label that is no string
        ok = False
    if not ok:
        seen = set()
        for l in labels:
            if _check_label(l) in seen:
                raise ValueError(f"duplicate label {l!r}")
            seen.add(l)
    return labels


def _members(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mapped(mask: int, table: Sequence[int]) -> int:
    """The OR of ``table[x]`` over the set bits x of ``mask``."""
    got = 0
    while mask:
        low = mask & -mask
        got |= table[low.bit_length() - 1]
        mask ^= low
    return got


def _up_sets(down: Sequence[int]) -> list[int]:
    """The strict up-set masks of a relation given by its down-set masks."""
    up = [0] * len(down)
    for i, d in enumerate(down):
        for j in _members(d):
            up[j] |= 1 << i
    return up


def _check_order(down: Sequence[int], up: Sequence[int]) -> None:
    """Check that the irreflexive relation ``down``, with converse ``up``, is
    antisymmetric and transitive: down[j] ⊆ down[i] whenever j < i."""
    for d, u in zip(down, up):
        if d & u:
            raise ValueError("relation is not antisymmetric")
    for d in down:
        if _mapped(d, down) & ~d:
            raise ValueError("relation is not transitive")


def _checked_up_sets(down: Sequence[int]) -> list[int]:
    """``_up_sets(down)`` after checking that ``down`` is a strict order:
    sets of the points, irreflexive, then ``_check_order``."""
    for i, d in enumerate(down):
        if not isinstance(d, int) or d < 0 or d >> len(down):
            raise ValueError(f"down-set mask of point {i} is not a set of the {len(down)} points")
        if d >> i & 1:
            raise ValueError("relation is not irreflexive")
    up = _up_sets(down)
    _check_order(down, up)
    return up


def _cached(method):
    """Compute a method's value once per (immutable) space or complex."""

    @functools.wraps(method)
    def get(self):
        if method not in self._memo:
            self._memo[method] = method(self)
        return self._memo[method]

    return get


def _store(obj, cached, value):
    """Give ``obj`` the value of its ``_cached`` method ``cached``, held
    already by the builder of ``obj``, so that the method never computes it;
    returns ``obj``."""
    obj._memo[cached.__wrapped__] = value
    return obj


_set = object.__setattr__


class _Record:
    """Base of the immutable result records (moves, certificates, reports).

    A record names its fields in ``__match_args__`` and keeps them in
    ``__slots__``.  The base constructor takes them by position or by
    keyword and sets each once through ``_set``; a record that checks its
    fields or defaults some of them has its own ``__init__``, which sets
    them the same way.  Assigning or deleting a field afterwards raises
    ``AttributeError``.  A record equals only a record of its own class with
    equal fields, hashes as the tuple of its fields, prints as
    ``Name(field=value, ...)`` and pickles through its constructor.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__match_args__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__qualname__} takes {len(names)} fields, not {len(args)}")
        for name, value in zip(names, args):
            _set(self, name, value)
        for name in names[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{type(self).__qualname__} is missing field {name!r}")
            _set(self, name, kwargs.pop(name))
        if kwargs:
            raise TypeError(f"{type(self).__qualname__} got unexpected fields {sorted(kwargs)}")

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        pairs = zip(self.__match_args__, self._fields())
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in pairs)})"

    def __reduce__(self):
        return type(self), self._fields()


def _message(exc: Exception) -> str:
    """The text of an error for a user: a ``KeyError``'s message without the
    quotes ``str`` puts round it."""
    if isinstance(exc, KeyError) and len(exc.args) == 1:
        return str(exc.args[0])
    return str(exc)


class FiniteSpace:
    """A finite T0 topological space (equivalently, a finite poset).

    Parameters
    ----------
    labels:
        Distinct point names, one per point.  Index order is the ambient
        element order used for all deterministic tie-breaking.
    leq:
        Boolean n×n matrix, as a 2-D array or a sequence of rows;
        ``leq[i][j]`` iff point ``i <= j``.  Must be reflexive,
        antisymmetric and transitive.  Only the strict down-sets and
        up-sets are kept; ``from_masks`` builds a space from those directly.
    """

    __slots__ = ("labels", "_index", "_down", "_up", "_memo")

    def __init__(self, labels: Sequence[str], leq):
        labels = _checked_labels(labels)
        n = len(labels)
        shape = tuple(getattr(leq, "shape", ())) or (len(leq), *({len(row) for row in leq} or {0}))
        if shape != (n, n):
            raise ValueError(f"relation shape {shape} does not match {n} labels")
        rows = leq.tolist() if hasattr(leq, "tolist") else leq
        if not all(row[i] for i, row in enumerate(rows)):
            raise ValueError("relation is not reflexive")
        down, up = [0] * n, [0] * n
        points = range(n)
        for i, row in enumerate(rows):  # both masks in one walk of the rows
            bit, u = 1 << i, 0
            for j in itertools.compress(points, row):
                down[j] |= bit
                u |= 1 << j
            down[i] ^= bit
            up[i] = u ^ bit
        _check_order(down, up)
        self._set(labels, down, up)

    def _set(
        self, labels: tuple[str, ...], down: Sequence[int], up: Sequence[int],
        index: dict[str, int] | None = None,
    ) -> None:
        """Store the order; ``index`` is the label -> index dict of
        ``labels`` when the caller has built it already."""
        self.labels = labels
        self._index = {lab: i for i, lab in enumerate(labels)} if index is None else index
        self._down = tuple(down)
        self._up = tuple(up)
        self._memo: dict = {}

    @classmethod
    def from_masks(cls, labels: Sequence[str], down: Sequence[int]) -> "FiniteSpace":
        """The space whose point i has strict down-set mask ``down[i]``,
        validated as in the matrix constructor."""
        labels = _checked_labels(labels)
        if len(down) != len(labels):
            raise ValueError(f"{len(down)} down-set masks do not match {len(labels)} labels")
        return _trusted(labels, down, _checked_up_sets(down))

    # -- basic queries ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, x: int | str) -> int:
        """Normalize a point given by index or label to its index; an in-range
        plain int returns at once, before the label and range checks."""
        if type(x) is int and 0 <= x < len(self.labels):
            return x
        try:
            i = self._index[x] if isinstance(x, str) else operator.index(x)
        except (KeyError, TypeError):
            raise KeyError(f"no point labeled {x!r}") from None
        if not 0 <= i < len(self.labels):
            raise KeyError(f"point index {i} out of range")
        return i

    def is_leq(self, x: int | str, y: int | str) -> bool:
        """True iff x <= y: x lies in every open set containing y."""
        i, j = self.index(x), self.index(y)
        return i == j or bool(self._up[i] >> j & 1)

    def masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per-point int bitmasks ``(down, up)``: bit j of ``down[i]`` is set
        iff j < i, and bit j of ``up[i]`` iff i < j."""
        return self._down, self._up

    # -- derived spaces ---------------------------------------------------

    def _induced(self, idx: Sequence[int]) -> "FiniteSpace":
        """Subspace on ascending indices ``idx``, with the induced order: each
        mask is cut run by run of consecutive indices, and nothing re-checked."""
        runs: list[list[int]] = []  # [first old index, first new index, width]
        for k, i in enumerate(idx):
            if runs and runs[-1][0] + runs[-1][2] == i:
                runs[-1][2] += 1
            else:
                runs.append([i, k, 1])

        def cut(mask: int) -> int:
            return sum((mask >> a & (1 << w) - 1) << o for a, o, w in runs)

        return _trusted(
            tuple(self.labels[i] for i in idx),
            [cut(self._down[i]) for i in idx],
            [cut(self._up[i]) for i in idx],
        )

    def minimal_open(self, x: int | str) -> "FiniteSpace":
        """U_x, the smallest open set containing x: all points below it."""
        i = self.index(x)
        return self._induced(list(_members(self._down[i] | 1 << i)))

    def closure(self, x: int | str) -> "FiniteSpace":
        """F_x, the closure of {x}: all points above it."""
        i = self.index(x)
        return self._induced(list(_members(self._up[i] | 1 << i)))

    def punctured_open(self, x: int | str) -> "FiniteSpace":
        """U_x minus x: the points strictly below x."""
        return self._induced(list(_members(self._down[self.index(x)])))

    def punctured_closure(self, x: int | str) -> "FiniteSpace":
        """F_x minus x: the points strictly above x."""
        return self._induced(list(_members(self._up[self.index(x)])))

    def opposite(self) -> "FiniteSpace":
        """The same points with the order reversed (open and closed swap)."""
        return _trusted(self.labels, self._up, self._down, self._index)

    def subspace(self, members: Iterable[int | str]) -> "FiniteSpace":
        """Subspace on the given points, with the induced order.

        Point order and labels are inherited from this space.
        """
        return self._induced(sorted({self.index(m) for m in members}))

    def delete(self, x: int | str) -> "FiniteSpace":
        """Subspace with one point removed: every mask keeps its bits below
        the point's index and shifts those above it down by one."""
        i = self.index(x)
        low = (1 << i) - 1
        high = ~low

        def cut(masks: tuple[int, ...]) -> list[int]:
            return [m & low | m >> 1 & high for m in masks[:i] + masks[i + 1:]]

        return _trusted(self.labels[:i] + self.labels[i + 1:], cut(self._down), cut(self._up))

    # -- structure --------------------------------------------------------

    @_cached
    def _upper_covers(self) -> list[list[int]]:
        """Each point's upper covers, the points j covering it (i < j, nothing
        between), as an ascending index list; no caller mutates one.

        A face poset, subdivision or mapping cylinder comes with the lists it
        was closed from stored here; any other space reads them off the
        up-set masks, once.
        """
        up = self._up
        out = []
        for u in up:
            above = 0
            for j in _members(u):
                above |= up[j]
            out.append(list(_members(u & ~above)))
        return out

    @_cached
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Cover pairs ``(i, j)``, j covering i, sorted by index pairs."""
        return tuple([(i, j) for i, above in enumerate(self._upper_covers()) for j in above])

    def hasse_edges(self) -> list[tuple[str, str]]:
        """Cover pairs ``(x, y)`` with x < y, sorted by index pairs."""
        return [(self.labels[i], self.labels[j]) for i, j in self.covers()]

    @_cached
    def heights(self) -> tuple[int, ...]:
        """Length of the longest chain strictly below each point.

        Level k holds the points with a chain of k points strictly below
        them: level 1 those with a nonempty strict down-set, level k + 1
        those of level k whose down-set meets level k.  A point's height is
        the last level it is in; no linear extension is needed.
        """
        down = self._down
        h = [0] * len(down)
        level = [i for i, d in enumerate(down) if d]
        k = 0
        while level:
            k += 1
            mask = 0
            for i in level:
                h[i] = k
                mask |= 1 << i
            level = [i for i in level if down[i] & mask]
        return tuple(h)

    @_cached
    def signatures(self) -> tuple[tuple[int, int, int], ...]:
        """Per-point isomorphism invariant (height, up-degree, down-degree)."""
        return tuple(
            (h, u.bit_count(), d.bit_count())
            for h, u, d in zip(self.heights(), self._up, self._down)
        )

    @_cached
    def fingerprint(self) -> tuple:
        """Isomorphism-invariant key used to bucket spaces in search."""
        return (self.n, tuple(sorted(self.signatures())))

    @_cached
    def _colours(self) -> tuple[list[int], tuple[int, ...]]:
        """Each point's colour after at most two rounds of neighbourhood
        refinement of ``signatures()``, and a key with a hash of every
        round's sorted signatures.

        A round's signature of a point is (its colour, the colours strictly
        above it, the colours strictly below it), each multiset of colours
        packed into one int: with ``w = n.bit_length()`` bits per colour,
        the count of colour c sits at bit ``c * w``.  A count is below n, so
        it never carries into the next colour's bits, and two packed ints are
        equal iff their multisets are: the packed signatures split the points
        as the sorted colour tuples do, with one int per side to hash.  A
        point's new colour is the rank of its signature among the distinct
        ones; the first round ranks the fingerprint's sorted signatures.
        Refinement stops early once the colours are all distinct or a round
        splits no class.  A round's partition depends only on the previous
        partition and refines it, so from then on every round gives the same
        partition: the stopped colours are those of two rounds up to
        renaming.  The engine reads colours only through their classes
        (bucket sizes, then indices, and candidates in index order), so it
        returns the same first bijection.  Isomorphic spaces stop at the
        same round, so their keys stay comparable.  Spaces with equal keys
        have the same distinct signatures in every round, so their colours
        compare as if drawn from one table.  A hash collision can only send
        two non-isomorphic spaces to the engine, which checks every relation
        and finds no bijection.
        """
        n = self.n
        ordered = self.fingerprint()[1]
        key = [hash(ordered)]
        rank = {sig: r for r, sig in enumerate(dict.fromkeys(ordered))}
        col = [rank[sig] for sig in self.signatures()]
        classes = len(rank)
        if classes < n:
            w = n.bit_length()
            nbrs = []  # the points strictly above, then below, each point
            for m in self._up + self._down:
                nbr = []
                while m:
                    low = m & -m
                    nbr.append(low.bit_length() - 1)
                    m ^= low
                nbrs.append(nbr)
            for _ in range(2):
                weight = [1 << c * w for c in col].__getitem__
                sigs = [
                    (c, sum(map(weight, above)), sum(map(weight, below)))
                    for c, above, below in zip(col, nbrs, nbrs[n:])
                ]
                ordered = sorted(sigs)
                key.append(hash(tuple(ordered)))
                rank = {sig: r for r, sig in enumerate(dict.fromkeys(ordered))}
                col = [rank[sig] for sig in sigs]
                before, classes = classes, len(rank)
                if classes in (before, n):
                    break
        return col, tuple(key)

    @_cached
    def linear_extension(self) -> tuple[int, ...]:
        """Deterministic topological order: lowest available index first."""
        pending = [d.bit_count() for d in self._down]
        ready = [i for i, p in enumerate(pending) if not p]
        out: list[int] = []
        while ready:
            i = heapq.heappop(ready)
            out.append(i)
            for j in _members(self._up[i]):
                pending[j] -= 1
                if not pending[j]:
                    heapq.heappush(ready, j)
        return tuple(out)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Labeled equality: same points and the same order on them.

        Index order is irrelevant; the label bijection must be an order
        isomorphism.
        """
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        if self is other:
            return True
        if set(self.labels) != set(other.labels):
            return False
        perm = [other._index[l] for l in self.labels]
        return all(
            sum(1 << perm[j] for j in _members(d)) == other._down[perm[i]]
            for i, d in enumerate(self._down)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"FiniteSpace({self.n} points)"


def _trusted(
    labels: tuple[str, ...], down: Sequence[int], up: Sequence[int],
    index: dict[str, int] | None = None,
) -> FiniteSpace:
    """A space from masks already known to be a valid order on valid labels."""
    space = FiniteSpace.__new__(FiniteSpace)
    space._set(labels, down, up, index)
    return space


def _close_along(
    labels: tuple[str, ...], upper: Sequence[Sequence[int]], order: Sequence[int],
    index: dict[str, int] | None = None,
) -> FiniteSpace:
    """The space on checked ``labels`` generated by the upper cover lists
    ``upper`` (i < j for j in ``upper[i]``), closed along ``order``, any
    topological order of them: each point pushes its closed down-set up its
    covers, then, back along the order, ORs in their closed up-sets."""
    n = len(upper)
    down, up = [0] * n, [0] * n
    for i in order:  # every point below i has pushed its down-set already
        below = down[i] | 1 << i
        for j in upper[i]:
            down[j] |= below
    for i in reversed(order):  # every point above i is closed already
        u = 0
        for j in upper[i]:
            u |= up[j] | 1 << j
        up[i] = u
    return _trusted(labels, down, up, index)


def _closed(labels: tuple[str, ...], index: dict[str, int], upper: list[list[int]]) -> FiniteSpace:
    """``_close_along`` on the upper cover lists ``upper`` (repeats and
    transitive entries allowed) along a plain Kahn walk of them."""
    pending = [0] * len(labels)
    for j in itertools.chain.from_iterable(upper):
        pending[j] += 1
    order = [j for j, p in enumerate(pending) if not p]
    for i in order:  # the walk appends each point once its lower covers are in
        for j in upper[i]:
            pending[j] -= 1
            if not pending[j]:
                order.append(j)
    if len(order) != len(labels):  # a cycle breaks antisymmetry
        raise ValueError("cover pairs contain a cycle")
    return _close_along(labels, upper, order, index)


def from_covers(labels: Sequence[str], covers: Iterable[tuple[str, str]]) -> FiniteSpace:
    """Build a space from cover pairs ``(x, y)`` meaning x < y (redundant and
    transitive pairs are allowed): the labels are checked once, each pair goes
    onto the upper cover list of its lower point, and ``_closed`` closes them."""
    labels = _checked_labels(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    upper: list[list[int]] = [[] for _ in labels]
    for lo, hi in covers:
        i, j = index.get(lo), index.get(hi)
        if i is None or j is None:
            raise ValueError(f"unknown label {lo if i is None else hi!r} in cover pair")
        if i == j:
            raise ValueError(f"cover pair ({lo!r}, {hi!r}) relates a point to itself")
        upper[i].append(j)
    return _closed(labels, index, upper)


def _first_isomorphism(
    col_a: Sequence, col_b: Sequence, masks_a: Sequence, masks_b: Sequence,
    accept: Callable[[list[int]], bool] | None = None,
) -> list[int] | None:
    """The first colour- and relation-preserving bijection a -> b, as the
    list of images of a's points, that ``accept`` takes (any, by default).

    ``masks_a`` and ``masks_b`` each hold the per-point bitmasks of one
    irreflexive relation, followed by those of its converse unless it is
    symmetric: a space passes ``(down, up)``, a symmetric relation
    ``(adj,)``.  Points of a are placed rarest colour bucket first, then by
    index; each tries the points of b in its bucket in ascending index
    order, which makes the answer deterministic.

    When every colour bucket holds one point, each point of a has one
    candidate, so the backtracking could only return that bijection, and
    only if it keeps every relation and ``accept`` takes it.  So it is
    checked, not searched for: keeping ``masks[0]`` keeps its converse
    ``masks[-1]`` too, and the answer is the backtracker's.  Otherwise
    ``_backtrack`` searches.
    """
    if sorted(col_a) != sorted(col_b):
        return None
    buckets: dict = {}
    for j, c in enumerate(col_b):
        buckets.setdefault(c, []).append(j)
    if len(buckets) < len(col_a):
        return _backtrack(col_a, buckets, masks_a, masks_b, accept)
    image = [buckets[c][0] for c in col_a]  # discrete colours: one candidate per point
    bits, rel_b = [1 << j for j in image], masks_b[0]
    for m, j in zip(masks_a[0], image):
        if _mapped(m, bits) != rel_b[j]:
            return None
    return image if accept is None or accept(image) else None


def _backtrack(
    col_a: Sequence, buckets: dict, masks_a: Sequence, masks_b: Sequence,
    accept: Callable[[list[int]], bool] | None,
) -> list[int] | None:
    """``_first_isomorphism``'s search, given b's colour ``buckets`` (colour
    -> ascending points), of which some hold more than one point.

    Relations to the points already placed are one bitmask over search
    depth: with r relations, bit r*d + t of ``rel_a[x]`` is set iff
    ``masks_a[t][x]`` holds the point placed at depth d, and ``rel_b[y]``
    holds the same for the images placed so far in b.  ``rel_a`` is read
    off a's masks once; b's bits are toggled as images are placed and
    unplaced.  A candidate for the point at depth k must match its bits
    below depth k exactly.
    """
    n, r = len(col_a), len(masks_a)
    # rarest bucket first; the sort is stable, so ties stay in index order
    order = sorted(range(n), key=[len(buckets[c]) for c in col_a].__getitem__)
    at = [0] * n  # the depth bit of each point of a
    for d, i in enumerate(order):
        at[i] = 1 << r * d
    rel_a = [0] * n
    for t, masks in enumerate(masks_a):
        for x, m in enumerate(masks):
            rel_a[x] |= _mapped(m, at) << t
    wants = [rel_a[i] & at[i] - 1 for i in order]
    converse_b = masks_b[::-1]  # the x with y in masks_b[t][x] are masks_b[-1 - t][y]

    rel_b = [0] * n
    image = [-1] * n
    used = [False] * n
    # Iterative backtracking: pos[k] is the next candidate to try for order[k].
    candidates = [buckets[col_a[i]] for i in order]
    pos = [0] * n
    k = 0
    while k >= 0:
        if k == n:
            if accept is None or accept(image):
                return image
            k -= 1
        i = order[k]
        j = image[i]
        if j >= 0:  # unplace the last candidate; the next pass tries the next one
            image[i] = -1
            used[j] = False
        else:
            want, opts, p = wants[k], candidates[k], pos[k]
            while p < len(opts) and (used[opts[p]] or rel_b[opts[p]] != want):
                p += 1
            if p == len(opts):
                pos[k] = 0
                k -= 1
                continue
            j = image[i] = opts[p]
            pos[k] = p + 1
            used[j] = True
        bit = 1 << r * k  # toggle j's relations at depth k
        for masks in converse_b:
            m = masks[j]
            while m:
                low = m & -m
                rel_b[low.bit_length() - 1] ^= bit
                m ^= low
            bit <<= 1
        if used[j]:
            k += 1
    return None


def is_isomorphic(a: FiniteSpace, b: FiniteSpace) -> dict[str, str] | None:
    """Search for an order isomorphism a -> b.

    Returns the label mapping if one exists, else None.  Spaces with other
    (cached) fingerprints are not isomorphic, and neither is refined.
    Candidates must share the refined (height, up-degree, down-degree)
    colour, which each space computes once (see ``FiniteSpace._colours``);
    spaces whose refinement keys differ are not compared further.  See
    ``_first_isomorphism`` for the placement and candidate order, and for
    the forced bijection of all-distinct colours.
    """
    if a.fingerprint() != b.fingerprint():
        return None
    (col_a, key_a), (col_b, key_b) = a._colours(), b._colours()
    if key_a != key_b:
        return None
    image = _first_isomorphism(col_a, col_b, a.masks(), b.masks())
    return None if image is None else {a.labels[i]: b.labels[j] for i, j in enumerate(image)}
