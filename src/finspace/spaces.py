"""Finite topological spaces as posets.

A finite T0 space is stored as its specialization order: a reflexive,
antisymmetric, transitive boolean matrix ``leq`` where ``leq[i, j]`` means
point i lies in every open set containing point j (i below j).  Minimal open
sets, closures and Hasse diagrams are all read off this matrix.  Each space
also caches its strict down-sets and up-sets as per-point int bitmasks
(``masks``), which the beat, core and isomorphism kernels work on.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "FiniteSpace",
    "from_covers",
    "is_isomorphic",
]

_LABEL_BAD_CHARS = set("{}#")


def _check_label(label: str) -> str:
    if not isinstance(label, str) or not label:
        raise ValueError("labels must be nonempty strings")
    if any(ch.isspace() for ch in label) or _LABEL_BAD_CHARS & set(label):
        raise ValueError(f"label {label!r} contains whitespace or one of {{ }} #")
    return label


def _transitive_closure(rel: np.ndarray) -> np.ndarray:
    closed = rel.copy()
    while True:
        step = closed | (closed @ closed)
        if np.array_equal(step, closed):
            return closed
        closed = step


def _row_masks(rel: np.ndarray) -> tuple[int, ...]:
    """Each row of a boolean matrix as an int whose bit j is column j."""
    packed = np.packbits(rel, axis=1, bitorder="little")
    raw, w = packed.tobytes(), packed.shape[1]
    return tuple(int.from_bytes(raw[k * w : k * w + w], "little") for k in range(len(rel)))


def _members(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FiniteSpace:
    """A finite T0 topological space (equivalently, a finite poset).

    Parameters
    ----------
    labels:
        Distinct point names, one per point.  Index order is the ambient
        element order used for all deterministic tie-breaking.
    leq:
        Boolean matrix; ``leq[i, j]`` iff point ``i <= j``.  Must be
        reflexive, antisymmetric and transitive.  A copy is stored and
        frozen.
    """

    __slots__ = ("labels", "leq", "_index", "_masks")

    def __init__(self, labels: Sequence[str], leq: np.ndarray):
        labels = tuple(_check_label(l) for l in labels)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels")
        n = len(labels)
        leq = np.array(leq, dtype=bool)
        if leq.shape != (n, n):
            raise ValueError(f"relation shape {leq.shape} does not match {n} labels")
        if n:
            if not leq.diagonal().all():
                raise ValueError("relation is not reflexive")
            sym = leq & leq.T
            if sym.sum() != n:
                raise ValueError("relation is not antisymmetric")
            if ((leq @ leq) & ~leq).any():
                raise ValueError("relation is not transitive")
        leq.setflags(write=False)
        self.labels = labels
        self.leq = leq
        self._index = {lab: i for i, lab in enumerate(labels)}
        self._masks: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    # -- basic queries ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, x: int | str) -> int:
        """Normalize a point given by index or label to its index."""
        if isinstance(x, (int, np.integer)):
            i = int(x)
            if not 0 <= i < self.n:
                raise KeyError(f"point index {i} out of range")
            return i
        try:
            return self._index[x]
        except KeyError:
            raise KeyError(f"no point labeled {x!r}") from None

    def lt(self) -> np.ndarray:
        strict = self.leq & ~np.eye(self.n, dtype=bool)
        strict.setflags(write=False)
        return strict

    def masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per-point int bitmasks ``(down, up)``: bit j of ``down[i]`` is set
        iff j < i, and bit j of ``up[i]`` iff i < j.  Computed once."""
        if self._masks is None:
            strict = self.lt()
            self._masks = (_row_masks(strict.T), _row_masks(strict))
        return self._masks

    def below(self, x: int | str) -> np.ndarray:
        """Boolean mask of points <= x (the minimal open set of x)."""
        return self.leq[:, self.index(x)]

    def above(self, x: int | str) -> np.ndarray:
        """Boolean mask of points >= x (the closure of x)."""
        return self.leq[self.index(x), :]

    # -- derived spaces ---------------------------------------------------

    def _induced(self, idx: Sequence[int]) -> "FiniteSpace":
        """Subspace on ascending indices ``idx``, with the induced order."""
        return FiniteSpace(tuple(self.labels[i] for i in idx), self.leq[np.ix_(idx, idx)])

    def minimal_open(self, x: int | str) -> "FiniteSpace":
        """U_x, the smallest open set containing x: all points below it."""
        return self._induced(np.flatnonzero(self.below(x)))

    def closure(self, x: int | str) -> "FiniteSpace":
        """F_x, the closure of {x}: all points above it."""
        return self._induced(np.flatnonzero(self.above(x)))

    def punctured_open(self, x: int | str) -> "FiniteSpace":
        """U_x minus x: the points strictly below x."""
        i = self.index(x)
        idx = np.flatnonzero(self.leq[:, i])
        return self._induced(idx[idx != i])

    def punctured_closure(self, x: int | str) -> "FiniteSpace":
        """F_x minus x: the points strictly above x."""
        i = self.index(x)
        idx = np.flatnonzero(self.leq[i, :])
        return self._induced(idx[idx != i])

    def opposite(self) -> "FiniteSpace":
        """The same points with the order reversed (open and closed swap)."""
        return FiniteSpace(self.labels, self.leq.T)

    def subspace(self, members: Iterable[int | str]) -> "FiniteSpace":
        """Subspace on the given points, with the induced order.

        Point order and labels are inherited from this space.
        """
        return self._induced(sorted({self.index(m) for m in members}))

    def delete(self, x: int | str) -> "FiniteSpace":
        """Subspace with one point removed."""
        i = self.index(x)
        keep = [j for j in range(self.n) if j != i]
        return self.subspace(keep)

    # -- structure --------------------------------------------------------

    def covers(self) -> np.ndarray:
        """Cover matrix: ``covers[i, j]`` iff j covers i (i < j, nothing between)."""
        strict = self.lt()
        return strict & ~(strict @ strict)

    def hasse_edges(self) -> list[tuple[str, str]]:
        """Cover pairs ``(x, y)`` with x < y, sorted by index pairs."""
        cov = self.covers()
        return [
            (self.labels[i], self.labels[j])
            for i, j in zip(*np.nonzero(cov))
        ]

    def heights(self) -> tuple[int, ...]:
        """Length of the longest chain strictly below each point."""
        strict = self.lt()
        order = np.argsort(strict.sum(axis=0), kind="stable")
        h = [0] * self.n
        for j in order:
            lower = np.flatnonzero(strict[:, j])
            h[j] = 1 + max((h[i] for i in lower), default=-1)
        return tuple(h)

    def signatures(self) -> tuple[tuple[int, int, int], ...]:
        """Per-point isomorphism invariant (height, up-degree, down-degree)."""
        strict = self.lt()
        up = strict.sum(axis=1)
        down = strict.sum(axis=0)
        hs = self.heights()
        return tuple((hs[i], int(up[i]), int(down[i])) for i in range(self.n))

    def fingerprint(self) -> tuple:
        """Isomorphism-invariant key used to bucket spaces in search."""
        return (self.n, tuple(sorted(self.signatures())))

    def linear_extension(self) -> list[int]:
        """Deterministic topological order: lowest available index first."""
        strict = self.lt()
        remaining = set(range(self.n))
        pending = strict.sum(axis=0).tolist()
        out: list[int] = []
        while remaining:
            i = min(j for j in remaining if pending[j] == 0)
            out.append(i)
            remaining.discard(i)
            for j in np.flatnonzero(strict[i, :]):
                pending[j] -= 1
        return out

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Labeled equality: same points and the same order on them.

        Index order is irrelevant; the label bijection must be an order
        isomorphism.
        """
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        if set(self.labels) != set(other.labels):
            return False
        perm = [other._index[l] for l in self.labels]
        return np.array_equal(self.leq, other.leq[np.ix_(perm, perm)])

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"FiniteSpace({self.n} points)"


def from_covers(labels: Sequence[str], covers: Iterable[tuple[str, str]]) -> FiniteSpace:
    """Build a space from cover pairs ``(x, y)`` meaning x < y.

    The reflexive transitive closure is taken; cycles are rejected because
    they break antisymmetry.
    """
    labels = tuple(labels)
    index = {}
    for i, lab in enumerate(labels):
        _check_label(lab)
        if lab in index:
            raise ValueError(f"duplicate label {lab!r}")
        index[lab] = i
    n = len(labels)
    rel = np.eye(n, dtype=bool)
    for lo, hi in covers:
        if lo not in index:
            raise ValueError(f"unknown label {lo!r} in cover pair")
        if hi not in index:
            raise ValueError(f"unknown label {hi!r} in cover pair")
        if lo == hi:
            raise ValueError(f"cover pair ({lo!r}, {hi!r}) relates a point to itself")
        rel[index[lo], index[hi]] = True
    closed = _transitive_closure(rel)
    if (closed & closed.T).sum() != n:
        raise ValueError("cover pairs contain a cycle")
    return FiniteSpace(labels, closed)


def _refined_colours(a: FiniteSpace, b: FiniteSpace, rounds: int = 2) -> tuple[list, list]:
    """Iterated neighbourhood refinement of the base signatures of both spaces.

    Each round gives every point the colour of (its colour, the sorted
    colours strictly above it, the sorted colours strictly below it), taken
    from one table shared by both spaces, so equal colours mean equal
    refined signatures.
    """
    table: dict = {}
    cols = [[table.setdefault(sig, len(table)) for sig in s.signatures()] for s in (a, b)]
    for _ in range(rounds):
        table = {}
        for k, s in enumerate((a, b)):
            c, (down, up) = cols[k], s.masks()
            cols[k] = [
                table.setdefault(
                    (c[i], *(tuple(sorted(c[j] for j in _members(m[i]))) for m in (up, down))),
                    len(table),
                )
                for i in range(s.n)
            ]
    return cols[0], cols[1]


def is_isomorphic(a: FiniteSpace, b: FiniteSpace) -> dict[str, str] | None:
    """Search for an order isomorphism a -> b.

    Returns the label mapping if one exists, else None.  Backtracking over
    points ordered by signature rarity; candidates must share the refined
    (height, up-degree, down-degree) signature and are tried in ascending
    index order, which makes the returned isomorphism deterministic.
    """
    if a.n != b.n:
        return None
    col_a, col_b = _refined_colours(a, b)
    if sorted(col_a) != sorted(col_b):
        return None

    buckets: dict[int, list[int]] = {}
    for j in range(b.n):
        buckets.setdefault(col_b[j], []).append(j)
    order = sorted(range(a.n), key=lambda i: (len(buckets[col_a[i]]), i))

    # Relations to the points already placed, as bitmasks over search depth:
    # bit d of rel_a[0][i] is set iff order[d] < i in a, of rel_a[1][i] iff
    # i < order[d]; rel_b holds the same for the images placed so far in b.
    depth = {i: d for d, i in enumerate(order)}
    rel_a = tuple(
        [sum(1 << depth[j] for j in _members(m[i])) for i in range(a.n)] for m in a.masks()
    )
    down_b, up_b = b.masks()
    rel_b = ([0] * b.n, [0] * b.n)

    def mark(j: int, bit: int) -> None:
        # toggle ``bit`` on the points of b above and below j
        for lo in _members(down_b[j]):
            rel_b[1][lo] ^= bit
        for hi in _members(up_b[j]):
            rel_b[0][hi] ^= bit

    image = [-1] * a.n
    used = [False] * b.n
    # Iterative backtracking: pos[k] is the next candidate to try for order[k].
    candidates = [buckets[col_a[i]] for i in order]
    pos = [0] * a.n
    k = 0
    while 0 <= k < a.n:
        i = order[k]
        if image[i] >= 0:
            used[image[i]] = False
            mark(image[i], 1 << k)
            image[i] = -1
        placed = (1 << k) - 1
        want_down = rel_a[0][i] & placed
        want_up = rel_a[1][i] & placed
        opts = candidates[k]
        while pos[k] < len(opts):
            j = opts[pos[k]]
            pos[k] += 1
            if used[j] or rel_b[0][j] ^ want_down or rel_b[1][j] ^ want_up:
                continue
            image[i] = j
            used[j] = True
            mark(j, 1 << k)
            k += 1
            break
        else:
            pos[k] = 0
            k -= 1
    if k < 0:
        return None
    return {a.labels[i]: b.labels[image[i]] for i in range(a.n)}
