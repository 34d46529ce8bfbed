"""Finite topological spaces as posets.

A finite T0 space is stored as its specialization order: a reflexive,
antisymmetric, transitive boolean matrix ``leq`` where ``leq[i, j]`` means
point i lies in every open set containing point j (i below j).  Minimal open
sets, closures and Hasse diagrams are all read off this matrix.
"""

from __future__ import annotations

from typing import Iterable, Sequence

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

    __slots__ = ("labels", "leq", "_index")

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


def _refine_signatures(space: FiniteSpace, rounds: int = 2) -> list:
    """Iterated neighborhood refinement on top of the base signatures."""
    strict = space.lt()
    sig: list = list(space.signatures())
    for _ in range(rounds):
        sig = [
            (
                sig[i],
                tuple(sorted(sig[j] for j in np.flatnonzero(strict[i, :]))),
                tuple(sorted(sig[j] for j in np.flatnonzero(strict[:, i]))),
            )
            for i in range(space.n)
        ]
    return sig


def is_isomorphic(a: FiniteSpace, b: FiniteSpace) -> dict[str, str] | None:
    """Search for an order isomorphism a -> b.

    Returns the label mapping if one exists, else None.  Backtracking over
    points ordered by signature rarity; candidates must share the refined
    (height, up-degree, down-degree) signature and are tried in ascending
    index order, which makes the returned isomorphism deterministic.
    """
    if a.n != b.n:
        return None
    if sorted(a.signatures()) != sorted(b.signatures()):
        return None
    sig_a = _refine_signatures(a)
    sig_b = _refine_signatures(b)
    if sorted(map(repr, sig_a)) != sorted(map(repr, sig_b)):
        return None

    buckets: dict[str, list[int]] = {}
    for j in range(b.n):
        buckets.setdefault(repr(sig_b[j]), []).append(j)
    rarity = {key: len(v) for key, v in buckets.items()}
    order = sorted(range(a.n), key=lambda i: (rarity[repr(sig_a[i])], i))

    assigned: list[int] = []
    image = [-1] * a.n
    used = [False] * b.n
    # Iterative backtracking: pos[k] is the next candidate to try for order[k].
    candidates = [buckets.get(repr(sig_a[i]), ()) for i in order]
    pos = [0] * a.n
    k = 0
    while 0 <= k < a.n:
        i = order[k]
        if image[i] >= 0:
            used[image[i]] = False
            image[i] = -1
            assigned.pop()
        opts = candidates[k]
        while pos[k] < len(opts):
            j = opts[pos[k]]
            pos[k] += 1
            if used[j]:
                continue
            ok = True
            for i2 in assigned:
                j2 = image[i2]
                if a.leq[i, i2] != b.leq[j, j2] or a.leq[i2, i] != b.leq[j2, j]:
                    ok = False
                    break
            if not ok:
                continue
            image[i] = j
            used[j] = True
            assigned.append(i)
            k += 1
            break
        else:
            pos[k] = 0
            k -= 1
    if k < 0:
        return None
    return {a.labels[i]: b.labels[image[i]] for i in range(a.n)}
