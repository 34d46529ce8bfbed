"""Integer simplicial homology via Smith normal form.

Boundary matrices are reduced over the integers exactly in one sparse
elimination whose pivot is an entry of least absolute value, fill-in cost
breaking ties (Dumas, Saunders and Villard, J. Symb. Comput. 32, 2001); the
diagonal left over becomes an invariant factor chain by pairwise gcd and lcm.
Pivots come from a lazy heap, not a scan of the matrix, and one work count
bounds all the boundary matrices of a ``homology`` call.  A
``HomologyReport`` is a record on the ``_Record`` base of ``spaces``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .complexes import SimplicialComplex
from .functors import order_complex
from .moves import core
from .spaces import _Record, _set

__all__ = [
    "HomologyReport",
    "Inconclusive",
    "homology",
    "reduced_homology",
    "homology_space",
    "smith_invariants",
]

# Units of work one ``homology`` call may spend on Smith normal forms: one
# per heap pop and per pivot row entry in an operation.  The largest count of
# a call that answers is 90,819 in the tests (sd³ of the dunce hat) and 2,264
# in the benchmark's homology jobs, both below a tenth of it.
MAX_SMITH_WORK = 1_000_000


class Inconclusive(Exception):
    """Smith normal form ran past ``MAX_SMITH_WORK`` before it finished."""


class HomologyReport(_Record):
    """Betti numbers and torsion invariant factors, one entry per dimension."""

    __slots__ = __match_args__ = ("betti", "torsion", "reduced")

    def __init__(
        self, betti: tuple[int, ...], torsion: tuple[tuple[int, ...], ...], reduced: bool = False
    ) -> None:
        _set(self, "betti", betti)
        _set(self, "torsion", torsion)
        _set(self, "reduced", reduced)

    @property
    def trivial(self) -> bool:
        return all(b == 0 for b in self.betti) and all(not t for t in self.torsion)

    def group(self, d: int) -> str:
        parts = []
        if d < len(self.betti) and self.betti[d]:
            b = self.betti[d]
            parts.append("Z" if b == 1 else f"Z^{b}")
        if d < len(self.torsion):
            parts.extend(f"Z/{t}" for t in self.torsion[d])
        return " ⊕ ".join(parts) if parts else "0"

    def format(self) -> str:
        tilde = "~" if self.reduced else ""
        return "\n".join(
            f"H{tilde}_{d} = {self.group(d)}" for d in range(len(self.betti))
        )

    def __str__(self) -> str:
        return self.format()


def _boundary(k: SimplicialComplex, d: int) -> tuple[dict[int, dict[int, int]], int, int]:
    """Sparse boundary matrix from d-simplices to (d-1)-simplices.

    Returns (rows, nrows, ncols) with rows[r][c] the signed incidence.
    """
    lower = {s: i for i, s in enumerate(k.simplices_of_dim(d - 1))}
    upper = k.simplices_of_dim(d)
    rows: dict[int, dict[int, int]] = {}
    for c, s in enumerate(upper):
        for j in range(len(s)):
            face = s[:j] + s[j + 1 :]
            r = lower[face]
            rows.setdefault(r, {})[c] = 1 if j % 2 == 0 else -1
    return rows, len(lower), len(upper)


def smith_invariants(
    rows: dict[int, dict[int, int]], spent: list[int] | None = None
) -> tuple[int, list[int]]:
    """Rank and invariant factor chain of a sparse integer matrix.

    ``rows`` maps row index to {column: value}; zero values are not stored.
    The pivot is an entry of least |v|, Markowitz cost breaking ties, popped
    from a lazy min-heap of keys (|v|, cost, r, c) that gets every entry an
    operation creates or changes and every kept pivot.  A popped key whose
    entry is gone or holds another |v| is dropped; one whose cost has since
    grown is pushed again (a fallen cost leaves it the least key).  Row and
    then column operations leave only remainders mod v beside the pivot; any
    nonzero one is smaller than |v| and pivots next, so the loop ends.  Each
    pop, and each pivot row entry in an operation, adds one to ``spent[0]``,
    which callers may share across matrices; past ``MAX_SMITH_WORK`` it
    raises ``Inconclusive``.
    """
    if spent is None:
        spent = [0]
    rows = {r: dict(cs) for r, cs in rows.items() if cs}
    cols: dict[int, set[int]] = {}
    for r, cs in rows.items():
        for c in cs:
            cols.setdefault(c, set()).add(r)
    heap = [
        (abs(v), (len(cs) - 1) * (len(cols[c]) - 1), r, c)
        for r, cs in rows.items()
        for c, v in cs.items()
    ]
    heapify(heap)

    units = 0
    work = spent[0]
    diagonal: list[int] = []
    while rows:
        if work > MAX_SMITH_WORK:
            raise Inconclusive(f"Smith normal form passed {MAX_SMITH_WORK} units of work")
        work += 1
        size, cost, r, c = heappop(heap)
        pivot_row = rows.get(r)
        if pivot_row is None or abs(pivot_row.get(c, 0)) != size:
            continue
        now = (len(pivot_row) - 1) * (len(cols[c]) - 1)
        if now > cost:
            heappush(heap, (size, now, r, c))
            continue
        v = pivot_row[c]
        for r2 in list(cols[c]):
            if r2 == r:
                continue
            work += len(pivot_row)
            target = rows[r2]
            q = target[c] // v
            for c2, v2 in pivot_row.items():
                new = target.get(c2, 0) - q * v2
                if new:
                    if c2 not in target:
                        cols[c2].add(r2)
                    target[c2] = new
                    heappush(heap, (abs(new), (len(target) - 1) * (len(cols[c2]) - 1), r2, c2))
                elif c2 in target:
                    del target[c2]
                    cols[c2].discard(r2)
            if not target:
                del rows[r2]
        if len(cols[c]) > 1:
            heappush(heap, (size, (len(pivot_row) - 1) * (len(cols[c]) - 1), r, c))
            continue
        # column c holds only row r, so column operations touch no other row
        work += len(pivot_row)
        for c2 in list(pivot_row):
            if c2 != c:
                new = pivot_row[c2] % v
                if new:
                    pivot_row[c2] = new
                    heappush(heap, (abs(new), (len(pivot_row) - 1) * (len(cols[c2]) - 1), r, c2))
                else:
                    del pivot_row[c2]
                    cols[c2].discard(r)
                    if not cols[c2]:
                        del cols[c2]
        if len(pivot_row) > 1:
            heappush(heap, (size, 0, r, c))
            continue
        del rows[r], cols[c]
        if size == 1:
            units += 1
        else:
            diagonal.append(size)
    spent[0] = work

    # diag(a, b) is equivalent to diag(gcd, lcm); pass i leaves in slot i
    # the gcd of slots i onward, so the slots end up a divisibility chain
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            a, b = diagonal[i], diagonal[j]
            diagonal[i], diagonal[j] = gcd(a, b), lcm(a, b)
    return units + len(diagonal), [1] * units + diagonal


def homology(k: SimplicialComplex, reduced: bool = False) -> HomologyReport:
    """Integer homology of a nonempty complex, dimension by dimension."""
    if len(k) == 0:
        raise ValueError("homology of the empty complex is not defined here")
    dim = k.dim
    counts = list(k.f_vector())
    ranks = [0] * (dim + 2)
    torsion: list[tuple[int, ...]] = [()] * (dim + 1)
    spent = [0]
    for d in range(1, dim + 1):
        ranks[d], factors = smith_invariants(_boundary(k, d)[0], spent)
        torsion[d - 1] = tuple(f for f in factors if f > 1)
    betti = [counts[d] - ranks[d] - ranks[d + 1] for d in range(dim + 1)]
    if reduced:
        betti[0] -= 1
    return HomologyReport(tuple(betti), tuple(torsion), reduced)


def reduced_homology(k: SimplicialComplex) -> HomologyReport:
    return homology(k, reduced=True)


def homology_space(space, reduced: bool = False) -> HomologyReport:
    """Homology of the order complex K(X), computed on the core of X.

    Beat point removals are collapses (Stong, Trans. AMS 123, 1966), and a
    collapse X ↘ Y induces a simplicial collapse K(X) ↘ K(Y) (Barmak and
    Minian, arXiv:math/0611158), so both have the same homology; the report
    is padded with trivial groups to the height(X) + 1 dimensions of K(X)."""
    report = homology(order_complex(core(space)[0]), reduced=reduced)
    pad = max(space.heights(), default=-1) + 1 - len(report.betti)
    return HomologyReport(report.betti + (0,) * pad, report.torsion + ((),) * pad, reduced)
