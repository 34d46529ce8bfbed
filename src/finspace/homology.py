"""Integer simplicial homology via Smith normal form.

Boundary matrices are reduced over the integers exactly.  Unit pivots are
eliminated first on a sparse representation (with Markowitz-style fill-in
control); whatever residue survives is finished with the classical dense
algorithm, including the divisibility fix-up, so torsion comes out as a
proper invariant factor chain.  Arbitrary-precision integers throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import SimplicialComplex
from .moves import core

__all__ = [
    "HomologyReport",
    "homology",
    "reduced_homology",
    "homology_space",
    "smith_invariants",
]


@dataclass(frozen=True)
class HomologyReport:
    """Betti numbers and torsion invariant factors, one entry per dimension."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    reduced: bool = False

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


def smith_invariants(rows: dict[int, dict[int, int]]) -> tuple[int, list[int]]:
    """Rank and invariant factor chain of a sparse integer matrix.

    ``rows`` maps row index to {column: value}; zero values are not stored.
    """
    rows = {r: dict(cs) for r, cs in rows.items() if cs}
    cols: dict[int, set[int]] = {}
    for r, cs in rows.items():
        for c in cs:
            cols.setdefault(c, set()).add(r)

    unit_pivots = 0
    while True:
        best = None
        for r, cs in rows.items():
            fr = len(cs) - 1
            for c, v in cs.items():
                if v == 1 or v == -1:
                    cost = fr * (len(cols[c]) - 1)
                    key = (cost, r, c)
                    if best is None or key < best[0]:
                        best = (key, r, c, v)
        if best is None:
            break
        _, r, c, v = best
        pivot_row = rows[r]
        for r2 in list(cols[c]):
            if r2 == r:
                continue
            coef = rows[r2][c] * v
            target = rows[r2]
            for c2, v2 in pivot_row.items():
                new = target.get(c2, 0) - coef * v2
                if new:
                    if c2 not in target:
                        cols.setdefault(c2, set()).add(r2)
                    target[c2] = new
                else:
                    if c2 in target:
                        del target[c2]
                        cols[c2].discard(r2)
            if not target:
                del rows[r2]
        for c2 in pivot_row:
            cols[c2].discard(r)
            if not cols[c2]:
                del cols[c2]
        del rows[r]
        unit_pivots += 1

    if not rows:
        return unit_pivots, [1] * unit_pivots

    # Dense residue: no remaining entry is a unit.
    row_ids = sorted(rows)
    col_ids = sorted({c for cs in rows.values() for c in cs})
    cindex = {c: i for i, c in enumerate(col_ids)}
    m = [[0] * len(col_ids) for _ in row_ids]
    for i, r in enumerate(row_ids):
        for c, v in rows[r].items():
            m[i][cindex[c]] = v
    residue = _dense_snf(m)
    factors = [1] * unit_pivots + residue
    return len(factors), factors


def _dense_snf(m: list[list[int]]) -> list[int]:
    """Invariant factors of a small dense integer matrix."""
    nr, nc = len(m), len(m[0]) if m else 0
    factors: list[int] = []
    top = 0
    while True:
        pivot = None
        for i in range(top, nr):
            for j in range(top, nc):
                if m[i][j] and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        m[top], m[i] = m[i], m[top]
        for row in m:
            row[top], row[j] = row[j], row[top]
        while True:
            p = m[top][top]
            done = True
            for i in range(top + 1, nr):
                if m[i][top]:
                    q = m[i][top] // p
                    for j in range(top, nc):
                        m[i][j] -= q * m[top][j]
                    if m[i][top]:
                        m[top], m[i] = m[i], m[top]
                        done = False
                        break
            if not done:
                continue
            for j in range(top + 1, nc):
                if m[top][j]:
                    q = m[top][j] // p
                    for i in range(top, nr):
                        m[i][j] -= q * m[i][top]
                    if m[top][j]:
                        for i in range(top, nr):
                            m[i][top], m[i][j] = m[i][j], m[i][top]
                        done = False
                        break
            if done:
                break
        p = abs(m[top][top])
        offender = None
        for i in range(top + 1, nr):
            for j in range(top + 1, nc):
                if m[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(top, nc):
                m[top][j] += m[offender][j]
            continue
        factors.append(p)
        top += 1
        if top == nr or top == nc:
            break
    return factors


def homology(k: SimplicialComplex, reduced: bool = False) -> HomologyReport:
    """Integer homology of a nonempty complex, dimension by dimension."""
    if len(k) == 0:
        raise ValueError("homology of the empty complex is not defined here")
    dim = k.dim
    counts = list(k.f_vector())
    ranks = [0] * (dim + 2)
    torsion: list[tuple[int, ...]] = [()] * (dim + 1)
    for d in range(1, dim + 1):
        rows, _, _ = _boundary(k, d)
        rank, factors = smith_invariants(rows)
        ranks[d] = rank
        if d >= 1:
            t = tuple(f for f in factors if f > 1)
            torsion[d - 1] = t
    betti = []
    for d in range(dim + 1):
        b = counts[d] - ranks[d] - ranks[d + 1]
        betti.append(b)
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
    from .functors import order_complex

    report = homology(order_complex(core(space)[0]), reduced=reduced)
    pad = max(space.heights(), default=-1) + 1 - len(report.betti)
    return HomologyReport(report.betti + (0,) * pad, report.torsion + ((),) * pad, reduced)
