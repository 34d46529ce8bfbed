"""Seeded random generators and independent oracles shared across the test
modules.

The oracles are the earlier numpy implementations of the poset routines:
the boolean-matrix closure, constructor checks, pairwise inclusion order,
covers, heights and linear extension, and the beat, core, weak-point and
isomorphism routines, which build a fresh ``FiniteSpace`` per removal or
punctured set and compare refined signatures as nested tuples.  The bitmask
code in ``finspace`` must agree with them exactly.  Facets and free pairs of
a complex have pairwise coface scans as oracles, fence search the
breadth-first scan that compares every frontier map with every map,
``FiniteSpace.index`` its path without the in-range int shortcut, the
mapping cylinder its matrix,
Smith normal form the two-phase elimination: sparse unit pivots, then a
dense residue, and complex isomorphism its own earlier backtracker, which
checks each candidate against every placed vertex through frozenset edge
sets; both isomorphism oracles compute their signatures from the order
matrix or the simplex set, not from the invariants they check.  The beat tests are literal scans that read the order one ``is_leq``
pair at a time.  The certificate verifiers have their earlier forms, which rebuild
and revalidate a whole space or complex after every move and read a
space's order one ``is_leq`` pair at a time.  Both collapse searches have
their earlier engine, which builds, fingerprints and deduplicates every
child as it is pushed.  ``continuous_map_rows`` reads fence search's
column enumeration back as one row per map.  ``scaled_cpu`` bounds a call's CPU time at the
speed of the machine its bounds were set on.  ``replace`` rebuilds a result
record through its constructor with some fields changed.
"""

from __future__ import annotations

import importlib.util
import operator
import random
import string
import sys
import time
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from finspace.complexes import (
    SimplicialComplex,
    SimplicialMoveCertificate,
    _expansion_problem,
    complex_isomorphic,
    dotted_label,
    from_facets,
)
from finspace.maps import (
    EXHAUSTIVE_LIMIT,
    TABLE_BIT_LIMIT,
    ContinuousMap,
    FenceResult,
    _continuous_maps,
    pointwise_leq,
)
from finspace.moves import (
    ReplayResult,
    SearchResult,
    SpaceMove,
    SpaceMoveCertificate,
    _attach,
    _candidate_moves,
)
from finspace.spaces import FiniteSpace, from_covers, is_isomorphic


# Median CPU time of one calibration slice of perfbench/speed.py, timed
# inside tier-1 on the 2-vCPU VM (Python 3.11.7) where the scaled bounds were set
SLICE_REF_S = 0.0023


def scaled_cpu(call):
    """``call()``'s result and its CPU seconds at the speed of that VM,
    scaled by the median of twenty calibration slices timed before it and
    twenty after, as perfbench scales its jobs."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "speed.py"
    spec = importlib.util.spec_from_file_location("speed", path)
    speed = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(speed)
    slices = [speed.slice_time() for _ in range(20)]
    start = time.process_time()
    result = call()
    took = time.process_time() - start
    slices += [speed.slice_time() for _ in range(20)]
    return result, took * SLICE_REF_S / speed.median(slices)


def calls(code, call) -> int:
    """How many times ``call()`` runs the function with code object ``code``."""
    runs = 0

    def count(frame, event, arg):
        nonlocal runs
        runs += event == "call" and frame.f_code is code

    outer = sys.getprofile()
    sys.setprofile(count)
    try:
        call()
    finally:
        sys.setprofile(outer)
    return runs


def replace(record, **changes):
    """A copy of ``record`` with some fields changed, rebuilt through its
    class's public constructor, so a change the constructor refuses raises
    there, as the ``ValueError`` of a bad move does."""
    fields = {name: getattr(record, name) for name in record.__match_args__}
    return type(record)(**{**fields, **changes})


def nested_code(function, name: str):
    """The code object of the function ``name`` defined inside ``function``."""
    return next(
        c for c in function.__code__.co_consts if getattr(c, "co_name", None) == name
    )


def leq_matrix(space: FiniteSpace) -> np.ndarray:
    """The order as a boolean matrix, ``m[i, j]`` iff point i <= j, read
    pair by pair through ``is_leq``."""
    n = space.n
    m = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            m[i, j] = space.is_leq(i, j)
    return m


def transitive_closure(rel: np.ndarray) -> np.ndarray:
    """Square the relation until it stops growing."""
    closed = rel.copy()
    while True:
        step = closed | (closed @ closed)
        if np.array_equal(step, closed):
            return closed
        closed = step


def closure_masks_oracle(n: int, pairs) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Strict down- and up-set masks of the order on ``n`` points that the
    index pairs ``(i, j)``, i < j, generate, closed by matrix squaring."""
    rel = np.eye(n, dtype=bool)
    for i, j in pairs:
        rel[i, j] = True
    strict = transitive_closure(rel) & ~np.eye(n, dtype=bool)
    down = tuple(sum(1 << i for i in range(n) if strict[i, j]) for j in range(n))
    up = tuple(sum(1 << j for j in range(n) if strict[i, j]) for i in range(n))
    return down, up


def check_order_oracle(leq: np.ndarray) -> None:
    """The matrix constructor's order checks, with its error texts."""
    n = len(leq)
    if n:
        if not leq.diagonal().all():
            raise ValueError("relation is not reflexive")
        if (leq & leq.T).sum() != n:
            raise ValueError("relation is not antisymmetric")
        if ((leq @ leq) & ~leq).any():
            raise ValueError("relation is not transitive")


def from_covers_oracle(labels, covers) -> FiniteSpace:
    """Cover pairs closed by matrix squaring, cycles found on the closure."""
    index = {lab: i for i, lab in enumerate(labels)}
    rel = np.eye(len(labels), dtype=bool)
    for lo, hi in covers:
        rel[index[lo], index[hi]] = True
    closed = transitive_closure(rel)
    if (closed & closed.T).sum() != len(labels):
        raise ValueError("cover pairs contain a cycle")
    return FiniteSpace(labels, closed)


def inclusion_order(sets) -> np.ndarray:
    """The matrix of s <= t over ``sets``, by testing every pair."""
    n = len(sets)
    rel = np.zeros((n, n), dtype=bool)
    for i, s in enumerate(sets):
        for j, t in enumerate(sets):
            rel[i, j] = s <= t
    return rel


def index_oracle(space: FiniteSpace, x) -> int:
    """A point given by label or by anything ``operator.index`` accepts,
    checked against the labels and the range."""
    try:
        i = space._index[x] if isinstance(x, str) else operator.index(x)
    except (KeyError, TypeError):
        raise KeyError(f"no point labeled {x!r}") from None
    if not 0 <= i < space.n:
        raise KeyError(f"point index {i} out of range")
    return i


def covers_oracle(space: FiniteSpace) -> list[tuple[int, int]]:
    """Cover pairs (i, j) in row-major order: strict minus strict squared."""
    strict = leq_matrix(space) & ~np.eye(space.n, dtype=bool)
    cov = strict & ~(strict @ strict)
    return [(int(i), int(j)) for i, j in zip(*np.nonzero(cov))]


def heights_oracle(space: FiniteSpace) -> tuple[int, ...]:
    """Longest chain below each point, points taken by down-degree."""
    strict = leq_matrix(space) & ~np.eye(space.n, dtype=bool)
    h = [0] * space.n
    for j in np.argsort(strict.sum(axis=0), kind="stable"):
        h[j] = 1 + max((h[i] for i in np.flatnonzero(strict[:, j])), default=-1)
    return tuple(h)


def linear_extension_oracle(space: FiniteSpace) -> list[int]:
    """Repeatedly take the lowest index with nothing left below it."""
    strict = leq_matrix(space) & ~np.eye(space.n, dtype=bool)
    remaining = set(range(space.n))
    pending = strict.sum(axis=0).tolist()
    out: list[int] = []
    while remaining:
        i = min(j for j in remaining if pending[j] == 0)
        out.append(i)
        remaining.discard(i)
        for j in np.flatnonzero(strict[i, :]):
            pending[j] -= 1
    return out


def equal_oracle(a: FiniteSpace, b: FiniteSpace) -> bool:
    """Labelled equality through the matrices, permuted by label."""
    if set(a.labels) != set(b.labels):
        return False
    perm = [b.index(l) for l in a.labels]
    return np.array_equal(leq_matrix(a), leq_matrix(b)[np.ix_(perm, perm)])


def continuous_maps_oracle(dom: FiniteSpace, cod: FiniteSpace) -> list[tuple[int, ...]]:
    """Every order-preserving map, assigned along the linear extension with
    images tried in ascending index order."""
    ld, lc = leq_matrix(dom), leq_matrix(cod)
    order = linear_extension_oracle(dom)
    out: list[tuple[int, ...]] = []
    assign = [-1] * dom.n

    def place(k: int) -> None:
        if k == dom.n:
            out.append(tuple(assign))
            return
        i = order[k]
        for j in range(cod.n):
            if all(lc[assign[p], j] for p in range(dom.n) if ld[p, i] and p != i):
                assign[i] = j
                place(k + 1)
                assign[i] = -1

    place(0)
    return out


def continuous_map_rows(dom: FiniteSpace, cod: FiniteSpace) -> list[tuple[int, ...]]:
    """The maps of ``_continuous_maps`` as one row each, read off its columns:
    entry k of row v is the image of ``dom.linear_extension()[k]`` under map v."""
    count, columns = _continuous_maps(dom, cod)
    return [tuple(column[v] for column in columns) for v in range(count)]


def fence_oracle(f: ContinuousMap, g: ContinuousMap, budget: int = 16) -> FenceResult:
    """Breadth-first fence search that compares each frontier map with every
    continuous map of ``continuous_maps_oracle``, in its order, coordinate by
    coordinate; refused, as fence search is, past either of its limits."""
    if f.dom != g.dom or f.cod != g.cod:
        raise ValueError("maps must share domain and codomain")
    if f.images == g.images:
        return FenceResult((f,), True)
    if pointwise_leq(f, g) or pointwise_leq(g, f):
        return FenceResult((f, g), True)
    if budget < 2 or f.cod.n ** max(f.dom.n, 1) > EXHAUSTIVE_LIMIT:
        return FenceResult(None, False)

    maps = continuous_maps_oracle(f.dom, f.cod)
    if f.dom.n * f.cod.n * len(maps) > TABLE_BIT_LIMIT:
        return FenceResult(None, False)
    index = {m: i for i, m in enumerate(maps)}
    closed_up = [u | 1 << j for j, u in enumerate(f.cod.masks()[1])]

    def comparable(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
        up = down = True
        for i, j in zip(a, b):
            if not closed_up[i] >> j & 1:
                up = False
            if not closed_up[j] >> i & 1:
                down = False
            if not (up or down):
                return False
        return up or down

    start, goal = index[f.images], index[g.images]
    parent = {start: -1}
    frontier = [start]
    depth = 0
    cut = False
    while frontier and goal not in parent:
        depth += 1
        if depth > budget:
            cut = True
            break
        nxt = []
        for u in frontier:
            mu = maps[u]
            for v, mv in enumerate(maps):
                if v not in parent and comparable(mu, mv):
                    parent[v] = u
                    nxt.append(v)
        frontier = nxt
    if goal not in parent:
        return FenceResult(None, not cut)
    chain = []
    v = goal
    while v != -1:
        chain.append(v)
        v = parent[v]
    return FenceResult(tuple(ContinuousMap(f.dom, f.cod, maps[v]) for v in reversed(chain)), True)


def smith_oracle(rows: dict[int, dict[int, int]]) -> tuple[int, list[int]]:
    """Rank and invariant factor chain of a sparse integer matrix: unit
    pivots eliminated sparsely by Markowitz cost, then the non-unit residue
    finished by a dense Smith normal form with its divisibility fix-up."""
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


def random_poset(rng: random.Random, n: int, p: float = 0.3) -> FiniteSpace:
    """Random order: edges on the upper triangle, then transitive closure."""
    rel = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rel[i, j] = True
    return FiniteSpace(tuple(f"p{i}" for i in range(n)), transitive_closure(rel))


def drawn_poset(rng: random.Random, data, n: int) -> FiniteSpace:
    """A random poset, a chain, an antichain or two disjoint copies of a
    random poset on ``n`` points (one fewer for odd copies), under fresh
    labels listed in a drawn order that differs from label order and need
    not extend the partial order; ``data`` is hypothesis's draw object."""
    shape = data.draw(st.sampled_from(["random", "chain", "antichain", "copies"]))
    p = {"chain": 1.0, "antichain": 0.0}.get(shape, rng.random())
    x = random_poset(rng, n // 2 if shape == "copies" else n, p)
    if shape == "copies":
        x = from_covers(
            [f"{c}{l}" for c in "ab" for l in x.labels],
            [(f"{c}{u}", f"{c}{v}") for c in "ab" for u, v in x.hasse_edges()],
        )
    labels = data.draw(st.permutations([f"p{i}" for i in range(x.n)]))
    name = dict(zip(x.labels, labels))
    pairs = [(name[a], name[b]) for a, b in x.hasse_edges()]
    rng.shuffle(pairs)
    return from_covers(data.draw(st.permutations(labels)), pairs)


def cylinder_oracle(f: ContinuousMap) -> FiniteSpace:
    """The mapping cylinder from its definition, as a matrix: the domain
    and codomain orders on the diagonal, and L:x <= R:y iff f(x) <= y."""
    n, m = f.dom.n, f.cod.n
    leq = np.zeros((n + m, n + m), dtype=bool)
    leq[:n, :n] = leq_matrix(f.dom)
    leq[n:, n:] = leq_matrix(f.cod)
    for x, fx in enumerate(f.images):
        for y in range(m):
            leq[x, n + y] = f.cod.is_leq(fx, y)
    labels = [f"L:{l}" for l in f.dom.labels] + [f"R:{l}" for l in f.cod.labels]
    return FiniteSpace(labels, leq)


def random_complex(
    rng: random.Random, n_vertices: int = 5, n_facets: int = 4, max_simplices: int = 12
) -> SimplicialComplex:
    """Random small complex with at most ``max_simplices`` simplices."""
    verts = list(string.ascii_lowercase[:n_vertices])
    while True:
        facets = []
        for _ in range(rng.randint(1, n_facets)):
            size = rng.randint(1, min(3, len(verts)))
            facets.append(rng.sample(verts, size))
        k = from_facets(facets)
        if len(k) <= max_simplices:
            return k


def random_monotone_map(
    rng: random.Random, dom: FiniteSpace, cod: FiniteSpace
) -> ContinuousMap:
    """Random order-preserving map, built along a linear extension."""
    for _ in range(40):
        images = [-1] * dom.n
        ok = True
        for i in dom.linear_extension():
            lower = [
                images[j] for j in range(dom.n) if j != i and dom.is_leq(j, i) and images[j] >= 0
            ]
            options = [
                j for j in range(cod.n) if all(cod.is_leq(l, j) for l in lower)
            ]
            if not options:
                ok = False
                break
            images[i] = rng.choice(options)
        if ok:
            return ContinuousMap(dom, cod, tuple(images))
    # random placement got stuck; a constant map always works
    return ContinuousMap.constant(dom, cod, rng.randrange(cod.n))


def all_chains_brute(space: FiniteSpace) -> set[frozenset[str]]:
    """Independent chain enumeration: check all subsets pairwise."""
    from itertools import combinations

    chains: set[frozenset[str]] = set()
    idx = range(space.n)
    for r in range(1, space.n + 1):
        for combo in combinations(idx, r):
            if all(
                space.is_leq(a, b) or space.is_leq(b, a)
                for a, b in combinations(combo, 2)
            ):
                chains.add(frozenset(space.labels[i] for i in combo))
    return chains


def barycentric_oracle(k: SimplicialComplex) -> SimplicialComplex:
    """Independent first barycentric subdivision, built straight from the
    inclusion relation rather than through the face poset: vertices are the
    simplices of ``k`` under their dotted names, simplices are the chains."""
    elems = list(k.simplices)
    if len({dotted_label(s) for s in elems}) != len(elems):
        raise ValueError("dotted simplex names collide; rename the vertices")
    fam: set[frozenset[str]] = set()

    def grow(chain: list[frozenset[str]]) -> None:
        fam.add(frozenset(dotted_label(s) for s in chain))
        for s in elems:
            if len(s) > len(chain[-1]) and chain[-1] < s:
                grow(chain + [s])

    for s in elems:
        grow([s])
    return SimplicialComplex(fam)


def _canonical(simplices) -> list[frozenset[str]]:
    return sorted(simplices, key=lambda s: (len(s), sorted(s)))


def facets_oracle(k: SimplicialComplex) -> tuple[tuple[str, ...], ...]:
    """Maximal simplices in canonical order, each tested against every other."""
    fam = _canonical(k._set)
    return tuple(tuple(sorted(s)) for s in fam if not any(s < t for t in fam))


def free_pairs_oracle(k: SimplicialComplex) -> list[tuple[tuple[str, ...], str]]:
    """(S, a) in canonical order with S + {a} the only proper coface of S,
    the cofaces found by testing every simplex."""
    out = []
    for s in _canonical(k._set):
        cof = [t for t in k._set if s < t]
        if len(cof) == 1:
            (apex,) = cof[0] - s
            out.append((tuple(sorted(s)), apex))
    return out


def up_beat_oracle(space: FiniteSpace, x: int | str) -> str | None:
    """If the strict up-set of x has a minimum, return that witness label."""
    i = space.index(x)
    up = [j for j in range(space.n) if j != i and space.is_leq(i, j)]
    return next((space.labels[j] for j in up if all(space.is_leq(j, k) for k in up)), None)


def down_beat_oracle(space: FiniteSpace, x: int | str) -> str | None:
    """If the strict down-set of x has a maximum, return that witness label."""
    i = space.index(x)
    down = [j for j in range(space.n) if j != i and space.is_leq(j, i)]
    return next((space.labels[j] for j in down if all(space.is_leq(k, j) for k in down)), None)


def beat_side_oracle(space: FiniteSpace, i: int | str) -> tuple[str, str] | None:
    """The beat side of point i with its witness, testing down before up."""
    for side, test in (("beat-down", down_beat_oracle), ("beat-up", up_beat_oracle)):
        witness = test(space, i)
        if witness is not None:
            return side, witness
    return None


def strip_beats_oracle(
    space: FiniteSpace, priority, floor: int = 0
) -> tuple[FiniteSpace, list[tuple[SpaceMove, str]]]:
    """Rescan ``priority`` for the first beat point and delete it, until none
    is left or the space is down to ``floor`` points."""
    current = space
    removed: list[tuple[SpaceMove, str]] = []
    while current.n > floor:
        for lab in priority:
            if lab in current._index:
                beat = beat_side_oracle(current, lab)
                if beat is not None:
                    break
        else:
            break
        removed.append((SpaceMove("remove", lab, beat[0]), beat[1]))
        current = current.delete(lab)
    return current, removed


def contractible_oracle(space: FiniteSpace) -> bool:
    return space.n > 0 and strip_beats_oracle(space, space.labels)[0].n == 1


def weak_point_oracle(space: FiniteSpace, x: int | str) -> str | None:
    """'down-weak', 'up-weak', 'both' or None, from the punctured subspaces."""
    d = contractible_oracle(space.punctured_open(x))
    u = contractible_oracle(space.punctured_closure(x))
    if d and u:
        return "both"
    if d:
        return "down-weak"
    if u:
        return "up-weak"
    return None


def refine_signatures_oracle(space: FiniteSpace, rounds: int = 2) -> list:
    """Iterated neighborhood refinement of (height, up-degree, down-degree),
    all read from the order matrix."""
    strict = leq_matrix(space) & ~np.eye(space.n, dtype=bool)
    sig: list = [
        (h, int(up), int(down))
        for h, up, down in zip(heights_oracle(space), strict.sum(axis=1), strict.sum(axis=0))
    ]
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


def isomorphic_oracle(a: FiniteSpace, b: FiniteSpace) -> dict[str, str] | None:
    """Backtracking over points ordered by refined-signature rarity, with
    candidates in ascending index order and pairwise relation checks."""
    if a.n != b.n:
        return None
    sig_a = refine_signatures_oracle(a)
    sig_b = refine_signatures_oracle(b)
    if sorted(map(repr, sig_a)) != sorted(map(repr, sig_b)):
        return None

    buckets: dict[str, list[int]] = {}
    for j in range(b.n):
        buckets.setdefault(repr(sig_b[j]), []).append(j)
    order = sorted(range(a.n), key=lambda i: (len(buckets[repr(sig_a[i])]), i))

    leq_a, leq_b = leq_matrix(a), leq_matrix(b)
    image = [-1] * a.n
    used = [False] * b.n

    def extend(k: int) -> bool:
        if k == a.n:
            return True
        i = order[k]
        for j in buckets[repr(sig_a[i])]:
            if used[j]:
                continue
            if any(
                leq_a[i, i2] != leq_b[j, image[i2]] or leq_a[i2, i] != leq_b[image[i2], j]
                for i2 in order[:k]
            ):
                continue
            image[i], used[j] = j, True
            if extend(k + 1):
                return True
            image[i], used[j] = -1, False
        return False

    if not extend(0):
        return None
    return {a.labels[i]: b.labels[image[i]] for i in range(a.n)}


def vertex_signatures_oracle(simplices: set[frozenset[str]]) -> dict[str, tuple]:
    """Per vertex, its simplex counts by dimension, then the sorted counts of
    its edge neighbours, read from the simplex set."""
    dim = max(map(len, simplices), default=0) - 1
    counts: dict[str, list[int]] = {v: [0] * (dim + 1) for s in simplices for v in s}
    for s in simplices:
        for v in s:
            counts[v][len(s) - 1] += 1
    base = {v: tuple(c) for v, c in counts.items()}
    nbrs: dict[str, list[tuple]] = {v: [] for v in base}
    for s in simplices:
        if len(s) == 2:
            v, w = s
            nbrs[v].append(base[w])
            nbrs[w].append(base[v])
    return {v: (base[v], tuple(sorted(nbrs[v]))) for v in base}


def complex_isomorphic_oracle(
    a: SimplicialComplex, b: SimplicialComplex
) -> dict[str, str] | None:
    """Vertex bijection carrying simplices onto simplices, or None."""
    if len(a.vertices) != len(b.vertices) or a.f_vector() != b.f_vector():
        return None
    sig_a = vertex_signatures_oracle(a._set)
    sig_b = vertex_signatures_oracle(b._set)
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return None
    buckets: dict[tuple, list[str]] = {}
    for w in b.vertices:
        buckets.setdefault(sig_b[w], []).append(w)
    order = sorted(a.vertices, key=lambda v: (len(buckets[sig_a[v]]), v))
    image: dict[str, str] = {}
    used: set[str] = set()
    edges_a = {frozenset(s) for s in a.simplices if len(s) == 2}
    edges_b = {frozenset(s) for s in b.simplices if len(s) == 2}
    # Iterative backtracking: pos[k] is the next candidate to try for order[k].
    candidates = [buckets.get(sig_a[v], ()) for v in order]
    pos = [0] * len(order)
    k = 0
    while k >= 0:
        if k == len(order):
            if {frozenset(image[v] for v in s) for s in a.simplices} == b._set:
                return dict(image)
            k -= 1
            continue
        v = order[k]
        if v in image:
            used.discard(image.pop(v))
        opts = candidates[k]
        while pos[k] < len(opts):
            w = opts[pos[k]]
            pos[k] += 1
            if w in used or any(
                (frozenset((v, u)) in edges_a) != (frozenset((w, image[u])) in edges_b)
                for u in image
            ):
                continue
            image[v] = w
            used.add(w)
            k += 1
            break
        else:
            pos[k] = 0
            k -= 1
    return None


def _literally_contractible_oracle(space: FiniteSpace) -> bool:
    """Delete a beat point, found by the definitions, until none is left;
    contractible iff one point remains."""
    while True:
        for i in range(space.n):
            if down_beat_oracle(space, i) is not None or up_beat_oracle(space, i) is not None:
                space = space.delete(i)
                break
        else:
            return space.n == 1


def _check_side_oracle(space: FiniteSpace, label: str, side: str) -> str | None:
    """Recheck a declared side from the definitions; None means it holds.

    Reads the order only through ``is_leq``."""
    i = space.index(label)
    if side == "beat-down":
        if down_beat_oracle(space, i) is None:
            return "strict down-set has no maximum"
        return None
    if side == "beat-up":
        if up_beat_oracle(space, i) is None:
            return "strict up-set has no minimum"
        return None
    others = [j for j in range(space.n) if j != i]
    if side == "down-weak":
        below = space.subspace(j for j in others if space.is_leq(j, i))
        if not _literally_contractible_oracle(below):
            return "punctured minimal open set is not contractible"
        return None
    above = space.subspace(j for j in others if space.is_leq(i, j))
    if not _literally_contractible_oracle(above):
        return "punctured closure is not contractible"
    return None


def verify_space_oracle(cert: SpaceMoveCertificate) -> ReplayResult:
    """Replay every move against the definitions, reporting the first failure."""
    current = cert.start
    for k, move in enumerate(cert.moves):
        if move.direction == "remove":
            if move.label not in current._index:
                return ReplayResult(False, k, f"no point labeled {move.label!r}")
            fail = _check_side_oracle(current, move.label, move.side)
            if fail is not None:
                return ReplayResult(False, k, f"{move.label!r} is not {move.side}: {fail}")
            current = current.delete(move.label)
        else:
            try:
                bigger = _attach(current, move.down or (), move.up or (), move.label)
            except (ValueError, KeyError) as exc:
                message = exc.args[0] if isinstance(exc, KeyError) else exc
                return ReplayResult(False, k, f"cannot attach {move.label!r}: {message}")
            fail = _check_side_oracle(bigger, move.label, move.side)
            if fail is not None:
                return ReplayResult(
                    False, k, f"added point {move.label!r} is not {move.side}: {fail}"
                )
            current = bigger
    return ReplayResult(True, None, "", current)


def verify_simplicial_oracle(cert: SimplicialMoveCertificate) -> ReplayResult:
    """Replay each move, rechecking freeness (or gluing legality) from scratch."""
    current = cert.start
    for k, move in enumerate(cert.moves):
        fs = frozenset(move.face)
        if move.direction == "remove":
            if fs not in current:
                return ReplayResult(False, k, f"{list(move.face)} is not a simplex")
            cof = [t for t in current._set if fs < t]
            if len(cof) != 1 or cof[0] != fs | {move.apex}:
                return ReplayResult(
                    False, k, f"{list(move.face)} is not free with apex {move.apex!r}"
                )
            current = SimplicialComplex(current._set - {fs, fs | {move.apex}})
        else:
            problem = _expansion_problem(current._set, fs, fs | {move.apex})
            if problem is not None:
                return ReplayResult(False, k, problem)
            current = SimplicialComplex(current._set | {fs, fs | {move.apex}})
    return ReplayResult(True, None, "", current)


def budgeted_search_oracle(start, expand, at_goal, fingerprint, isomorphic, budget):
    """Depth-first search for a state passing ``at_goal``.

    ``expand`` yields (move, child) pairs in preference order; a child that
    ``isomorphic`` matches (not None) with a seen state of the same
    ``fingerprint`` is pruned.  Returns (move path or None, whether the
    search ended within ``budget`` nodes, nodes expanded).  A negative
    ``budget`` is refused with ValueError.
    """
    if budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    seen: dict = {}

    def visit(state) -> bool:
        bucket = seen.setdefault(fingerprint(state), [])
        if any(isomorphic(state, old) is not None for old in bucket):
            return False
        bucket.append(state)
        return True

    nodes = 0
    stack = [(start, ())]
    visit(start)
    while stack:
        current, path = stack.pop()
        nodes += 1
        if nodes > budget:
            return None, False, nodes
        if at_goal(current):
            return path, True, nodes
        children = [
            (child, path + (move,)) for move, child in expand(current) if visit(child)
        ]
        stack.extend(reversed(children))
    return None, True, nodes


def collapse_search_oracle(
    space: FiniteSpace, target: FiniteSpace | None = None, budget: int = 100_000
) -> SearchResult:
    """``collapse_search`` on the engine that checks children at push."""
    goal_n = 1 if target is None else target.n

    def at_goal(s: FiniteSpace) -> bool:
        return s.n == goal_n and (target is None or is_isomorphic(s, target) is not None)

    def expand(s: FiniteSpace):
        if s.n > goal_n:
            for move in _candidate_moves(s):
                yield move, s.delete(move.label)

    path, conclusive, nodes = budgeted_search_oracle(
        space, expand, at_goal, FiniteSpace.fingerprint, is_isomorphic, budget
    )
    cert = None if path is None else SpaceMoveCertificate(space, path)
    return SearchResult(cert, conclusive, nodes)


def collapse_sequence_search_oracle(
    k: SimplicialComplex, target: SimplicialComplex | None = None, budget: int = 100_000
) -> SearchResult:
    """``collapse_sequence_search`` on the engine that checks children at push."""
    goal_len = 1 if target is None else len(target)

    def at_goal(c: SimplicialComplex) -> bool:
        return len(c) == goal_len and (
            target is None or complex_isomorphic(c, target) is not None
        )

    def expand(c: SimplicialComplex):
        if len(c) > goal_len:
            for face, apex in c.free_pairs():
                child, move = c.elementary_collapse(face, apex)
                yield move, child

    path, conclusive, nodes = budgeted_search_oracle(
        k, expand, at_goal, SimplicialComplex._fingerprint, complex_isomorphic, budget
    )
    cert = None if path is None else SimplicialMoveCertificate(k, path)
    return SearchResult(cert, conclusive, nodes)
