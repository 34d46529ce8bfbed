"""Seeded random generators shared across the test modules."""

from __future__ import annotations

import random
import string

import numpy as np

from finspace.complexes import SimplicialComplex, dotted_label, from_facets
from finspace.maps import ContinuousMap
from finspace.spaces import FiniteSpace


def random_poset(rng: random.Random, n: int, p: float = 0.3) -> FiniteSpace:
    """Random order: edges on the upper triangle, then transitive closure."""
    rel = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rel[i, j] = True
    while True:
        closed = rel | (rel @ rel)
        if np.array_equal(closed, rel):
            break
        rel = closed
    return FiniteSpace(tuple(f"p{i}" for i in range(n)), rel)


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
    lt = dom.lt()
    for _ in range(40):
        images = [-1] * dom.n
        ok = True
        for i in dom.linear_extension():
            lower = [images[j] for j in np.flatnonzero(lt[:, i]) if images[j] >= 0]
            options = [
                j for j in range(cod.n) if all(cod.leq[l, j] for l in lower)
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
                space.leq[a, b] or space.leq[b, a]
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
