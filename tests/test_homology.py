"""Integer homology oracle.

The fixture values are classical: a circle has one 1-cycle, the 2-sphere
boundary one 2-cycle, the 6-vertex projective plane 2-torsion in degree 1.
The union-find comparison and the Euler alternating sum give two
independent cross-checks on random inputs.
"""

import random

import pytest

from finspace.complexes import from_facets
from finspace.corpus import load
from finspace.homology import (
    HomologyReport,
    homology,
    homology_space,
    reduced_homology,
    smith_invariants,
)
from finspace.spaces import from_covers

from util import random_complex

CIRCLE = from_facets([["a", "b"], ["b", "c"], ["a", "c"]])
SPHERE = from_facets([["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]])
RP2 = from_facets(
    [list(s) for s in ["123", "124", "135", "146", "156", "236", "245", "256", "345", "346"]]
)


def test_circle():
    assert homology(CIRCLE).betti == (1, 1)
    assert not any(homology(CIRCLE).torsion)


def test_sphere():
    assert homology(SPHERE).betti == (1, 0, 1)


def test_projective_plane_torsion():
    h = homology(RP2)
    assert h.betti == (1, 0, 0)
    assert h.torsion == ((), (2,), ())
    assert h.group(1) == "Z/2"


def test_two_points_and_reduced():
    k = from_facets([["a"], ["b"]])
    assert homology(k).betti == (2,)
    assert reduced_homology(k).betti == (1,)


def test_k23_shape():
    k = from_facets([[a, b] for a in ("a1", "a2") for b in ("b1", "b2", "b3")])
    assert reduced_homology(k).betti == (0, 2)


def test_report_formatting():
    h = homology(RP2)
    assert h.format().splitlines() == ["H_0 = Z", "H_1 = Z/2", "H_2 = 0"]
    r = reduced_homology(CIRCLE)
    assert r.format().splitlines()[0] == "H~_0 = 0"
    assert str(HomologyReport((2, 1), ((), (2, 4)))).count("Z") >= 3


def test_smith_invariant_chains():
    rank, factors = smith_invariants({0: {0: 2}, 1: {1: 3}})
    assert (rank, factors) == (2, [1, 6])
    rank, factors = smith_invariants({0: {0: 2, 1: 4}, 1: {1: 6}})
    assert (rank, factors) == (2, [2, 6])
    assert smith_invariants({}) == (0, [])


def test_graph_betti_against_union_find():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(1, 8)
        verts = [f"v{i}" for i in range(n)]
        edges = set()
        for _ in range(rng.randint(0, 12)):
            a, b = rng.sample(verts, 2) if n > 1 else (verts[0], verts[0])
            if a != b:
                edges.add(frozenset((a, b)))
        k = from_facets([[v] for v in verts] + [sorted(e) for e in edges])

        parent = {v: v for v in verts}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for e in edges:
            a, b = sorted(e)
            parent[find(a)] = find(b)
        comps = len({find(v) for v in verts})
        expected_b1 = len(edges) - n + comps
        h = homology(k)
        assert h.betti[0] == comps
        assert (h.betti[1] if len(h.betti) > 1 else 0) == expected_b1


def test_euler_poincare_on_random_complexes():
    rng = random.Random(47)
    for _ in range(25):
        k = random_complex(rng)
        h = homology(k)
        assert sum((-1) ** d * b for d, b in enumerate(h.betti)) == k.euler_characteristic()


def test_subdivision_preserves_homology():
    from finspace.functors import barycentric_subdivision

    for k in (CIRCLE, SPHERE, RP2, load("dunce")):
        a, b = homology(k), homology(barycentric_subdivision(k))
        assert a.betti == b.betti and a.torsion == b.torsion


def test_homology_of_a_space_uses_its_chains():
    s = from_covers(["a", "b", "c"], [("a", "b"), ("a", "c")])  # a below b and c
    assert homology_space(s).betti == (1, 0)
    sd3 = from_covers(
        ["a1", "a2", "b1", "b2", "b3"],
        [(b, a) for a in ("a1", "a2") for b in ("b1", "b2", "b3")],
    )
    assert homology_space(sd3, reduced=True).betti == (0, 2)


def test_empty_complex_is_rejected():
    with pytest.raises(ValueError):
        homology(from_facets([]))
