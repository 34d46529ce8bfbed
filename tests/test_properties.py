"""Property-based tests: punctured sets and the barycentric subdivision."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finspace.complexes import from_facets
from finspace.functors import barycentric_subdivision
from finspace.spaces import FiniteSpace

from util import barycentric_oracle, random_complex, random_poset


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 8), st.data())
def test_punctured_sets_are_the_strict_down_and_up_sets(rng, n, data):
    # shuffled labels, so index order and label order differ
    base = random_poset(rng, n, rng.random())
    space = FiniteSpace(tuple(data.draw(st.permutations(base.labels))), base.leq)
    x = data.draw(st.sampled_from(space.labels))
    i = space.index(x)
    below = [space.labels[j] for j in range(space.n) if space.leq[j, i] and j != i]
    above = [space.labels[j] for j in range(space.n) if space.leq[i, j] and j != i]
    assert space.punctured_open(x) == space.subspace(below)
    assert space.punctured_closure(x) == space.subspace(above)
    assert space.punctured_open(x).labels == tuple(below)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 6), st.integers(1, 5))
def test_barycentric_subdivision_matches_the_direct_oracle(rng, n_vertices, n_facets):
    k = random_complex(rng, n_vertices, n_facets, max_simplices=20)
    assert barycentric_subdivision(k) == barycentric_oracle(k)


def test_barycentric_subdivision_rejects_dotted_name_collisions():
    k = from_facets([("a", "b"), ("a.b",)])
    for subdivide in (barycentric_subdivision, barycentric_oracle):
        with pytest.raises(ValueError, match="dotted simplex names collide"):
            subdivide(k)
