"""Property-based tests: punctured sets, the barycentric subdivision, and
the bitmask kernels against their numpy oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finspace.complexes import from_facets
from finspace.functors import barycentric_subdivision
from finspace.moves import _beat_side, _strip_beats, is_contractible, is_weak_point
from finspace.spaces import FiniteSpace, from_covers, is_isomorphic

from util import (
    barycentric_oracle,
    beat_side_oracle,
    contractible_oracle,
    isomorphic_oracle,
    random_complex,
    random_poset,
    strip_beats_oracle,
    weak_point_oracle,
)


def _shuffled_poset(rng, data, n: int) -> FiniteSpace:
    """A random poset, sometimes two disjoint copies of one (for many
    automorphisms), whose label order and index order differ and whose
    index order need not extend the partial order."""
    if n >= 2 and data.draw(st.booleans()):
        half = random_poset(rng, n // 2, rng.random()).leq
        leq = np.eye(n, dtype=bool)
        leq[: n // 2, : n // 2] = half
        leq[n // 2 : 2 * (n // 2), n // 2 : 2 * (n // 2)] = half
    else:
        leq = random_poset(rng, n, rng.random()).leq
    perm = data.draw(st.permutations(range(n)))
    labels = data.draw(st.permutations([f"p{i}" for i in range(n)]))
    return FiniteSpace(tuple(labels), leq[np.ix_(perm, perm)])


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 8), st.data())
def test_punctured_sets_are_the_strict_down_and_up_sets(rng, n, data):
    # shuffled labels, so index order and label order differ
    space = _shuffled_poset(rng, data, n)
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


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 10), st.data())
def test_beat_and_weak_sides_match_the_oracle(rng, n, data):
    space = _shuffled_poset(rng, data, n)
    for x in space.labels:
        assert _beat_side(space, x) == beat_side_oracle(space, x)
        assert is_weak_point(space, x) == weak_point_oracle(space, x)
    assert is_contractible(space) == contractible_oracle(space)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 12), st.data())
def test_beat_stripping_matches_the_oracle(rng, n, data):
    space = _shuffled_poset(rng, data, n)
    priority = data.draw(st.permutations(space.labels))
    for floor in (0, 1):
        rest, removed = _strip_beats(space, priority, floor)
        want_rest, want_removed = strip_beats_oracle(space, priority, floor)
        assert removed == want_removed
        assert rest.labels == want_rest.labels and rest == want_rest


def _perturbed(rng, space: FiniteSpace) -> FiniteSpace:
    """The space with one cover relation removed, or one relation between
    incomparable points added together with its transitive closure."""
    leq = space.leq.copy()
    covers = list(zip(*np.nonzero(space.covers())))
    pairs = [(i, j) for i in range(space.n) for j in range(space.n) if not leq[i, j] | leq[j, i]]
    if covers and (not pairs or rng.random() < 0.5):
        i, j = rng.choice(covers)
        leq[i, j] = False
    elif pairs:
        i, j = rng.choice(pairs)
        leq[i, j] = True
        while not np.array_equal(closed := leq | (leq @ leq), leq):
            leq = closed
    return FiniteSpace(space.labels, leq)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 10), st.booleans(), st.data())
def test_isomorphism_matches_the_oracle(rng, n, perturb, data):
    a = _shuffled_poset(rng, data, n)
    perm = data.draw(st.permutations(range(n)))
    b = FiniteSpace(
        tuple(f"b{k}" for k in data.draw(st.permutations(range(n)))),
        a.leq[np.ix_(perm, perm)],
    )
    if perturb:
        b = _perturbed(rng, b)
    got = is_isomorphic(a, b)
    want = isomorphic_oracle(a, b)
    assert got == want
    if got is None:
        assert perturb
        return
    assert list(got.items()) == list(want.items())
    image = [b.index(got[lab]) for lab in a.labels]
    assert np.array_equal(a.leq, b.leq[np.ix_(image, image)])


def test_isomorphism_candidate_order_follows_two_refinement_rounds():
    # one round of refinement would bucket and order these points differently
    # and return another isomorphism
    a = from_covers(
        [f"p{i}" for i in range(8)],
        [("p0", "p1"), ("p0", "p7"), ("p2", "p1"), ("p3", "p4"), ("p5", "p1"),
         ("p5", "p3"), ("p6", "p2"), ("p6", "p4"), ("p7", "p4")],
    )
    b = from_covers(
        [f"b{i}" for i in range(8)],
        [("b0", "b6"), ("b1", "b2"), ("b1", "b6"), ("b2", "b5"), ("b3", "b5"),
         ("b4", "b0"), ("b4", "b5"), ("b7", "b3"), ("b7", "b6")],
    )
    want = {"p0": "b1", "p1": "b6", "p2": "b0", "p3": "b3",
            "p4": "b5", "p5": "b7", "p6": "b4", "p7": "b2"}
    assert isomorphic_oracle(a, b) == want
    assert list(is_isomorphic(a, b).items()) == list(want.items())
