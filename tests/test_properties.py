"""Property-based tests: punctured sets, the barycentric subdivision, the
bitmask poset and its kernels against their numpy oracles, the one-pass
label checks against the per-label loop, isomorphism
colour classes against two rounds of signature refinement, and the complex
side (facets, free pairs, order complexes, homology through the core)
against pairwise scans and the validating constructor, fence search
against the scan that compares every pair of maps, point lookup against
its path without the int shortcut, Smith normal form against the two-phase
elimination, complex isomorphism against its earlier backtracker,
homology along every move of a certificate, both certificate verifiers
against their earlier forms on valid and mutated certificates, membership
evidence replayed on the definitions against the bitmask kernels, the
weak-point translation against the simplicial verifier, and both collapse
searches against their earlier engine, which checks children at push."""

import random
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finspace.complexes import (
    SimplicialComplex,
    collapse_sequence_search,
    complex_isomorphic,
    cone,
    dotted_label,
    from_facets,
    verify_simplicial_certificate,
)
from finspace.functors import (
    barycentric_subdivision,
    bridge_space,
    chain_label,
    cylinder_certificates,
    face_poset,
    h_map,
    order_complex,
    space_subdivision,
    translate_simplicial_collapse,
    translate_space_collapse,
)
from finspace.fileio import format_simplicial_certificate, format_space_certificate
from finspace.homology import _boundary, homology, homology_space, smith_invariants
from finspace.maps import (
    ContinuousMap,
    MembershipEvidence,
    fence_homotopic,
    is_distinguished,
    is_op_distinguished,
    verify_membership_evidence,
)
from finspace.moves import (
    SIDES,
    SpaceMove,
    _beat_in,
    _contractible_in,
    _strip_in,
    collapse_search,
    core,
    is_contractible,
    is_down_beat,
    is_up_beat,
    is_weak_point,
    verify_space_certificate,
)
from finspace.spaces import FiniteSpace, _checked_labels, _members, from_covers, is_isomorphic

from util import (
    all_chains_brute,
    barycentric_oracle,
    beat_side_oracle,
    check_order_oracle,
    collapse_search_oracle,
    collapse_sequence_search_oracle,
    complex_isomorphic_oracle,
    continuous_map_rows,
    continuous_maps_oracle,
    contractible_oracle,
    covers_oracle,
    down_beat_oracle,
    drawn_poset,
    equal_oracle,
    facets_oracle,
    fence_oracle,
    free_pairs_oracle,
    from_covers_oracle,
    heights_oracle,
    index_oracle,
    inclusion_order,
    isomorphic_oracle,
    leq_matrix,
    linear_extension_oracle,
    random_complex,
    random_monotone_map,
    random_poset,
    refine_signatures_oracle,
    replace,
    smith_oracle,
    strip_beats_oracle,
    up_beat_oracle,
    verify_simplicial_oracle,
    verify_space_oracle,
    weak_point_oracle,
)


def _shuffled_poset(rng, data, n: int) -> FiniteSpace:
    """A random poset, sometimes two disjoint copies of one (for many
    automorphisms), whose label order and index order differ and whose
    index order need not extend the partial order."""
    if n >= 2 and data.draw(st.booleans()):
        half = leq_matrix(random_poset(rng, n // 2, rng.random()))
        leq = np.eye(n, dtype=bool)
        leq[: n // 2, : n // 2] = half
        leq[n // 2 : 2 * (n // 2), n // 2 : 2 * (n // 2)] = half
    else:
        leq = leq_matrix(random_poset(rng, n, rng.random()))
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
    below = [space.labels[j] for j in range(space.n) if space.is_leq(j, i) and j != i]
    above = [space.labels[j] for j in range(space.n) if space.is_leq(i, j) and j != i]
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
    down, up = space.masks()
    for i, x in enumerate(space.labels):
        beat = _beat_in(down, up, (1 << n) - 1, i)
        assert (beat and (beat[0], space.labels[beat[1]])) == beat_side_oracle(space, x)
        assert is_up_beat(space, x) == up_beat_oracle(space, x)
        assert is_down_beat(space, x) == down_beat_oracle(space, x)
        assert is_weak_point(space, x) == weak_point_oracle(space, x)
    assert is_contractible(space) == contractible_oracle(space)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 12), st.data())
def test_beat_stripping_matches_the_oracle(rng, n, data):
    space = _shuffled_poset(rng, data, n)
    labels = space.labels
    for floor in (0, 1):  # the kernel strips in index order
        alive, removed = _strip_in(*space.masks(), (1 << space.n) - 1, floor)
        rest = space.subspace(_members(alive))
        want_rest, want_removed = strip_beats_oracle(space, labels, floor)
        assert [
            (SpaceMove("remove", labels[x], side), labels[w]) for x, side, w in removed
        ] == want_removed
        assert rest.labels == want_rest.labels and rest == want_rest
    # the space indexed in a drawn order strips in that order
    priority = data.draw(st.permutations(labels))
    rest, cert = core(from_covers(priority, space.hasse_edges()))
    want_rest, want_removed = strip_beats_oracle(space, priority, 0)
    assert list(cert.moves) == [move for move, _ in want_removed]
    assert rest.labels == tuple(x for x in priority if x in want_rest._index)
    assert rest == want_rest


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 14), st.data())
def test_contractible_in_matches_the_oracle_on_any_mask_and_the_opposite(rng, n, data):
    # every punctured set, which is contractible more often than not, and
    # some random masks
    space = _shuffled_poset(rng, data, n)
    down, up = space.masks()
    drawn = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=4))
    for alive in (*down, *up, *drawn):
        sub = space.subspace(_members(alive))
        assert _contractible_in(down, up, alive) == contractible_oracle(sub)
        assert _contractible_in(up, down, alive) == contractible_oracle(sub.opposite())
    assert not _contractible_in(down, up, 0) and not _contractible_in(up, down, 0)
    for i in range(n):
        assert _contractible_in(down, up, 1 << i) and _contractible_in(up, down, 1 << i)


def _perturbed(rng, space: FiniteSpace) -> FiniteSpace:
    """The space with one cover relation removed, or one relation between
    incomparable points added together with its transitive closure."""
    leq = leq_matrix(space)
    covers = space.covers()
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


def _relabelled(data, space: FiniteSpace, prefix: str) -> FiniteSpace:
    """An isomorphic copy with shuffled indices and new labels that sort in
    another order."""
    n = space.n
    perm = data.draw(st.permutations(range(n)))
    return FiniteSpace(
        tuple(f"{prefix}{k}" for k in data.draw(st.permutations(range(n)))),
        leq_matrix(space)[np.ix_(perm, perm)],
    )


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 10), st.booleans(), st.data())
def test_isomorphism_matches_the_oracle(rng, n, perturb, data):
    a = _shuffled_poset(rng, data, n)
    b = _relabelled(data, a, "b")
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
    assert np.array_equal(leq_matrix(a), leq_matrix(b)[np.ix_(image, image)])


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 10), st.data())
def test_isomorphism_with_cached_colours_matches_the_oracle(rng, n, data):
    # a's colours are refined at its first comparison and reused for the
    # rest, so they must compare with every other space, not only the first,
    # and on either side of the call
    a = _shuffled_poset(rng, data, n)
    for b in (
        _relabelled(data, a, "b"),
        _perturbed(rng, _relabelled(data, a, "c")),
        a.opposite(),
        _relabelled(data, a, "d"),
    ):
        pair = (b, a) if data.draw(st.booleans()) else (a, b)
        got, want = is_isomorphic(*pair), isomorphic_oracle(*pair)
        assert got == want
        if got is not None:
            assert list(got.items()) == list(want.items())


def _colouring_case(rng, data, kind: str, n: int) -> FiniteSpace:
    """A shuffled poset of the given kind: random, several disjoint copies
    of one small poset (rich in automorphisms), a chain or an antichain."""
    if kind == "random":
        leq = leq_matrix(random_poset(rng, n, rng.random()))
    elif kind == "copies":
        part = leq_matrix(random_poset(rng, rng.randint(1, 4), rng.random()))
        leq = np.kron(np.eye(max(n // len(part), 1), dtype=bool), part)
    elif kind == "chain":
        leq = np.triu(np.ones((n, n), dtype=bool))
    else:
        leq = np.eye(n, dtype=bool)
    perm = data.draw(st.permutations(range(len(leq))))
    labels = data.draw(st.permutations([f"p{i}" for i in range(len(leq))]))
    return FiniteSpace(tuple(labels), leq[np.ix_(perm, perm)])


@settings(max_examples=200, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.sampled_from(["random", "copies", "chain", "antichain"]),
    st.integers(0, 12),
    st.data(),
)
def test_colour_classes_are_those_of_two_refinement_rounds(rng, kind, n, data):
    space = _colouring_case(rng, data, kind, n)
    col, key = space._colours()
    sig = refine_signatures_oracle(space, 2)
    assert all((col[i] == col[j]) == (sig[i] == sig[j]) for i in range(space.n) for j in range(i))
    # refinement stops after the first round that leaves the colours all
    # distinct or splits no class, with one key entry per round run
    classes = [len(set(refine_signatures_oracle(space, r))) for r in range(3)]
    stop = next(
        (r for r in (0, 1) if classes[r] == space.n or r and classes[r] == classes[r - 1]), 2
    )
    assert len(key) == stop + 1
    if kind == "chain":
        assert stop == 0
    elif kind == "antichain" and space.n >= 2:
        assert stop == 1
    copy = _relabelled(data, space, "q")
    assert copy._colours()[1] == key


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


def _renamed(k: SimplicialComplex, names) -> SimplicialComplex:
    rename = dict(zip(k.vertices, names))
    return SimplicialComplex([rename[v] for v in s] for s in k.simplices)


@settings(max_examples=300, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.integers(1, 9),
    st.sampled_from(["copy", "drop", "add", "other"]),
    st.data(),
)
def test_complex_isomorphism_matches_the_oracle(rng, n, change, data):
    # a relabelled copy, the copy with one facet dropped or one simplex
    # added, or an unrelated complex; new names sort in another order
    a = random_complex(rng, n, rng.randint(1, 6), max_simplices=42)
    b = _renamed(a, data.draw(st.permutations([f"w{i}" for i in range(len(a.vertices))])))
    facets = [list(f) for f in b.facets()]
    if change == "drop" and len(facets) > 1:
        facets.remove(rng.choice(facets))
        b = from_facets(facets)
    elif change == "add":
        b = from_facets(facets + [rng.sample(b.vertices, min(3, len(b.vertices)))])
    elif change == "other":
        b = random_complex(rng, n, rng.randint(1, 6), max_simplices=42)
    got = complex_isomorphic(a, b)
    assert got == complex_isomorphic_oracle(a, b)
    if change == "copy":
        assert got is not None
    if got is not None:
        assert {frozenset(got[v] for v in s) for s in a.simplices} == set(b.simplices)


@settings(max_examples=50, deadline=None)
@given(st.permutations([f"w{i}" for i in range(6)]))
def test_complex_isomorphism_checks_the_simplices_beyond_the_edges(names):
    # the octahedron's edges and two opposite faces: every vertex looks the
    # same, and only a quarter of the edge-preserving bijections carry the
    # faces onto faces
    axes = ["x+", "x-", "y+", "y-", "z+", "z-"]
    edges = [[u, v] for u, v in combinations(axes, 2) if u[0] != v[0]]
    a = from_facets(edges + [["x+", "y+", "z+"], ["x-", "y-", "z-"]])
    b = _renamed(a, names)
    got = complex_isomorphic(a, b)
    assert got == complex_isomorphic_oracle(a, b)
    assert {frozenset(got[v] for v in s) for s in a.simplices} == set(b.simplices)


def _strict_down(leq: np.ndarray) -> list[int]:
    """The strict down-set masks of a boolean matrix."""
    n = len(leq)
    return [sum(1 << i for i in range(n) if leq[i, j] and i != j) for j in range(n)]


def _same(got: FiniteSpace, want: FiniteSpace) -> bool:
    return got.labels == want.labels and got.masks() == want.masks()


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 9), st.data())
def test_from_covers_matches_the_closure_oracle(rng, n, data):
    # the covers of a shuffled poset, sometimes with redundant or
    # cycle-closing pairs added, in any order
    space = _shuffled_poset(rng, data, n)
    pairs = space.hasse_edges()
    if n >= 2:
        pairs += data.draw(
            st.lists(st.permutations(space.labels).map(lambda p: tuple(p[:2])), max_size=3)
        )
    pairs = data.draw(st.permutations(pairs))
    try:
        want = from_covers_oracle(space.labels, pairs)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{exc}$"):
            from_covers(space.labels, pairs)
        return
    got = from_covers(space.labels, pairs)
    assert _same(got, want)
    assert list(got.covers()) == covers_oracle(want)


@pytest.mark.parametrize("n", [30, 60, 120])
def test_from_covers_closes_both_masks_beyond_hypothesis_sizes(n):
    # shuffled covers plus transitive pairs, which change nothing, then one
    # reversed pair, which closes a cycle; under shuffled labels the index
    # order no longer extends the order
    for seed in range(3):
        rng = random.Random(seed)
        space = random_poset(rng, n, 3 / n)
        covers = set(space.covers())
        transitive = [
            (space.labels[i], space.labels[j])
            for j, d in enumerate(space.masks()[0])
            for i in _members(d)
            if (i, j) not in covers
        ]
        pairs = space.hasse_edges() + rng.sample(transitive, min(5, len(transitive)))
        rng.shuffle(pairs)
        assert from_covers(space.labels, pairs).masks() == space.masks()
        assert from_covers(rng.sample(space.labels, n), pairs) == space
        lo, hi = rng.choice(pairs)
        with pytest.raises(ValueError, match="^cover pairs contain a cycle$"):
            from_covers(space.labels, pairs + [(hi, lo)])


@settings(max_examples=80, deadline=None)
@given(
    st.randoms(use_true_random=False), st.integers(1, 6), st.integers(1, 5),
    st.integers(1, 7), st.data(),
)
def test_inclusion_posets_match_the_pairwise_oracle(rng, n_vertices, n_facets, n, data):
    k = random_complex(rng, n_vertices, n_facets, max_simplices=20)
    want = FiniteSpace(tuple(dotted_label(s) for s in k.simplices), inclusion_order(k.simplices))
    got = face_poset(k)
    assert _same(got, want)
    assert list(got.covers()) == covers_oracle(want)

    space = _shuffled_poset(rng, data, n)
    chains = sorted(all_chains_brute(space), key=lambda c: (len(c), tuple(sorted(c))))
    want = FiniteSpace(tuple(dotted_label(c) for c in chains), inclusion_order(chains))
    got = space_subdivision(space)
    assert _same(got, want)
    assert list(got.covers()) == covers_oracle(want)
    # each chain ascending: its points by how many chain points lie below them
    ascending = [
        sorted(c, key=lambda x: sum(space.is_leq(y, x) for y in c)) for c in chains
    ]
    assert h_map(space).images == tuple(space.index(c[-1]) for c in ascending)
    labels = bridge_space(space).cylinder.labels[: len(chains)]
    assert labels == tuple("L:" + chain_label(c) for c in ascending)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 10), st.data())
def test_structure_matches_the_matrix_oracles(rng, n, data):
    a = _shuffled_poset(rng, data, n)
    assert list(a.covers()) == covers_oracle(a)
    assert a.hasse_edges() == [(a.labels[i], a.labels[j]) for i, j in covers_oracle(a)]
    assert a.heights() == heights_oracle(a)
    assert a.linear_extension() == tuple(linear_extension_oracle(a))
    # the same labels in another index order, then possibly perturbed
    perm = data.draw(st.permutations(range(n)))
    b = FiniteSpace(tuple(a.labels[i] for i in perm), leq_matrix(a)[np.ix_(perm, perm)])
    assert a == b and equal_oracle(a, b)
    c = _perturbed(rng, b)
    assert (a == c) == equal_oracle(a, c)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 10), st.data())
def test_restrictions_match_the_validating_constructor(rng, n, data):
    space = _shuffled_poset(rng, data, n)
    leq = leq_matrix(space)
    keep = sorted(data.draw(st.sets(st.integers(0, n - 1))))
    want = FiniteSpace([space.labels[i] for i in keep], leq[np.ix_(keep, keep)])
    assert _same(space.subspace(keep), want)
    x = data.draw(st.integers(0, n - 1))
    rest = [i for i in range(n) if i != x]
    want = FiniteSpace([space.labels[i] for i in rest], leq[np.ix_(rest, rest)])
    assert _same(space.delete(x), want)
    assert _same(space.opposite(), FiniteSpace(space.labels, leq.T))
    assert _same(FiniteSpace.from_masks(space.labels, space.masks()[0]), space)


def _matrix_forms(leq: np.ndarray) -> list:
    """The relation as a numpy array, a list of rows and a tuple of rows."""
    return [leq, leq.tolist(), tuple(tuple(row) for row in leq.tolist())]


@settings(max_examples=150, deadline=None)
@given(
    st.randoms(use_true_random=False), st.integers(3, 9),
    st.sampled_from(["diagonal", "symmetric", "transitivity"]), st.data(),
)
def test_broken_orders_are_rejected_with_the_oracle_message(rng, n, kind, data):
    space = random_poset(rng, n, 0.6)
    leq = leq_matrix(space)
    assert {FiniteSpace(space.labels, m).masks() for m in _matrix_forms(leq)} == {space.masks()}
    lt = [(i, j) for i in range(n) for j in range(n) if i != j and leq[i, j]]
    if kind == "diagonal":
        i = data.draw(st.integers(0, n - 1))
        leq[i, i] = False
    elif kind == "symmetric":
        assume(lt)
        i, j = data.draw(st.sampled_from(lt))
        leq[j, i] = True
    else:
        # drop i < k while some j lies between them
        through = [(i, k) for i, j in lt for k in range(n) if (j, k) in lt]
        assume(through)
        i, k = data.draw(st.sampled_from(through))
        leq[i, k] = False
    with pytest.raises(ValueError) as want:
        check_order_oracle(leq)
    assert str(want.value) == "relation is not " + {
        "diagonal": "reflexive", "symmetric": "antisymmetric", "transitivity": "transitive"
    }[kind]
    message = f"^{want.value}$"
    for m in _matrix_forms(leq):
        with pytest.raises(ValueError, match=message):
            FiniteSpace(space.labels, m)
    if kind != "diagonal":
        with pytest.raises(ValueError, match=message):
            FiniteSpace.from_masks(space.labels, _strict_down(leq))


def _labels_oracle(labels) -> tuple:
    """The labels checked one at a time, with the constructors' error texts."""
    labels, seen = tuple(labels), set()
    for label in labels:
        if not isinstance(label, str) or not label:
            raise ValueError("labels must be nonempty strings")
        if any(ch.isspace() or ch in "{}#" for ch in label):
            raise ValueError(f"label {label!r} contains whitespace or one of {{ }} #")
        if label in seen:
            raise ValueError(f"duplicate label {label!r}")
        seen.add(label)
    return labels


_LABELS = st.one_of(
    st.sampled_from(["a", "b", "ab", "", " ", "a b", "\t", "\u00a0", "\u2028", "{", "x}", "#c", "é"]),
    st.text(max_size=3),
    st.integers(),
    st.none(),
    st.binary(max_size=2),
    st.lists(st.integers(), max_size=1),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_LABELS, max_size=6))
def test_label_checks_accept_and_refuse_as_the_per_label_loop(labels):
    try:
        want = _labels_oracle(labels)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _checked_labels(labels)
        assert str(got.value) == str(exc)
    else:
        assert _checked_labels(iter(labels)) == want


def _with_top(space: FiniteSpace) -> FiniteSpace:
    """The space with one more point, ``top``, above every point."""
    n = space.n
    leq = np.ones((n + 1, n + 1), dtype=bool)
    leq[:n, :n] = leq_matrix(space)
    leq[n, :n] = False
    return FiniteSpace(space.labels + ("top",), leq)


@settings(max_examples=100, deadline=None)
@given(
    st.randoms(use_true_random=False), st.integers(1, 6), st.integers(1, 6),
    st.booleans(), st.data(),
)
def test_continuous_maps_match_the_matrix_oracle(rng, n, m, top, data):
    # a top over several minima into a codomain of two disjoint copies cuts
    # most partial maps; the enumerator's rows are in linear-extension
    # positions and go back to point order here
    dom = _shuffled_poset(rng, data, n - top)
    if top:
        dom = _with_top(dom)
    _assert_continuous_maps_match_the_oracle(dom, _shuffled_poset(rng, data, m))


def test_continuous_maps_of_a_zigzag_into_an_antichain_match_the_matrix_oracle():
    # p0 < p4 > p2 < p3 > p1 into two points: partial maps that leave every
    # unplaced point some room and still have no joint completion
    zigzag = from_covers(
        [f"p{i}" for i in range(5)], [("p0", "p4"), ("p2", "p4"), ("p2", "p3"), ("p1", "p3")]
    )
    assert _assert_continuous_maps_match_the_oracle(zigzag, from_covers(["a", "b"], [])) == 2


def _assert_continuous_maps_match_the_oracle(dom: FiniteSpace, cod: FiniteSpace) -> int:
    """Compare the enumerator, and for small inputs the constructor, with
    the matrix oracle; return the number of maps."""
    n, m = dom.n, cod.n
    want = continuous_maps_oracle(dom, cod)
    order = dom.linear_extension()
    point = [order.index(i) for i in range(n)]
    assert [tuple(row[k] for k in point) for row in continuous_map_rows(dom, cod)] == want
    if m ** n > 4**4:
        return len(want)  # the constructor check below visits every image tuple
    for images in product(range(m), repeat=n):
        try:
            ContinuousMap(dom, cod, images)
        except ValueError:
            assert images not in want
        else:
            assert images in want
    return len(want)


@settings(max_examples=150, deadline=None)
@given(
    st.randoms(use_true_random=False), st.integers(1, 6), st.integers(1, 5),
    st.integers(0, 7), st.data(),
)
def test_facets_and_free_pairs_match_the_pairwise_scans(rng, n_vertices, n_facets, n, data):
    k = random_complex(rng, n_vertices, n_facets, max_simplices=20)
    chains = order_complex(_shuffled_poset(rng, data, n))
    for c in (k, chains, barycentric_subdivision(k)):
        assert c.facets() == facets_oracle(c)
        pairs = free_pairs_oracle(c)
        assert c.free_pairs() == pairs
        # both elementary collapses and pair translations accept exactly the
        # free pairs, and say why they refuse the rest
        free = dict(pairs)
        for s in c.simplices:
            face = tuple(sorted(s))
            if face in free:
                assert c.elementary_collapse(face)[1].apex == free[face]
                translate_simplicial_collapse(c, face, free[face])
            else:
                cofaces = sum(s < t for t in c.simplices)
                assert _error(c.elementary_collapse, face) == (
                    f"{list(face)} is not free: {cofaces} proper cofaces"
                )
            for v in c.vertices:
                if v not in s and v != free.get(face):
                    assert _error(translate_simplicial_collapse, c, face, v) == (
                        "not a free pair: the face must have exactly one proper coface"
                    )
                    if face in free:
                        assert _error(c.elementary_collapse, face, v) == (
                            f"coface vertex is {free[face]!r}, not {v!r}"
                        )
        ghost = ("ghost",)
        assert _error(c.elementary_collapse, ghost) == "['ghost'] is not a simplex here"
        assert _error(translate_simplicial_collapse, c, ghost, "a") == (
            "['ghost'] is not a simplex here"
        )


def _error(call, *args) -> str:
    with pytest.raises(ValueError) as err:
        call(*args)
    return str(err.value)


def _built(build) -> tuple | str:
    """A complex's simplices, vertices, facets, free pairs and size, whether
    each simplex is in it and each simplex plus a fresh vertex is not, or the
    text of the ValueError that refused to build it."""
    try:
        k = build()
    except ValueError as exc:
        return str(exc)
    fresh = "".join(k.vertices) + "+"  # longer than any vertex
    members = [s in k for s in k.simplices], [s | {fresh} in k for s in k.simplices]
    return k.simplices, k.vertices, k.facets(), k.free_pairs(), len(k), members


BAD_LABELS = ("x y", "", "x#", "{")


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 6), st.integers(1, 5), st.data())
def test_library_builds_match_the_validating_constructor(rng, n_vertices, n_facets, data):
    # the builders check only what they add; with at most one bad label the
    # validating constructor fails on the same one
    k = random_complex(rng, n_vertices, n_facets, max_simplices=20)
    facets = [list(f) for f in k.facets()]
    change = data.draw(st.sampled_from(["none", "bad label", "empty facet"]))
    if change == "bad label":
        f = data.draw(st.sampled_from(facets))
        f[data.draw(st.integers(0, len(f) - 1))] = data.draw(st.sampled_from(BAD_LABELS))
    elif change == "empty facet":
        facets.append([])
    family = [f for f in facets if not f] + [
        sub for f in facets for r in range(1, len(f) + 1) for sub in combinations(f, r)
    ]
    assert _built(lambda: from_facets(facets)) == _built(lambda: SimplicialComplex(family))

    apex = data.draw(st.sampled_from(("z", *BAD_LABELS)))
    family = [*k.simplices, {apex}, *(s | {apex} for s in k.simplices)]
    assert _built(lambda: cone(apex, k)) == _built(lambda: SimplicialComplex(family))

    for face, a in k.free_pairs():
        pair = {frozenset(face), frozenset(face) | {a}}
        smaller = k.elementary_collapse(face, a)[0]
        assert _built(lambda: smaller) == _built(lambda: SimplicialComplex(set(k.simplices) - pair))
        bigger = smaller.elementary_expand(face, a)[0]
        assert _built(lambda: bigger) == _built(lambda: SimplicialComplex(k.simplices))

    # a whisker from a vertex v to a fresh vertex, its face or apex label w
    # possibly bad
    v = data.draw(st.sampled_from(k.vertices))
    w = data.draw(st.sampled_from(("z", *BAD_LABELS)))
    for face, a in [((w,), v)] + [(("z",), w)] * (w != "z"):
        pair = [face, (*face, a)]
        assert _built(lambda: k.elementary_expand(face, a)[0]) == _built(
            lambda: SimplicialComplex([*k.simplices, *pair])
        )


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 6), st.integers(1, 5))
def test_two_builds_of_one_complex_are_equal_and_one_dropped_facet_tells(
    rng, n_vertices, n_facets
):
    # from_facets on shuffled facets and the validating constructor on the
    # shuffled closure store one canonical tuple
    facets = [list(f) for f in random_complex(rng, n_vertices, n_facets, 20).facets()]
    for f in facets:
        rng.shuffle(f)
    rng.shuffle(facets)
    closure = [sub for f in facets for r in range(1, len(f) + 1) for sub in combinations(f, r)]
    rng.shuffle(closure)
    a, b = from_facets(facets), SimplicialComplex(closure)
    assert a == b and len(a) == len(b) == len(set(map(frozenset, closure)))
    assert all(s in a for s in b.simplices) and all(s in b for s in closure)
    dropped = from_facets(facets[1:])
    assert dropped != b and b != dropped and facets[0] not in dropped


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 8), st.data())
def test_order_complex_matches_the_validating_constructor(rng, n, data):
    space = _shuffled_poset(rng, data, n)
    got = order_complex(space)
    want = SimplicialComplex(all_chains_brute(space))
    assert got == want
    assert got.simplices == want.simplices and got.vertices == want.vertices


def _with_beat_points(rng, space: FiniteSpace, count: int) -> FiniteSpace:
    """The space with ``count`` points added, each a beat point of the space
    it joins: just above some x (its punctured open set has maximum x), or
    just below it (its punctured closure has minimum x)."""
    labels = list(space.labels)
    down = list(space.masks()[0])
    for _ in range(count if labels else 0):
        n = len(labels)
        up = [sum(1 << j for j in range(n) if down[j] >> i & 1) for i in range(n)]
        x = rng.randrange(n)
        if rng.random() < 0.5:
            # above x, below an up-closed part of x's strict up-set
            above = 0
            for z in range(n):
                if up[x] >> z & 1 and rng.random() < 0.5:
                    above |= 1 << z | up[z]
            down.append(down[x] | 1 << x)
        else:
            # below x and everything above it, above a down-closed part of
            # x's strict down-set
            above = up[x] | 1 << x
            down.append(0)
            for z in range(n):
                if down[x] >> z & 1 and rng.random() < 0.5:
                    down[n] |= 1 << z | down[z]
        for z in range(n):
            if above >> z & 1:
                down[z] |= 1 << n
        labels.append(f"q{n}")
    return FiniteSpace.from_masks(labels, down)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 8), st.integers(0, 4), st.data())
def test_homology_through_the_core_matches_the_full_order_complex(rng, n, beats, data):
    space = _with_beat_points(rng, _shuffled_poset(rng, data, n), beats)
    for reduced in (False, True):
        try:
            want = homology(order_complex(space), reduced=reduced).format()
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{exc}$"):
                homology_space(space, reduced=reduced)
        else:
            assert homology_space(space, reduced=reduced).format() == want


def _reindexed(space: FiniteSpace, perm) -> FiniteSpace:
    """The same labelled space with its points stored in the order perm."""
    leq = leq_matrix(space)[np.ix_(perm, perm)]
    return FiniteSpace(tuple(space.labels[p] for p in perm), leq)


@settings(max_examples=150, deadline=None)
@given(
    st.randoms(use_true_random=False), st.integers(0, 5), st.integers(1, 6),
    st.sampled_from([1, 2, 3, 16]), st.data(),
)
def test_fence_search_matches_the_pairwise_scan(rng, n, m, budget, data):
    # a codomain of two disjoint copies has maps with no fence between them;
    # g is incomparable with f where it can be, so that the search runs
    dom = _shuffled_poset(rng, data, n)
    cod = _shuffled_poset(rng, data, m)
    maps = continuous_maps_oracle(dom, cod)
    f = data.draw(st.sampled_from(maps))
    below = lambda a, b: all(cod.is_leq(x, y) for x, y in zip(a, b))
    apart = [h for h in maps if not below(f, h) and not below(h, f)]
    g = data.draw(st.sampled_from(apart or maps))
    f, g = (ContinuousMap(dom, cod, images) for images in (f, g))
    searched = g
    if data.draw(st.booleans()):
        # g over index-permuted copies of dom and cod: the search must pair
        # images by label; the oracle gets g in f's index frames
        dom2 = _reindexed(dom, data.draw(st.permutations(range(dom.n))))
        cod2 = _reindexed(cod, data.draw(st.permutations(range(cod.n))))
        searched = ContinuousMap(dom2, cod2, tuple(cod2.index(g(x)) for x in dom2.labels))
    got, want = fence_homotopic(f, searched, budget), fence_oracle(f, g, budget)
    by_label = lambda res: None if res.fence is None else [h.label_map() for h in res.fence]
    assert by_label(got) == by_label(want)
    assert got.conclusive == want.conclusive


def _deep_codomain(rng, kind: str, size: int) -> FiniteSpace:
    """A zigzag on 2 * size points, a crown on 2 * size points (minima a_i
    under b_i and b_(i+1 mod size)), or a zigzag beside a crown, with its
    points stored in a shuffled index order."""
    zigzag = lambda p, n: [
        (f"{p}{i}", f"{p}{i + 1}") if i % 2 == 0 else (f"{p}{i + 1}", f"{p}{i}") for i in range(n - 1)
    ]
    crown = lambda m: [(f"a{i}", f"b{j % m}") for i in range(m) for j in (i, i + 1)]
    covers = {
        "zigzag": zigzag("z", 2 * size),
        "crown": crown(size),
        "two": zigzag("z", size) + crown(size),
    }[kind]
    labels = sorted({x for pair in covers for x in pair})
    rng.shuffle(labels)
    return from_covers(labels, covers)


def _scan_levels(cod: FiniteSpace, maps: list, f: tuple) -> list[list[tuple]]:
    """The levels of fence_oracle's breadth-first scan from f, each in the
    order the scan meets its maps."""
    below = lambda a, b: all(cod.is_leq(x, y) for x, y in zip(a, b))
    seen, levels = {f}, [[f]]
    while True:
        met = []
        for u in levels[-1]:
            for v in maps:
                if v not in seen and (below(u, v) or below(v, u)):
                    seen.add(v)
                    met.append(v)
        if not met:
            return levels
        levels.append(met)


@settings(max_examples=150, deadline=None)
@given(
    st.randoms(use_true_random=False), st.sampled_from(["zigzag", "crown", "two"]),
    st.integers(2, 5), st.sampled_from(["point", "antichain", "chain"]), st.data(),
)
def test_fence_search_meets_the_goal_from_its_first_neighbour_in_the_frontier(
    rng, kind, size, domain, data
):
    # g is one of the maps farthest from f, or one with no fence to it: in a
    # crown the farthest point is reached from both sides, so several maps of
    # the last frontier neighbour it, in an order that the shuffled indices
    # make differ from their own; every budget up to one past the fence
    cod = _deep_codomain(rng, kind, size)
    dom = {
        "point": from_covers(["x"], []),
        "antichain": from_covers(["x", "y"], []),
        "chain": from_covers(["y", "x"], [("x", "y")]),
    }[domain]
    maps = continuous_maps_oracle(dom, cod)
    f = data.draw(st.sampled_from(maps))
    levels = _scan_levels(cod, maps, f)
    reached = {v for level in levels for v in level}
    apart = [v for v in maps if v not in reached]
    g = data.draw(st.sampled_from(apart if apart and data.draw(st.booleans()) else levels[-1]))
    f, g = ContinuousMap(dom, cod, f), ContinuousMap(dom, cod, g)
    by_label = lambda res: None if res.fence is None else [h.label_map() for h in res.fence]
    for budget in range(1, len(levels) + 1):
        got, want = fence_homotopic(f, g, budget), fence_oracle(f, g, budget)
        assert by_label(got) == by_label(want)
        assert got.conclusive == want.conclusive


def _outcome(lookup, x):
    try:
        return lookup(x)
    except KeyError as exc:
        return "KeyError", str(exc)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 8), st.data())
def test_index_matches_the_full_lookup(rng, n, data):
    space = _shuffled_poset(rng, data, n)
    point = st.one_of(
        st.integers(-n - 2, n + 2),
        st.booleans(),
        st.integers(-n - 2, n + 2).map(np.int64),
        st.sampled_from([f"p{i}" for i in range(n + 2)] + ["", "0"]),
        st.just(1.0),
    )
    for x in data.draw(st.lists(point, min_size=1, max_size=12)):
        want = _outcome(lambda y: index_oracle(space, y), x)
        got = _outcome(space.index, x)
        assert got == want and type(got) is type(want)


_UNITS = [1, -1]
_NON_UNITS = [2, -2, 3, 4, 5, 6, -9, 12]


@st.composite
def _sparse_matrices(draw) -> dict[int, dict[int, int]]:
    """Up to 7 x 7, rows possibly empty, sometimes with no unit entry."""
    nr, nc = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    values = st.sampled_from(_NON_UNITS if draw(st.booleans()) else _UNITS + _NON_UNITS)
    row = st.dictionaries(st.integers(0, nc - 1), values, max_size=nc) if nc else st.just({})
    return {r: draw(row) for r in range(nr)}


@settings(max_examples=400, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans(), st.data())
def test_smith_invariants_match_the_two_phase_oracle(rng, boundary, data):
    if boundary:
        k = random_complex(rng, data.draw(st.integers(1, 7)), data.draw(st.integers(1, 6)), 40)
        cells = [k.simplices_of_dim(d) for d in range(k.dim + 1)]
        matrices = [_boundary(cells[d - 1], cells[d])[0] for d in range(1, k.dim + 1)]
    else:
        matrices = [data.draw(_sparse_matrices())]
    for rows in matrices:
        assert smith_invariants(rows) == smith_oracle(rows)


@st.composite
def _wide_sparse_matrices(draw) -> dict[int, dict[int, int]]:
    """Up to 20 x 20 with at most six entries a row, four in five of them
    non-units, so eliminations leave fill-in and remainders mod a non-unit
    pivot, and heap keys go stale again and again."""
    nr, nc = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    values = st.sampled_from([2, -2, 3, -3, 4, 6, 9, 12, 1, -1])
    row = st.dictionaries(st.integers(0, nc - 1), values, max_size=min(nc, 6))
    return {r: draw(row) for r in range(nr)}


@settings(max_examples=200, deadline=None)
@given(_wide_sparse_matrices())
def test_smith_invariants_of_wider_non_unit_matrices_match_the_oracle(rows):
    assert smith_invariants(rows) == smith_oracle(rows)


def _replayed(cert):
    """The start and every complex after it, each move applied (and
    checked) by elementary_collapse or elementary_expand."""
    current = cert.start
    yield current
    for m in cert.moves:
        step = current.elementary_collapse if m.direction == "remove" else current.elementary_expand
        current = step(m.face, m.apex)[0]
        yield current


def _groups(k: SimplicialComplex) -> list[str]:
    # trailing trivial groups dropped, as a move may change the dimension
    h = homology(k)
    groups = [h.group(d) for d in range(len(h.betti))]
    while groups[-1] == "0":
        groups.pop()
    return groups


@settings(max_examples=80, deadline=None)
@given(
    st.randoms(use_true_random=False), st.integers(2, 7), st.integers(1, 6),
    st.integers(2, 7), st.data(),
)
def test_homology_is_invariant_under_every_certified_move(rng, n_vertices, n_facets, n, data):
    certs = []
    found = collapse_sequence_search(random_complex(rng, n_vertices, n_facets, 30), budget=2_000)
    if found:
        certs.append(found.certificate)
    space = _with_beat_points(rng, _shuffled_poset(rng, data, n), data.draw(st.integers(0, 2)))
    weak = [x for x in space.labels if is_weak_point(space, x)]
    if weak:
        certs.append(translate_space_collapse(space, data.draw(st.sampled_from(weak))))
    for cert in certs:
        want = _groups(cert.start)
        for k in _replayed(cert):
            assert _groups(k) == want


def _replay(verify, cert) -> tuple:
    """What a verifier makes of a certificate: the exception it raises, or
    (ok, step, reason) and the end's labels and masks, or its simplices."""
    try:
        res = verify(cert)
    except (ValueError, KeyError) as exc:
        return type(exc), str(exc)
    end = res.final
    if isinstance(end, FiniteSpace):
        end = (end.labels, end.masks())
    elif end is not None:
        end = end.simplices
    return res.ok, res.step, res.reason, end


def _space_certificate(rng, data, sources):
    """A certificate from one of ``sources``: core, collapse search, the
    bridge or a mapping cylinder (either certificate, or only the
    expansion), or the translation of a free pair."""
    source = data.draw(st.sampled_from(sources))
    if source == "translate":
        k = random_complex(rng, rng.randint(2, 6), rng.randint(1, 5), 30)
        pairs = k.free_pairs()
        assume(pairs)
        return translate_simplicial_collapse(k, *data.draw(st.sampled_from(pairs)))
    if source.startswith(("bridge", "cylinder")):
        dom = _shuffled_poset(rng, data, data.draw(st.integers(1, 5)))
        if source.startswith("bridge"):
            certs = bridge_space(dom)
        else:
            cod = _shuffled_poset(rng, data, data.draw(st.integers(1, 4)))
            certs = cylinder_certificates(random_monotone_map(rng, dom, cod))
        if source.endswith("expansion"):
            return certs.expansion
        return data.draw(st.sampled_from([c for c in (certs.expansion, certs.collapse) if c]))
    n, beats = data.draw(st.integers(1, 7)), data.draw(st.integers(0, 3))
    space = _with_beat_points(rng, _shuffled_poset(rng, data, n), beats)
    found = collapse_search(space, budget=200) if source == "collapse" else None
    return found.certificate if found else core(space)[1]


def _mutated(cert, data, kinds: dict):
    """The certificate, or a copy with one move changed by a mutation drawn
    from those of ``kinds`` (name: (the moves it applies to, the change))
    that apply to some move."""
    usable = [n for n, (applies, _) in kinds.items() if any(map(applies, cert.moves))]
    kind = data.draw(st.sampled_from(["none", *usable]))
    if kind == "none":
        return cert
    applies, change = kinds[kind]
    k = data.draw(st.sampled_from([k for k, m in enumerate(cert.moves) if applies(m)]))
    moves = list(cert.moves)
    try:
        moves[k : k + 1] = change(moves[k])
    except ValueError:  # the move constructor refuses the change
        assume(False)
    return replace(cert, moves=tuple(moves))


def _without(labels: tuple, x) -> tuple:
    return tuple(y for y in labels if y != x)


def _is(direction):
    return lambda m: m.direction == direction


def _any(m):
    return True


@pytest.mark.parametrize(
    "sources",
    [
        ("core", "collapse", "translate", "bridge", "cylinder"),
        ("bridge expansion", "cylinder expansion"),
    ],
)
@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_space_replay_matches_the_oracle(sources, rng, data):
    cert = _space_certificate(rng, data, sources)
    labels = st.sampled_from(cert.start.labels or ("ghost",))
    up = cert.start.masks()[1]
    # a maximal point keeps an up-set closed, so it fails only below d
    tops = st.sampled_from([x for x, u in zip(cert.start.labels, up) if not u] or ["ghost"])
    kinds = {
        "ghost label": (_is("remove"), lambda m: [replace(m, label="ghost")]),
        "dropped add": (_is("add"), lambda m: []),
        "swapped side": (_any, lambda m: [replace(m, side=data.draw(st.sampled_from(SIDES)))]),
        "label clash": (_is("add"), lambda m: [replace(m, label=data.draw(labels))]),
        "bad label": (
            _is("add"),
            lambda m: [replace(m, label=data.draw(st.sampled_from(("x y", "", "x#", "{"))))],
        ),
        "unclosed down-set": (
            lambda m: m.direction == "add" and m.down,
            lambda m: [replace(m, down=_without(m.down, data.draw(st.sampled_from(m.down))))],
        ),
        "grown down-set": (_is("add"), lambda m: [replace(m, down=m.down + (data.draw(labels),))]),
        "grown up-set": (_is("add"), lambda m: [replace(m, up=m.up + (data.draw(labels),))]),
        "d not below u": (_is("add"), lambda m: [replace(m, up=m.up + (data.draw(tops),))]),
        "overlapping sets": (
            lambda m: m.direction == "add" and m.down,
            lambda m: [replace(m, up=m.up + m.down[-1:])],
        ),
        "ghost attaching point": (_is("add"), lambda m: [replace(m, down=m.down + ("ghost",))]),
    }
    cert = _mutated(cert, data, kinds)
    assert _replay(verify_space_certificate, cert) == _replay(verify_space_oracle, cert)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_simplicial_replay_matches_the_oracle(rng, data):
    if data.draw(st.booleans()):
        k = random_complex(rng, rng.randint(2, 6), rng.randint(1, 5), 30)
        found = collapse_sequence_search(k, budget=2_000) or collapse_sequence_search(
            cone("z", k), budget=2_000
        )
        assume(found)
        cert = found.certificate
    else:
        n, beats = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3))
        space = _with_beat_points(rng, _shuffled_poset(rng, data, n), beats)
        weak = [x for x in space.labels if is_weak_point(space, x)]
        cert = translate_space_collapse(space, data.draw(st.sampled_from(weak)))
    vertices = st.sampled_from(cert.start.vertices)
    flipped = {"add": "remove", "remove": "add"}
    kinds = {
        "ghost apex": (_any, lambda m: [replace(m, apex="ghost")]),
        "dropped move": (_any, lambda m: []),
        "wrong apex": (_any, lambda m: [replace(m, apex=data.draw(vertices))]),
        "swapped direction": (_any, lambda m: [replace(m, direction=flipped[m.direction])]),
        "bad label": (_any, lambda m: [replace(m, direction="add", face=("x y",))]),
        "ghost face vertex": (_any, lambda m: [replace(m, face=m.face + ("ghost",))]),
    }
    cert = _mutated(cert, data, kinds)
    got = _replay(verify_simplicial_certificate, cert)
    want = _replay(verify_simplicial_oracle, cert)
    if want[0] is ValueError:
        # the oracle's constructor refuses the bad label; the verifier fails
        # at that move with the same text
        assert want[1] == "label 'x y' contains whitespace or one of { } #"
        step = next(k for k, m in enumerate(cert.moves) if "x y" in m.face)
        want = (False, step, want[1], None)
    assert got == want


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 7), st.integers(1, 6), st.data())
def test_membership_evidence_agrees_with_the_kernels(rng, n, m, data):
    f = random_monotone_map(rng, _shuffled_poset(rng, data, n), _shuffled_poset(rng, data, m))
    for kind, test, prefix in (
        ("distinguished", is_distinguished, ""),
        ("op-distinguished", is_op_distinguished, "dual "),
    ):
        rep = test(f)
        ok, why = verify_membership_evidence(MembershipEvidence(kind, f))
        assert ok == rep.ok
        assert why == ("" if ok else f"{prefix}preimage fails at {rep.failing[0]!r}")
    space = f.dom
    for x in space.labels:
        sub = space.delete(x)
        inclusion = ContinuousMap.from_labels(sub, space, {l: l for l in sub.labels})
        ev = MembershipEvidence("elementary-expansion-inclusion", inclusion, (x,))
        assert verify_membership_evidence(ev)[0] == (weak_point_oracle(space, x) is not None)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 7), st.integers(0, 3), st.data())
def test_translated_weak_point_removal_replays_onto_the_order_complex(rng, n, beats, data):
    space = _with_beat_points(rng, _shuffled_poset(rng, data, n), beats)
    for s in (space, space.opposite()):  # a down-weak point of one is up-weak in the other
        weak = [x for x in s.labels if weak_point_oracle(s, x)]
        if not weak:
            continue
        x = data.draw(st.sampled_from(weak))
        cert = translate_space_collapse(s, x)
        assert cert.start == order_complex(s.delete(x))
        assert cert.start.facets() == facets_oracle(cert.start)
        assert all(move.direction == "add" for move in cert.moves)
        res = verify_simplicial_certificate(cert)
        assert res.ok, res.reason
        assert res.final == order_complex(s)


def _outcome_of(res, fmt) -> tuple:
    cert = res.certificate
    return res.nodes, res.conclusive, None if cert is None else fmt(cert)


def _search_budget(data) -> dict:
    """Budgets 0 to 8, or the default."""
    budget = data.draw(st.one_of(st.integers(0, 8), st.none()))
    return {} if budget is None else {"budget": budget}


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 8), st.data())
def test_space_search_matches_the_push_time_engine(rng, n, data):
    kind = data.draw(st.sampled_from(["poset", "subdivision", "beats"]))
    if kind == "subdivision":
        space = space_subdivision(_shuffled_poset(rng, data, min(n, 3)))
    else:
        space = drawn_poset(rng, data, max(n, 2))  # sometimes two disjoint copies
        if kind == "beats":
            space = _with_beat_points(rng, space, data.draw(st.integers(1, 3)))
    target = data.draw(st.sampled_from(["none", "core", "subspace", "random"]))
    if target == "core":
        target = core(space)[0]
    elif target == "subspace":
        keep = data.draw(st.lists(st.sampled_from(range(space.n)), min_size=1, unique=True))
        target = space.subspace(sorted(keep))
    elif target == "random":
        target = random_poset(rng, data.draw(st.integers(1, space.n)), rng.random())
    else:
        target = None
    kwargs = _search_budget(data)
    got = collapse_search(space, target, **kwargs)
    want = collapse_search_oracle(space, target, **kwargs)
    assert _outcome_of(got, format_space_certificate) == _outcome_of(want, format_space_certificate)


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 2), st.data())
def test_complex_search_matches_the_push_time_engine(rng, subdivisions, data):
    targets = ["none", "collapsed"]
    if data.draw(st.booleans()):
        k = random_complex(rng, 6, 5, 20)
        targets.append("random")  # unreachable ones make the search exhaustive, too slow on sd²
    else:
        k = from_facets([["a", "b", "c"]])
        for _ in range(subdivisions):
            k = barycentric_subdivision(k)
    target = data.draw(st.sampled_from(targets))
    if target == "collapsed":
        # some complex a few random free-pair collapses away
        target = k
        for _ in range(data.draw(st.integers(0, 4))):
            pairs = target.free_pairs()
            if not pairs:
                break
            target = target.elementary_collapse(*rng.choice(pairs))[0]
    elif target == "random":
        target = random_complex(rng, 4, 3, 12)
    else:
        target = None
    kwargs = _search_budget(data)
    got = collapse_sequence_search(k, target, **kwargs)
    want = collapse_sequence_search_oracle(k, target, **kwargs)
    fmt = format_simplicial_certificate
    assert _outcome_of(got, fmt) == _outcome_of(want, fmt)
