import random

import numpy as np
import pytest

from finspace import spaces
from finspace.moves import SearchResult
from finspace.spaces import FiniteSpace, from_covers, is_isomorphic

from util import calls, heights_oracle, isomorphic_oracle, leq_matrix, nested_code, random_poset


def chain(n):
    return from_covers([f"c{i}" for i in range(n)], [(f"c{i}", f"c{i+1}") for i in range(n - 1)])


def test_constructor_rejects_broken_orders():
    ok = np.array([[True, True], [False, True]])
    FiniteSpace(("a", "b"), ok)
    assert FiniteSpace([], []) == from_covers([], []) == FiniteSpace.from_masks((), [])
    with pytest.raises(ValueError):
        FiniteSpace(("a", "b"), np.array([[True, True], [True, True]]))  # not antisymmetric
    with pytest.raises(ValueError):
        FiniteSpace(("a", "b"), np.array([[False, True], [False, True]]))  # not reflexive
    bad = np.eye(3, dtype=bool)
    bad[0, 1] = bad[1, 2] = True
    with pytest.raises(ValueError):
        FiniteSpace(("a", "b", "c"), bad)  # not transitive
    with pytest.raises(ValueError):
        FiniteSpace(("a", "a"), np.eye(2, dtype=bool))
    with pytest.raises(ValueError):
        FiniteSpace(("a b",), np.eye(1, dtype=bool))


def test_from_covers_detects_cycles():
    with pytest.raises(ValueError):
        from_covers(["a", "b"], [("a", "b"), ("b", "a")])


def test_from_covers_builds_its_label_index_once(monkeypatch):
    # the dict that checks the cover labels becomes the space's own index,
    # and the opposite shares it
    handed = []
    fill = FiniteSpace._set

    def spy(self, labels, down, up, index=None):
        handed.append(index)
        fill(self, labels, down, up, index)

    monkeypatch.setattr(FiniteSpace, "_set", spy)
    space = from_covers(["b", "a", "c"], [("a", "b"), ("c", "b")])
    assert handed == [{"b": 0, "a": 1, "c": 2}]
    assert space.opposite()._index is space._index is handed[0]
    assert space.index("c") == 2 and space.is_leq("a", "b")


def test_minimal_open_and_closure():
    s = from_covers(["a", "b", "c", "d"], [("c", "a"), ("c", "b"), ("d", "c")])
    assert set(s.minimal_open("a").labels) == {"a", "c", "d"}
    assert set(s.closure("d").labels) == {"a", "b", "c", "d"}
    assert set(s.closure("a").labels) == {"a"}


def test_opposite_is_involutive():
    rng = random.Random(11)
    for _ in range(25):
        s = random_poset(rng, rng.randint(1, 8))
        assert s.opposite().opposite() == s


def test_hasse_round_trip():
    rng = random.Random(7)
    for _ in range(40):
        s = random_poset(rng, rng.randint(1, 8))
        again = from_covers(s.labels, s.hasse_edges())
        assert again == s


def test_covers_are_a_transitive_reduction():
    s = chain(4)
    assert s.hasse_edges() == [("c0", "c1"), ("c1", "c2"), ("c2", "c3")]


def test_linear_extension_respects_order():
    rng = random.Random(3)
    for _ in range(30):
        s = random_poset(rng, rng.randint(1, 9))
        ext = s.linear_extension()
        pos = {i: k for k, i in enumerate(ext)}
        for i in range(s.n):
            for j in range(s.n):
                if i != j and s.is_leq(i, j):
                    assert pos[i] < pos[j]


def test_labeled_equality_ignores_index_order():
    a = from_covers(["x", "y"], [("x", "y")])
    b = from_covers(["y", "x"], [("x", "y")])
    assert a == b
    c = from_covers(["x", "y"], [("y", "x")])
    assert a != c


def test_a_space_equals_no_foreign_object_and_prints_its_size():
    a = chain(3)
    assert a.__eq__(a.labels) is NotImplemented
    assert a != a.labels and not a == a.masks()
    assert repr(a) == "FiniteSpace(3 points)"


def test_other_colour_multisets_refuse_before_the_forced_bijection():
    # without the multiset guard both colours of b form one-point buckets,
    # and the forced path would send both points of a to point 0
    no_relations = ([0, 0], [0, 0])
    assert spaces._first_isomorphism([0, 0], [0, 1], no_relations, no_relations) is None


def test_the_record_base_takes_each_field_once_by_position_or_keyword():
    # SearchResult has no constructor of its own
    assert SearchResult(None, True, nodes=3) == SearchResult(None, conclusive=True, nodes=3)
    refusals = [
        (lambda: SearchResult(None, True, 3, 4), "SearchResult takes 3 fields, not 4"),
        (lambda: SearchResult(None, True), "SearchResult is missing field 'nodes'"),
        (lambda: SearchResult(None, True, 3, budget=9),
         "SearchResult got unexpected fields ['budget']"),
        (lambda: SearchResult(None, True, 3, nodes=3),
         "SearchResult got unexpected fields ['nodes']"),
    ]
    for build, text in refusals:
        with pytest.raises(TypeError) as refused:
            build()
        assert str(refused.value) == text


def test_isomorphism_finds_relabelings():
    rng = random.Random(19)
    for _ in range(30):
        s = random_poset(rng, rng.randint(1, 8))
        perm = list(range(s.n))
        rng.shuffle(perm)
        relabeled = FiniteSpace.from_masks(
            tuple(f"q{perm[i]}" for i in range(s.n)), s.masks()[0]
        )
        found = is_isomorphic(s, relabeled)
        assert found is not None
        for i in range(s.n):
            for j in range(s.n):
                a = relabeled.index(found[s.labels[i]])
                b = relabeled.index(found[s.labels[j]])
                assert s.is_leq(i, j) == relabeled.is_leq(a, b)


def test_isomorphism_rejects_different_shapes():
    assert is_isomorphic(chain(3), chain(2)) is None
    v = from_covers(["a", "b", "c"], [("b", "a"), ("c", "a")])
    w = from_covers(["a", "b", "c"], [("a", "b"), ("a", "c")])
    assert is_isomorphic(v, w) is None
    assert is_isomorphic(v, v.opposite()) is None


def _refinements(call) -> int:
    """How many times ``call()`` runs the colour refinement of a space."""
    return calls(FiniteSpace._colours.__wrapped__.__code__, call)


def _marks(call) -> int:
    """How many times ``call()`` runs the engine's ``mark``, which every
    search calls to set up and to place or unplace a point."""
    return calls(nested_code(spaces._first_isomorphism, "mark"), call)


def _covers(text):
    return [tuple(pair.split("<")) for pair in text.split()]


# Equal refinement keys and all-distinct colours, so the colours force one
# bijection (p0 <-> p1, p3 <-> p6, the rest fixed); it sends a's p1 < p3 to
# b's p0 and p6, which are incomparable, and only a relation check sees it.
NEAR_MISS_A = from_covers(
    [f"p{i}" for i in range(7)], _covers("p0<p2 p0<p4 p1<p3 p1<p4 p2<p3 p5<p6")
)
NEAR_MISS_B = from_covers(
    [f"p{i}" for i in range(7)], _covers("p0<p3 p0<p4 p1<p2 p1<p4 p2<p6 p5<p6")
)


def test_discrete_colours_with_equal_keys_still_check_every_relation():
    a, b = NEAR_MISS_A, NEAR_MISS_B
    assert a._colours()[1] == b._colours()[1] and len(a._colours()[1]) == 1
    assert sorted(a._colours()[0]) == sorted(b._colours()[0]) == list(range(7))
    assert _marks(lambda: is_isomorphic(a, b)) == 0
    assert is_isomorphic(a, b) is None is isomorphic_oracle(a, b)
    assert is_isomorphic(b, a) is None is isomorphic_oracle(b, a)


def test_discrete_colours_force_the_oracles_bijection_without_search():
    a = NEAR_MISS_A
    perm = [4, 6, 0, 2, 5, 1, 3]
    relabeled = from_covers(  # point i of a is point perm[i] of the copy
        [f"q{k}" for k in range(a.n)],
        [(f"q{perm[i]}", f"q{perm[j]}") for i, j in a.covers()],
    )
    found = []
    assert _marks(lambda: found.append(is_isomorphic(a, relabeled))) == 0
    assert found[0] == isomorphic_oracle(a, relabeled) == {
        f"p{i}": f"q{perm[i]}" for i in range(a.n)
    }
    # a shared colour still searches, and finds the oracle's bijection
    square = from_covers(["a", "b", "c", "d"], _covers("a<c a<d b<c b<d"))
    assert _marks(lambda: is_isomorphic(square, square)) > 0
    assert is_isomorphic(square, square) == isomorphic_oracle(square, square)


def test_isomorphism_refines_each_space_once():
    # only spaces that share a's fingerprint are refined, each once: a and
    # its three relabelled copies; the opposite and the second random poset
    # differ in fingerprint and are turned away before refinement
    rng = random.Random(5)
    a = random_poset(rng, 7)
    others = [
        FiniteSpace.from_masks(tuple(f"q{k}{i}" for i in range(a.n)), a.masks()[0])
        for k in range(3)
    ] + [a.opposite(), a, random_poset(rng, 7)]
    strangers = [others[3], others[5]]
    assert all(s.fingerprint() != a.fingerprint() for s in strangers)
    runs = _refinements(lambda: [is_isomorphic(a, b) for b in others + others])
    assert runs == 4
    assert _refinements(lambda: [is_isomorphic(b, a) for b in others]) == 0
    assert all(FiniteSpace._colours.__wrapped__ not in s._memo for s in strangers)
    # a near miss, one cover dropped, loses a comparable pair: no refinement
    b = FiniteSpace.from_masks(a.labels, a.masks()[0])
    dropped = from_covers(a.labels, a.hasse_edges()[1:])
    assert b.fingerprint() != dropped.fingerprint()
    assert _refinements(lambda: is_isomorphic(b, dropped)) == 0
    assert is_isomorphic(b, dropped) is None is isomorphic_oracle(b, dropped)


def test_equal_fingerprints_with_other_refinements_skip_the_engine(monkeypatch):
    # a two-point chain beside a square, and a fence on six points: both have
    # three minima and three maxima with the same degrees
    square = from_covers(
        ["a", "b", "c", "d", "e", "f"],
        [("a", "b"), ("c", "e"), ("c", "f"), ("d", "e"), ("d", "f")],
    )
    fence = from_covers(
        ["a", "b", "c", "d", "e", "f"],
        [("a", "b"), ("c", "b"), ("c", "d"), ("e", "d"), ("e", "f")],
    )
    assert square.fingerprint() == fence.fingerprint()
    assert square._colours()[1] != fence._colours()[1]

    def engine(*args):
        raise AssertionError("the engine was entered")

    monkeypatch.setattr(spaces, "_first_isomorphism", engine)
    assert is_isomorphic(square, fence) is None
    assert is_isomorphic(fence, square) is None


def test_subspace_keeps_labels_and_order():
    s = from_covers(["a", "b", "c", "d"], [("c", "a"), ("c", "b"), ("d", "c")])
    sub = s.subspace([s.index("a"), s.index("c"), s.index("d")])
    assert sub.labels == ("a", "c", "d")
    assert sub.is_leq("d", "a")
    assert s.delete("b") == sub
    # numpy integers resolve as indices, and misses keep their messages
    assert s.subspace([np.int64(0), np.intp(2), np.uint8(3)]) == sub
    assert s.delete(np.int32(1)) == sub
    with pytest.raises(KeyError, match="point index 4 out of range"):
        s.index(np.int64(4))
    with pytest.raises(KeyError, match="no point labeled 'e'"):
        s.index("e")
    with pytest.raises(KeyError, match="no point labeled 1.0"):
        s.index(1.0)


def test_heights():
    s = from_covers(["a", "b", "c", "d"], [("c", "a"), ("c", "b"), ("d", "c")])
    h = {s.labels[i]: v for i, v in enumerate(s.heights())}
    assert h == {"d": 0, "c": 1, "a": 2, "b": 2}
    antichain = from_covers([f"a{i}" for i in range(6)], [])
    for space in (from_covers([], []), chain(1), chain(40), antichain):
        assert space.heights() == heights_oracle(space)
    assert chain(40).heights()[-1] == 39
    assert antichain.heights() == (0,) * 6


def _matrix_forms(leq: np.ndarray) -> list:
    """The same relation as a NumPy bool and int array, and as nested
    Python lists of bools and of ints."""
    return [leq, leq.astype(np.int64), leq.tolist(), leq.astype(int).tolist()]


def test_matrix_forms_build_the_same_space():
    rng = random.Random(23)
    for n in (0, 1, 2, 5, 9):
        s = random_poset(rng, n, 0.4)
        for form in _matrix_forms(leq_matrix(s)):
            assert FiniteSpace(s.labels, form).masks() == s.masks()


def _broken(kind: str) -> np.ndarray:
    leq = np.eye(3, dtype=bool)
    if kind == "shape":
        return leq[:2]
    if kind == "reflexive":
        leq[2, 2] = False
    elif kind == "antisymmetric":
        leq[0, 1] = leq[1, 0] = True
    else:
        leq[0, 1] = leq[1, 2] = True
    return leq


@pytest.mark.parametrize(
    "kind, message",
    [
        ("shape", r"relation shape \(2, 3\) does not match 3 labels"),
        ("reflexive", "relation is not reflexive"),
        ("antisymmetric", "relation is not antisymmetric"),
        ("transitive", "relation is not transitive"),
    ],
)
def test_matrix_forms_reject_a_broken_relation_alike(kind, message):
    for form in _matrix_forms(_broken(kind)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FiniteSpace(("a", "b", "c"), form)


def test_delete_at_the_ends_and_of_the_only_point():
    s = random_poset(random.Random(29), 7, 0.4)
    for space, i in ((s, 0), (s, s.n - 1), (chain(1), 0)):
        leq = leq_matrix(space)
        rest = [j for j in range(space.n) if j != i]
        want = FiniteSpace([space.labels[j] for j in rest], leq[np.ix_(rest, rest)])
        got = space.delete(i)
        assert got.labels == want.labels and got.masks() == want.masks()
    assert chain(1).delete(0).masks() == ((), ())
