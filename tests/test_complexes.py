import random

import pytest

from finspace import complexes
from finspace.complexes import (
    SimplicialComplex,
    SimplicialMap,
    SimplicialMove,
    SimplicialMoveCertificate,
    collapse_sequence_search,
    complex_isomorphic,
    cone,
    dotted_label,
    from_facets,
    is_contiguous,
    verify_simplicial_certificate,
)
from finspace.corpus import load
from finspace.functors import barycentric_subdivision, order_complex, translate_space_collapse

from util import calls, complex_isomorphic_oracle, nested_code, random_complex

FULL_TRIANGLE = from_facets([["a", "b", "c"]])
HOLLOW_TRIANGLE = from_facets([["a", "b"], ["b", "c"], ["a", "c"]])


def test_closure_is_enforced():
    with pytest.raises(ValueError):
        SimplicialComplex([["a", "b"]])  # vertices missing
    SimplicialComplex([["a"], ["b"], ["a", "b"]])
    with pytest.raises(ValueError):
        from_facets([[]])


def test_dim_of_empty_single_and_mixed_complexes():
    empty = SimplicialComplex([])
    assert empty.dim == -1 and empty.f_vector() == ()
    point = from_facets([["a"]])
    assert point.dim == 0 and point.f_vector() == (1,)
    mixed = from_facets([["a", "b", "c"], ["c", "d"], ["e"], ["f", "g", "h", "i"]])
    assert mixed.dim == 3 and mixed.f_vector() == (9, 10, 5, 1)


def test_f_vector_and_euler():
    assert FULL_TRIANGLE.f_vector() == (3, 3, 1)
    assert FULL_TRIANGLE.euler_characteristic() == 1
    assert HOLLOW_TRIANGLE.euler_characteristic() == 0


def test_facets_and_cofaces():
    assert FULL_TRIANGLE.facets() == (("a", "b", "c"),)
    assert FULL_TRIANGLE.proper_cofaces(["a", "b"]) == (("a", "b", "c"),)
    assert HOLLOW_TRIANGLE.proper_cofaces(["a"]) == (("a", "b"), ("a", "c"))


def test_free_pairs_on_the_full_triangle():
    pairs = FULL_TRIANGLE.free_pairs()
    assert (("a", "b"), "c") in pairs
    assert all(len(face) == 2 for face, _ in pairs)
    assert HOLLOW_TRIANGLE.free_pairs() == []


def test_collapse_removes_exactly_two_simplices():
    smaller, move = FULL_TRIANGLE.elementary_collapse(["a", "b"])
    assert len(smaller) == len(FULL_TRIANGLE) - 2
    assert move.direction == "remove" and move.apex == "c"
    assert smaller.euler_characteristic() == FULL_TRIANGLE.euler_characteristic()
    back, move2 = smaller.elementary_expand(["a", "b"], "c")
    assert back == FULL_TRIANGLE


def test_collapse_validates_freeness():
    with pytest.raises(ValueError):
        HOLLOW_TRIANGLE.elementary_collapse(["a"])
    with pytest.raises(ValueError):
        FULL_TRIANGLE.elementary_collapse(["a", "b"], apex="z")


def test_expand_validates_boundary_presence():
    two_points = from_facets([["a"], ["b"]])
    with pytest.raises(ValueError):
        two_points.elementary_expand(["a", "b"], "c")  # edge ab missing


def test_expand_validates_face_and_apex():
    point = from_facets([("a",)])
    bigger, move = point.elementary_expand(("z",), "a")
    assert bigger.f_vector() == (2, 1) and move.direction == "add"
    with pytest.raises(ValueError, match="already present"):
        point.elementary_expand(("a",), "z")  # face already present
    with pytest.raises(ValueError, match="lies in the face"):
        point.elementary_expand(("z", "a"), "a")  # apex inside the face


def test_a_complex_equals_no_foreign_object():
    assert FULL_TRIANGLE.__eq__(FULL_TRIANGLE.simplices) is NotImplemented
    assert FULL_TRIANGLE != FULL_TRIANGLE._set and not FULL_TRIANGLE == "abc"


@pytest.mark.parametrize("apex", ["a", "z"])
def test_replay_refuses_a_hand_built_empty_face_at_its_move(apex):
    # the parser refuses an empty face; a move built by hand reaches the
    # verifier, which refuses it as an empty simplex whether or not the
    # apex is already a vertex
    moves = (SimplicialMove("add", ("b",), "a"), SimplicialMove("add", (), apex))
    res = verify_simplicial_certificate(SimplicialMoveCertificate(from_facets([["a"]]), moves))
    assert not res.ok and res.step == 1 and res.reason == "empty simplex"


def test_certificate_replay_and_tampering():
    seq = []
    k = FULL_TRIANGLE
    while True:
        pairs = k.free_pairs()
        if not pairs or len(k) == 1:
            break
        k, move = k.elementary_collapse(*pairs[0])
        seq.append(move)
    cert = SimplicialMoveCertificate(FULL_TRIANGLE, tuple(seq))
    res = verify_simplicial_certificate(cert)
    assert res.ok and len(res.final) == 1

    tampered = SimplicialMoveCertificate(
        FULL_TRIANGLE, (SimplicialMove("remove", ("a",), "b"),) + tuple(seq[1:])
    )
    res = verify_simplicial_certificate(tampered)
    assert not res.ok
    assert res.step == 0


def test_verifier_rescans_cofaces_and_revalidates(monkeypatch):
    # the fast paths the verifier checks: the face index behind facets, free
    # pairs and face posets, and the unchecked construction of search children
    collapse = collapse_sequence_search(FULL_TRIANGLE).certificate
    wallet = load("wallet")
    translated = translate_space_collapse(wallet, "x")
    full = order_complex(wallet)

    def refuse(*args):
        raise AssertionError("the verifier used a fast path")

    monkeypatch.setattr(SimplicialComplex, "_faces", refuse)
    monkeypatch.setattr("finspace.functors._cofacet_poset", refuse)
    monkeypatch.setattr(SimplicialComplex, "_trusted", refuse)
    res = verify_simplicial_certificate(collapse)
    assert res.ok and len(res.final) == 1
    res = verify_simplicial_certificate(translated)
    assert res.ok and res.final == full
    mutated = SimplicialMoveCertificate(
        FULL_TRIANGLE, (SimplicialMove("remove", ("a",), "b"),) + collapse.moves[1:]
    )
    res = verify_simplicial_certificate(mutated)
    assert not res.ok and res.step == 0
    assert res.reason == "['a'] is not free with apex 'b'"


def test_replay_builds_one_complex_at_the_end(monkeypatch):
    collapse = collapse_sequence_search(FULL_TRIANGLE).certificate
    expansion = translate_space_collapse(load("wallet"), "x")
    built = []
    fill = SimplicialComplex._fill

    def counted(self, fam):
        built.append(fam)
        fill(self, fam)

    monkeypatch.setattr(SimplicialComplex, "_fill", counted)
    for cert, direction in ((collapse, "remove"), (expansion, "add")):
        assert len(cert.moves) > 1 and {m.direction for m in cert.moves} == {direction}
        built.clear()
        res = verify_simplicial_certificate(cert)
        assert res.ok and len(built) == 1 and built[0] is res.final._set


def test_collapse_sequence_search_full_triangle():
    res = collapse_sequence_search(FULL_TRIANGLE)
    assert res.certificate is not None
    assert verify_simplicial_certificate(res.certificate).ok


def test_collapse_sequence_search_conclusive_no():
    res = collapse_sequence_search(HOLLOW_TRIANGLE)
    assert res.certificate is None
    assert res.conclusive


def test_barycentric_counts_of_a_triangle():
    # 7 simplices of the triangle become vertices; flags give 12 edges, 6 cells
    k = barycentric_subdivision(FULL_TRIANGLE)
    assert k.f_vector() == (7, 12, 6)
    assert k.euler_characteristic() == FULL_TRIANGLE.euler_characteristic()
    assert "a.b.c" in k.vertices


def test_barycentric_euler_invariance():
    rng = random.Random(13)
    for _ in range(20):
        k = random_complex(rng)
        assert (
            barycentric_subdivision(k).euler_characteristic()
            == k.euler_characteristic()
        )


def test_cone_is_a_join_with_a_fresh_vertex():
    c = cone("z", HOLLOW_TRIANGLE)
    assert len(c) == 2 * len(HOLLOW_TRIANGLE) + 1
    assert frozenset(["z", "a", "b"]) in c
    with pytest.raises(ValueError):
        cone("a", HOLLOW_TRIANGLE)
    assert len(cone("z", from_facets([]))) == 1


def test_simplicial_map_validation_and_composition():
    f = SimplicialMap.from_dict(FULL_TRIANGLE, FULL_TRIANGLE, {"a": "b", "b": "b", "c": "c"})
    assert f.image(["a", "b", "c"]) == frozenset(["b", "c"])
    with pytest.raises(ValueError):
        SimplicialMap.from_dict(
            HOLLOW_TRIANGLE, from_facets([["a"], ["b"]]), {"a": "a", "b": "b", "c": "a"}
        )  # the edge ab has no image edge
    g = f.compose(f)
    assert g.mapping() == {"a": "b", "b": "b", "c": "c"}


def test_contiguity():
    ident = SimplicialMap.from_dict(FULL_TRIANGLE, FULL_TRIANGLE, {v: v for v in "abc"})
    fold = SimplicialMap.from_dict(FULL_TRIANGLE, FULL_TRIANGLE, {"a": "b", "b": "b", "c": "c"})
    assert is_contiguous(ident, fold)
    # around the hollow triangle a rotation is not contiguous to the identity
    rot = SimplicialMap.from_dict(
        HOLLOW_TRIANGLE, HOLLOW_TRIANGLE, {"a": "b", "b": "c", "c": "a"}
    )
    ident2 = SimplicialMap.from_dict(HOLLOW_TRIANGLE, HOLLOW_TRIANGLE, {v: v for v in "abc"})
    assert not is_contiguous(ident2, rot)


def test_complex_isomorphism():
    other = from_facets([["x", "y", "z"]])
    found = complex_isomorphic(FULL_TRIANGLE, other)
    assert found is not None and set(found) == {"a", "b", "c"}
    assert complex_isomorphic(FULL_TRIANGLE, HOLLOW_TRIANGLE) is None
    rng = random.Random(37)
    for _ in range(15):
        k = random_complex(rng)
        names = {v: f"w{i}" for i, v in enumerate(k.vertices)}
        relabeled = from_facets([[names[v] for v in f] for f in k.facets()])
        assert complex_isomorphic(k, relabeled) is not None


def test_equal_f_vectors_with_other_signatures_skip_the_engine(monkeypatch):
    # an edge beside a 4-cycle, and a path on six vertices: both have two
    # vertices of degree 1 and four of degree 2, but only the path joins them
    square = from_facets([["a", "b"], ["c", "e"], ["c", "f"], ["d", "e"], ["d", "f"]])
    path = from_facets([["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "f"]])
    assert square.f_vector() == path.f_vector() == (6, 5)
    assert sorted(square._signatures()) != sorted(path._signatures())

    def engine(*args):
        raise AssertionError("the engine was entered")

    monkeypatch.setattr(complexes, "_first_isomorphism", engine)
    assert complex_isomorphic(square, path) is None
    assert complex_isomorphic(path, square) is None


def test_distinct_vertex_signatures_force_the_oracles_bijection():
    # a triangle bce with a tail b-d and a path b-a-c: every vertex's
    # signature differs, so the engine tests one bijection and no other
    k = from_facets([["a", "b"], ["a", "c"], ["b", "d"], ["b", "c", "e"]])
    sig = k._signatures()
    assert len(set(sig)) == len(sig)
    names = {"a": "z3", "b": "z0", "c": "z4", "d": "z1", "e": "z2"}
    relabeled = from_facets([[names[v] for v in f] for f in k.facets()])
    onto = nested_code(complex_isomorphic, "onto")
    mark = nested_code(complexes._first_isomorphism, "mark")
    found = []
    assert calls(onto, lambda: found.append(complex_isomorphic(k, relabeled))) == 1
    assert calls(mark, lambda: complex_isomorphic(k, relabeled)) == 0
    assert found[0] == complex_isomorphic_oracle(k, relabeled) == names


def test_dotted_label_sorts():
    assert dotted_label(frozenset(["b", "a"])) == "a.b"
