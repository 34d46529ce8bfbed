import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finspace.complexes import (
    from_facets,
    is_contiguous,
    verify_simplicial_certificate,
)
from finspace.corpus import load
from finspace.functors import (
    bridge_space,
    chain_label,
    contiguity_fence,
    cylinder_certificates,
    face_poset,
    h_map,
    induced_continuous,
    induced_simplicial,
    order_complex,
    space_subdivision,
    translate_simplicial_collapse,
    translate_space_collapse,
)
from finspace.maps import ContinuousMap, is_distinguished, mapping_cylinder
from finspace.moves import verify_space_certificate, weak_points
from finspace.spaces import FiniteSpace, from_covers, is_isomorphic

from util import (
    all_chains_brute,
    barycentric_oracle,
    covers_oracle,
    cylinder_oracle,
    drawn_poset,
    linear_extension_oracle,
    random_monotone_map,
    random_poset,
)


def test_order_complex_matches_chain_enumeration():
    rng = random.Random(31)
    for _ in range(30):
        x = random_poset(rng, rng.randint(1, 6))
        k = order_complex(x)
        assert set(k.simplices) == all_chains_brute(x)


def test_face_poset_is_inclusion_order():
    k = from_facets([("a", "b", "c")])
    xk = face_poset(k)
    assert xk.n == 7
    assert xk.is_leq("a", "a.b")
    assert xk.is_leq("a.b", "a.b.c")
    assert not xk.is_leq("a.b", "b.c")


def test_face_poset_rejects_label_collisions():
    k = from_facets([("a", "b"), ("a.b",)])
    with pytest.raises(ValueError):
        face_poset(k)


def test_round_trip_identities_hold_exactly():
    rng = random.Random(47)
    for _ in range(15):
        x = random_poset(rng, rng.randint(1, 5))
        k = order_complex(x)
        # complex side: X then K is the barycentric subdivision on the nose
        assert order_complex(face_poset(k)) == barycentric_oracle(k)
        # space side: K then X is the subdivision of the space
        assert space_subdivision(x) == face_poset(order_complex(x))


def test_h_map_collapses_subdivision():
    rng = random.Random(3)
    for _ in range(10):
        x = random_poset(rng, rng.randint(1, 5))
        h = h_map(x)
        assert h.dom == space_subdivision(x)
        assert h.cod == x
        rep = is_distinguished(h)
        assert rep.ok, rep.failing


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 8), st.data())
def test_subdivision_matches_the_complex_route_in_index_order(rng, n, data):
    # stdout follows index order, which labelled equality ignores
    x = drawn_poset(rng, data, n)
    k = order_complex(x)
    want = face_poset(k)
    got = space_subdivision(x)
    assert got.labels == want.labels and got.masks() == want.masks()
    assert got.covers() == want.covers()
    assert got.linear_extension() == tuple(linear_extension_oracle(want))
    maxima = [next(v for v in s if all(x.is_leq(w, v) for w in s)) for s in k.simplices]
    assert h_map(x).images == tuple(x.index(v) for v in maxima)


def test_h_map_is_natural():
    rng = random.Random(8)
    for _ in range(10):
        dom = random_poset(rng, rng.randint(1, 4))
        cod = random_poset(rng, rng.randint(1, 4))
        f = random_monotone_map(rng, dom, cod)
        lifted = induced_continuous(induced_simplicial(f))
        lhs = h_map(cod).compose(lifted)
        rhs = f.compose(h_map(dom))
        assert lhs.images == rhs.images


def test_chain_label_formatting():
    assert chain_label(("a",)) == "a"
    assert chain_label(("a", "b", "c")) == "a<b<c"


def test_bridge_certificates_replay():
    rng = random.Random(77)
    for _ in range(8):
        x = random_poset(rng, rng.randint(1, 4))
        bundle = bridge_space(x)
        up = verify_space_certificate(bundle.expansion)
        assert up.ok and up.final == bundle.cylinder
        down_res = verify_space_certificate(bundle.collapse)
        assert down_res.ok
        down = down_res.final
        sub = space_subdivision(x)
        prefixed = FiniteSpace.from_masks(["L:" + l for l in sub.labels], sub.masks()[0])
        assert is_isomorphic(down, prefixed) is not None


def test_bridge_rejects_ambiguous_labels():
    x = from_covers(["a", "b", "a<b"], [("a", "b")])
    with pytest.raises(ValueError, match="^chain names collide; rename the points$"):
        bridge_space(x)


def test_subdivision_rejects_ambiguous_labels():
    x = from_covers(["a", "b", "a.b"], [("a", "b")])
    with pytest.raises(ValueError, match="^chain names collide; rename the points$"):
        space_subdivision(x)


def test_cylinder_collapse_exists_iff_distinguished():
    rng = random.Random(101)
    seen_yes = seen_no = 0
    for _ in range(40):
        dom = random_poset(rng, rng.randint(1, 4))
        cod = random_poset(rng, rng.randint(1, 4))
        f = random_monotone_map(rng, dom, cod)
        bundle = cylinder_certificates(f)
        up = verify_space_certificate(bundle.expansion)
        assert up.ok and up.final == bundle.cylinder
        if is_distinguished(f):
            seen_yes += 1
            assert bundle.refused_at is None
            res = verify_space_certificate(bundle.collapse)
            assert res.ok
            prefixed = FiniteSpace.from_masks(["L:" + l for l in dom.labels], dom.masks()[0])
            assert is_isomorphic(res.final, prefixed) is not None
        else:
            seen_no += 1
            assert bundle.collapse is None
            assert bundle.refused_at is not None
    assert seen_yes and seen_no


@settings(max_examples=150, deadline=None)
@given(
    st.randoms(use_true_random=False), st.integers(0, 6), st.integers(2, 6),
    st.sampled_from(["random", "constant", "identity", "h"]), st.data(),
)
def test_mapping_cylinder_matches_its_definition(rng, n, m, kind, data):
    dom = drawn_poset(rng, data, n)
    cod = drawn_poset(rng, data, m)
    if kind == "random":
        f = random_monotone_map(rng, dom, cod)
    elif kind == "constant":
        f = ContinuousMap.constant(dom, cod, data.draw(st.sampled_from(cod.labels)))
    elif kind == "identity":
        f = ContinuousMap.identity(dom)
    else:
        f = h_map(dom)
    cyl = mapping_cylinder(f)
    want = cylinder_oracle(f)
    assert cyl.labels == want.labels and cyl.masks() == want.masks()
    assert list(cyl.covers()) == covers_oracle(want)
    # the cylinder's lists are new ones: the copies' stored lists are intact
    for space in (f.dom, f.cod):
        assert space._upper_covers() == FiniteSpace._upper_covers.__wrapped__(space)


def test_cylinder_refusal_names_first_bad_point():
    sierp = from_covers(["0", "1"], [("0", "1")])
    vee = from_covers(["b", "c", "a"], [("b", "a"), ("c", "a")])
    f = ContinuousMap.from_labels(vee, sierp, {"a": "1", "b": "0", "c": "0"})
    bundle = cylinder_certificates(f)
    assert bundle.refused_at == "0"


def test_translate_space_collapse_on_wallet():
    wallet = load("wallet")
    cert = translate_space_collapse(wallet, "x")
    assert cert.start == order_complex(wallet.delete("x"))
    res = verify_simplicial_certificate(cert)
    assert res.ok
    assert res.final == order_complex(wallet)


def test_translate_space_collapse_random_spaces():
    rng = random.Random(202)
    checked = 0
    for _ in range(60):
        x = random_poset(rng, rng.randint(2, 5))
        for label, side in weak_points(x):
            cert = translate_space_collapse(x, label)
            k = cert.start
            chi = k.euler_characteristic()
            for mv in cert.moves:
                assert mv.direction == "add"
                k, _ = k.elementary_expand(mv.face, mv.apex)
                assert k.euler_characteristic() == chi
            assert k == order_complex(x)
            checked += 1
            if checked >= 25:
                return
    assert checked > 0


def test_translate_space_collapse_rejects_non_weak_point():
    anti = from_covers(["p", "q"], [])
    with pytest.raises(ValueError):
        translate_space_collapse(anti, "p")


def test_translate_simplicial_collapse_is_two_moves():
    k = from_facets([("a", "b", "c")])
    pairs = k.free_pairs()
    assert pairs
    face, apex = pairs[0]
    cert = translate_simplicial_collapse(k, face, apex)
    assert len(cert.moves) == 2
    assert cert.moves[0].side == "beat-up"
    assert cert.moves[1].side == "down-weak"
    smaller, _ = k.elementary_collapse(face, apex)
    res = verify_space_certificate(cert)
    assert res.ok
    assert res.final == face_poset(smaller)


def test_translate_simplicial_collapse_rejects_shared_faces():
    k = from_facets([("a", "b", "c"), ("b", "c", "d")])
    with pytest.raises(ValueError):
        translate_simplicial_collapse(k, ("b", "c"), "a")


def test_contiguity_fence_between_close_maps():
    from finspace.complexes import SimplicialMap

    k = from_facets([("a", "b")])
    ident = SimplicialMap.from_dict(k, k, {"a": "a", "b": "b"})
    fold = SimplicialMap.from_dict(k, k, {"a": "b", "b": "b"})
    assert is_contiguous(ident, fold)
    left, mid, right = contiguity_fence(ident, fold)
    assert left.dom == face_poset(k)
    assert left.images != right.images
