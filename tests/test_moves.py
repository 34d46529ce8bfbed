"""Beat points, weak points, cores and space-level certificates."""

import random

import pytest

from finspace.moves import (
    SpaceMove,
    SpaceMoveCertificate,
    add_weak_point,
    beat_points,
    collapse_search,
    core,
    homotopy_equivalent,
    is_contractible,
    is_down_beat,
    is_up_beat,
    is_weak_point,
    remove_weak_point,
    verify_space_certificate,
    weak_points,
)
from finspace.spaces import from_covers, is_isomorphic

from util import random_poset

WALLET = from_covers(
    "t1 t2 x t4 m1 m2 m3 m4 c1 c2 c3".split(),
    [
        ("m1", "t1"), ("m2", "t1"), ("m1", "t2"), ("m3", "t2"),
        ("m2", "x"), ("m4", "x"), ("m3", "t4"), ("m4", "t4"),
        ("c1", "m1"), ("c2", "m1"), ("c1", "m2"), ("c2", "m2"),
        ("c2", "m3"), ("c3", "m3"), ("c2", "m4"), ("c3", "m4"),
    ],
)

SD3 = from_covers(
    ["a1", "a2", "b1", "b2", "b3"],
    [(b, a) for a in ("a1", "a2") for b in ("b1", "b2", "b3")],
)


def test_beat_points_of_a_chain():
    s = from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert is_up_beat(s, "a") == "b"
    assert is_down_beat(s, "c") == "b"
    assert is_down_beat(s, "a") is None


def test_wallet_is_minimal_but_has_weak_points():
    assert beat_points(WALLET) == []
    assert is_weak_point(WALLET, "x") == "down-weak"
    assert ("x", "down-weak") in weak_points(WALLET)


def test_wallet_minus_x_is_contractible():
    smaller, cert = core(WALLET.delete("x"))
    assert smaller.n == 1
    assert verify_space_certificate(cert).ok
    assert is_contractible(WALLET.delete("x"))


def test_wallet_is_not_contractible_but_collapses():
    assert not is_contractible(WALLET)
    res = collapse_search(WALLET)
    assert res.certificate is not None
    replay = verify_space_certificate(res.certificate)
    assert replay.ok
    assert replay.final.n == 1


def test_sd3_has_no_moves_at_all():
    assert beat_points(SD3) == []
    assert weak_points(SD3) == []
    res = collapse_search(SD3)
    assert res.certificate is None
    assert res.conclusive


def test_weak_side_dualizes():
    assert is_weak_point(WALLET.opposite(), "x") == "up-weak"


def test_core_is_idempotent_and_unique():
    rng = random.Random(23)
    for _ in range(60):
        s = random_poset(rng, rng.randint(1, 10))
        c1, cert = core(s)
        assert verify_space_certificate(cert).ok
        again, cert2 = core(c1)
        assert again == c1 and len(cert2.moves) == 0
        order = list(range(s.n))
        rng.shuffle(order)
        c2, _ = core(s, order=order)
        assert is_isomorphic(c1, c2) is not None
        with pytest.raises(ValueError, match="exactly once"):
            core(s, order=list(s.labels) + [s.labels[0]])


def test_contractible_iff_core_is_a_point():
    rng = random.Random(5)
    seen_both = set()
    for _ in range(80):
        s = random_poset(rng, rng.randint(1, 8))
        c, _ = core(s)
        assert is_contractible(s) == (c.n == 1)
        seen_both.add(c.n == 1)
    assert seen_both == {True, False}


def test_remove_and_add_are_inverse_moves():
    rng = random.Random(31)
    done = 0
    while done < 25:
        s = random_poset(rng, rng.randint(2, 8))
        wps = weak_points(s)
        if not wps:
            continue
        label, side = wps[0]
        smaller, move = remove_weak_point(s, label)
        assert move.direction == "remove"
        # the recorded side may sharpen the weak side to a beat side;
        # either way the one-move certificate must replay
        assert verify_space_certificate(SpaceMoveCertificate(s, (move,))).ok
        i = s.index(label)
        down = tuple(s.labels[j] for j in range(s.n) if s.lt()[j, i])
        up = tuple(s.labels[j] for j in range(s.n) if s.lt()[i, j])
        back, add = add_weak_point(smaller, down, up, label)
        assert back == s
        assert add.direction == "add"
        done += 1


def test_certificate_rejects_wrong_side():
    cert = SpaceMoveCertificate(
        from_covers(["a", "b"], [("a", "b")]),
        (SpaceMove("remove", "b", "down-weak"),),
    )
    # b covers everything below it, so removing it needs the up side
    res = verify_space_certificate(cert)
    assert res.ok  # strict down-set {a} has max a: b is in fact a down beat,
    # and a down beat is down-weak; the declared side holds

    bad = SpaceMoveCertificate(
        SD3, (SpaceMove("remove", "a1", "down-weak"),)
    )
    res = verify_space_certificate(bad)
    assert not res.ok
    assert res.step == 0
    assert "a1" in res.reason


def test_certificate_rejects_unknown_point_and_bad_attach():
    cert = SpaceMoveCertificate(SD3, (SpaceMove("remove", "zz", "down-weak"),))
    assert not verify_space_certificate(cert)
    clash = SpaceMoveCertificate(
        SD3, (SpaceMove("add", "a1", "up-weak", down=(), up=()),)
    )
    assert not verify_space_certificate(clash).ok
    dangling = SpaceMoveCertificate(
        SD3, (SpaceMove("add", "z", "up-weak", down=("nope",), up=()),)
    )
    assert not verify_space_certificate(dangling).ok


def test_collapse_search_budget_is_reported():
    res = collapse_search(WALLET, budget=2)
    assert res.certificate is None
    assert not res.conclusive


def test_collapse_search_with_target():
    s = from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])
    target = from_covers(["q"], [])
    res = collapse_search(s, target)
    assert res.certificate is not None
    assert verify_space_certificate(res.certificate).final.n == 1


def test_homotopy_equivalent_through_cores():
    a = from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])
    b = from_covers(["z"], [])
    eq = homotopy_equivalent(a, b)
    assert eq is not None
    assert homotopy_equivalent(a, SD3) is None


def test_move_constructor_validation():
    with pytest.raises(ValueError):
        SpaceMove("sideways", "a", "down-weak")
    with pytest.raises(ValueError):
        SpaceMove("remove", "a", "diagonal")
    with pytest.raises(ValueError):
        SpaceMove("add", "a", "up-weak")  # missing attach data
