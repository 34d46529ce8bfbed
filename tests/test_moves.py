"""Beat points, weak points, cores and space-level certificates."""

import random

import pytest

from finspace import moves
from finspace.complexes import collapse_sequence_search, from_facets
from finspace.functors import bridge_space
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
from finspace.spaces import FiniteSpace, from_covers, is_isomorphic

from util import random_poset, replace

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
        order = list(s.labels)
        rng.shuffle(order)
        c2, _ = core(from_covers(order, s.hasse_edges()))  # indexed, so stripped, in order
        assert is_isomorphic(c1, c2) is not None


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
        down = tuple(s.labels[j] for j in range(s.n) if j != i and s.is_leq(j, i))
        up = tuple(s.labels[j] for j in range(s.n) if j != i and s.is_leq(i, j))
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


def test_verify_rejects_bad_labels_and_unclosed_attaching_sets():
    # the verifier builds the grown space without re-checking the old labels,
    # so the new label and the order are what it must still refuse
    chain = from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])

    def attach(label, down, up=()):
        move = SpaceMove("add", label, "down-weak", down=down, up=up)
        return verify_space_certificate(SpaceMoveCertificate(chain, (move,)))

    for label, why in (
        ("b", "label 'b' already present"),
        ("x y", "label 'x y' contains whitespace"),
        ("x#", "label 'x#' contains whitespace"),
        ("", "labels must be nonempty strings"),
    ):
        res = attach(label, ("c",))
        assert (res.ok, res.step) == (False, 0)
        assert res.reason.startswith(f"cannot attach {label!r}: {why}")
    # {c} is not closed downwards (a < c), and b above x leaves x out of the
    # down-set of c
    for down, up in ((("c",), ()), (("a",), ("b",))):
        res = attach("x", down, up)
        assert (res.ok, res.step) == (False, 0)
        assert res.reason == "cannot attach 'x': relation is not transitive"
    assert attach("x", ("a", "b", "c")).ok


def test_collapse_search_budget_is_reported():
    res = collapse_search(WALLET, budget=2)
    assert res.certificate is None
    assert not res.conclusive
    triangle = from_facets([("a", "b", "c")])
    for search, start in ((collapse_search, WALLET), (collapse_sequence_search, triangle)):
        with pytest.raises(ValueError, match="budget must be at least 0, got -1"):
            search(start, budget=-1)
        res = search(start, budget=0)
        assert (res.certificate, res.conclusive, res.nodes) == (None, False, 1)


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


def test_verifier_does_not_use_the_bitmask_kernel(monkeypatch):
    collapse = collapse_search(WALLET).certificate
    expansion = bridge_space(SD3).expansion
    assert any(m.direction == "add" for m in expansion.moves)
    first = collapse.moves[0]
    assert (first.label, first.side) == ("t2", "down-weak")
    mutated = replace(collapse, moves=(replace(first, label="m1"),) + collapse.moves[1:])

    def kernel(*args, **kwargs):
        raise AssertionError("the verifier reached the bitmask kernel")

    for name in ("_beat_in", "_strip_in", "_contractible_in"):
        monkeypatch.setattr(moves, name, kernel)
    assert verify_space_certificate(collapse).final.n == 1
    assert verify_space_certificate(expansion).ok
    res = verify_space_certificate(mutated)
    assert (res.ok, res.step) == (False, 0)
    assert res.reason == "'m1' is not down-weak: punctured minimal open set is not contractible"


def test_replay_builds_one_space_at_the_end(monkeypatch):
    collapse = collapse_search(WALLET).certificate
    expansion = bridge_space(SD3).expansion
    built = []
    fill = FiniteSpace._set

    def counted(self, labels, *order):
        built.append(labels)
        fill(self, labels, *order)

    monkeypatch.setattr(FiniteSpace, "_set", counted)
    for cert, direction in ((collapse, "remove"), (expansion, "add")):
        assert len(cert.moves) > 1 and {m.direction for m in cert.moves} == {direction}
        built.clear()
        res = verify_space_certificate(cert)
        assert res.ok and built == [res.final.labels]


def test_core_retests_only_points_comparable_to_each_removal(monkeypatch):
    space = random_poset(random.Random(1), 200, 0.05)
    calls = 0
    beat_in = moves._beat_in

    def counted(*args):
        nonlocal calls
        calls += 1
        return beat_in(*args)

    monkeypatch.setattr(moves, "_beat_in", counted)
    shuffled = list(space.labels)
    random.Random(2).shuffle(shuffled)
    for s in (space, from_covers(shuffled, space.hasse_edges())):  # two index orders
        calls = 0
        smaller, cert = core(s)
        alive = set(range(s.n))
        bound = s.n
        for move in cert.moves:
            x = s.index(move.label)
            alive.discard(x)
            bound += sum(1 for j in alive if s.is_leq(x, j) or s.is_leq(j, x))
        assert smaller.n < s.n
        assert s.n <= calls <= bound


def test_contractibility_retests_only_points_comparable_to_each_removal(monkeypatch):
    space = random_poset(random.Random(1), 200, 0.05)
    down, up = space.masks()
    calls = bound = 0
    beat_in = moves._beat_in

    def counted(down, up, alive, i):
        nonlocal calls, bound
        calls += 1
        beat = beat_in(down, up, alive, i)
        if beat is not None:
            bound += ((down[i] | up[i]) & alive).bit_count()
        return beat

    monkeypatch.setattr(moves, "_beat_in", counted)
    verdicts = []
    for i in range(space.n):
        for alive in (down[i], up[i]):
            calls = 0
            bound = alive.bit_count()
            verdicts.append(moves._contractible_in(down, up, alive))
            assert calls <= bound
            assert calls or alive & (alive - 1) == 0
    assert True in verdicts and False in verdicts
