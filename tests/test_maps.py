import json
import os
import random
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

import finspace
from finspace import maps
from finspace.maps import (
    ContinuousMap,
    FenceResult,
    MembershipEvidence,
    fence_homotopic,
    is_distinguished,
    is_op_distinguished,
    is_valid_fence,
    mapping_cylinder,
    pointwise_leq,
    verify_membership_evidence,
)
from finspace.moves import is_weak_point
from finspace.spaces import from_covers

from util import (
    continuous_map_rows,
    continuous_maps_oracle,
    fence_oracle,
    random_monotone_map,
    random_poset,
)

SIERP = from_covers(["0", "1"], [("0", "1")])
VEE = from_covers(["b", "c", "a"], [("b", "a"), ("c", "a")])
COUNTEREXAMPLE = ContinuousMap.from_labels(VEE, SIERP, {"a": "1", "b": "0", "c": "0"})


def brute_force_fence_exists(f, g):
    """Oracle: breadth-first search over every function that is monotone."""
    dom, cod = f.dom, f.cod
    maps = []
    for images in product(range(cod.n), repeat=dom.n):
        try:
            maps.append(ContinuousMap(dom, cod, images))
        except ValueError:
            continue
    comparable = lambda u, v: pointwise_leq(u, v) or pointwise_leq(v, u)
    frontier = [f.images]
    seen = {f.images}
    while frontier:
        nxt = []
        for u in frontier:
            um = ContinuousMap(dom, cod, u)
            for v in maps:
                if v.images not in seen and comparable(um, v):
                    seen.add(v.images)
                    nxt.append(v.images)
        frontier = nxt
    return g.images in seen


def test_continuity_is_validated():
    with pytest.raises(ValueError):
        ContinuousMap.from_labels(SIERP, VEE, {"0": "a", "1": "b"})
    with pytest.raises(ValueError):
        ContinuousMap.from_labels(VEE, SIERP, {"a": "1"})


def test_composition_and_identity():
    ident = ContinuousMap.identity(VEE)
    assert COUNTEREXAMPLE.compose(ident).images == COUNTEREXAMPLE.images
    c = ContinuousMap.constant(SIERP, VEE, "a")
    assert c.compose(COUNTEREXAMPLE)("b") == "a"


def test_fence_for_comparable_maps():
    top = ContinuousMap.constant(VEE, SIERP, "1")
    bottom = ContinuousMap.constant(VEE, SIERP, "0")
    assert pointwise_leq(bottom, top)
    res = fence_homotopic(bottom, top)
    assert res.fence == (bottom, top) and res.conclusive
    assert is_valid_fence(res.fence)


def test_fence_search_matches_brute_force():
    rng = random.Random(59)
    for _ in range(25):
        dom = random_poset(rng, rng.randint(1, 4))
        cod = random_poset(rng, rng.randint(1, 4))
        f = random_monotone_map(rng, dom, cod)
        g = random_monotone_map(rng, dom, cod)
        res = fence_homotopic(f, g, budget=32)
        assert res.conclusive
        expected = brute_force_fence_exists(f, g)
        assert bool(res) == expected
        if res.fence:
            assert is_valid_fence(res.fence)
            assert res.fence[0].images == f.images
            assert res.fence[-1].images == g.images


def test_fence_negative_is_conclusive_on_antichains():
    anti = from_covers(["p", "q"], [])
    ident = ContinuousMap.identity(anti)
    swap = ContinuousMap.from_labels(anti, anti, {"p": "q", "q": "p"})
    res = fence_homotopic(ident, swap)
    assert res.fence is None and res.conclusive


def test_fence_inconclusive_when_space_too_big():
    big = random_poset(random.Random(1), 12, 0.2)
    f = ContinuousMap.identity(big)
    images = list(f.images)
    # swap two incomparable maximal points if possible; otherwise skip
    res = fence_homotopic(
        f, ContinuousMap(big, big, tuple(images)), budget=1
    )
    assert res.conclusive  # equal maps short-circuit even at tiny budget


def test_fence_inconclusive_beyond_the_exhaustive_limit():
    # 12 ** 12 maps are too many to enumerate, so absence is not conclusive
    anti = from_covers([f"p{i}" for i in range(12)], [])
    ident = ContinuousMap.identity(anti)
    const = ContinuousMap.constant(anti, anti, "p0")
    assert not pointwise_leq(ident, const) and not pointwise_leq(const, ident)
    res = fence_homotopic(ident, const)
    assert res.fence is None and not res.conclusive


def test_fence_inconclusive_when_longer_than_the_budget():
    # maps from a point into the zigzag a0 < b0 > a1 < b1 > a2: the only
    # fence from a0 to a2 walks the whole zigzag, four steps
    zigzag = from_covers(
        ["a0", "b0", "a1", "b1", "a2"],
        [("a0", "b0"), ("a1", "b0"), ("a1", "b1"), ("a2", "b1")],
    )
    pt = from_covers(["z"], [])
    f = ContinuousMap.from_labels(pt, zigzag, {"z": "a0"})
    g = ContinuousMap.from_labels(pt, zigzag, {"z": "a2"})
    for budget in (2, 3):
        res = fence_homotopic(f, g, budget=budget)
        assert res.fence is None and not res.conclusive
    res = fence_homotopic(f, g, budget=4)
    assert [m("z") for m in res.fence] == ["a0", "b0", "a1", "b1", "a2"]
    assert res == fence_oracle(f, g, budget=4) and res.conclusive


def test_fence_antichain6_into_chain6_stays_within_a_second():
    anti = from_covers([f"a{i}" for i in range(6)], [])
    chain = from_covers([f"c{i}" for i in range(6)], [(f"c{i}", f"c{i + 1}") for i in range(5)])
    f = ContinuousMap(anti, chain, (0, 1, 2, 3, 4, 5))
    g = ContinuousMap(anti, chain, (5, 4, 3, 2, 1, 0))
    start = time.process_time()
    res = fence_homotopic(f, g)
    assert time.process_time() - start < 1.0
    # the fence of the pairwise scan in fence_oracle, which takes seconds on this input
    assert [m.images for m in res.fence] == [(0, 1, 2, 3, 4, 5), (0,) * 6, (5, 4, 3, 2, 1, 0)]
    assert res.conclusive


ANTICHAIN7_RUN = """
import json, os, resource, time
from finspace.maps import ContinuousMap, fence_homotopic
from finspace.spaces import from_covers

anti = from_covers([f"a{i}" for i in range(7)], [])
chain = from_covers([f"c{i}" for i in range(7)], [(f"c{i}", f"c{i + 1}") for i in range(6)])
f = ContinuousMap(anti, chain, tuple(range(7)))
g = ContinuousMap(anti, chain, tuple(range(6, -1, -1)))
# this interpreter's peak starts at that of the process that started it; a
# forked child's starts at this one's current size
child = os.fork()
if child:
    raise SystemExit(os.waitstatus_to_exitcode(os.waitpid(child, 0)[1]))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
start = time.process_time()
res = fence_homotopic(f, g)
took = time.process_time() - start
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps([[m.images for m in res.fence], res.conclusive, (after - before) / 1024, took]))
"""


def test_fence_antichain7_into_chain7_grows_the_peak_by_under_100_mb():
    # 7 ** 7 = 823,543 maps; kept as one tuple each, they took a fresh
    # process's peak from 16 to 149 MB, where one byte column per position
    # holds their images in under 6 MB
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-c", ANTICHAIN7_RUN], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    fence, conclusive, grown_mb, took = json.loads(done.stdout)
    assert fence == [list(range(7)), [0] * 7, list(range(6, -1, -1))] and conclusive
    assert grown_mb < 100
    assert took < 10  # seconds of CPU


def _zigzag_covers(prefix: str, n: int) -> list[tuple[str, str]]:
    """The covers of the zigzag z0 < z1 > z2 < z3 ... on n points."""
    return [
        (f"{prefix}{i}", f"{prefix}{i + 1}") if i % 2 == 0 else (f"{prefix}{i + 1}", f"{prefix}{i}")
        for i in range(n - 1)
    ]


def _zigzag(n: int, seed: int):
    """The zigzag on z0 ... z(n-1), stored in a shuffled index order."""
    labels = [f"z{i}" for i in range(n)]
    random.Random(seed).shuffle(labels)
    return from_covers(labels, _zigzag_covers("z", n))


def _calls_into_finspace(call) -> int:
    """How many Python frames (generator resumptions too) ``call()`` enters
    in the finspace package."""
    root = os.path.dirname(finspace.__file__)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code.co_filename.startswith(root)

    outer = sys.getprofile()
    sys.setprofile(count)
    try:
        call()
    finally:
        sys.setprofile(outer)
    return calls


def test_enumeration_never_places_an_image_that_leaves_a_point_above_no_room():
    # six minima under one top into a 7-point antichain: the seven constant
    # maps; a search that expands all 7 ** 6 partial maps of the minima
    # enters 686,342 frames here
    dom = from_covers([f"m{i}" for i in range(6)] + ["top"], [(f"m{i}", "top") for i in range(6)])
    cod = from_covers([f"c{i}" for i in range(7)], [])
    got = []
    calls = _calls_into_finspace(lambda: got.extend(continuous_map_rows(dom, cod)))
    assert got == [(j,) * 7 for j in range(7)]
    assert calls < 1000


def test_fence_search_into_a_codomain_past_256_points():
    # image indices past 255 take two base-256 digits in the column build
    pt = from_covers(["x"], [])
    zigzag = _zigzag(300, 4)
    f = ContinuousMap.from_labels(pt, zigzag, {"x": "z0"})
    for end, budget in (("z10", 16), ("z299", 16), ("z299", 300)):
        g = ContinuousMap.from_labels(pt, zigzag, {"x": end})
        res = fence_homotopic(f, g, budget)
        assert res == fence_oracle(f, g, budget)
    assert [m("x") for m in res.fence] == [f"z{i}" for i in range(300)]
    # two zigzags side by side: no fence, and the answer is conclusive
    labels = [f"z{i}" for i in range(150)] + [f"w{i}" for i in range(150)]
    random.Random(5).shuffle(labels)
    split = from_covers(labels, _zigzag_covers("z", 150) + _zigzag_covers("w", 150))
    f = ContinuousMap.from_labels(pt, split, {"x": "z7"})
    g = ContinuousMap.from_labels(pt, split, {"x": "w140"})
    res = fence_homotopic(f, g, budget=300)
    assert res == fence_oracle(f, g, budget=300) == FenceResult(None, True)


def test_fence_search_from_the_empty_domain():
    empty = from_covers([], [])
    cod = _zigzag(5, 1)
    assert continuous_map_rows(empty, cod) == [()] == continuous_maps_oracle(empty, cod)
    f = ContinuousMap(empty, cod, ())
    res = fence_homotopic(f, ContinuousMap(empty, cod, ()))
    assert res == fence_oracle(f, f) == FenceResult((f,), True)


def test_fence_search_refuses_a_table_past_its_bit_limit(monkeypatch):
    # a point into the zigzag z0 < z1 > z2 < z3 > z4: five maps, so the
    # table has 1 * 5 * 5 = 25 bits
    pt = from_covers(["x"], [])
    zigzag = _zigzag(5, 2)
    f = ContinuousMap.from_labels(pt, zigzag, {"x": "z0"})
    g = ContinuousMap.from_labels(pt, zigzag, {"x": "z4"})
    monkeypatch.setattr(maps, "TABLE_BIT_LIMIT", 25)
    assert [m("x") for m in fence_homotopic(f, g).fence] == ["z0", "z1", "z2", "z3", "z4"]
    monkeypatch.setattr(maps, "TABLE_BIT_LIMIT", 24)
    assert fence_homotopic(f, g) == FenceResult(None, False)
    # a point into an antichain of N points has N maps and N * N table bits,
    # past the limit from N = 11,586 on, although N is under EXHAUSTIVE_LIMIT
    monkeypatch.undo()
    n = 11_586
    assert n * n > maps.TABLE_BIT_LIMIT >= (n - 1) ** 2 and n <= maps.EXHAUSTIVE_LIMIT
    anti = from_covers([f"a{i}" for i in range(n)], [])
    f = ContinuousMap.constant(pt, anti, "a0")
    g = ContinuousMap.constant(pt, anti, "a1")
    assert fence_homotopic(f, g) == FenceResult(None, False)


def test_is_valid_fence_rejects_gaps():
    top = ContinuousMap.constant(VEE, SIERP, "1")
    ident_v = ContinuousMap.identity(VEE)
    assert not is_valid_fence([])
    assert not is_valid_fence([top, ident_v])  # different codomains


def test_distinguished_counterexample():
    rep = is_distinguished(COUNTEREXAMPLE)
    assert not rep
    assert rep.failing == ("0",)
    assert dict(rep.per_point)["1"] is True
    assert is_op_distinguished(COUNTEREXAMPLE).ok


def test_inclusion_of_weak_point_complement_is_distinguished():
    wallet = from_covers(
        "t1 t2 x t4 m1 m2 m3 m4 c1 c2 c3".split(),
        [
            ("m1", "t1"), ("m2", "t1"), ("m1", "t2"), ("m3", "t2"),
            ("m2", "x"), ("m4", "x"), ("m3", "t4"), ("m4", "t4"),
            ("c1", "m1"), ("c2", "m1"), ("c1", "m2"), ("c2", "m2"),
            ("c2", "m3"), ("c3", "m3"), ("c2", "m4"), ("c3", "m4"),
        ],
    )
    assert is_weak_point(wallet, "x") == "down-weak"
    sub = wallet.delete("x")
    incl = ContinuousMap.from_labels(sub, wallet, {l: l for l in sub.labels})
    assert is_distinguished(incl).ok


def test_mapping_cylinder_structure():
    cyl = mapping_cylinder(COUNTEREXAMPLE)
    assert cyl.n == 5
    assert cyl.is_leq("L:b", "R:0")
    assert not cyl.is_leq("R:0", "L:b")
    assert not cyl.is_leq("L:a", "R:0")
    # both halves embed with their own order
    left = cyl.subspace([cyl.index("L:" + l) for l in VEE.labels])
    assert left.is_leq("L:b", "L:a")


def test_membership_evidence_homeomorphism():
    ident = ContinuousMap.identity(VEE)
    ok, why = verify_membership_evidence(
        MembershipEvidence("homeomorphism", ident, (ident,))
    )
    assert ok, why
    top = ContinuousMap.constant(VEE, VEE, "a")
    ok, why = verify_membership_evidence(
        MembershipEvidence("homeomorphism", top, (top,))
    )
    assert not ok


def test_membership_evidence_distinguished_kinds():
    ok, why = verify_membership_evidence(
        MembershipEvidence("distinguished", COUNTEREXAMPLE)
    )
    assert not ok and "'0'" in why
    ok, _ = verify_membership_evidence(
        MembershipEvidence("op-distinguished", COUNTEREXAMPLE)
    )
    assert ok


def test_membership_evidence_expansion_inclusion():
    s = from_covers(["a", "b"], [("a", "b")])
    sub = s.delete("a")
    incl = ContinuousMap.from_labels(sub, s, {"b": "b"})
    ok, why = verify_membership_evidence(
        MembershipEvidence("elementary-expansion-inclusion", incl, ("a",))
    )
    assert ok, why
    ok, _ = verify_membership_evidence(
        MembershipEvidence("elementary-expansion-inclusion", incl, ("zz",))
    )
    assert not ok


def test_membership_evidence_homotopy_equivalence():
    s = from_covers(["a", "b"], [("a", "b")])
    pt = from_covers(["z"], [])
    f = ContinuousMap.constant(s, pt, "z")
    g = ContinuousMap.from_labels(pt, s, {"z": "b"})
    gf = g.compose(f)
    fence_dom = (gf, ContinuousMap.identity(s))
    fence_cod = (ContinuousMap.identity(pt),)
    ok, why = verify_membership_evidence(
        MembershipEvidence("homotopy-equivalence", f, (g, fence_dom, fence_cod))
    )
    assert ok, why


def test_membership_evidence_rejects_fences_over_other_spaces():
    # f: {a, b} -> point and g = (z -> b) are no homotopy equivalence, yet a
    # fence between other maps with the same image tuples replays
    disc = from_covers(["a", "b"], [])
    pt = from_covers(["z"], [])
    f = ContinuousMap.constant(disc, pt, "z")
    g = ContinuousMap.from_labels(pt, disc, {"z": "b"})
    res = fence_homotopic(g.compose(f), ContinuousMap.identity(disc))
    assert res.fence is None and res.conclusive
    other_dom = from_covers(["p", "q"], [])
    other_cod = from_covers(["u", "v"], [("v", "u")])
    fence_dom = tuple(ContinuousMap(other_dom, other_cod, im) for im in ((1, 1), (0, 1)))
    assert is_valid_fence(fence_dom)
    fence_cod = (ContinuousMap.identity(pt),)
    ok, why = verify_membership_evidence(
        MembershipEvidence("homotopy-equivalence", f, (g, fence_dom, fence_cod))
    )
    assert not ok and why == "fence endpoints do not match"


def test_maps_over_index_permuted_spaces_compare_by_label():
    # a and a2 are one labelled space indexed in two orders, so the image
    # tuple (0, 1) is a->lo, b->hi over a but a->hi, b->lo over a2
    a = from_covers(["a", "b"], [])
    a2 = from_covers(["b", "a"], [])
    c = from_covers(["lo", "hi"], [("lo", "hi")])
    f, g = ContinuousMap(a, c, (0, 1)), ContinuousMap(a2, c, (0, 1))
    assert f != g and f == ContinuousMap(a2, c, (1, 0))
    assert not pointwise_leq(f, g) and not pointwise_leq(g, f)
    assert pointwise_leq(f, ContinuousMap(a2, c, (1, 1)))
    assert not is_valid_fence((f, g))
    res = fence_homotopic(f, g)
    assert res.conclusive and len(res.fence) == 3 and is_valid_fence(res.fence)
    assert res.fence[0] == f and res.fence[-1] == g
    assert fence_homotopic(f, ContinuousMap(a2, c, (1, 0))).fence == (f,)
    # the identity of a, written over a2, inverts the identity; the swap does not
    for images, ok in (((0, 1), True), ((1, 0), False)):
        inverse = ContinuousMap(a2, a2, images)
        ev = MembershipEvidence("homeomorphism", ContinuousMap.identity(a), (inverse,))
        assert verify_membership_evidence(ev)[0] is ok
    swap = ContinuousMap.from_labels(a, a, {"a": "b", "b": "a"})
    ev = MembershipEvidence("composite", ContinuousMap.identity(a),
                            (MembershipEvidence("homeomorphism", swap, (swap,)),))
    assert verify_membership_evidence(ev) == (False, "factors do not compose to the subject")


def test_membership_evidence_composite():
    s = from_covers(["a", "b"], [("a", "b")])
    sub = s.delete("a")
    incl = ContinuousMap.from_labels(sub, s, {"b": "b"})
    step = MembershipEvidence("elementary-expansion-inclusion", incl, ("a",))
    ident_ev = MembershipEvidence("homeomorphism", ContinuousMap.identity(s),
                                  (ContinuousMap.identity(s),))
    comp = MembershipEvidence("composite", incl, (step,))
    ok, why = verify_membership_evidence(comp)
    assert ok, why
    wrong = MembershipEvidence("composite", incl, (ident_ev,))
    ok, _ = verify_membership_evidence(wrong)
    assert not ok
    with pytest.raises(ValueError):
        MembershipEvidence("made-up-kind", incl)


CHAIN2 = from_covers(["a", "b"], [("a", "b")])
CHAIN3 = from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])
POINT = from_covers(["z"], [])


def _evidence_cases():
    to_point = ContinuousMap.constant(CHAIN2, POINT, "z")
    to_b = ContinuousMap.from_labels(POINT, CHAIN2, {"z": "b"})
    failing = MembershipEvidence("homeomorphism", to_point, ())
    ident_chain, ident_point = (
        MembershipEvidence("homeomorphism", ContinuousMap.identity(x), (ContinuousMap.identity(x),))
        for x in (CHAIN2, POINT)
    )
    return [
        ("homeomorphism", to_point, (), "expected the inverse map as the single witness"),
        ("homeomorphism", COUNTEREXAMPLE, (ContinuousMap.identity(VEE),),
         "witness does not invert the right spaces"),
        # to_point after to_b is the identity of the point, to_b after it is not
        ("homeomorphism", to_b, (to_point,), "witness is not a right inverse"),
        ("elementary-expansion-inclusion", to_point, (),
         "expected the weak point label as the single witness"),
        ("elementary-expansion-inclusion", to_point, (0,),
         "expected the weak point label as the single witness"),
        ("elementary-expansion-inclusion", ContinuousMap.identity(CHAIN2), ("a",),
         "domain is not the codomain minus the weak point"),
        ("elementary-expansion-inclusion",
         ContinuousMap.from_labels(CHAIN3.delete("a"), CHAIN3, {"b": "c", "c": "c"}), ("a",),
         "map is not the inclusion"),
        ("homotopy-equivalence", to_point, (to_b, ()),
         "expected (inverse, fence to id_dom, fence to id_cod)"),
        ("homotopy-equivalence", to_point, (ContinuousMap.identity(CHAIN2), (), ()),
         "homotopy inverse has the wrong spaces"),
        ("homotopy-equivalence", to_point, (to_b, (), (ContinuousMap.identity(POINT),)),
         "fence does not replay"),
        ("composite", to_point, (), "composite needs at least one factor"),
        ("composite", to_point, (failing,),
         "factor fails: expected the inverse map as the single witness"),
        ("composite", ContinuousMap.identity(CHAIN2), (ident_chain, ident_point),
         "factors do not chain"),
    ]


@pytest.mark.parametrize("kind, subject, witnesses, reason", _evidence_cases())
def test_membership_evidence_failure_reasons(kind, subject, witnesses, reason):
    ev = MembershipEvidence(kind, subject, witnesses)
    assert verify_membership_evidence(ev) == (False, reason)


def test_membership_evidence_composite_of_two_factors():
    # the inclusion of {b} into a < b, which adds the beat point a, then the
    # homeomorphism a -> p, b -> q onto a relabelled copy
    copy = from_covers(["p", "q"], [("p", "q")])
    incl = ContinuousMap.from_labels(CHAIN2.delete("a"), CHAIN2, {"b": "b"})
    rename = ContinuousMap.from_labels(CHAIN2, copy, {"a": "p", "b": "q"})
    back = ContinuousMap.from_labels(copy, CHAIN2, {"p": "a", "q": "b"})
    factors = (
        MembershipEvidence("elementary-expansion-inclusion", incl, ("a",)),
        MembershipEvidence("homeomorphism", rename, (back,)),
    )
    subject = ContinuousMap.from_labels(incl.dom, copy, {"b": "q"})
    assert verify_membership_evidence(MembershipEvidence("composite", subject, factors)) == (True, "")
    other = ContinuousMap.from_labels(incl.dom, copy, {"b": "p"})
    assert verify_membership_evidence(MembershipEvidence("composite", other, factors)) == (
        False, "factors do not compose to the subject")
