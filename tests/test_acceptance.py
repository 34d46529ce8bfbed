"""Acceptance suite: one test per criterion, one pass/fail line under -v.

Each test prints a short pass line so a plain run also shows per-criterion
status. Random corpora are seeded; nothing here depends on wall-clock state.
"""

import random
import time
from itertools import combinations

import numpy as np

from finspace.complexes import cone, verify_simplicial_certificate
from finspace.corpus import entries, load
from finspace.functors import (
    bridge_space,
    cylinder_certificates,
    face_poset,
    order_complex,
    space_subdivision,
    translate_simplicial_collapse,
    translate_space_collapse,
)
from finspace.homology import homology, reduced_homology
from finspace.maps import is_distinguished
from finspace.moves import (
    beat_points,
    collapse_search,
    core,
    is_contractible,
    is_weak_point,
    verify_space_certificate,
    weak_points,
)
from finspace.spaces import FiniteSpace, from_covers, is_isomorphic

from util import barycentric_oracle, random_complex, random_monotone_map, random_poset

# -- helpers -------------------------------------------------------------


def _labeled_posets(n):
    """Every poset on labels p0..p{n-1}, each exactly once.

    A poset on n points is a poset on the first n-1 plus a new point whose
    strict down-set D is down-closed, strict up-set U is up-closed, the two
    are disjoint, and every d in D already sits below every u in U.
    """
    if n == 0:
        return [np.zeros((0, 0), dtype=bool)]
    out = []
    for rel in _labeled_posets(n - 1):
        k = n - 1
        idx = range(k)
        down_closed = [
            frozenset(s)
            for r in range(k + 1)
            for s in combinations(idx, r)
            if all(rel[j, i] <= (j in s) for i in s for j in idx)
        ]
        up_closed = [
            frozenset(s)
            for r in range(k + 1)
            for s in combinations(idx, r)
            if all(rel[i, j] <= (j in s) for i in s for j in idx)
        ]
        for d in down_closed:
            for u in up_closed:
                if d & u:
                    continue
                if not all(rel[a, b] for a in d for b in u):
                    continue
                big = np.zeros((n, n), dtype=bool)
                big[:k, :k] = rel
                big[k, k] = True
                for a in d:
                    big[a, k] = True
                for b in u:
                    big[k, b] = True
                out.append(big)
    return out


def _dedup_up_to_iso(spaces):
    buckets = {}
    for s in spaces:
        reps = buckets.setdefault(s.fingerprint(), [])
        if not any(is_isomorphic(s, r) for r in reps):
            reps.append(s)
    return [r for reps in buckets.values() for r in reps]


def _essential(report):
    """Betti/torsion with trailing trivial dimensions dropped."""
    pairs = list(zip(report.betti, report.torsion))
    while pairs and pairs[-1][0] == 0 and not pairs[-1][1]:
        pairs.pop()
    return tuple(pairs)


def _homology_constant_along(cert):
    """Replay a space certificate, checking H~(K(X)) at every removal."""
    current = cert.start
    for move in cert.moves:
        before = None
        if move.direction == "remove" and current.n > 1:
            before = _essential(reduced_homology(order_complex(current)))
        res = verify_space_certificate(
            type(cert)(current, (move,))
        )
        assert res.ok, res.reason
        nxt = res.final
        if before is not None and nxt.n >= 1:
            after = _essential(reduced_homology(order_complex(nxt)))
            assert after == before
        current = nxt
    return current


WALLET_COVERS = [
    ("m1", "t1"), ("m2", "t1"), ("m1", "t2"), ("m3", "t2"),
    ("m2", "x"), ("m4", "x"), ("m3", "t4"), ("m4", "t4"),
    ("c1", "m1"), ("c2", "m1"), ("c1", "m2"), ("c2", "m2"),
    ("c2", "m3"), ("c3", "m3"), ("c2", "m4"), ("c3", "m4"),
]


# -- the criteria ----------------------------------------------------------


def test_criterion_01_wallet_suite():
    w = load("wallet")
    assert beat_points(w) == []
    assert is_weak_point(w, "x") == "down-weak"
    punctured_core, _ = core(w.delete("x"))
    assert punctured_core.n == 1
    found = collapse_search(w)
    assert found.conclusive and found.certificate is not None
    res = verify_space_certificate(found.certificate)
    assert res.ok and res.final.n == 1
    print("criterion 1 pass: wallet minimal, x down-weak, collapse certified")


def test_criterion_02_subdivision_identities():
    rng = random.Random(1002)
    for _ in range(50):
        x = random_poset(rng, rng.randint(0, 7))
        assert space_subdivision(x) == face_poset(order_complex(x))
    for _ in range(50):
        k = random_complex(rng)
        assert order_complex(face_poset(k)) == barycentric_oracle(k)
    print("criterion 2 pass: K(X(K)) = K' and X(K(X)) = X' on 100 randoms")


def test_criterion_03_weak_point_translation():
    rng = random.Random(1003)
    done = 0
    while done < 30:
        x = random_poset(rng, rng.randint(2, 6))
        wps = weak_points(x)
        if not wps:
            continue
        label, _ = wps[rng.randrange(len(wps))]
        cert = translate_space_collapse(x, label)
        assert cert.start == order_complex(x.delete(label))
        k = cert.start
        chi = k.euler_characteristic()
        for mv in cert.moves:
            k, _ = k.elementary_expand(mv.face, mv.apex)
            assert k.euler_characteristic() == chi
        assert k == order_complex(x)
        res = verify_simplicial_certificate(cert)
        assert res.ok
        done += 1
    print("criterion 3 pass: 30 weak-point removals translated and replayed")


def test_criterion_04_free_pair_translation():
    rng = random.Random(1004)
    done = 0
    while done < 30:
        k = random_complex(rng)
        pairs = k.free_pairs()
        if not pairs:
            continue
        for face, apex in pairs:
            cert = translate_simplicial_collapse(k, face, apex)
            assert len(cert.moves) == 2
            res = verify_space_certificate(cert)
            assert res.ok
            smaller, _ = k.elementary_collapse(face, apex)
            assert res.final == face_poset(smaller)
        done += 1
    print("criterion 4 pass: every free pair in 30 complexes gives 2 moves onto X(L)")


def test_criterion_05_bridge_exhaustive():
    t0 = time.monotonic()
    expected_labeled = [1, 1, 3, 19, 219, 4231]
    expected_classes = [1, 1, 2, 5, 16, 63]
    reps = []
    for n in range(6):
        mats = _labeled_posets(n)
        assert len(mats) == expected_labeled[n]
        spaces = [
            FiniteSpace(tuple(f"p{i}" for i in range(n)), m) for m in mats
        ]
        classes = _dedup_up_to_iso(spaces)
        assert len(classes) == expected_classes[n]
        reps.extend(classes)
    assert len(reps) == 88
    for x in reps:
        bundle = bridge_space(x)
        up = verify_space_certificate(bundle.expansion)
        assert up.ok and up.final == bundle.cylinder
        down = verify_space_certificate(bundle.collapse)
        assert down.ok
        sub = space_subdivision(x)
        prefixed = FiniteSpace.from_masks(tuple("L:" + l for l in sub.labels), sub.masks()[0])
        assert is_isomorphic(down.final, prefixed) is not None
    took = time.monotonic() - t0
    assert took <= 60.0, f"enumeration took {took:.1f}s"
    print(f"criterion 5 pass: 88 classes bridged and replayed in {took:.1f}s")


def test_criterion_06_cylinder_dichotomy():
    rng = random.Random(1006)
    distinguished = refused = 0
    for _ in range(50):
        dom = random_poset(rng, rng.randint(1, 4))
        cod = random_poset(rng, rng.randint(1, 4))
        f = random_monotone_map(rng, dom, cod)
        bundle = cylinder_certificates(f)
        up = verify_space_certificate(bundle.expansion)
        assert up.ok and up.final == bundle.cylinder
        if is_distinguished(f):
            distinguished += 1
            assert bundle.collapse is not None and bundle.refused_at is None
            assert verify_space_certificate(bundle.collapse).ok
        else:
            refused += 1
            assert bundle.collapse is None and bundle.refused_at is not None
    assert distinguished and refused
    counterexample = load("sierpinski-map")
    assert cylinder_certificates(counterexample).refused_at == "0"
    print(
        f"criterion 6 pass: {distinguished} collapses, {refused} refusals,"
        " counterexample refused at y = 0"
    )


def test_criterion_07_core_uniqueness():
    rng = random.Random(1007)
    for _ in range(100):
        x = random_poset(rng, rng.randint(1, 10))
        first, _ = core(x)
        shuffled = list(x.labels)
        rng.shuffle(shuffled)
        second, _ = core(from_covers(shuffled, x.hasse_edges()))  # stripped in that order
        assert is_isomorphic(first, second) is not None
        again, _ = core(first)
        assert again == first
    print("criterion 7 pass: cores agree across removal orders, idempotent")


def test_criterion_08_homology_oracle_consistency():
    # species 1: the wallet collapse certificate
    wallet = load("wallet")
    cert = collapse_search(wallet).certificate
    _homology_constant_along(cert)

    # species 2: weak-point removals backing the space translations
    rng = random.Random(1008)
    done = 0
    while done < 10:
        x = random_poset(rng, rng.randint(2, 6))
        wps = weak_points(x)
        if not wps or x.n < 2:
            continue
        label, _ = wps[0]
        before = _essential(reduced_homology(order_complex(x)))
        smaller = x.delete(label)
        if smaller.n:
            after = _essential(reduced_homology(order_complex(smaller)))
            assert after == before
        done += 1

    # species 3: cylinder collapses of distinguished maps
    done = 0
    while done < 5:
        dom = random_poset(rng, rng.randint(1, 3))
        cod = random_poset(rng, rng.randint(1, 3))
        f = random_monotone_map(rng, dom, cod)
        if not is_distinguished(f):
            continue
        bundle = cylinder_certificates(f)
        _homology_constant_along(bundle.collapse)
        done += 1

    # species 4: bridges of every class on <= 3 points, plus the diamond
    reps = []
    for n in range(4):
        spaces = [
            FiniteSpace(tuple(f"p{i}" for i in range(n)), m)
            for m in _labeled_posets(n)
        ]
        reps.extend(_dedup_up_to_iso(spaces))
    from finspace.spaces import from_covers

    reps.append(from_covers(
        ["a", "b", "c", "d"],
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
    ))
    for x in reps:
        bundle = bridge_space(x)
        _homology_constant_along(bundle.collapse)

    # Euler-Poincare identity over the corpus
    checked = 0
    for entry in entries():
        obj = load(entry.name)
        if entry.kind == "complex":
            k = obj
        elif entry.kind == "space" and obj.n:
            k = order_complex(obj)
        else:
            continue
        hom = homology(k)
        chi = sum((-1) ** d * b for d, b in enumerate(hom.betti))
        assert chi == k.euler_characteristic()
        checked += 1
    assert checked >= 7
    print(
        "criterion 8 pass: homology invariant along representative"
        f" certificates, Euler-Poincare on {checked} corpus complexes"
    )


def test_criterion_09_cone_lemma():
    rng = random.Random(1009)
    for _ in range(30):
        base = random_complex(rng)
        coned = cone("zz", base)
        assert is_contractible(face_poset(coned))
    print("criterion 9 pass: X(cone) contractible for 30 random complexes")


def test_criterion_10_dunce_hat():
    dunce = load("dunce")
    assert dunce.euler_characteristic() == 1
    assert reduced_homology(dunce).trivial
    assert dunce.free_pairs() == []
    model = face_poset(dunce)
    assert weak_points(model) == []
    print(
        "criterion 10 pass: dunce hat has chi 1, trivial homology,"
        " no free faces, and its face poset has no weak points"
    )
