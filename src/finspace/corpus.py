"""Built-in examples with self-checking manifests.

Every entry re-validates its expected properties when loaded, so a silent
transcription slip in a cover list or facet list fails loudly rather than
skewing downstream results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .complexes import SimplicialComplex, from_facets
from .homology import homology
from .maps import ContinuousMap, is_distinguished, is_op_distinguished
from .moves import beat_points, is_contractible, is_weak_point, weak_points
from .spaces import FiniteSpace, from_covers

__all__ = ["CorpusEntry", "CorpusError", "entries", "names", "load"]


class CorpusError(Exception):
    """A built-in example failed its own manifest."""


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    kind: str  # 'space' | 'complex' | 'map'
    summary: str
    build: Callable[[], object]
    guards: Callable[[object], list[str]]


def _wallet() -> FiniteSpace:
    return from_covers(
        ["t1", "t2", "x", "t4", "m1", "m2", "m3", "m4", "c1", "c2", "c3"],
        [
            ("m1", "t1"), ("m2", "t1"),
            ("m1", "t2"), ("m3", "t2"),
            ("m2", "x"), ("m4", "x"),
            ("m3", "t4"), ("m4", "t4"),
            ("c1", "m1"), ("c2", "m1"),
            ("c1", "m2"), ("c2", "m2"),
            ("c2", "m3"), ("c3", "m3"),
            ("c2", "m4"), ("c3", "m4"),
        ],
    )


def _wallet_guards(w: FiniteSpace) -> list[str]:
    bad = []
    if w.n != 11:
        bad.append("wallet must have 11 points")
    if beat_points(w):
        bad.append("wallet must be minimal (no beat points)")
    if is_weak_point(w, "x") not in ("down-weak", "both"):
        bad.append("x must be a downward weak point")
    punctured = w.punctured_open("x")
    if punctured.n != 5 or not is_contractible(punctured):
        bad.append("punctured minimal open set of x must be 5 points and contractible")
    if not is_contractible(w.delete("x")):
        bad.append("wallet minus x must be contractible")
    return bad


def _wallet_open() -> FiniteSpace:
    w = _wallet()
    return w.punctured_open("x")


def _wallet_minus_x() -> FiniteSpace:
    return _wallet().delete("x")


def _contractible_guard(expect_n: int) -> Callable[[FiniteSpace], list[str]]:
    def check(s: FiniteSpace) -> list[str]:
        bad = []
        if s.n != expect_n:
            bad.append(f"expected {expect_n} points, found {s.n}")
        if not is_contractible(s):
            bad.append("space must be contractible")
        return bad

    return check


def _sd3() -> FiniteSpace:
    return from_covers(
        ["a1", "a2", "b1", "b2", "b3"],
        [(b, a) for a in ("a1", "a2") for b in ("b1", "b2", "b3")],
    )


def _sd3_guards(s: FiniteSpace) -> list[str]:
    from .functors import order_complex

    bad = []
    if beat_points(s):
        bad.append("sd3 must have no beat points")
    if weak_points(s):
        bad.append("sd3 must have no weak points")
    if order_complex(s).euler_characteristic() != -1:
        bad.append("order complex of sd3 must have Euler characteristic -1")
    return bad


def _four_point() -> FiniteSpace:
    return from_covers(["a", "b", "c", "d"], [("c", "a"), ("c", "b"), ("d", "c")])


def _four_point_guards(s: FiniteSpace) -> list[str]:
    from .functors import order_complex

    bad = []
    if not is_contractible(s):
        bad.append("four-point space must be contractible")
    if order_complex(s).f_vector() != (4, 5, 2):
        bad.append("order complex must have f-vector (4, 5, 2)")
    return bad


def _sierpinski() -> FiniteSpace:
    return from_covers(["0", "1"], [("0", "1")])


def _vee() -> FiniteSpace:
    return from_covers(["b", "c", "a"], [("b", "a"), ("c", "a")])


def _sierpinski_map() -> ContinuousMap:
    return ContinuousMap.from_labels(
        _vee(), _sierpinski(), {"a": "1", "b": "0", "c": "0"}
    )


def _sierpinski_map_guards(f: ContinuousMap) -> list[str]:
    bad = []
    rep = is_distinguished(f)
    if rep.ok or rep.failing != ("0",):
        bad.append("map must fail to be distinguished exactly at 0")
    if not is_op_distinguished(f):
        bad.append("map must be distinguished in the dual sense")
    return bad


# Triangulated disk with its boundary folded onto a single three-edge path;
# the fold leaves every edge in at least two triangles, so nothing is free.
_DUNCE_FACETS = [
    ("1", "2", "4"), ("1", "2", "5"), ("1", "2", "8"),
    ("1", "3", "6"), ("1", "3", "7"), ("1", "3", "8"),
    ("1", "4", "5"), ("1", "6", "7"),
    ("2", "3", "4"), ("2", "3", "6"), ("2", "3", "7"),
    ("2", "5", "7"), ("2", "6", "8"),
    ("3", "4", "8"),
    ("4", "5", "7"), ("4", "7", "8"),
    ("6", "7", "8"),
]


def _dunce() -> SimplicialComplex:
    return from_facets([list(f) for f in _DUNCE_FACETS])


def _dunce_guards(k: SimplicialComplex) -> list[str]:
    bad = []
    if k.f_vector() != (8, 24, 17):
        bad.append("dunce must have f-vector (8, 24, 17)")
    if k.euler_characteristic() != 1:
        bad.append("dunce must have Euler characteristic 1")
    if k.free_pairs():
        bad.append("dunce must have no free face")
    h = homology(k, reduced=True)
    if h.betti != (0, 0, 0) or any(h.torsion):
        bad.append("dunce must have trivial reduced homology")
    return bad


_ENTRIES = (
    CorpusEntry(
        "wallet", "space",
        "11-point minimal space with a weak point x but no beat points",
        _wallet, _wallet_guards,
    ),
    CorpusEntry(
        "wallet-open", "space",
        "punctured minimal open set of x inside the wallet (5 points, contractible)",
        _wallet_open, _contractible_guard(5),
    ),
    CorpusEntry(
        "wallet-minus-x", "space",
        "the wallet with x removed (10 points, contractible)",
        _wallet_minus_x, _contractible_guard(10),
    ),
    CorpusEntry(
        "sd3", "space",
        "two tops over three bottoms; no weak points, order complex a K_{2,3}",
        _sd3, _sd3_guards,
    ),
    CorpusEntry(
        "four-point", "space",
        "contractible chain-with-split d < c < a, b",
        _four_point, _four_point_guards,
    ),
    CorpusEntry(
        "sierpinski", "space",
        "two points 0 < 1",
        _sierpinski, _contractible_guard(2),
    ),
    CorpusEntry(
        "vee", "space",
        "two bottoms b, c under one top a",
        _vee, _contractible_guard(3),
    ),
    CorpusEntry(
        "sierpinski-map", "map",
        "vee onto 0 < 1; dually distinguished but not distinguished (fails at 0)",
        _sierpinski_map, _sierpinski_map_guards,
    ),
    CorpusEntry(
        "dunce", "complex",
        "8-vertex dunce hat: contractible, no free face, so not collapsible",
        _dunce, _dunce_guards,
    ),
)


def entries() -> tuple[CorpusEntry, ...]:
    return _ENTRIES


def names() -> tuple[str, ...]:
    return tuple(e.name for e in _ENTRIES)


@lru_cache(maxsize=None)
def load(name: str):
    """Build a named example and re-check its manifest."""
    for entry in _ENTRIES:
        if entry.name == name:
            obj = entry.build()
            bad = entry.guards(obj)
            if bad:
                raise CorpusError(f"{name}: " + "; ".join(bad))
            return obj
    raise KeyError(f"no example named {name!r}; have {', '.join(names())}")
