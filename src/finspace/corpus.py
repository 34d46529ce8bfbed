"""Built-in examples: the standard cases of Barmak and Minian, as plain data.

Each entry is a record, on the ``_Record`` base of ``spaces``, of a name, a
kind, a one-line summary and a builder.  The properties a summary states
(the wallet's weak point that is not a beat point, the dunce hat's missing
free face, ...) are asserted by the test suite against the objects ``load``
returns, not re-checked at run time.
"""

from __future__ import annotations

from functools import lru_cache

from .complexes import SimplicialComplex, from_facets
from .maps import ContinuousMap
from .spaces import FiniteSpace, _Record, from_covers

__all__ = ["CorpusEntry", "entries", "names", "load"]


class CorpusEntry(_Record):
    """A built-in example: its name, its kind (``'space'``, ``'complex'`` or
    ``'map'``), a one-line summary and the function of no arguments that
    builds it."""

    __slots__ = __match_args__ = ("name", "kind", "summary", "build")


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


def _wallet_open() -> FiniteSpace:
    w = _wallet()
    return w.punctured_open("x")


def _wallet_minus_x() -> FiniteSpace:
    return _wallet().delete("x")


def _sd3() -> FiniteSpace:
    return from_covers(
        ["a1", "a2", "b1", "b2", "b3"],
        [(b, a) for a in ("a1", "a2") for b in ("b1", "b2", "b3")],
    )


def _four_point() -> FiniteSpace:
    return from_covers(["a", "b", "c", "d"], [("c", "a"), ("c", "b"), ("d", "c")])


def _sierpinski() -> FiniteSpace:
    return from_covers(["0", "1"], [("0", "1")])


def _vee() -> FiniteSpace:
    return from_covers(["b", "c", "a"], [("b", "a"), ("c", "a")])


def _sierpinski_map() -> ContinuousMap:
    return ContinuousMap.from_labels(
        _vee(), _sierpinski(), {"a": "1", "b": "0", "c": "0"}
    )


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


_ENTRIES = (
    CorpusEntry(
        "wallet", "space",
        "11-point minimal space with a weak point x but no beat points",
        _wallet,
    ),
    CorpusEntry(
        "wallet-open", "space",
        "punctured minimal open set of x inside the wallet (5 points, contractible)",
        _wallet_open,
    ),
    CorpusEntry(
        "wallet-minus-x", "space",
        "the wallet with x removed (10 points, contractible)",
        _wallet_minus_x,
    ),
    CorpusEntry(
        "sd3", "space",
        "two tops over three bottoms; no weak points, order complex a K_{2,3}",
        _sd3,
    ),
    CorpusEntry(
        "four-point", "space",
        "contractible chain-with-split d < c < a, b",
        _four_point,
    ),
    CorpusEntry(
        "sierpinski", "space",
        "two points 0 < 1",
        _sierpinski,
    ),
    CorpusEntry(
        "vee", "space",
        "two bottoms b, c under one top a",
        _vee,
    ),
    CorpusEntry(
        "sierpinski-map", "map",
        "vee onto 0 < 1; dually distinguished but not distinguished (fails at 0)",
        _sierpinski_map,
    ),
    CorpusEntry(
        "dunce", "complex",
        "8-vertex dunce hat: contractible, no free face, so not collapsible",
        _dunce,
    ),
)


def entries() -> tuple[CorpusEntry, ...]:
    return _ENTRIES


def names() -> tuple[str, ...]:
    return tuple(e.name for e in _ENTRIES)


@lru_cache(maxsize=None)
def load(name: str):
    """Build a named example, once per process."""
    for entry in _ENTRIES:
        if entry.name == name:
            return entry.build()
    raise KeyError(f"no example named {name!r}; have {', '.join(names())}")
