"""Golden outcomes of the two collapse searches.

Each row pins the node count, the conclusive flag, the number of moves and
a digest (first 16 hex digits of the SHA-256) of the formatted certificate.
The values were recorded before the two searches were merged into one
engine, so any change in move order, pruning or budget accounting shows up
here as a changed row.
"""

import hashlib
import random

import pytest

from finspace import corpus
from finspace.complexes import collapse_sequence_search, from_facets
from finspace.fileio import format_simplicial_certificate, format_space_certificate
from finspace.moves import collapse_search

from util import random_complex, random_poset

FULL_TRIANGLE = from_facets([["a", "b", "c"]])
HOLLOW_TRIANGLE = from_facets([["a", "b"], ["b", "c"], ["a", "c"]])


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _seeded_poset(seed: int):
    rng = random.Random(seed)
    return random_poset(rng, rng.randint(4, 12), 0.3)


def _seeded_complex(seed: int):
    return random_complex(random.Random(seed), 6, 5, 20)


def _check(res, fmt, nodes, conclusive, moves, digest):
    assert res.nodes == nodes
    assert res.conclusive is conclusive
    if moves is None:
        assert res.certificate is None
    else:
        assert len(res.certificate.moves) == moves
        assert _digest(fmt(res.certificate)) == digest


SPACE_CASES = [
    ("wallet", 11, True, 10, "8e6b70ce36da0be5"),
    ("sd3", 1, True, None, None),
    ("wallet-minus-x", 10, True, 9, "6764aa083f3e782f"),
]

POSET_CASES = [
    (1, 9, True, None, None),
    (2, 4, True, 3, "bd8bc3d1172aef33"),
    (3, 15, True, None, None),
    (4, 7, True, 6, "500fe82a2d012784"),
    (5, 8, True, 7, "27c8887ecdb109c1"),
    (6, 5, True, None, None),
    (7, 37, True, None, None),
    (8, 7, True, None, None),
    (9, 40, True, None, None),
    (10, 2, True, None, None),
    (11, 28, True, None, None),
    (12, 65, True, None, None),
]

COMPLEX_CASES = [
    (1, 5, True, 4, "ab0bf1e065665855"),
    (2, 1, True, 0, "0e3254e1883bdd5f"),
    (3, 7, True, 6, "f7012241ada05bbb"),
    (4, 3, True, 2, "2d7e8f5b983415a1"),
    (5, 7, True, 6, "193b6609e7cfe085"),
    (6, 7, True, None, None),
    (7, 4, True, None, None),
    (8, 2, True, None, None),
    (9, 10, True, None, None),
    (10, 3, True, None, None),
    (11, 7, True, None, None),
    (12, 7, True, None, None),
]


@pytest.mark.parametrize("name, nodes, conclusive, moves, digest", SPACE_CASES)
def test_space_search_on_examples(name, nodes, conclusive, moves, digest):
    res = collapse_search(corpus.load(name))
    _check(res, format_space_certificate, nodes, conclusive, moves, digest)


@pytest.mark.parametrize("seed, nodes, conclusive, moves, digest", POSET_CASES)
def test_space_search_on_random_posets(seed, nodes, conclusive, moves, digest):
    res = collapse_search(_seeded_poset(seed))
    _check(res, format_space_certificate, nodes, conclusive, moves, digest)


def test_space_search_budget_and_targets():
    res = collapse_search(_seeded_poset(12), budget=20)
    _check(res, format_space_certificate, 21, False, None, None)
    wallet = corpus.load("wallet")
    res = collapse_search(wallet, target=corpus.load("wallet-minus-x"))
    _check(res, format_space_certificate, 2, True, 1, "9c3d4fb0f369b9f0")
    res = collapse_search(wallet, target=corpus.load("vee"))
    _check(res, format_space_certificate, 9, True, 8, "ddf8b5b66cc7cf9d")
    sd3 = corpus.load("sd3")
    res = collapse_search(sd3, target=sd3)
    _check(res, format_space_certificate, 1, True, 0, "aa32ba2b0d926e4d")


def test_complex_search_on_named_complexes():
    fmt = format_simplicial_certificate
    _check(collapse_sequence_search(FULL_TRIANGLE), fmt, 4, True, 3, "bfffa01f16228deb")
    _check(collapse_sequence_search(HOLLOW_TRIANGLE), fmt, 1, True, None, None)
    _check(collapse_sequence_search(corpus.load("dunce")), fmt, 1, True, None, None)


@pytest.mark.parametrize("seed, nodes, conclusive, moves, digest", COMPLEX_CASES)
def test_complex_search_on_random_complexes(seed, nodes, conclusive, moves, digest):
    res = collapse_sequence_search(_seeded_complex(seed))
    _check(res, format_simplicial_certificate, nodes, conclusive, moves, digest)


def test_complex_search_budget_and_targets():
    fmt = format_simplicial_certificate
    res = collapse_sequence_search(FULL_TRIANGLE, budget=1)
    _check(res, fmt, 2, False, None, None)
    edge = from_facets([["x", "y"]])
    res = collapse_sequence_search(FULL_TRIANGLE, target=edge)
    _check(res, fmt, 3, True, 2, "de3fa1d4e4a97d20")
    path = from_facets([["x", "y"], ["y", "z"]])
    res = collapse_sequence_search(HOLLOW_TRIANGLE, target=path)
    _check(res, fmt, 1, True, None, None)
