"""Golden outputs of the bridge, the mapping cylinder, the weak-point
translator and the comparison map h.

Each row pins the number of moves and a digest (first 16 hex digits of the
SHA-256) of the formatted certificate; for h it pins the digest of the
formatted subdivision followed by the image tuple.  The values were recorded
before the bridge was rebuilt on the mapping cylinder code, so any change in
point names, move order or the refusal point shows up here as a changed row.
"""

import hashlib
import random

import pytest

from finspace import corpus
from finspace.fileio import (
    format_simplicial_certificate,
    format_space,
    format_space_certificate,
)
from finspace.functors import (
    bridge_space,
    cylinder_certificates,
    h_map,
    translate_space_collapse,
)
from finspace.moves import is_weak_point

from util import random_monotone_map, random_poset


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _seeded_poset(seed: int, low: int):
    rng = random.Random(seed)
    return random_poset(rng, rng.randint(low, 8), 0.3)


def _seeded_map(seed: int):
    rng = random.Random(seed)
    dom = random_poset(rng, rng.randint(2, 5), 0.5)
    cod = random_poset(rng, rng.randint(1, 4), 0.5)
    return random_monotone_map(rng, dom, cod)


def _space_cert(cert, moves, digest):
    assert len(cert.moves) == moves
    assert _digest(format_space_certificate(cert)) == digest


BRIDGE_CASES = [
    (1, 6, "5ffef6a5fd71774a", 4, "5a3fa12941f09c7a"),
    (2, 7, "65bbeee1fbd5a14c", 3, "5ea3228ba528330e"),
    (3, 5, "8852cd57d81ce494", 4, "e288fbebed4d5a76"),
    (4, 6, "9ebe8a5e074a601b", 4, "88e5b56cba82025f"),
    (5, 25, "48941bcbe58207ed", 7, "cff12049526d9021"),
    (6, 19, "b4816c2e7eb12990", 7, "cb1fd736ea9d1da0"),
    (7, 13, "d6f856de971cb37c", 5, "b66bf37e6b9a7e46"),
    (8, 7, "7c490343a1534123", 4, "0df56b272683a7b7"),
    (9, 11, "f18125d8864d8660", 6, "2bd82f63273307d9"),
    (10, 18, "e59dd2fbd22faa39", 7, "3edb4c5c331b1055"),
    ("vee", 5, "ab62b68f6f7f72ab", 3, "37c4b90f3e4dfca1"),
]

CYLINDER_CASES = [
    (1, "b59b6c687d0c3cdd", None, "p0"),
    (2, "29fe0ddeb13b2485", None, "p0"),
    (3, "bdcf9b8b94a0d09c", None, "p0"),
    (4, "7b69de53b91941ff", "a6279a7ef3151c42", None),
    (5, "d7e07b15c97f5322", None, "p2"),
    (6, "8d9d4091b6a346bb", None, "p0"),
    (7, "072753d4f5442993", None, "p0"),
    (8, "7b69de53b91941ff", "a6279a7ef3151c42", None),
    (9, "8ff7ef47950d167c", None, "p0"),
    (10, "726149e36e2b7125", "77785e7bf136450d", None),
    (11, "04bed7c1de44bd9f", "f4d7b38082a12457", None),
    (12, "141ff31f13221383", "d0b3619cf5a1acc4", None),
    ("sierpinski-map", "c608599bf7db4146", None, "0"),
]

TRANSLATE_CASES = [
    (1, "p2", "up-weak", 1, "f7af21c006a9493f"),
    (1, "p4", "down-weak", 1, "881fcc61444560f3"),
    (2, "p1", "down-weak", 1, "6cbe6997b7d99052"),
    (2, "p2", "up-weak", 1, "d92a6c51369618ec"),
    (3, "p0", "up-weak", 1, "8c40c122728c94a2"),
    (3, "p2", "down-weak", 1, "eefd518a79f33ccf"),
    (3, "p3", "up-weak", 1, "94b701c07af9002c"),
    (3, "p4", "down-weak", 1, "e07544c1f2c128ac"),
    (4, "p0", "up-weak", 1, "534e76a1804f0ef4"),
    (4, "p1", "up-weak", 2, "2bf1a509c6d02bca"),
    (4, "p2", "both", 2, "0cf051d7e97180db"),
    (5, "p0", "up-weak", 32, "1ccd441c64e33061"),
    (5, "p1", "both", 32, "27914989ab99e3bc"),
    (5, "p2", "up-weak", 8, "66d30951c0b03642"),
    (5, "p3", "both", 32, "c0b672dc9b46fde7"),
    (5, "p4", "up-weak", 36, "fb9a14a58296ffc6"),
    (5, "p5", "both", 36, "1dc291ed7f93387d"),
    (5, "p6", "both", 36, "fbc2715511ab107d"),
    (5, "p7", "down-weak", 36, "957799e8fb09f17c"),
    (6, "p0", "up-weak", 8, "29a1d1619e8e762d"),
    (6, "p1", "up-weak", 4, "1d20c9c300d9a4e2"),
    (6, "p2", "up-weak", 1, "760cd7bb46d04acd"),
    (6, "p3", "both", 8, "76baa2365ceba428"),
    (6, "p4", "up-weak", 10, "934f89298b4219a2"),
    (6, "p5", "down-weak", 1, "ac2ec74f87763fca"),
    (6, "p6", "both", 10, "20df82bd34540df4"),
    (6, "p7", "down-weak", 10, "475ba0fc623c1ab1"),
    # up-weak points with a point of F_x - x that is beat on both sides, so
    # the certificate depends on which side the strip tests first
    (34, "p0", "up-weak", 11, "6e637337c1e70189"),
    (36, "p0", "up-weak", 5, "ac860b511ef7377e"),
    (53, "p0", "up-weak", 6, "b2cebfd9665597d2"),
    ("wallet", "x", "down-weak", 5, "c930960c4ea0426d"),
]

H_MAP_CASES = [
    (1, 6, "5748353fb2899e83"),
    (2, 7, "71ace34b6d5b6b60"),
    (3, 5, "808ae13a9cb6cfea"),
    (4, 6, "a876e39716e12151"),
    (5, 25, "43622c93dba8df3a"),
    (6, 19, "d9ace939f9e53a66"),
    ("wallet", 53, "fa9e2fe75373808b"),
]


def _load(source, low):
    return corpus.load(source) if isinstance(source, str) else _seeded_poset(source, low)


@pytest.mark.parametrize("source, add_moves, add_digest, remove_moves, remove_digest", BRIDGE_CASES)
def test_bridge_certificates(source, add_moves, add_digest, remove_moves, remove_digest):
    bundle = bridge_space(_load(source, 3))
    _space_cert(bundle.expansion, add_moves, add_digest)
    _space_cert(bundle.collapse, remove_moves, remove_digest)


@pytest.mark.parametrize("source, add_digest, remove_digest, refused_at", CYLINDER_CASES)
def test_cylinder_certificates(source, add_digest, remove_digest, refused_at):
    f = corpus.load(source) if isinstance(source, str) else _seeded_map(source)
    bundle = cylinder_certificates(f)
    _space_cert(bundle.expansion, f.dom.n, add_digest)
    assert bundle.refused_at == refused_at
    if remove_digest is None:
        assert bundle.collapse is None
    else:
        _space_cert(bundle.collapse, f.cod.n, remove_digest)


@pytest.mark.parametrize("source, label, side, moves, digest", TRANSLATE_CASES)
def test_translate_space_collapse(source, label, side, moves, digest):
    x = _load(source, 4)
    assert is_weak_point(x, label) == side
    cert = translate_space_collapse(x, label)
    assert len(cert.moves) == moves
    assert _digest(format_simplicial_certificate(cert)) == digest


@pytest.mark.parametrize("source, points, digest", H_MAP_CASES)
def test_h_map_images(source, points, digest):
    h = h_map(_load(source, 3))
    assert h.dom.n == points
    assert _digest(format_space(h.dom) + repr(h.images)) == digest
