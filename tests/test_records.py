"""The contract shared by the immutable result records of every module:
construction by keyword or position, equality and hashing by fields within
one class, refused assignment and deletion, truth, length, copies, and the
text of each validation error; and that importing the package, loading the
corpus and running a command leaves ``dataclasses`` and ``inspect``
unloaded."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from finspace.complexes import (
    SimplicialMap,
    SimplicialMove,
    SimplicialMoveCertificate,
    from_facets,
)
from finspace.corpus import CorpusEntry
from finspace.functors import CylinderCertificates
from finspace.homology import HomologyReport
from finspace.maps import (
    ContinuousMap,
    DistinguishedReport,
    FenceResult,
    MembershipEvidence,
)
from finspace.moves import (
    ReplayResult,
    SearchResult,
    SpaceEquivalence,
    SpaceMove,
    SpaceMoveCertificate,
)
from finspace.spaces import from_covers


def _chain():
    return from_covers(["a", "b"], [("a", "b")])


def _triangle():
    return from_facets([["a", "b", "c"]])


def _space_certificate():
    return SpaceMoveCertificate(_chain(), (SpaceMove("remove", "b", "beat-up"),))


# Each record's fields in declaration order, built afresh on every call, so
# that two calls give equal but distinct field values.
FIELDS = {
    SpaceMove: lambda: {
        "direction": "add", "label": "x", "side": "up-weak", "down": ("a",), "up": (),
    },
    SpaceMoveCertificate: lambda: {
        "start": _chain(), "moves": (SpaceMove("remove", "b", "beat-up"),),
    },
    ReplayResult: lambda: {"ok": False, "step": 2, "reason": "no", "final": None},
    SearchResult: lambda: {"certificate": None, "conclusive": True, "nodes": 3},
    SpaceEquivalence: lambda: {
        "core_certificate_a": _space_certificate(),
        "core_certificate_b": _space_certificate(),
        "isomorphism": {"a": "a"},
    },
    SimplicialMap: lambda: {
        "dom": _triangle(), "cod": _triangle(),
        "vertex_map": (("a", "a"), ("b", "b"), ("c", "c")),
    },
    SimplicialMove: lambda: {"direction": "remove", "face": ("a",), "apex": "b"},
    SimplicialMoveCertificate: lambda: {
        "start": _triangle(), "moves": (SimplicialMove("remove", ("a",), "b"),),
    },
    ContinuousMap: lambda: {"dom": _chain(), "cod": _chain(), "images": (0, 1)},
    FenceResult: lambda: {"fence": None, "conclusive": False},
    DistinguishedReport: lambda: {"ok": True, "per_point": (("a", True), ("b", True))},
    MembershipEvidence: lambda: {
        "kind": "distinguished",
        "subject": ContinuousMap.identity(_chain()),
        "witnesses": (),
    },
    CylinderCertificates: lambda: {
        "cylinder": _chain(), "expansion": _space_certificate(), "collapse": None,
        "refused_at": "a",
    },
    HomologyReport: lambda: {"betti": (1, 0), "torsion": ((), (2,)), "reduced": True},
    CorpusEntry: lambda: {"name": "pair", "kind": "space", "summary": "two points",
                          "build": _chain},
}

RECORDS = list(FIELDS)


def _hashable(values) -> bool:
    try:
        hash(tuple(values))
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_records_compare_and_hash_by_their_fields_within_one_class(cls):
    fields = FIELDS[cls]()
    a, b = cls(**fields), cls(*FIELDS[cls]().values())
    assert [getattr(a, name) for name in fields] == list(fields.values())
    assert a == b and not a != b
    if cls is not ContinuousMap and _hashable(fields.values()):
        assert hash(a) == hash(b) == hash(cls(**fields))
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    for other in RECORDS:
        if other is not cls:
            assert a != other(**FIELDS[other]())
    assert a != tuple(fields.values())
    assert copy.copy(a) == a and copy.deepcopy(a) == a


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_records_refuse_assignment_and_deletion(cls):
    fields = FIELDS[cls]()
    a = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is value
    with pytest.raises(AttributeError):
        a.extra = 1


def test_records_print_their_fields_and_pickle():
    move = SpaceMove("remove", "a", "beat-up")
    assert repr(move) == "SpaceMove(direction='remove', label='a', side='beat-up', down=None, up=None)"
    assert pickle.loads(pickle.dumps(move)) == move
    report = HomologyReport((1,), ((),))
    assert repr(report) == "HomologyReport(betti=(1,), torsion=((),), reduced=False)"
    assert pickle.loads(pickle.dumps(report)) == report
    f = SimplicialMap(**FIELDS[SimplicialMap]())
    assert repr(f).startswith("SimplicialMap(dom=SimplicialComplex(3 vertices, 7 simplices), ")
    assert repr(f).endswith(", vertex_map=(('a', 'a'), ('b', 'b'), ('c', 'c')))")
    assert f.image(["a", "b"]) == frozenset({"a", "b"})


def test_truth_and_length_of_results_and_certificates():
    assert ReplayResult(True) and not ReplayResult(False, 0, "bad")
    cert = _space_certificate()
    assert SearchResult(cert, True, 1) and not SearchResult(None, True, 1)
    f = ContinuousMap.identity(_chain())
    assert FenceResult((f,), True) and not FenceResult(None, True)
    assert DistinguishedReport(True, ()) and not DistinguishedReport(False, (("a", False),))
    assert len(cert) == 1 and len(SpaceMoveCertificate(_chain(), ())) == 0
    moves = (SimplicialMove("remove", ("a",), "b"), SimplicialMove("remove", ("c",), "a"))
    assert len(SimplicialMoveCertificate(_triangle(), moves)) == 2


def _two_vertices():
    return from_facets([["a"], ["b"]])


VALIDATION_ERRORS = [
    (lambda: SpaceMove("sideways", "a", "down-weak"), "bad move direction 'sideways'"),
    (lambda: SpaceMove("remove", "a", "diagonal"), "bad move side 'diagonal'"),
    (lambda: SpaceMove("add", "a", "up-weak", down=()),
     "add moves need down= and up= attaching sets"),
    (lambda: SimplicialMove("collapse", ("a",), "b"), "bad move direction 'collapse'"),
    (lambda: SimplicialMove("add", ("a", "b"), "b"), "apex lies in the face"),
    (lambda: SimplicialMap(_triangle(), _triangle(), (("a", "a"),)),
     "vertex map must cover exactly the domain vertices"),
    (lambda: SimplicialMap.from_dict(_triangle(), _triangle(), {"a": "a", "b": "b", "c": "z"}),
     "image vertex 'z' is not in the codomain"),
    (lambda: SimplicialMap.from_dict(_triangle(), _two_vertices(), {"a": "a", "b": "b", "c": "b"}),
     # the simplex is listed in frozenset order, which the hash seed sets
     ("image of simplex ['a', 'b'] is not a simplex", "image of simplex ['b', 'a'] is not a simplex")),
    (lambda: ContinuousMap(_chain(), _chain(), (0,)), "one image per domain point is required"),
    (lambda: ContinuousMap(_chain(), _chain(), (0, 2)), "image index 2 outside the codomain"),
    (lambda: ContinuousMap(_chain(), _chain(), (1, 0)), "map does not preserve the order"),
    (lambda: MembershipEvidence("guess", ContinuousMap.identity(_chain())),
     "unknown evidence kind 'guess'"),
]


@pytest.mark.parametrize("build, text", VALIDATION_ERRORS)
def test_records_refuse_bad_fields_with_the_same_text(build, text):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) in ((text,) if isinstance(text, str) else text)


IMPORT_RUN = """
import sys

import finspace
from finspace import cli
from finspace.corpus import load, names

for name in names():
    load(name)
assert cli.main(["core", "example:wallet"]) == 0
print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""


def test_import_corpus_and_a_command_load_neither_dataclasses_nor_inspect():
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_RUN], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
