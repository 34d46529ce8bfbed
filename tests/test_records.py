"""The contract shared by the immutable result records of every module:
construction by keyword or position, equality and hashing by fields within
one class, refused assignment and deletion, truth, length, copies, and the
text of each validation error; the text with which each library call
refuses outside input that no other test gives it; and that a session of
commands leaves ``dataclasses`` and ``inspect`` unloaded."""

import copy
import json
import pickle

import pytest

from finspace.complexes import (
    SimplicialMap,
    SimplicialMove,
    SimplicialMoveCertificate,
    from_facets,
    is_contiguous,
)
from finspace.corpus import CorpusEntry, load
from finspace.fileio import ParseError, read_map, read_space
from finspace.functors import (
    CylinderCertificates,
    contiguity_fence,
    translate_simplicial_collapse,
)
from finspace.homology import HomologyReport
from finspace.maps import (
    ContinuousMap,
    DistinguishedReport,
    FenceResult,
    MembershipEvidence,
    fence_homotopic,
    pointwise_leq,
)
from finspace.moves import (
    ReplayResult,
    SearchResult,
    SpaceEquivalence,
    SpaceMove,
    SpaceMoveCertificate,
    add_weak_point,
    collapse_search,
    remove_weak_point,
)
from finspace.spaces import FiniteSpace, from_covers

from test_runtime import children


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
     "image of simplex ['a', 'b'] is not a simplex"),
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
    assert str(refused.value) == text


def _identity(k):
    return SimplicialMap.from_dict(k, k, {v: v for v in k.vertices})


def _simplicial_identities():
    """Of an edge and of a triangle: no domain or codomain in common."""
    return _identity(from_facets([["a", "b"]])), _identity(_triangle())


def _continuous_identities():
    """Of a chain and of a point: no domain or codomain in common."""
    return ContinuousMap.identity(_chain()), ContinuousMap.identity(from_covers(["a"], []))


def _map_without_dom() -> str:
    with open("f.map", "w") as fh:
        fh.write("cod: example:wallet\nsend: x x\n")
    return "f.map"


REFUSALS = [
    (lambda: FiniteSpace.from_masks(["a", "b"], [4, 0]),
     "down-set mask of point 0 is not a set of the 2 points"),
    (lambda: FiniteSpace.from_masks(["a"], [1]), "relation is not irreflexive"),
    (lambda: FiniteSpace.from_masks(["a", "b"], [0]), "1 down-set masks do not match 2 labels"),
    (lambda: remove_weak_point(load("wallet"), "t1"), "'t1' is not a weak point"),
    (lambda: add_weak_point(_chain(), (), (), "z"), "new point 'z' would not be weak"),
    (lambda: collapse_search(_chain(), from_covers([], [])), "target must be nonempty"),
    (lambda: _triangle().proper_cofaces(["a", "z"]), "['a', 'z'] is not a simplex here"),
    (lambda: SimplicialMap.compose(*_simplicial_identities()), "codomain/domain mismatch"),
    (lambda: is_contiguous(*_simplicial_identities()),
     "contiguity needs a common domain and codomain"),
    (lambda: ContinuousMap.compose(*_continuous_identities()), "codomain/domain mismatch"),
    (lambda: pointwise_leq(*_continuous_identities()), "maps must share domain and codomain"),
    (lambda: fence_homotopic(*_continuous_identities()), "maps must share domain and codomain"),
    (lambda: contiguity_fence(_identity(_two_vertices()), SimplicialMap.from_dict(
        _two_vertices(), _two_vertices(), {"a": "b", "b": "a"})), "maps are not contiguous"),
    (lambda: translate_simplicial_collapse(_triangle(), ["a", "b"], "a"), "apex lies in the face"),
    (lambda: read_space("example:dunce"), "example:dunce: example 'dunce' is not a FiniteSpace"),
    (lambda: read_map(_map_without_dom()), "f.map: need both dom: and cod: lines"),
]


@pytest.mark.parametrize("build, text", REFUSALS)
def test_outside_input_is_refused_with_its_message(build, text, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises((ValueError, ParseError)) as refused:
        build()
    assert str(refused.value) == text


def test_import_corpus_and_a_command_load_neither_dataclasses_nor_inspect():
    # the child session of test_runtime loads every example and runs every
    # subcommand before it lists what it loaded
    for out, _ in children():
        assert not {"dataclasses", "inspect"} & set(json.loads(out)["loaded"])
