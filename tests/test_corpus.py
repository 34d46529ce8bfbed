import pytest

from finspace.complexes import SimplicialComplex
from finspace.corpus import entries, load, names
from finspace.functors import order_complex
from finspace.maps import ContinuousMap, is_distinguished, is_op_distinguished
from finspace.moves import beat_points, is_contractible, weak_points
from finspace.spaces import FiniteSpace

KIND_TYPES = {"space": FiniteSpace, "complex": SimplicialComplex, "map": ContinuousMap}


def _contractible_with(n):
    return lambda s: s.n == n and is_contractible(s)


# The defining properties of each built-in example, checked on what ``load``
# returns.  The wallet's minimality and weak point x, and the dunce hat's
# Euler characteristic, reduced homology and missing free face, are asserted
# by acceptance criteria 1 and 10.
PROPERTIES = [
    ("wallet", "has 11 points", lambda w: w.n == 11),
    ("wallet", "U_x - x has 5 points and is contractible",
     lambda w: _contractible_with(5)(w.punctured_open("x"))),
    ("wallet-open", "has 5 points and is contractible", _contractible_with(5)),
    ("wallet-minus-x", "has 10 points and is contractible", _contractible_with(10)),
    ("sierpinski", "has 2 points and is contractible", _contractible_with(2)),
    ("vee", "has 3 points and is contractible", _contractible_with(3)),
    ("sd3", "has no beat points", lambda s: beat_points(s) == []),
    ("sd3", "has no weak points", lambda s: weak_points(s) == []),
    ("sd3", "K(sd3) has Euler characteristic -1",
     lambda s: order_complex(s).euler_characteristic() == -1),
    ("four-point", "is contractible", is_contractible),
    ("four-point", "K has f-vector (4, 5, 2)",
     lambda s: order_complex(s).f_vector() == (4, 5, 2)),
    ("sierpinski-map", "fails to be distinguished exactly at 0",
     lambda f: not is_distinguished(f).ok and is_distinguished(f).failing == ("0",)),
    ("sierpinski-map", "is distinguished in the dual sense", is_op_distinguished),
    ("dunce", "has f-vector (8, 24, 17)", lambda k: k.f_vector() == (8, 24, 17)),
]


@pytest.mark.parametrize(
    "name, holds",
    [pytest.param(name, holds, id=f"{name}: {claim}") for name, claim, holds in PROPERTIES],
)
def test_entry_has_its_defining_property(name, holds):
    assert holds(load(name))


def test_every_entry_loads_and_matches_its_kind():
    for entry in entries():
        obj = load(entry.name)
        assert isinstance(obj, KIND_TYPES[entry.kind]), entry.name


def test_load_is_cached():
    assert load("wallet") is load("wallet")


def test_unknown_name_reports_the_available_ones():
    with pytest.raises(KeyError) as e:
        load("no-such-thing")
    assert "wallet" in str(e.value)


def test_listing_is_stable():
    assert names() == tuple(e.name for e in entries())
    assert "dunce" in names()
