import random

import pytest

from finspace.complexes import SimplicialMoveCertificate, from_facets
from finspace.fileio import (
    ParseError,
    dot_complex,
    dot_space,
    format_complex,
    format_simplicial_certificate,
    format_space,
    format_space_certificate,
    parse_certificate,
    parse_complex,
    parse_space,
    read_certificate,
    read_complex,
    read_map,
    read_space,
)
from finspace.functors import bridge_space, translate_space_collapse
from finspace.moves import collapse_search
from finspace.spaces import from_covers

from util import random_complex, random_poset


def test_space_round_trip():
    rng = random.Random(5)
    for _ in range(20):
        x = random_poset(rng, rng.randint(1, 6))
        assert parse_space(format_space(x)) == x


def test_space_parsing_details(tmp_path):
    text = """# a comment
elements: a b c
cover: a b   # a is below b
cover: a c
"""
    x = parse_space(text)
    assert x.labels == ("a", "b", "c")
    assert x.is_leq("a", "b")
    p = tmp_path / "v.poset"
    p.write_text(text)
    assert read_space(str(p)) == x


def test_space_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_space("elements: a b\ncover: a zz\n", source="bad.poset")
    assert "bad.poset:2" in str(e.value)
    with pytest.raises(ParseError):
        parse_space("cover: a b\n")  # no elements line
    with pytest.raises(ParseError):
        parse_space("elements: a a\n")  # duplicate label


def test_complex_round_trip():
    rng = random.Random(6)
    for _ in range(20):
        k = random_complex(rng)
        assert parse_complex(format_complex(k)) == k


def test_complex_parse_errors(tmp_path):
    with pytest.raises(ParseError) as e:
        parse_complex("vertices: a b\nfacet: a c\n", source="k.cplx")
    assert "k.cplx:2" in str(e.value)
    p = tmp_path / "t.cplx"
    p.write_text("vertices: a b c\nfacet: a b c\n")
    assert read_complex(str(p)).f_vector() == (3, 3, 1)


def test_map_file_resolves_relative_paths(tmp_path):
    (tmp_path / "d.poset").write_text("elements: a b\ncover: a b\n")
    (tmp_path / "c.poset").write_text("elements: z\n")
    m = tmp_path / "f.map"
    m.write_text("dom: d.poset\ncod: c.poset\nsend: a z\nsend: b z\n")
    f = read_map(str(m))
    assert f("a") == "z" and f("b") == "z"


def test_map_file_accepts_example_references(tmp_path):
    m = tmp_path / "g.map"
    m.write_text("dom: example:vee\ncod: example:sierpinski\n"
                 "send: a 1\nsend: b 0\nsend: c 0\n")
    f = read_map(str(m))
    assert f("a") == "1"


def test_map_file_rejects_duplicate_assignment(tmp_path):
    (tmp_path / "d.poset").write_text("elements: a\n")
    m = tmp_path / "f.map"
    m.write_text("dom: d.poset\ncod: d.poset\nsend: a a\nsend: a a\n")
    with pytest.raises(ParseError):
        read_map(str(m))


def test_space_certificate_round_trip():
    wallet = from_covers(
        "t1 t2 x t4 m1 m2 m3 m4 c1 c2 c3".split(),
        [
            ("m1", "t1"), ("m2", "t1"), ("m1", "t2"), ("m3", "t2"),
            ("m2", "x"), ("m4", "x"), ("m3", "t4"), ("m4", "t4"),
            ("c1", "m1"), ("c2", "m1"), ("c1", "m2"), ("c2", "m2"),
            ("c2", "m3"), ("c3", "m3"), ("c2", "m4"), ("c3", "m4"),
        ],
    )
    cert = collapse_search(wallet).certificate
    assert cert is not None
    text = format_space_certificate(cert)
    back = parse_certificate(text)
    assert back.start == cert.start
    assert back.moves == cert.moves


def test_simplicial_certificate_round_trip():
    wallet = from_covers(
        "t1 t2 x t4 m1 m2 m3 m4 c1 c2 c3".split(),
        [
            ("m1", "t1"), ("m2", "t1"), ("m1", "t2"), ("m3", "t2"),
            ("m2", "x"), ("m4", "x"), ("m3", "t4"), ("m4", "t4"),
            ("c1", "m1"), ("c2", "m1"), ("c1", "m2"), ("c2", "m2"),
            ("c2", "m3"), ("c3", "m3"), ("c2", "m4"), ("c3", "m4"),
        ],
    )
    cert = translate_space_collapse(wallet, "x")
    text = format_simplicial_certificate(cert)
    back = parse_certificate(text)
    assert isinstance(back, SimplicialMoveCertificate)
    assert back.start == cert.start
    assert back.moves == cert.moves


def test_certificate_with_start_path(tmp_path):
    (tmp_path / "s.poset").write_text("elements: a b\ncover: a b\n")
    c = tmp_path / "c.cert"
    c.write_text("start: s.poset\nremove b up-weak\n")
    cert = read_certificate(str(c))
    assert cert.start.n == 2
    assert cert.moves[0].label == "b"


def test_certificate_inline_errors_keep_line_numbers():
    text = "start:\nelements: a b\ncover: a zz\n"
    with pytest.raises(ParseError) as e:
        parse_certificate(text, source="c.cert")
    assert ":3" in str(e.value)


def test_certificate_attach_sets_parse():
    text = (
        "start:\nelements: a\n"
        "add b up-weak down={} up={a}\n"
        "add c down-weak down={a b} up={}\n"
    )
    cert = parse_certificate(text)
    assert cert.moves[0].down == () and cert.moves[0].up == ("a",)
    assert cert.moves[1].down == ("a", "b")


def test_certificate_rejects_garbage_move():
    with pytest.raises(ParseError):
        parse_certificate("start:\nelements: a\nwiggle a down\n")


def test_bridge_certificate_serializes():
    x = from_covers(["a", "b"], [("a", "b")])
    bundle = bridge_space(x)
    text = format_space_certificate(bundle.expansion)
    back = parse_certificate(text)
    assert back.moves == bundle.expansion.moves


def test_dot_outputs_mention_every_point():
    x = from_covers(["lo", "hi"], [("lo", "hi")])
    dot = dot_space(x)
    assert "digraph" in dot and '"hi" -> "lo"' in dot
    k = from_facets([("a", "b")])
    g = dot_complex(k)
    assert "graph" in g and '"a" -- "b"' in g
