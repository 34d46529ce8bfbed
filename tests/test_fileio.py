import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from finspace.maps import ContinuousMap
from finspace.moves import collapse_search, core, weak_points
from finspace.spaces import from_covers

from util import (
    closure_masks_oracle,
    continuous_maps_oracle,
    drawn_poset,
    random_complex,
    random_poset,
)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 7), st.data())
def test_space_round_trip(rng, n, data):
    x = drawn_poset(rng, data, n)
    back = parse_space(format_space(x))
    assert back == x and back.labels == x.labels


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


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 40), st.data())
def test_parsed_cover_lines_close_to_the_oracle_and_to_from_covers(rng, n, data):
    # the covers of a random poset under shuffled labels, some repeated and
    # some transitive pairs added, in any order, among comments and blanks
    space = random_poset(rng, n, rng.choice([0.05, 0.15, 0.4]))
    down = space.masks()[0]
    covers = set(space.covers())
    transitive = [
        (i, j) for j in range(n) for i in range(n) if down[j] >> i & 1 and (i, j) not in covers
    ]
    extra = rng.sample(sorted(covers), len(covers) // 4)
    extra += rng.sample(transitive, min(6, len(transitive)))
    pairs = [(space.labels[i], space.labels[j]) for i, j in sorted(covers) + extra]
    pairs = data.draw(st.permutations(pairs))
    elements = data.draw(st.permutations(space.labels))
    lines = ["# a poset", "", "elements: " + " ".join(elements)]
    for lo, hi in pairs:
        if rng.random() < 0.2:
            lines.append(rng.choice(["", "   ", "# between covers"]))
        lines.append(f"cover: {lo} {hi}" + rng.choice(["", "  # trailing", "\t"]))
    text = "\n".join(lines) + "\n"

    parsed = parse_space(text)
    at = {label: k for k, label in enumerate(elements)}
    assert parsed.labels == tuple(elements)
    assert parsed.masks() == closure_masks_oracle(n, [(at[lo], at[hi]) for lo, hi in pairs])
    built = from_covers(elements, pairs)
    assert built.labels == parsed.labels and built.masks() == parsed.masks()
    if pairs:
        lo, hi = data.draw(st.sampled_from(pairs))
        with pytest.raises(ParseError, match="cover pairs contain a cycle$"):
            parse_space(text + f"cover: {hi} {lo}\n")


# (case, text, str(ParseError) from parse_space, the same from a bare start:
# block holding the text, which shifts every line by one).  The self-cover
# rows are raised at the offending line, before any label-validity error.
SPACE_PARSE_ERRORS = [
    ("unknown-first", "elements: a b\ncover: y b\n", "s:2: unknown point 'y'", "s:3: unknown point 'y'"),
    ("unknown-second", "elements: a b\ncover: a z\n", "s:2: unknown point 'z'", "s:3: unknown point 'z'"),
    ("unknown-both", "elements: a b\ncover: y z\n", "s:2: unknown point 'y'", "s:3: unknown point 'y'"),
    ("arity", "elements: a b\ncover: a b c\n",
     "s:2: cover: needs exactly two labels", "s:3: cover: needs exactly two labels"),
    ("cover-before-elements", "cover: a b\nelements: a b\n",
     "s:1: cover: before elements:", "s:2: cover: before elements:"),
    ("second-elements", "elements: a b\ncover: a b\nelements: c\n",
     "s:3: second elements: line", "s:4: second elements: line"),
    ("unexpected-line", "elements: a b\ncover: a b\nfacet: a b\n",
     "s:3: unexpected line 'facet: a b'", "s:4: unexpected line 'facet: a b'"),
    ("missing-elements", "# nothing\n\n",
     "s: missing elements: line", "s:1: bare start: needs an inline space or complex"),
    ("duplicate-label", "elements: a b a\ncover: a b\n", "s:1: duplicate label 'a'", "s:2: duplicate label 'a'"),
    ("brace-in-label", "elements: a b{ c\ncover: a c\n",
     "s:1: label 'b{' contains whitespace or one of { } #",
     "s:2: label 'b{' contains whitespace or one of { } #"),
    ("self-cover", "elements: a b\ncover: a b\ncover: b b\n",
     "s:3: cover pair ('b', 'b') relates a point to itself",
     "s:4: cover pair ('b', 'b') relates a point to itself"),
    ("self-cover-before-duplicate", "elements: a a\ncover: a a\n",
     "s:2: cover pair ('a', 'a') relates a point to itself",
     "s:3: cover pair ('a', 'a') relates a point to itself"),
    ("two-cycle", "elements: a b\ncover: a b\ncover: b a\n",
     "s:1: cover pairs contain a cycle", "s:2: cover pairs contain a cycle"),
    ("three-cycle", "elements: a b c\ncover: a b\ncover: b c\ncover: c a\n",
     "s:1: cover pairs contain a cycle", "s:2: cover pairs contain a cycle"),
]


@pytest.mark.parametrize(
    "case, text, in_file, in_block", SPACE_PARSE_ERRORS, ids=[row[0] for row in SPACE_PARSE_ERRORS]
)
def test_space_parse_error_messages(case, text, in_file, in_block):
    with pytest.raises(ParseError) as e:
        parse_space(text, "s")
    assert str(e.value) == in_file
    with pytest.raises(ParseError) as e:
        parse_certificate("start:\n" + text + "remove a beat-up\n", "s")
    assert str(e.value) == in_block


@pytest.mark.parametrize("labels, covers, message", [
    ("ab", [("y", "b")], "unknown label 'y' in cover pair"),
    ("ab", [("a", "z")], "unknown label 'z' in cover pair"),
    ("ab", [("y", "z")], "unknown label 'y' in cover pair"),
    ("ab", [("b", "b")], "cover pair ('b', 'b') relates a point to itself"),
    ("aba", [], "duplicate label 'a'"),
    (["a", "b{"], [], "label 'b{' contains whitespace or one of { } #"),
    (["a", ""], [], "labels must be nonempty strings"),
    ("ab", [("a", "b"), ("b", "a")], "cover pairs contain a cycle"),
    ("abc", [("a", "b"), ("b", "c"), ("c", "a")], "cover pairs contain a cycle"),
])
def test_from_covers_error_messages(labels, covers, message):
    with pytest.raises(ValueError) as e:
        from_covers(list(labels), covers)
    assert str(e.value) == message


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 6), st.integers(1, 5))
def test_complex_round_trip(rng, n_vertices, n_facets):
    k = random_complex(rng, n_vertices, n_facets, max_simplices=30)
    assert parse_complex(format_complex(k)) == k


def test_complex_parse_errors(tmp_path):
    with pytest.raises(ParseError) as e:
        parse_complex("vertices: a b\nfacet: a c\n", source="k.cplx")
    assert "k.cplx:2" in str(e.value)
    p = tmp_path / "t.cplx"
    p.write_text("vertices: a b c\nfacet: a b c\n")
    assert read_complex(str(p)).f_vector() == (3, 3, 1)


# (case, text, str(ParseError) from parse_complex, the same from a bare
# start: block holding the text, which shifts every line by one).  A label
# fault is found by from_facets, which knows no line, in both columns.
COMPLEX_PARSE_ERRORS = [
    ("second-vertices", "vertices: a b\nvertices: c\n",
     "k:2: second vertices: line", "k:3: second vertices: line"),
    ("empty-facet", "vertices: a b\nfacet:\n",
     "k:2: facet: needs at least one vertex", "k:3: facet: needs at least one vertex"),
    ("facet-before-vertices", "facet: a b\nvertices: a b\n",
     "k:1: facet: before vertices:", "k:2: facet: before vertices:"),
    ("missing-vertices", "# nothing\n\n",
     "k: missing vertices: line", "k:1: bare start: needs an inline space or complex"),
    ("brace-in-vertex", "vertices: a b{\nfacet: a b{\n",
     "k: label 'b{' contains whitespace or one of { } #",
     "k: label 'b{' contains whitespace or one of { } #"),
    ("cover-in-complex", "vertices: a b\ncover: a b\n",
     "k:2: unexpected line 'cover: a b'", "k:3: unexpected line 'cover: a b'"),
    ("unknown-vertex", "vertices: a b\nfacet: a z\n",
     "k:2: unknown vertex 'z'", "k:3: unknown vertex 'z'"),
]


@pytest.mark.parametrize(
    "case, text, in_file, in_block", COMPLEX_PARSE_ERRORS, ids=[row[0] for row in COMPLEX_PARSE_ERRORS]
)
def test_complex_parse_error_messages(case, text, in_file, in_block):
    with pytest.raises(ParseError) as e:
        parse_complex(text, "k")
    assert str(e.value) == in_file
    with pytest.raises(ParseError) as e:
        parse_certificate("start:\n" + text + "remove {a} b\n", "k")
    assert str(e.value) == in_block


_SPACE_START = "start:\nelements: a b c\ncover: a b\n"
_COMPLEX_START = "start:\nvertices: a b\nfacet: a b\n"

# (case, certificate text, str(ParseError) from parse_certificate)
CERTIFICATE_PARSE_ERRORS = [
    ("empty", "", "c: empty certificate"),
    ("comments-only", "# nothing\n\n", "c: empty certificate"),
    ("no-start", "elements: a\n", "c:1: certificate must begin with start:"),
    ("bare-start-then-move", "start:\nremove a beat-up\n",
     "c:1: bare start: needs an inline space or complex"),
    ("remove-without-side", _SPACE_START + "remove a\n", "c:4: move needs a label and a side"),
    ("unknown-side", _SPACE_START + "remove a sideways\n", "c:4: unknown side 'sideways'"),
    ("trailing-after-remove", _SPACE_START + "remove a beat-up now\n",
     "c:4: trailing text after remove move"),
    ("add-without-sets", _SPACE_START + "add d up-weak\n", "c:4: add move needs down={...} up={...}"),
    ("add-malformed-sets", _SPACE_START + "add d up-weak down={a} up=b\n",
     "c:4: add move needs down={...} up={...}"),
    ("add-sets-swapped", _SPACE_START + "add d up-weak up={b} down={a}\n",
     "c:4: add move needs down={...} up={...}"),
    ("simplicial-without-face", _COMPLEX_START + "remove a b\n",
     "c:4: move needs a {face} and an apex vertex"),
    ("simplicial-empty-face", _COMPLEX_START + "remove {} b\n", "c:4: empty face"),
    ("simplicial-apex-in-face", _COMPLEX_START + "remove {a b} a\n", "c:4: apex lies in the face"),
    ("unknown-direction", _COMPLEX_START + "move {a} b\n", "c:4: unexpected line 'move {a} b'"),
]


@pytest.mark.parametrize(
    "case, text, message", CERTIFICATE_PARSE_ERRORS, ids=[row[0] for row in CERTIFICATE_PARSE_ERRORS]
)
def test_certificate_parse_error_messages(case, text, message):
    with pytest.raises(ParseError) as e:
        parse_certificate(text, "c")
    assert str(e.value) == message


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


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 4), st.integers(2, 4), st.data())
def test_map_file_round_trip(rng, n, m, data):
    # a map written from its label map beside its two .poset files, the
    # send lines in any order, reads back as the same map; a drawn poset on
    # 2 or more points is never empty
    dom, cod = drawn_poset(rng, data, n), drawn_poset(rng, data, m)
    f = ContinuousMap(dom, cod, data.draw(st.sampled_from(continuous_maps_oracle(dom, cod))))
    sends = [f"send: {x} {y}\n" for x, y in f.label_map().items()]
    with tempfile.TemporaryDirectory() as tmp:
        for name, space in (("d.poset", dom), ("c.poset", cod)):
            with open(os.path.join(tmp, name), "w") as out:
                out.write(format_space(space))
        path = os.path.join(tmp, "f.map")
        with open(path, "w") as out:
            out.write("dom: d.poset\ncod: c.poset\n" + "".join(data.draw(st.permutations(sends))))
        assert read_map(path) == f


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 6), st.data())
def test_space_certificate_round_trip(rng, n, data):
    # removals of beat and weak points, and additions with attach sets
    x = drawn_poset(rng, data, n)
    bridge = bridge_space(x)
    certs = [core(x)[1], bridge.expansion, bridge.collapse]
    found = collapse_search(x, budget=200).certificate
    certs += [found] if found is not None else []
    for cert in certs:
        back = parse_certificate(format_space_certificate(cert))
        assert back.start == cert.start and back.moves == cert.moves


@settings(max_examples=40, deadline=None)
@given(
    st.randoms(use_true_random=False), st.integers(1, 6), st.integers(1, 5),
    st.integers(1, 6), st.data(),
)
def test_simplicial_certificate_round_trip(rng, n_vertices, n_facets, n, data):
    # a run of free-pair collapses, and the expansions of a translated
    # weak-point removal
    k = random_complex(rng, n_vertices, n_facets, max_simplices=30)
    c, moves = k, []
    while c.free_pairs() and data.draw(st.booleans()):
        c, move = c.elementary_collapse(*data.draw(st.sampled_from(c.free_pairs())))
        moves.append(move)
    certs = [SimplicialMoveCertificate(k, tuple(moves))]
    x = drawn_poset(rng, data, n)
    weak = weak_points(x)
    if weak:
        certs.append(translate_space_collapse(x, data.draw(st.sampled_from(weak))[0]))
    for cert in certs:
        back = parse_certificate(format_simplicial_certificate(cert))
        assert isinstance(back, SimplicialMoveCertificate)
        assert back.start == cert.start and back.moves == cert.moves


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
