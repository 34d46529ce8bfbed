"""End-to-end runs of the command line interface, in process."""

import contextlib
import functools
import hashlib
import inspect
import io
import json
import os
import random
import re
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finspace.cli import _build_parser, main
from finspace.complexes import (
    SimplicialComplex,
    SimplicialMoveCertificate,
    collapse_sequence_search,
    from_facets,
)
from finspace.corpus import entries, load
from finspace.fileio import (
    format_complex,
    format_simplicial_certificate,
    format_space,
    format_space_certificate,
    parse_certificate,
    read_map,
)
from finspace.functors import (
    barycentric_subdivision,
    bridge_space,
    face_poset,
    translate_space_collapse,
)
from finspace.maps import ContinuousMap, is_distinguished
from finspace.moves import SpaceMoveCertificate, collapse_search, core
from finspace.spaces import from_covers

from test_runtime import LINES, PINNED, children
from util import (
    all_chains_brute,
    barycentric_oracle,
    drawn_poset,
    random_complex,
    random_poset,
    scaled_cpu,
)

WALLET_POSET = """elements: t1 t2 x t4 m1 m2 m3 m4 c1 c2 c3
cover: m1 t1
cover: m2 t1
cover: m1 t2
cover: m3 t2
cover: m2 x
cover: m4 x
cover: m3 t4
cover: m4 t4
cover: c1 m1
cover: c2 m1
cover: c1 m2
cover: c2 m2
cover: c2 m3
cover: c3 m3
cover: c2 m4
cover: c3 m4
"""


@pytest.fixture
def wallet_file(tmp_path):
    p = tmp_path / "wallet.poset"
    p.write_text(WALLET_POSET)
    return str(p)


def test_core_of_contractible_space_is_a_point(capsys):
    assert main(["core", "example:four-point"]) == 0
    out = capsys.readouterr().out
    assert "elements:" in out
    assert len(out.split("elements:")[1].split("\n")[0].split()) == 1


def test_weak_points_listing(capsys, wallet_file):
    assert main(["weak-points", wallet_file]) == 0
    out = capsys.readouterr().out
    assert "x down-weak" in out
    assert "c1 up-weak" in out


def test_collapse_success_emits_replayable_certificate(capsys, wallet_file, tmp_path):
    assert main(["collapse", wallet_file]) == 0
    cert_text = capsys.readouterr().out
    cert_file = tmp_path / "w.cert"
    cert_file.write_text(cert_text)
    assert main(["verify", str(cert_file)]) == 0
    out = capsys.readouterr().out
    assert "valid" in out


def test_collapse_conclusive_failure_exits_one(capsys):
    assert main(["collapse", "example:sd3"]) == 1
    assert "no collapse exists" in capsys.readouterr().err


def test_collapse_budget_exhaustion_exits_two(capsys, wallet_file):
    assert main(["collapse", wallet_file, "--budget", "1"]) == 2
    assert "budget" in capsys.readouterr().err
    assert main(["collapse", wallet_file, "--budget", "0"]) == 2
    assert capsys.readouterr().err == "inconclusive: budget of 0 nodes ran out\n"


def test_collapse_negative_budget_exits_three(capsys, wallet_file):
    assert main(["collapse", wallet_file, "--budget", "-1"]) == 3
    assert capsys.readouterr() == ("", "budget must be at least 0, got -1\n")


def test_verify_rejects_tampered_certificate(capsys, tmp_path):
    bad = tmp_path / "bad.cert"
    bad.write_text("start:\nelements: a b\ncover: a b\nremove a down-weak\n")
    assert main(["verify", str(bad)]) == 1
    assert "invalid at move 0" in capsys.readouterr().err


def test_a_missing_label_or_example_is_named_without_extra_quotes(capsys, tmp_path):
    cert = tmp_path / "ghost.cert"
    cert.write_text("start:\nelements: a b\ncover: a b\nadd x down-weak down={ghost} up={}\n")
    bad_map = tmp_path / "bad.map"
    bad_map.write_text("dom: example:vee\ncod: example:sierpinski\nsend: b zz\nsend: c 0\nsend: a 1\n")
    have = ", ".join(e.name for e in entries())
    runs = [
        (["translate-collapse", "example:wallet", "--point", "ghost"], 3,
         "no point labeled 'ghost'"),
        (["core", "example:nosuch"], 3,
         f"example:nosuch: no example named 'nosuch'; have {have}"),
        (["cylinder", str(bad_map)], 3, f"{bad_map}: no point labeled 'zz'"),
        (["verify", str(cert)], 1,
         "invalid at move 0: cannot attach 'x': no point labeled 'ghost'"),
    ]
    for argv, code, err in runs:
        assert main(argv) == code
        assert capsys.readouterr() == ("", err + "\n")


def test_missing_file_exits_three(capsys):
    assert main(["core", "/nonexistent/thing.poset"]) == 3
    assert capsys.readouterr().err != ""


def _one_line_naming(err: str, path) -> bool:
    return err.count("\n") == 1 and str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["core", "weak-points"])
def test_directory_as_a_poset_exits_three(capsys, tmp_path, command):
    assert main([command, str(tmp_path)]) == 3
    assert _one_line_naming(capsys.readouterr().err, tmp_path)


def test_directory_as_a_certificate_start_exits_three(capsys, tmp_path):
    (tmp_path / "sub.poset").mkdir()
    cert = tmp_path / "c.cert"
    cert.write_text("start: sub.poset\nremove a up-weak\n")
    assert main(["verify", str(cert)]) == 3
    assert _one_line_naming(capsys.readouterr().err, tmp_path / "sub.poset")


def test_directory_as_a_map_domain_exits_three(capsys, tmp_path, wallet_file):
    (tmp_path / "sub").mkdir()
    f = tmp_path / "f.map"
    f.write_text(f"dom: sub\ncod: {wallet_file}\n")
    assert main(["cylinder", str(f)]) == 3
    assert _one_line_naming(capsys.readouterr().err, tmp_path / "sub")


def test_malformed_input_exits_three(capsys, tmp_path):
    p = tmp_path / "z.poset"
    p.write_text("elements: a\ncover: a b\n")
    assert main(["core", str(p)]) == 3


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_resource_exhaustion_exits_three(capsys, monkeypatch, error):
    def blow_up(space):
        raise error()

    monkeypatch.setattr("finspace.cli._maximal_chains", blow_up)
    assert main(["k", "example:vee"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("input too large")
    assert "Traceback" not in err


def test_order_complex_with_too_many_chains_exits_three(capsys, tmp_path):
    # about 4.4e7 chains: counted and refused, never enumerated
    p = tmp_path / "big.poset"
    p.write_text(format_space(random_poset(random.Random(1), 200, 0.05)))
    start = time.process_time()
    assert main(["k", str(p)]) == 3
    assert time.process_time() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("too many chains: ")


def test_subdividing_a_complex_with_too_many_chains_exits_three(capsys, tmp_path):
    # the 8-vertex simplex: 255 faces and 1,091,669 chains of faces
    p = tmp_path / "simplex.cplx"
    p.write_text("vertices: a b c d e f g h\nfacet: a b c d e f g h\n")
    start = time.process_time()
    assert main(["subdivide", str(p)]) == 3
    assert time.process_time() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("too many chains: ")


def test_usage_error_exits_three():
    with pytest.raises(SystemExit) as e:
        main(["collapse"])  # missing positional
    assert e.value.code == 3


def test_parser_is_built_once_and_reused():
    assert _build_parser() is _build_parser()


def test_one_process_runs_commands_after_a_usage_error(capsys, tmp_path):
    # the shared parser carries nothing from one call to the next
    cert = tmp_path / "core.cert"
    cert.write_text(format_space_certificate(core(from_covers(
        ["a", "b", "c"], [("a", "b"), ("a", "c")]))[1]))
    _build_parser.cache_clear()
    assert main(["core", "example:wallet"]) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as e:
        main(["core", "example:wallet", "--budget", "3"])
    assert e.value.code == 3
    assert "unrecognized arguments: --budget 3" in capsys.readouterr().err
    assert main(["verify", str(cert)]) == 0
    assert capsys.readouterr().out == "valid: 2 moves replay; final object has size 1\n"
    assert main(["core", "example:wallet"]) == 0
    assert capsys.readouterr().out == first


def test_help_and_usage_errors_go_to_the_streams_of_the_call(capsys):
    _build_parser()  # built while capsys holds the streams
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for argv, code in ((["--help"], 0), (["core", "--help"], 0), (["nosuchcommand"], 3)):
            with pytest.raises(SystemExit) as e:
                main(argv)
            assert e.value.code == code
    assert out.getvalue().startswith("usage: finspace [-h]")
    assert "usage: finspace core [-h] [--certificate] poset" in out.getvalue()
    assert "invalid choice: 'nosuchcommand'" in err.getvalue()
    assert capsys.readouterr() == ("", "")
    with pytest.raises(SystemExit):
        main(["--help"])
    assert capsys.readouterr().out == out.getvalue().split("usage: finspace core")[0]


def test_k_and_x_round_trip(capsys, tmp_path):
    assert main(["k", "example:vee"]) == 0
    k_text = capsys.readouterr().out
    kf = tmp_path / "v.cplx"
    kf.write_text(k_text)
    assert main(["x", str(kf)]) == 0
    out = capsys.readouterr().out
    assert "a.b" in out
    # the dunce hat's subdivision is K of its face poset read back
    (tmp_path / "x-dunce.poset").write_text(_run(["x", "example:dunce"])[1])
    assert _run(["k", str(tmp_path / "x-dunce.poset")]) == _run(["subdivide", "example:dunce"])


@pytest.mark.parametrize("name", [e.name for e in entries() if e.kind == "space"])
def test_every_built_in_space_round_trips_through_k_x_and_its_bridge(tmp_path, name):
    # k prints the complex of all chains; x of it read back is the
    # subdivision, byte for byte; both halves of the bridge replay
    code, k_text = _run(["k", f"example:{name}"])
    assert (code, k_text) == (0, format_complex(SimplicialComplex(all_chains_brute(load(name)))))
    kf = tmp_path / "k.cplx"
    kf.write_text(k_text)
    assert _run(["x", str(kf)]) == _run(["subdivide", f"example:{name}"])
    code, out = _run(["bridge", f"example:{name}"])
    halves = out.split("\n\n")
    assert code == 0 and len(halves) == 2 and "\nadd " in halves[0]
    for k, half in enumerate(halves):
        cert = tmp_path / f"bridge-{k}.cert"
        cert.write_text(half)
        assert _run(["verify", str(cert)])[0] == 0


def test_subdivide_dispatches_on_kind(capsys, tmp_path):
    assert main(["subdivide", "example:vee"]) == 0
    space_out = capsys.readouterr().out
    assert "elements:" in space_out
    kf = tmp_path / "t.cplx"
    kf.write_text("vertices: a b\nfacet: a b\n")
    assert main(["subdivide", str(kf)]) == 0
    assert "vertices:" in capsys.readouterr().out


def test_bridge_emits_two_certificates(capsys):
    assert main(["bridge", "example:vee"]) == 0
    out = capsys.readouterr().out
    assert out.count("start:") == 2
    assert "add" in out and "remove" in out


def test_cylinder_collapse_refusal(capsys):
    assert main(["cylinder", "example:sierpinski-map", "--collapse"]) == 1
    assert capsys.readouterr() == (
        "", "map is not distinguished: the open-set preimage at '0' is not contractible\n"
    )


# (flags, stdout lines, first 16 hex digits of the SHA-256 of stdout, final
# size under verify) for the cylinder of the wallet's identity map; the
# stdout was recorded before the cylinder's masks were closed from its covers
WALLET_IDENTITY_CYLINDER = [
    ([], 29, "468c735ce9f31ac5", 22),
    (["--collapse"], 56, "7ea326bb361ecac6", 11),
]


@pytest.mark.parametrize("flags, lines, digest, size", WALLET_IDENTITY_CYLINDER)
def test_cylinder_of_the_wallet_identity_replays(tmp_path, flags, lines, digest, size):
    # the identity is distinguished: every U_x has a maximum, so it is contractible
    wallet = load("wallet")
    assert is_distinguished(ContinuousMap.identity(wallet)).ok
    m = tmp_path / "F.map"
    m.write_text("dom: example:wallet\ncod: example:wallet\n"
                 + "".join(f"send: {l} {l}\n" for l in wallet.labels))
    code, out = _run(["cylinder", str(m), *flags])
    assert code == 0
    assert (len(out.splitlines()), hashlib.sha256(out.encode()).hexdigest()[:16]) == (lines, digest)
    cert = tmp_path / "cylinder.cert"
    cert.write_text(out)
    assert _run(["verify", str(cert)]) == (0, f"valid: 11 moves replay; final object has size {size}\n")


def test_example_prints_a_complex_and_a_map_that_reads_back(tmp_path):
    code, out = _run(["example", "dunce"])
    assert code == 0 and out == format_complex(load("dunce"))
    assert out.startswith("vertices: 1 2 3 4 5 6 7 8\n") and out.count("\nfacet: ") == 17
    code, out = _run(["example", "sierpinski-map"])
    assert code == 0 and out.startswith("dom: example:vee\ncod: example:sierpinski\n")
    m = tmp_path / "sierpinski.map"
    m.write_text(out)
    assert read_map(str(m)) == load("sierpinski-map")


def test_dot_of_a_complex_draws_its_one_skeleton():
    code, out = _run(["dot", "example:dunce"])
    assert code == 0 and out.startswith("graph {\n")
    assert len(re.findall(r'^  "\w+";$', out, re.M)) == 8
    assert len(re.findall(r'^  "\w+" -- "\w+";$', out, re.M)) == 24


def test_translate_point_collapse(capsys, wallet_file, tmp_path):
    assert main(["translate-collapse", wallet_file, "--point", "x"]) == 0
    text = capsys.readouterr().out
    cf = tmp_path / "t.cert"
    cf.write_text(text)
    assert main(["verify", str(cf)]) == 0
    capsys.readouterr()


def test_translate_pair_collapse(capsys, tmp_path):
    kf = tmp_path / "tri.cplx"
    kf.write_text("vertices: a b c\nfacet: a b c\n")
    assert main(["translate-collapse", str(kf), "--pair", "a,b", "c"]) == 0
    out = capsys.readouterr().out
    assert "remove a.b beat-up" in out
    assert "remove a.b.c down-weak" in out


def _both_sides(capsys, tmp_path, argv, kinds):
    assert main(argv + ["--emit-both-sides"]) == 0
    halves = capsys.readouterr().out.split("\n\n")
    assert len(halves) == 2
    for k, (half, kind) in enumerate(zip(halves, kinds)):
        assert isinstance(parse_certificate(half), kind)
        cf = tmp_path / f"side{k}.cert"
        cf.write_text(half)
        assert main(["verify", str(cf)]) == 0
        assert capsys.readouterr().out.startswith("valid: ")


def test_translate_point_emits_both_sides(capsys, wallet_file, tmp_path):
    argv = ["translate-collapse", wallet_file, "--point", "x"]
    _both_sides(capsys, tmp_path, argv, (SpaceMoveCertificate, SimplicialMoveCertificate))


def test_translate_pair_emits_both_sides(capsys, tmp_path):
    kf = tmp_path / "tri.cplx"
    kf.write_text("vertices: a b c\nfacet: a b c\n")
    argv = ["translate-collapse", str(kf), "--pair", "a,b", "c"]
    _both_sides(capsys, tmp_path, argv, (SimplicialMoveCertificate, SpaceMoveCertificate))


def test_homology_of_example(capsys):
    assert main(["homology", "example:dunce"]) == 0
    out = capsys.readouterr().out
    assert "H_0 = Z" in out
    assert main(["homology", "example:dunce", "--reduced"]) == 0
    assert "0" in capsys.readouterr().out


def test_homology_of_a_space_beyond_the_chain_cap(capsys, tmp_path):
    # an 18-point chain has 2**18 - 1 chains, over the cap, but its core is
    # one point
    chain = tmp_path / "chain.poset"
    chain.write_text(format_space(from_covers(
        [f"c{i}" for i in range(18)], [(f"c{i}", f"c{i + 1}") for i in range(17)]
    )))
    assert main(["homology", str(chain)]) == 0
    assert capsys.readouterr().out == "H_0 = Z\n" + "".join(
        f"H_{d} = 0\n" for d in range(1, 18)
    )
    # the core of this one still has about 2.5e6 chains
    big = tmp_path / "big.poset"
    big.write_text(format_space(random_poset(random.Random(1), 200, 0.05)))
    assert main(["homology", str(big)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.count("\n") == 1 and captured.err.startswith("too many chains: ")


def test_homology_past_the_smith_work_limit_is_inconclusive(capsys, monkeypatch):
    monkeypatch.setattr("finspace.homology.MAX_SMITH_WORK", 10)
    assert main(["homology", "example:dunce"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("inconclusive: ")


def test_homology_of_a_large_core_stops_at_the_smith_work_limit(capsys, tmp_path):
    # the core has 56 points and 51,482 chains, under the chain cap
    p = tmp_path / "big.poset"
    p.write_text(format_space(random_poset(random.Random(1), 78, 0.11)))
    code, took = scaled_cpu(lambda: main(["homology", str(p)]))
    assert code == 2
    # 3 s of CPU at the speed of the VM its bound was set on
    assert took < 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("inconclusive: ")


def test_homology_of_the_twice_subdivided_dunce_hat_face_poset(capsys, tmp_path):
    # X(sd²(dunce)) is its own core, and its order complex sd³(dunce) has
    # 10,993 simplices; one Smith work bound covers its boundary matrices
    sd2 = barycentric_subdivision(barycentric_subdivision(load("dunce")))
    p = tmp_path / "x-sd2-dunce.poset"
    p.write_text(format_space(face_poset(sd2)))
    assert main(["homology", "--reduced", str(p)]) == 0
    assert capsys.readouterr().out == "H~_0 = 0\nH~_1 = 0\nH~_2 = 0\n"


def test_translate_and_iso_refuse_bad_arguments_with_exit_3_and_one_line(capsys, tmp_path):
    poset = tmp_path / "a.poset"
    poset.write_text("elements: p q\ncover: p q\n")
    cplx = tmp_path / "k.cplx"
    cplx.write_text("vertices: a b\nfacet: a b\n")
    both = "exactly one of --point and --pair is required\n"
    for argv, err in (
        (["translate-collapse", str(poset)], both),
        (["translate-collapse", str(poset), "--point", "q", "--pair", "a", "b"], both),
        (["iso", str(poset), str(cplx)], "cannot compare a space with a complex\n"),
    ):
        assert main(argv) == 3
        assert capsys.readouterr() == ("", err)


def test_iso_between_relabeled_spaces(capsys, tmp_path):
    a = tmp_path / "a.poset"
    b = tmp_path / "b.poset"
    a.write_text("elements: p q\ncover: p q\n")
    b.write_text("elements: u v\ncover: v u\n")
    assert main(["iso", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "->" in out
    c = tmp_path / "c.poset"
    c.write_text("elements: p q\n")
    assert main(["iso", str(a), str(c)]) == 1
    assert "not isomorphic" in capsys.readouterr().err


def test_iso_deeper_than_the_recursion_limit(capsys, tmp_path):
    n = 300
    a = tmp_path / "a.poset"
    b = tmp_path / "b.poset"
    a.write_text(f"elements: {' '.join(f'c{i}' for i in range(n))}\n")
    b.write_text(f"elements: {' '.join(f'd{i}' for i in reversed(range(n)))}\n")
    k = tmp_path / "k.cplx"
    k.write_text(f"vertices: {' '.join(f'v{i}' for i in range(n))}\n")
    old = sys.getrecursionlimit()
    # A backtracker that recursed once per point would need n more frames.
    sys.setrecursionlimit(len(inspect.stack(0)) + n // 2)
    try:
        assert main(["iso", str(a), str(b)]) == 0
        space_out = capsys.readouterr().out
        assert main(["iso", str(k), str(k)]) == 0
        complex_out = capsys.readouterr().out
    finally:
        sys.setrecursionlimit(old)
    # antichains: point i goes to the first unused candidate, index i of b
    assert sorted(space_out.splitlines()) == sorted(f"c{i} -> d{n - 1 - i}" for i in range(n))
    assert sorted(complex_out.splitlines()) == sorted(f"v{i} -> v{i}" for i in range(n))


def test_unknown_suffix_exits_three_on_both_routes(capsys, tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("elements: a b\ncover: a b\n")
    assert main(["homology", str(p)]) == 3
    assert "use .poset or .cplx" in capsys.readouterr().err
    cert = tmp_path / "c.cert"
    cert.write_text("# reference\nstart: s.txt\nremove b up-weak\n")
    assert main(["verify", str(cert)]) == 3
    err = capsys.readouterr().err
    assert f"{cert}:2:" in err and "use .poset or .cplx" in err


def test_iso_mixed_kinds_is_an_input_error(capsys, tmp_path):
    a = tmp_path / "a.poset"
    a.write_text("elements: p\n")
    k = tmp_path / "k.cplx"
    k.write_text("vertices: a\nfacet: a\n")
    assert main(["iso", str(a), str(k)]) == 3


SD_TRIANGLE = """vertices: a a.b a.b.c a.c b b.c c
facet: a a.b a.b.c
facet: a a.b.c a.c
facet: a.b a.b.c b
facet: a.b.c a.c c
facet: a.b.c b b.c
facet: a.b.c b.c c
"""


def test_iso_of_the_subdivided_triangle_and_a_renamed_copy(capsys, tmp_path):
    rename = {"a": "q7", "b": "m2", "c": "z0", "a.b": "k1", "a.c": "b5", "b.c": "x3", "a.b.c": "c9"}
    renamed = "".join(
        " ".join([head, *(rename[v] for v in rest)]) + "\n"
        for head, *rest in map(str.split, SD_TRIANGLE.splitlines())
    )
    a, b = tmp_path / "sd.cplx", tmp_path / "renamed.cplx"
    a.write_text(SD_TRIANGLE)
    b.write_text(renamed)
    assert main(["iso", str(a), str(b)]) == 0
    assert capsys.readouterr().out == (
        "a -> b5\na.b -> q7\na.b.c -> c9\na.c -> z0\nb -> k1\nb.c -> m2\nc -> x3\n"
    )


def test_dot_output(capsys, wallet_file):
    assert main(["dot", wallet_file]) == 0
    assert "digraph" in capsys.readouterr().out


def test_example_listing_and_rendering(capsys):
    assert main(["example"]) == 0
    listing = capsys.readouterr().out
    assert "wallet" in listing and "dunce" in listing
    assert main(["example", "wallet"]) == 0
    assert "elements:" in capsys.readouterr().out
    assert main(["example", "no_such_example"]) == 3
    assert all(main(["example", e.name]) == 0 for e in entries())


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 8), st.data())
def test_k_prints_the_complex_of_all_chains(rng, n, data):
    x = drawn_poset(rng, data, n)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.poset")
        Path(path).write_text(format_space(x))
        assert _run(["k", path]) == (0, format_complex(SimplicialComplex(all_chains_brute(x))))


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 6), st.integers(1, 5))
def test_subdivide_prints_the_oracle_subdivision_of_a_complex(rng, n_vertices, n_facets):
    k = random_complex(rng, n_vertices, n_facets, max_simplices=20)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "k.cplx")
        Path(path).write_text(format_complex(k))
        assert _run(["subdivide", path]) == (0, format_complex(barycentric_oracle(k)))


def test_k_and_subdivide_build_no_chain_family(monkeypatch):
    argvs = [["k", "example:wallet"], ["k", "example:sd3"], ["subdivide", "example:dunce"]]
    before = [_run(argv) for argv in argvs]

    def refuse(*args, **kwargs):
        raise AssertionError("the chain family was built")

    monkeypatch.setattr("finspace.functors._chains", refuse)
    assert [_run(argv) for argv in argvs] == before
    assert all(code == 0 for code, _ in before)


def test_subdivide_and_bridge_of_a_space_build_no_order_complex(monkeypatch):
    # the subdivision comes from the chain index and the bridge's up-sets
    # from the fibres of h, not from K(X) as label sets or a transposition
    argvs = [["subdivide", "example:wallet"], ["subdivide", "example:sd3"],
             ["bridge", "example:wallet"]]
    before = [_run(argv) for argv in argvs]

    def refuse(*args, **kwargs):
        raise AssertionError("a slow route was taken")

    monkeypatch.setattr("finspace.functors.order_complex", refuse)
    monkeypatch.setattr("finspace.spaces._up_sets", refuse)
    assert [_run(argv) for argv in argvs] == before
    assert all(code == 0 for code, _ in before)


def test_runtime_does_not_import_numpy():
    # the child session of test_runtime cannot import numpy; among its
    # lines it finds the wallet's core, an isomorphism, and a refusal
    for out, _ in children():
        report = json.loads(out)
        runs = {line: run[:2] for line, run in zip(LINES, report["runs"])}
        assert "numpy" not in report["loaded"]
        assert [runs[line] for line in PINNED] == [[0, text] for text in PINNED.values()]
        assert runs["1 iso example:sd3 example:four-point"] == [1, ""]


MUTATION_TOKENS = ("ghost", "a", "b", "", "{", "}", "{}", "#", "a,b", "x#y", "vertices:",
                   "facet:", "start:", "add", "remove", "{a", "b}", "elements:", "cover:",
                   "send:", "dom:", "up-weak", "beat-down", "down={a}", "vee.poset")


@functools.cache
def _fuzz_inputs() -> tuple[dict[str, str], dict[str, str]]:
    """Small valid files as texts: those that get mutated, then the unmutated
    files beside them (a map's domain and codomain, the other side of iso)."""
    full = from_facets([["a", "b", "c"]])
    small = from_covers(list("abcde"), [("c", "a"), ("c", "b"), ("d", "c"), ("e", "a")])
    mutated = {
        "tri.cplx": "vertices: a b c\nfacet: a b c\n",
        "two.cplx": "vertices: a b c d\nfacet: a b c\nfacet: b c d\n",
        "collapse.cert": format_simplicial_certificate(collapse_sequence_search(full).certificate),
        "expansion.cert": format_simplicial_certificate(translate_space_collapse(load("wallet"), "x")),
        "small.poset": format_space(small),
        "vee.map": "dom: vee.poset\ncod: two.poset\nsend: b 0\nsend: c 0\nsend: a 1\n",
        "core.cert": format_space_certificate(core(small)[1]),
        "wallet-collapse.cert": format_space_certificate(collapse_search(load("wallet")).certificate),
        "bridge.cert": format_space_certificate(bridge_space(small).expansion),
    }
    beside = {
        "fixed.poset": format_space(small),
        "vee.poset": format_space(load("vee")),
        "two.poset": format_space(load("sierpinski")),
    }
    return mutated, beside


def _mutation(data, text: str) -> bytes:
    """The text with one token replaced or dropped, or one byte replaced,
    inserted or dropped."""
    if data.draw(st.booleans()):
        parts = re.split(r"(\s+)", text)
        k = data.draw(st.sampled_from(range(0, len(parts), 2)))
        parts[k] = data.draw(st.sampled_from([*MUTATION_TOKENS, *parts[::2]]))
        return "".join(parts).encode()
    raw = text.encode()
    k = data.draw(st.integers(0, len(raw) - 1))
    byte = bytes([data.draw(st.integers(0, 255))])
    kind = data.draw(st.sampled_from(["replace", "insert", "drop"]))
    new = {"replace": byte, "insert": byte + raw[k : k + 1], "drop": b""}[kind]
    return raw[:k] + new + raw[k + 1 :]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_complexes_and_certificates_exit_cleanly(data):
    inputs, beside = _fuzz_inputs()
    name = data.draw(st.sampled_from(sorted(inputs)))
    mutated = _mutation(data, inputs[name])
    if name.endswith(".cplx"):
        pair = data.draw(st.sampled_from([["a,b", "c"], ["a", "b"], ["b,c", "a"], ["a,,b", "c"]]))
        argvs = [["x"], ["subdivide"], ["homology"], ["translate-collapse", "--pair", *pair]]
    elif name.endswith(".poset"):
        point = data.draw(st.sampled_from(["a", "c", "d", "ghost"]))
        argvs = [["core"], ["core", "--certificate"], ["weak-points"], ["collapse", "--budget", "50"],
                 ["k"], ["subdivide"], ["bridge"], ["homology"], ["dot"],
                 ["translate-collapse", "--point", point], ["iso", "fixed.poset"]]
    elif name.endswith(".map"):
        argvs = [["cylinder"], ["cylinder", "--collapse"]]
    else:
        argvs = [["verify"]]
    with tempfile.TemporaryDirectory() as tmp:
        for other, text in beside.items():
            Path(tmp, other).write_text(text)
        path = os.path.join(tmp, name)
        with open(path, "wb") as fh:
            fh.write(mutated)
        for argv in argvs:
            rest = [os.path.join(tmp, a) if a.endswith(".poset") else a for a in argv[1:]]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([argv[0], path, *rest])
            assert code in (0, 1, 2, 3), (argv, mutated)
            if code == 3:
                assert err.getvalue().count("\n") == 1, (argv, mutated, err.getvalue())
                assert "Traceback" not in err.getvalue()
