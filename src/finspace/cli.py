"""Command-line interface.

Exit codes: 0 success or valid, 1 definite negative, 2 inconclusive
(budget ran out), 3 malformed input or input too large.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .complexes import (
    SimplicialComplex,
    SimplicialMove,
    SimplicialMoveCertificate,
    complex_isomorphic,
    verify_simplicial_certificate,
)
from .corpus import entries, load
from .fileio import (
    ParseError,
    _format_facets,
    dot_complex,
    dot_space,
    format_complex,
    format_space,
    format_space_certificate,
    format_simplicial_certificate,
    read_certificate,
    read_complex,
    read_map,
    read_space,
    read_space_or_complex,
)
from .functors import (
    _maximal_chains,
    bridge_space,
    cylinder_certificates,
    face_poset,
    space_subdivision,
    translate_simplicial_collapse,
    translate_space_collapse,
)
from .homology import Inconclusive, homology, homology_space
from .maps import ContinuousMap
from .moves import (
    SpaceMove,
    SpaceMoveCertificate,
    _weak_side,
    collapse_search,
    core,
    verify_space_certificate,
    weak_points,
)
from .spaces import FiniteSpace, _message, is_isomorphic


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; we reserve 2 for inconclusive."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _cmd_core(args) -> int:
    space = read_space(args.poset)
    smaller, cert = core(space)
    if args.certificate:
        sys.stdout.write(format_space_certificate(cert))
    else:
        sys.stdout.write(format_space(smaller))
    return 0


def _cmd_weak_points(args) -> int:
    space = read_space(args.poset)
    for label, side in weak_points(space):
        print(label, side)
    return 0


def _cmd_collapse(args) -> int:
    space = read_space(args.poset)
    target = read_space(args.target) if args.target else None
    res = collapse_search(space, target, budget=args.budget)
    if res.certificate is not None:
        sys.stdout.write(format_space_certificate(res.certificate))
        return 0
    if res.conclusive:
        print("no collapse exists: every move sequence was exhausted", file=sys.stderr)
        return 1
    print(f"inconclusive: budget of {args.budget} nodes ran out", file=sys.stderr)
    return 2


def _write_order_complex(space: FiniteSpace) -> None:
    """Print K(space): its vertices are the points, its facets the maximal
    chains, walked without building the other chains."""
    sys.stdout.write(_format_facets(sorted(space.labels), _maximal_chains(space)))


def _cmd_k(args) -> int:
    _write_order_complex(read_space(args.poset))
    return 0


def _cmd_x(args) -> int:
    sys.stdout.write(format_space(face_poset(read_complex(args.cplx))))
    return 0


def _cmd_subdivide(args) -> int:
    obj = read_space_or_complex(args.path)
    if isinstance(obj, FiniteSpace):
        sys.stdout.write(format_space(space_subdivision(obj)))
    else:
        _write_order_complex(face_poset(obj))
    return 0


def _cmd_bridge(args) -> int:
    br = bridge_space(read_space(args.poset))
    print("# expansion: the space grows into its bridge")
    sys.stdout.write(format_space_certificate(br.expansion))
    print()
    print("# collapse: the bridge falls onto the subdivision copy")
    sys.stdout.write(format_space_certificate(br.collapse))
    return 0


def _cmd_cylinder(args) -> int:
    f = read_map(args.map)
    cy = cylinder_certificates(f)
    if not args.collapse:
        sys.stdout.write(format_space_certificate(cy.expansion))
        return 0
    if cy.collapse is None:
        print(
            f"map is not distinguished: the open-set preimage at {cy.refused_at!r}"
            " is not contractible",
            file=sys.stderr,
        )
        return 1
    sys.stdout.write(format_space_certificate(cy.collapse))
    return 0


def _cmd_translate(args) -> int:
    if (args.point is None) == (args.pair is None):
        raise ValueError("exactly one of --point and --pair is required")
    if args.point is not None:
        space = read_space(args.path)
        cert = translate_space_collapse(space, args.point)
        if args.emit_both_sides:
            side = _weak_side(*space.masks(), space.index(args.point))
            move = SpaceMove("remove", args.point, side)
            print("# space-level move")
            sys.stdout.write(
                format_space_certificate(SpaceMoveCertificate(space, (move,)))
            )
            print()
            print("# simplicial translation")
        sys.stdout.write(format_simplicial_certificate(cert))
        return 0
    face, apex = args.pair
    vertices = face.split(",")
    k = read_complex(args.path)
    cert = translate_simplicial_collapse(k, vertices, apex)
    if args.emit_both_sides:
        move = SimplicialMove("remove", tuple(sorted(vertices)), apex)
        print("# simplicial-level move")
        sys.stdout.write(
            format_simplicial_certificate(SimplicialMoveCertificate(k, (move,)))
        )
        print()
        print("# face poset translation")
    sys.stdout.write(format_space_certificate(cert))
    return 0


def _cmd_verify(args) -> int:
    cert = read_certificate(args.certificate)
    if isinstance(cert, SpaceMoveCertificate):
        res = verify_space_certificate(cert)
    else:
        res = verify_simplicial_certificate(cert)
    if res.ok:
        size = res.final.n if isinstance(res.final, FiniteSpace) else len(res.final)
        print(f"valid: {len(cert.moves)} moves replay; final object has size {size}")
        return 0
    print(f"invalid at move {res.step}: {res.reason}", file=sys.stderr)
    return 1


def _cmd_homology(args) -> int:
    obj = read_space_or_complex(args.path)
    if isinstance(obj, FiniteSpace):
        report = homology_space(obj, reduced=args.reduced)
    else:
        report = homology(obj, reduced=args.reduced)
    print(report.format())
    return 0


def _cmd_iso(args) -> int:
    a = read_space_or_complex(args.a)
    b = read_space_or_complex(args.b)
    if isinstance(a, FiniteSpace) != isinstance(b, FiniteSpace):
        raise ValueError("cannot compare a space with a complex")
    found = (
        is_isomorphic(a, b)
        if isinstance(a, FiniteSpace)
        else complex_isomorphic(a, b)
    )
    if found is None:
        print("not isomorphic", file=sys.stderr)
        return 1
    for x in sorted(found):
        print(f"{x} -> {found[x]}")
    return 0


def _cmd_dot(args) -> int:
    obj = read_space_or_complex(args.path)
    if isinstance(obj, FiniteSpace):
        sys.stdout.write(dot_space(obj))
    else:
        sys.stdout.write(dot_complex(obj))
    return 0


def _cmd_example(args) -> int:
    if args.name is None:
        for e in entries():
            print(f"{e.name:16} {e.kind:8} {e.summary}")
        return 0
    obj = load(args.name)
    if isinstance(obj, FiniteSpace):
        sys.stdout.write(format_space(obj))
    elif isinstance(obj, SimplicialComplex):
        sys.stdout.write(format_complex(obj))
    else:
        assert isinstance(obj, ContinuousMap)
        dom = next(e.name for e in entries() if e.kind == "space" and load(e.name) == obj.dom)
        cod = next(e.name for e in entries() if e.kind == "space" and load(e.name) == obj.cod)
        print(f"dom: example:{dom}")
        print(f"cod: example:{cod}")
        for x, y in obj.label_map().items():
            print(f"send: {x} {y}")
    return 0


@functools.cache
def _build_parser() -> _Parser:
    """Built on the first call and kept: parsing never changes the parser."""
    parser = _Parser(prog="finspace", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("core", help="minimal deformation retract of a space")
    p.add_argument("poset")
    p.add_argument("--certificate", action="store_true",
                   help="print the removal certificate instead of the core")
    p.set_defaults(func=_cmd_core)

    p = sub.add_parser("weak-points", help="list weak points with their sides")
    p.add_argument("poset")
    p.set_defaults(func=_cmd_weak_points)

    p = sub.add_parser("collapse", help="search for a weak-point collapse")
    p.add_argument("poset")
    p.add_argument("--target", help="collapse onto this space instead of a point")
    p.add_argument("--budget", type=int, default=100_000,
                   help="search nodes to expand before giving up")
    p.set_defaults(func=_cmd_collapse)

    p = sub.add_parser("k", help="order complex of a space")
    p.add_argument("poset")
    p.set_defaults(func=_cmd_k)

    p = sub.add_parser("x", help="face poset of a complex")
    p.add_argument("cplx")
    p.set_defaults(func=_cmd_x)

    p = sub.add_parser("subdivide", help="barycentric subdivision (space or complex)")
    p.add_argument("path")
    p.set_defaults(func=_cmd_subdivide)

    p = sub.add_parser("bridge", help="certified route from a space to its subdivision")
    p.add_argument("poset")
    p.set_defaults(func=_cmd_bridge)

    p = sub.add_parser("cylinder", help="mapping cylinder certificates for a map")
    p.add_argument("map")
    p.add_argument("--collapse", action="store_true",
                   help="emit the collapse onto the domain (distinguished maps only)")
    p.set_defaults(func=_cmd_cylinder)

    p = sub.add_parser(
        "translate-collapse",
        help="turn a weak-point move into simplicial moves, or a free pair into weak-point moves",
    )
    p.add_argument("path")
    p.add_argument("--point", help="weak point of the space to translate")
    p.add_argument("--pair", nargs=2, metavar=("S", "A"),
                   help="free face (comma-separated vertices) and its coface vertex")
    p.add_argument("--emit-both-sides", action="store_true",
                   help="also print the certificate on the untranslated side")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("verify", help="replay a certificate")
    p.add_argument("certificate")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("homology", help="integral homology of a complex or a space")
    p.add_argument("path")
    p.add_argument("--reduced", action="store_true")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("iso", help="isomorphism test between two spaces or two complexes")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("dot", help="DOT drawing (Hasse diagram or 1-skeleton)")
    p.add_argument("path")
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser("example", help="print a built-in example, or list them all")
    p.add_argument("name", nargs="?")
    p.set_defaults(func=_cmd_example)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError, KeyError) as exc:
        print(_message(exc), file=sys.stderr)
        return 3
    except Inconclusive as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, RecursionError) as exc:
        print(f"input too large: {type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
