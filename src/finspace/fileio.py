"""Text formats for spaces, complexes, maps and certificates, plus DOT export.

Everything is line oriented and whitespace separated; ``#`` starts a comment.
A ``.poset`` file lists the points and the covering pairs, read onto upper
cover lists (a fault is reported at its line) for ``spaces._closed``; a
``.cplx`` file lists vertices and facets; a ``.map`` file points at two space
files and lists one ``send`` line per point.  Certificates start with either
a reference to a file (``start: path``) or an inline block (bare ``start:``
followed by space or complex lines, told apart by the first keyword), then
one move per line.

Anywhere a path is expected, ``example:<name>`` loads a built-in instead.
"""

from __future__ import annotations

import os
import re
from typing import Iterable

from .complexes import (
    SimplicialComplex,
    SimplicialMove,
    SimplicialMoveCertificate,
    from_facets,
)
from .corpus import load
from .maps import ContinuousMap
from .moves import SIDES, SpaceMove, SpaceMoveCertificate
from .spaces import FiniteSpace, _checked_labels, _closed, _message

__all__ = [
    "ParseError",
    "read_space",
    "read_complex",
    "read_map",
    "read_certificate",
    "read_space_or_complex",
    "parse_space",
    "parse_complex",
    "parse_certificate",
    "format_space",
    "format_complex",
    "format_space_certificate",
    "format_simplicial_certificate",
    "dot_space",
    "dot_complex",
]


class ParseError(Exception):
    def __init__(self, source: str, line: int | None, message: str):
        self.source = source
        self.line = line
        self.message = message
        where = source if line is None else f"{source}:{line}"
        super().__init__(f"{where}: {message}")


def _read_text(path: str) -> str:
    """The text of a UTF-8 file; a file that cannot be read is malformed input."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(path, None, getattr(exc, "strerror", None) or str(exc)) from exc


def _content_lines(text: str) -> list[tuple[int, str]]:
    """The numbered lines that are not blank once their comments are cut off."""
    lines = enumerate(text.splitlines(), 1)
    return [(no, line) for no, raw in lines if (line := raw.split("#", 1)[0].strip())]


def _example(name: str, want: tuple[type, ...], source: str) -> object:
    try:
        obj = load(name)
    except KeyError as exc:
        raise ParseError(source, None, _message(exc)) from exc
    if not isinstance(obj, want):
        kinds = " or ".join(t.__name__ for t in want)
        raise ParseError(source, None, f"example {name!r} is not a {kinds}")
    return obj


# -- spaces -------------------------------------------------------------------


def parse_space(text: str, source: str = "<string>") -> FiniteSpace:
    return _space_from_lines(_content_lines(text), source)


def _space_from_lines(lines: list[tuple[int, str]], source: str) -> FiniteSpace:
    elements: list[str] | None = None
    index: dict[str, int] = {}
    upper: list[list[int]] = []
    head_line = None
    for no, line in lines:
        parts = line.split()
        if parts[0] == "cover:":
            if len(parts) != 3:
                raise ParseError(source, no, "cover: needs exactly two labels")
            if elements is None:
                raise ParseError(source, no, "cover: before elements:")
            x, y = parts[1], parts[2]
            lo, hi = index.get(x), index.get(y)
            if lo is None or hi is None:
                raise ParseError(source, no, f"unknown point {x if lo is None else y!r}")
            if lo == hi:
                raise ParseError(source, no, f"cover pair ({x!r}, {y!r}) relates a point to itself")
            upper[lo].append(hi)
        elif parts[0] == "elements:":
            if elements is not None:
                raise ParseError(source, no, "second elements: line")
            elements = parts[1:]
            index = {lab: i for i, lab in enumerate(elements)}
            upper = [[] for _ in elements]
            head_line = no
        else:
            raise ParseError(source, no, f"unexpected line {line!r}")
    if elements is None:
        raise ParseError(source, None, "missing elements: line")
    try:
        return _closed(_checked_labels(elements), index, upper)
    except ValueError as exc:
        raise ParseError(source, head_line, str(exc)) from exc


def read_space(path: str) -> FiniteSpace:
    if path.startswith("example:"):
        return _example(path[8:], (FiniteSpace,), path)
    return parse_space(_read_text(path), path)


def format_space(space: FiniteSpace) -> str:
    lines = ["elements: " + " ".join(space.labels)]
    for x, y in space.hasse_edges():
        lines.append(f"cover: {x} {y}")
    return "\n".join(lines) + "\n"


# -- complexes ----------------------------------------------------------------


def parse_complex(text: str, source: str = "<string>") -> SimplicialComplex:
    return _complex_from_lines(_content_lines(text), source)


def _complex_from_lines(lines: list[tuple[int, str]], source: str) -> SimplicialComplex:
    vertices: list[str] | None = None
    known: set[str] = set()
    facets: list[list[str]] = []
    for no, line in lines:
        parts = line.split()
        if parts[0] == "vertices:":
            if vertices is not None:
                raise ParseError(source, no, "second vertices: line")
            vertices = parts[1:]
            known = set(vertices)
        elif parts[0] == "facet:":
            if len(parts) < 2:
                raise ParseError(source, no, "facet: needs at least one vertex")
            if vertices is None:
                raise ParseError(source, no, "facet: before vertices:")
            for p in parts[1:]:
                if p not in known:
                    raise ParseError(source, no, f"unknown vertex {p!r}")
            facets.append(parts[1:])
        else:
            raise ParseError(source, no, f"unexpected line {line!r}")
    if vertices is None:
        raise ParseError(source, None, "missing vertices: line")
    try:
        return from_facets(facets + [[v] for v in vertices])
    except ValueError as exc:
        raise ParseError(source, None, str(exc)) from exc


def read_complex(path: str) -> SimplicialComplex:
    if path.startswith("example:"):
        return _example(path[8:], (SimplicialComplex,), path)
    return parse_complex(_read_text(path), path)


def format_complex(k: SimplicialComplex) -> str:
    return _format_facets(k.vertices, k.facets())


def _format_facets(vertices: Iterable[str], facets: Iterable[Iterable[str]]) -> str:
    """The ``.cplx`` text of a complex given by its vertices and facets, each
    already in canonical order."""
    lines = ["vertices: " + " ".join(vertices)]
    lines.extend("facet: " + " ".join(f) for f in facets)
    return "\n".join(lines) + "\n"


def read_space_or_complex(path: str) -> FiniteSpace | SimplicialComplex:
    """Read a space or a complex, deciding by the ``.poset`` or ``.cplx``
    suffix, or by the kind of an ``example:`` entry."""
    if path.startswith("example:"):
        return _example(path[8:], (FiniteSpace, SimplicialComplex), path)
    if path.endswith(".poset"):
        return read_space(path)
    if path.endswith(".cplx"):
        return read_complex(path)
    raise ParseError(path, None, "cannot tell the kind; use .poset or .cplx")


# -- maps ---------------------------------------------------------------------


def _resolve(path: str, base_dir: str) -> str:
    if path.startswith("example:") or os.path.isabs(path):
        return path
    return os.path.join(base_dir, path)


def read_map(path: str) -> ContinuousMap:
    if path.startswith("example:"):
        return _example(path[8:], (ContinuousMap,), path)
    text = _read_text(path)
    base_dir = os.path.dirname(os.path.abspath(path))
    dom = cod = None
    sends: dict[str, str] = {}
    for no, line in _content_lines(text):
        parts = line.split()
        if parts[0] == "dom:" and len(parts) == 2:
            dom = read_space(_resolve(parts[1], base_dir))
        elif parts[0] == "cod:" and len(parts) == 2:
            cod = read_space(_resolve(parts[1], base_dir))
        elif parts[0] == "send:" and len(parts) == 3:
            if parts[1] in sends:
                raise ParseError(path, no, f"point {parts[1]!r} sent twice")
            sends[parts[1]] = parts[2]
        else:
            raise ParseError(path, no, f"unexpected line {line!r}")
    if dom is None or cod is None:
        raise ParseError(path, None, "need both dom: and cod: lines")
    try:
        return ContinuousMap.from_labels(dom, cod, sends)
    except (ValueError, KeyError) as exc:
        raise ParseError(path, None, _message(exc)) from exc


# -- certificates ---------------------------------------------------------------

_ATTACH_RE = re.compile(r"^down=\{([^{}]*)\}\s+up=\{([^{}]*)\}$")
_FACE_RE = re.compile(r"^\{([^{}]*)\}\s+(\S+)$")


def _parse_space_move(rest: str, direction: str, source: str, no: int) -> SpaceMove:
    parts = rest.split(None, 2)
    if len(parts) < 2:
        raise ParseError(source, no, "move needs a label and a side")
    label, side = parts[0], parts[1]
    if side not in SIDES:
        raise ParseError(source, no, f"unknown side {side!r}")
    if direction == "remove":
        if len(parts) > 2:
            raise ParseError(source, no, "trailing text after remove move")
        return SpaceMove("remove", label, side)
    if len(parts) != 3:
        raise ParseError(source, no, "add move needs down={...} up={...}")
    m = _ATTACH_RE.match(parts[2])
    if not m:
        raise ParseError(source, no, "add move needs down={...} up={...}")
    down = tuple(sorted(m.group(1).split()))
    up = tuple(sorted(m.group(2).split()))
    return SpaceMove("add", label, side, down=down, up=up)


def _parse_simplicial_move(
    rest: str, direction: str, source: str, no: int
) -> SimplicialMove:
    m = _FACE_RE.match(rest)
    if not m:
        raise ParseError(source, no, "move needs a {face} and an apex vertex")
    face = tuple(sorted(m.group(1).split()))
    if not face:
        raise ParseError(source, no, "empty face")
    try:
        return SimplicialMove(direction, face, m.group(2))
    except ValueError as exc:
        raise ParseError(source, no, str(exc)) from exc


def parse_certificate(
    text: str, source: str = "<string>", base_dir: str = "."
) -> SpaceMoveCertificate | SimplicialMoveCertificate:
    """Parse either certificate kind, deciding from the start block."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError(source, None, "empty certificate")
    no, first = lines[0]
    if not first.startswith("start:"):
        raise ParseError(source, no, "certificate must begin with start:")
    payload = first[6:].strip()

    body = lines[1:]
    if payload:
        try:
            start = read_space_or_complex(_resolve(payload, base_dir))
        except ParseError as exc:
            raise ParseError(source, no, f"start: {exc}") from exc
    else:
        heads = ("elements:", "cover:", "vertices:", "facet:")
        end = next(
            (k for k, (_, line) in enumerate(body) if line.split(None, 1)[0] not in heads),
            len(body),
        )
        block, body = body[:end], body[end:]
        if not block:
            raise ParseError(source, no, "bare start: needs an inline space or complex")
        if block[0][1].split()[0] in ("elements:", "cover:"):
            start = _space_from_lines(block, source)
        else:
            start = _complex_from_lines(block, source)

    moves = []
    for no, line in body:
        parts = line.split(None, 1)
        direction = parts[0]
        if direction not in ("remove", "add"):
            raise ParseError(source, no, f"unexpected line {line!r}")
        rest = parts[1] if len(parts) > 1 else ""
        if isinstance(start, FiniteSpace):
            moves.append(_parse_space_move(rest, direction, source, no))
        else:
            moves.append(_parse_simplicial_move(rest, direction, source, no))
    if isinstance(start, FiniteSpace):
        return SpaceMoveCertificate(start, tuple(moves))
    return SimplicialMoveCertificate(start, tuple(moves))


def read_certificate(path: str) -> SpaceMoveCertificate | SimplicialMoveCertificate:
    return parse_certificate(_read_text(path), path, os.path.dirname(os.path.abspath(path)))


def _format_space_move(move: SpaceMove) -> str:
    if move.direction == "remove":
        return f"remove {move.label} {move.side}"
    down = " ".join(sorted(move.down or ()))
    up = " ".join(sorted(move.up or ()))
    return f"add {move.label} {move.side} down={{{down}}} up={{{up}}}"


def format_space_certificate(cert: SpaceMoveCertificate) -> str:
    """Self-contained text: inline start block followed by the moves."""
    lines = ["start:"]
    lines.extend(format_space(cert.start).rstrip("\n").splitlines())
    lines.extend(_format_space_move(m) for m in cert.moves)
    return "\n".join(lines) + "\n"


def format_simplicial_certificate(cert: SimplicialMoveCertificate) -> str:
    lines = ["start:"]
    lines.extend(format_complex(cert.start).rstrip("\n").splitlines())
    for m in cert.moves:
        lines.append(f"{m.direction} {{{' '.join(m.face)}}} {m.apex}")
    return "\n".join(lines) + "\n"


# -- DOT export ------------------------------------------------------------------


def dot_space(space: FiniteSpace) -> str:
    """Hasse diagram, greater elements above, one rank per height."""
    h = space.heights()
    lines = ["digraph {", "  rankdir=TB;", "  node [shape=plaintext];"]
    for level in range(max(h, default=0), -1, -1):
        row = [space.labels[i] for i in range(space.n) if h[i] == level]
        if row:
            lines.append("  { rank=same; " + " ".join(f'"{l}";' for l in row) + " }")
    for x, y in space.hasse_edges():
        lines.append(f'  "{y}" -> "{x}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_complex(k: SimplicialComplex) -> str:
    """The 1-skeleton as an undirected graph."""
    lines = ["graph {", "  node [shape=plaintext];"]
    for v in k.vertices:
        lines.append(f'  "{v}";')
    for e in k.simplices_of_dim(1):
        lines.append(f'  "{e[0]}" -- "{e[1]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
