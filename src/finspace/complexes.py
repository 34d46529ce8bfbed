"""Abstract simplicial complexes with certified elementary collapses.

Every simplex is materialized (not only facets), because face posets, free
pair detection and move replay all need the full family.  An elementary
collapse removes a free pair: a simplex S whose only proper coface is
S + {a}, which is then necessarily maximal and one dimension higher.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

from .moves import ReplayResult, SearchResult, _budgeted_search
from .spaces import _check_label

__all__ = [
    "SimplicialComplex",
    "SimplicialMap",
    "SimplicialMove",
    "SimplicialMoveCertificate",
    "from_facets",
    "cone",
    "is_contiguous",
    "complex_isomorphic",
    "verify_simplicial_certificate",
    "collapse_sequence_search",
]

def _simplex(vertices: Iterable[str]) -> frozenset[str]:
    s = frozenset(vertices)
    if not s:
        raise ValueError("empty simplex")
    for v in s:
        _check_label(v)
    return s


def _key(s: frozenset[str]) -> tuple[int, tuple[str, ...]]:
    return (len(s), tuple(sorted(s)))


class SimplicialComplex:
    """A finite abstract simplicial complex over string vertex labels."""

    __slots__ = ("_set", "simplices", "vertices")

    def __init__(self, simplices: Iterable[Iterable[str]]):
        fam = frozenset(_simplex(s) for s in simplices)
        for s in fam:
            if len(s) > 1:
                for f in combinations(sorted(s), len(s) - 1):
                    if frozenset(f) not in fam:
                        raise ValueError(
                            f"not closed under faces: {sorted(s)} present, {list(f)} missing"
                        )
        self._set = fam
        self.simplices = tuple(sorted(fam, key=_key))
        self.vertices = tuple(sorted({v for s in fam for v in s}))

    # -- queries ---------------------------------------------------------

    def __contains__(self, s: Iterable[str]) -> bool:
        return frozenset(s) in self._set

    def __len__(self) -> int:
        return len(self._set)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._set == other._set

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self.vertices)} vertices, {len(self._set)} simplices)"

    @property
    def dim(self) -> int:
        return max((len(s) for s in self._set), default=0) - 1

    def f_vector(self) -> tuple[int, ...]:
        counts = [0] * (self.dim + 1 if self._set else 0)
        for s in self._set:
            counts[len(s) - 1] += 1
        return tuple(counts)

    def euler_characteristic(self) -> int:
        return sum((-1) ** (len(s) - 1) for s in self._set)

    def simplices_of_dim(self, d: int) -> tuple[tuple[str, ...], ...]:
        return tuple(tuple(sorted(s)) for s in self.simplices if len(s) == d + 1)

    def facets(self) -> tuple[tuple[str, ...], ...]:
        """Maximal simplices in canonical order."""
        out = [s for s in self._set if not self._proper_cofaces(s)]
        return tuple(tuple(sorted(s)) for s in sorted(out, key=_key))

    def _proper_cofaces(self, s: frozenset[str]) -> list[frozenset[str]]:
        return [t for t in self._set if s < t]

    def proper_cofaces(self, s: Iterable[str]) -> tuple[tuple[str, ...], ...]:
        fs = frozenset(s)
        if fs not in self._set:
            raise ValueError(f"{sorted(fs)} is not a simplex here")
        return tuple(tuple(sorted(t)) for t in sorted(self._proper_cofaces(fs), key=_key))

    # -- free pairs and moves ----------------------------------------------

    def free_pairs(self) -> list[tuple[tuple[str, ...], str]]:
        """All (S, a) with S + {a} the unique proper coface of S.

        Uniqueness forces S + {a} to be maximal and one dimension higher, so
        these are exactly the legal elementary collapses, in canonical order.
        """
        out = []
        for s in self.simplices:
            fs = frozenset(s)
            cof = self._proper_cofaces(fs)
            if len(cof) == 1:
                (apex,) = cof[0] - fs
                out.append((tuple(sorted(s)), apex))
        return out

    def elementary_collapse(
        self, face: Iterable[str], apex: str | None = None
    ) -> tuple["SimplicialComplex", "SimplicialMove"]:
        """Remove the free pair (face, face + {apex})."""
        fs = frozenset(face)
        if fs not in self._set:
            raise ValueError(f"{sorted(fs)} is not a simplex here")
        cof = self._proper_cofaces(fs)
        if len(cof) != 1:
            raise ValueError(f"{sorted(fs)} is not free: {len(cof)} proper cofaces")
        top = cof[0]
        (found,) = top - fs
        if apex is not None and apex != found:
            raise ValueError(f"coface vertex is {found!r}, not {apex!r}")
        smaller = SimplicialComplex(self._set - {fs, top})
        return smaller, SimplicialMove("remove", tuple(sorted(fs)), found)

    def elementary_expand(
        self, face: Iterable[str], apex: str
    ) -> tuple["SimplicialComplex", "SimplicialMove"]:
        """Inverse move: glue the pair (face, face + {apex}) along its boundary."""
        fs = _simplex(face)
        _check_label(apex)
        if apex in fs:
            raise ValueError(f"apex {apex!r} lies in the face")
        top = fs | {apex}
        problem = _expansion_problem(self._set, fs, top)
        if problem is not None:
            raise ValueError(problem)
        bigger = SimplicialComplex(self._set | {fs, top})
        return bigger, SimplicialMove("add", tuple(sorted(fs)), apex)


def _expansion_problem(
    fam: frozenset[frozenset[str]], fs: frozenset[str], top: frozenset[str]
) -> str | None:
    """Why (fs, top) cannot be glued onto fam; None when it can.

    The requirement is that the complex meets the new closed simplex exactly
    in the cone over the boundary of fs, i.e. every proper face of top other
    than fs is already present and neither fs nor top is.
    """
    if fs in fam:
        return f"face {sorted(fs)} already present"
    if top in fam:
        return f"coface {sorted(top)} already present"
    for k in range(1, len(top)):
        for sub in combinations(sorted(top), k):
            fsub = frozenset(sub)
            if fsub != fs and fsub not in fam:
                return f"boundary face {list(sub)} missing"
    return None


def from_facets(facets: Iterable[Iterable[str]]) -> SimplicialComplex:
    """Build the closure of the given maximal simplices."""
    fam: set[frozenset[str]] = set()
    for f in facets:
        top = _simplex(f)
        for k in range(1, len(top) + 1):
            for sub in combinations(sorted(top), k):
                fam.add(frozenset(sub))
    return SimplicialComplex(fam)


def cone(apex: str, base: SimplicialComplex) -> SimplicialComplex:
    """The join of a fresh vertex with a complex.

    The cone over the empty complex is the single vertex.
    """
    _check_label(apex)
    if apex in base.vertices:
        raise ValueError(f"apex {apex!r} is already a vertex of the base")
    fam = set(base._set)
    fam.add(frozenset({apex}))
    for s in base._set:
        fam.add(s | {apex})
    return SimplicialComplex(fam)


# -- simplicial maps ------------------------------------------------------


@dataclass(frozen=True)
class SimplicialMap:
    """A vertex map sending every simplex onto a simplex."""

    dom: SimplicialComplex
    cod: SimplicialComplex
    vertex_map: tuple[tuple[str, str], ...]

    @classmethod
    def from_dict(
        cls, dom: SimplicialComplex, cod: SimplicialComplex, mapping: Mapping[str, str]
    ) -> "SimplicialMap":
        return cls(dom, cod, tuple(sorted(mapping.items())))

    def __post_init__(self) -> None:
        m = dict(self.vertex_map)
        if set(m) != set(self.dom.vertices):
            raise ValueError("vertex map must cover exactly the domain vertices")
        for v, w in m.items():
            if w not in set(self.cod.vertices):
                raise ValueError(f"image vertex {w!r} is not in the codomain")
        for s in self.dom.simplices:
            if frozenset(m[v] for v in s) not in self.cod:
                raise ValueError(f"image of simplex {list(s)} is not a simplex")

    def mapping(self) -> dict[str, str]:
        return dict(self.vertex_map)

    def image(self, s: Iterable[str]) -> frozenset[str]:
        m = dict(self.vertex_map)
        return frozenset(m[v] for v in s)

    def compose(self, other: "SimplicialMap") -> "SimplicialMap":
        """self after other."""
        if other.cod is not self.dom and other.cod != self.dom:
            raise ValueError("codomain/domain mismatch")
        m = dict(self.vertex_map)
        return SimplicialMap.from_dict(
            other.dom, self.cod, {v: m[w] for v, w in other.vertex_map}
        )


def is_contiguous(f: SimplicialMap, g: SimplicialMap) -> bool:
    """True when f(s) + g(s) is a simplex of the codomain for every s."""
    if f.dom != g.dom or f.cod != g.cod:
        raise ValueError("contiguity needs a common domain and codomain")
    for s in f.dom.simplices:
        if f.image(s) | g.image(s) not in f.cod:
            return False
    return True


# -- isomorphism ------------------------------------------------------------


def _vertex_signatures(k: SimplicialComplex) -> dict[str, tuple]:
    base: dict[str, list[int]] = {v: [0] * (k.dim + 1) for v in k.vertices}
    for s in k.simplices:
        for v in s:
            base[v][len(s) - 1] += 1
    sig = {v: tuple(c) for v, c in base.items()}
    # one refinement round over edge neighborhoods
    out = {}
    for v in k.vertices:
        nbrs = sorted(
            sig[w] for s in k.simplices if len(s) == 2 and v in s for w in s if w != v
        )
        out[v] = (sig[v], tuple(nbrs))
    return out


def complex_isomorphic(
    a: SimplicialComplex, b: SimplicialComplex
) -> dict[str, str] | None:
    """Vertex bijection carrying simplices onto simplices, or None."""
    if len(a.vertices) != len(b.vertices) or a.f_vector() != b.f_vector():
        return None
    sig_a = _vertex_signatures(a)
    sig_b = _vertex_signatures(b)
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return None
    buckets: dict[tuple, list[str]] = {}
    for w in b.vertices:
        buckets.setdefault(sig_b[w], []).append(w)
    order = sorted(a.vertices, key=lambda v: (len(buckets[sig_a[v]]), v))
    image: dict[str, str] = {}
    used: set[str] = set()
    edges_a = {frozenset(s) for s in a.simplices if len(s) == 2}
    edges_b = {frozenset(s) for s in b.simplices if len(s) == 2}

    def extend(k: int) -> bool:
        if k == len(order):
            mapped = {frozenset(image[v] for v in s) for s in a.simplices}
            return mapped == b._set
        v = order[k]
        for w in buckets.get(sig_a[v], ()):
            if w in used:
                continue
            if any(
                (frozenset((v, u)) in edges_a) != (frozenset((w, image[u])) in edges_b)
                for u in image
            ):
                continue
            image[v] = w
            used.add(w)
            if extend(k + 1):
                return True
            del image[v]
            used.discard(w)
        return False

    return dict(image) if extend(0) else None


# -- subdivision --------------------------------------------------------------


def dotted_label(s: Iterable[str]) -> str:
    """Canonical name of a simplex used when simplices become vertices."""
    return ".".join(sorted(s))


def barycentric_subdivision(k: SimplicialComplex) -> SimplicialComplex:
    """First barycentric subdivision.

    Vertices are the simplices of ``k`` (under their canonical dotted
    names); simplices are the chains of simplices ordered by inclusion.
    Built directly from the inclusion relation, not through the face poset,
    so the functor route has an independent implementation to agree with.
    """
    elems = list(k.simplices)
    if len({dotted_label(s) for s in elems}) != len(elems):
        raise ValueError("dotted simplex names collide; rename the vertices")
    fam: set[frozenset[str]] = set()

    def grow(chain: list[tuple[str, ...]]) -> None:
        fam.add(frozenset(dotted_label(s) for s in chain))
        last = frozenset(chain[-1])
        for s in elems:
            if len(s) > len(chain[-1]) and last < frozenset(s):
                grow(chain + [s])

    for s in elems:
        grow([s])
    return SimplicialComplex(fam)


# -- certificates ---------------------------------------------------------------


@dataclass(frozen=True)
class SimplicialMove:
    """One elementary collapse ('remove') or expansion ('add') of the free
    pair (face, face + {apex})."""

    direction: str
    face: tuple[str, ...]
    apex: str

    def __post_init__(self) -> None:
        if self.direction not in ("remove", "add"):
            raise ValueError(f"bad move direction {self.direction!r}")
        if self.apex in self.face:
            raise ValueError("apex lies in the face")


@dataclass(frozen=True)
class SimplicialMoveCertificate:
    start: SimplicialComplex
    moves: tuple[SimplicialMove, ...]

    def __len__(self) -> int:
        return len(self.moves)


def verify_simplicial_certificate(cert: SimplicialMoveCertificate) -> ReplayResult:
    """Replay each move, rechecking freeness (or gluing legality) from scratch."""
    current = cert.start
    for k, move in enumerate(cert.moves):
        fs = frozenset(move.face)
        if move.direction == "remove":
            if fs not in current:
                return ReplayResult(False, k, f"{list(move.face)} is not a simplex")
            cof = current._proper_cofaces(fs)
            if len(cof) != 1 or cof[0] != fs | {move.apex}:
                return ReplayResult(
                    False, k, f"{list(move.face)} is not free with apex {move.apex!r}"
                )
            current = SimplicialComplex(current._set - {fs, fs | {move.apex}})
        else:
            problem = _expansion_problem(current._set, fs, fs | {move.apex})
            if problem is not None:
                return ReplayResult(False, k, problem)
            current = SimplicialComplex(current._set | {fs, fs | {move.apex}})
    return ReplayResult(True, None, "", current)


# -- collapse search ---------------------------------------------------------


def collapse_sequence_search(
    k: SimplicialComplex,
    target: SimplicialComplex | None = None,
    budget: int = 100_000,
) -> SearchResult:
    """Depth-first search for a collapse sequence down to ``target``.

    None means a single vertex.  Free pairs are tried in canonical order;
    states already visited up to isomorphism are pruned, so exhausting the
    frontier within budget makes a negative conclusive.
    """
    goal_len = 1 if target is None else len(target)

    def at_goal(c: SimplicialComplex) -> bool:
        # a complex with a single simplex is a single vertex
        return len(c) == goal_len and (
            target is None or complex_isomorphic(c, target) is not None
        )

    def expand(c: SimplicialComplex):
        if len(c) > goal_len:
            for face, apex in c.free_pairs():
                child, move = c.elementary_collapse(face, apex)
                yield move, child

    def fingerprint(c: SimplicialComplex) -> tuple:
        return (c.f_vector(), tuple(sorted(_vertex_signatures(c).values())))

    path, conclusive, nodes = _budgeted_search(
        k, expand, at_goal, fingerprint, complex_isomorphic, budget
    )
    cert = None if path is None else SimplicialMoveCertificate(k, path)
    return SearchResult(cert, conclusive, nodes)
