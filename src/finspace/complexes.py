"""Abstract simplicial complexes with certified elementary collapses.

A complex stores one form of its simplices, all of them, not only facets:
the canonical tuple ``simplices`` of vertex frozensets, ordered by size and
then by sorted vertices, which ``_canonical`` sorts for every build but a
collapse; its sorted vertices are its leading one-point simplices.  An
elementary collapse removes a free pair: a simplex S whose only proper
coface is S + {a}, which is then necessarily maximal and one dimension
higher.  Membership, free pairs, collapses (in search too), face posets and
the facets of a complex built from outside read one face index, built
once: each simplex's position in ``simplices`` and the ascending positions
of its cofacets, the simplices one vertex larger that contain it.  Facets
have no cofacet, S is free when it has exactly one, and the functors close
those lists upward and downward into the face poset's masks.  A collapse
hands its child a slice of the parent's tuple without the pair, so search
children are not sorted again.  The start complex of a translated
weak-point removal is given its facets, the maximal chains, by the
functors' walk up the covers; every other complex reads them off the face
index.  The constructor validates families from outside; ``from_facets``,
``cone`` and the moves check only what they add.  The certificate verifier
replays on its own plain set of simplices, rescans it for the cofaces of
every removed face, and validates one complex, the end of the replay.
Each complex caches its isomorphism invariants, as a space does: vertex
signatures, a fingerprint (f-vector and sorted signatures) that rules pairs
out and buckets search states, and edge bitmasks for the engine of ``spaces``.
Simplicial maps, moves and certificates are records on the ``_Record`` base
of ``spaces``; a map checks in its constructor that it sends simplices onto
simplices, and keeps its vertex dict out of equality and printing.
"""

from __future__ import annotations

from itertools import combinations, islice, takewhile
from typing import Container, Iterable, Mapping

from .moves import ReplayResult, SearchResult, _budgeted_search
from .spaces import _cached, _check_label, _first_isomorphism, _Record, _set

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


def _canonical(family: Iterable[frozenset[str]]) -> tuple[frozenset[str], ...]:
    """Distinct simplices in canonical order: by size, then sorted vertices."""
    simplices = sorted(family, key=sorted)
    simplices.sort(key=len)  # stable, so each size keeps its vertex order
    return tuple(simplices)


class SimplicialComplex:
    """A finite abstract simplicial complex over string vertex labels."""

    __slots__ = ("simplices", "vertices", "_memo")

    def __init__(self, simplices: Iterable[Iterable[str]]):
        fam = frozenset(_simplex(s) for s in simplices)
        for s in fam:
            if len(s) > 1:
                for f in combinations(sorted(s), len(s) - 1):
                    if frozenset(f) not in fam:
                        raise ValueError(
                            f"not closed under faces: {sorted(s)} present, {list(f)} missing"
                        )
        self._fill(_canonical(fam))

    @classmethod
    def _trusted(cls, simplices: tuple[frozenset[str], ...]) -> "SimplicialComplex":
        """A complex that stores ``simplices``, a face-closed family of valid
        simplices already in canonical order, as it is and unchecked."""
        k = cls.__new__(cls)
        k._fill(simplices)
        return k

    def _fill(self, simplices: tuple[frozenset[str], ...]) -> None:
        """Store the canonical simplex tuple, a complex's one stored form; its
        leading one-point simplices are its vertices, as it is face-closed."""
        self.simplices = simplices
        self.vertices = tuple(v for (v,) in takewhile(lambda s: len(s) == 1, simplices))
        self._memo: dict = {}

    @_cached
    def _faces(self) -> tuple[dict[frozenset[str], int], list[list[int]]]:
        """Each simplex's position in ``simplices``, and per position the
        ascending positions of its cofacets."""
        where = {s: i for i, s in enumerate(self.simplices)}
        cofacets: list[list[int]] = [[] for _ in where]
        for i, t in enumerate(self.simplices):
            if len(t) > 1:
                for v in t:
                    cofacets[where[t - {v}]].append(i)
        return where, cofacets

    # -- queries ---------------------------------------------------------

    def __contains__(self, s: Iterable[str]) -> bool:
        return frozenset(s) in self._faces()[0]

    def __len__(self) -> int:
        return len(self.simplices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.simplices == other.simplices

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self.vertices)} vertices, {len(self.simplices)} simplices)"

    @property
    def dim(self) -> int:
        """The largest simplex dimension (simplices are sorted by size); -1 when empty."""
        return len(self.simplices[-1]) - 1 if self.simplices else -1

    def f_vector(self) -> tuple[int, ...]:
        counts = [0] * (self.dim + 1)
        for s in self.simplices:
            counts[len(s) - 1] += 1
        return tuple(counts)

    def euler_characteristic(self) -> int:
        return sum((-1) ** (len(s) - 1) for s in self.simplices)

    def simplices_of_dim(self, d: int) -> tuple[tuple[str, ...], ...]:
        return tuple(tuple(sorted(s)) for s in self.simplices if len(s) == d + 1)

    @_cached
    def facets(self) -> tuple[tuple[str, ...], ...]:
        """Maximal simplices in canonical order.

        The start of a translated weak-point removal comes with its maximal
        chains stored here; any other complex takes the face index entries
        with no cofacet, once.
        """
        cofacets = self._faces()[1]
        return tuple(tuple(sorted(s)) for s, c in zip(self.simplices, cofacets) if not c)

    def proper_cofaces(self, s: Iterable[str]) -> tuple[tuple[str, ...], ...]:
        """The simplices strictly containing s, in canonical order."""
        fs = frozenset(s)
        if fs not in self:
            raise ValueError(f"{sorted(fs)} is not a simplex here")
        return tuple(tuple(sorted(t)) for t in self.simplices if fs < t)

    # -- free pairs and moves ----------------------------------------------

    def free_pairs(self) -> list[tuple[tuple[str, ...], str]]:
        """All (S, a) with S + {a} the unique proper coface of S.

        Uniqueness forces S + {a} to be maximal and one dimension higher, so
        these are exactly the legal elementary collapses, in canonical order.
        One cofacet suffices: every proper coface contains some cofacet
        S + {b}, and S + {a, b} would make S + {b} a second, so S is free iff
        its face index entry lists exactly one cofacet, whose extra vertex is a.
        """
        simplices, cofacets = self.simplices, self._faces()[1]
        return [
            (tuple(sorted(s)), min(simplices[c[0]] - s))
            for s, c in zip(simplices, cofacets)
            if len(c) == 1
        ]

    def elementary_collapse(
        self, face: Iterable[str], apex: str | None = None
    ) -> tuple["SimplicialComplex", "SimplicialMove"]:
        """Remove the free pair (face, face + {apex}); the child keeps the
        parent's canonical tuple without the pair."""
        fs = frozenset(face)
        where, cofacets = self._faces()
        if fs not in where:
            raise ValueError(f"{sorted(fs)} is not a simplex here")
        i = where[fs]
        above = cofacets[i]
        if len(above) != 1:
            n = len(self.proper_cofaces(fs))
            raise ValueError(f"{sorted(fs)} is not free: {n} proper cofaces")
        j, simplices = above[0], self.simplices
        (found,) = simplices[j] - fs
        if apex is not None and apex != found:
            raise ValueError(f"coface vertex is {found!r}, not {apex!r}")
        rest = simplices[:i] + simplices[i + 1:j] + simplices[j + 1:]
        smaller = SimplicialComplex._trusted(rest)
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
        problem = _expansion_problem(self._faces()[0], fs, top)
        if problem is not None:
            raise ValueError(problem)
        bigger = SimplicialComplex._trusted(_canonical([*self.simplices, fs, top]))
        return bigger, SimplicialMove("add", tuple(sorted(fs)), apex)

    # -- isomorphism invariants, computed once per complex ------------------

    @_cached
    def _signatures(self) -> list[tuple]:
        """Per-vertex isomorphism invariant, in vertex order: the simplex
        count by dimension, refined by the neighbours' counts."""
        base: dict[str, list[int]] = {v: [0] * (self.dim + 1) for v in self.vertices}
        for s in self.simplices:
            for v in s:
                base[v][len(s) - 1] += 1
        sig = {v: tuple(c) for v, c in base.items()}
        # one refinement round over edge neighborhoods
        nbrs: dict[str, list[tuple]] = {v: [] for v in self.vertices}
        for s in self.simplices:
            if len(s) == 2:
                v, w = s
                nbrs[v].append(sig[w])
                nbrs[w].append(sig[v])
        return [(sig[v], tuple(sorted(nbrs[v]))) for v in self.vertices]

    @_cached
    def _fingerprint(self) -> tuple:
        """Isomorphism-invariant key: complexes whose keys differ are not
        isomorphic, and the collapse search buckets its states by it."""
        return (self.f_vector(), tuple(sorted(self._signatures())))

    @_cached
    def _edges(self) -> list[int]:
        """The 1-skeleton as per-vertex adjacency bitmasks, in vertex order."""
        index = {v: i for i, v in enumerate(self.vertices)}
        adj = [0] * len(index)
        # simplices are sorted by size, so the edges follow the vertices
        for s in islice(self.simplices, len(index), None):
            if len(s) > 2:
                break
            v, w = s
            i, j = index[v], index[w]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return adj


def _expansion_problem(
    fam: Container[frozenset[str]], fs: frozenset[str], top: frozenset[str]
) -> str | None:
    """Why (fs, top) cannot be glued onto fam; None when it can.

    The requirement is that the complex meets the new closed simplex exactly
    in the cone over the boundary of fs, i.e. every proper face of top other
    than fs is already present and neither fs nor top is.  Both callers pass
    a family closed under faces (a complex's face index, or the verifier's
    replay, which every move keeps closed), so top in fam would put fs in fam too,
    and the check of fs covers top.  An empty fs, which only a hand-built
    move can bring, passes here and is refused by the verifier's simplex
    check right after.
    """
    if fs in fam:
        return f"face {sorted(fs)} already present"
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
    return SimplicialComplex._trusted(_canonical(fam))


def cone(apex: str, base: SimplicialComplex) -> SimplicialComplex:
    """The join of a fresh vertex with a complex.

    The cone over the empty complex is the single vertex.
    """
    _check_label(apex)
    if apex in base.vertices:
        raise ValueError(f"apex {apex!r} is already a vertex of the base")
    tops = [s | {apex} for s in base.simplices]
    return SimplicialComplex._trusted(_canonical([frozenset({apex}), *base.simplices, *tops]))


# -- simplicial maps ------------------------------------------------------


class SimplicialMap(_Record):
    """A vertex map sending every simplex onto a simplex."""

    __match_args__ = ("dom", "cod", "vertex_map")
    __slots__ = __match_args__ + ("_map",)

    def __init__(
        self,
        dom: SimplicialComplex,
        cod: SimplicialComplex,
        vertex_map: tuple[tuple[str, str], ...],
    ) -> None:
        m = dict(vertex_map)
        if set(m) != set(dom.vertices):
            raise ValueError("vertex map must cover exactly the domain vertices")
        cod_vertices = set(cod.vertices)
        for w in m.values():
            if w not in cod_vertices:
                raise ValueError(f"image vertex {w!r} is not in the codomain")
        for s in dom.simplices:
            if frozenset(m[v] for v in s) not in cod:
                raise ValueError(f"image of simplex {sorted(s)} is not a simplex")
        _set(self, "dom", dom)
        _set(self, "cod", cod)
        _set(self, "vertex_map", vertex_map)
        _set(self, "_map", m)

    @classmethod
    def from_dict(
        cls, dom: SimplicialComplex, cod: SimplicialComplex, mapping: Mapping[str, str]
    ) -> "SimplicialMap":
        return cls(dom, cod, tuple(sorted(mapping.items())))

    def mapping(self) -> dict[str, str]:
        return dict(self.vertex_map)

    def image(self, s: Iterable[str]) -> frozenset[str]:
        return frozenset(self._map[v] for v in s)

    def compose(self, other: "SimplicialMap") -> "SimplicialMap":
        """self after other."""
        if other.cod is not self.dom and other.cod != self.dom:
            raise ValueError("codomain/domain mismatch")
        return SimplicialMap.from_dict(
            other.dom, self.cod, {v: self._map[w] for v, w in other.vertex_map}
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


def complex_isomorphic(
    a: SimplicialComplex, b: SimplicialComplex
) -> dict[str, str] | None:
    """Vertex bijection carrying simplices onto simplices, or None: the first
    bijection keeping signatures and edges that maps each simplex onto one.
    Complexes whose fingerprints differ are not compared further."""
    if a._fingerprint() != b._fingerprint():
        return None

    def named(image: list[int]) -> dict[str, str]:
        return dict(zip(a.vertices, (b.vertices[j] for j in image)))

    def onto(image: list[int]) -> bool:
        image_of = named(image)
        return {frozenset(map(image_of.get, s)) for s in a.simplices} == b._faces()[0].keys()

    image = _first_isomorphism(
        a._signatures(), b._signatures(), (a._edges(),), (b._edges(),), onto
    )
    return None if image is None else named(image)


# -- simplex names ------------------------------------------------------------


def dotted_label(s: Iterable[str]) -> str:
    """Canonical name of a simplex used when simplices become vertices."""
    return ".".join(sorted(s))


# -- certificates ---------------------------------------------------------------


class SimplicialMove(_Record):
    """One elementary collapse ('remove') or expansion ('add') of the free
    pair (face, face + {apex})."""

    __slots__ = __match_args__ = ("direction", "face", "apex")

    def __init__(self, direction: str, face: tuple[str, ...], apex: str) -> None:
        if direction not in ("remove", "add"):
            raise ValueError(f"bad move direction {direction!r}")
        if apex in face:
            raise ValueError("apex lies in the face")
        _set(self, "direction", direction)
        _set(self, "face", face)
        _set(self, "apex", apex)


class SimplicialMoveCertificate(_Record):
    """A start complex and the tuple of ``SimplicialMove``s applied to it in
    turn."""

    __slots__ = __match_args__ = ("start", "moves")

    def __len__(self) -> int:
        return len(self.moves)


def verify_simplicial_certificate(cert: SimplicialMoveCertificate) -> ReplayResult:
    """Replay each move, rechecking freeness (or gluing legality) from scratch.

    The replay runs on the verifier's own set of simplices; the one complex
    it validates is the end, ``ReplayResult.final``."""
    fam = set(cert.start.simplices)
    for k, move in enumerate(cert.moves):
        fs = frozenset(move.face)
        top = fs | {move.apex}
        if move.direction == "remove":
            if fs not in fam:
                return ReplayResult(False, k, f"{list(move.face)} is not a simplex")
            cof = [t for t in fam if fs < t]
            if len(cof) != 1 or cof[0] != top:
                return ReplayResult(
                    False, k, f"{list(move.face)} is not free with apex {move.apex!r}"
                )
            fam -= {fs, top}
        else:
            problem = _expansion_problem(fam, fs, top)
            if problem is not None:
                return ReplayResult(False, k, problem)
            try:  # refuse a bad label at its move, not at the end
                _simplex(fs)
                _check_label(move.apex)
            except ValueError as exc:
                return ReplayResult(False, k, str(exc))
            fam |= {fs, top}
    return ReplayResult(True, None, "", SimplicialComplex(fam))


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

    def expand(c: SimplicialComplex) -> list[SimplicialMove]:
        if len(c) <= goal_len:
            return []
        return [SimplicialMove("remove", face, apex) for face, apex in c.free_pairs()]

    def build(c: SimplicialComplex, move: SimplicialMove) -> SimplicialComplex:
        return c.elementary_collapse(move.face, move.apex)[0]

    path, conclusive, nodes = _budgeted_search(
        k, expand, build, at_goal, SimplicialComplex._fingerprint, complex_isomorphic, budget
    )
    cert = None if path is None else SimplicialMoveCertificate(k, path)
    return SearchResult(cert, conclusive, nodes)
