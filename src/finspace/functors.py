"""Passage between finite spaces and simplicial complexes.

The order complex of a space has the nonempty chains as simplices; the face
poset of a complex orders the simplices by inclusion.  Round trips produce
barycentric subdivisions, and the comparison map sending a chain to its
maximum is distinguished.

The two certificate translators live here as well:

* ``translate_space_collapse`` turns the removal of a weak point into an
  explicit sequence of elementary simplicial expansions (read backwards, a
  collapse of the order complex).
* ``translate_simplicial_collapse`` turns the removal of a free pair into
  exactly two weak point removals on the face poset.

``bridge_space`` and ``cylinder_certificates`` produce the certified
expand-then-collapse routes through a common bigger space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .complexes import (
    SimplicialComplex,
    SimplicialMap,
    SimplicialMove,
    SimplicialMoveCertificate,
    _expansion_problem,
    dotted_label,
    is_contiguous,
)
from .maps import ContinuousMap, is_distinguished, mapping_cylinder
from .moves import SpaceMove, SpaceMoveCertificate, _strip_beats, is_weak_point
from .spaces import FiniteSpace

__all__ = [
    "order_complex",
    "face_poset",
    "space_subdivision",
    "h_map",
    "chain_label",
    "induced_simplicial",
    "induced_continuous",
    "contiguity_fence",
    "BridgeCertificates",
    "bridge_space",
    "CylinderCertificates",
    "cylinder_certificates",
    "expand_cone_pairs",
    "translate_space_collapse",
    "translate_simplicial_collapse",
]


def _chains(space: FiniteSpace) -> list[tuple[int, ...]]:
    """All nonempty chains as index tuples, ascending in the order."""
    lt = space.lt()
    above = [np.flatnonzero(lt[i]).tolist() for i in range(space.n)]
    out: list[tuple[int, ...]] = []
    chain: list[int] = []

    def grow(i: int) -> None:
        chain.append(i)
        out.append(tuple(chain))
        for j in above[i]:
            grow(j)
        chain.pop()

    for i in range(space.n):
        grow(i)
    return out


def order_complex(space: FiniteSpace) -> SimplicialComplex:
    """The complex whose simplices are the nonempty chains of the space."""
    labels = space.labels
    return SimplicialComplex(
        [[labels[i] for i in c] for c in _chains(space)]
    )


def _inclusion_order(
    sets: Sequence[frozenset], labels: Sequence[str], clash: str
) -> np.ndarray:
    """The matrix of s <= t over ``sets``, named by distinct ``labels``;
    ``clash`` is the error raised when two labels coincide."""
    if len(set(labels)) != len(labels):
        raise ValueError(clash)
    n = len(sets)
    rel = np.zeros((n, n), dtype=bool)
    for i, s in enumerate(sets):
        for j, t in enumerate(sets):
            if len(s) <= len(t) and s <= t:
                rel[i, j] = True
    return rel


def face_poset(k: SimplicialComplex) -> FiniteSpace:
    """The simplices of ``k`` ordered by inclusion.

    Points are named by joining the sorted vertex names with dots, which is
    what makes the subdivision identities literal equalities.
    """
    labels = tuple(dotted_label(s) for s in k.simplices)
    rel = _inclusion_order(
        k.simplices, labels, "dotted simplex names collide; rename the vertices"
    )
    return FiniteSpace(labels, rel)


def _sorted_chains(space: FiniteSpace) -> list[tuple[int, ...]]:
    """All nonempty chains, by size and then by their sorted labels."""
    return sorted(
        _chains(space),
        key=lambda c: (len(c), tuple(sorted(space.labels[i] for i in c))),
    )


def _subdivision(space: FiniteSpace) -> tuple[FiniteSpace, tuple[int, ...]]:
    """The subdivision and, for each of its points, the chain's maximum."""
    chains = _sorted_chains(space)
    sets = [frozenset(space.labels[i] for i in c) for c in chains]
    labels = tuple(dotted_label(s) for s in sets)
    rel = _inclusion_order(sets, labels, "dotted chain names collide; rename the points")
    return FiniteSpace(labels, rel), tuple(c[-1] for c in chains)


def space_subdivision(space: FiniteSpace) -> FiniteSpace:
    """The chains of the space ordered by inclusion, with dotted names.

    Equals ``face_poset(order_complex(space))`` on the nose.
    """
    return _subdivision(space)[0]


def h_map(space: FiniteSpace) -> ContinuousMap:
    """The comparison map from the subdivision, sending a chain to its maximum."""
    dom, maxima = _subdivision(space)
    return ContinuousMap(dom, space, maxima)


def chain_label(labels: Sequence[str]) -> str:
    """Render a chain given in ascending order, e.g. ``a<b<c``."""
    return "<".join(labels)


def induced_simplicial(f: ContinuousMap) -> SimplicialMap:
    """The map of order complexes a continuous map induces on chains."""
    return SimplicialMap.from_dict(
        order_complex(f.dom), order_complex(f.cod), f.label_map()
    )


def induced_continuous(phi: SimplicialMap) -> ContinuousMap:
    """The map of face posets a simplicial map induces on simplices."""
    dom = face_poset(phi.dom)
    cod = face_poset(phi.cod)
    mapping = {
        dotted_label(s): dotted_label(phi.image(s)) for s in phi.dom.simplices
    }
    return ContinuousMap.from_labels(dom, cod, mapping)


def contiguity_fence(
    phi: SimplicialMap, psi: SimplicialMap
) -> tuple[ContinuousMap, ContinuousMap, ContinuousMap]:
    """A length-two fence between the face poset maps of contiguous maps.

    The middle map sends a simplex to the union of its two images, which
    contiguity promises is again a simplex.
    """
    if not is_contiguous(phi, psi):
        raise ValueError("maps are not contiguous")
    left = induced_continuous(phi)
    right = induced_continuous(psi)
    mid_mapping = {
        dotted_label(s): dotted_label(phi.image(s) | psi.image(s))
        for s in phi.dom.simplices
    }
    mid = ContinuousMap.from_labels(left.dom, left.cod, mid_mapping)
    return (left, mid, right)


# -- the bridge between a space and its subdivision ---------------------------


@dataclass(frozen=True)
class BridgeCertificates:
    """A common bigger space with certified routes in and out.

    ``expansion`` starts at the original space (R-labelled copy) and adds
    every chain; ``collapse`` starts at the bridge and deletes the original
    copy, ending on the subdivision (L-labelled copy).
    """

    space: FiniteSpace
    expansion: SpaceMoveCertificate
    collapse: SpaceMoveCertificate


def bridge_space(space: FiniteSpace) -> BridgeCertificates:
    chains = _sorted_chains(space)
    chain_sets = [frozenset(c) for c in chains]
    l_labels = ["L:" + chain_label([space.labels[i] for i in c]) for c in chains]
    r_labels = ["R:" + l for l in space.labels]
    labels = tuple(l_labels + r_labels)

    nc, n = len(chains), space.n
    rel = np.zeros((nc + n, nc + n), dtype=bool)
    rel[:nc, :nc] = _inclusion_order(
        chain_sets, l_labels, "chain names collide; rename the points"
    )
    for i, c in enumerate(chains):
        rel[i, nc:] = space.leq[c[-1], :]
    rel[nc:, nc:] = space.leq
    bridge = FiniteSpace(labels, rel)

    start = FiniteSpace(tuple(r_labels), space.leq.copy())
    ext = bridge.subspace(range(nc)).linear_extension()
    adds = []
    for k in ext:
        down = tuple(
            sorted(l_labels[j] for j in range(nc) if chain_sets[j] < chain_sets[k])
        )
        up = tuple(
            sorted(r_labels[x] for x in range(n) if space.leq[chains[k][-1], x])
        )
        adds.append(SpaceMove("add", l_labels[k], "up-weak", down=down, up=up))
    expansion = SpaceMoveCertificate(start, tuple(adds))

    removals = tuple(
        SpaceMove("remove", r_labels[x], "down-weak")
        for x in space.linear_extension()
    )
    collapse = SpaceMoveCertificate(bridge, removals)
    return BridgeCertificates(bridge, expansion, collapse)


# -- the mapping cylinder ------------------------------------------------------


@dataclass(frozen=True)
class CylinderCertificates:
    """Certified deformation data for a map's non-Hausdorff cylinder.

    The expansion (codomain copy up to the cylinder) always exists.  The
    collapse back onto the domain copy exists exactly when the map is
    distinguished; otherwise ``collapse`` is None and ``refused_at`` names
    the first codomain point whose open-set preimage is not contractible.
    """

    cylinder: FiniteSpace
    expansion: SpaceMoveCertificate
    collapse: SpaceMoveCertificate | None
    refused_at: str | None


def cylinder_certificates(f: ContinuousMap) -> CylinderCertificates:
    cyl = mapping_cylinder(f)
    dom, cod = f.dom, f.cod
    start = FiniteSpace(tuple("R:" + l for l in cod.labels), cod.leq.copy())
    lt_dom = dom.lt()
    adds = []
    for i in dom.linear_extension():
        down = tuple(
            sorted("L:" + dom.labels[j] for j in np.flatnonzero(lt_dom[:, i]))
        )
        up = tuple(
            sorted(
                "R:" + cod.labels[y]
                for y in np.flatnonzero(cod.leq[f.images[i], :])
            )
        )
        adds.append(SpaceMove("add", "L:" + dom.labels[i], "up-weak", down=down, up=up))
    expansion = SpaceMoveCertificate(start, tuple(adds))

    report = is_distinguished(f)
    verdict = dict(report.per_point)
    refused_at = None
    collapse = None
    order = cod.linear_extension()
    for y in order:
        if not verdict[cod.labels[y]]:
            refused_at = cod.labels[y]
            break
    if refused_at is None:
        removals = tuple(
            SpaceMove("remove", "R:" + cod.labels[y], "down-weak") for y in order
        )
        collapse = SpaceMoveCertificate(cyl, removals)
    return CylinderCertificates(cyl, expansion, collapse, refused_at)


# -- weak point removal as a simplicial collapse --------------------------------


def expand_cone_pairs(
    base: SimplicialComplex, faces: Iterable[Sequence[str]], apex: str
) -> SimplicialMoveCertificate:
    """Certificate adding the pairs (S, S + apex) onto the base complex.

    Every face must be new, apex-free, and no face may be another plus the
    apex.  Faces are sorted by size; the run is simulated so an impossible
    family fails here rather than at replay time.
    """
    return SimplicialMoveCertificate(base, _cone_pair_moves(base, faces, apex))


def _cone_pair_moves(
    base: SimplicialComplex, faces: Iterable[Sequence[str]], apex: str
) -> tuple[SimplicialMove, ...]:
    fam = {frozenset(s) for s in base.simplices}
    pairs = []
    seen = set()
    for s in faces:
        fs = frozenset(s)
        if apex in fs:
            raise ValueError(f"face {sorted(fs)} contains the apex")
        if fs in fam:
            raise ValueError(f"face {sorted(fs)} is already present")
        if fs in seen:
            raise ValueError(f"face {sorted(fs)} listed twice")
        seen.add(fs)
        pairs.append(fs)
    for fs in pairs:
        if fs | {apex} in seen:
            raise ValueError("one face is another plus the apex; not a cone family")
    pairs.sort(key=lambda s: (len(s), tuple(sorted(s))))

    moves = []
    for fs in pairs:
        top = fs | {apex}
        problem = _expansion_problem(fam, fs, top)
        if problem is not None:
            raise ValueError(f"cannot expand by {sorted(fs)} + {apex!r}: {problem}")
        fam.add(fs)
        fam.add(top)
        moves.append(SimplicialMove("add", tuple(sorted(fs)), apex))
    return tuple(moves)


def _chains_through(
    space: FiniteSpace, members: Iterable[str], need: Iterable[str], avoid: Iterable[str]
) -> list[frozenset[str]]:
    """Chains of the given subspace containing all of ``need``, none of ``avoid``."""
    sub = space.subspace(space.index(m) for m in members)
    need = set(need)
    avoid = set(avoid)
    out = []
    for c in _chains(sub):
        s = {sub.labels[i] for i in c}
        if need <= s and not (avoid & s):
            out.append(frozenset(s))
    return out


def translate_space_collapse(space: FiniteSpace, x: str) -> SimplicialMoveCertificate:
    """Rebuild the order complex of the space from that of space minus ``x``.

    ``x`` must be a weak point.  The result is a certificate of elementary
    expansions from the smaller order complex to the full one; read in
    reverse it collapses the order complex onto that of the deletion.  An
    upward weak point is handled on the opposite space, which has the same
    chains.
    """
    side = is_weak_point(space, x)
    if side is None:
        raise ValueError(f"{x!r} is not a weak point")
    work = space if side in ("down-weak", "both") else space.opposite()

    start = order_complex(space.delete(x))
    # x is weak, so its punctured open set is contractible: stripping beat
    # points in any order leaves a single survivor.
    punctured = work.minimal_open(x).without(x).as_space()
    rest, removed = _strip_beats(punctured, punctured.labels, floor=1)
    (survivor,) = rest.labels
    cl = set(work.closure(x).labels)

    def grown(k: SimplicialComplex, stage: Sequence[SimplicialMove]) -> SimplicialComplex:
        return SimplicialComplex(
            list(k.simplices)
            + [list(m.face) for m in stage]
            + [list(m.face) + [m.apex] for m in stage]
        )

    current = start
    moves: list[SimplicialMove] = []
    first = _chains_through(work, cl, need=[x], avoid=[])
    stage = _cone_pair_moves(current, [sorted(s) for s in first], survivor)
    moves.extend(stage)
    current = grown(current, stage)
    kept = {survivor}
    for move, w in reversed(removed):
        kept.add(move.label)
        faces = _chains_through(work, cl | kept, need=[x, move.label], avoid=[w])
        stage = _cone_pair_moves(current, [sorted(s) for s in faces], w)
        moves.extend(stage)
        current = grown(current, stage)
    return SimplicialMoveCertificate(start, tuple(moves))


def translate_simplicial_collapse(
    k: SimplicialComplex, face: Iterable[str], apex: str
) -> SpaceMoveCertificate:
    """Remove a free pair from the face poset in exactly two weak point moves.

    The free face is a beat point (its only proper coface sits directly
    above it); the top simplex then has a punctured down-set that is the
    face poset of a cone, hence contractible.
    """
    fs = frozenset(face)
    top = fs | {apex}
    if apex in fs:
        raise ValueError("apex lies in the face")
    if k.proper_cofaces(fs) != (tuple(sorted(top)),):
        raise ValueError("not a free pair: the face must have exactly one proper coface")
    start = face_poset(k)
    moves = (
        SpaceMove("remove", dotted_label(fs), "beat-up"),
        SpaceMove("remove", dotted_label(top), "down-weak"),
    )
    return SpaceMoveCertificate(start, moves)
