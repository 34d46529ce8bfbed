"""Passage between finite spaces and simplicial complexes.

The order complex of a space has the nonempty chains as simplices and the
maximal chains as facets; the face poset of a complex orders the simplices by
inclusion, read off the complex's face index, whose cofacet lists are its
upper cover lists, stored with it and closed into its masks along
``range(n)``.  The maximal chains are reached on their own by a walk up the
covers, so K(X) is printed from its vertices and facets without building its
other chains.  Round trips produce barycentric subdivisions: the subdivision
of a space is the face poset of its order complex, built from the chain
index tuples without that complex, and the comparison map sending a chain
to its maximum is distinguished.

The two certificate translators live here as well:

* ``translate_space_collapse`` turns the removal of a weak point into an
  explicit sequence of elementary simplicial expansions (read backwards, a
  collapse of the order complex); an up-weak point is stripped on the
  swapped masks, the opposite order, which has the same chains.
* ``translate_simplicial_collapse`` turns the removal of a free pair into
  exactly two weak point removals on the face poset.

``cylinder_certificates`` produces the certified expand-then-collapse routes
through the mapping cylinder of a map, whose covers come from the map's
fibres and whose masks are closed from those covers; ``bridge_space`` is the
cylinder of the comparison map from the subdivision.  ``CylinderCertificates``
is a record on the ``_Record`` base of ``spaces``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .complexes import (
    SimplicialComplex,
    SimplicialMap,
    SimplicialMove,
    SimplicialMoveCertificate,
    _key,
    dotted_label,
    is_contiguous,
)
from .maps import ContinuousMap, is_distinguished, mapping_cylinder
from .moves import SpaceMove, SpaceMoveCertificate, _strip_in
from .spaces import FiniteSpace, _close_along, _members, _Record, _store, _trusted

__all__ = [
    "order_complex",
    "face_poset",
    "space_subdivision",
    "barycentric_subdivision",
    "h_map",
    "chain_label",
    "induced_simplicial",
    "induced_continuous",
    "contiguity_fence",
    "bridge_space",
    "CylinderCertificates",
    "cylinder_certificates",
    "translate_space_collapse",
    "translate_simplicial_collapse",
]


MAX_CHAINS = 200_000


def _counted_above(space: FiniteSpace, alive: int) -> list[list[int]]:
    """Each point's strict up-set within the ``alive`` points, as an
    ascending index list, once the chains of the alive points are counted;
    more than ``MAX_CHAINS`` of them is refused with a ValueError."""
    above = [list(_members(m & alive)) for m in space.masks()[1]]
    # starting[i]: chains whose least point is i.  A point strictly above i
    # has a smaller up-set, so ascending up-set size visits it first.
    starting = [0] * space.n
    for i in sorted(_members(alive), key=lambda i: len(above[i])):
        starting[i] = 1 + sum(starting[j] for j in above[i])
    total = sum(starting)
    if total > MAX_CHAINS:
        raise ValueError(f"too many chains: {total} exceed the limit of {MAX_CHAINS}")
    return above


def _chains(space: FiniteSpace, alive: int | None = None) -> list[tuple[int, ...]]:
    """All nonempty chains of the ``alive`` points (default: every point) as
    index tuples, ascending in the order, each chain followed by its
    extensions upward.  They are counted, and refused past ``MAX_CHAINS``,
    before any is built."""
    alive = (1 << space.n) - 1 if alive is None else alive
    above = _counted_above(space, alive)
    out: list[tuple[int, ...]] = []

    def grow(chain: tuple[int, ...]) -> None:
        out.append(chain)
        for j in above[chain[-1]]:
            grow(chain + (j,))

    for i in _members(alive):
        grow((i,))
    return out


def _maximal_chains(space: FiniteSpace) -> list[tuple[str, ...]]:
    """The facets of the order complex, the maximal chains, as sorted label
    tuples in canonical order, without building the other chains.

    A chain is maximal exactly when it climbs by covers from a minimal point
    to a maximal one, so a depth-first walk up the covers from each minimal
    point meets each facet once and nothing else.  The chains are counted and
    refused as in ``_chains`` first, which bounds the height, and with it the
    walk's depth, to 17: a chain of h points has 2**h - 1 subchains.
    """
    _counted_above(space, (1 << space.n) - 1)
    upper = space._upper_covers()
    labels = space.labels
    out: list[tuple[str, ...]] = []
    chain: list[str] = []

    def climb(i: int) -> None:
        chain.append(labels[i])
        if upper[i]:
            for j in upper[i]:
                climb(j)
        else:
            out.append(tuple(sorted(chain)))
        chain.pop()

    for i, below in enumerate(space.masks()[0]):
        if not below:
            climb(i)
    out.sort(key=lambda f: (len(f), f))
    return out


def order_complex(space: FiniteSpace) -> SimplicialComplex:
    """The complex whose simplices are the nonempty chains of the space;
    they are closed under faces and carry checked labels, so none is rechecked.

    Only the family is built: its facets, when asked for, come from the face
    index as for any complex.  Printing K(X) needs only its vertices and
    facets, which ``_maximal_chains`` gives without this family.
    """
    labels = space.labels
    return SimplicialComplex._trusted(
        frozenset(frozenset([labels[i] for i in c]) for c in _chains(space))
    )


def _cofacet_poset(labels: tuple[str, ...], cofacets: list[list[int]]) -> FiniteSpace:
    """The simplices of a face index, listed by size and named ``labels``,
    ordered by inclusion.

    ``cofacets[i]`` lists simplex i's cofacets ascending: they are the
    covers, and a simplex comes after its faces, so ``range(n)`` is the
    linear extension they are closed along."""
    n = len(cofacets)
    space = _store(_close_along(labels, cofacets, range(n)), FiniteSpace._upper_covers, cofacets)
    return _store(space, FiniteSpace.linear_extension, tuple(range(n)))


def face_poset(k: SimplicialComplex) -> FiniteSpace:
    """The simplices of ``k`` ordered by inclusion, read off its face index,
    whose cofacet lists are stored as the poset's upper cover lists.

    Points are named by joining the sorted vertex names with dots, which is
    what makes the subdivision identities literal equalities.
    """
    labels = tuple(dotted_label(s) for s in k.simplices)
    if len(set(labels)) != len(labels):
        raise ValueError("dotted simplex names collide; rename the vertices")
    return _cofacet_poset(labels, k._faces()[1])


def _subdivision(
    space: FiniteSpace, name: Callable[[Sequence[str]], str]
) -> tuple[FiniteSpace, tuple[int, ...]]:
    """The chains of the space ordered by inclusion, and each chain's maximum.

    The index tuples of ``_chains``, ascending in the order, are sorted once
    into K(X)'s canonical order, by length and sorted label ranks; deleting
    one entry of a chain gives a facet.  ``name`` gets each chain's labels
    by height, and the last entry is the maximum.
    """
    labels = space.labels
    rank = {i: r for r, i in enumerate(sorted(range(space.n), key=labels.__getitem__))}
    chains = _chains(space)
    chains.sort(key=lambda c: (len(c), sorted([rank[i] for i in c])))
    where = {c: p for p, c in enumerate(chains)}
    cofacets: list[list[int]] = [[] for _ in chains]
    for p, c in enumerate(chains):
        if len(c) > 1:
            for k in range(len(c)):
                cofacets[where[c[:k] + c[k + 1:]]].append(p)
    names = tuple(name([labels[i] for i in c]) for c in chains)
    if len(set(names)) != len(names):
        raise ValueError("chain names collide; rename the points")
    return _cofacet_poset(names, cofacets), tuple(c[-1] for c in chains)


def space_subdivision(space: FiniteSpace) -> FiniteSpace:
    """The chains of the space ordered by inclusion, with dotted names,
    built from the chain index without the order complex.

    Equals ``face_poset(order_complex(space))`` on the nose, index order too.
    """
    return _subdivision(space, dotted_label)[0]


def barycentric_subdivision(k: SimplicialComplex) -> SimplicialComplex:
    """The first barycentric subdivision K(X(k)), vertices named by dotted simplices."""
    return order_complex(face_poset(k))


def h_map(space: FiniteSpace) -> ContinuousMap:
    """The comparison map from the subdivision, sending a chain to its maximum."""
    dom, maxima = _subdivision(space, dotted_label)
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


# -- the mapping cylinder and the bridge ---------------------------------------


class CylinderCertificates(_Record):
    """Certified deformation data for a map's non-Hausdorff cylinder: the
    cylinder space, and the certificates of its expansion and its collapse.

    The expansion (codomain copy up to the cylinder) always exists.  The
    collapse back onto the domain copy exists exactly when the map is
    distinguished; otherwise ``collapse`` is None and ``refused_at`` names
    the first codomain point whose open-set preimage is not contractible.
    """

    __slots__ = __match_args__ = ("cylinder", "expansion", "collapse", "refused_at")


def _cylinder_routes(
    f: ContinuousMap,
) -> tuple[FiniteSpace, SpaceMoveCertificate, tuple[SpaceMove, ...]]:
    """The cylinder, the expansion from its R-copy, and the removals of the
    R-copy in ``cod.linear_extension()`` order, which replay exactly when f
    is distinguished."""
    cyl = mapping_cylinder(f)
    dom, cod = f.dom, f.cod
    left, right = cyl.labels[:dom.n], cyl.labels[dom.n:]
    start = _trusted(right, *cod.masks())
    dom_down, cod_up = dom.masks()[0], cod.masks()[1]
    # the closed up-set of f(x), where L:x attaches, once per image
    ups = {y: tuple(sorted([right[z] for z in _members(cod_up[y] | 1 << y)]))
           for y in set(f.images)}
    adds = tuple(
        SpaceMove("add", left[i], "up-weak", up=ups[f.images[i]],
                  down=tuple(sorted([left[j] for j in _members(dom_down[i])])))
        for i in dom.linear_extension()
    )
    removals = tuple(SpaceMove("remove", right[y], "down-weak") for y in cod.linear_extension())
    return cyl, SpaceMoveCertificate(start, adds), removals


def cylinder_certificates(f: ContinuousMap) -> CylinderCertificates:
    cyl, expansion, removals = _cylinder_routes(f)
    verdict = dict(is_distinguished(f).per_point)
    order = (f.cod.labels[y] for y in f.cod.linear_extension())
    refused_at = next((y for y in order if not verdict[y]), None)
    collapse = SpaceMoveCertificate(cyl, removals) if refused_at is None else None
    return CylinderCertificates(cyl, expansion, collapse, refused_at)


def bridge_space(space: FiniteSpace) -> CylinderCertificates:
    """The bridge B(X), the mapping cylinder of h, with chains named ``a<b<c``.

    The subdivision and h come from the chain index and the cylinder from
    h's fibres, so K(X) is never built as label sets.  ``expansion`` starts
    at the space (R-copy) and adds every chain; ``collapse`` starts at the
    bridge and deletes the R-copy, ending on the subdivision (L-copy).  h is
    distinguished, so the collapse always exists.
    """
    dom, maxima = _subdivision(space, chain_label)
    cyl, expansion, removals = _cylinder_routes(ContinuousMap(dom, space, maxima))
    return CylinderCertificates(cyl, expansion, SpaceMoveCertificate(cyl, removals), None)


# -- weak point removal as a simplicial collapse --------------------------------


def _chains_through(
    space: FiniteSpace, members: int, need: int, avoid: int
) -> list[frozenset[str]]:
    """Chains of the ``members`` points containing all of ``need`` and none of
    ``avoid``, as label sets; all three are masks of the space's points, and
    ``need`` is a chain.  Each is the join of ``need`` with a chain, possibly
    empty, of the other members outside ``avoid`` comparable with every
    ``need`` point."""
    down, up = space.masks()
    rest = members & ~avoid & ~need
    for p in _members(need):
        rest &= down[p] | up[p]
    labels = space.labels
    base = [labels[p] for p in _members(need)]
    return [frozenset(base)] + [
        frozenset(base + [labels[i] for i in c]) for c in _chains(space, rest)
    ]


def translate_space_collapse(space: FiniteSpace, x: str) -> SimplicialMoveCertificate:
    """Rebuild the order complex of the space from that of space minus ``x``.

    ``x`` must be a weak point.  The result is a certificate of elementary
    expansions from the smaller order complex to the full one; read in
    reverse it collapses the order complex onto that of the deletion.  The
    punctured minimal open set of ``x`` is stripped of beat points first; if
    more than one point survives, the punctured closure is stripped on the
    swapped masks, that is in the opposite order, which has the same chains.
    The survivor, then the witness of each removal in reverse, is the apex
    of the pairs added next, smaller faces first.  The moves are emitted
    without simulating them: the paper's theorem says they replay, and
    ``verify_simplicial_certificate`` checks that they do.  The start
    complex, which the certificate prints, carries the facets of the cover
    walk.
    """
    i = space.index(x)
    down, up = space.masks()
    # x is weak when stripping beat points off one punctured side, in any
    # order, leaves a single survivor
    for below, above in ((down, up), (up, down)):
        rest, removed = _strip_in(below, above, below[i], floor=1)
        if rest.bit_count() == 1:
            break
    else:
        raise ValueError(f"{x!r} is not a weak point")

    labels, survivor = space.labels, rest.bit_length() - 1
    kept = above[i] | 1 << i  # the closure of x in the order whose side was stripped
    cones = [(labels[survivor], _chains_through(space, kept, 1 << i, 0))]
    kept |= 1 << survivor
    for p, _, w in reversed(removed):
        kept |= 1 << p
        cones.append((labels[w], _chains_through(space, kept, 1 << i | 1 << p, 1 << w)))
    moves = tuple(
        SimplicialMove("add", tuple(sorted(fs)), apex)
        for apex, faces in cones
        for fs in sorted(faces, key=_key)
    )
    smaller = space.delete(x)
    start = order_complex(smaller)
    _store(start, SimplicialComplex.facets, tuple(_maximal_chains(smaller)))
    return SimplicialMoveCertificate(start, moves)


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
    if fs not in k:
        raise ValueError(f"{sorted(fs)} is not a simplex here")
    where, cofacets = k._faces()
    if cofacets[where[fs]] != [where.get(top)]:
        raise ValueError("not a free pair: the face must have exactly one proper coface")
    start = face_poset(k)
    moves = (
        SpaceMove("remove", dotted_label(fs), "beat-up"),
        SpaceMove("remove", dotted_label(top), "down-weak"),
    )
    return SpaceMoveCertificate(start, moves)
