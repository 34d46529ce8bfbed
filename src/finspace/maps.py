"""Continuous (order-preserving) maps between finite spaces.

Homotopy between maps is certified by comparability fences: a sequence of
maps in which consecutive entries are pointwise comparable.  Fence search
enumerates the continuous maps depth first along a linear extension of the
domain, dropping each partial map that leaves a point above no room, and
completes each distinct tuple of rooms left for the unplaced points once,
so the maps are kept as one byte column of images per position, not as a
tuple each.  Per position and codomain point it reads int bitsets of the
maps that send it above or below there off that column; the maps comparable
with u are then one AND per position, and a breadth-first level is not
expanded once the goal is comparable with one of its maps.  The table is
refused past ``TABLE_BIT_LIMIT`` bits.  A map is
distinguished when every minimal open set pulls back to a contractible
subspace, tested as a mask of the domain's points; these are the maps whose
non-Hausdorff mapping cylinder (its covers read off the map's fibres, its
masks closed from them) collapses back onto the domain.  Membership evidence
is replayed on label sets, as certificates are, not on those masks.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .spaces import FiniteSpace, _close_along, _members, _store
from .moves import _contractible_in, _label_sets, _literally_contractible

__all__ = [
    "ContinuousMap",
    "FenceResult",
    "DistinguishedReport",
    "MembershipEvidence",
    "pointwise_leq",
    "is_valid_fence",
    "fence_homotopic",
    "is_distinguished",
    "is_op_distinguished",
    "mapping_cylinder",
    "verify_membership_evidence",
]

EXHAUSTIVE_LIMIT = 10**6
# one comparability table of 2**27 bits is 16 MiB; fence search holds two
TABLE_BIT_LIMIT = 2**27
_ZEROS = b"0" * 256


@dataclass(frozen=True)
class ContinuousMap:
    """An order-preserving map, stored by image indices."""

    dom: FiniteSpace
    cod: FiniteSpace
    images: tuple[int, ...]

    def __eq__(self, other: object) -> bool:
        """Labelled equality: equal spaces and the same label map."""
        if not isinstance(other, ContinuousMap):
            return NotImplemented
        return (self.dom == other.dom and self.cod == other.cod
                and _images_in(self, other) == self.images)

    def __post_init__(self) -> None:
        if len(self.images) != self.dom.n:
            raise ValueError("one image per domain point is required")
        for j in self.images:
            if not 0 <= j < self.cod.n:
                raise ValueError(f"image index {j} outside the codomain")
        img = self.images
        below = self.cod.masks()[0]
        for i, d in enumerate(self.dom.masks()[0]):
            # every point below i must land in the closed down-set of f(i)
            allowed = below[img[i]] | 1 << img[i]
            if any(not allowed >> img[k] & 1 for k in _members(d)):
                raise ValueError("map does not preserve the order")

    @classmethod
    def from_labels(
        cls, dom: FiniteSpace, cod: FiniteSpace, mapping: Mapping[str, str]
    ) -> "ContinuousMap":
        if set(mapping) != set(dom.labels):
            raise ValueError("mapping must cover exactly the domain points")
        return cls(dom, cod, tuple(cod.index(mapping[l]) for l in dom.labels))

    @classmethod
    def identity(cls, space: FiniteSpace) -> "ContinuousMap":
        return cls(space, space, tuple(range(space.n)))

    @classmethod
    def constant(cls, dom: FiniteSpace, cod: FiniteSpace, y: int | str) -> "ContinuousMap":
        j = cod.index(y)
        return cls(dom, cod, (j,) * dom.n)

    def __call__(self, x: int | str) -> str:
        return self.cod.labels[self.images[self.dom.index(x)]]

    def label_map(self) -> dict[str, str]:
        return {l: self.cod.labels[j] for l, j in zip(self.dom.labels, self.images)}

    def compose(self, other: "ContinuousMap") -> "ContinuousMap":
        """self after other."""
        if other.cod != self.dom:
            raise ValueError("codomain/domain mismatch")
        translate = [self.images[self.dom.index(other.cod.labels[j])] for j in range(other.cod.n)]
        return ContinuousMap(other.dom, self.cod, tuple(translate[j] for j in other.images))

    def opposite(self) -> "ContinuousMap":
        """The same assignment viewed between the opposite spaces."""
        return ContinuousMap(self.dom.opposite(), self.cod.opposite(), self.images)


def _images_in(f: ContinuousMap, g: ContinuousMap) -> tuple[int, ...]:
    """g's images in the index frames of f's (label-equal) spaces, by label."""
    return tuple(f.cod.index(g(l)) for l in f.dom.labels)


def _below(cod: FiniteSpace, a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """a[x] <= b[x] in cod for every x, both image tuples in cod's index frame."""
    return all(cod.is_leq(i, j) for i, j in zip(a, b))


def pointwise_leq(f: ContinuousMap, g: ContinuousMap) -> bool:
    """True when f(x) <= g(x) for every point x."""
    if f.dom != g.dom or f.cod != g.cod:
        raise ValueError("maps must share domain and codomain")
    return _below(f.cod, f.images, _images_in(f, g))


# -- fences -----------------------------------------------------------------


@dataclass(frozen=True)
class FenceResult:
    fence: tuple[ContinuousMap, ...] | None
    conclusive: bool

    def __bool__(self) -> bool:
        return self.fence is not None


def is_valid_fence(fence: Iterable[ContinuousMap]) -> bool:
    """Consecutive entries comparable, all sharing domain and codomain."""
    fence = list(fence)
    if not fence:
        return False
    for f, g in zip(fence, fence[1:]):
        if f.dom != g.dom or f.cod != g.cod:
            return False
        a, b = f.images, _images_in(f, g)
        if not (_below(f.cod, a, b) or _below(f.cod, b, a)):
            return False
    return True


def _continuous_maps(dom: FiniteSpace, cod: FiniteSpace) -> tuple[int, list[Sequence[int]]]:
    """The number of continuous maps and their images as one column per
    position: map v sends ``dom.linear_extension()[k]`` to ``columns[k][v]``.

    A column is ``bytes`` while ``cod.n <= 256`` and an ``array`` of wider
    ints past that, never a tuple per map.  The points are placed along the
    linear extension, each image in ascending index order, so map v is the
    v-th in the lexicographic order of that assignment.  ``rooms`` holds the
    images left for each unplaced position: the AND of the closed up-sets of
    the images of the placed points below it, so a point takes its options
    from its own room.  Placing a point narrows the room of every point
    above it, and an image that would leave one of them empty is never
    placed (it is not under that room): such a partial map has no
    completion, so no map is lost.  The completions of a partial map depend
    only on the rooms of its unplaced positions, so each distinct tuple of
    them is completed once, into columns for those positions; a tuple's
    columns are its children's, concatenated in ascending image order.
    """
    n = dom.n
    order = dom.linear_extension()
    pos = [0] * n
    for k, i in enumerate(order):
        pos[i] = k
    up = dom.masks()[1]
    # the offsets, past position k + 1, of the points above position k
    above = [[pos[q] - k - 1 for q in _members(up[i])] for k, i in enumerate(order)]
    cod_down, cod_up = cod.masks()
    closed_up = [u | 1 << j for j, u in enumerate(cod_up)]
    closed_down = [d | 1 << j for j, d in enumerate(cod_down)]
    if cod.n <= 256:
        unit, pack, join = [bytes((j,)) for j in range(cod.n)], bytes, b"".join
    else:
        # imported here: loading the module adds to every process's size
        from array import array

        unit = [array("L", (j,)) for j in range(cod.n)]
        pack = lambda images: array("L", images)
        join = lambda parts: array("L", b"".join(parts))
    under: dict[int, int] = {}  # a room -> the images at or below one of its members
    done: dict[tuple[int, ...], list[Sequence[int]]] = {}  # rooms -> their completions

    def complete(rooms: tuple[int, ...]) -> list[Sequence[int]]:
        ups = above[n - len(rooms)]
        # j leaves q some room iff j lies under the room of q
        options = rooms[0]
        for q in ups:
            r = rooms[q + 1]
            if r not in under:
                reach = 0
                for y in _members(r):
                    reach |= closed_down[y]
                under[r] = reach
            options &= under[r]
        if len(rooms) == 1:
            return [pack(_members(options))]
        tail = rooms[1:]
        heads, tails = [], []
        for j in _members(options):
            if ups:
                cut = closed_up[j]
                narrowed = list(tail)
                for q in ups:
                    narrowed[q] &= cut
                key = tuple(narrowed)
            else:
                key = tail
            columns = done.get(key)
            if columns is None:
                columns = done[key] = complete(key)
            if columns[0]:
                heads.append(unit[j] * len(columns[0]))
                tails.append(columns)
        if not heads:
            return [join(())] * len(rooms)
        return [join(heads)] + [join(parts) for parts in zip(*tails)]

    if not n:
        return 1, []
    columns = complete(((1 << cod.n) - 1,) * n)
    return len(columns[0]), columns


def _columns(column: Sequence[int], ys: int) -> list[int]:
    """Row y of the result has bit v set iff ``column[v] == y``, for y < ys.

    Each base-256 digit of the column's images, the same byte of every item
    read off its memory, last map first, is one ``bytes`` string, translated to ASCII ``1`` where it matches y's digit
    and ``0`` elsewhere, and read by ``int(..., 2)``.  A row is the AND of
    its digits' matches.
    """
    view = memoryview(column)
    width = view.itemsize
    raw = view.cast("B")
    rows = [-1] * ys
    for d, shift in enumerate(range(0, max(8, (ys - 1).bit_length()), 8)):
        at = d if sys.byteorder == "little" else width - 1 - d
        digits = raw[at::width].tobytes()[::-1]
        for y in range(ys):
            b = y >> shift & 255
            rows[y] &= int(digits.translate(_ZEROS[:b] + b"1" + _ZEROS[b + 1:]), 2)
    return rows


def _meet(rows: list[list[int]], images: Iterable[int], within: int) -> int:
    """The maps of ``within`` whose bit is set in row ``images[k]`` of every
    position k."""
    for k, y in enumerate(images):
        within &= rows[k][y]
    return within


def fence_homotopic(
    f: ContinuousMap, g: ContinuousMap, budget: int = 16
) -> FenceResult:
    """Search for a comparability fence from f to g with at most ``budget`` steps.

    Two fast positive paths first (equality, direct comparability).  When the
    whole mapping space is enumerable (|cod| ** |dom| at most
    ``EXHAUSTIVE_LIMIT``) and its table fits (|dom| * |cod| * maps at most
    ``TABLE_BIT_LIMIT`` bits) a breadth-first search decides
    fence-connectedness, so absence is conclusive there; otherwise absence
    is reported inconclusive.

    Maps are numbered as ``_continuous_maps`` enumerates them and read from
    its columns, in linear-extension positions; only the returned fence goes
    back to point order.  Bit v of ``geq[k][y]`` (``leq[k][y]``) is set when
    the v-th map sends position k to or above (below) y, so the unseen maps
    above u are the AND of ``geq[k][u[k]]`` over k with the unseen set.  The
    rows start as the equality rows ``_columns`` reads off each column, and
    f and g are found as the AND of theirs.  Each level's new maps are taken
    in ascending v, the order of a scan over all maps, so the BFS parents,
    hence the fence, are those of that scan.  A level keeps its maps and
    their parents in two lists, and the fence walks back through them.

    The frontier is also kept as a bitset.  Before a level is expanded, the
    maps comparable with g are ANDed with it: when some are, g's parent is
    the first of them in frontier order and the level is not expanded.
    This is exact because comparability is symmetric: the scan would have
    met g, still unseen, from the first frontier map comparable with it.
    """
    if f.dom != g.dom or f.cod != g.cod:
        raise ValueError("maps must share domain and codomain")
    target = _images_in(f, g)
    if f.images == target:
        return FenceResult((f,), True)
    if _below(f.cod, f.images, target) or _below(f.cod, target, f.images):
        return FenceResult((f, g), True)
    if budget < 2 or f.cod.n ** max(f.dom.n, 1) > EXHAUSTIVE_LIMIT:
        return FenceResult(None, False)

    count, columns = _continuous_maps(f.dom, f.cod)
    if f.dom.n * f.cod.n * count > TABLE_BIT_LIMIT:
        return FenceResult(None, False)
    geq = [_columns(column, f.cod.n) for column in columns]
    order = f.dom.linear_extension()
    start = _meet(geq, (f.images[i] for i in order), -1).bit_length() - 1
    want = tuple(target[i] for i in order)
    goal = _meet(geq, want, -1).bit_length() - 1

    # each cover y < z ORs geq[k][z] into geq[k][y] down a linear extension; leq dually, up it
    pos = {y: k for k, y in enumerate(f.cod.linear_extension())}
    covers = sorted(f.cod.covers(), key=lambda c: pos[c[0]])
    leq = [list(rows) for rows in geq]
    for above, below in zip(geq, leq):
        for y, z in reversed(covers):
            above[y] |= above[z]
        for y, z in covers:
            below[z] |= below[y]
    near = _meet(geq, want, -1) | _meet(leq, want, -1)

    # each level keeps its maps and their parents, in the order met
    levels = []
    unseen = (1 << count) - 1 ^ 1 << start
    frontier, reached = [start], 1 << start
    depth = 0
    while frontier:
        depth += 1
        if depth > budget:
            return FenceResult(None, False)
        hit = near & reached
        if hit:
            bits = bin(hit)[:1:-1]
            chain = [goal, next(u for u in frontier if bits.startswith("1", u))]
            break
        nxt, up = [], []
        left = unseen
        for u in frontier:
            above = below = unseen
            for ge, le, column in zip(geq, leq, columns):
                y = column[u]
                above &= ge[y]
                below &= le[y]
            new = above | below
            unseen ^= new
            # bit v is character v of the reversed binary string, so the maps
            # are met in ascending v, as a scan over every map would meet them
            bits = bin(new)[:1:-1]
            v = bits.find("1")
            while v >= 0:
                nxt.append(v)
                up.append(u)
                v = bits.find("1", v + 1)
        levels.append((nxt, up))
        frontier, reached = nxt, left ^ unseen
    else:
        return FenceResult(None, True)
    for met, up in reversed(levels):
        chain.append(up[met.index(chain[-1])])
    point = [0] * f.dom.n
    for k, i in enumerate(order):
        point[i] = k
    fence = tuple(
        ContinuousMap(f.dom, f.cod, tuple(columns[k][v] for k in point)) for v in reversed(chain)
    )
    return FenceResult(fence, True)


# -- distinguished maps --------------------------------------------------------


@dataclass(frozen=True)
class DistinguishedReport:
    """Per-point verdicts: is each open-set preimage contractible."""

    ok: bool
    per_point: tuple[tuple[str, bool], ...]

    def __bool__(self) -> bool:
        return self.ok

    @property
    def failing(self) -> tuple[str, ...]:
        return tuple(l for l, good in self.per_point if not good)


def is_distinguished(f: ContinuousMap) -> DistinguishedReport:
    """Check contractibility of the preimage of every minimal open set; an
    empty preimage is not contractible."""
    dom_masks, cod_down = f.dom.masks(), f.cod.masks()[0]
    verdicts = []
    for j in range(f.cod.n):
        open_set = cod_down[j] | 1 << j
        pre = sum(1 << i for i, y in enumerate(f.images) if open_set >> y & 1)
        verdicts.append((f.cod.labels[j], _contractible_in(*dom_masks, pre)))
    ok = all(v for _, v in verdicts)
    return DistinguishedReport(ok, tuple(verdicts))


def is_op_distinguished(f: ContinuousMap) -> DistinguishedReport:
    """The dual condition: distinguished between the opposite spaces."""
    return is_distinguished(f.opposite())


# -- non-Hausdorff mapping cylinder ----------------------------------------------


def mapping_cylinder(f: ContinuousMap) -> FiniteSpace:
    """The space on dom + cod where x <= y exactly when f(x) <= y.

    Domain points keep their order and sit below the codomain copy; both
    copies embed as subspaces (labels get L:/R: prefixes).  Below R:z lie
    the fibres of z and of the points below it.  The stored covers are the
    domain's, the codomain's shifted, and (L:x, R:f(x)) exactly when no
    point above x shares its fibre: R:f(x) lies between L:x and any other
    R:y above it, and a point between L:x and R:f(x) is an L:z with x < z
    and f(z) <= f(x), so f(z) = f(x) by monotonicity.  Nothing of one copy
    lies between two points of the other.  The masks are closed from these
    covers along the domain's linear extension, then the codomain's shifted
    by n: every cover between the copies goes from L to R.
    """
    dom, cod, images = f.dom, f.cod, f.images
    n = dom.n
    fibre = [0] * cod.n
    for x, y in enumerate(images):
        fibre[y] |= 1 << x
    dom_up = dom.masks()[1]
    crosses = tuple((x, n + y) for x, y in enumerate(images) if not dom_up[x] & fibre[y])
    covers = tuple(sorted(dom.covers() + crosses)) + tuple((n + i, n + j) for i, j in cod.covers())
    upper: list[list[int]] = [[] for _ in range(n + cod.n)]
    for i, j in covers:
        upper[i].append(j)
    order = dom.linear_extension() + tuple(n + y for y in cod.linear_extension())
    labels = tuple("L:" + l for l in dom.labels) + tuple("R:" + l for l in cod.labels)
    # f preserves the order, so this is an order on distinct valid labels
    return _store(_close_along(labels, upper, order), FiniteSpace.covers, covers)


# -- membership evidence -----------------------------------------------------------


EVIDENCE_KINDS = (
    "homeomorphism",
    "homotopy-equivalence",
    "distinguished",
    "op-distinguished",
    "elementary-expansion-inclusion",
    "composite",
)


@dataclass(frozen=True)
class MembershipEvidence:
    """Generator-level evidence that a map belongs to the distinguished class.

    ``witnesses`` depends on the kind: an inverse map for homeomorphisms, a
    homotopy inverse with two fences for homotopy equivalences, the weak
    point label for an elementary expansion inclusion, a tuple of evidences
    for composites, nothing for the two directly checkable kinds.
    """

    kind: str
    subject: ContinuousMap
    witnesses: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in EVIDENCE_KINDS:
            raise ValueError(f"unknown evidence kind {self.kind!r}")


def verify_membership_evidence(ev: MembershipEvidence) -> tuple[bool, str]:
    """Replay the witnesses against the definitions."""
    f = ev.subject
    if ev.kind == "homeomorphism":
        if len(ev.witnesses) != 1:
            return False, "expected the inverse map as the single witness"
        g = ev.witnesses[0]
        if g.dom != f.cod or g.cod != f.dom:
            return False, "witness does not invert the right spaces"
        if g.compose(f) != ContinuousMap.identity(f.dom):
            return False, "witness is not a left inverse"
        if f.compose(g) != ContinuousMap.identity(f.cod):
            return False, "witness is not a right inverse"
        return True, ""
    if ev.kind in ("distinguished", "op-distinguished"):
        # every U_y (every F_y, dually) pulls back to a contractible subspace
        dual = ev.kind == "op-distinguished"
        (below, above), (cod_below, cod_above) = _label_sets(f.dom), _label_sets(f.cod)
        if dual:
            below, above, cod_below = above, below, cod_above
        image = f.label_map()
        for y in f.cod.labels:
            pre = {x for x in below if image[x] == y or image[x] in cod_below[y]}
            if not _literally_contractible(below, above, pre):
                return False, f"{'dual ' if dual else ''}preimage fails at {y!r}"
        return True, ""
    if ev.kind == "elementary-expansion-inclusion":
        if len(ev.witnesses) != 1 or not isinstance(ev.witnesses[0], str):
            return False, "expected the weak point label as the single witness"
        x = ev.witnesses[0]
        below, above = _label_sets(f.cod)
        if x not in below:
            return False, f"no point {x!r} in the codomain"
        if not any(_literally_contractible(below, above, side[x]) for side in (below, above)):
            return False, f"{x!r} is not a weak point"
        if f.dom != f.cod.delete(x):
            return False, "domain is not the codomain minus the weak point"
        if any(f(l) != l for l in f.dom.labels):
            return False, "map is not the inclusion"
        return True, ""
    if ev.kind == "homotopy-equivalence":
        if len(ev.witnesses) != 3:
            return False, "expected (inverse, fence to id_dom, fence to id_cod)"
        g, fence_dom, fence_cod = ev.witnesses
        if g.dom != f.cod or g.cod != f.dom:
            return False, "homotopy inverse has the wrong spaces"
        gf, fg = g.compose(f), f.compose(g)
        for fence, ends in (
            (fence_dom, (gf, ContinuousMap.identity(f.dom))),
            (fence_cod, (fg, ContinuousMap.identity(f.cod))),
        ):
            fence = tuple(fence)
            if not is_valid_fence(fence):
                return False, "fence does not replay"
            if fence[0] != ends[0] or fence[-1] != ends[1]:
                return False, "fence endpoints do not match"
        return True, ""
    # composite
    parts = ev.witnesses
    if not parts:
        return False, "composite needs at least one factor"
    for part in parts:
        ok, why = verify_membership_evidence(part)
        if not ok:
            return False, f"factor fails: {why}"
    composed = parts[0].subject
    for part in parts[1:]:
        if part.subject.dom != composed.cod:
            return False, "factors do not chain"
        composed = part.subject.compose(composed)
    if composed != f:
        return False, "factors do not compose to the subject"
    return True, ""
