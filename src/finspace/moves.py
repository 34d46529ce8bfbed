"""Beat points, weak points, cores and certified collapses.

A point is a beat point when its strict up-set has a minimum or its strict
down-set has a maximum; removing one does not change the homotopy type, and
iterating removals reaches the core.  A point is a weak point when its
punctured minimal open set or punctured closure is contractible; removing
one is an elementary collapse of spaces.  Outside the verifier each such
test is one bitmask kernel, ``_beat_in``, ``_strip_in`` or
``_contractible_in``, asked as ``(down, up, alive, ...)``: a subspace is an
``alive`` mask and the opposite order is the swapped pair ``(up, down)``.
``_strip_in`` removes beat points on sight, always the lowest beat point
in index order, retesting only the points comparable to each removal;
``core`` is that strip, and ``_contractible_in`` is the same strip stopped
at one point.
Down is tested before up, so a point weak on both sides is removed as
down-weak.  Every operation here that changes a space also returns a
replayable move record, and the verifier rechecks each move against the
definitions.  It replays on its own plain sets, the labels strictly below
and above each point, which a move updates only at the points next to it,
and it validates one space, the end of the replay.

The budgeted depth-first search, shared with the complex side, builds and
deduplicates a child only when its stack entry is popped.  Each move
shrinks a state by one point (a free pair of simplices for complexes) and
the fingerprints hold that size, so a child can only match a state of its
own depth, and every such state pushed before it has been popped by then;
the search prunes what a check at push would prune.

Moves, certificates, replay and search results and equivalences are records
on the ``_Record`` base of ``spaces``; a move checks its direction, side and
attaching sets in its constructor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from .spaces import (
    FiniteSpace,
    _check_label,
    _checked_up_sets,
    _members,
    _message,
    _Record,
    _set,
    _trusted,
    is_isomorphic,
)

if TYPE_CHECKING:
    from .complexes import SimplicialComplex

__all__ = [
    "SpaceMove",
    "SpaceMoveCertificate",
    "ReplayResult",
    "SearchResult",
    "SpaceEquivalence",
    "is_up_beat",
    "is_down_beat",
    "beat_points",
    "is_weak_point",
    "weak_points",
    "core",
    "is_contractible",
    "remove_weak_point",
    "add_weak_point",
    "collapse_search",
    "homotopy_equivalent",
    "verify_space_certificate",
]

SIDES = ("beat-down", "beat-up", "down-weak", "up-weak")


class SpaceMove(_Record):
    """One elementary step on a space.

    ``remove`` deletes the named point, which must satisfy the declared side
    in the space the move is applied to.  ``add`` inserts a fresh point with
    the given strict down-set and up-set, and the point must satisfy the
    declared side in the resulting space.
    """

    __slots__ = __match_args__ = ("direction", "label", "side", "down", "up")

    def __init__(
        self,
        direction: str,  # 'remove' | 'add'
        label: str,
        side: str,
        down: tuple[str, ...] | None = None,
        up: tuple[str, ...] | None = None,
    ) -> None:
        if direction not in ("remove", "add"):
            raise ValueError(f"bad move direction {direction!r}")
        if side not in SIDES:
            raise ValueError(f"bad move side {side!r}")
        if direction == "add" and (down is None or up is None):
            raise ValueError("add moves need down= and up= attaching sets")
        _set(self, "direction", direction)
        _set(self, "label", label)
        _set(self, "side", side)
        _set(self, "down", down)
        _set(self, "up", up)


class SpaceMoveCertificate(_Record):
    """A start space and the tuple of ``SpaceMove``s applied to it in turn."""

    __slots__ = __match_args__ = ("start", "moves")

    def __len__(self) -> int:
        return len(self.moves)


class ReplayResult(_Record):
    __slots__ = __match_args__ = ("ok", "step", "reason", "final")

    def __init__(
        self,
        ok: bool,
        step: int | None = None,
        reason: str = "",
        final: FiniteSpace | SimplicialComplex | None = None,
    ) -> None:
        _set(self, "ok", ok)
        _set(self, "step", step)
        _set(self, "reason", reason)
        _set(self, "final", final)

    def __bool__(self) -> bool:
        return self.ok


class SearchResult(_Record):
    """A search's space or simplicial certificate (None when none was found),
    whether its answer is conclusive, and the number of nodes it expanded."""

    __slots__ = __match_args__ = ("certificate", "conclusive", "nodes")

    def __bool__(self) -> bool:
        return self.certificate is not None


class SpaceEquivalence(_Record):
    """Evidence that two spaces are homotopy equivalent: the certificates of
    both cores plus the isomorphism between them, as a label dict."""

    __slots__ = __match_args__ = ("core_certificate_a", "core_certificate_b", "isomorphism")


# -- beat points ---------------------------------------------------------


def is_up_beat(space: FiniteSpace, x: int | str) -> str | None:
    """If the strict up-set of x has a minimum, return that witness label."""
    i, (down, up) = space.index(x), space.masks()
    beat = _beat_in(down, up, up[i], i)  # the up-set alone: only its side is tested
    return None if beat is None else space.labels[beat[1]]


def is_down_beat(space: FiniteSpace, x: int | str) -> str | None:
    """If the strict down-set of x has a maximum, return that witness label."""
    i, (down, up) = space.index(x), space.masks()
    beat = _beat_in(down, up, down[i], i)
    return None if beat is None else space.labels[beat[1]]


def _beat_in(down: Sequence[int], up: Sequence[int], alive: int, i: int) -> tuple | None:
    """The beat side of point i within the ``alive`` points, with the index of
    its witness, testing down before up.

    Climbs from any member of the strict down-set to a maximal one, which is
    the maximum iff the whole set lies below it; dually for the up-set.
    """
    for side, toward, away in (("beat-down", up, down), ("beat-up", down, up)):
        rest = away[i] & alive
        if not rest:
            continue
        m = rest.bit_length() - 1
        while further := toward[m] & rest:
            m = further.bit_length() - 1
        if not rest & ~away[m] & ~(1 << m):
            return side, m
    return None


def _strip_in(
    down: Sequence[int], up: Sequence[int], alive: int, floor: int = 0
) -> tuple[int, list[tuple[int, str, int]]]:
    """Remove the lowest beat point of the ``alive`` points until none is
    left or ``floor`` remain.

    Returns the surviving mask and each removal as (point, side, witness).
    ``todo`` holds the points that may be beat, at first all of them; its
    lowest is tested, removed if it is beat, and a removal puts back only
    the alive points comparable to it, the only ones whose strict down-set
    or up-set it changed.  A point outside ``todo`` is not beat, so the
    lowest beat point in ``todo`` is the lowest of all.
    """
    todo = alive
    removed: list[tuple[int, str, int]] = []
    while todo and alive.bit_count() > floor:
        low = todo & -todo
        todo ^= low
        x = low.bit_length() - 1
        beat = _beat_in(down, up, alive, x)
        if beat is not None:
            removed.append((x, *beat))
            alive ^= low
            todo |= (down[x] | up[x]) & alive
    return alive, removed


def _contractible_in(down: Sequence[int], up: Sequence[int], alive: int) -> bool:
    """True iff the subspace on the ``alive`` points has a one-point core.

    The strip stops early at one point; the order of its removals does not
    matter, because the core is unique up to homeomorphism (Stong), so its
    size is too."""
    return _strip_in(down, up, alive, 1)[0].bit_count() == 1


def _weak_side(down: Sequence[int], up: Sequence[int], i: int) -> str | None:
    """'down-weak' or 'up-weak' for point i, testing down first, or None."""
    if _contractible_in(down, up, down[i]):
        return "down-weak"
    if _contractible_in(down, up, up[i]):
        return "up-weak"
    return None


def beat_points(space: FiniteSpace) -> list[str]:
    """Labels of all beat points, in index order."""
    down, up, full = *space.masks(), (1 << space.n) - 1
    return [space.labels[i] for i in range(space.n) if _beat_in(down, up, full, i) is not None]


# -- cores and contractibility --------------------------------------------


def core(space: FiniteSpace) -> tuple[FiniteSpace, SpaceMoveCertificate]:
    """Remove beat points until none remain.

    Each step removes the lowest beat point in index order, down-beat before
    up-beat, so the result is deterministic; a space indexed in another
    order strips in that order.  The certificate records every removal; the
    core itself is unique up to isomorphism no matter the order.
    """
    alive, removed = _strip_in(*space.masks(), (1 << space.n) - 1)
    moves = tuple(SpaceMove("remove", space.labels[x], side) for x, side, _ in removed)
    current = space.subspace(_members(alive)) if removed else space
    return current, SpaceMoveCertificate(space, moves)


def is_contractible(space: FiniteSpace) -> bool:
    """True iff the core is a single point.  Exact, never a homology proxy."""
    return _contractible_in(*space.masks(), (1 << space.n) - 1)


# -- weak points -----------------------------------------------------------


def is_weak_point(space: FiniteSpace, x: int | str) -> str | None:
    """Classify x as 'down-weak', 'up-weak', 'both' or None.

    Down-weak means the punctured minimal open set is contractible; up-weak
    is the dual condition on the punctured closure.
    """
    i = space.index(x)
    down, up = space.masks()
    side = _weak_side(down, up, i)
    if side == "down-weak" and _contractible_in(down, up, up[i]):
        return "both"
    return side


def weak_points(space: FiniteSpace) -> list[tuple[str, str]]:
    """All weak points with their classification, in index order."""
    out = []
    for i in range(space.n):
        side = is_weak_point(space, i)
        if side is not None:
            out.append((space.labels[i], side))
    return out


def _classify_for_removal(space: FiniteSpace, i: int) -> str | None:
    """Strongest applicable side for removing point i, or None: a beat side
    before a weak one, and down before up."""
    down, up = space.masks()
    beat = _beat_in(down, up, (1 << space.n) - 1, i)
    return beat[0] if beat is not None else _weak_side(down, up, i)


def remove_weak_point(space: FiniteSpace, x: int | str) -> tuple[FiniteSpace, SpaceMove]:
    """Delete a weak point, returning the smaller space and the move record."""
    i = space.index(x)
    side = _classify_for_removal(space, i)
    if side is None:
        raise ValueError(f"{space.labels[i]!r} is not a weak point")
    return space.delete(i), SpaceMove("remove", space.labels[i], side)


def _attach(
    space: FiniteSpace,
    down: Iterable[str],
    up: Iterable[str],
    label: str,
) -> FiniteSpace:
    """Insert a fresh point with the given strict down-set and up-set.

    The result goes through full order validation, so attaching sets that
    are not closed, or that fail down < up, are rejected there.
    """
    if label in space._index:
        raise ValueError(f"label {label!r} already present")
    _check_label(label)  # the other labels are those of a valid space
    down_idx = [space.index(d) for d in down]
    up_idx = [space.index(u) for u in up]
    if set(down_idx) & set(up_idx):
        raise ValueError("attaching sets overlap")
    n = space.n
    down = list(space.masks()[0])
    down.append(sum(1 << d for d in set(down_idx)))
    for u in set(up_idx):
        down[u] |= 1 << n
    return _trusted(space.labels + (label,), down, _checked_up_sets(down))


def add_weak_point(
    space: FiniteSpace,
    down: Iterable[str],
    up: Iterable[str],
    label: str,
) -> tuple[FiniteSpace, SpaceMove]:
    """Elementary expansion: attach a point that is weak in the result."""
    down = tuple(down)
    up = tuple(up)
    bigger = _attach(space, down, up, label)
    side = _classify_for_removal(bigger, bigger.index(label))
    if side is None:
        raise ValueError(f"new point {label!r} would not be weak")
    return bigger, SpaceMove("add", label, side, down=down, up=up)


# -- certificate replay ------------------------------------------------------


def _label_sets(space: FiniteSpace) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    """The labels strictly below and above each point, keyed in the label
    order of the space."""
    labels = space.labels
    down, up = space.masks()
    below = {x: {labels[j] for j in _members(d)} for x, d in zip(labels, down)}
    above = {x: {labels[j] for j in _members(u)} for x, u in zip(labels, up)}
    return below, above


def _has_extreme(points: set[str], toward: dict[str, set[str]]) -> bool:
    """True iff some m in ``points`` has every other member in ``toward[m]``:
    the maximum of ``points`` when ``toward`` holds strict down-sets, its
    minimum when it holds strict up-sets."""
    return any(points - {m} <= toward[m] for m in points)


def _is_beat(below: dict[str, set[str]], above: dict[str, set[str]], p: str) -> bool:
    return _has_extreme(below[p], below) or _has_extreme(above[p], above)


def _discard(below: dict[str, set[str]], above: dict[str, set[str]], p: str) -> None:
    """Remove point p and every relation it is in."""
    for q in below.pop(p):
        above[q].discard(p)
    for q in above.pop(p):
        below[q].discard(p)


def _literally_contractible(
    below: dict[str, set[str]], above: dict[str, set[str]], points: set[str]
) -> bool:
    """Delete beat points of the subspace on ``points``, in dict order, until
    none is left; contractible iff one point remains.  Which beat point goes
    first does not matter: every order ends on the core."""
    below = {p: below[p] & points for p in below if p in points}
    above = {p: above[p] & points for p in below}
    removed = True
    while removed:
        removed = False
        for p in list(below):
            if _is_beat(below, above, p):
                _discard(below, above, p)
                removed = True
    return len(below) == 1


def _check_side(
    below: dict[str, set[str]], above: dict[str, set[str]], label: str, side: str
) -> str | None:
    """Recheck a declared side from the definitions; None means it holds.

    Reads the order only from the verifier's own sets and shares no code
    with the bitmask kernel that produced the move."""
    if side == "beat-down":
        if not _has_extreme(below[label], below):
            return "strict down-set has no maximum"
        return None
    if side == "beat-up":
        if not _has_extreme(above[label], above):
            return "strict up-set has no minimum"
        return None
    if side == "down-weak":
        if not _literally_contractible(below, above, below[label]):
            return "punctured minimal open set is not contractible"
        return None
    if not _literally_contractible(below, above, above[label]):
        return "punctured closure is not contractible"
    return None


def _attach_to_sets(
    below: dict[str, set[str]],
    above: dict[str, set[str]],
    down: Iterable[str],
    up: Iterable[str],
    label: str,
) -> None:
    """Insert a fresh point, named by label, with strict down-set ``down`` and
    strict up-set ``up``.

    Raises ValueError or KeyError on the first failed condition: the label
    is new and valid, every attaching point exists, the sets are disjoint,
    and the grown relation is transitive, that is ``down`` is a down-set,
    ``up`` an up-set, and every point of ``down`` lies below every point of
    ``up``.
    """
    if label in below:
        raise ValueError(f"label {label!r} already present")
    _check_label(label)
    down, up = tuple(down), tuple(up)
    for p in down + up:
        if p not in below:
            raise KeyError(f"no point labeled {p!r}")
    d, u = set(down), set(up)
    if d & u:
        raise ValueError("attaching sets overlap")
    if not (
        all(below[p] <= d for p in d)
        and all(above[q] <= u for q in u)
        and all(d <= below[q] for q in u)
    ):
        raise ValueError("relation is not transitive")
    below[label], above[label] = d, u
    for p in d:
        above[p].add(label)
    for q in u:
        below[q].add(label)


def verify_space_certificate(cert: SpaceMoveCertificate) -> ReplayResult:
    """Replay every move against the definitions, reporting the first failure.

    The replay runs on the verifier's own sets: ``below[p]`` and ``above[p]``
    hold the labels strictly below and above p, keyed in the label order of
    the space, and are built once from the start's masks.  The one space it
    validates is the end, ``ReplayResult.final``."""
    below, above = _label_sets(cert.start)
    for k, move in enumerate(cert.moves):
        if move.direction == "remove":
            if move.label not in below:
                return ReplayResult(False, k, f"no point labeled {move.label!r}")
            fail = _check_side(below, above, move.label, move.side)
            if fail is not None:
                return ReplayResult(False, k, f"{move.label!r} is not {move.side}: {fail}")
            _discard(below, above, move.label)
        else:
            try:
                _attach_to_sets(below, above, move.down or (), move.up or (), move.label)
            except (ValueError, KeyError) as exc:
                return ReplayResult(False, k, f"cannot attach {move.label!r}: {_message(exc)}")
            fail = _check_side(below, above, move.label, move.side)
            if fail is not None:
                return ReplayResult(
                    False, k, f"added point {move.label!r} is not {move.side}: {fail}"
                )
    index = {x: i for i, x in enumerate(below)}
    final = FiniteSpace.from_masks(
        tuple(below), [sum(1 << index[p] for p in d) for d in below.values()]
    )
    return ReplayResult(True, None, "", final)


# -- collapse search ----------------------------------------------------------


def _candidate_moves(space: FiniteSpace) -> list[SpaceMove]:
    """Removal moves in deterministic preference order: beats, then weak."""
    moves = []
    for i in range(space.n):
        side = _classify_for_removal(space, i)
        if side is not None:
            moves.append(SpaceMove("remove", space.labels[i], side))
    return sorted(moves, key=lambda m: not m.side.startswith("beat"))


def _budgeted_search(start, expand, build, at_goal, fingerprint, isomorphic, budget):
    """Depth-first search for a state passing ``at_goal``.

    ``expand`` lists a state's moves in preference order and ``build`` makes
    the child a move leads to.  A stack entry is a parent, its path and one
    move, and the child is built and checked only when the entry is popped:
    a child that ``isomorphic`` matches (not None) with an accepted state of
    the same ``fingerprint`` is dropped uncounted, so the siblings left on
    the stack when the goal is found, or when the budget runs out, are never
    built.  Returns (move path or None, whether the search ended within
    ``budget`` nodes, nodes expanded).  A negative ``budget`` is refused with
    ValueError.

    Checking at pop prunes exactly the states that checking each child as it
    is pushed would prune, so node counts and paths are those of that search.
    Every move shrinks the state by the same amount (one point; a free pair
    of simplices) and both fingerprints hold that size, so a child can only
    match a state of its own depth.  Pops follow the preorder of the search
    tree, so when a child is popped, every same-depth state pushed before it
    has been popped (an earlier sibling, or a child of a node of its
    parent's depth expanded earlier, whose whole subtree precedes its parent
    in preorder) and none pushed after it has.  The accepted states it is
    checked against are therefore those a push-time check would have seen.
    """
    if budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    seen: dict = {}
    nodes = 0
    stack = [(start, (), None)]
    while stack:
        state, path, move = stack.pop()
        if move is not None:
            state, path = build(state, move), path + (move,)
        bucket = seen.setdefault(fingerprint(state), [])
        if any(isomorphic(state, old) is not None for old in bucket):
            continue
        bucket.append(state)
        nodes += 1
        if nodes > budget:
            return None, False, nodes
        if at_goal(state):
            return path, True, nodes
        stack.extend((state, path, m) for m in reversed(expand(state)))
    return None, True, nodes


def collapse_search(
    space: FiniteSpace,
    target: FiniteSpace | None = None,
    budget: int = 100_000,
) -> SearchResult:
    """Depth-first search for a collapse from ``space`` to ``target``.

    ``target`` is a space to reach up to isomorphism; None means a single
    point.  States already seen up to isomorphism are pruned via fingerprint
    buckets with exact isomorphism checks, so a failed search that exhausts
    the frontier within budget is a conclusive negative.
    """
    goal_n = 1 if target is None else target.n
    if goal_n < 1:
        raise ValueError("target must be nonempty")

    def at_goal(s: FiniteSpace) -> bool:
        return s.n == goal_n and (target is None or is_isomorphic(s, target) is not None)

    def expand(s: FiniteSpace) -> list[SpaceMove]:
        return _candidate_moves(s) if s.n > goal_n else []

    def build(s: FiniteSpace, move: SpaceMove) -> FiniteSpace:
        return s.delete(move.label)

    path, conclusive, nodes = _budgeted_search(
        space, expand, build, at_goal, FiniteSpace.fingerprint, is_isomorphic, budget
    )
    cert = None if path is None else SpaceMoveCertificate(space, path)
    return SearchResult(cert, conclusive, nodes)


# -- homotopy equivalence -------------------------------------------------------


def homotopy_equivalent(a: FiniteSpace, b: FiniteSpace) -> SpaceEquivalence | None:
    """Decide homotopy equivalence by reducing both spaces to their cores.

    Minimal finite spaces are homotopy equivalent only when homeomorphic, so
    the cores either admit an isomorphism (returned as evidence) or the
    spaces are not equivalent.
    """
    core_a, cert_a = core(a)
    core_b, cert_b = core(b)
    iso = is_isomorphic(core_a, core_b)
    if iso is None:
        return None
    return SpaceEquivalence(cert_a, cert_b, iso)
