"""Beat points, weak points, cores and certified collapses.

A point is a beat point when its strict up-set has a minimum or its strict
down-set has a maximum; removing one does not change the homotopy type, and
iterating removals reaches the core.  A point is a weak point when its
punctured minimal open set or punctured closure is contractible; removing
one is an elementary collapse of spaces.  Every operation here that changes
a space also returns a replayable move record, and the verifier rechecks
each move against the definitions from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .spaces import FiniteSpace, is_isomorphic

if TYPE_CHECKING:
    from .complexes import SimplicialComplex, SimplicialMoveCertificate

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


@dataclass(frozen=True)
class SpaceMove:
    """One elementary step on a space.

    ``remove`` deletes the named point, which must satisfy the declared side
    in the space the move is applied to.  ``add`` inserts a fresh point with
    the given strict down-set and up-set, and the point must satisfy the
    declared side in the resulting space.
    """

    direction: str  # 'remove' | 'add'
    label: str
    side: str
    down: tuple[str, ...] | None = None
    up: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.direction not in ("remove", "add"):
            raise ValueError(f"bad move direction {self.direction!r}")
        if self.side not in SIDES:
            raise ValueError(f"bad move side {self.side!r}")
        if self.direction == "add" and (self.down is None or self.up is None):
            raise ValueError("add moves need down= and up= attaching sets")


@dataclass(frozen=True)
class SpaceMoveCertificate:
    start: FiniteSpace
    moves: tuple[SpaceMove, ...]

    def __len__(self) -> int:
        return len(self.moves)


@dataclass(frozen=True)
class ReplayResult:
    ok: bool
    step: int | None = None
    reason: str = ""
    final: FiniteSpace | SimplicialComplex | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class SearchResult:
    certificate: SpaceMoveCertificate | SimplicialMoveCertificate | None
    conclusive: bool
    nodes: int

    def __bool__(self) -> bool:
        return self.certificate is not None


@dataclass(frozen=True)
class SpaceEquivalence:
    """Evidence that two spaces are homotopy equivalent: both cores plus the
    isomorphism between them."""

    core_certificate_a: SpaceMoveCertificate
    core_certificate_b: SpaceMoveCertificate
    isomorphism: dict[str, str]


# -- beat points ---------------------------------------------------------


def is_up_beat(space: FiniteSpace, x: int | str) -> str | None:
    """If the strict up-set of x has a minimum, return that witness label."""
    i = space.index(x)
    up = space.above(i).copy()
    up[i] = False
    members = np.flatnonzero(up)
    for j in members:
        if np.all(space.leq[j, up]):
            return space.labels[int(j)]
    return None


def is_down_beat(space: FiniteSpace, x: int | str) -> str | None:
    """If the strict down-set of x has a maximum, return that witness label."""
    i = space.index(x)
    down = space.below(i).copy()
    down[i] = False
    members = np.flatnonzero(down)
    for j in members:
        if np.all(space.leq[down, j]):
            return space.labels[int(j)]
    return None


def _beat_side(space: FiniteSpace, i: int | str) -> tuple[str, str] | None:
    """The beat side of point i with its witness, testing down before up."""
    for side, test in (("beat-down", is_down_beat), ("beat-up", is_up_beat)):
        witness = test(space, i)
        if witness is not None:
            return side, witness
    return None


def beat_points(space: FiniteSpace) -> list[str]:
    """Labels of all beat points, in index order."""
    return [space.labels[i] for i in range(space.n) if _beat_side(space, i) is not None]


# -- cores and contractibility --------------------------------------------


def _strip_beats(
    space: FiniteSpace, priority: Sequence[str], floor: int = 0
) -> tuple[FiniteSpace, list[tuple[SpaceMove, str]]]:
    """Remove the first beat point in ``priority`` until none is left or the
    space is down to ``floor`` points; returns each removal with its witness."""
    current = space
    removed: list[tuple[SpaceMove, str]] = []
    while current.n > floor:
        for lab in priority:
            if lab in current._index:
                beat = _beat_side(current, lab)
                if beat is not None:
                    break
        else:
            break
        removed.append((SpaceMove("remove", lab, beat[0]), beat[1]))
        current = current.delete(lab)
    return current, removed


def core(
    space: FiniteSpace, order: Sequence[int | str] | None = None
) -> tuple[FiniteSpace, SpaceMoveCertificate]:
    """Remove beat points until none remain.

    The scan prefers the earliest point in ``order`` (default: ascending
    index) and down-beat before up-beat, so the result is deterministic.
    The certificate records every removal; the core itself is unique up to
    isomorphism no matter the order.
    """
    priority = list(space.labels)
    if order is not None:
        priority = [space.labels[space.index(x)] for x in order]
        if sorted(priority) != sorted(space.labels):
            raise ValueError("order must mention every point exactly once")
    current, removed = _strip_beats(space, priority)
    return current, SpaceMoveCertificate(space, tuple(move for move, _ in removed))


def is_contractible(space: FiniteSpace) -> bool:
    """True iff the core is a single point.  Exact, never a homology proxy."""
    if space.n == 0:
        return False
    return core(space)[0].n == 1


# -- weak points -----------------------------------------------------------


def is_weak_point(space: FiniteSpace, x: int | str) -> str | None:
    """Classify x as 'down-weak', 'up-weak', 'both' or None.

    Down-weak means the punctured minimal open set is contractible; up-weak
    is the dual condition on the punctured closure.
    """
    i = space.index(x)
    down = space.minimal_open(i).without(i)
    up = space.closure(i).without(i)
    d = len(down) > 0 and is_contractible(down.as_space())
    u = len(up) > 0 and is_contractible(up.as_space())
    if d and u:
        return "both"
    if d:
        return "down-weak"
    if u:
        return "up-weak"
    return None


def weak_points(space: FiniteSpace) -> list[tuple[str, str]]:
    """All weak points with their classification, in index order."""
    out = []
    for i in range(space.n):
        side = is_weak_point(space, i)
        if side is not None:
            out.append((space.labels[i], side))
    return out


def _classify_for_removal(space: FiniteSpace, i: int) -> str | None:
    """Strongest applicable side for removing point i, or None."""
    beat = _beat_side(space, i)
    if beat is not None:
        return beat[0]
    side = is_weak_point(space, i)
    return "down-weak" if side == "both" else side


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
    down_idx = [space.index(d) for d in down]
    up_idx = [space.index(u) for u in up]
    if set(down_idx) & set(up_idx):
        raise ValueError("attaching sets overlap")
    n = space.n
    rel = np.zeros((n + 1, n + 1), dtype=bool)
    rel[:n, :n] = space.leq
    rel[n, n] = True
    for d in down_idx:
        rel[d, n] = True
    for u in up_idx:
        rel[n, u] = True
    return FiniteSpace(space.labels + (label,), rel)


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


def _check_side(space: FiniteSpace, label: str, side: str) -> str | None:
    """Recheck a declared side from the definitions; None means it holds."""
    i = space.index(label)
    if side == "beat-down":
        if is_down_beat(space, i) is None:
            return "strict down-set has no maximum"
        return None
    if side == "beat-up":
        if is_up_beat(space, i) is None:
            return "strict up-set has no minimum"
        return None
    if side == "down-weak":
        part = space.minimal_open(i).without(i)
        if len(part) == 0 or not is_contractible(part.as_space()):
            return "punctured minimal open set is not contractible"
        return None
    part = space.closure(i).without(i)
    if len(part) == 0 or not is_contractible(part.as_space()):
        return "punctured closure is not contractible"
    return None


def verify_space_certificate(cert: SpaceMoveCertificate) -> ReplayResult:
    """Replay every move against the definitions, reporting the first failure."""
    current = cert.start
    for k, move in enumerate(cert.moves):
        if move.direction == "remove":
            if move.label not in current._index:
                return ReplayResult(False, k, f"no point labeled {move.label!r}")
            fail = _check_side(current, move.label, move.side)
            if fail is not None:
                return ReplayResult(False, k, f"{move.label!r} is not {move.side}: {fail}")
            current = current.delete(move.label)
        else:
            try:
                bigger = _attach(current, move.down or (), move.up or (), move.label)
            except (ValueError, KeyError) as exc:
                return ReplayResult(False, k, f"cannot attach {move.label!r}: {exc}")
            fail = _check_side(bigger, move.label, move.side)
            if fail is not None:
                return ReplayResult(
                    False, k, f"added point {move.label!r} is not {move.side}: {fail}"
                )
            current = bigger
    return ReplayResult(True, None, "", current)


# -- collapse search ----------------------------------------------------------


def _candidate_moves(space: FiniteSpace) -> list[SpaceMove]:
    """Removal moves in deterministic preference order: beats, then weak."""
    moves = []
    for i in range(space.n):
        side = _classify_for_removal(space, i)
        if side is not None:
            moves.append(SpaceMove("remove", space.labels[i], side))
    return sorted(moves, key=lambda m: not m.side.startswith("beat"))


def _budgeted_search(start, expand, at_goal, fingerprint, isomorphic, budget):
    """Depth-first search for a state passing ``at_goal``.

    ``expand`` yields (move, child) pairs in preference order; a child that
    ``isomorphic`` matches (not None) with a seen state of the same
    ``fingerprint`` is pruned.  Returns (move path or None, whether the
    search ended within ``budget`` nodes, nodes expanded).
    """
    seen: dict = {}

    def visit(state) -> bool:
        bucket = seen.setdefault(fingerprint(state), [])
        if any(isomorphic(state, old) is not None for old in bucket):
            return False
        bucket.append(state)
        return True

    nodes = 0
    stack = [(start, ())]
    visit(start)
    while stack:
        current, path = stack.pop()
        nodes += 1
        if nodes > budget:
            return None, False, nodes
        if at_goal(current):
            return path, True, nodes
        children = [
            (child, path + (move,)) for move, child in expand(current) if visit(child)
        ]
        stack.extend(reversed(children))
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

    def expand(s: FiniteSpace):
        if s.n > goal_n:
            for move in _candidate_moves(s):
                yield move, s.delete(move.label)

    path, conclusive, nodes = _budgeted_search(
        space, expand, at_goal, FiniteSpace.fingerprint, is_isomorphic, budget
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
