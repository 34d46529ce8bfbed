"""Reference model of finite posets, independent of the code under test.

Points are indices; ``down[i]`` and ``up[i]`` are Python-int bitmasks of the
points strictly below and strictly above i.  Every check here is a direct
transcription of a definition (beat point, weak point, contractible, chain,
order isomorphism), so the benchmark can state the answer a job must give
without asking the package it measures.
"""

from __future__ import annotations

import random


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    def __init__(self, labels, down):
        self.labels = list(labels)
        self.n = len(self.labels)
        self.down = list(down)
        self.up = [0] * self.n
        for i in range(self.n):
            for j in bits(self.down[i]):
                self.up[j] |= 1 << i
        self.index = {l: i for i, l in enumerate(self.labels)}

    @classmethod
    def from_relation(cls, labels, pairs):
        """Transitive closure of the pairs (i, j) meaning i < j."""
        n = len(labels)
        down = [0] * n
        for i, j in pairs:
            down[j] |= 1 << i
        changed = True
        while changed:
            changed = False
            for j in range(n):
                acc = down[j]
                for i in bits(down[j]):
                    acc |= down[i]
                if acc != down[j]:
                    down[j] = acc
                    changed = True
        for j in range(n):
            if down[j] >> j & 1:
                raise ValueError("relation has a cycle")
        return cls(labels, down)

    @classmethod
    def parse(cls, text: str):
        labels, pairs = None, []
        for raw in text.splitlines():
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            if parts[0] == "elements:":
                labels = parts[1:]
                index = {l: i for i, l in enumerate(labels)}
            elif parts[0] == "cover:" and labels is not None and len(parts) == 3:
                pairs.append((index[parts[1]], index[parts[2]]))
            else:
                raise ValueError(f"not a poset line: {raw!r}")
        if labels is None:
            raise ValueError("no elements: line")
        return cls.from_relation(labels, pairs)

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def covers(self):
        """Pairs (i, j) with j covering i, in index order."""
        out = []
        for j in range(self.n):
            below = self.down[j]
            for i in bits(below):
                if not any(self.down[k] >> i & 1 for k in bits(below)):
                    out.append((i, j))
        return sorted(out)

    def text(self) -> str:
        lines = ["elements: " + " ".join(self.labels)]
        lines += [f"cover: {self.labels[i]} {self.labels[j]}" for i, j in self.covers()]
        return "\n".join(lines) + "\n"

    def sub(self, mask: int) -> "Poset":
        keep = list(bits(mask))
        pos = {i: k for k, i in enumerate(keep)}
        down = [sum(1 << pos[j] for j in bits(self.down[i] & mask)) for i in keep]
        return Poset([self.labels[i] for i in keep], down)

    def height(self) -> int:
        h = [0] * self.n
        for i in self.linear_extension():
            h[i] = max((h[j] + 1 for j in bits(self.down[i])), default=0)
        return max(h, default=-1) + 1

    def linear_extension(self):
        order, placed = [], 0
        while len(order) < self.n:
            for i in range(self.n):
                if not placed >> i & 1 and self.down[i] & ~placed == 0:
                    order.append(i)
                    placed |= 1 << i
        return order

    # -- chains ------------------------------------------------------------

    def chain_count(self) -> int:
        """Nonempty chains: chains ending at i are i alone or a chain below it."""
        ending = [0] * self.n
        for i in self.linear_extension():
            ending[i] = 1 + sum(ending[j] for j in bits(self.down[i]))
        return sum(ending)

    def chains(self) -> list:
        """Every nonempty chain as an ascending list of indices."""
        out = []

        def grow(chain: list, top: int) -> None:
            out.append(chain)
            for j in bits(self.up[top]):
                grow(chain + [j], j)

        for i in range(self.n):
            grow([i], i)
        return out

    def chains_through(self, x: int) -> int:
        above = self.sub(self.up[x]).chain_count() + 1
        below = self.sub(self.down[x]).chain_count() + 1
        return above * below

    def maximal_chain_count(self) -> int:
        covered = [0] * self.n
        for i, j in self.covers():
            covered[j] |= 1 << i
        paths = [0] * self.n
        for i in self.linear_extension():
            paths[i] = sum(paths[j] for j in bits(covered[i])) or 1
        return sum(paths[i] for i in range(self.n) if self.up[i] == 0)

    # -- beat and weak points ------------------------------------------------

    def beat_side(self, mask: int, i: int):
        """'beat-down', 'beat-up' or None for point i inside the subspace mask."""
        d = self.down[i] & mask
        for j in bits(d):
            if d & ~(self.down[j] | 1 << j) == 0:
                return "beat-down"
        u = self.up[i] & mask
        for j in bits(u):
            if u & ~(self.up[j] | 1 << j) == 0:
                return "beat-up"
        return None

    def core_mask(self, mask: int) -> int:
        changed = True
        while changed:
            changed = False
            for i in bits(mask):
                if self.beat_side(mask, i):
                    mask &= ~(1 << i)
                    changed = True
        return mask

    def contractible(self, mask: int) -> bool:
        return mask != 0 and bin(self.core_mask(mask)).count("1") == 1

    def weak_side(self, mask: int, i: int):
        d = self.contractible(self.down[i] & mask)
        u = self.contractible(self.up[i] & mask)
        if d and u:
            return "both"
        return "down-weak" if d else "up-weak" if u else None

    def holds(self, mask: int, i: int, side: str) -> bool:
        if side == "beat-down":
            d = self.down[i] & mask
            return any(d & ~(self.down[j] | 1 << j) == 0 for j in bits(d))
        if side == "beat-up":
            u = self.up[i] & mask
            return any(u & ~(self.up[j] | 1 << j) == 0 for j in bits(u))
        if side == "down-weak":
            return self.contractible(self.down[i] & mask)
        if side == "up-weak":
            return self.contractible(self.up[i] & mask)
        return False

    # -- isomorphism ---------------------------------------------------------

    def is_isomorphism(self, other: "Poset", mapping: dict) -> bool:
        if set(mapping) != set(self.labels) or set(mapping.values()) != set(other.labels):
            return False
        img = [other.index[mapping[l]] for l in self.labels]
        return all(
            sum(1 << img[j] for j in bits(self.down[i])) == other.down[img[i]]
            for i in range(self.n)
        )

    def _signature(self, i: int):
        return (bin(self.down[i]).count("1"), bin(self.up[i]).count("1"))

    def isomorphic(self, other: "Poset") -> bool:
        if self.n != other.n:
            return False
        sa = [self._signature(i) for i in range(self.n)]
        sb = [other._signature(i) for i in range(other.n)]
        if sorted(sa) != sorted(sb):
            return False
        order = sorted(range(self.n), key=lambda i: sum(s == sa[i] for s in sa))
        image = {}
        used = 0

        def extend(k: int) -> bool:
            nonlocal used
            if k == self.n:
                return True
            i = order[k]
            for j in range(other.n):
                if used >> j & 1 or sb[j] != sa[i]:
                    continue
                if all(
                    (self.down[i] >> a & 1) == (other.down[j] >> b & 1)
                    and (self.up[i] >> a & 1) == (other.up[j] >> b & 1)
                    for a, b in image.items()
                ):
                    image[i] = j
                    used |= 1 << j
                    if extend(k + 1):
                        return True
                    del image[i]
                    used &= ~(1 << j)
            return False

        return extend(0)


# -- constructions ---------------------------------------------------------------


def random_poset(rng: random.Random, n: int, p: float, prefix: str = "p",
                 chains: tuple[int, int] | None = None) -> Poset:
    """Edges i < j on the upper triangle with probability p, then closure.

    With ``chains=(lo, hi)``, draws again until the chain count is in range.
    """
    return draw(rng, lambda: Poset.from_relation(
        [f"{prefix}{i}" for i in range(n)],
        [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p],
    ), chains)


def draw(rng: random.Random, make, chains: tuple[int, int] | None) -> Poset:
    """Call ``make`` until its poset's chain count falls in ``chains``."""
    for _ in range(1000):
        x = make()
        if chains is None or chains[0] <= x.chain_count() <= chains[1]:
            return x
    raise ValueError(f"no draw with a chain count in {chains}")


def add_beat_points(rng: random.Random, base: Poset, count: int, prefix: str = "q") -> Poset:
    """Attach points that are beat points when attached and stay removable.

    Each new point gets the down-set of an existing point y together with y
    (so y is the maximum of its strict down-set) and no up-set, or the dual.
    Removing the new points in reverse order of attachment is a sequence of
    beat-point removals, so the core of the result is the core of ``base``.
    """
    labels, down = list(base.labels), list(base.down)
    up = list(base.up)
    for k in range(count):
        n = len(labels)
        y = rng.randrange(n)
        if rng.random() < 0.5:
            down.append(down[y] | 1 << y)
            up.append(0)
            for j in bits(down[n]):
                up[j] |= 1 << n
        else:
            down.append(0)
            up.append(up[y] | 1 << y)
            for j in bits(up[n]):
                down[j] |= 1 << n
        labels.append(f"{prefix}{k}")
    return Poset(labels, down)


def shuffled(rng: random.Random, poset: Poset, prefix: str) -> Poset:
    """A relabelled copy with its points in random order."""
    perm = list(range(poset.n))
    rng.shuffle(perm)
    pos = {old: new for new, old in enumerate(perm)}
    down = [sum(1 << pos[j] for j in bits(poset.down[old])) for old in perm]
    return Poset([f"{prefix}{k}" for k in range(poset.n)], down)


def subdivision(poset: Poset) -> Poset:
    """Chains ordered by inclusion, with dotted names of their sorted labels."""
    chains = poset.chains()
    masks = [sum(1 << i for i in c) for c in chains]
    order = sorted(range(len(chains)), key=lambda k: (len(chains[k]), sorted(poset.labels[i] for i in chains[k])))
    masks = [masks[k] for k in order]
    names = [".".join(sorted(poset.labels[i] for i in bits(m))) for m in masks]
    down = [
        sum(1 << b for b, mb in enumerate(masks) if mb != ma and mb & ~ma == 0)
        for ma in masks
    ]
    return Poset(names, down)


def four_point_circle(prefix: str = "s") -> Poset:
    """Two minima under two maxima: the minimal finite model of the circle."""
    return Poset.from_relation(
        [f"{prefix}0", f"{prefix}1", f"{prefix}2", f"{prefix}3"],
        [(0, 2), (0, 3), (1, 2), (1, 3)],
    )


def labelled_posets(n: int):
    """Every poset on points 0..n-1 as a list of strict down-set masks.

    A poset on n points is one on n-1 points plus a new point whose strict
    down-set is down-closed, whose strict up-set is up-closed, the two
    disjoint, and every point of the first below every point of the second.
    """
    if n == 0:
        return [[]]
    out = []
    for down in labelled_posets(n - 1):
        k = n - 1
        up = [0] * k
        for i in range(k):
            for j in bits(down[i]):
                up[j] |= 1 << i
        subsets = range(1 << k)
        lower = [s for s in subsets if all(down[i] & ~s == 0 for i in bits(s))]
        upper = [s for s in subsets if all(up[i] & ~s == 0 for i in bits(s))]
        for d in lower:
            for u in upper:
                if d & u or any(down[b] & d != d for b in bits(u)):
                    continue
                new = [m | (1 << k if u >> i & 1 else 0) for i, m in enumerate(down)]
                out.append(new + [d])
    return out


# -- complexes ---------------------------------------------------------------------


def faces_of(facets) -> set:
    out = set()
    for f in facets:
        f = tuple(sorted(f))
        for m in range(1, 1 << len(f)):
            out.add(frozenset(v for k, v in enumerate(f) if m >> k & 1))
    return out


def complex_text(vertices, facets) -> str:
    lines = ["vertices: " + " ".join(vertices)]
    lines += ["facet: " + " ".join(sorted(f)) for f in facets]
    return "\n".join(lines) + "\n"


def maximal(faces: set) -> list:
    return sorted(
        (f for f in faces if not any(f < g for g in faces)),
        key=lambda f: (len(f), sorted(f)),
    )


def random_complex(rng: random.Random, n_vertices: int, n_facets: int, max_dim: int):
    verts = [f"v{i}" for i in range(n_vertices)]
    facets = [
        frozenset(rng.sample(verts, rng.randint(2, max_dim + 1))) for _ in range(n_facets)
    ]
    return verts, maximal(faces_of(facets) | {frozenset([v]) for v in verts})


def free_pairs(faces: set) -> list:
    """(face, apex) with face + apex the only proper coface of face."""
    out = []
    for s in faces:
        cof = [t for t in faces if s < t]
        if len(cof) == 1 and len(cof[0]) == len(s) + 1:
            out.append((s, next(iter(cof[0] - s))))
    return sorted(out, key=lambda p: (len(p[0]), sorted(p[0]), p[1]))


DUNCE_FACETS = [
    ("1", "2", "4"), ("1", "2", "5"), ("1", "2", "8"),
    ("1", "3", "6"), ("1", "3", "7"), ("1", "3", "8"),
    ("1", "4", "5"), ("1", "6", "7"),
    ("2", "3", "4"), ("2", "3", "6"), ("2", "3", "7"),
    ("2", "5", "7"), ("2", "6", "8"),
    ("3", "4", "8"),
    ("4", "5", "7"), ("4", "7", "8"),
    ("6", "7", "8"),
]


def face_poset(faces: set) -> Poset:
    """Simplices ordered by inclusion, dotted names, sorted by size then name."""
    simps = sorted(faces, key=lambda f: (len(f), sorted(f)))
    names = [".".join(sorted(f)) for f in simps]
    down = [sum(1 << b for b, t in enumerate(simps) if t < s) for s in simps]
    return Poset(names, down)


def euler_characteristic(faces: set) -> int:
    return sum((-1) ** (len(f) - 1) for f in faces)


def monotone_maps(dom: Poset, cod: Poset) -> int:
    """Number of order-preserving maps dom -> cod."""
    order = dom.linear_extension()
    images = [-1] * dom.n

    def place(k: int) -> int:
        if k == dom.n:
            return 1
        i = order[k]
        total = 0
        for y in range(cod.n):
            if all(images[j] == y or cod.down[y] >> images[j] & 1 for j in bits(dom.down[i])):
                images[i] = y
                total += place(k + 1)
        images[i] = -1
        return total

    return place(0)
