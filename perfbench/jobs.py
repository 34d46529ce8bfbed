"""Seeded jobs for the four workloads, each with its answer known in advance.

A workload is a list of cells.  A cell is one kind of job on one kind of
input (``core`` on random posets with n=45, ``verify`` on a mutated bridge
expansion, ...).  A run uses ``count`` instances of each cell, picked with
``random.Random(--seed)`` from a fixed universe of ``universe(count)``;
instance i is generated from its own seed string.  Every workload therefore
has the same composition under every seed, which keeps the throughput
steady, while the concrete inputs change with the seed.  The universe is
finite so that the stdout digest of every job could be recorded once, on a
reference commit, in ``digests.json``.

The program under test only ever sees the files a builder writes.  Each
builder states the exit codes the job may return and a check of its stdout
that uses the reference model in ``oracle.py`` or facts that hold by
construction, never the package being measured.
"""

from __future__ import annotations

import io
import math
import os
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import finspace.cli
import finspace.complexes as cx
import finspace.fileio as fio
import finspace.functors as fun
import finspace.maps as mp
import finspace.moves as mv
import finspace.spaces as sp
import oracle as O

PER_CELL = 6


def universe(count: int) -> int:
    """Instances a cell has when a run uses ``count`` of them."""
    return count + count // 3


@dataclass
class Job:
    """``run`` returns (exit code, stdout).  It looks package functions up as
    module attributes when it runs, so traced mode's wrappers get called."""

    run: Callable[[], tuple[int, str]]
    exits: frozenset
    check: Callable[[int, str], str | None]
    stats: dict = field(default_factory=dict)
    key: str = ""
    ref: tuple | None = None  # (exit code, stdout) of the warm-up run


class Workspace:
    """Writes one job's input files under a run directory."""

    def __init__(self, root: str, key: str):
        self.root = root
        self.stem = key.replace(":", "-")

    def write(self, suffix: str, text: str) -> str:
        path = os.path.join(self.root, f"{self.stem}{suffix}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def cli(argv: list[str]) -> Callable[[], tuple[int, str]]:
    """Run ``finspace.cli.main`` in-process; stdout is the job's answer."""

    def run() -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = finspace.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 3
        return code, out.getvalue()

    return run


def poset_stats(p: O.Poset) -> dict:
    return {"points": p.n, "height": p.height(), "chains": p.chain_count()}


# -- output checks -------------------------------------------------------------


def _moves(text: str):
    """Split certificate text into (start poset text, [(verb, rest)])."""
    head, moves = [], []
    for line in text.splitlines()[1:]:
        if line.startswith(("elements:", "cover:", "vertices:", "facet:")) and not moves:
            head.append(line)
        elif line:
            verb, rest = line.split(None, 1)
            moves.append((verb, rest))
    return "\n".join(head) + "\n", moves


def replay_removals(start: O.Poset, text: str) -> tuple[int | None, str | None]:
    """Replay a removal certificate on the reference model; (final mask, problem)."""
    if not text.startswith("start:"):
        return None, "certificate does not begin with start:"
    head, moves = _moves(text)
    given = O.Poset.parse(head)
    if not start.is_isomorphism(given, {l: l for l in start.labels}):
        return None, "certificate starts elsewhere than the input"
    mask = start.full
    for verb, rest in moves:
        label, side = rest.split()
        i = start.index.get(label)
        if verb != "remove" or i is None or not mask >> i & 1:
            return None, f"bad move {verb} {rest}"
        if not start.holds(mask, i, side):
            return None, f"{label} is not {side}"
        mask &= ~(1 << i)
    return mask, None


def check_subspace_core(start: O.Poset, text: str, size: int | None = None) -> str | None:
    got = O.Poset.parse(text)
    if not set(got.labels) <= set(start.labels):
        return "core has points outside the input"
    mask = sum(1 << start.index[l] for l in got.labels)
    induced = start.sub(mask)
    if not induced.is_isomorphism(got, {l: l for l in induced.labels}):
        return "core is not the induced subspace"
    if any(got.beat_side(got.full, i) for i in range(got.n)):
        return "core has a beat point"
    if size is not None and got.n != size:
        return f"core has {got.n} points, expected {size}"
    return None


def expect_text(want: str) -> Callable[[int, str], str | None]:
    return lambda code, out: None if out == want else f"stdout {out[:80]!r} != {want[:80]!r}"


def parse_homology(out: str) -> dict:
    groups = {}
    for line in out.splitlines():
        m = re.fullmatch(r"H~?_(\d+) = (.*)", line)
        if not m:
            raise ValueError(f"not a homology line: {line!r}")
        groups[int(m.group(1))] = m.group(2)
    return groups


def betti(group: str) -> int:
    total = 0
    for part in group.split(" ⊕ "):
        if part == "Z":
            total += 1
        elif part.startswith("Z^"):
            total += int(part[2:])
    return total


def check_euler(chi: int, dims: int) -> Callable[[int, str], str | None]:
    def check(code, out):
        groups = parse_homology(out)
        if sorted(groups) != list(range(dims)):
            return f"homology lists dimensions {sorted(groups)}"
        got = sum((-1) ** d * betti(g) for d, g in groups.items())
        return None if got == chi else f"Euler characteristic {got} != {chi}"

    return check


def sphere_homology(d: int, dims: int) -> str:
    return "\n".join(
        f"H_{k} = {'Z' if k in (0, d) else '0'}" for k in range(dims)
    ) + "\n"


# -- inputs shared by several workloads -----------------------------------------

GRID = [(20, 0.3), (30, 0.2), (45, 0.1), (60, 0.07), (70, 0.05)]

WALLET_COVERS = [
    ("m1", "t1"), ("m2", "t1"), ("m1", "t2"), ("m3", "t2"),
    ("m2", "x"), ("m4", "x"), ("m3", "t4"), ("m4", "t4"),
    ("c1", "m1"), ("c2", "m1"), ("c1", "m2"), ("c2", "m2"),
    ("c2", "m3"), ("c3", "m3"), ("c2", "m4"), ("c3", "m4"),
]


def from_covers(labels, covers) -> O.Poset:
    index = {l: i for i, l in enumerate(labels)}
    return O.Poset.from_relation(labels, [(index[a], index[b]) for a, b in covers])


def wallet() -> O.Poset:
    return from_covers(
        ["t1", "t2", "x", "t4", "m1", "m2", "m3", "m4", "c1", "c2", "c3"], WALLET_COVERS
    )


def sd3() -> O.Poset:
    tops, bottoms = ["a1", "a2"], ["b1", "b2", "b3"]
    return from_covers(tops + bottoms, [(b, a) for a in tops for b in bottoms])


def sphere(d: int) -> O.Poset:
    """Minimal finite model of the d-sphere: d+1 levels of two points."""
    labels = [f"{c}{k}" for k in range(d + 1) for c in "ab"]
    covers = [
        (f"{c}{k}", f"{e}{k + 1}") for k in range(d) for c in "ab" for e in "ab"
    ]
    return from_covers(labels, covers)


def four_point() -> O.Poset:
    return from_covers(["a", "b", "c", "d"], [("c", "a"), ("c", "b"), ("d", "c")])


def point_plus_beats(rng, count: int) -> O.Poset:
    return O.add_beat_points(rng, O.Poset(["o"], [0]), count)


CORPUS_SD = {
    "sdwallet": lambda: O.subdivision(wallet()),
    "sdsd4": lambda: O.subdivision(O.subdivision(four_point())),
}


def x_of_complex(name: str, rng) -> O.Poset:
    if name == "dunce":
        return O.face_poset(O.faces_of(O.DUNCE_FACETS))
    return O.face_poset(O.faces_of(O.random_complex(rng, 9, 8, 2)[1]))


# -- certify: core, core --certificate, weak-points, collapse, iso ---------------


def core_job(n, p, certificate=False):
    def build(rng, ws):
        x = O.random_poset(rng, n, p)
        path = ws.write(".poset", x.text())
        argv = ["core", path] + (["--certificate"] if certificate else [])
        if certificate:
            def check(code, out):
                mask, problem = replay_removals(x, out)
                if problem:
                    return problem
                left = x.sub(mask)
                if any(left.beat_side(left.full, i) for i in range(left.n)):
                    return "certificate stops before the core"
                return None
        else:
            def check(code, out):
                return check_subspace_core(x, out)
        return Job(cli(argv), frozenset({0}), check, poset_stats(x))

    return build


def core_known(base_fn, beats):
    def build(rng, ws):
        base = base_fn()
        x = O.shuffled(rng, O.add_beat_points(rng, base, beats), "u")
        path = ws.write(".poset", x.text())
        check = lambda code, out: check_subspace_core(x, out, base.n)
        return Job(cli(["core", path]), frozenset({0}), check, poset_stats(x))

    return build


def weak_job(make):
    def build(rng, ws):
        x = make(rng)
        path = ws.write(".poset", x.text())
        want = "".join(
            f"{x.labels[i]} {side}\n"
            for i in range(x.n)
            if (side := x.weak_side(x.full, i)) is not None
        )
        return Job(cli(["weak-points", path]), frozenset({0}), expect_text(want),
                   poset_stats(x))

    return build


def collapse_job(make, budget, exits):
    """``collapse --budget``; a found certificate must reach a single point."""

    def build(rng, ws):
        x = make(rng)
        path = ws.write(".poset", x.text())

        def check(code, out):
            if code != 0:
                return None if out == "" else "stdout on a failed search"
            mask, problem = replay_removals(x, out)
            if problem:
                return problem
            return None if bin(mask).count("1") == 1 else "collapse stops early"

        argv = ["collapse", path, "--budget", str(budget)]
        return Job(cli(argv), frozenset(exits), check, poset_stats(x))

    return build


def iso_job(make, near_miss):
    def build(rng, ws):
        x = make(rng)
        y = O.shuffled(rng, x, "w")
        if near_miss:
            # Deleting a cover removes a comparable pair, so the sizes of the
            # relations differ and no isomorphism can exist.
            i, j = rng.choice(y.covers())
            pairs = [(a, b) for a, b in y.covers() if (a, b) != (i, j)]
            y = O.Poset.from_relation(y.labels, pairs)
        a = ws.write("-a.poset", x.text())
        b = ws.write("-b.poset", y.text())

        def check(code, out):
            if near_miss:
                return None if out == "" else "mapping printed for a near miss"
            mapping = dict(line.split(" -> ") for line in out.splitlines())
            return None if x.is_isomorphism(y, mapping) else "not an isomorphism"

        exits = {1} if near_miss else {0}
        return Job(cli(["iso", a, b]), frozenset(exits), check, poset_stats(x))

    return build


def shuffled_fixed(fn):
    return lambda rng: O.shuffled(rng, fn(), "z")


def random_fixed(n, p):
    return lambda rng: O.random_poset(rng, n, p)


def face_poset_of(name):
    return lambda rng: O.shuffled(rng, x_of_complex(name, rng), "f")


# The two subdivided corpus spaces are one space under every seed, only
# relabelled, so their searches cost nearly the same every time and two
# instances per pass suffice.
#
# In every workload, most counts other than PER_CELL set where the median
# and the 90th percentile of a pass's latencies fall: inside dense runs of
# similar jobs, so that they move little with the seed's choice of
# instances.  They were chosen by resampling measured instance costs over a
# few hundred seeds.
CERTIFY = (
    [(f"core-r{n}", core_job(n, p), 12 if n <= 30 else PER_CELL) for n, p in GRID]
    + [(f"corecert-r{n}", core_job(n, p, certificate=True)) for n, p in GRID[1:3]]
    + [
        ("core-known-circle", core_known(O.four_point_circle, 40)),
        ("core-known-sd3", core_known(sd3, 30)),
        ("core-known-wallet", core_known(wallet, 30)),
    ]
    + [(f"weak-r{n}", weak_job(random_fixed(n, p)), 4 if n == 70 else PER_CELL)
       for n, p in GRID if n != 60]
    + [(f"weak-{name}", weak_job(shuffled_fixed(fn))) for name, fn in CORPUS_SD.items()]
    + [("weak-xdunce", weak_job(face_poset_of("dunce")), 8),
       ("weak-xrandom", weak_job(face_poset_of("random")))]
    + [
        ("collapse-sd3", collapse_job(shuffled_fixed(sd3), 100, {1})),
        ("collapse-beats", collapse_job(lambda rng: point_plus_beats(rng, 10), 64, {0})),
        # X' of a collapsible space is collapsible, so no search may say "no".
        ("collapse-sdwallet", collapse_job(shuffled_fixed(CORPUS_SD["sdwallet"]), 2, {0, 2}), 2),
        ("collapse-sdsd4", collapse_job(shuffled_fixed(CORPUS_SD["sdsd4"]), 2, {0, 2}), 2),
        # The subdivided dunce hat has no free face, so X(dunce) never collapses.
        ("collapse-xdunce", collapse_job(face_poset_of("dunce"), 5, {1, 2})),
        ("collapse-r20", collapse_job(random_fixed(20, 0.2), 2, {0, 1, 2})),
    ]
    + [
        ("iso-r30", iso_job(random_fixed(30, 0.2), False)),
        ("iso-r45", iso_job(random_fixed(45, 0.1), False)),
        ("iso-sdwallet", iso_job(shuffled_fixed(CORPUS_SD["sdwallet"]), False)),
        ("iso-near-r30", iso_job(random_fixed(30, 0.2), True)),
        ("iso-near-r70", iso_job(random_fixed(70, 0.05), True)),
    ]
)


# -- replay: verify on certificates written during set-up ------------------------


def _space(p: O.Poset):
    return fio.parse_space(p.text())


def valid_line(moves: int, size: int) -> str:
    return f"valid: {moves} moves replay; final object has size {size}\n"


def ghost_remove(rng, text: str) -> str:
    """Rename the point of one removal to a label the space never had."""
    lines = text.splitlines()
    picks = [k for k, l in enumerate(lines) if l.startswith("remove ")]
    k = rng.choice(picks)
    verb, _, side = lines[k].split()
    lines[k] = f"{verb} ghost {side}"
    return "\n".join(lines) + "\n"


def drop_needed_add(rng, text: str) -> str:
    """Drop an add move whose point a later add attaches to."""
    lines = text.splitlines()
    adds = [k for k, l in enumerate(lines) if l.startswith("add ")]
    needed = [
        k for k in adds
        if any(re.search(r"[{ ]" + re.escape(lines[k].split()[1]) + r"[ }]", lines[j])
               for j in adds if j > k)
    ]
    del lines[rng.choice(needed)]
    return "\n".join(lines) + "\n"


def ghost_apex(rng, text: str) -> str:
    """Give one simplicial move an apex vertex the complex never had."""
    lines = text.splitlines()
    picks = [k for k, l in enumerate(lines) if l.startswith(("add {", "remove {"))]
    k = rng.choice(picks)
    lines[k] = lines[k].rsplit(" ", 1)[0] + " ghost"
    return "\n".join(lines) + "\n"


def verify_job(make, mutate=None):
    """``verify`` on a certificate; ``make`` returns its text, its number of
    moves, the size of the object it ends on and the input's size stats."""

    def build(rng, ws):
        text, moves, size, stats = make(rng)
        if mutate is not None:
            text = mutate(rng, text)
        path = ws.write(".cert", text)
        stats = dict(stats, cert_moves=moves)
        if mutate is None:
            return Job(cli(["verify", path]), frozenset({0}),
                       expect_text(valid_line(moves, size)), stats)
        return Job(cli(["verify", path]), frozenset({1}), expect_text(""), stats)

    return build


def removal_text(x: O.Poset, moves) -> str:
    """A certificate in the package's text format: inline start, then moves."""
    return "start:\n" + x.text() + "".join(f"remove {l} {side}\n" for l, side in moves)


def reduce(x: O.Poset, weak: bool):
    """Remove the first beat point (or, with ``weak``, weak point) until none
    is left, on the reference model; returns the moves and the final size."""
    mask, moves = x.full, []
    while True:
        step = next(((i, x.beat_side(mask, i)) for i in O.bits(mask)
                     if x.beat_side(mask, i)), None)
        if step is None and weak and bin(mask).count("1") > 1:
            step = next(((i, side) for i in O.bits(mask)
                         for side in ("down-weak", "up-weak") if x.holds(mask, i, side)), None)
        if step is None:
            return moves, bin(mask).count("1")
        moves.append((x.labels[step[0]], step[1]))
        mask &= ~(1 << step[0])


def core_cert(n, p):
    def make(rng):
        x = O.random_poset(rng, n, p)
        moves, size = reduce(x, weak=False)
        return removal_text(x, moves), len(moves), size, poset_stats(x)

    return make


def collapse_cert(make_space):
    """A collapse to a point, found greedily: the spaces it is given are
    built so that any beat or weak point removed keeps them collapsible."""

    def make(rng):
        x = make_space(rng)
        moves, size = reduce(x, weak=True)
        if size != 1:
            raise ValueError("greedy collapse got stuck")
        return removal_text(x, moves), len(moves), size, poset_stats(x)

    return make


def wallet_with_beats(rng):
    return O.shuffled(rng, O.add_beat_points(rng, wallet(), 20), "u")


def bridge_cert(n, p, half):
    def make(rng):
        x = O.random_poset(rng, n, p, chains=(40, 60))
        br = fun.bridge_space(_space(x))
        chains = x.chain_count()
        if half == "expansion":
            cert, size = br.expansion, x.n + chains
        else:
            cert, size = br.collapse, chains
        return fio.format_space_certificate(cert), len(cert.moves), size, poset_stats(x)

    return make


def chain_tops(x: O.Poset, sd: O.Poset) -> dict:
    """The map X' -> X sending a chain (a dotted name) to its maximum."""
    tops = {}
    for name in sd.labels:
        members = [x.index[l] for l in name.split(".")]
        tops[name] = x.labels[max(members, key=lambda i: bin(x.down[i]).count("1"))]
    return tops


def h_map_text(ws, x: O.Poset) -> tuple[str, O.Poset]:
    sd = O.subdivision(x)
    dom = ws.write("-dom.poset", sd.text())
    cod = ws.write("-cod.poset", x.text())
    sends = "".join(f"send: {c} {y}\n" for c, y in chain_tops(x, sd).items())
    text = f"dom: {os.path.basename(dom)}\ncod: {os.path.basename(cod)}\n{sends}"
    return ws.write(".map", text), sd


def cylinder_cert(half):
    def make(rng):
        x = O.random_poset(rng, 6, 0.4, chains=(15, 25))
        sd = O.subdivision(x)
        f = mp.ContinuousMap.from_labels(_space(sd), _space(x), chain_tops(x, sd))
        cy = fun.cylinder_certificates(f)
        cert = cy.expansion if half == "expansion" else cy.collapse
        size = sd.n + x.n if half == "expansion" else sd.n
        stats = dict(poset_stats(x), map_space=x.n ** sd.n)
        return fio.format_space_certificate(cert), len(cert.moves), size, stats

    return make


def weak_point_space(rng) -> tuple[O.Poset, str]:
    """The wallet plus beat points attached away from x, so x stays weak.

    A beat point attached over or under a point other than x is a beat point
    of x's punctured open set too, or misses it, so that set stays
    contractible.
    """
    return O.draw(rng, lambda: _grown_wallet(rng), (200, 320)), "x"


def _grown_wallet(rng) -> O.Poset:
    p = wallet()
    x = p.index["x"]
    for k in range(12):
        y = rng.choice([i for i in range(p.n) if i != x])
        if rng.random() < 0.5:
            p = O.Poset(p.labels + [f"q{k}"], p.down + [p.down[y] | 1 << y])
        else:
            above = p.up[y] | 1 << y
            down = [d | (1 << p.n if above >> i & 1 else 0) for i, d in enumerate(p.down)]
            p = O.Poset(p.labels + [f"q{k}"], down + [0])
    return p


def translate_point_cert(rng):
    x, pt = weak_point_space(rng)
    cert = fun.translate_space_collapse(_space(x), pt)
    moves = len(cert.moves)
    size = x.chain_count()
    return fio.format_simplicial_certificate(cert), moves, size, poset_stats(x)


def random_free_pair(rng):
    while True:
        verts, facets = O.random_complex(rng, 8, 7, 2)
        faces = O.faces_of(facets)
        pairs = O.free_pairs(faces)
        if pairs:
            return verts, facets, faces, rng.choice(pairs)


def translate_pair_cert(rng):
    verts, facets, faces, (face, apex) = random_free_pair(rng)
    k = cx.from_facets([sorted(f) for f in facets])
    cert = fun.translate_simplicial_collapse(k, sorted(face), apex)
    return fio.format_space_certificate(cert), 2, len(faces) - 2, complex_stats(faces)


def space_sd_cert(rng):
    """A collapse certificate of X' for a small collapsible X."""
    return collapse_cert(lambda r: O.shuffled(r, O.subdivision(four_point()), "z"))(rng)


REPLAY = [
    ("vcore-r45", verify_job(core_cert(45, 0.1))),
    ("vcore-r70", verify_job(core_cert(70, 0.05)), 8),
    ("vcore-r45-ghost", verify_job(core_cert(45, 0.1), ghost_remove)),
    ("vcollapse-beats", verify_job(collapse_cert(lambda rng: point_plus_beats(rng, 40)))),
    ("vcollapse-wallet", verify_job(collapse_cert(wallet_with_beats))),
    ("vcollapse-wallet-ghost", verify_job(collapse_cert(wallet_with_beats), ghost_remove)),
    ("vcollapse-sd4", verify_job(space_sd_cert)),
    ("vbridge-exp", verify_job(bridge_cert(8, 0.3, "expansion")), 12),
    ("vbridge-col", verify_job(bridge_cert(8, 0.3, "collapse"))),
    ("vbridge-exp-drop", verify_job(bridge_cert(8, 0.3, "expansion"), drop_needed_add), 10),
    ("vbridge-col-ghost", verify_job(bridge_cert(8, 0.3, "collapse"), ghost_remove)),
    ("vcyl-exp", verify_job(cylinder_cert("expansion"))),
    ("vcyl-col", verify_job(cylinder_cert("collapse")), 12),
    ("vcyl-exp-drop", verify_job(cylinder_cert("expansion"), drop_needed_add)),
    ("vtrans-point", verify_job(translate_point_cert)),
    ("vtrans-point-ghost", verify_job(translate_point_cert, ghost_apex)),
    ("vtrans-pair", verify_job(translate_pair_cert)),
    ("vtrans-pair-ghost", verify_job(translate_pair_cert, ghost_remove)),
]


# -- subdivide: k, x, subdivide, bridge, homology, translate-collapse, cylinder -----


def count_lines(out: str, prefix: str) -> int:
    return sum(1 for line in out.splitlines() if line.startswith(prefix))


# Chain enumeration is exponential in the height, so a random poset's cost
# under k, subdivide, bridge or homology follows its chain count.  Each cell
# draws its posets with a chain count in a fixed band: the cost of a cell
# then varies little with the seed, and the blow-ups are left to the probe.


def k_job(n, p, chains):
    def build(rng, ws):
        x = O.random_poset(rng, n, p, chains=chains)
        path = ws.write(".poset", x.text())
        facets = x.maximal_chain_count()

        def check(code, out):
            if sorted(out.splitlines()[0].split()[1:]) != sorted(x.labels):
                return "vertices differ from the points"
            got = count_lines(out, "facet:")
            return None if got == facets else f"{got} facets, expected {facets}"

        return Job(cli(["k", path]), frozenset({0}), check, poset_stats(x))

    return build


def complex_input(name):
    def make(rng):
        if name == "dunce":
            return [f"d{v}" for v in "12345678"], [frozenset("d" + v for v in f) for f in O.DUNCE_FACETS]
        if name == "sddunce":
            return sd_complex(O.faces_of(O.DUNCE_FACETS))
        return O.random_complex(rng, 12, 10, 3)

    return make


def sd_complex(faces):
    """Barycentric subdivision: its facets are the maximal chains of faces."""
    fp = O.face_poset(faces)
    covered_by = [[] for _ in range(fp.n)]
    for i, j in fp.covers():
        covered_by[i].append(j)
    chains = []

    def grow(chain, top):
        if not covered_by[top]:
            chains.append(frozenset(fp.labels[i] for i in chain))
        for j in covered_by[top]:
            grow(chain + [j], j)

    for i in range(fp.n):
        if fp.down[i] == 0:
            grow([i], i)
    return list(fp.labels), chains


def complex_stats(faces) -> dict:
    """Sizes of a complex as a space: its face poset."""
    return poset_stats(O.face_poset(faces))


def x_job(name):
    def build(rng, ws):
        verts, facets = complex_input(name)(rng)
        faces = O.faces_of(facets) | {frozenset([v]) for v in verts}
        path = ws.write(".cplx", O.complex_text(verts, facets))
        covers = sum(len(f) for f in faces if len(f) > 1)

        def check(code, out):
            if len(out.splitlines()[0].split()) - 1 != len(faces):
                return "wrong number of points"
            got = count_lines(out, "cover:")
            return None if got == covers else f"{got} covers, expected {covers}"

        return Job(cli(["x", path]), frozenset({0}), check, complex_stats(faces))

    return build


def subdivide_space_job(n, p, chains):
    def build(rng, ws):
        x = O.random_poset(rng, n, p, chains=chains)
        path = ws.write(".poset", x.text())
        every = x.chains()
        names = sorted(".".join(sorted(x.labels[i] for i in c)) for c in every)
        # A chain of k points covers its k faces with one point fewer.
        covers = sum(len(c) for c in every if len(c) > 1)

        def check(code, out):
            if sorted(out.splitlines()[0].split()[1:]) != names:
                return "points are not the dotted chains"
            got = count_lines(out, "cover:")
            return None if got == covers else f"{got} covers, expected {covers}"

        return Job(cli(["subdivide", path]), frozenset({0}), check, poset_stats(x))

    return build


def subdivide_complex_job(name):
    def build(rng, ws):
        verts, facets = complex_input(name)(rng)
        faces = O.faces_of(facets)
        path = ws.write(".cplx", O.complex_text(verts, facets))
        want = sum(math.factorial(len(f)) for f in O.maximal(faces))

        def check(code, out):
            if len(out.splitlines()[0].split()) - 1 != len(faces):
                return "vertices are not the simplices"
            got = count_lines(out, "facet:")
            return None if got == want else f"{got} facets, expected {want}"

        return Job(cli(["subdivide", path]), frozenset({0}), check, complex_stats(faces))

    return build


def bridge_job(n, p, chains):
    def build(rng, ws):
        x = O.random_poset(rng, n, p, chains=chains)
        path = ws.write(".poset", x.text())
        count = x.chain_count()

        def check(code, out):
            adds, removes = count_lines(out, "add "), count_lines(out, "remove ")
            if (adds, removes) != (count, x.n):
                return f"{adds} adds and {removes} removals, expected {count} and {x.n}"
            return None

        return Job(cli(["bridge", path]), frozenset({0}), check, poset_stats(x))

    return build


def sphere_space(d, beats, chains=None):
    """A model of S^d with beat points attached: relabelled, or subdivided
    with a chain count in ``chains``."""

    def make(rng):
        if chains is None:
            return O.shuffled(rng, O.add_beat_points(rng, sphere(d), beats), "h")
        return O.draw(rng, lambda: O.subdivision(O.add_beat_points(rng, sphere(d), beats)),
                      chains)

    return make


def homology_space_job(make, d):
    """Homology of a model of S^d: known, and the same for X and X'."""

    def build(rng, ws):
        x = make(rng)
        path = ws.write(".poset", x.text())
        want = sphere_homology(d, x.height())
        return Job(cli(["homology", path]), frozenset({0}), expect_text(want),
                   poset_stats(x))

    return build


def homology_random_job(n, p, chains):
    def build(rng, ws):
        x = O.random_poset(rng, n, p, chains=chains)
        path = ws.write(".poset", x.text())
        chi = sum((-1) ** (len(c) - 1) for c in x.chains())
        return Job(cli(["homology", path]), frozenset({0}),
                   check_euler(chi, x.height()), poset_stats(x))

    return build


def homology_complex_job(name):
    def build(rng, ws):
        verts, facets = complex_input(name)(rng)
        faces = O.faces_of(facets)
        path = ws.write(".cplx", O.complex_text(verts, facets))
        dims = max(map(len, faces))
        if name in ("dunce", "sddunce"):
            check = expect_text(sphere_homology(0, dims))
        else:
            check = check_euler(O.euler_characteristic(faces), dims)
        return Job(cli(["homology", path]), frozenset({0}), check, complex_stats(faces))

    return build


def translate_point_job(rng, ws):
    x, pt = weak_point_space(rng)
    path = ws.write(".poset", x.text())
    through = x.chains_through(x.index[pt])

    def check(code, out):
        got = count_lines(out, "add {")
        return None if 2 * got == through else f"{got} expansions for {through} chains through x"

    return Job(cli(["translate-collapse", path, "--point", pt]), frozenset({0}),
               check, poset_stats(x))


def translate_pair_job(rng, ws):
    verts, facets, faces, (face, apex) = random_free_pair(rng)
    path = ws.write(".cplx", O.complex_text(verts, facets))
    want_moves = [
        f"remove {'.'.join(sorted(face))} beat-up",
        f"remove {'.'.join(sorted(face | {apex}))} down-weak",
    ]

    def check(code, out):
        lines = out.splitlines()
        if len(lines[1].split()) - 1 != len(faces):
            return "start is not the face poset"
        return None if lines[-2:] == want_moves else f"moves {lines[-2:]}"

    argv = ["translate-collapse", path, "--pair", ",".join(sorted(face)), apex]
    return Job(cli(argv), frozenset({0}), check, complex_stats(faces))


def cylinder_h_job(rng, ws):
    """The chain-to-maximum map X' -> X is distinguished, so it collapses."""
    x = O.random_poset(rng, 7, 0.35, chains=(18, 26))
    path, sd = h_map_text(ws, x)

    def check(code, out):
        got = count_lines(out, "remove ")
        return None if got == x.n else f"{got} removals, expected {x.n}"

    stats = dict(poset_stats(x), map_space=x.n ** sd.n)
    return Job(cli(["cylinder", path, "--collapse"]), frozenset({0}), check, stats)


def cylinder_constant_job(rng, ws):
    """A constant map out of sd3: the preimage of every open set containing
    the image is sd3, which is not contractible, so there is no collapse."""
    dom = O.shuffled(rng, sd3(), "d")
    cod = O.random_poset(rng, 5, 0.4, prefix="c")
    dpath = ws.write("-dom.poset", dom.text())
    cpath = ws.write("-cod.poset", cod.text())
    y = rng.choice(cod.labels)
    text = (f"dom: {os.path.basename(dpath)}\ncod: {os.path.basename(cpath)}\n"
            + "".join(f"send: {l} {y}\n" for l in dom.labels))
    path = ws.write(".map", text)
    stats = dict(poset_stats(dom), map_space=cod.n ** dom.n)
    return Job(cli(["cylinder", path, "--collapse"]), frozenset({1}), expect_text(""), stats)


SUBDIVIDE = [
    ("k-r20", k_job(20, 0.3, (1000, 1300))),
    ("k-r25", k_job(25, 0.15, (500, 650)), 8),
    ("k-r40", k_job(40, 0.08, (500, 650))),
    ("x-dunce", x_job("dunce")),
    ("x-sddunce", x_job("sddunce")),
    ("x-random", x_job("random"), 4),
    ("sd-r15", subdivide_space_job(15, 0.25, (150, 200)), 10),
    ("sd-r20", subdivide_space_job(20, 0.2, (250, 320))),
    ("sd-dunce", subdivide_complex_job("dunce")),
    ("sd-random", subdivide_complex_job("random"), 4),
    ("bridge-r10", bridge_job(10, 0.3, (60, 80))),
    ("bridge-r15", bridge_job(15, 0.2, (150, 200))),
    ("hom-s1", homology_space_job(sphere_space(1, 20), 1)),
    ("hom-s1-sd", homology_space_job(sphere_space(1, 6, (500, 700)), 1), 10),
    ("hom-s2", homology_space_job(sphere_space(2, 20), 2)),
    ("hom-s2-sd", homology_space_job(sphere_space(2, 4, (500, 700)), 2)),
    ("hom-r25", homology_random_job(25, 0.15, (500, 700))),
    ("hom-dunce", homology_complex_job("dunce")),
    ("hom-sddunce", homology_complex_job("sddunce")),
    ("hom-random", homology_complex_job("random")),
    ("trans-point", translate_point_job),
    ("trans-pair", translate_pair_job),
    ("cyl-h", cylinder_h_job),
    ("cyl-const", cylinder_constant_job),
]


# -- homotopy: library calls ---------------------------------------------------------


def monotone_images(rng, dom: O.Poset, cod: O.Poset, within: int) -> list[int]:
    """Random order-preserving images into the points of ``within`` (a mask).

    Images are drawn along a linear extension; a draw that gets stuck falls
    back to a constant map, which is always order-preserving.
    """
    for _ in range(20):
        images = [-1] * dom.n
        for i in dom.linear_extension():
            lower = [images[j] for j in O.bits(dom.down[i])]
            options = [y for y in O.bits(within)
                       if all(v == y or cod.down[y] >> v & 1 for v in lower)]
            if not options:
                break
            images[i] = rng.choice(options)
        else:
            return images
    return [rng.choice(list(O.bits(within)))] * dom.n


def leq(cod: O.Poset, f, g) -> bool:
    return all(u == v or cod.down[v] >> u & 1 for u, v in zip(f, g))


def map_file(ws, tag, dom_path, cod_path, dom: O.Poset, cod: O.Poset, images) -> str:
    sends = "".join(f"send: {dom.labels[i]} {cod.labels[images[i]]}\n" for i in range(dom.n))
    text = f"dom: {os.path.basename(dom_path)}\ncod: {os.path.basename(cod_path)}\n{sends}"
    return ws.write(f"-{tag}.map", text)


def fence_job(kind):
    """Known answers: a codomain with a maximum makes every two maps
    homotopic; maps into different components of the codomain are not; and
    on a minimal space a map homotopic to the identity is the identity."""

    def build(rng, ws):
        # The search cost grows with the number of monotone maps, which each
        # cell keeps in a band.
        if kind == "cone":
            # Incomparable ends, so the answer needs the search, not the
            # direct comparison that precedes it.
            f = g = None
            while f is None or leq(cod, f, g) or leq(cod, g, f) or not 400 <= maps <= 700:
                dom = O.random_poset(rng, 5, 0.4, prefix="x")
                base = O.random_poset(rng, 5, 0.3, prefix="y")
                cod = O.Poset(base.labels + ["top"], base.down + [base.full])
                maps = O.monotone_maps(dom, cod)
                f = monotone_images(rng, dom, cod, cod.full)
                g = monotone_images(rng, dom, cod, cod.full)
            want = 0
        elif kind == "split":
            dom = O.Poset.from_relation([f"x{i}" for i in range(5)], [(i, 4) for i in range(4)])
            maps = 0
            while not 350 <= maps <= 460:
                left = O.random_poset(rng, 4, 0.5, prefix="y")
                right = O.random_poset(rng, 4, 0.5, prefix="z")
                cod = O.Poset(left.labels + right.labels, left.down + [m << 4 for m in right.down])
                maps = O.monotone_maps(dom, cod)
            f = monotone_images(rng, dom, cod, left.full)
            g = monotone_images(rng, dom, cod, left.full << 4)
            want = 1
        else:
            dom = cod = O.four_point_circle("s")
            f = [0, 1, 2, 3]
            g = rng.choice([[1, 0, 2, 3], [0, 1, 3, 2], [1, 0, 3, 2]])
            want = 1
        dp = ws.write("-dom.poset", dom.text())
        cp = ws.write("-cod.poset", cod.text())
        fp = map_file(ws, "f", dp, cp, dom, cod, f)
        gp = map_file(ws, "g", dp, cp, dom, cod, g)

        def run():
            res = mp.fence_homotopic(fio.read_map(fp), fio.read_map(gp))
            if res.fence is None:
                return (1 if res.conclusive else 2), "no fence\n"
            if not mp.is_valid_fence(res.fence):
                return 3, "invalid fence\n"
            return 0, "".join(" ".join(m.label_map()[l] for l in dom.labels) + "\n"
                              for m in res.fence)

        def check(code, out):
            if code != 0:
                return None
            rows = [line.split() for line in out.splitlines()]
            ends = ([cod.labels[y] for y in f], [cod.labels[y] for y in g])
            if (rows[0], rows[-1]) != ends:
                return "fence does not join f to g"
            for a, b in zip(rows, rows[1:]):
                ia, ib = [cod.index[l] for l in a], [cod.index[l] for l in b]
                if not (leq(cod, ia, ib) or leq(cod, ib, ia)):
                    return "consecutive maps are not comparable"
            return None

        stats = dict(poset_stats(dom), map_space=cod.n ** dom.n,
                     monotone_maps=O.monotone_maps(dom, cod))
        return Job(run, frozenset({want}), check, stats)

    return build


def equivalence_job(kind):
    def build(rng, ws):
        if kind == "sd":
            a = O.random_poset(rng, 7, 0.3)
            b = O.subdivision(a)
        elif kind == "beats":
            a = O.random_poset(rng, 12, 0.25)
            b = O.shuffled(rng, O.add_beat_points(rng, a, 15), "w")
        else:
            a = O.random_poset(rng, 10, 0.3)
            b = O.random_poset(rng, 10, 0.3, prefix="w")
        ca, cb = a.sub(a.core_mask(a.full)), b.sub(b.core_mask(b.full))
        want = 0 if ca.isomorphic(cb) else 1
        ap = ws.write("-a.poset", a.text())
        bp = ws.write("-b.poset", b.text())

        def run():
            eq = mv.homotopy_equivalent(fio.read_space(ap), fio.read_space(bp))
            if eq is None:
                return 1, "not equivalent\n"
            return 0, "".join(f"{k} -> {v}\n" for k, v in sorted(eq.isomorphism.items()))

        def check(code, out):
            if code == 1:
                return None
            mapping = dict(line.split(" -> ") for line in out.splitlines())
            ma = sum(1 << a.index[l] for l in mapping)
            mb = sum(1 << b.index[l] for l in mapping.values())
            sa, sb = a.sub(ma), b.sub(mb)
            if any(sa.beat_side(sa.full, i) for i in range(sa.n)):
                return "returned core has a beat point"
            return None if sa.is_isomorphism(sb, mapping) else "cores are not isomorphic"

        return Job(run, frozenset({want}), check, poset_stats(a))

    return build


CLASS_COUNTS = [1, 1, 2, 5, 16, 63]

# Isomorphism classes of the posets on 5 points with k = 0..10 strict
# relations, counted with the reference model (``labelled_posets`` and
# ``Poset.isomorphic``).  Isomorphic posets have equally many relations, so
# the rows split the n=5 dedup without changing its answer.
CLASSES_BY_RELATIONS = {5: [1, 1, 3, 6, 10, 10, 12, 9, 6, 4, 1]}
assert all(sum(row) == CLASS_COUNTS[n] for n, row in CLASSES_BY_RELATIONS.items())


def dedup_job(n, relations=None):
    """Isomorphism classes of all labelled posets on n points.

    With ``relations``, only those with that many strict relations: the n=5
    enumeration runs as eleven jobs, one per relation count, so that no job
    takes a large share of a pass.  The posets come in their enumeration
    order under every seed: the cost depends on the order.
    """

    def build(rng, ws):
        posets = O.labelled_posets(n)
        if relations is not None:
            posets = [d for d in posets if sum(bin(m).count("1") for m in d) == relations]
        labels = tuple(f"p{i}" for i in range(n))
        mats = []
        for down in posets:
            m = np.eye(n, dtype=bool)
            for j, mask in enumerate(down):
                for i in O.bits(mask):
                    m[i, j] = True
            mats.append(m)

        def run():
            buckets = {}
            reps = []
            for k, m in enumerate(mats):
                s = sp.FiniteSpace(labels, m)
                bucket = buckets.setdefault(s.fingerprint(), [])
                if not any(sp.is_isomorphic(s, r) is not None for r in bucket):
                    bucket.append(s)
                    reps.append(k)
            return 0, f"{len(reps)} classes: " + " ".join(map(str, reps)) + "\n"

        want = CLASS_COUNTS[n] if relations is None else CLASSES_BY_RELATIONS[n][relations]
        check = lambda code, out: None if out.startswith(f"{want} classes:") else out[:40]
        stats = {"points": n, "labelled": len(posets)}
        if relations is not None:
            stats["relations"] = relations
        return Job(run, frozenset({0}), check, stats)

    return build


# The n=5 enumeration is most of a pass, so it runs once per pass, split by
# relation count.  The cheap cells run many instances, so that the median
# and the 90th percentile of the latencies fall inside clusters of many
# similar jobs.
HOMOTOPY = (
    [("fence-cone", fence_job("cone"), 24), ("fence-split", fence_job("split"), 12),
     ("fence-circle", fence_job("circle"), 16)]
    + [("heq-sd", equivalence_job("sd"), 24), ("heq-beats", equivalence_job("beats"), 36),
       ("heq-random", equivalence_job("random"), 16)]
    + [(f"dedup-{n}", dedup_job(n), 1) for n in range(5)]
    + [(f"dedup-5-r{k}", dedup_job(5, k), 1) for k in range(11)]
)

WORKLOADS = {
    "certify": CERTIFY,
    "replay": REPLAY,
    "subdivide": SUBDIVIDE,
    "homotopy": HOMOTOPY,
}


def build_jobs(workload: str, instances: dict, root: str) -> list[Job]:
    """Build the chosen instances of every cell; ``instances`` maps cell -> ids."""
    jobs = []
    for cell, builder, *_ in WORKLOADS[workload]:
        for i in instances[cell]:
            key = f"{cell}:{i}"
            rng = random.Random(f"{workload}/{key}")
            job = builder(rng, Workspace(root, key))
            job.key = key
            jobs.append(job)
    return jobs


def counts(workload: str) -> dict:
    """Instances per pass of each cell: ``PER_CELL`` unless the cell says."""
    return {cell: n[0] if n else PER_CELL for cell, _, *n in WORKLOADS[workload]}


def choose(workload: str, seed: int) -> dict:
    rng = random.Random(seed)
    return {
        cell: sorted(rng.sample(range(universe(n)), n))
        for cell, n in counts(workload).items()
    }
