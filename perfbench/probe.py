"""Over-budget probe: the known blow-ups, each in a capped child process.

    python3 perfbench/probe.py            # every case, from the repository root

Each case runs in its own child interpreter.  The child's address space is
capped with ``setrlimit(RLIMIT_AS)`` (set in the child only) and the parent
kills it at the wall-clock cap.  A case is reported as its time, or as
"over budget" with the cap it hit; no case is ever skipped or shrunk.  The
probe is not part of any gated metric.  Results go to stdout and to
``.perfbench/probe.json``.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WALL_S = 60
MEMORY_MB = 1024

# name -> what it runs; the child builds the input in ``_run_case``.
CASES = {
    "iso-chain-400": "is_isomorphic on two 400-point chains",
    "fence-antichain6-chain6": "fence_homotopic between incomparable maps antichain(6) -> chain(6)",
    "weak-points-random-120": "weak_points on random_poset(Random(1), 120, 0.1)",
    "subdivision-4917-chains": "space_subdivision of random_poset(Random(40), 40, 0.1), 4917 chains",
    "bridge-4917-chains": "bridge_space of random_poset(Random(40), 40, 0.1), 4917 chains",
    "order-complex-random-200": "order_complex of random_poset(Random(1), 200, 0.05)",
}


def _space(p):
    from finspace.fileio import parse_space

    return parse_space(p.text())


def _run_case(name: str) -> float:
    """Build the input, then time the operation alone (wall clock)."""
    import oracle as O
    from finspace import functors, maps, moves, spaces

    if name == "iso-chain-400":
        chain = O.Poset.from_relation([f"c{i}" for i in range(400)], [(i, i + 1) for i in range(399)])
        a, b = _space(chain), _space(O.shuffled(random.Random(0), chain, "d"))
        op = lambda: spaces.is_isomorphic(a, b)
    elif name == "fence-antichain6-chain6":
        dom = _space(O.Poset([f"a{i}" for i in range(6)], [0] * 6))
        cod = _space(O.Poset.from_relation([f"c{i}" for i in range(6)], [(i, i + 1) for i in range(5)]))
        f = maps.ContinuousMap(dom, cod, (0, 1, 2, 3, 4, 5))
        g = maps.ContinuousMap(dom, cod, (5, 4, 3, 2, 1, 0))
        op = lambda: maps.fence_homotopic(f, g)
    elif name == "weak-points-random-120":
        x = _space(O.random_poset(random.Random(1), 120, 0.1))
        op = lambda: moves.weak_points(x)
    elif name in ("subdivision-4917-chains", "bridge-4917-chains"):
        p = O.random_poset(random.Random(40), 40, 0.1)
        if p.chain_count() != 4917:
            raise ValueError(f"expected 4917 chains, generated {p.chain_count()}")
        x = _space(p)
        fn = functors.space_subdivision if name.startswith("subdivision") else functors.bridge_space
        op = lambda: fn(x)
    else:
        x = _space(O.random_poset(random.Random(1), 200, 0.05))
        op = lambda: functors.order_complex(x)
    t = time.perf_counter()
    op()
    return time.perf_counter() - t


def _cap_memory() -> None:
    limit = MEMORY_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def probe(name: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]), OPENBLAS_NUM_THREADS="1")
    cap = f"wall {WALL_S} s, memory {MEMORY_MB} MB"
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), "--case", name],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=WALL_S, preexec_fn=_cap_memory,
        )
    except subprocess.TimeoutExpired:
        return {"case": name, "result": f"over budget (wall cap {WALL_S} s)", "cap": cap}
    if done.returncode == 0:
        return {"case": name, "seconds": float(done.stdout.split()[-1]), "cap": cap}
    last = (done.stderr.strip().splitlines() or ["no output"])[-1]
    if "MemoryError" in last:
        return {"case": name, "result": f"over budget (memory cap {MEMORY_MB} MB)", "cap": cap}
    return {"case": name, "result": f"failed: {last}", "cap": cap}


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--case":
        print(_run_case(sys.argv[2]))
        return 0
    if not os.path.isfile(os.path.join(SRC, "finspace", "__init__.py")):
        print(f"no finspace sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    results = []
    for name, what in CASES.items():
        res = dict(probe(name), what=what)
        results.append(res)
        shown = f"{res['seconds']:.3f} s" if "seconds" in res else res["result"]
        print(f"{name:28} {shown:40} {what}", flush=True)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", "probe.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
