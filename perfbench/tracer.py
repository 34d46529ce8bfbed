"""Traced mode: spans around the public functions of every finspace module.

``install`` replaces each public function (and the constructors and subset
methods of the two core classes) by a wrapper, both on its own module and
wherever another module bound it by import, e.g. ``finspace.cli.core`` or
``finspace.functors.is_weak_point``.  A wrapper records a span (id, name,
start, end, parent id, job id) in memory, charges its self time (duration
minus the duration of its child spans) to its module, and feeds the counters
below.  ``uninstall`` puts the originals back.  Span times are process CPU
time as measured, not scaled to the reference speed of ``speed.py``.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

LAYERS = ("cli", "corpus", "fileio", "spaces", "moves", "complexes", "functors", "homology", "maps")

# Functions outside ``__all__`` that a counter needs.
EXTRA = {
    "cli": ("main",),
    "functors": ("_chains",),
    "homology": ("_boundary",),
    "spaces": ("FiniteSpace.__init__", "FiniteSpace.subspace", "FiniteSpace.delete"),
    "complexes": ("SimplicialComplex.__init__",),
}

# A group times the outermost calls of its functions and counts every call.
GROUPS = {
    "fileio.parse": ("fileio.read_space", "fileio.read_complex", "fileio.read_map",
                     "fileio.read_certificate", "fileio.parse_space",
                     "fileio.parse_complex", "fileio.parse_certificate"),
    "fileio.format": ("fileio.format_space", "fileio.format_complex",
                      "fileio.format_space_certificate",
                      "fileio.format_simplicial_certificate",
                      "fileio.dot_space", "fileio.dot_complex"),
    "spaces.construct": ("spaces.FiniteSpace.__init__", "spaces.from_covers",
                         "spaces.FiniteSpace.subspace", "spaces.FiniteSpace.delete"),
    "spaces.new": ("spaces.FiniteSpace.__init__",),
    "spaces.iso": ("spaces.is_isomorphic",),
    "moves.beat": ("moves.is_up_beat", "moves.is_down_beat"),
    "moves.weak": ("moves.is_weak_point",),
    "moves.contractible": ("moves.is_contractible",),
    "moves.core": ("moves.core",),
    "moves.search": ("moves.collapse_search",),
    "moves.verify": ("moves.verify_space_certificate",),
    "complexes.construct": ("complexes.SimplicialComplex.__init__",),
    "complexes.search": ("complexes.collapse_sequence_search",),
    "complexes.iso": ("complexes.complex_isomorphic",),
    "complexes.verify": ("complexes.verify_simplicial_certificate",),
    "functors.order_complex": ("functors.order_complex", "functors.face_poset"),
    "functors.subdivision": ("functors.space_subdivision",
                             "complexes.barycentric_subdivision"),
    "functors.bridge": ("functors.bridge_space",),
    "functors.cylinder": ("functors.cylinder_certificates",),
    "functors.translate": ("functors.translate_space_collapse",
                           "functors.translate_simplicial_collapse"),
    "homology.homology": ("homology.homology",),
    "homology.snf": ("homology.smith_invariants",),
    "maps.fence": ("maps.fence_homotopic",),
    "maps.distinguished": ("maps.is_distinguished", "maps.is_op_distinguished"),
}

MAX_SPANS = 200_000


def _replayed(args, res) -> int:
    return len(args[0].moves) if res.ok else res.step + 1


def _file_size(args, res) -> int:
    path = args[0]
    return 0 if path.startswith("example:") else os.path.getsize(path)


# name -> (counter, amount taken from the call's arguments and result)
RESULT_COUNTERS = {
    "moves.collapse_search": (
        ("moves.search_nodes", lambda a, r: r.nodes),
        ("moves.search_budget_out", lambda a, r: int(r.certificate is None and not r.conclusive)),
    ),
    "complexes.collapse_sequence_search": (
        ("complexes.search_nodes", lambda a, r: r.nodes),
    ),
    "moves.verify_space_certificate": (("moves.verify_moves", _replayed),),
    "complexes.verify_simplicial_certificate": (("complexes.verify_moves", _replayed),),
    "spaces.is_isomorphic": (("spaces.iso_hits", lambda a, r: int(r is not None)),),
    "functors._chains": (("functors.chains", lambda a, r: len(r)),),
    "homology._boundary": (
        ("homology.boundary_nnz", lambda a, r: sum(len(row) for row in r[0].values())),
    ),
    "maps.fence_homotopic": (("maps.fence_conclusive", lambda a, r: int(r.conclusive)),),
    "fileio.read_space": (("fileio.bytes_read", _file_size),),
    "fileio.read_complex": (("fileio.bytes_read", _file_size),),
    "fileio.read_map": (("fileio.bytes_read", _file_size),),
    "fileio.read_certificate": (("fileio.bytes_read", _file_size),),
}
for _name in GROUPS["fileio.format"]:
    RESULT_COUNTERS[_name] = (("fileio.bytes_written", lambda a, r: len(r.encode())),)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.job = None
        self._next_id = 0
        self._stack: list[list] = []
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.group_time: dict[str, float] = {}
        self.group_calls: dict[str, int] = {}
        self._depth: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self._restore: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def wrap(self, name: str, layer: str, fn):
        groups = tuple(g for g, members in GROUPS.items() if name in members)
        counters = RESULT_COUNTERS.get(name, ())
        stack, depth = self._stack, self._depth
        for g in groups:
            depth.setdefault(g, 0)
            self.group_time.setdefault(g, 0.0)
            self.group_calls.setdefault(g, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            for g in groups:
                depth[g] += 1
            start = time.process_time()
            try:
                res = fn(*args, **kwargs)
            finally:
                end = time.process_time()
                stack.pop()
                dur = end - start
                self.self_time[layer] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                for g in groups:
                    depth[g] -= 1
                    self.group_calls[g] += 1
                    if depth[g] == 0:
                        self.group_time[g] += dur
                if len(self.spans) < MAX_SPANS:
                    self.spans.append(
                        (sid, name, start, end, parent[0] if parent else -1, self.job)
                    )
                else:
                    self.dropped += 1
            for counter, amount in counters:
                self.counters[counter] = self.counters.get(counter, 0) + amount(args, res)
            return res

        return traced

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"finspace.{layer}")
            names = list(getattr(mod, "__all__", ())) + list(EXTRA.get(layer, ()))
            for name in names:
                owner, attr = mod, name
                if "." in name:
                    cls, attr = name.split(".")
                    owner = getattr(mod, cls)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                if isinstance(original, type) or not callable(original):
                    continue
                if getattr(original, "__module__", None) != mod.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{name}", layer, original)
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                wrappers[id(original)] = (original, wrapper)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "finspace" or modname.startswith("finspace.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tjob\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


# -- per-layer metrics -------------------------------------------------------------

# (name, unit, layer, end-to-end metric and workload it should move)
PER_LAYER = [
    (f"{layer}.self_s", "s/job", layer, "job_p50_ms on the workloads that use it")
    for layer in LAYERS
] + [
    ("corpus.load_s", "s", "corpus", "setup_s, every workload"),
    ("fileio.parse_s", "s/job", "fileio", "jobs_per_s on replay"),
    ("fileio.parse_calls", "count/job", "fileio", "jobs_per_s on replay"),
    ("fileio.bytes_read", "B/job", "fileio", "jobs_per_s on replay"),
    ("fileio.format_s", "s/job", "fileio", "job_p50_ms on certify and subdivide"),
    ("fileio.bytes_written", "B/job", "fileio", "job_p50_ms on certify and subdivide"),
    ("spaces.construct_calls", "count/job", "spaces", "jobs_per_s on certify and replay"),
    ("spaces.construct_s", "s/job", "spaces", "jobs_per_s on certify and replay"),
    ("spaces.iso_calls", "count/job", "spaces", "job_p90_ms on certify, jobs_per_s on homotopy"),
    ("spaces.iso_s", "s/job", "spaces", "job_p90_ms on certify, jobs_per_s on homotopy"),
    ("spaces.iso_hit_ratio", "ratio", "spaces", "job_p90_ms on certify, jobs_per_s on homotopy"),
    ("moves.beat_tests", "count/job", "moves", "jobs_per_s and job_p90_ms on certify"),
    ("moves.beat_s", "s/job", "moves", "jobs_per_s and job_p90_ms on certify"),
    ("moves.weak_tests", "count/job", "moves", "jobs_per_s and job_p90_ms on certify"),
    ("moves.weak_s", "s/job", "moves", "jobs_per_s and job_p90_ms on certify"),
    ("moves.contractible_calls", "count/job", "moves", "jobs_per_s and job_p90_ms on certify"),
    ("moves.core_calls", "count/job", "moves", "jobs_per_s and job_p90_ms on certify"),
    ("moves.core_s", "s/job", "moves", "jobs_per_s and job_p90_ms on certify"),
    ("moves.search_s", "s/job", "moves", "decided_ratio and job_p90_ms on certify"),
    ("moves.search_nodes", "count/job", "moves", "decided_ratio and job_p90_ms on certify"),
    ("moves.search_budget_out", "count/job", "moves", "decided_ratio and job_p90_ms on certify"),
    ("moves.verify_s", "s/job", "moves", "jobs_per_s on replay"),
    ("moves.verify_moves", "count/job", "moves", "jobs_per_s on replay"),
    ("complexes.construct_s", "s/job", "complexes", "jobs_per_s on subdivide"),
    ("complexes.search_s", "s/job", "complexes", "jobs_per_s on subdivide"),
    ("complexes.search_nodes", "count/job", "complexes", "jobs_per_s on subdivide"),
    ("complexes.iso_calls", "count/job", "complexes", "jobs_per_s on subdivide"),
    ("complexes.verify_s", "s/job", "complexes", "jobs_per_s on replay"),
    ("complexes.verify_moves", "count/job", "complexes", "jobs_per_s on replay"),
    ("functors.chains", "count/job", "functors", "job_p90_ms and peak_rss_mb on subdivide"),
    ("functors.order_complex_s", "s/job", "functors", "job_p90_ms and peak_rss_mb on subdivide"),
    ("functors.subdivision_s", "s/job", "functors", "job_p90_ms and peak_rss_mb on subdivide"),
    ("functors.bridge_s", "s/job", "functors", "job_p90_ms and peak_rss_mb on subdivide"),
    ("functors.cylinder_s", "s/job", "functors", "job_p90_ms and peak_rss_mb on subdivide"),
    ("functors.translate_s", "s/job", "functors", "job_p90_ms and peak_rss_mb on subdivide"),
    ("homology.calls", "count/job", "homology", "job_p90_ms on subdivide"),
    ("homology.snf_s", "s/job", "homology", "job_p90_ms on subdivide"),
    ("homology.boundary_nnz", "count/job", "homology", "job_p90_ms on subdivide"),
    ("maps.fence_calls", "count/job", "maps", "job_p90_ms and decided_ratio on homotopy"),
    ("maps.fence_s", "s/job", "maps", "job_p90_ms and decided_ratio on homotopy"),
    ("maps.fence_conclusive_ratio", "ratio", "maps", "job_p90_ms and decided_ratio on homotopy"),
    ("maps.distinguished_s", "s/job", "maps", "job_p90_ms and decided_ratio on homotopy"),
    ("trace.overhead_ratio", "ratio", "bench", "none: traced over untraced mean job latency, minus 1"),
]


def layer_metrics(t: Tracer, jobs: int, corpus_load_s: float, overhead: float) -> dict:
    """Per-job averages over the traced passes; ratios are over calls."""
    gt, gc, c = t.group_time, t.group_calls, t.counters

    def ratio(part, whole):
        return part / whole if whole else 0.0

    values = {f"{layer}.self_s": t.self_time[layer] / jobs for layer in LAYERS}
    per_job = {
        "fileio.parse_s": gt["fileio.parse"],
        "fileio.parse_calls": gc["fileio.parse"],
        "fileio.bytes_read": c.get("fileio.bytes_read", 0),
        "fileio.format_s": gt["fileio.format"],
        "fileio.bytes_written": c.get("fileio.bytes_written", 0),
        "spaces.construct_calls": gc["spaces.new"],
        "spaces.construct_s": gt["spaces.construct"],
        "spaces.iso_calls": gc["spaces.iso"],
        "spaces.iso_s": gt["spaces.iso"],
        "moves.beat_tests": gc["moves.beat"],
        "moves.beat_s": gt["moves.beat"],
        "moves.weak_tests": gc["moves.weak"],
        "moves.weak_s": gt["moves.weak"],
        "moves.contractible_calls": gc["moves.contractible"],
        "moves.core_calls": gc["moves.core"],
        "moves.core_s": gt["moves.core"],
        "moves.search_s": gt["moves.search"],
        "moves.search_nodes": c.get("moves.search_nodes", 0),
        "moves.search_budget_out": c.get("moves.search_budget_out", 0),
        "moves.verify_s": gt["moves.verify"],
        "moves.verify_moves": c.get("moves.verify_moves", 0),
        "complexes.construct_s": gt["complexes.construct"],
        "complexes.search_s": gt["complexes.search"],
        "complexes.search_nodes": c.get("complexes.search_nodes", 0),
        "complexes.iso_calls": gc["complexes.iso"],
        "complexes.verify_s": gt["complexes.verify"],
        "complexes.verify_moves": c.get("complexes.verify_moves", 0),
        "functors.chains": c.get("functors.chains", 0),
        "functors.order_complex_s": gt["functors.order_complex"],
        "functors.subdivision_s": gt["functors.subdivision"],
        "functors.bridge_s": gt["functors.bridge"],
        "functors.cylinder_s": gt["functors.cylinder"],
        "functors.translate_s": gt["functors.translate"],
        "homology.calls": gc["homology.homology"],
        "homology.snf_s": gt["homology.snf"],
        "homology.boundary_nnz": c.get("homology.boundary_nnz", 0),
        "maps.fence_calls": gc["maps.fence"],
        "maps.fence_s": gt["maps.fence"],
        "maps.distinguished_s": gt["maps.distinguished"],
    }
    values.update({k: v / jobs for k, v in per_job.items()})
    values["corpus.load_s"] = corpus_load_s
    values["spaces.iso_hit_ratio"] = ratio(c.get("spaces.iso_hits", 0), gc["spaces.iso"])
    values["maps.fence_conclusive_ratio"] = ratio(c.get("maps.fence_conclusive", 0), gc["maps.fence"])
    values["trace.overhead_ratio"] = overhead
    return values
