"""Closed-loop benchmark of finspace: one client, one job at a time.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up writes the seeded inputs under ``.perfbench/``, then one
warm-up pass runs every job once and checks its exit code, its answer and
the digest of its stdout.  The timed section repeats whole passes over the
jobs, in a seeded order, until ``--seconds`` have elapsed, and every later
run of a job must reproduce the warm-up's exit code and stdout bytes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a few
untraced passes, then traced passes, and prints the per-layer metrics
(see ``tracer.py``).  The last line of stdout is one JSON object.
``--record-digests`` runs every instance of a workload's universe once and
stores the digests of their stdout in ``digests.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_REPEATS = 9

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# Every time is the CPU time of the process that does the work, scaled to a
# reference CPU speed (see speed.py).  The jobs are single-threaded and
# CPU-bound; on a shared virtual machine CPU time leaves out the time the
# process waited for a CPU, and the scaling takes out the changes in CPU
# speed, which otherwise move a run by a third.
CLOCK = speed.CLOCK

# One BLAS thread, in the run and in the set-up interpreters: the client is a
# single thread, and an idle BLAS thread only adds its start-up to CPU time.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

SETUP_CODE = """
import sys, time
sys.path.insert(0, {here!r})
import speed
for _ in range(3):
    speed.slice_time()
slices = [speed.slice_time() for _ in range(3)]
t = time.process_time()
import finspace
from finspace.corpus import load, names
for name in names():
    load(name)
took = time.process_time() - t
slices += [speed.slice_time() for _ in range(3)]
print(took, speed.median(slices))
"""


def measure_setup() -> float:
    """Median over fresh interpreters of ``import finspace`` plus the corpus,
    each scaled to the reference speed by slices run in that interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = SETUP_CODE.format(here=HERE)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        took, slice_s = map(float, done.stdout.split())
        times.append(speed.scale(took, slice_s))
    return statistics.median(times)


def measure_corpus_load() -> float:
    from finspace import corpus

    times = []
    for _ in range(SETUP_REPEATS):
        corpus.load.cache_clear()
        before = speed.slice_time()
        t = CLOCK()
        for name in corpus.names():
            corpus.load(name)
        took = CLOCK() - t
        times.append(speed.scale(took, (before + speed.slice_time()) / 2))
    return statistics.median(times)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def execute(job):
    """Run one job; returns (seconds, exit code or None, stdout, error)."""
    t = CLOCK()
    try:
        code, out = job.run()
        err = None
    except Exception as exc:  # a crash is a failed job, never a crashed benchmark
        code, out, err = None, "", f"{type(exc).__name__}: {exc}"
    return CLOCK() - t, code, out, err


def check(job, code, out) -> str | None:
    """The job's own answer check; output it cannot even parse is wrong."""
    try:
        return job.check(code, out)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def warm_up(jobs, digests: dict) -> dict:
    """Run each job once and check it; returns key -> problem for bad jobs."""
    bad = {}
    for job in jobs:
        _, code, out, err = execute(job)
        job.ref = (code, out)
        if err is not None:
            bad[job.key] = err
        elif code not in job.exits:
            bad[job.key] = f"exit {code}, expected one of {sorted(job.exits)}"
        elif (problem := check(job, code, out)) is not None:
            bad[job.key] = problem
        elif digests.get(job.key) != digest(out):
            bad[job.key] = f"stdout digest {digest(out)} != recorded {digests.get(job.key)}"
    return bad


def timed_passes(jobs, bad: dict, seconds: float, rng: random.Random, stats: dict,
                 tracer=None, min_passes: int = 1):
    """Whole passes over the jobs for about ``seconds`` of wall clock: the
    last pass is the one that ends nearest the deadline.

    Calibration slices run between the jobs (see speed.py); each job's
    latency is its CPU time scaled by the slices before and after it.
    ``stats["passes"]`` gets the unscaled CPU time of each pass.
    """
    order = list(jobs)
    passes = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if passes >= min_passes and elapsed + elapsed / passes / 2 >= seconds:
            break
        rng.shuffle(order)
        gc.collect()
        took = 0.0
        before = speed.slice_time()
        for job in order:
            if tracer is not None:
                tracer.job = job.key
            dt, code, out, err = execute(job)
            after = speed.slice_time()
            took += dt
            stats["latencies"].append(speed.scale(dt, (before + after) / 2))
            before = after
            stats["attempted"] += 1
            if code in (0, 1):
                stats["decided"] += 1
            if err is not None or job.key in bad or (code, out) != job.ref:
                stats["failed"] += 1
                if err is not None:
                    bad.setdefault(job.key, err)
                elif job.key not in bad:
                    bad[job.key] = "output changed between runs"
        stats["passes"].append(took)
        passes += 1


def size_summary(jobs) -> dict:
    keys = sorted({k for job in jobs for k in job.stats})
    out = {}
    for k in keys:
        vals = [job.stats[k] for job in jobs if k in job.stats]
        out[k] = {"min": min(vals), "median": statistics.median(vals), "max": max(vals)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "finspace", "__init__.py")):
        print(f"no finspace sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import jobs as J

    if args.workload not in J.WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {', '.join(J.WORKLOADS)}",
              file=sys.stderr)
        return 2

    setup_s = None if args.record_digests else measure_setup()
    import numpy

    inputs = os.path.join(OUT, f"inputs-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(inputs, exist_ok=True)
    try:
        if args.record_digests:
            return record(J, args.workload, inputs)
        chosen = J.choose(args.workload, args.seed)
        jobs = J.build_jobs(args.workload, chosen, inputs)
        with open(DIGESTS, encoding="utf-8") as fh:
            digests = json.load(fh).get(args.workload, {})
        bad = warm_up(jobs, digests)
        rng = random.Random(args.seed)
        stats = {"latencies": [], "passes": [], "attempted": 0, "decided": 0, "failed": 0}
        if args.trace:
            metrics = traced_run(args, jobs, bad, rng, stats)
        else:
            timed_passes(jobs, bad, args.seconds, rng, stats, min_passes=2)
            metrics = end_to_end(stats, setup_s)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    warm_failed = len(bad)
    attempted = stats["attempted"] + len(jobs)
    failed = stats["failed"] + warm_failed
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "commit": commit(), "nproc": os.cpu_count(),
        "jobs": len(jobs), "samples": len(stats["latencies"]), "passes": len(stats["passes"]),
        "pass_s": [round(t, 3) for t in stats["passes"]],
        "failed_ratio": failed / attempted, "failures": bad,
        "sizes": size_summary(jobs),
        "inputs": {job.key: job.stats for job in jobs},
    }
    for name, m in metrics.items():
        print(f"{name:32} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_ratio':32} {failed / attempted:.6g} ratio")
    for key, problem in sorted(bad.items()):
        print(f"FAILED {key}: {problem}")
    print("meta " + json.dumps({k: meta[k] for k in meta if k not in ("sizes", "inputs", "failures")}))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(dict(result, meta=meta), fh, indent=1)
    print(json.dumps(result))
    return 0


def end_to_end(stats: dict, setup_s: float) -> dict:
    """Throughput and latency quantiles over every timed run, at reference speed."""
    lat = stats["latencies"]
    values = {
        "setup_s": setup_s,
        "jobs_per_s": len(lat) / sum(lat),
        "job_p50_ms": statistics.median(lat) * 1e3,
        "job_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "decided_ratio": stats["decided"] / stats["attempted"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def traced_run(args, jobs, bad, rng, stats) -> dict:
    """Untraced passes for a third of the time, then traced passes."""
    import tracer as T

    timed_passes(jobs, bad, args.seconds / 3, rng, stats)
    plain = list(stats["latencies"])
    corpus_load_s = measure_corpus_load()
    before = stats["attempted"]
    tr = T.Tracer()
    tr.install()
    try:
        timed_passes(jobs, bad, args.seconds * 2 / 3, rng, stats, tracer=tr)
    finally:
        tr.uninstall()
    traced = stats["latencies"][len(plain):]
    overhead = statistics.fmean(traced) / statistics.fmean(plain) - 1
    path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.tsv")
    tr.write(path)
    values = T.layer_metrics(tr, stats["attempted"] - before, corpus_load_s, overhead)
    print(f"# spans: {len(tr.spans)} kept, {tr.dropped} dropped, written to {path}")
    return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in T.PER_LAYER}


def record(J, workload: str, inputs: str) -> int:
    universe = {cell: range(J.universe(n)) for cell, n in J.counts(workload).items()}
    jobs = J.build_jobs(workload, universe, inputs)
    found, bad = {}, {}
    for job in jobs:
        dt, code, out, err = execute(job)
        problem = err or (None if code in job.exits else f"exit {code}") or check(job, code, out)
        if problem:
            bad[job.key] = problem
        found[job.key] = digest(out)
        print(f"{job.key:28} {dt * 1e3:9.1f} ms exit {code} {problem or ''}")
    if bad:
        print(f"not recorded: {len(bad)} jobs fail their checks", file=sys.stderr)
        return 1
    table = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh)
    table[workload] = found
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
