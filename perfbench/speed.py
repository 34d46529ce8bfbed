"""The speed of the CPU right now, read from a fixed slice of work.

The benchmark runs on shared virtual machines whose CPUs run the same
single-threaded Python code up to a fifth slower or faster than usual from
one second to the next (frequency, neighbours on the same core).  Every
timing the benchmark reports is therefore scaled to a reference speed: the
run places a calibration slice before and after each job, and a job's CPU
time is multiplied by ``REF_S`` over the mean time of those two slices.
The speed moves within a second, so the slices next to a job judge it
best: on the same recorded passes, a median over the 17 slices around each
job left the pass-to-pass spread of throughput about twice as wide.  A
slice is pure Python of the kinds finspace spends its time on (dict and
frozenset building, hashing, tuple sorting, small integer loops); it
imports nothing, so a fresh interpreter can time itself with it before
``import finspace``.

A change to the package moves its jobs' times and not the slices', so it
shows in the scaled times in full.  ``REF_S`` is the median time of one
slice on the machine the benchmark was written on (2-vCPU Intel Xeon VM,
Python 3.11.7); scaled times read as that machine's times at that speed.
"""

from __future__ import annotations

import time

CLOCK = time.process_time
REF_S = 0.0015


def work(rounds: int = 90) -> int:
    acc = 0
    seen: dict = {}
    for r in range(rounds):
        keys = [(r * 2654435761 + 97 * i) & 0x3FF for i in range(24)]
        block = frozenset(k & 0x7F for k in keys)
        seen[block] = seen.get(block, 0) + 1
        pairs = sorted((k & 31, k >> 5) for k in keys)
        ups = {a: {b for c, b in pairs if c >= a} for a, _ in pairs[:6]}
        acc ^= hash(block) ^ len(ups) ^ sum(len(v) for v in ups.values())
    return acc ^ len(seen)


def slice_time() -> float:
    """CPU seconds one calibration slice takes now."""
    t = CLOCK()
    work()
    return CLOCK() - t


def scale(seconds: float, slice_s: float) -> float:
    """``seconds`` of CPU time at the reference speed, when a slice took ``slice_s``."""
    return seconds * REF_S / slice_s


def median(values: list[float]) -> float:
    """The median, without importing ``statistics`` into a set-up interpreter."""
    v = sorted(values)
    mid = len(v) // 2
    return v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2
