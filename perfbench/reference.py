"""A fixed reference kernel that tracks the speed of the machine.

The machine the benchmark runs on changes speed by up to a quarter within
minutes (other tenants share its cores and caches), and a run-to-run spread
that size would hide any regression.  ``Speed`` times this kernel between
requests, and each timed interval is scaled by ``REF_S`` over the mean kernel
time around it: the value is the time the work would take on a machine
where the kernel takes ``REF_S``.

The kernel is the benchmark's own code and never changes with the library.
It does the kind of work the library does most, subgroup closures on a
multiplication table held as lists, with Python ints as bitsets, so that it
slows down with the library when the machine does.  Cold starts are scaled
by a reference process instead (``SPAWN_ARGS``).
"""

from __future__ import annotations

import bisect
import itertools
import random
import statistics
import time

# Kernel time on the machine the baseline was recorded on (about 12.5 ms).
REF_S = 0.0125
# Process start-up does not follow the kernel.  A cold start is scaled by a
# Python process spawned just before it that imports a fixed set of installed
# modules, numpy among them, and takes about SPAWN_REF_S on that machine.
SPAWN_ARGS = ["-c", "import numpy, json, decimal, fractions, argparse"]
SPAWN_REF_S = 0.120
MIN_SAMPLES = 3
MAX_BURST = 40
BRACKET = 2


def _s5_table() -> list[list[int]]:
    perms = sorted(itertools.permutations(range(5)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(a[b[i]] for i in range(5))] for b in perms] for a in perms]


MULT = _s5_table()
_rng = random.Random(0)
PAIRS = [(_rng.randrange(1, 120), _rng.randrange(1, 120)) for _ in range(450)]


def _closure(mult, seed) -> int:
    members, gens = 1, []
    for s in seed:
        if s and not members >> s & 1:
            members |= 1 << s
            gens.append(s)
    frontier = [0] + gens
    while frontier:
        nxt = []
        for e in frontier:
            row = mult[e]
            for s in gens:
                p = row[s]
                if not members >> p & 1:
                    members |= 1 << p
                    nxt.append(p)
        frontier = nxt
    return members


def kernel() -> int:
    """Closures of 450 fixed element pairs of S5; returns the distinct count."""
    found: dict[int, int] = {}
    for a, b in PAIRS:
        bits = _closure(MULT, (a, b))
        found[bits] = found.get(bits, 0) + 1
    return len(found)


EXPECTED_KERNEL = kernel()


class Speed:
    """Kernel samples over a run, and the scale factors they give."""

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.start: list[float] = []
        self.end: list[float] = []
        self.last_end = float("-inf")

    def sample(self) -> None:
        t0 = time.perf_counter()
        found = kernel()
        t1 = time.perf_counter()
        if found != EXPECTED_KERNEL:
            raise RuntimeError("reference kernel gave a different answer")
        self.start.append(t0)
        self.end.append(t1)
        self.last_end = t1

    def catch_up(self) -> None:
        """One sample per ``every_s`` elapsed since the last, at most
        ``MAX_BURST``, so that a long request is followed by several."""
        due = int((time.perf_counter() - self.last_end) / self.every_s)
        for _ in range(min(due, MAX_BURST)):
            self.sample()

    def durations(self) -> list[float]:
        return [t1 - t0 for t0, t1 in zip(self.start, self.end)]

    def scale(self, t0: float, t1: float) -> float:
        """REF_S over the mean kernel time near [t0, t1]: of the samples
        within t1 - t0 of it on either side, and at least the ``BRACKET``
        nearest on each side.  A long request is thus scaled by samples
        spread over about three times its length, not only by those at its
        two ends."""
        span = t1 - t0
        before = bisect.bisect_right(self.end, t0)
        after = bisect.bisect_left(self.start, t1)
        lo = min(max(0, before - BRACKET), bisect.bisect_left(self.end, t0 - span))
        hi = max(min(len(self.start), after + BRACKET),
                 bisect.bisect_right(self.start, t1 + span))
        return REF_S / statistics.mean(self.end[i] - self.start[i] for i in range(lo, hi))
