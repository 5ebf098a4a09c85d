#!/usr/bin/env python3
"""Time cayley-v1 loading, table construction, table validation and the
quotient constructor.

For each group of ``LOAD`` it records the median seconds, over
``LOAD_REPEATS`` runs, of loading its cayley-v1 text: ``json.loads`` plus
``group_from_dict``.  For each group of ``CONSTRUCT`` it builds the group
``REPEATS`` times, each in a fresh interpreter, and records the median
seconds of the constructor call and the median peak RSS of that process
(``ru_maxrss``, which includes the interpreter and the imported library).
For each group of the corpus it records the median seconds, over
``REPEATS`` runs, of ``FiniteGroup`` on the rows of the already built group
(tuple rows, validation and inverses), and the table cells its
associativity check compares: n³ for the exhaustive audit (0 above
``ASSOC_AUDIT_CAP``, where that audit was skipped) or k·n² for Light's test
over the k generators it keeps.  It also records the median wall time of
``run_catalog_suite()`` and of the ``quotient`` calls made inside it, over
``REPEATS`` runs, each started with the constructor caches cleared.
``quotient`` is timed by a wrapper installed from outside the library.
Writes ``BENCH_<label>.json`` to ``--out-dir``.

The corpus includes C64×C64 (order 4096); building it holds about 1 GB.

Usage: PYTHONPATH=src python scripts/bench_validate.py --label NAME
       [--out-dir .]
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import complementa as ca
import complementa.groups as groups_module

REPEATS = 3
LOAD_REPEATS = 9

CORPUS = [
    ("hol32", lambda: ca.holomorph_cyclic(32).group),
    ("hol27", lambda: ca.holomorph_cyclic(27).group),
    ("split-p5-3", lambda: ca.split_p5_group(3).group),
    ("S5", lambda: ca.from_generators([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], name="S5")),
    ("C2^6", lambda: ca.elementary_abelian(2, 6).group),
    ("C64xC64", lambda: ca.direct_product(ca.cyclic(64), ca.cyclic(64))),
]


LOAD = ("hol27", "hol32")


CONSTRUCT = {
    "hol27": lambda: ca.holomorph_cyclic(27),
    "hol32": lambda: ca.holomorph_cyclic(32),
    "hol43": lambda: ca.holomorph_cyclic(43),
    "split-p5-5": lambda: ca.split_p5_group(5, cap=3125),
    "C64xC64": lambda: ca.direct_product(ca.cyclic(64), ca.cyclic(64)),
}


def measure_load(build) -> dict:
    text = json.dumps(ca.group_to_dict(build()))
    runs = []
    for _ in range(LOAD_REPEATS):
        t0 = time.perf_counter()
        g = ca.group_from_dict(json.loads(text))
        runs.append(time.perf_counter() - t0)
    return {"order": g.order, "load_s": statistics.median(runs), "load_runs_s": runs}


def construct_once(name: str) -> dict:
    """Build one ``CONSTRUCT`` group in this process; seconds and peak RSS."""
    t0 = time.perf_counter()
    built = CONSTRUCT[name]()
    seconds = time.perf_counter() - t0
    group = getattr(built, "group", built)
    return {"order": group.order, "build_s": seconds,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def measure_construction(name: str) -> dict:
    runs = []
    for _ in range(REPEATS):
        out = subprocess.run([sys.executable, __file__, "--construct", name],
                             check=True, capture_output=True, text=True).stdout
        runs.append(json.loads(out))
    return {"order": runs[0]["order"],
            "build_s": statistics.median(r["build_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "build_runs_s": [r["build_s"] for r in runs]}


def cells_compared(g) -> tuple[str, int]:
    """The associativity check in use and the table cells it compares."""
    n = g.order
    cap = getattr(groups_module, "ASSOC_AUDIT_CAP", None)
    if cap is not None:
        return "exhaustive", n ** 3 if n <= cap else 0
    return "light", len(groups_module._light_generators(g.mult, g.generators)) * n * n


def measure_validation(build) -> dict:
    g = build()
    runs = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        ca.FiniteGroup(g.mult, g.generators, g.labels, name=g.name)
        runs.append(time.perf_counter() - t0)
    method, cells = cells_compared(g)
    return {"order": g.order, "generators": len(g.generators), "method": method,
            "cells_compared": cells, "init_s": statistics.median(runs),
            "init_runs_s": runs}


class QuotientTimer:
    """Sums the time of ``quotient`` calls by replacing it in every library
    module that holds a reference to it."""

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0
        self.original = groups_module.quotient

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return self.original(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0
                self.calls += 1

        self.modules = [m for name, m in sys.modules.items()
                        if name.startswith("complementa")
                        and getattr(m, "quotient", None) is self.original]
        for m in self.modules:
            m.quotient = timed

    def restore(self):
        for m in self.modules:
            m.quotient = self.original


def clear_constructor_caches() -> None:
    for obj in vars(ca.constructions).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


def measure_catalog_suite() -> dict:
    wall, quo, calls = [], [], []
    for _ in range(REPEATS):
        clear_constructor_caches()
        timer = QuotientTimer()
        try:
            t0 = time.perf_counter()
            reports = ca.run_catalog_suite()
            wall.append(time.perf_counter() - t0)
        finally:
            timer.restore()
        quo.append(timer.seconds)
        calls.append(timer.calls)
    return {"claims": len(reports),
            "failed": sum(1 for r in reports if r.status == "fail"),
            "quotient_calls": calls[0],
            "quotient_s": statistics.median(quo), "quotient_runs_s": quo,
            "wall_s": statistics.median(wall), "wall_runs_s": wall}


def measure_validation_and_suite() -> dict:
    groups = {}
    for name, build in CORPUS:
        groups[name] = row = measure_validation(build)
        print(f"{name:>10} |G|={row['order']:>4} {row['method']:>10} "
              f"cells={row['cells_compared']:>11,} "
              f"init={row['init_s']:8.4f}s", flush=True)
    suite = measure_catalog_suite()
    print(f"catalog suite: {suite['claims']} claims, {suite['failed']} failed, "
          f"{suite['wall_s']:.2f}s, {suite['quotient_calls']} quotients "
          f"{suite['quotient_s']:.2f}s", flush=True)
    return {"groups": groups, "catalog_suite": suite}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label")
    parser.add_argument("--out-dir", default=".")
    parser.add_argument("--construct", choices=sorted(CONSTRUCT),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.construct:
        print(json.dumps(construct_once(args.construct)))
        return 0
    if args.label is None:
        parser.error("--label is required")

    load = {}
    for name in LOAD:
        load[name] = row = measure_load(dict(CORPUS)[name])
        print(f"{name:>10} |G|={row['order']:>4} load={row['load_s']:8.4f}s", flush=True)
    construction = {}
    for name in CONSTRUCT:
        construction[name] = row = measure_construction(name)
        print(f"{name:>10} |G|={row['order']:>4} build={row['build_s']:8.4f}s "
              f"peak_rss={row['peak_rss_mb']:7.1f}MB", flush=True)
    report = {
        "label": args.label,
        "repeats": REPEATS,
        "load_repeats": LOAD_REPEATS,
        "machine": {"cpu": platform.processor() or platform.machine(),
                    "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "load": load,
        "construction": construction,
        **measure_validation_and_suite(),
    }
    path = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
