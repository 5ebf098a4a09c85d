#!/usr/bin/env python3
"""Time cayley-v1 loading, table construction, table validation and the
quotient constructor.

For each group of ``LOAD`` it records the median seconds, over
``REPEATS`` runs, of loading its cayley-v1 text with the loader the CLI
reads files with, ``group_from_json``.  For each group of ``FRESH_LOAD``
it writes the document to a temporary file once and loads it
``SLOW_REPEATS`` times, each in a fresh interpreter, with the same loader;
then it exports it ``SLOW_REPEATS`` times, each in a fresh interpreter, by
``cli.run(["build", "--recipe", PATH, "--out", os.devnull])``, which loads
the document and writes it again with the cayley-v1 writer, so the export's
peak RSS above the load's is what the writer holds.
For each group of ``CONSTRUCT`` it builds the group ``SLOW_REPEATS`` times,
each in a fresh interpreter.  For a fresh load or build it records the
median seconds of the call and the median peak RSS of that process
(``VmHWM``, which includes the interpreter, numpy, the imported library
and, for a load or an export, the document's text; Linux only).
For each group of the corpus it records the median seconds, over
``SLOW_REPEATS`` runs, of ``FiniteGroup`` on the rows of the already built
group (tuple rows, validation and inverses), and the table cells its
associativity check, Light's test, compares: k·n² over the k generators it
keeps.  It also records the median wall time of ``run_catalog_suite()`` and
of the ``quotient`` calls made inside it, over ``SLOW_REPEATS`` runs
(``measure_catalog_suite`` of ``harness.py``).  Writes
``BENCH_<label>.json`` to ``--out-dir``.

The corpus includes C64×C64 (order 4096); building it from its rows holds
about 1 GB, and writing its document a few hundred MB, in a child process.
To measure another tree, put its ``src`` first on ``PYTHONPATH``; the
fresh interpreters inherit it.

Usage: PYTHONPATH=src python scripts/bench_validate.py --label NAME
       [--out-dir .]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from itertools import islice

import complementa as ca
import complementa.groups as groups_module
from harness import REPEATS, measure_catalog_suite, write_reports

# Builds in a fresh interpreter, validation and the catalog suite take up
# to seconds each, so they are repeated fewer times than the loads.
SLOW_REPEATS = 3

CORPUS = [
    ("hol32", lambda: ca.holomorph_cyclic(32).group),
    ("hol27", lambda: ca.holomorph_cyclic(27).group),
    ("split-p5-3", lambda: ca.split_p5_group(3).group),
    ("S5", lambda: ca.from_generators([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], name="S5")),
    ("C2^6", lambda: ca.elementary_abelian(2, 6).group),
    ("C64xC64", lambda: ca.direct_product(ca.cyclic(64), ca.cyclic(64))),
]


# split-p5-3 and C2^6 (orders 243 and 64) show what a small document pays.
LOAD = ("hol27", "hol32", "split-p5-3", "C2^6")


# Orders 486, 512, 1806, 3125 and 4096; each document is written by a child.
FRESH_LOAD = ("hol27", "hol32", "hol43", "split-p5-5", "C64xC64")


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
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        g = ca.group_from_json(text)
        runs.append(time.perf_counter() - t0)
    return {"order": g.order, "load_s": statistics.median(runs), "load_runs_s": runs}


def peak_rss_mb() -> float:
    """This process's peak RSS, ``VmHWM`` of ``/proc/self/status``.

    Not ``ru_maxrss``: on Linux a spawned process's ``ru_maxrss`` starts at
    the peak its parent had reached when it spawned it."""
    with open("/proc/self/status", encoding="ascii") as fh:
        kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    return int(kib) / 1024.0


def construct_once(name: str) -> dict:
    """Build one ``CONSTRUCT`` group in this process; seconds and peak RSS."""
    t0 = time.perf_counter()
    built = CONSTRUCT[name]()
    seconds = time.perf_counter() - t0
    group = getattr(built, "group", built)
    return {"order": group.order, "seconds": seconds, "peak_rss_mb": peak_rss_mb()}


def write_document(name: str, path: str) -> None:
    """Write the cayley-v1 document of one ``CONSTRUCT`` group to ``path``."""
    built = CONSTRUCT[name]()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(ca.group_to_dict(getattr(built, "group", built))))


def load_once(path: str) -> dict:
    """Load the document at ``path`` in this process; seconds and peak RSS."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    t0 = time.perf_counter()
    group = ca.group_from_json(text)
    seconds = time.perf_counter() - t0
    return {"order": group.order, "seconds": seconds, "peak_rss_mb": peak_rss_mb()}


def export_once(path: str) -> dict:
    """Run ``complementa build`` on the document at ``path`` in this
    process, writing to ``os.devnull``; exit code, seconds and peak RSS."""
    import complementa.cli as cli  # here, so the other children's peaks stay as they were

    t0 = time.perf_counter()
    code = cli.run(["build", "--recipe", path, "--out", os.devnull])
    seconds = time.perf_counter() - t0
    return {"exit_code": code, "seconds": seconds, "peak_rss_mb": peak_rss_mb()}


def in_child(*args) -> str:
    """What this script prints when run with ``args`` in a fresh interpreter."""
    return subprocess.run([sys.executable, __file__, *args],
                          check=True, capture_output=True, text=True).stdout


def fresh_runs(key: str, *args) -> dict:
    """Medians of ``SLOW_REPEATS`` fresh-interpreter runs with ``args``;
    their seconds are reported as ``<key>_s``, beside the other fields of
    the first run."""
    runs = [json.loads(in_child(*args)) for _ in range(SLOW_REPEATS)]
    return {**{k: v for k, v in runs[0].items() if k not in ("seconds", "peak_rss_mb")},
            f"{key}_s": statistics.median(r["seconds"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            f"{key}_runs_s": [r["seconds"] for r in runs],
            "peak_rss_runs_mb": [r["peak_rss_mb"] for r in runs]}


def measure_document(name: str) -> tuple[dict, dict]:
    """The fresh loads and the fresh exports of the document of ``name``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/{name}.json"
        in_child("--document", name, path)
        load = fresh_runs("load", "--load", path)
        return load, {"order": load["order"], **fresh_runs("export", "--export", path)}


def cells_compared(g) -> int:
    """The table cells Light's associativity test compares."""
    kept = islice(groups_module.greedy_generators(g.mult, g.generators), g.order.bit_length())
    return len(list(kept)) * g.order ** 2


def measure_validation(build) -> dict:
    g = build()
    runs = []
    for _ in range(SLOW_REPEATS):
        t0 = time.perf_counter()
        ca.FiniteGroup(g.mult, g.generators, g.labels, name=g.name)
        runs.append(time.perf_counter() - t0)
    return {"order": g.order, "generators": len(g.generators), "method": "light",
            "cells_compared": cells_compared(g), "init_s": statistics.median(runs),
            "init_runs_s": runs}


def measure_validation_and_suite() -> dict:
    groups = {}
    for name, build in CORPUS:
        groups[name] = row = measure_validation(build)
        print(f"{name:>10} |G|={row['order']:>4} {row['method']:>10} "
              f"cells={row['cells_compared']:>11,} "
              f"init={row['init_s']:8.4f}s", flush=True)
    suite = measure_catalog_suite(SLOW_REPEATS)
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
    parser.add_argument("--document", nargs=2, metavar=("NAME", "PATH"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--load", metavar="PATH", help=argparse.SUPPRESS)
    parser.add_argument("--export", metavar="PATH", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.document:
        write_document(*args.document)
        return 0
    if args.construct:
        print(json.dumps(construct_once(args.construct)))
        return 0
    if args.load or args.export:
        print(json.dumps(load_once(args.load) if args.load else export_once(args.export)))
        return 0
    if args.label is None:
        parser.error("--label is required")

    load = {}
    for name in LOAD:
        load[name] = row = measure_load(dict(CORPUS)[name])
        print(f"{name:>10} |G|={row['order']:>4} load={row['load_s']:8.4f}s", flush=True)
    fresh_load, export = {}, {}
    for name in FRESH_LOAD:
        fresh_load[name], export[name] = row, out = measure_document(name)
        print(f"{name:>10} |G|={row['order']:>4} fresh load={row['load_s']:8.4f}s "
              f"peak_rss={row['peak_rss_mb']:7.1f}MB export={out['export_s']:8.4f}s "
              f"peak_rss={out['peak_rss_mb']:7.1f}MB exit={out['exit_code']}", flush=True)
    construction = {}
    for name in CONSTRUCT:
        construction[name] = row = fresh_runs("build", "--construct", name)
        print(f"{name:>10} |G|={row['order']:>4} build={row['build_s']:8.4f}s "
              f"peak_rss={row['peak_rss_mb']:7.1f}MB", flush=True)
    write_reports(args.out_dir, [args.label],
                  [{"load_repeats": REPEATS, "load": load, "fresh_load": fresh_load,
                    "export": export, "construction": construction,
                    **measure_validation_and_suite()}],
                  repeats=SLOW_REPEATS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
