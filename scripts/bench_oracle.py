#!/usr/bin/env python3
"""Time the brute-force lattice oracle and the catalog suite.

For each order-24 group of the corpus it records the median seconds of
``subset_closure_subgroups`` over ``REPEATS`` runs and the number of
subgroups found, and it records the median wall time of
``run_catalog_suite()`` over ``REPEATS`` runs, each started with the
constructor caches cleared, so no group or lattice is reused across runs.
Writes ``BENCH_<label>.json`` to ``--out-dir``.

Usage: PYTHONPATH=src python scripts/bench_oracle.py --label NAME
       [--out-dir .]
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time

import complementa as ca

REPEATS = 3

CORPUS = ("dih24", "c24", "c2xa4")


def measure_oracle(name: str) -> dict:
    g = ca.catalog_entry(name).build().group
    runs = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        found = ca.subset_closure_subgroups(g)
        runs.append(time.perf_counter() - t0)
    return {"order": g.order, "subgroups": len(found),
            "oracle_s": statistics.median(runs), "oracle_runs_s": runs}


def clear_constructor_caches() -> None:
    for obj in vars(ca.constructions).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


def measure_catalog_suite() -> dict:
    runs = []
    for _ in range(REPEATS):
        clear_constructor_caches()
        t0 = time.perf_counter()
        reports = ca.run_catalog_suite()
        runs.append(time.perf_counter() - t0)
    return {"claims": len(reports),
            "failed": sum(1 for r in reports if r.status == "fail"),
            "wall_s": statistics.median(runs), "wall_runs_s": runs}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True)
    parser.add_argument("--out-dir", default=".")
    args = parser.parse_args()

    groups = {}
    for name in CORPUS:
        groups[name] = row = measure_oracle(name)
        print(f"{name:>6} |G|={row['order']} subgroups={row['subgroups']:>3} "
              f"oracle={row['oracle_s']:8.4f}s", flush=True)
    suite = measure_catalog_suite()
    print(f"catalog suite: {suite['claims']} claims, {suite['failed']} failed, "
          f"{suite['wall_s']:.2f}s", flush=True)
    report = {
        "label": args.label,
        "repeats": REPEATS,
        "machine": {"cpu": platform.processor() or platform.machine(),
                    "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "groups": groups,
        "catalog_suite": suite,
    }
    path = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
