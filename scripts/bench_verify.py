#!/usr/bin/env python3
"""Time the perfbench ``verify`` suites and count the work of their scans
and product sets.

For each suite that the perfbench ``verify`` workload sends (the list is
read from ``perfbench/workloads.py``), it records the median seconds of one
in-process request ``complementa verify --suite SUITE --json`` over
``REPEATS`` rounds, and whether its output is byte-identical to the one
recorded in ``perfbench/expected/``.  As in perfbench, the constructor
caches are cleared and garbage is collected before each request, outside
the timing.

The work counts come from one more pass, made outside the timing, with call
counters installed from outside the library:

* the transport scan (``_transport_scan``): the quotients it forms with
  ``cached_quotient``, and the quotient lattices it builds (its
  ``all_subgroups`` calls on those quotients);
* the p-subgroup battery: the ``_p_subgroup_failures`` calls, and the
  batteries evaluated.  A tree that memoizes the battery evaluates one per
  ``_p_subgroup_battery`` call; a tree without that function evaluates one
  per ``_p_subgroup_failures`` call;
* the product sets: ``product_bits`` calls from anywhere, and the right-coset
  partitions built (memo misses of ``g.cached(("right_cosets", members))``;
  0 on a tree without ``right_cosets``);
* the Dedekind scan: the (A, B, T) triples it checks, read from the
  ``triples_checked`` witness of each ``modular-identity`` claim in the
  output.

With ``--baseline SRC``, a second source tree (SRC is its ``src`` directory)
is imported in the same process as the package ``complementa_baseline``
(``load_tree`` of ``bench_lattice.py``), and the two trees alternate
request by request, each going first in every other round of a suite, so
that both see the same machine state.  A pass is the sum of one round's
requests.  The baseline's results go to ``BENCH_<label>-parent.json``.

Usage: PYTHONPATH=src python scripts/bench_verify.py --label NAME
       [--out-dir .] [--baseline SRC]
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import statistics
import sys
import time

import complementa as ca
import complementa.cli as cli_module
import complementa.subgroups as subgroups_module
import complementa.verify as verify_module
from bench_lattice import REPEATS, Tree, interleaved, load_tree

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def perfbench_suites() -> list[tuple[str, str]]:
    """(suite, recorded output) for each suite of the perfbench ``verify``
    workload; reads perfbench/ without writing bytecode into it."""
    sys.path.insert(0, PERFBENCH)
    sys.dont_write_bytecode, writing = True, sys.dont_write_bytecode
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode = writing
        sys.path.remove(PERFBENCH)
    out = []
    for suite in workloads.VERIFY_SUITES:
        path = os.path.join(workloads.EXPECTED_DIR, workloads.verify_golden_name(suite))
        with open(path, encoding="utf-8") as fh:
            out.append((suite, fh.read()))
    return out


def request(tree, suite) -> tuple[float, str]:
    """Seconds and stdout of one ``verify --suite SUITE --json`` request."""
    ca, cli_module, _ = tree
    for obj in vars(ca.constructions).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    gc.collect()
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli_module.run(["verify", "--suite", suite, "--json"])
    seconds = time.perf_counter() - t0
    if rc != 0:
        raise SystemExit(f"{ca.__name__}: verify --suite {suite} exited {rc}")
    return seconds, out.getvalue()


class Patches:
    """Replaces functions of a module or class by wrappers, and puts them
    back on ``restore``."""

    def __init__(self):
        self.saved = []

    def wrap(self, owner, original, make):
        self.saved.append((owner, original.__name__, original))
        setattr(owner, original.__name__, make(original))

    def restore(self):
        for owner, name, original in reversed(self.saved):
            setattr(owner, name, original)


def count_work(tree, verify_module, suites) -> dict:
    """The work counts of one pass over ``suites``; ``verify_module`` is the
    tree's ``verify``."""
    subgroups_module = tree.subgroups_module
    counts = dict.fromkeys(("quotients_formed", "quotient_lattices_built",
                            "battery_calls", "batteries_evaluated",
                            "product_calls", "partitions_built",
                            "triples_checked"), 0)
    inside = set()
    quotients = set()

    def add(key):
        def wrapper(original):
            def counted(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)
            return counted
        return wrapper

    def scope(name):
        def wrapper(original):
            def scoped(*args, **kwargs):
                inside.add(name)
                quotients.clear()
                try:
                    return original(*args, **kwargs)
                finally:
                    inside.discard(name)
            return scoped
        return wrapper

    def forming(original):
        def formed(*args, **kwargs):
            quo, proj = original(*args, **kwargs)
            if "transport" in inside:
                counts["quotients_formed"] += 1
                quotients.add(id(quo))
            return quo, proj
        return formed

    def building(original):
        def built(grp, *args, **kwargs):
            if "transport" in inside and id(grp) in quotients:
                counts["quotient_lattices_built"] += 1
            return original(grp, *args, **kwargs)
        return built

    def memoizing(original):
        def cached(grp, key, builder):
            if (isinstance(key, tuple) and key[0] == "right_cosets"
                    and grp.cached_value(key) is None):
                counts["partitions_built"] += 1
            return original(grp, key, builder)
        return cached

    battery = getattr(verify_module, "_p_subgroup_battery", None)
    patches = Patches()
    try:
        patches.wrap(verify_module, verify_module._transport_scan, scope("transport"))
        patches.wrap(verify_module, verify_module.cached_quotient, forming)
        patches.wrap(verify_module, verify_module.all_subgroups, building)
        patches.wrap(verify_module, verify_module._p_subgroup_failures, add("battery_calls"))
        # verify imports product_bits by name; subgroups calls its own
        patches.wrap(verify_module, verify_module.product_bits, add("product_calls"))
        patches.wrap(subgroups_module, subgroups_module.product_bits, add("product_calls"))
        patches.wrap(subgroups_module.FiniteGroup, subgroups_module.FiniteGroup.cached,
                     memoizing)
        if battery is not None:
            patches.wrap(verify_module, battery, add("batteries_evaluated"))
        for suite, _ in suites:
            _, out = request(tree, suite)
            counts["triples_checked"] += sum(
                report["witnesses"][0].get("triples_checked", 0)
                for report in json.loads(out)
                if report["claim"].endswith(".modular-identity"))
    finally:
        patches.restore()
    if battery is None:
        counts["batteries_evaluated"] = counts["battery_calls"]
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True)
    parser.add_argument("--out-dir", default=".")
    parser.add_argument("--baseline", metavar="SRC",
                        help="src directory of a second tree, timed interleaved")
    args = parser.parse_args()

    suites = perfbench_suites()
    trees = [Tree(ca, cli_module, subgroups_module)]
    verify_modules = [verify_module]
    labels = [args.label]
    if args.baseline:
        trees.append(load_tree(args.baseline, "complementa_baseline"))
        verify_modules.append(importlib.import_module("complementa_baseline.verify"))
        labels.append(f"{args.label}-parent")

    # per suite, REPEATS rounds of one request on each tree: runs[suite][k][i]
    runs = {suite: interleaved(trees, lambda tree, i: request(tree, suite))
            for suite, _ in suites}
    machine = {"cpu": platform.processor() or platform.machine(),
               "cpus": os.cpu_count(),
               "python": platform.python_version()}
    for k, (tree, label) in enumerate(zip(trees, labels)):
        rows = {}
        for suite, expected in suites:
            runs_s = [seconds for seconds, _ in runs[suite][k]]
            rows[suite] = {"seconds": statistics.median(runs_s),
                           "matches_expected": all(out == expected for _, out in runs[suite][k]),
                           "runs_s": runs_s}
        pass_s = [sum(row["runs_s"][i] for row in rows.values()) for i in range(REPEATS)]
        work = count_work(tree, verify_modules[k], suites)
        report = {"label": label, "repeats": REPEATS, "machine": machine,
                  **({"interleaved_with": labels[1 - k]} if len(labels) > 1 else {}),
                  "pass_s": statistics.median(pass_s), "pass_runs_s": pass_s,
                  "suites": rows, "work": work}
        prefix = f"[{label}] " if len(trees) > 1 else ""
        for suite, row in rows.items():
            print(f"{prefix}{suite:>22} {row['seconds']:7.3f}s"
                  f"{'' if row['matches_expected'] else '  OUTPUT DIFFERS'}")
        print(f"{prefix}{'pass':>22} {report['pass_s']:7.3f}s  "
              + " ".join(f"{key}={value}" for key, value in work.items()))
        path = os.path.join(args.out_dir, f"BENCH_{label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
