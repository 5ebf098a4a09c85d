#!/usr/bin/env python3
"""Time the perfbench ``verify`` suites and the brute-force lattice oracle,
and count the work of the suites' scans and product sets.

For each suite that the perfbench ``verify`` workload sends (the list is
read from ``perfbench/workloads.py``), it records the median seconds of one
in-process request ``complementa verify --suite SUITE --json`` over
``REPEATS`` rounds, and whether its output is byte-identical to the one
recorded in ``perfbench/expected/``.  As in perfbench, the constructor
caches are cleared and garbage is collected before each request, outside
the timing.

The work counts come from one more pass, made outside the timing, with call
counters installed from outside the library:

* the transport scan (``_transport_scan``): the quotients it forms (its
  ``groups.quotient`` calls, directly or through ``cached_quotient``); the
  groups it constructs, and so validates, as K-as-groups and inside
  ``quotient`` (``FiniteGroup._validate`` calls); the distinct
  (rows, generators) among those, counted within each scan and summed; and
  the lattices it builds (its ``all_subgroups`` calls on a group with no
  full lattice memoized yet);
* the p-subgroup battery: the ``_p_subgroup_failures`` calls, and the
  batteries evaluated.  A tree that memoizes the battery evaluates one per
  ``_p_subgroup_battery`` call; a tree without that function evaluates one
  per ``_p_subgroup_failures`` call;
* the product sets: ``product_bits`` calls from anywhere, and the right-coset
  partitions built.  A tree that memoizes the partitions on the group
  builds one per memo miss of ``g.cached(("right_cosets", members))``; a
  tree that reads no such memo entry builds one per ``right_cosets`` call
  (0 on a tree without ``right_cosets``);
* the Dedekind scan: the (A, B, T) triples it checks, read from the
  ``triples_checked`` witness of each ``modular-identity`` claim in the
  output;
* the join search: the ``overgroups_by_joins`` calls, the per-subgroup join
  loops run (``count_join_loops`` of ``harness.py``) and the ``_join_bits``
  calls, from anywhere;
* the constructions: the memo misses of the cached group constructors in
  each request, summed (``constructor_misses`` of ``harness.py``), so a
  construction that one request reaches by two paths and builds twice
  counts twice.

The oracle section records, for each order-24 group of ``ORACLE_CORPUS``,
the median seconds of ``subset_closure_subgroups`` over ``REPEATS`` runs on
one built copy of the group, and the number of subgroups it found.

With ``--baseline SRC``, a second source tree (SRC is its ``src`` directory)
is imported in the same process, and the two trees alternate request by
request and oracle run by oracle run, each going first in every other round
(``load_trees`` and ``interleaved`` of ``harness.py``).  A pass is the sum of
one round's requests.  The baseline's results go to
``BENCH_<label>-parent.json``.

Usage: PYTHONPATH=src python scripts/bench_verify.py --label NAME
       [--out-dir .] [--baseline SRC]
"""

import contextlib
import gc
import io
import json
import os
import statistics
import sys
import time

from harness import (REPEATS, Patches, arguments, clear_constructor_caches,
                     constructor_misses, count_join_loops, counting,
                     interleaved, load_trees, perfbench_module, write_reports)

ORACLE_CORPUS = ("dih24", "c24", "c2xa4")


def perfbench_suites() -> list[tuple[str, str]]:
    """(suite, recorded output) for each suite of the perfbench ``verify``
    workload."""
    workloads = perfbench_module("workloads")
    out = []
    for suite in workloads.VERIFY_SUITES:
        path = os.path.join(workloads.EXPECTED_DIR, workloads.verify_golden_name(suite))
        with open(path, encoding="utf-8") as fh:
            out.append((suite, fh.read()))
    return out


def request(tree, suite) -> tuple[float, str]:
    """Seconds and stdout of one ``verify --suite SUITE --json`` request."""
    clear_constructor_caches(tree.ca)
    gc.collect()
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = tree.cli_module.run(["verify", "--suite", suite, "--json"])
    seconds = time.perf_counter() - t0
    if rc != 0:
        raise SystemExit(f"{tree.ca.__name__}: verify --suite {suite} exited {rc}")
    return seconds, out.getvalue()


def count_work(tree, suites) -> dict:
    """The work counts of one pass over ``suites``."""
    verify_module, subgroups_module = tree.verify_module, tree.subgroups_module
    groups_module, group_class = tree.ca.groups, subgroups_module.FiniteGroup
    counts = dict.fromkeys(("quotients_formed", "k_groups_built", "quotient_groups_built",
                            "distinct_tables", "lattices_built",
                            "battery_calls", "batteries_evaluated",
                            "product_calls", "partitions_built",
                            "triples_checked", "overgroups_calls", "join_loops",
                            "join_bits_calls", "constructor_misses"), 0)
    inside = set()
    tables = set()  # (rows, generators) validated in the current scan

    def scope(name):
        def wrapper(original):
            def scoped(*args, **kwargs):
                inside.add(name)
                tables.clear()
                try:
                    return original(*args, **kwargs)
                finally:
                    inside.discard(name)
            return scoped
        return wrapper

    def forming(original):
        def formed(*args, **kwargs):
            if "transport" not in inside:
                return original(*args, **kwargs)
            counts["quotients_formed"] += 1
            inside.add("quotient")
            try:
                return original(*args, **kwargs)
            finally:
                inside.discard("quotient")
        return formed

    def validating(original):
        def validated(grp, mult):
            inv = original(grp, mult)
            if "transport" in inside:
                kind = "quotient_groups_built" if "quotient" in inside else "k_groups_built"
                counts[kind] += 1
                key = (grp.mult, grp.generators)
                counts["distinct_tables"] += key not in tables
                tables.add(key)
            return inv
        return validated

    def building(original):
        def built(grp, *args, **kwargs):
            if "transport" in inside and grp.cached_value(("sub_div", grp.order)) is None:
                counts["lattices_built"] += 1
            return original(grp, *args, **kwargs)
        return built

    partitions = dict.fromkeys(("memo_reads", "memo_misses", "builder_calls"), 0)

    def memoizing(original):
        def cached(grp, key, builder):
            if isinstance(key, tuple) and key[0] == "right_cosets":
                partitions["memo_reads"] += 1
                partitions["memo_misses"] += grp.cached_value(key) is None
            return original(grp, key, builder)
        return cached

    battery = getattr(verify_module, "_p_subgroup_battery", None)
    cosets = getattr(subgroups_module, "right_cosets", None)
    with Patches() as patches:
        patches.wrap(verify_module._transport_scan, scope("transport"), verify_module)
        # verify and cached_quotient both reach the one groups.quotient
        patches.wrap(groups_module.quotient, forming)
        patches.wrap(group_class._validate, validating, group_class)
        patches.wrap(verify_module.all_subgroups, building, verify_module)
        patches.wrap(verify_module._p_subgroup_failures, counting(counts, "battery_calls"),
                     verify_module)
        # verify imports product_bits by name; subgroups calls its own
        patches.wrap(verify_module.product_bits, counting(counts, "product_calls"),
                     verify_module, subgroups_module)
        patches.wrap(group_class.cached, memoizing, group_class)
        if cosets is not None:
            patches.wrap(cosets, counting(partitions, "builder_calls"))
        if battery is not None:
            patches.wrap(battery, counting(counts, "batteries_evaluated"), verify_module)
        patches.wrap(subgroups_module.overgroups_by_joins, counting(counts, "overgroups_calls"))
        count_join_loops(patches, subgroups_module, counts, "join_loops")
        patches.wrap(subgroups_module._join_bits, counting(counts, "join_bits_calls"),
                     subgroups_module)
        for suite, _ in suites:
            _, out = request(tree, suite)
            counts["constructor_misses"] += constructor_misses(tree.ca)
            counts["triples_checked"] += sum(
                report["witnesses"][0].get("triples_checked", 0)
                for report in json.loads(out)
                if report["claim"].endswith(".modular-identity"))
    if battery is None:
        counts["batteries_evaluated"] = counts["battery_calls"]
    counts["partitions_built"] = partitions[
        "memo_misses" if partitions["memo_reads"] else "builder_calls"]
    return counts


def measure_oracle(trees, name: str) -> list[dict]:
    groups = [tree.ca.catalog_entry(name).build().group for tree in trees]

    def run(tree, i):
        g = groups[trees.index(tree)]
        t0 = time.perf_counter()
        found = tree.ca.subset_closure_subgroups(g)
        return time.perf_counter() - t0, len(found)

    rows = []
    for g, runs in zip(groups, interleaved(trees, run)):
        runs_s = [seconds for seconds, _ in runs]
        rows.append({"order": g.order, "subgroups": runs[-1][1],
                     "seconds": statistics.median(runs_s), "runs_s": runs_s})
    return rows


def main() -> int:
    args = arguments(__doc__)
    suites = perfbench_suites()
    labels, trees = load_trees(args.label, args.baseline)

    # per suite, REPEATS rounds of one request on each tree: runs[suite][k][i]
    runs = {suite: interleaved(trees, lambda tree, i: request(tree, suite))
            for suite, _ in suites}
    oracle = {name: measure_oracle(trees, name) for name in ORACLE_CORPUS}
    reports = []
    for k, (tree, label) in enumerate(zip(trees, labels)):
        rows = {}
        for suite, expected in suites:
            runs_s = [seconds for seconds, _ in runs[suite][k]]
            rows[suite] = {"seconds": statistics.median(runs_s),
                           "matches_expected": all(out == expected for _, out in runs[suite][k]),
                           "runs_s": runs_s}
        pass_s = [sum(row["runs_s"][i] for row in rows.values()) for i in range(REPEATS)]
        work = count_work(tree, suites)
        reports.append({"pass_s": statistics.median(pass_s), "pass_runs_s": pass_s,
                        "suites": rows, "work": work,
                        "oracle": {name: oracle[name][k] for name in ORACLE_CORPUS}})
        prefix = f"[{label}] " if len(trees) > 1 else ""
        for suite, row in rows.items():
            print(f"{prefix}{suite:>22} {row['seconds']:7.3f}s"
                  f"{'' if row['matches_expected'] else '  OUTPUT DIFFERS'}")
        print(f"{prefix}{'pass':>22} {reports[-1]['pass_s']:7.3f}s  "
              + " ".join(f"{key}={value}" for key, value in work.items()))
        for name in ORACLE_CORPUS:
            row = oracle[name][k]
            print(f"{prefix}{'oracle ' + name:>22} {row['seconds']:7.3f}s  "
                  f"|G|={row['order']} subgroups={row['subgroups']}")
    write_reports(args.out_dir, labels, reports)
    return 0


if __name__ == "__main__":
    sys.exit(main())
