"""Shared parts of the ``bench_*.py`` scripts, imported by them (not run).

* The trees: a tree is one imported copy of the library.  ``load_trees``
  gives this checkout's ``complementa`` and, with ``--baseline SRC``, the
  tree in SRC imported in the same process as ``complementa_baseline``.
* ``interleaved`` runs each timed step ``REPEATS`` times on every tree, each
  tree going first in every other round, so the trees see the same machine
  state and drift of the machine's speed between processes, which reached
  30–50%, cancels out.
* ``Patches`` binds library names to wrappers installed from outside the
  library (a counting one is ``counting``) and puts them back;
  ``count_join_loops`` counts the join loops of the subgroup search with
  them.
* ``clear_constructor_caches`` empties the memo of each group constructor,
  ``constructor_misses`` counts the memo misses since, and
  ``measure_catalog_suite`` times the catalog suite with empty memos.
* ``write_reports`` writes each report to ``BENCH_<label>.json``.
* ``perfbench_module`` imports a module of ``perfbench/`` (the workloads,
  the recorded answers, the reference process) without writing bytecode
  into it.
"""

import argparse
import importlib
import importlib.util
import json
import os
import platform
import statistics
import sys
import time
from typing import NamedTuple

# The library imports numpy on its first table; importing it here keeps that
# import out of every timed build, pass and round of the scripts.
import numpy  # noqa: F401

import complementa

REPEATS = 9

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


class Tree(NamedTuple):
    """One imported copy of the library: the modules the benchmarks call."""
    ca: object
    cli_module: object
    subgroups_module: object
    verify_module: object


def tree(package: str) -> Tree:
    """The modules of the imported library package ``package``."""
    return Tree(*(importlib.import_module(package + suffix)
                  for suffix in ("", ".cli", ".subgroups", ".verify")))


def load_tree(src: str, package: str) -> Tree:
    """Import the library in ``src`` under the package name ``package``."""
    root = os.path.join(os.path.abspath(src), "complementa")
    spec = importlib.util.spec_from_file_location(
        package, os.path.join(root, "__init__.py"),
        submodule_search_locations=[root])
    module = importlib.util.module_from_spec(spec)
    sys.modules[package] = module
    spec.loader.exec_module(module)
    return tree(package)


def arguments(doc: str) -> argparse.Namespace:
    """The command line of a script that can compare two trees."""
    parser = argparse.ArgumentParser(description=doc,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True)
    parser.add_argument("--out-dir", default=".")
    parser.add_argument("--baseline", metavar="SRC",
                        help="src directory of a second tree, timed interleaved")
    return parser.parse_args()


def load_trees(label: str, baseline: str | None) -> tuple[list[str], list[Tree]]:
    """The report labels and the trees of a run: this checkout's tree and,
    given ``baseline`` (a ``src`` directory), that tree as ``<label>-parent``."""
    labels, trees = [label], [tree(complementa.__name__)]
    if baseline:
        labels.append(f"{label}-parent")
        trees.append(load_tree(baseline, "complementa_baseline"))
    return labels, trees


def interleaved(trees, run, repeats: int = REPEATS):
    """``run(tree, i)`` for each tree in each of ``repeats`` rounds, the
    first tree first in even rounds and last in odd ones; the results per
    tree, in round order."""
    out = [[] for _ in trees]
    for i in range(repeats):
        order = list(enumerate(trees))
        for k, t in (order if i % 2 == 0 else order[::-1]):
            out[k].append(run(t, i))
    return out


class Patches:
    """Library names bound to wrappers; leaving the ``with`` block binds
    the originals again, also when the block raises."""

    def __init__(self):
        self.saved = []

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        for owner, name, original in reversed(self.saved):
            setattr(owner, name, original)
        self.saved.clear()

    def wrap(self, original, make, *owners):
        """Bind ``make(original)`` to the name of ``original`` in each of
        ``owners`` (modules or classes) or, given none, in every module of
        its package that binds it: a counting, timing or scoping wrapper
        that calls ``original``."""
        name = original.__name__
        if not owners:
            package = original.__module__.partition(".")[0]
            owners = [m for mod_name, m in list(sys.modules.items())
                      if mod_name.partition(".")[0] == package
                      and getattr(m, name, None) is original]
        for owner in owners:
            if getattr(owner, name, None) is not original:
                raise ValueError(f"{owner!r}.{name} is not the function given")
        replacement = make(original)
        for owner in owners:
            self.saved.append((owner, name, original))
            setattr(owner, name, replacement)


def counting(counts: dict, key: str):
    """A ``make`` for ``Patches.wrap`` whose wrapper adds 1 to
    ``counts[key]`` per call."""
    def make(original):
        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return counted
    return make


def count_join_loops(patches: Patches, subgroups_module, counts: dict, key: str) -> None:
    """Add to ``counts[key]``, through ``patches``, the per-subgroup join
    loops the subgroup search runs: the ``_kept_joins`` calls, or, in a tree
    without that function, the subgroups each ``_join_search`` call joined
    (every subgroup it found, or one per orbit when it searched by orbit)."""
    kept_joins = getattr(subgroups_module, "_kept_joins", None)
    if kept_joins is not None:
        patches.wrap(kept_joins, counting(counts, key), subgroups_module)
        return

    def make(original):
        def searched(g, seed, cap, joins, orbits=None):
            found = original(g, seed, cap, joins, orbits)
            counts[key] += len(found) if orbits is None else len(orbits)
            return found
        return searched

    patches.wrap(subgroups_module._join_search, make, subgroups_module)


def clear_constructor_caches(ca) -> None:
    """Empty the memo of every cached group constructor of the package ``ca``."""
    for obj in vars(ca.constructions).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


def constructor_misses(ca) -> int:
    """The memo misses of every cached group constructor of the package
    ``ca`` (the ``catalog`` list included) since their memos were emptied:
    one per construction built."""
    return sum(obj.cache_info().misses for obj in vars(ca.constructions).values()
               if hasattr(obj, "cache_info"))


def measure_catalog_suite(repeats: int) -> dict:
    """Median wall seconds of ``run_catalog_suite()`` over ``repeats`` runs,
    each started with the constructor caches cleared so no group or lattice
    is reused, and of the ``quotient`` calls made inside it."""
    wall, spent, calls = [], [], []

    def timed(original):
        def timing(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                spent[-1] += time.perf_counter() - t0
                calls[-1] += 1
        return timing

    for _ in range(repeats):
        clear_constructor_caches(complementa)
        spent.append(0.0)
        calls.append(0)
        with Patches() as patches:
            patches.wrap(complementa.groups.quotient, timed)
            t0 = time.perf_counter()
            reports = complementa.run_catalog_suite()
            wall.append(time.perf_counter() - t0)
    return {"claims": len(reports),
            "failed": sum(1 for r in reports if r.status == "fail"),
            "quotient_calls": calls[0],
            "quotient_s": statistics.median(spent), "quotient_runs_s": spent,
            "wall_s": statistics.median(wall), "wall_runs_s": wall}


def write_reports(out_dir: str, labels: list[str], reports: list[dict],
                  repeats: int = REPEATS) -> None:
    """Write each report to ``BENCH_<label>.json`` in ``out_dir``, headed by
    its label, the repeat count, the machine and, when there are two, the
    label of the other report of the interleaved run."""
    machine = {"cpu": platform.processor() or platform.machine(),
               "cpus": os.cpu_count(),
               "python": platform.python_version()}
    for k, (label, report) in enumerate(zip(labels, reports)):
        report = {"label": label, "repeats": repeats, "machine": machine,
                  **({"interleaved_with": labels[1 - k]} if len(labels) > 1 else {}),
                  **report}
        path = os.path.join(out_dir, f"BENCH_{label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {path}")


def perfbench_module(name: str):
    """The module ``name`` of ``perfbench/``, imported without writing
    bytecode into that directory."""
    sys.path.insert(0, PERFBENCH)
    sys.dont_write_bytecode, writing = True, sys.dont_write_bytecode
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = writing
        sys.path.remove(PERFBENCH)
