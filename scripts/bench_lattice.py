#!/usr/bin/env python3
"""Time lattice enumeration, the covering relation, the lattice export and
the join search on a fixed corpus.

For each group of the lattice corpus it records the median seconds of
``all_subgroups``, of ``SubgroupLattice.inclusion`` and of the export over
``REPEATS`` runs, each on a fresh copy of the group (empty cache), the
subgroup count, the number of cover pairs, and the work counts of one more
run, made outside the timing: the ``closure_bits`` calls made during
enumeration (set-up only, such as building automorphisms; the search makes
none), the orbit images the enumeration computed (``_conj_bits`` calls),
the element tuples read off bitsets (``bit_indices`` calls) from
enumeration through export, and the number of subgroups the enumeration
extended or joined,
which is the number of orbits it records (one representative per orbit is
extended or joined): automorphism orbits in an abelian group, conjugacy
classes otherwise.  It is read off the memo entry ``("sub_div", |G|)``:
its ``orbits`` in a tree where that entry is a ``SubgroupLattice``, and in
an older ``--baseline`` tree, where it is a tuple, its last item, which is
the orbits in (subgroups, classes, orbits) and, in trees that kept only
(subgroups, classes), the classes those searched by.
The export is ``lattice_to_dict`` plus the JSON encoding that ``complementa
lattice`` writes (``cli._emit_json``, into a string buffer); it runs after
``inclusion``, so it includes the conjugacy classes but not the covering
relation.

The join section times the two uses of the join search: ``all_subgroups``
on S5 and A5, where it builds the whole lattice, and
``overgroups_by_joins`` from every subgroup of C3^4 and C5^3 (the lattice
is built first, outside the timing).  It records the median seconds over
``REPEATS`` runs on fresh copies and the number of ``_join_bits`` calls.
That count leaves out each join ⟨K, x⟩ of prime index with x normalizing
K and order dividing the cap, which the search builds as a cyclic
extension instead.  It also records the number of per-subgroup join loops
run (``count_join_loops`` of ``harness.py``).

The complement section times, on each group of the lattice corpus but C2^7,
``is_completely_factorizable``, ``c_separating_subgroups`` and
``is_supercomplemented`` from every subgroup.  Each run takes a fresh copy
of the group and builds its lattice before the timing starts, so the
complement scans and whatever they cache are inside it.  It records the
median seconds over ``REPEATS`` runs and the answers (the factorizable
verdict, the number of C-separating and of supercomplemented subgroups),
which must agree between the two sides of a comparison.  C2^7 stays out
so that ``--baseline`` runs against older trees stay short: reading the
uncomplemented subgroups off the lattice's order blocks, each C2^7
predicate takes about 0.4 s, but a tree that runs one complement scan
per subgroup takes 6 to 8 s per run (2 cores, CPython 3.11).

Calls are counted by a wrapper installed from outside the library, never
during a timed run.  Writes ``BENCH_<label>.json`` to ``--out-dir``.

With ``--baseline SRC``, a second source tree (SRC is its ``src`` directory)
is imported in the same process, and every timed run alternates between the
two trees (``load_trees`` and ``interleaved`` of ``harness.py``).  The
baseline's results go to ``BENCH_<label>-parent.json``.

Usage: PYTHONPATH=src python scripts/bench_lattice.py --label NAME
       [--out-dir .] [--baseline SRC]
"""

import argparse
import contextlib
import io
import statistics
import sys
import time
from collections import Counter

from harness import (Patches, arguments, count_join_loops, counting, interleaved,
                     load_trees, write_reports)


def fresh(ca, g):
    """A copy of g with an empty cache."""
    return ca.FiniteGroup(g.mult, g.generators, g.labels, name=g.name)


def s5(ca):
    return ca.from_generators([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], name="S5")


def a5(ca):
    return ca.from_generators([(1, 2, 3, 4, 0), (0, 2, 3, 1, 4)], name="A5")


CORPUS = [
    ("holomorph_cyclic(32)", lambda ca: ca.holomorph_cyclic(32).group),
    ("split_p5_group(3)", lambda ca: ca.split_p5_group(3).group),
    ("elementary_abelian(3, 5)", lambda ca: ca.elementary_abelian(3, 5).group),
    ("elementary_abelian(2, 6)", lambda ca: ca.elementary_abelian(2, 6).group),
    ("elementary_abelian(2, 7)", lambda ca: ca.elementary_abelian(2, 7).group),
    ("C2^3 x C3^2", lambda ca: ca.direct_product(
        ca.elementary_abelian(2, 3).group, ca.elementary_abelian(3, 2).group)),
    ("dihedral(128)", lambda ca: ca.dihedral(128).group),
    ("S5", s5),
    ("A5", a5),
]

COMPLEMENT_CORPUS = [row for row in CORPUS if row[0] != "elementary_abelian(2, 7)"]

# (name, build, what is timed): "lattice" for all_subgroups, "overgroups"
# for overgroups_by_joins from every subgroup.
JOIN_CORPUS = [
    ("S5", s5, "lattice"),
    ("A5", a5, "lattice"),
    ("elementary_abelian(3, 4)", lambda ca: ca.elementary_abelian(3, 4).group, "overgroups"),
    ("elementary_abelian(5, 3)", lambda ca: ca.elementary_abelian(5, 3).group, "overgroups"),
]


def export(tree, lat):
    """``lattice_to_dict`` and the JSON text ``complementa lattice`` prints."""
    with contextlib.redirect_stdout(io.StringIO()):
        tree.cli_module._emit_json(argparse.Namespace(out=None), tree.ca.lattice_to_dict(lat))


def count_work(tree, base) -> dict:
    """The calls of one lattice request on a fresh copy of base:
    ``closure_bits`` and ``_conj_bits`` during enumeration, ``bit_indices``
    from enumeration through export."""
    g = fresh(tree.ca, base)
    counts = Counter()
    with Patches() as patches:
        for name in ("closure_bits", "_conj_bits", "bit_indices"):
            patches.wrap(getattr(tree.subgroups_module, name), counting(counts, name))
        lat = tree.ca.all_subgroups(g, cap=g.order)
        closure_calls, orbit_images = counts["closure_bits"], counts["_conj_bits"]
        pairs = len(lat.inclusion)
        export(tree, lat)
    return {"closure_calls": closure_calls, "orbit_images": orbit_images,
            "bit_indices_calls": counts["bit_indices"], "cover_pairs": pairs,
            "orbits": len(orbits_of(g.cached_value(("sub_div", g.order))))}


def orbits_of(entry):
    """The orbits of a full-lattice memo entry, in this tree or an older one."""
    return entry[-1] if isinstance(entry, tuple) else entry.orbits


def measure(trees, build) -> list[dict]:
    bases = [build(tree.ca) for tree in trees]

    def run(tree, i):
        g = fresh(tree.ca, bases[trees.index(tree)])
        t0 = time.perf_counter()
        lat = tree.ca.all_subgroups(g, cap=g.order)
        t1 = time.perf_counter()
        lat.inclusion
        t2 = time.perf_counter()
        export(tree, lat)
        t3 = time.perf_counter()
        return len(lat), (t1 - t0, t2 - t1, t3 - t2)

    rows = []
    for tree, base, runs in zip(trees, bases, interleaved(trees, run)):
        enum_s, incl_s, export_s = (list(r) for r in zip(*(run[1] for run in runs)))
        work = count_work(tree, base)
        rows.append({
            "order": base.order,
            "subgroups": runs[-1][0],
            "extended_or_joined": work["orbits"],
            "enumeration_s": statistics.median(enum_s),
            "inclusion_s": statistics.median(incl_s),
            "export_s": statistics.median(export_s),
            "closure_calls": work["closure_calls"],
            "orbit_images": work["orbit_images"],
            "bit_indices_calls": work["bit_indices_calls"],
            "cover_pairs": work["cover_pairs"],
            "enumeration_runs_s": enum_s,
            "inclusion_runs_s": incl_s,
            "export_runs_s": export_s,
        })
    return rows


def measure_joins(trees, build, kind: str) -> list[dict]:
    bases = [build(tree.ca) for tree in trees]

    def subgroups_of(tree, g):
        return tree.ca.all_subgroups(g, cap=g.order).subgroups if kind == "overgroups" else ()

    def search(tree, g, subs):
        if kind == "lattice":
            tree.ca.all_subgroups(g, cap=g.order)
        else:
            for s in subs:
                tree.subgroups_module.overgroups_by_joins(g, s)

    def run(tree, i):
        g = fresh(tree.ca, bases[trees.index(tree)])
        subs = subgroups_of(tree, g)
        t0 = time.perf_counter()
        search(tree, g, subs)
        return time.perf_counter() - t0, len(subs)

    def count_joins(tree, base):
        g = fresh(tree.ca, base)
        subs = subgroups_of(tree, g)
        counts = Counter()
        with Patches() as patches:
            patches.wrap(tree.subgroups_module._join_bits, counting(counts, "joins"))
            count_join_loops(patches, tree.subgroups_module, counts, "loops")
            search(tree, g, subs)
        return counts["joins"], counts["loops"]

    rows = []
    for tree, base, runs in zip(trees, bases, interleaved(trees, run)):
        runs_s = [r[0] for r in runs]
        join_calls, join_loops = count_joins(tree, base)
        rows.append({
            "order": base.order,
            "timed": ("all_subgroups" if kind == "lattice"
                      else f"overgroups_by_joins from each of {runs[-1][1]} subgroups"),
            "seconds": statistics.median(runs_s),
            "join_calls": join_calls,
            "join_loops": join_loops,
            "runs_s": runs_s,
        })
    return rows


COMPLEMENT_PREDICATES = {
    "completely_factorizable": lambda ca, g, lat: ca.is_completely_factorizable(g, g.order)[0],
    "c_separating": lambda ca, g, lat: len(ca.c_separating_subgroups(g, g.order)),
    "supercomplemented": lambda ca, g, lat: sum(
        ca.is_supercomplemented(g, s, g.order)[0] for s in lat.subgroups),
}


def measure_complements(trees, build) -> list[dict]:
    bases = [build(tree.ca) for tree in trees]
    rows = [{"order": base.order} for base in bases]
    for key, predicate in COMPLEMENT_PREDICATES.items():

        def run(tree, i):
            ca = tree.ca
            g = fresh(ca, bases[trees.index(tree)])
            lat = ca.all_subgroups(g, cap=g.order)
            t0 = time.perf_counter()
            answer = predicate(ca, g, lat)
            return time.perf_counter() - t0, answer

        for row, runs in zip(rows, interleaved(trees, run)):
            runs_s = [r[0] for r in runs]
            row[key] = {"seconds": statistics.median(runs_s),
                        "answer": runs[-1][1], "runs_s": runs_s}
    return rows


def main() -> int:
    args = arguments(__doc__)
    labels, trees = load_trees(args.label, args.baseline)
    reports = [{"groups": {}, "joins": {}, "complement": {}} for _ in trees]

    def show(label, name, text):
        prefix = f"[{label}] " if len(trees) > 1 else ""
        print(f"{prefix}{name:>26} {text}", flush=True)

    for name, build in CORPUS:
        for label, report, row in zip(labels, reports, measure(trees, build)):
            report["groups"][name] = row
            show(label, name,
                 f"|G|={row['order']:>3} subgroups={row['subgroups']:>5} "
                 f"extended_or_joined={row['extended_or_joined']:>5} "
                 f"enum={row['enumeration_s']:8.3f}s incl={row['inclusion_s']:7.3f}s "
                 f"export={row['export_s']:7.3f}s closure_calls={row['closure_calls']} "
                 f"orbit_images={row['orbit_images']} "
                 f"bit_indices_calls={row['bit_indices_calls']} "
                 f"cover_pairs={row['cover_pairs']}")
    for name, build, kind in JOIN_CORPUS:
        for label, report, row in zip(labels, reports, measure_joins(trees, build, kind)):
            report["joins"][name] = row
            show(label, name, f"|G|={row['order']:>3} {row['timed']}: "
                 f"{row['seconds']:8.3f}s join_calls={row['join_calls']} "
                 f"join_loops={row['join_loops']}")
    for name, build in COMPLEMENT_CORPUS:
        for label, report, row in zip(labels, reports, measure_complements(trees, build)):
            report["complement"][name] = row
            show(label, name, f"|G|={row['order']:>3} " + " ".join(
                f"{key}={row[key]['seconds']:7.3f}s ({row[key]['answer']})"
                for key in COMPLEMENT_PREDICATES))
    write_reports(args.out_dir, labels, reports)
    return 0


if __name__ == "__main__":
    sys.exit(main())
