#!/usr/bin/env python3
"""Time lattice enumeration, the covering relation, the lattice export and
the join search on a fixed corpus.

For each group of the lattice corpus it records the median seconds of
``all_subgroups``, of ``SubgroupLattice.inclusion`` and of the export over
``REPEATS`` runs, each on a fresh copy of the group (empty cache), the
subgroup count, the number of ``closure_bits`` calls made during
enumeration, and the number of subgroups the enumeration extended or joined,
which is the number of conjugacy classes it records (one representative per
class is extended or joined).  The export is ``lattice_to_dict`` plus the
JSON encoding that ``complementa lattice`` writes (``cli._emit_json``, into
a string buffer); it runs after ``inclusion``, so it includes the conjugacy
classes but not the covering relation.

The join section times the two uses of the join search: ``all_subgroups``
on S5 and A5, where it builds the whole lattice, and
``overgroups_by_joins`` from every subgroup of C3^4 and C5^3 (the lattice
is built first, outside the timing).  It records the median seconds over
``REPEATS`` runs on fresh copies and the number of ``_join_bits`` calls.
That count leaves out each join ⟨K, x⟩ of prime index with x normalizing
K and order dividing the cap, which the search builds as a cyclic
extension instead.

The complement section times, on each group of the lattice corpus,
``is_completely_factorizable``, ``c_separating_subgroups`` and
``is_supercomplemented`` from every subgroup.  Each run takes a fresh copy
of the group and builds its lattice before the timing starts, so the
complement scans and whatever they cache are inside it.  It records the
median seconds over ``REPEATS`` runs and the answers (the factorizable
verdict, the number of C-separating and of supercomplemented subgroups),
which must agree between the two sides of a comparison.

Calls are counted by a wrapper installed from outside the library.  Writes
``BENCH_<label>.json`` to ``--out-dir``.

Usage: PYTHONPATH=src python scripts/bench_lattice.py --label NAME
       [--out-dir .]
"""

import argparse
import contextlib
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
from complementa.groups import FiniteGroup

REPEATS = 9


def s5() -> FiniteGroup:
    return ca.from_generators([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], name="S5")


def a5() -> FiniteGroup:
    return ca.from_generators([(1, 2, 3, 4, 0), (0, 2, 3, 1, 4)], name="A5")


CORPUS = [
    ("holomorph_cyclic(32)", lambda: ca.holomorph_cyclic(32).group),
    ("split_p5_group(3)", lambda: ca.split_p5_group(3).group),
    ("elementary_abelian(3, 5)", lambda: ca.elementary_abelian(3, 5).group),
    ("elementary_abelian(2, 6)", lambda: ca.elementary_abelian(2, 6).group),
    ("dihedral(128)", lambda: ca.dihedral(128).group),
    ("S5", s5),
    ("A5", a5),
]

# (name, build, what is timed): "lattice" for all_subgroups, "overgroups"
# for overgroups_by_joins from every subgroup.
JOIN_CORPUS = [
    ("S5", s5, "lattice"),
    ("A5", a5, "lattice"),
    ("elementary_abelian(3, 4)", lambda: ca.elementary_abelian(3, 4).group, "overgroups"),
    ("elementary_abelian(5, 3)", lambda: ca.elementary_abelian(5, 3).group, "overgroups"),
]


class CallCounter:
    """Counts the calls of a library function by replacing it in every
    library module that holds a reference to it."""

    def __init__(self, original):
        self.calls = 0
        self.original = original
        self.name = original.__name__

        def counted(*args, **kwargs):
            self.calls += 1
            return self.original(*args, **kwargs)

        self.modules = [m for mod_name, m in sys.modules.items()
                        if mod_name.startswith("complementa")
                        and getattr(m, self.name, None) is original]
        for m in self.modules:
            setattr(m, self.name, counted)

    def restore(self):
        for m in self.modules:
            setattr(m, self.name, self.original)


def fresh(g: FiniteGroup) -> FiniteGroup:
    return FiniteGroup(g.mult, g.generators, g.labels, name=g.name)


def measure(build) -> dict:
    base = build()
    enum_s, incl_s, export_s = [], [], []
    for _ in range(REPEATS):
        g = fresh(base)
        counter = CallCounter(subgroups_module.closure_bits)
        try:
            t0 = time.perf_counter()
            lat = ca.all_subgroups(g, cap=g.order)
            enum_s.append(time.perf_counter() - t0)
        finally:
            counter.restore()
        t0 = time.perf_counter()
        lat.inclusion
        incl_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            cli_module._emit_json(argparse.Namespace(out=None), ca.lattice_to_dict(lat))
        export_s.append(time.perf_counter() - t0)
    return {
        "order": base.order,
        "subgroups": len(lat),
        "extended_or_joined": len(lat.conjugacy_classes),
        "enumeration_s": statistics.median(enum_s),
        "inclusion_s": statistics.median(incl_s),
        "export_s": statistics.median(export_s),
        "closure_calls": counter.calls,
        "enumeration_runs_s": enum_s,
        "inclusion_runs_s": incl_s,
        "export_runs_s": export_s,
    }


def measure_joins(build, kind: str) -> dict:
    base = build()
    runs_s = []
    for _ in range(REPEATS):
        g = fresh(base)
        subs = ca.all_subgroups(g, cap=g.order).subgroups if kind == "overgroups" else ()
        counter = CallCounter(subgroups_module._join_bits)
        try:
            t0 = time.perf_counter()
            if kind == "lattice":
                ca.all_subgroups(g, cap=g.order)
            else:
                for s in subs:
                    subgroups_module.overgroups_by_joins(g, s)
            runs_s.append(time.perf_counter() - t0)
        finally:
            counter.restore()
    return {
        "order": base.order,
        "timed": ("all_subgroups" if kind == "lattice"
                  else f"overgroups_by_joins from each of {len(subs)} subgroups"),
        "seconds": statistics.median(runs_s),
        "join_calls": counter.calls,
        "runs_s": runs_s,
    }


COMPLEMENT_PREDICATES = {
    "completely_factorizable": lambda g, lat: ca.is_completely_factorizable(g, g.order)[0],
    "c_separating": lambda g, lat: len(ca.c_separating_subgroups(g, g.order)),
    "supercomplemented": lambda g, lat: sum(
        ca.is_supercomplemented(g, s, g.order)[0] for s in lat.subgroups),
}


def measure_complements(build) -> dict:
    base = build()
    row = {"order": base.order}
    for key, predicate in COMPLEMENT_PREDICATES.items():
        runs_s = []
        for _ in range(REPEATS):
            g = fresh(base)
            lat = ca.all_subgroups(g, cap=g.order)
            t0 = time.perf_counter()
            answer = predicate(g, lat)
            runs_s.append(time.perf_counter() - t0)
        row[key] = {"seconds": statistics.median(runs_s), "answer": answer,
                    "runs_s": runs_s}
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True)
    parser.add_argument("--out-dir", default=".")
    args = parser.parse_args()

    groups = {}
    for name, build in CORPUS:
        groups[name] = row = measure(build)
        print(f"{name:>26} |G|={row['order']:>3} subgroups={row['subgroups']:>5} "
              f"extended_or_joined={row['extended_or_joined']:>5} "
              f"enum={row['enumeration_s']:8.3f}s incl={row['inclusion_s']:7.3f}s "
              f"export={row['export_s']:7.3f}s closure_calls={row['closure_calls']}", flush=True)
    joins = {}
    for name, build, kind in JOIN_CORPUS:
        joins[name] = row = measure_joins(build, kind)
        print(f"{name:>26} |G|={row['order']:>3} {row['timed']}: "
              f"{row['seconds']:8.3f}s join_calls={row['join_calls']}", flush=True)
    complement = {}
    for name, build in CORPUS:
        complement[name] = row = measure_complements(build)
        print(f"{name:>26} |G|={row['order']:>3} " + " ".join(
            f"{key}={row[key]['seconds']:7.3f}s ({row[key]['answer']})"
            for key in COMPLEMENT_PREDICATES), flush=True)
    report = {
        "label": args.label,
        "repeats": REPEATS,
        "machine": {"cpu": platform.processor() or platform.machine(),
                    "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "groups": groups,
        "joins": joins,
        "complement": complement,
    }
    path = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
