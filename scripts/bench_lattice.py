#!/usr/bin/env python3
"""Time lattice enumeration, the covering relation and the lattice export
on a fixed corpus.

For each group of the corpus it records the median seconds of
``all_subgroups``, of ``SubgroupLattice.inclusion`` and of the export over
``REPEATS`` runs, each on a fresh copy of the group (empty cache), the
subgroup count, and the number of ``closure_bits`` calls made during
enumeration.  The export is ``lattice_to_dict`` plus the JSON encoding that
``complementa lattice`` writes (``cli._emit_json``, into a string buffer);
it runs after ``inclusion``, so it includes the conjugacy classes but not
the covering relation.  The calls are counted by a wrapper installed from
outside the library.  Writes ``BENCH_<label>.json`` to ``--out-dir``.

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

REPEATS = 3

CORPUS = [
    ("holomorph_cyclic(32)", lambda: ca.holomorph_cyclic(32).group),
    ("split_p5_group(3)", lambda: ca.split_p5_group(3).group),
    ("elementary_abelian(3, 5)", lambda: ca.elementary_abelian(3, 5).group),
    ("elementary_abelian(2, 6)", lambda: ca.elementary_abelian(2, 6).group),
    ("dihedral(128)", lambda: ca.dihedral(128).group),
    ("S5", lambda: ca.from_generators([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], name="S5")),
    ("A5", lambda: ca.from_generators([(1, 2, 3, 4, 0), (0, 2, 3, 1, 4)], name="A5")),
]


class ClosureCounter:
    """Counts ``closure_bits`` calls by replacing it in every library module
    that holds a reference to it."""

    def __init__(self):
        self.calls = 0
        self.original = subgroups_module.closure_bits

        def counted(*args, **kwargs):
            self.calls += 1
            return self.original(*args, **kwargs)

        self.modules = [m for name, m in sys.modules.items()
                        if name.startswith("complementa")
                        and getattr(m, "closure_bits", None) is self.original]
        for m in self.modules:
            m.closure_bits = counted

    def restore(self):
        for m in self.modules:
            m.closure_bits = self.original


def fresh(g: FiniteGroup) -> FiniteGroup:
    return FiniteGroup(g.mult, g.generators, g.labels, name=g.name)


def measure(build) -> dict:
    base = build()
    enum_s, incl_s, export_s = [], [], []
    for _ in range(REPEATS):
        g = fresh(base)
        counter = ClosureCounter()
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
        "enumeration_s": statistics.median(enum_s),
        "inclusion_s": statistics.median(incl_s),
        "export_s": statistics.median(export_s),
        "closure_calls": counter.calls,
        "enumeration_runs_s": enum_s,
        "inclusion_runs_s": incl_s,
        "export_runs_s": export_s,
    }


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
              f"enum={row['enumeration_s']:8.3f}s incl={row['inclusion_s']:7.3f}s "
              f"export={row['export_s']:7.3f}s closure_calls={row['closure_calls']}", flush=True)
    report = {
        "label": args.label,
        "repeats": REPEATS,
        "machine": {"cpu": platform.processor() or platform.machine(),
                    "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "groups": groups,
    }
    path = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
