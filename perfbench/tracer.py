"""Span tracing of ``complementa`` from outside the library.

``Tracer.install`` replaces each traced function with a wrapper in every
``complementa`` module namespace that holds it (``from .subgroups import
closure_bits`` copies the reference, so patching only the defining module
would miss callers).  Methods and properties are patched on their class.
Functions reached only through data structures, such as the constructor
table ``constructions.RECIPES``, keep their original reference.

Spans are kept in memory as parallel arrays (name, start, end, parent,
request, value) and written out with ``save``.  A library change that
renames a traced function needs the table below updated in a change of its
own, or the metrics built on it read zero.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

CONSTRUCTORS = ("cyclic_named", "dihedral", "elementary_abelian", "symmetric3",
                "alternating4", "dicyclic12", "holomorph_cyclic", "holomorph8",
                "split_p5_group", "build_recipe")

# (module, attribute path, value recorded with the span).  Entries without a
# metric of their own mark layer boundaries, so that self times such as
# cli.run_s do not absorb the work below them.
TRACED = [
    ("groups", "group_from_dict", None),
    ("groups", "FiniteGroup.__init__", "cells"),
    ("groups", "quotient", None),
    ("groups", "from_generators", None),
    *[("constructions", name, None) for name in CONSTRUCTORS],
    ("subgroups", "closure_bits", None),
    ("subgroups", "generated_subgroup", None),
    ("subgroups", "cyclic_subgroups", None),
    ("subgroups", "_subgroups_order_dividing", "length"),
    ("subgroups", "all_subgroups", None),
    ("subgroups", "overgroups", None),
    ("subgroups", "overgroups_by_joins", None),
    ("subgroups", "product_bits", None),
    ("subgroups", "lattice_to_dict", None),
    ("subgroups", "SubgroupLattice.inclusion", None),
    ("subgroups", "SubgroupLattice.conjugacy_classes", None),
    ("complementation", "complements", None),
    ("complementation", "is_complemented", None),
    ("complementation", "is_supercomplemented", None),
    ("complementation", "is_completely_factorizable", None),
    ("complementation", "is_c_separating", None),
    ("complementation", "c_separating_subgroups", None),
    ("series", "derived_length", None),
    ("series", "derived_series", None),
    ("series", "derived_subgroup", None),
    ("series", "chief_series", None),
    ("series", "minimal_normal_subgroups", None),
    ("verify", "subset_closure_subgroups", None),
    ("verify", "verify_holomorph8", None),
    ("verify", "verify_split_p5", None),
    ("verify", "run_catalog_suite", None),
    ("cli", "run", None),
]


def _value_cells(args, out):
    n = len(args[1])
    return n * n


def _value_length(args, out):
    return len(out)


VALUES = {"cells": _value_cells, "length": _value_length}


class Tracer:
    """Records a span per call of each traced function."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.value = array("q")
        self.current_request = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn, value_fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, start, end = self.name, self.start, self.end
        parent, request, value = self.parent, self.request, self.value
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            request.append(self.current_request)
            value.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if value_fn is not None:
                value[idx] = value_fn(args, out)
            return out

        return wrapper

    def install(self, package: str = "complementa") -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        for mod_name, path, value_key in TRACED:
            mod = sys.modules[f"{package}.{mod_name}"]
            name = f"{mod_name}.{path}"
            value_fn = VALUES.get(value_key)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                if isinstance(orig, property):
                    new = property(self._wrap(name, orig.fget, value_fn))
                else:
                    new = self._wrap(name, orig, value_fn)
                setattr(cls, attr, new)
                self._restore.append((cls, attr, orig))
                continue
            orig = getattr(mod, path)
            wrapper = self._wrap(name, orig, value_fn)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapper)
                        self._restore.append((m, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def arrays(self) -> dict:
        """The spans as numpy columns (copies)."""
        return {
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int32),
            "request": np.array(self.request, dtype=np.int32),
            "value": np.array(self.value, dtype=np.int64),
        }

    def save(self, path: str, request_labels: list[str]) -> None:
        """Write every span, the name table and the request labels (.npz)."""
        np.savez_compressed(path, names=np.array(self.names),
                            request_labels=np.array(request_labels),
                            **self.arrays())


# -- per-layer metrics from spans -----------------------------------------------

COUNTS = {
    "groups.tables_validated": "groups.FiniteGroup.__init__",
    "groups.quotient_calls": "groups.quotient",
    "subgroups.closure_calls": "subgroups.closure_bits",
    "subgroups.overgroups_calls": "subgroups.overgroups",
    "subgroups.product_calls": "subgroups.product_bits",
    "complementation.complements_calls": "complementation.complements",
}

# Inclusive time of the outermost spans of each set: a span nested inside
# another span of the same set is not counted twice.
INCLUSIVE = {
    "groups.load_s": {"groups.group_from_dict"},
    "groups.validate_s": {"groups.FiniteGroup.__init__"},
    "constructions.build_s": {f"constructions.{n}" for n in CONSTRUCTORS}
    | {"groups.from_generators"},
    "subgroups.closure_s": {"subgroups.closure_bits"},
    "subgroups.cyclic_s": {"subgroups.cyclic_subgroups"},
    "subgroups.lattice_s": {"subgroups._subgroups_order_dividing"},
    "subgroups.overgroups_s": {"subgroups.overgroups"},
    "subgroups.inclusion_s": {"subgroups.SubgroupLattice.inclusion"},
    "subgroups.classes_s": {"subgroups.SubgroupLattice.conjugacy_classes"},
    "complementation.supercomplemented_s": {"complementation.is_supercomplemented"},
    "complementation.c_separating_s": {"complementation.is_c_separating",
                                       "complementation.c_separating_subgroups"},
    "complementation.factorizable_s": {"complementation.is_completely_factorizable"},
    "series.derived_s": {"series.derived_length", "series.derived_series",
                         "series.derived_subgroup"},
    "series.chief_s": {"series.chief_series"},
    "series.min_normal_s": {"series.minimal_normal_subgroups"},
    "verify.oracle_s": {"verify.subset_closure_subgroups"},
}

# Self time: the span minus the spans it called directly.
SELF = {
    "complementation.complements_s": "complementation.complements",
    "cli.run_s": "cli.run",
}


def _ids(names: list[str], wanted) -> np.ndarray:
    return np.array([i for i, n in enumerate(names) if n in wanted], dtype=np.int32)


def _has_ancestor_in(name, parent, ids) -> np.ndarray:
    """For each span, whether some proper ancestor's name is in ``ids``."""
    member = np.isin(name, ids)
    found = np.zeros(len(name), dtype=bool)
    cur = parent.copy()
    while True:
        live = cur >= 0
        if not live.any():
            return found
        found[live] |= member[cur[live]]
        cur[live] = parent[cur[live]]


def span_raws(spans: dict, names: list[str], phase_of_request) -> dict[int, dict]:
    """Raw per-layer sums for each phase (0 = set-up, 1.. = passes)."""
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    phase = np.asarray(phase_of_request, dtype=np.int32)[spans["request"]]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=len(name))
    self_time = dur - child_time

    per_metric = {}
    for metric, fn in COUNTS.items():
        per_metric[metric] = (np.isin(name, _ids(names, {fn})), None)
    init = np.isin(name, _ids(names, {"groups.FiniteGroup.__init__"}))
    per_metric["groups.cells_validated"] = (init, spans["value"])
    for metric, fns in INCLUSIVE.items():
        ids = _ids(names, fns)
        mask = np.isin(name, ids) & ~_has_ancestor_in(name, parent, ids)
        per_metric[metric] = (mask, dur)
    for metric, fn in SELF.items():
        per_metric[metric] = (np.isin(name, _ids(names, {fn})), self_time)

    # Lattice builds are the enumeration spans that made closure calls of
    # their own; cache hits and filtered reuse make none.
    closure = np.isin(name, _ids(names, {"subgroups.closure_bits"}))
    builds = np.zeros(len(name), dtype=bool)
    builds[parent[closure & has_parent]] = True
    enum = np.isin(name, _ids(names, {"subgroups._subgroups_order_dividing"}))
    per_metric["subgroups.subgroups_found"] = (enum & builds, spans["value"])

    # is_complemented calls that had to run a complement scan.
    scans = np.isin(name, _ids(names, {"complementation.complements"}))
    scanned = np.zeros(len(name), dtype=bool)
    scanned[parent[scans & has_parent]] = True
    is_comp = np.isin(name, _ids(names, {"complementation.is_complemented"}))
    per_metric["_is_complemented_calls"] = (is_comp, None)
    per_metric["_is_complemented_scans"] = (is_comp & scanned, None)

    # Overgroup joins called by the verification suite directly, not as the
    # fallback of overgroups().
    joins = np.isin(name, _ids(names, {"subgroups.overgroups_by_joins"}))
    via_overgroups = np.zeros(len(name), dtype=bool)
    ovg = np.isin(name, _ids(names, {"subgroups.overgroups"}))
    via_overgroups[joins & has_parent] = ovg[parent[joins & has_parent]]
    per_metric["verify.overgroup_xcheck_s"] = (joins & ~via_overgroups, dur)

    out: dict[int, dict] = {}
    for p in sorted(set(int(x) for x in phase_of_request)):
        in_phase = phase == p
        raws = {}
        for metric, (mask, weights) in per_metric.items():
            sel = mask & in_phase
            raws[metric] = float(sel.sum()) if weights is None else float(weights[sel].sum())
        out[p] = raws
    return out


def combine(raws_by_phase: dict[int, dict], extra_by_phase: dict[int, dict]) -> dict:
    """Set-up plus the median pass, then the ratios.

    Counts repeat exactly from pass to pass, so their median is the count of
    any one pass; times take the median pass.
    """
    phases = dict(raws_by_phase)
    for p, extra in extra_by_phase.items():
        phases.setdefault(p, {}).update(extra)
    setup = phases.get(0, {})
    passes = [v for p, v in phases.items() if p > 0]
    keys = set(setup) | {k for v in passes for k in v}
    total = {}
    for k in keys:
        pass_values = sorted(v.get(k, 0.0) for v in passes) or [0.0]
        total[k] = setup.get(k, 0.0) + float(np.median(pass_values))
    found = total.pop("subgroups.subgroups_found", 0.0)
    calls = total.get("subgroups.closure_calls", 0.0)
    total["subgroups.subgroups_found"] = found
    total["subgroups.join_yield"] = found / calls if calls else 0.0
    is_calls = total.pop("_is_complemented_calls", 0.0)
    is_scans = total.pop("_is_complemented_scans", 0.0)
    total["complementation.complemented_hit_ratio"] = (
        1.0 - is_scans / is_calls if is_calls else 0.0)
    return total
