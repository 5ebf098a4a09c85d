"""The three workloads, as lists of in-process ``complementa`` CLI requests.

Each workload builds its groups with the library's constructors during
set-up, writes them out as seeded, relabeled cayley-v1 files, and then sends
CLI requests one at a time (a closed loop with one client).  Every request is
checked against an expected answer recorded in ``expected/`` or derived from
a closed formula; neither is computed by the code under test at run time.

- ``lattice``: full lattices and their JSON export, so lattice enumeration
  does almost all of the work and complement search does none.
- ``check``: many single-predicate requests on groups of order 24 to 486;
  each pays for parsing and validating its input and builds only partial
  lattices or overgroup joins.
- ``verify``: verification suites chosen so that every oracle runs; the
  suites are fixed by the paper's claims, so this workload ignores the seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

# The trivial command timed from process spawn to exit.
COLD_START_ARGV = ["bounds", "--m", "2"]


@dataclass
class Request:
    """One CLI request and how to judge its output.

    ``summarize`` reduces stdout to the relabeling-invariant summary that is
    compared with the recorded expectation under ``key``; ``extra_check``
    applies an independent closed-form check and returns False on mismatch.
    """

    key: str
    argv: list
    summarize: Callable[[str], object]
    extra_check: Callable[[str], bool] = lambda out: True
    counters: Callable[[str], dict] = lambda out: {}


@dataclass
class Setup:
    requests: list
    digests: dict = field(default_factory=dict)


def load_expected(name: str):
    with open(os.path.join(EXPECTED_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


def write_doc(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def prepare_docs(ca, groups, seed, work_dir):
    """Build, serialize and relabel each group; return (paths, docs, perms, digests).

    ``seed=None`` keeps the original labels (used when recording).
    """
    paths, docs, perms, digests = {}, {}, {}, {}
    for name, spec in groups:
        doc = ca.group_to_dict(inputs.build_group(ca, spec))
        digests[name] = inputs.table_digest(doc)
        n = doc["order"]
        if seed is None:
            perm = list(range(n))
        else:
            perm = inputs.relabeling(n, inputs.seeded_rng(seed, name))
        path = os.path.join(work_dir, f"{name}.json")
        write_doc(inputs.relabel(doc, perm), path)
        paths[name], docs[name], perms[name] = path, doc, perm
    return paths, docs, perms, digests


# -- lattice -------------------------------------------------------------------

LATTICE_GROUPS = [
    ("hol32", ("holomorph", 32)),
    ("ea2r6", ("elementary", 2, 6)),
    ("s5", ("S5",)),
    ("a5", ("A5",)),
    ("split-p5-3", ("split-p5", 3)),
]

# Subgroup totals known without the engine: subspaces of F_2^6, and the
# classical counts for S5 and A5.
LATTICE_CLOSED_FORMS = {
    "ea2r6": inputs.elementary_abelian_subgroups(2, 6),
    "s5": 156,
    "a5": 59,
}


def lattice_fingerprint(stdout: str) -> dict:
    """Relabeling-invariant summary of ``complementa lattice`` JSON."""
    lat = json.loads(stdout)
    by_order: dict[str, int] = {}
    for order in lat["orders"]:
        by_order[str(order)] = by_order.get(str(order), 0) + 1
    return {
        "group_order": lat["group_order"],
        "subgroups": len(lat["subgroups"]),
        "by_order": dict(sorted(by_order.items(), key=lambda kv: int(kv[0]))),
        "normal": sum(1 for flag in lat["normal"] if flag),
        "conjugacy_classes": len(lat["conjugacy_classes"]),
        "cover_pairs": len(lat["inclusion"]),
    }


def lattice_setup(ca, seed, work_dir) -> Setup:
    paths, _, _, digests = prepare_docs(ca, LATTICE_GROUPS, seed, work_dir)
    requests = []
    for name, _ in LATTICE_GROUPS:
        closed = LATTICE_CLOSED_FORMS.get(name)

        def extra(out, closed=closed):
            return closed is None or len(json.loads(out)["subgroups"]) == closed

        requests.append(Request(name, ["lattice", "--recipe", paths[name]],
                                lattice_fingerprint, extra))
    return Setup(requests, digests)


# -- check ---------------------------------------------------------------------

CHECK_GROUPS = [
    ("hol27", ("holomorph", 27)),
    ("split-p5-3", ("split-p5", 3)),
    ("hol16", ("holomorph", 16)),
    ("s5", ("S5",)),
    ("ea3r4", ("elementary", 3, 4)),
    ("dih64", ("dihedral", 32)),
    ("holomorph8", ("holomorph8",)),
    ("c2xa4", ("catalog", "c2xa4")),
]

CF = "completely-factorizable"

# (group, predicate, element orders, repeats).  The subject of each request
# is the cyclic subgroup of a seeded random conjugate of a fixed
# representative of that order, so the answer is fixed per slot while the
# elements passed on the command line change with the seed.  The mix keeps
# the costly order-486 and order-243 requests few: one pass is ~100 requests.
CHECK_MIX = [
    ("hol27", "complemented", (2, 9), 1),
    ("hol27", "supercomplemented", (18,), 1),
    ("split-p5-3", "complemented", (3, 9), 1),
    ("split-p5-3", "supercomplemented", (9,), 1),
    ("split-p5-3", "c-separating", (3,), 1),
    ("hol16", "complemented", (2, 4, 8, 16), 1),
    ("hol16", "supercomplemented", (2, 16), 1),
    ("hol16", "c-separating", (4,), 1),
    ("hol16", CF, (None,), 1),
    ("s5", "complemented", (2, 3, 4, 5, 6), 1),
    ("s5", "supercomplemented", (3, 6), 1),
    ("s5", "c-separating", (2,), 1),
    ("s5", CF, (None,), 1),
    ("ea3r4", "complemented", (3,), 4),
    ("ea3r4", "supercomplemented", (3,), 3),
    ("ea3r4", "c-separating", (3,), 2),
    ("ea3r4", CF, (None,), 1),
    ("dih64", "complemented", (2, 4, 8, 16, 32), 1),
    ("dih64", "supercomplemented", (2, 4, 8, 16, 32), 1),
    ("dih64", "c-separating", (2, 4, 8, 16, 32), 1),
    ("dih64", CF, (None,), 1),
    ("holomorph8", "complemented", (2, 4, 8), 2),
    ("holomorph8", "supercomplemented", (2, 4, 8), 2),
    ("holomorph8", "c-separating", (2, 4, 8), 2),
    ("holomorph8", CF, (None,), 2),
    ("c2xa4", "complemented", (2, 3, 6), 3),
    ("c2xa4", "supercomplemented", (2, 3, 6), 3),
    ("c2xa4", "c-separating", (2, 3, 6), 3),
    ("c2xa4", CF, (None,), 3),
]


def check_slots():
    """Every (group, predicate, order) request of one pass, in send order."""
    for group, predicate, orders, repeats in CHECK_MIX:
        for _ in range(repeats):
            for k in orders:
                yield group, predicate, k


def slot_key(group, predicate, k) -> str:
    return f"{group}:{predicate}:{k}"


def check_summary(stdout: str) -> dict:
    """The parts of a ``check`` answer that relabeling cannot change."""
    res = json.loads(stdout)
    out = {"result": res["result"]}
    if "subgroup" in res:
        out["subject_order"] = res["subgroup"]["order"]
    if "complements" in res:
        out["complements"] = len(res["complements"])
        out["exhaustive"] = res["exhaustive"]
    if "witness" in res:
        out["witness_order"] = len(res["witness"]) if res["witness"] else None
    return out


def _power(mult, n, e, k):
    out = 0
    for _ in range(k):
        out = mult[out * n + e]
    return out


def _conjugate(mult, n, e, x):
    """x^-1 e x, computed on the flat cayley-v1 table."""
    row = mult[x * n:(x + 1) * n]
    x_inv = row.index(0)
    return mult[mult[x_inv * n + e] * n + x]


def element_orders(doc) -> list[int]:
    n, mult = doc["order"], doc["mult"]
    orders = [1] * n
    for e in range(1, n):
        k, cur = 1, e
        while cur:
            cur = mult[cur * n + e]
            k += 1
        orders[e] = k
    return orders


def check_setup(ca, seed, work_dir, reps=None) -> Setup:
    """Requests for one pass; ``reps`` maps group -> {order: element index}."""
    paths, docs, perms, digests = prepare_docs(ca, CHECK_GROUPS, seed, work_dir)
    if reps is None:
        reps = load_expected("check.json")["reps"]
    requests = []
    for group, predicate, k in check_slots():
        argv = ["check", predicate, "--recipe", paths[group]]
        if k is not None:
            doc = docs[group]
            n, mult = doc["order"], doc["mult"]
            rep = reps[group][str(k)]
            if seed is not None:
                rng = inputs.seeded_rng(seed, f"{group}:{len(requests)}")
                j = rng.choice([j for j in range(1, k + 1) if math.gcd(j, k) == 1])
                rep = _conjugate(mult, n, _power(mult, n, rep, j), rng.randrange(n))
            argv += ["--subgroup", str(perms[group][rep])]
        if predicate == "complemented":
            argv += ["--mode", "all"]
        requests.append(Request(slot_key(group, predicate, k), argv, check_summary))
    return Setup(requests, digests)


# -- verify --------------------------------------------------------------------

VERIFY_SUITES = ["holomorph8", "split-p5-3"] + [
    f"catalog:{name}" for name in (
        # brute-force lattice oracle (order <= 24)
        "dih24", "c24", "c2xa4",
        # pairwise, Dedekind and transport scans (order <= 64)
        "holomorph8", "split-p5-2", "s3xs3",
        # overgroup cross-check (order <= 128)
        "ea3r4", "ea5r3",
        # above every cap
        "split-p5-3",
    )]

# Catalog entries whose subgroup count has a closed form; the suite reports
# the count as the witness of its "lagrange" claim.
VERIFY_CLOSED_FORMS = {
    "dih24": inputs.dihedral_subgroups(12),
    "c24": inputs.divisor_count(24),
    "ea3r4": inputs.elementary_abelian_subgroups(3, 4),
    "ea5r3": inputs.elementary_abelian_subgroups(5, 3),
}


def verify_golden_name(suite: str) -> str:
    return "verify-" + suite.replace(":", "-") + ".json"


def _lagrange_check(out: str) -> bool:
    for claim in json.loads(out):
        prefix, _, rest = claim["claim"].partition(".")
        name, _, tail = rest.rpartition(".")
        if prefix == "catalog" and tail == "lagrange" and name in VERIFY_CLOSED_FORMS:
            if claim["witnesses"][0]["subgroups"] != VERIFY_CLOSED_FORMS[name]:
                return False
    return True


def _claim_counters(out: str) -> dict:
    claims = json.loads(out)
    return {"verify.claims": len(claims),
            "verify.claims_failed": sum(1 for c in claims if c["status"] == "fail")}


def verify_groups():
    """The groups the suites build, each once, with its constructor spec."""
    specs = {"holomorph8": ("holomorph8",), "split-p5-3": ("split-p5", 3)}
    for suite in VERIFY_SUITES:
        if suite.startswith("catalog:"):
            name = suite.split(":", 1)[1]
            specs.setdefault(name, ("catalog", name))
    return list(specs.items())


def verify_setup(ca, seed, work_dir) -> Setup:
    """The suites rebuild their own groups; set-up builds them once to time
    the constructors, and the caches are cleared before every request."""
    digests = {}
    for name, spec in verify_groups():
        digests[name] = inputs.table_digest(ca.group_to_dict(inputs.build_group(ca, spec)))
    requests = [Request(suite, ["verify", "--suite", suite, "--json"],
                        lambda out: out, _lagrange_check, _claim_counters)
                for suite in VERIFY_SUITES]
    return Setup(requests, digests)


WORKLOADS = {
    "lattice": lattice_setup,
    "check": check_setup,
    "verify": verify_setup,
}


def expected_for(workload: str):
    """Recorded summaries keyed by request key, plus recorded table digests."""
    if workload == "verify":
        answers = {}
        for suite in VERIFY_SUITES:
            with open(os.path.join(EXPECTED_DIR, verify_golden_name(suite)),
                      encoding="utf-8") as fh:
                answers[suite] = fh.read()
        return answers, load_expected("verify.json")["digests"]
    data = load_expected(f"{workload}.json")
    return data["answers"], data["digests"]
