"""Seeded inputs for the benchmark: relabeled cayley-v1 documents and the
closed-form subgroup counts that check the engine without using it.

Nothing here calls into ``complementa`` beyond the constructors that build
the unrelabeled groups, so the expected values stay independent of the
lattice engine under test.
"""

from __future__ import annotations

import hashlib
import random

# S5 and A5 as permutation groups on five points.
S5_GENERATORS = [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]
A5_GENERATORS = [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)]


def build_group(ca, spec):
    """Build the unrelabeled group named by ``spec``: (kind, *params)."""
    kind, *params = spec
    if kind == "holomorph":
        return ca.holomorph_cyclic(*params).group
    if kind == "elementary":
        return ca.elementary_abelian(*params).group
    if kind == "dihedral":
        return ca.dihedral(*params).group
    if kind == "split-p5":
        return ca.split_p5_group(*params).group
    if kind == "holomorph8":
        return ca.holomorph8().group
    if kind == "catalog":
        return ca.catalog_entry(*params).build().group
    if kind == "S5":
        return ca.from_generators(S5_GENERATORS, names=["c", "t"], name="S5")
    if kind == "A5":
        return ca.from_generators(A5_GENERATORS, names=["c", "t"], name="A5")
    raise ValueError(f"unknown group spec {spec!r}")


def table_digest(doc: dict) -> str:
    """SHA-256 of a cayley-v1 document's order, table and generators."""
    body = f"{doc['order']}|{doc['mult']}|{doc['generators']}"
    return hashlib.sha256(body.encode()).hexdigest()


def relabeling(n: int, rng: random.Random) -> list[int]:
    """A random permutation of 0..n-1 that keeps the identity 0 fixed."""
    rest = list(range(1, n))
    rng.shuffle(rest)
    return [0] + rest


def relabel(doc: dict, perm: list[int]) -> dict:
    """The cayley-v1 document of the same group with element i renamed perm[i].

    The table, the generators and the labels all move with the permutation,
    so the result describes an isomorphic copy that ``FiniteGroup`` validates
    in full like any other input.
    """
    n = doc["order"]
    flat = doc["mult"]
    mult = [0] * (n * n)
    for a in range(n):
        pa = perm[a] * n
        row = flat[a * n:(a + 1) * n]
        for b in range(n):
            mult[pa + perm[b]] = perm[row[b]]
    labels = [""] * n
    for i, label in enumerate(doc["labels"]):
        labels[perm[i]] = label
    return {
        "version": doc["version"],
        "order": n,
        "mult": mult,
        "generators": [perm[g] for g in doc["generators"]],
        "labels": labels,
    }


def seeded_rng(seed: int, name: str) -> random.Random:
    """One independent stream per (seed, input name)."""
    return random.Random(f"{seed}:{name}")


# -- closed-form subgroup counts ----------------------------------------------


def divisor_count(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def divisor_sum(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def elementary_abelian_subgroups(p: int, rank: int) -> int:
    """Subgroups of C_p^rank: the subspaces of F_p^rank."""
    return sum(gaussian_binomial(rank, k, p) for k in range(rank + 1))


def dihedral_subgroups(n: int) -> int:
    """Subgroups of the dihedral group of order 2n: tau(n) + sigma(n)."""
    return divisor_count(n) + divisor_sum(n)
