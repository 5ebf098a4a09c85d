"""Distinguished group constructions and the small-group catalog driving the
property suites.

The two first-class builders are ``holomorph8`` (the holomorph of the cyclic
group of order 8, with its non-normal factorization handles) and
``split_p5_group(p)`` (an order-p^5 group factorizing as <x>·B with B
elementary abelian and neither factor normal).
"""

from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple

from ._primes import is_prime
from .groups import (CONSTRUCTION_CAP, CapExceededError, FiniteGroup,
                     PreconditionError, cyclic, direct_product,
                     from_generators, greedy_generators, semidirect_product)
from .subgroups import generated_subgroup

SPLIT_P5_CAP = 243


class NamedGroup(NamedTuple):
    """A group together with named element and subgroup handles."""

    group: FiniteGroup
    elements: dict
    subgroups: dict


def _named(group: FiniteGroup, elements=None, subgroup_gens=None) -> NamedGroup:
    elements = dict(elements or {})
    subgroups = {}
    for name, gens in (subgroup_gens or {}).items():
        subgroups[name] = generated_subgroup(group, gens)
    return NamedGroup(group, elements, subgroups)


# -- families ------------------------------------------------------------


@cache
def cyclic_named(n: int) -> NamedGroup:
    g = cyclic(n)
    if n == 1:
        return _named(g)
    return _named(g, {"x": 1}, {"x": (1,)})


@cache
def dihedral(n: int) -> NamedGroup:
    """Dihedral group of order 2n: rotations by s-inversion."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if 2 * n > CONSTRUCTION_CAP:
        raise CapExceededError("construction", CONSTRUCTION_CAP, 2 * n)
    rot = cyclic(n, "r")
    flip = cyclic(2, "s")
    g = semidirect_product(rot, flip, {1: tuple((-i) % n for i in range(n))})
    if n == 1:
        return _named(g, {"s": 1}, {"s": (1,)})
    r, s = 2, 1
    return _named(g, {"r": r, "s": s}, {"r": (r,), "s": (s,)})


@cache
def elementary_abelian(p: int, rank: int) -> NamedGroup:
    if p < 2 or rank < 1:
        raise PreconditionError("need a prime p and rank >= 1")
    order = 1
    for _ in range(rank):
        order *= p
        if order > CONSTRUCTION_CAP:
            raise CapExceededError("construction", CONSTRUCTION_CAP, order)
    if not is_prime(p):
        raise PreconditionError("need a prime p and rank >= 1")
    names = ["a", "b", "c", "d"] + [f"e{i + 1}" for i in range(4, rank)]
    g = cyclic(p, names[0])
    for i in range(1, rank):
        g = direct_product(g, cyclic(p, names[i]))
    handles = {names[i]: p ** (rank - 1 - i) for i in range(rank)}
    return _named(g, handles, {k: (v,) for k, v in handles.items()})


@cache
def symmetric3() -> NamedGroup:
    g = from_generators([(1, 0, 2), (1, 2, 0)], names=["s", "r"], name="S3")
    return _named(g, {"s": 1, "r": 2}, {"s": (1,), "r": (2,)})


@cache
def alternating4() -> NamedGroup:
    g = from_generators([(1, 2, 0, 3), (1, 0, 3, 2)], names=["r", "s"], name="A4")
    return _named(g, {"r": 1, "s": 2}, {"r": (1,), "s": (2,)})


@cache
def dicyclic12() -> NamedGroup:
    """Order-12 dicyclic group as C3 : C4 with the order-4 part inverting."""
    a = cyclic(3, "a")
    b = cyclic(4, "b")
    g = semidirect_product(a, b, {1: (0, 2, 1)})
    return _named(g, {"a": 4, "b": 1}, {"a": (4,), "b": (1,)})


def _unit_group(n: int) -> tuple[FiniteGroup, list[int]]:
    """Multiplicative group of units mod n as a table group; returns it with
    the unit value of each element index."""
    units = [u for u in range(1, max(n, 2)) if math.gcd(u, n) == 1] or [1]
    index = {u: i for i, u in enumerate(units)}
    mult = [[index[(a * b) % n] if n > 1 else 0 for b in units] for a in units]
    # greedy generating set, ascending unit values
    gens = [i for i, _ in greedy_generators(mult, range(1, len(units)))]
    labels = ["e"] + [f"u{u}" for u in units[1:]]
    return FiniteGroup(mult, gens, labels, name=f"U{n}"), units


@cache
def holomorph_cyclic(n: int, cap: int = CONSTRUCTION_CAP) -> NamedGroup:
    """Holomorph of the cyclic group of order n: C_n extended by its full
    automorphism group (units mod n acting by exponentiation)."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    # |Aut(C_n)| = φ(n), so the order is known before any table is built
    order = n if n > cap else n * sum(math.gcd(u, n) == 1 for u in range(1, n + 1))
    if order > cap:
        raise CapExceededError("construction", cap, order)
    aut, units = _unit_group(n)
    base = cyclic(n, "x")
    images = {gi: tuple((units[gi] * i) % n for i in range(n)) for gi in aut.generators}
    g = semidirect_product(base, aut, images, cap=cap)
    if n == 1:
        return _named(g)
    x = aut.order
    return _named(g, {"x": x}, {"x": (x,)})


@cache
def holomorph8() -> NamedGroup:
    """The holomorph of C8 presented by its splitting: <x> of order 8 extended
    by two commuting involutions with x^a = x^-1 and x^b = x^5."""
    base = cyclic(8, "x")
    klein = direct_product(cyclic(2, "a"), cyclic(2, "b"))
    inv8 = tuple((-i) % 8 for i in range(8))
    pow5 = tuple((5 * i) % 8 for i in range(8))
    a_idx, b_idx = klein.generators
    g = semidirect_product(base, klein, {a_idx: inv8, b_idx: pow5})
    x, a, b = 4, a_idx, b_idx
    return _named(
        g,
        {"x": x, "a": a, "b": b},
        {"x": (x,), "a": (a,), "b": (b,), "V": (a, b)},
    )


@cache
def split_p5_group(p: int, cap: int = SPLIT_P5_CAP) -> NamedGroup:
    """Order-p^5 group G = A:F with A = <b> x <c>, F = <x>:<a>, |x| = p^2,
    x^a = x^(p+1), b^x = bc, c^x = c, and a acting trivially on A.

    G factorizes as <x>·B with B = <a> x <b> x <c> elementary abelian and
    neither <x> nor B normal.  For p = 2 the relation x^a = x^(p+1) = x^3
    coincides with inversion since |x| = 4.
    """
    # Primality first, so that a composite p is not refused as if a larger
    # cap would admit it; a p above the cap is refused by the cap alone, at
    # once however large it is.
    if p <= cap and not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    if p ** 5 > cap:
        raise CapExceededError("construction", cap, p ** 5)
    xs = cyclic(p * p, "x")
    As = cyclic(p, "a")
    f_grp = semidirect_product(
        xs, As, {1: tuple(((p + 1) * i) % (p * p) for i in range(p * p))})

    a_part = direct_product(cyclic(p, "b"), cyclic(p, "c"))
    x_in_f, a_in_f = p, 1
    shear = tuple((i // p) * p + (i // p + i % p) % p for i in range(p * p))
    g = semidirect_product(a_part, f_grp,
                           {x_in_f: shear, a_in_f: tuple(range(p * p))})

    f_order = p ** 3
    x, a = x_in_f, a_in_f
    b, c = p * f_order, f_order
    return _named(
        g,
        {"x": x, "a": a, "b": b, "c": c},
        {"x": (x,), "a": (a,), "b": (b,), "c": (c,),
         "A": (b, c), "F": (x, a), "B": (a, b, c)},
    )


# -- catalog ---------------------------------------------------------------


class CatalogEntry(NamedTuple):
    """Recipe plus the expected fingerprint it must rebuild to."""

    name: str
    recipe: tuple
    order: int
    abelian: bool
    exponent: int

    def build(self) -> NamedGroup:
        return build_recipe(self.recipe)


RECIPES = {
    "cyclic": cyclic_named,
    "dihedral": dihedral,
    "elementary": elementary_abelian,
    "s3": symmetric3,
    "a4": alternating4,
    "dicyclic12": dicyclic12,
    "holomorph": holomorph_cyclic,
    "holomorph8": holomorph8,
    "split-p5": split_p5_group,
}


def build_recipe(recipe: tuple) -> NamedGroup:
    """The group of a recipe ``(kind, args)``: ``RECIPES[kind](*args)``, or
    for ``"direct"`` the direct product of the groups of the recipes in
    ``args``.  Positional arguments only, so every call of a cached builder
    with the same values finds the same group."""
    kind, args = recipe
    if kind == "direct":
        parts = [build_recipe(r) for r in args]
        g = parts[0].group
        for part in parts[1:]:
            g = direct_product(g, part.group)
        return _named(g)
    if kind not in RECIPES:
        raise PreconditionError(f"unknown recipe kind {kind!r}")
    return RECIPES[kind](*args)


@cache
def catalog() -> tuple[CatalogEntry, ...]:
    """Deterministic test corpus: cyclic and elementary abelian families,
    dihedral groups, the small nonabelian constructions, both order-p^5
    builders, the C8 holomorph, and a few direct products, all within the
    lattice cap."""
    entries = []
    for n in range(1, 33):
        entries.append(CatalogEntry(f"c{n}", ("cyclic", (n,)), n, True, n))
    for p, ranks in ((2, (2, 3, 4)), (3, (2, 3, 4)), (5, (2, 3))):
        for r in ranks:
            entries.append(CatalogEntry(f"ea{p}r{r}", ("elementary", (p, r)),
                                        p ** r, True, p))
    for n in range(3, 17):
        entries.append(CatalogEntry(f"dih{2 * n}", ("dihedral", (n,)),
                                    2 * n, False, math.lcm(n, 2)))
    entries.append(CatalogEntry("s3", ("s3", ()), 6, False, 6))
    entries.append(CatalogEntry("a4", ("a4", ()), 12, False, 6))
    entries.append(CatalogEntry("dicyclic12", ("dicyclic12", ()), 12, False, 12))
    entries.append(CatalogEntry("holomorph8", ("holomorph8", ()), 32, False, 8))
    entries.append(CatalogEntry("split-p5-2", ("split-p5", (2,)), 32, False, 4))
    entries.append(CatalogEntry("split-p5-3", ("split-p5", (3,)), 243, False, 9))
    for name, factors, order, abelian, exp in (
            ("c4xc2", (("cyclic", (4,)), ("cyclic", (2,))), 8, True, 4),
            ("dih8xc2", (("dihedral", (4,)), ("cyclic", (2,))), 16, False, 4),
            ("s3xc3", (("s3", ()), ("cyclic", (3,))), 18, False, 6),
            ("s3xs3", (("s3", ()), ("s3", ())), 36, False, 6),
            ("c2xa4", (("cyclic", (2,)), ("a4", ())), 24, False, 6)):
        entries.append(CatalogEntry(name, ("direct", factors), order, abelian, exp))
    return tuple(entries)


def catalog_entry(name: str) -> CatalogEntry:
    for entry in catalog():
        if entry.name == name:
            return entry
    raise PreconditionError(f"no catalog entry named {name!r}")
