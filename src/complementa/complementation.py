"""Complement search and the derived predicates: supercomplemented,
completely factorizable, C-separating, and subgroups reindexed as groups.

T complements H when G = HT and H∩T = 1.  For finite groups
|HT| = |H|·|T| / |H∩T|, so this holds exactly when |H|·|T| = |G| and
H∩T = 1; the scans decide by that order criterion alone.  The
``complement-criterion-equivalence`` verification claim and the tests
compare it with the product set.
"""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple

from .groups import FiniteGroup, PreconditionError
from .subgroups import (LATTICE_CAP, Subgroup, _subgroups_order_dividing,
                        all_subgroups, bit_indices, check_lattice_cap,
                        overgroups_by_joins)


class ComplementResult(NamedTuple):
    """Outcome of a complement scan for one subgroup."""

    subject: Subgroup
    complements: tuple
    exhaustive: bool


def _complements_in(lat, h: Subgroup):
    """The members of ``lat``'s block ``by_order(|G|/|H|)`` that meet h in 1,
    in canonical order: h's complements when ``lat`` holds that whole block."""
    return (t for t in lat.by_order(lat.group.order // h.order)
            if t.members & h.members == 1)


def complements(g: FiniteGroup, h: Subgroup, mode: str = "all",
                cap: int = LATTICE_CAP) -> ComplementResult:
    """Scan subgroups of order |G|/|H| for complements of h, in canonical order.

    A subgroup T of that order is a complement exactly when H∩T = 1.
    """
    if mode not in ("first", "all"):
        raise PreconditionError(f"unknown mode {mode!r}")
    check_lattice_cap(g, cap)
    found = _complements_in(_subgroups_order_dividing(g, g.order // h.order), h)
    hits = tuple(islice(found, 1) if mode == "first" else found)
    return ComplementResult(h, hits, mode == "all" or not hits)


def is_complemented(g: FiniteGroup, h: Subgroup, cap: int = LATTICE_CAP) -> bool:
    return bool(complements(g, h, "first", cap).complements)


def _uncomplemented(g: FiniteGroup, cap: int):
    """The lattice of G and the bitset of the indices of its uncomplemented
    subgroups, those with no complement in it, computed once per group."""
    lat = all_subgroups(g, cap)
    return lat, g.cached("uncomplemented", lambda: sum(
        1 << i for i, h in enumerate(lat.subgroups)
        if next(_complements_in(lat, h), None) is None))


def _lowest(lat, bits: int):
    """The subgroup at the lowest set bit of bits, or None if there is none."""
    return lat.subgroups[(bits & -bits).bit_length() - 1] if bits else None


def is_supercomplemented(g: FiniteGroup, h: Subgroup, cap: int = LATTICE_CAP):
    """Whether every subgroup containing h is complemented in G.

    Returns (ok, witness); the witness is the first uncomplemented overgroup
    in canonical order when the answer is False.  With the full subgroup
    list cached, or built for h = 1, this is one AND of ``above(h)`` with the
    uncomplemented bitset.  Otherwise the overgroups come from joins, and
    their complements from the subgroups of order dividing |G:H|, since
    |G:K| divides |G:H|.
    """
    check_lattice_cap(g, cap)
    if h.order > 1 and g.cached_value(("sub_div", g.order)) is None:
        below = _subgroups_order_dividing(g, g.order // h.order)
        witness = next((k for k in overgroups_by_joins(g, h)
                        if next(_complements_in(below, k), None) is None), None)
    else:
        lat, bits = _uncomplemented(g, cap)
        witness = _lowest(lat, lat.above(h) & bits)
    return witness is None, witness


def is_completely_factorizable(g: FiniteGroup, cap: int = LATTICE_CAP):
    """Whether every subgroup of G is complemented; (ok, witness).

    The witness is the first uncomplemented subgroup in canonical order.
    This is the trivial subgroup being supercomplemented, which the
    ``factorizable-equivalence`` verification claim checks.
    """
    witness = _lowest(*_uncomplemented(g, cap))
    return witness is None, witness


def uncomplemented_subgroups(g: FiniteGroup, cap: int = LATTICE_CAP) -> tuple[Subgroup, ...]:
    lat, bits = _uncomplemented(g, cap)
    return tuple(lat.subgroups[i] for i in bit_indices(bits))


def _uncomplemented_union(g: FiniteGroup, cap: int) -> int:
    """Union of the members of the uncomplemented subgroups: a proper H is
    C-separating exactly when this bitset lies inside H."""
    union = 0
    for k in uncomplemented_subgroups(g, cap):
        union |= k.members
    return union


def c_separating_subgroups(g: FiniteGroup, cap: int = LATTICE_CAP) -> tuple[Subgroup, ...]:
    """All proper H such that every subgroup not contained in H is complemented.

    Equivalently: every uncomplemented subgroup lies inside H.  The result is
    upward closed among proper subgroups, which the
    ``c-separating-upward-closed`` verification claim checks.
    """
    if g.order == 1:
        raise PreconditionError("C-separating subgroups are defined for nontrivial groups")
    union = _uncomplemented_union(g, cap)
    return tuple(h for h in all_subgroups(g, cap).subgroups
                 if h.order < g.order and not union & ~h.members)


def has_c_separating(g: FiniteGroup, cap: int = LATTICE_CAP) -> bool:
    return bool(c_separating_subgroups(g, cap))


def is_c_separating(g: FiniteGroup, h: Subgroup, cap: int = LATTICE_CAP) -> bool:
    check_lattice_cap(g, cap)
    return h.order < g.order and not _uncomplemented_union(g, cap) & ~h.members


# -- subgroups as groups ------------------------------------------------------


def subgroup_table(g: FiniteGroup, k: Subgroup):
    """k's multiplication table over local indices: (rows, generators,
    from_local).  Elements are renumbered by ascending parent index, so the
    identity stays at 0, and the generators are k's.  The full subgroup
    keeps the parent's rows and generators."""
    if k.order == g.order:
        return g.mult, g.generators, tuple(g.elements())
    elems = k.elements()
    to_local = {e: i for i, e in enumerate(elems)}
    rows = tuple(tuple(to_local[g.mult[a][b]] for b in elems) for a in elems)
    return rows, tuple(to_local[e] for e in k.gens), elems


def subgroup_as_group(g: FiniteGroup, k: Subgroup):
    """Reindex a subgroup as a standalone group.

    Returns (group, to_local, from_local) over the table of
    ``subgroup_table``.  The full subgroup returns the parent itself.
    """
    rows, gens, elems = subgroup_table(g, k)
    to_local = {e: i for i, e in enumerate(elems)}
    if k.order == g.order:
        return g, to_local, elems
    labels = [g.labels[e] for e in elems]
    grp = FiniteGroup(rows, gens, labels, name=f"{g.name}|sub{k.order}")
    return grp, to_local, elems
