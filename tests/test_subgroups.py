"""Subgroup arithmetic, lattice enumeration, normality and the modular identity."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import complementa as ca
from complementa._primes import divisors, prime_factors
from complementa.groups import CapExceededError, PreconditionError
import complementa.subgroups as subgroups_module
from complementa.subgroups import (Subgroup, SubgroupLattice, _all_solvable,
                                   _automorphisms, _conj_perms, _coset_bits,
                                   _extend_to_automorphism, _grow_cosets,
                                   _join_bits,
                                   _join_search, _subgroups_order_dividing,
                                   bit_indices, closure_bits, cyclic_subgroups,
                                   overgroups_by_joins, product_bits,
                                   right_cosets)
from complementa.verify import subset_closure_subgroups
from references import (LARGE_LATTICES, bits_of, center, conj_perms_by_generator,
                        core, cyclic_subgroups_by_element,
                        dedekind_identity_check, lattice_group,
                        lattice_to_dot_by_pairs,
                        normal_closure, normalizer, subgroup_from_members)


def test_generated_subgroup_empty_is_trivial(s3):
    assert ca.generated_subgroup(s3, ()).order == 1


def test_generated_subgroup_of_x_has_order_8(hol8):
    sub = ca.generated_subgroup(hol8.group, (hol8.elements["x"],))
    assert sub.order == 8


def test_generated_subgroup_matches_oracle_in_split_p5():
    nm = ca.split_p5_group(2)
    g = nm.group
    x2 = g.mult[nm.elements["x"]][nm.elements["x"]]
    sub = ca.generated_subgroup(g, (x2, nm.elements["a"]))
    # brute-force closure oracle over element sets
    members = {0, x2, nm.elements["a"]}
    while True:
        new = {g.mult[a][b] for a in members for b in members}
        if new <= members:
            break
        members |= new
    assert set(sub.elements()) == members


def test_all_subgroups_counts():
    assert len(ca.all_subgroups(ca.cyclic(4))) == 3
    assert len(ca.all_subgroups(ca.symmetric3().group)) == 6
    assert len(ca.all_subgroups(ca.alternating4().group)) == 10


def test_all_subgroups_matches_brute_force_on_dihedral():
    g = ca.dihedral(6).group
    lat = ca.all_subgroups(g)
    assert [s.members for s in lat.subgroups] == subset_closure_subgroups(g)


def test_all_subgroups_cap():
    big = ca.cyclic(600)
    with pytest.raises(CapExceededError) as exc:
        ca.all_subgroups(big)
    assert exc.value.cap_name == "lattice"


def test_lattice_canonical_order(hol8):
    lat = ca.all_subgroups(hol8.group)
    keys = [s.sort_key() for s in lat.subgroups]
    assert keys == sorted(keys)
    assert lat.subgroups[0].order == 1
    assert lat.subgroups[-1].order == 32


def test_lattice_inclusion_chain_for_cyclic4():
    lat = ca.all_subgroups(ca.cyclic(4))
    assert lat.inclusion == ((0, 1), (1, 2))


def test_lattice_conjugation_closed(s3):
    lat = ca.all_subgroups(s3)
    for sub in lat.subgroups:
        for c in ca.conjugates(s3, sub):
            assert c.members in lat.index_of
    assert len(lat.conjugacy_classes) == 4


def test_overgroups_of_full_group_is_itself(s3):
    full = ca.generated_subgroup(s3, s3.generators)
    assert ca.overgroups(s3, full) == (full,)


def test_overgroups_of_x_in_holomorph(hol8):
    g = hol8.group
    x, a, b = (hol8.elements[k] for k in "xab")
    ovg = ca.overgroups(g, hol8.subgroups["x"])
    assert [s.order for s in ovg] == [8, 16, 16, 16, 32]
    expected = {
        ca.generated_subgroup(g, (x,)).members,
        ca.generated_subgroup(g, (x, a)).members,
        ca.generated_subgroup(g, (x, b)).members,
        ca.generated_subgroup(g, (x, g.mult[a][b])).members,
        (1 << g.order) - 1,
    }
    assert {s.members for s in ovg} == expected


def test_overgroups_of_trivial_is_whole_lattice(s3):
    lat = ca.all_subgroups(s3)
    ovg = ca.overgroups(s3, ca.trivial_subgroup(s3))
    assert [s.members for s in ovg] == [s.members for s in lat.subgroups]


def test_non_normality_in_split_p5():
    for p in (2, 3):
        nm = ca.split_p5_group(p)
        assert not ca.is_normal(nm.group, nm.subgroups["x"])
        assert not ca.is_normal(nm.group, nm.subgroups["B"])


def test_core_and_normal_closure(s3):
    full = ca.generated_subgroup(s3, s3.generators)
    assert core(s3, full).members == full.members
    triv = ca.trivial_subgroup(s3)
    assert normal_closure(s3, triv).order == 1
    # the normal closure of a reflection is all of S3
    refl = ca.generated_subgroup(s3, (1,))
    assert normal_closure(s3, refl).order == 6
    assert core(s3, refl).order == 1


def test_normalizer(s3):
    rot = ca.generated_subgroup(s3, (2,))
    assert normalizer(s3, rot).order == 6  # normal subgroup
    refl = ca.generated_subgroup(s3, (1,))
    assert normalizer(s3, refl).members == refl.members
    assert normalizer(s3, ca.trivial_subgroup(s3)).order == 6


# AB is a subgroup exactly when AB = BA.


def test_product_set_with_trivial(s3):
    h = ca.generated_subgroup(s3, (2,))
    triv = ca.trivial_subgroup(s3)
    prod = product_bits(s3, h, triv)
    assert prod == h.members and prod == product_bits(s3, triv, h)


def test_product_of_two_reflections_not_subgroup(s3):
    lat = ca.all_subgroups(s3)
    twos = lat.by_order(2)
    prod = product_bits(s3, twos[0], twos[1])
    assert prod.bit_count() == 4 and prod != product_bits(s3, twos[1], twos[0])


def test_product_xV_is_whole_holomorph(hol8):
    g = hol8.group
    x, v = hol8.subgroups["x"], hol8.subgroups["V"]
    prod = product_bits(g, x, v)
    assert prod.bit_count() == g.order and prod == product_bits(g, v, x)


def test_dedekind_reduces_when_a_equals_b(s3):
    full = ca.generated_subgroup(s3, s3.generators)
    h = ca.generated_subgroup(s3, (2,))
    assert dedekind_identity_check(s3, h, h, full)


def test_dedekind_trivial_a_full_t(s3):
    triv = ca.trivial_subgroup(s3)
    full = ca.generated_subgroup(s3, s3.generators)
    for b in ca.all_subgroups(s3).subgroups:
        assert dedekind_identity_check(s3, triv, b, full)


def test_dedekind_all_valid_triples_in_holomorph(hol8):
    g = hol8.group
    subs = ca.all_subgroups(g).subgroups
    checked = 0
    for a in subs:
        for t in subs:
            if a.order * t.order != g.order * (a.members & t.members).bit_count():
                continue
            for b in subs:
                if b.contains(a):
                    assert dedekind_identity_check(g, a, b, t)
                    checked += 1
    assert checked > 100


def test_dedekind_precondition_errors(s3):
    h = ca.generated_subgroup(s3, (2,))
    refl = ca.generated_subgroup(s3, (1,))
    full = ca.generated_subgroup(s3, s3.generators)
    with pytest.raises(PreconditionError):
        dedekind_identity_check(s3, h, refl, full)  # A not inside B
    with pytest.raises(PreconditionError):
        dedekind_identity_check(s3, h, h, h)  # G != AT


def test_elementary_abelian_predicates(hol8):
    assert ca.is_elementary_abelian(ca.trivial_group())
    c4 = ca.cyclic(4)
    assert ca.is_abelian(c4) and not ca.is_elementary_abelian(c4)
    g = hol8.group
    x = hol8.elements["x"]
    quo, _ = ca.quotient(g, ca.generated_subgroup(g, (g.mult[x][x],)).members)
    assert ca.is_elementary_abelian(quo) and quo.order == 8


def test_subgroup_from_members_validates(s3):
    sub = subgroup_from_members(s3, [0, 2, 5])
    assert sub.order == 3
    with pytest.raises(PreconditionError):
        subgroup_from_members(s3, [0, 1, 2])  # not closed
    with pytest.raises(PreconditionError):
        subgroup_from_members(s3, bits_of([1, 2]))  # missing identity


def test_lagrange_enforced(s3):
    with pytest.raises(PreconditionError):
        ca.Subgroup(s3, bits_of([0, 1, 2, 3]))  # 4 does not divide 6


def test_lattice_exports(hol8):
    lat = ca.all_subgroups(ca.cyclic(4))
    data = ca.lattice_to_dict(lat)
    assert data["orders"] == [1, 2, 4]
    assert data["normal"] == [True, True, True]
    dot = ca.lattice_to_dot(lat)
    assert dot.startswith("digraph") and "H0 -> H1" in dot


# -- the lattice engine against closed forms and against itself ---------------


def _fresh(g):
    """A copy of g with an empty cache, so that no lattice is reused."""
    return ca.FiniteGroup(g.mult, g.generators, g.labels, name=g.name)


def _s5():
    return ca.from_generators([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], name="S5")


def _a5():
    return ca.from_generators([(1, 2, 3, 4, 0), (0, 2, 3, 1, 4)], name="A5")


def _tau(n):
    return len(divisors(n))


def _sigma(n):
    return sum(divisors(n))


def _subspaces(p, r):
    """Number of subspaces of F_p^r: the sum of Gaussian binomials [r, k]_p."""
    total = 0
    for k in range(r + 1):
        num = den = 1
        for i in range(k):
            num *= p ** (r - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


@pytest.mark.parametrize("build, count", [
    (lambda: ca.dihedral(128).group, _tau(128) + _sigma(128)),  # 263
    (lambda: ca.elementary_abelian(2, 6).group, _subspaces(2, 6)),  # 2825
    (lambda: ca.elementary_abelian(3, 5).group, _subspaces(3, 5)),  # 2664
    (lambda: ca.elementary_abelian(2, 7).group, _subspaces(2, 7)),  # 29212
    (lambda: ca.cyclic(512), _tau(512)),  # 10
    (_s5, 156),
    (_a5, 59),
], ids=["dih256", "ea2r6", "ea3r5", "ea2r7", "c512", "s5", "a5"])
def test_subgroup_counts_match_closed_forms(build, count):
    assert len(ca.all_subgroups(build())) == count


@pytest.mark.parametrize("build", [
    _s5,
    lambda: ca.holomorph_cyclic(16).group,
    lambda: ca.catalog_entry("c2xa4").build().group,
    lambda: ca.split_p5_group(3).group,
], ids=["s5", "hol16", "c2xa4", "split-p5-3"])
def test_partial_lattices_match_filtered_full_lattice(build):
    g = _fresh(build())
    # ascending divisors: every partial lattice is built before the full one
    partial = {c: _subgroups_order_dividing(g, c).subgroups for c in divisors(g.order)}
    full = partial[g.order]
    for c, subs in partial.items():
        assert [s.members for s in subs] == [s.members for s in full
                                             if c % s.order == 0], c


def test_burnside_shortcut_and_fallback_on_s5():
    g = _s5()
    fallback = [c for c in divisors(g.order) if not _all_solvable(g, c)]
    assert fallback == [60, 120]
    assert all(_all_solvable(ca.split_p5_group(3).group, c) for c in (3, 9, 243))


@pytest.mark.parametrize("build", [
    lambda: ca.holomorph8().group,
    lambda: ca.split_p5_group(2).group,
], ids=["holomorph8", "split-p5-2"])
def test_cyclic_extension_matches_join_search(build):
    """In a solvable group the extension steps alone find what the search
    with join steps finds."""
    g = _fresh(build())
    for c in divisors(g.order):
        joins = _join_search(g, ca.trivial_subgroup(g), c, True)
        extended = _join_search(g, ca.trivial_subgroup(g), c, False)
        assert [s.members for s in extended] == [s.members for s in joins], c
        for s in extended:
            assert closure_bits(g.mult, s.gens) == s.members


def test_overgroups_by_joins_match_filtered_lattice():
    g = _fresh(ca.holomorph_cyclic(16).group)
    lat = ca.all_subgroups(g)
    for s in lat.subgroups:
        assert overgroups_by_joins(g, s) == tuple(k for k in lat.subgroups
                                                  if k.contains(s))


@pytest.mark.parametrize("build", [
    _s5, _a5,
    lambda: ca.dihedral(12).group,
    lambda: ca.holomorph8().group,
], ids=["s5", "a5", "dih24", "holomorph8"])
def test_grown_cosets_give_joins_and_double_cosets(build):
    """For every subgroup K and element x: ``_join_bits`` is the closure of
    K's gens and x, and None under any cap below its order when x is
    outside K; grown from Kx under K's gens, the cosets make KxK."""
    g = _fresh(build())
    mult = g.mult
    for k in ca.all_subgroups(g).subgroups:
        elems = k.elements()
        for x in g.elements():
            join = closure_bits(mult, k.gens + (x,))
            assert _join_bits(g, k, x, g.order) == join
            assert _join_bits(g, k, x, join.bit_count()) == join
            if not k.members >> x & 1:
                assert _join_bits(g, k, x, join.bit_count() - 1) is None
            double = bits_of({mult[mult[a][x]][b] for a in elems for b in elems})
            assert _grow_cosets(mult, k, _coset_bits(mult, elems, x), [x],
                                k.gens, g.order) == double


def prime_power_cyclics(g, cap):
    """The cyclic subgroups of prime-power order dividing cap."""
    return [s for s in cyclic_subgroups(g)
            if len(prime_factors(s.order)) == 1 and cap % s.order == 0]


def reference_join_search(g, seeds, cyclics, cap):
    """The join search with no skipped joins: every found K is joined with
    the generator of every given cyclic subgroup outside K."""
    found = {s.members: s for s in seeds}
    frontier = list(found.values())
    while frontier:
        nxt = []
        for sub in frontier:
            for cyc in cyclics:
                x = cyc.gens[0]
                if sub.members >> x & 1:
                    continue
                bits = _join_bits(g, sub, x, cap)
                if bits is None or bits in found:
                    continue
                if cap % bits.bit_count():
                    continue
                new = Subgroup(g, bits, sub.gens + (x,))
                found[bits] = new
                nxt.append(new)
        frontier = nxt
    return tuple(sorted(found.values(), key=Subgroup.sort_key))


def _members_and_gens(subs):
    return [(s.members, s.gens) for s in subs]


@pytest.mark.parametrize("build", [
    _s5, _a5,
    lambda: ca.holomorph8().group,
    lambda: ca.split_p5_group(2).group,
    lambda: ca.catalog_entry("c2xa4").build().group,
], ids=["s5", "a5", "holomorph8", "split-p5-2", "c2xa4"])
def test_join_search_matches_the_search_without_skips(build):
    """Same subgroups, same recorded gens, same order, capped at every
    divisor of |G|, from the trivial subgroup."""
    g = _fresh(build())
    trivial = ca.trivial_subgroup(g)
    for c in divisors(g.order):
        assert _members_and_gens(_join_search(g, trivial, c, True)) == \
            _members_and_gens(reference_join_search(
                g, [trivial], prime_power_cyclics(g, c), c)), c


@pytest.mark.parametrize("build", [
    _s5,
    lambda: ca.elementary_abelian(3, 4).group,
], ids=["s5", "ea3r4"])
def test_overgroups_by_joins_match_the_search_without_skips(build):
    g = build()
    cyclics = prime_power_cyclics(g, g.order)
    for s in ca.all_subgroups(g).subgroups:
        assert _members_and_gens(overgroups_by_joins(g, s)) == \
            _members_and_gens(reference_join_search(g, [s], cyclics, g.order)), s


@pytest.mark.parametrize("build", [
    _s5,
    lambda: ca.elementary_abelian(3, 4).group,
], ids=["s5", "ea3r4"])
def test_overgroups_by_joins_from_a_warm_memo_match_the_search_without_skips(build):
    """From every subgroup in reverse canonical order, so every overgroup of
    a seed was joined, with other gens, by an earlier search."""
    g = _fresh(build())
    cyclics = prime_power_cyclics(g, g.order)
    for s in reversed(ca.all_subgroups(g).subgroups):
        assert _members_and_gens(overgroups_by_joins(g, s)) == \
            _members_and_gens(reference_join_search(g, [s], cyclics, g.order)), s


def test_overgroups_by_joins_join_each_subgroup_once_per_group(monkeypatch):
    g = _fresh(ca.elementary_abelian(3, 4).group)
    subs = ca.all_subgroups(g).subgroups
    joined = []
    kept_joins = ca.subgroups._kept_joins

    def counted(grp, k, *rest):
        joined.append(k.members)
        return kept_joins(grp, k, *rest)

    monkeypatch.setattr(ca.subgroups, "_kept_joins", counted)
    for sweep in (212, 0):
        joined.clear()
        for s in subs:
            overgroups_by_joins(g, s)
        assert len(joined) == len(set(joined)) == sweep
    assert len(subs) == 212


@pytest.mark.parametrize("build", [
    _s5, lambda: ca.elementary_abelian(3, 4).group,
    lambda: ca.holomorph8().group,
], ids=["s5", "ea3r4", "holomorph8"])
def test_lattice_and_complement_searches_memoize_no_joins(build, monkeypatch):
    """The searches by orbit join each representative once, unmemoized."""
    keys = []
    cached = ca.FiniteGroup.cached

    def recorded(grp, key, builder):
        keys.append(key)
        return cached(grp, key, builder)

    monkeypatch.setattr(ca.FiniteGroup, "cached", recorded)
    g = _fresh(build())
    subs = ca.all_subgroups(g).subgroups
    bare = _fresh(g)
    for h in subs:
        ca.complements(bare, Subgroup(bare, h.members))
    kinds = {key[0] if isinstance(key, tuple) else key for key in keys}
    assert "sub_div" in kinds and "joins" not in kinds


@pytest.mark.parametrize("build", [
    _s5, _a5, lambda: ca.direct_product(_a5(), ca.cyclic(2)),
], ids=["s5", "a5", "a5xc2"])
def test_prime_power_generators_find_what_joins_with_every_cyclic_find(build):
    """The subgroups of order dividing each c are those the join search
    over every cyclic subgroup, seeded with all of them, finds."""
    g = _fresh(build())
    for c in divisors(g.order):
        cyclics = [s for s in cyclic_subgroups(g) if c % s.order == 0]
        every = reference_join_search(g, [ca.trivial_subgroup(g), *cyclics],
                                      cyclics, cap=c)
        assert [s.members for s in _subgroups_order_dividing(g, c).subgroups] == \
            [s.members for s in every], c


@pytest.mark.parametrize("build", [
    _s5,
    lambda: ca.elementary_abelian(3, 4).group,
], ids=["s5", "ea3r4"])
def test_overgroups_by_joins_find_what_joins_with_every_cyclic_find(build):
    g = build()
    cyclics = cyclic_subgroups(g)
    for s in ca.all_subgroups(g).subgroups:
        assert [k.members for k in overgroups_by_joins(g, s)] == \
            [k.members for k in reference_join_search(g, [s], cyclics, g.order)], s


def reference_cyclic_extension(g, c):
    """Cyclic extension of every found subgroup, conjugates included: the
    enumeration before it ran by conjugacy class."""
    mult, inv = g.mult, g.inv
    zuppos = []
    for cyc in cyclic_subgroups(g):
        primes = prime_factors(cyc.order)
        if len(primes) == 1 and c % cyc.order == 0:
            x = cyc.gens[0]
            zuppos.append((x, inv[x], primes[0], g.power(x, primes[0])))
    layer = [ca.trivial_subgroup(g)]
    found = {1: layer[0]}
    while layer:
        nxt = []
        for h in layer:
            hm, hgens, room = h.members, h.gens, c // h.order
            covered = hm
            for x, x_inv, p, xp in zuppos:
                if covered >> x & 1 or room % p or not hm >> xp & 1:
                    continue
                if not all(hm >> mult[mult[x_inv][s]][x] & 1 for s in hgens):
                    continue
                bits, y = hm, x
                for _ in range(p - 1):
                    bits |= _coset_bits(mult, h.elements(), y)
                    y = mult[y][x]
                covered |= bits
                if bits not in found:
                    new = Subgroup(g, bits, hgens + (x,))
                    found[bits] = new
                    nxt.append(new)
        layer = nxt
    return tuple(sorted(found.values(), key=Subgroup.sort_key))


def reference_subgroups_order_dividing(g, c):
    """The subgroups of order dividing c with every found subgroup extended
    or joined."""
    if _all_solvable(g, c):
        return reference_cyclic_extension(g, c)
    return reference_join_search(g, [ca.trivial_subgroup(g)],
                                 prime_power_cyclics(g, c), cap=c)


def reference_conjugacy_classes(g, subs):
    """The class partition by one orbit per subgroup not yet in a class: the
    closure of its member set under conjugation by the generators of G."""
    index_of = {s.members: i for i, s in enumerate(subs)}
    assigned = [False] * len(subs)
    classes = []
    for i, sub in enumerate(subs):
        if assigned[i]:
            continue
        orbit = {sub.members}
        frontier = [sub.members]
        while frontier:
            elems = bit_indices(frontier.pop())
            for x in g.generators:
                bits = bits_of(g.conj(e, x) for e in elems)
                if bits not in orbit:
                    orbit.add(bits)
                    frontier.append(bits)
        cls = tuple(sorted(index_of[b] for b in orbit))
        for k in cls:
            assigned[k] = True
        classes.append(cls)
    return tuple(classes)


BY_CLASS_CASES = {
    **{e.name: (lambda e=e: e.build().group) for e in ca.catalog()},
    "C2^6": lambda: ca.elementary_abelian(2, 6).group,
    "C3^5": lambda: ca.elementary_abelian(3, 5).group,
    "hol32": lambda: ca.holomorph_cyclic(32).group,
    "dih256": lambda: ca.dihedral(128).group,
    "split-p5-3": lambda: ca.split_p5_group(3).group,
    "S5": _s5,
    "A5": _a5,
    # abelian with a Sylow subgroup that is not elementary, or with two
    # elementary Sylow subgroups of rank 2 or more
    "C4xC4xC2": lambda: ca.direct_product(
        ca.direct_product(ca.cyclic(4), ca.cyclic(4)), ca.cyclic(2)),
    "C2^2xC9": lambda: ca.direct_product(ca.elementary_abelian(2, 2).group,
                                         ca.cyclic(9)),
    "C2^2xC3^2": lambda: ca.direct_product(ca.elementary_abelian(2, 2).group,
                                           ca.elementary_abelian(3, 2).group),
    "C2^3xC3^2": lambda: ca.direct_product(ca.elementary_abelian(2, 3).group,
                                           ca.elementary_abelian(3, 2).group),
}


@pytest.mark.parametrize("name", list(BY_CLASS_CASES))
def test_enumeration_by_class_matches_the_enumeration_of_every_subgroup(name):
    """Same subgroups in the same order, and the conjugacy classes recorded
    are the reference's, for the full lattice and every partial one.  Each
    orbit's representative, the subgroup the search extended or joined and
    recorded first, has the gens the reference records; every subgroup's
    gens generate it, and its elements, which orbit members are given when
    their orbit is closed, are those of its bitset."""
    base = BY_CLASS_CASES[name]()
    g = _fresh(base)
    # ascending divisors: every partial lattice is built before the full one
    for c in divisors(g.order):
        found = _subgroups_order_dividing(g, c)
        subs, classes, orbits = found.subgroups, found.class_bits, found.orbits
        ref = reference_subgroups_order_dividing(_fresh(base), c)
        assert [s.members for s in subs] == [s.members for s in ref], c
        index_of = {s.members: i for i, s in enumerate(subs)}
        recorded = tuple(sorted(tuple(sorted(index_of[b] for b in cls))
                                for cls in classes))
        assert recorded == reference_conjugacy_classes(g, ref), c
        assert sorted(b for orbit in orbits for b in orbit) == \
            sorted(s.members for s in subs), c
        for orbit in orbits:
            i = index_of[orbit[0]]
            assert subs[i].gens == ref[i].gens, (c, subs[i])
        for s in subs:
            assert closure_bits(g.mult, s.gens) == s.members, (c, s)
            assert s.elements() == bit_indices(s.members), (c, s)
    lat = ca.all_subgroups(g, cap=g.order)
    assert lat.subgroups == subs
    assert lat.conjugacy_classes == reference_conjugacy_classes(g, ref)


@pytest.mark.parametrize("name", list(BY_CLASS_CASES))
def test_the_search_acts_by_automorphisms(name):
    """Every permutation the search's orbits come from fixes the identity,
    is a bijection and keeps every product: perm[ab] = perm[a]·perm[b] for
    all a, b, checked on the whole table."""
    g = _fresh(BY_CLASS_CASES[name]())
    mult = np.array(g.mult)
    perms = _automorphisms(g)
    if ca.is_abelian(g):
        # one GL(n, p) generator or more per elementary abelian Sylow
        # subgroup of rank n >= 2, each a different permutation
        assert len(set(perms)) == len(perms)
    for perm in perms:
        p = np.array(perm)
        assert p[0] == 0
        assert sorted(perm) == list(range(g.order))
        assert (p[mult] == mult[np.ix_(p, p)]).all()


@pytest.mark.parametrize("p, rank", [(2, 3), (3, 4), (5, 3), (2, 6), (3, 5), (2, 7)])
def test_elementary_abelian_lattices_have_one_orbit_per_order(p, rank):
    """GL(n, p) is transitive on the subspaces of each dimension, so the
    search extends or joins one subgroup of each order."""
    g = _fresh(ca.elementary_abelian(p, rank).group)
    ca.all_subgroups(g)
    orbits = g.cached_value(("sub_div", g.order)).orbits
    assert sorted(orbit[0].bit_count() for orbit in orbits) == \
        [p ** k for k in range(rank + 1)]


def test_images_that_define_no_automorphism_are_refused():
    g = ca.cyclic(4)
    x = g.generators[0]
    x2, x3 = g.power(x, 2), g.power(x, 3)
    assert _extend_to_automorphism(g, (x,), (x3,)) == tuple(g.inv)
    with pytest.raises(RuntimeError, match="homomorphism"):
        _extend_to_automorphism(g, (x, x2), (x, x))  # x² must go to x²
    with pytest.raises(RuntimeError, match="automorphism"):
        _extend_to_automorphism(g, (x,), (x2,))  # not injective


def test_every_subgroup_list_is_one_memoized_lattice():
    """Each ("sub_div", c) entry is the SubgroupLattice of the subgroups of
    order dividing c, and the full lattice is the entry for c = |G|, under
    no key of its own."""
    g = _fresh(ca.holomorph8().group)
    for c in divisors(g.order):
        found = _subgroups_order_dividing(g, c)
        assert isinstance(found, SubgroupLattice)
        assert found is g.cached_value(("sub_div", c))
        assert [s.order for s in found.subgroups if c % s.order] == []
    assert ca.all_subgroups(g) is g.cached_value(("sub_div", g.order))
    assert g.cached_value("lattice") is None


def test_conjugacy_classes_are_recorded_only_by_the_enumeration():
    g = _fresh(ca.symmetric3().group)
    lat = SubgroupLattice(g, ca.all_subgroups(g).subgroups)
    with pytest.raises(PreconditionError):
        lat.conjugacy_classes
    found = g.cached_value(("sub_div", g.order))
    subs, classes = found.subgroups, found.class_bits
    assert SubgroupLattice(g, subs, classes).conjugacy_classes == \
        reference_conjugacy_classes(g, subs)


def test_overgroups_of_subgroups_given_without_generators():
    # is_supercomplemented reads the lattice index on g, whose lattice is
    # built, and searches by joins on bare, whose lattice is not
    for entry in ca.catalog():
        if entry.order > 64:
            continue
        g = entry.build().group
        lat = ca.all_subgroups(g)
        bare = _fresh(g)
        for s in lat.subgroups[1:]:
            above = tuple(k for k in lat.subgroups if k.contains(s))
            plain = Subgroup(g, s.members)
            assert overgroups_by_joins(g, plain) == above, entry.name
            assert ca.overgroups(g, plain) == above, entry.name
            bad = next((k for k in above if not ca.is_complemented(g, k)), None)
            for grp in (g, bare):
                ok, wit = ca.is_supercomplemented(grp, Subgroup(grp, s.members))
                assert (ok, wit and wit.members) == (bad is None, bad and bad.members), \
                    (entry.name, grp is g)
        assert bare.cached_value(("sub_div", bare.order)) is None


def _built_subgroups(g):
    """(routine, subgroups it returns) for every routine that builds
    subgroups of g: the lattice, and each construction applied to it."""
    lat = ca.all_subgroups(g).subgroups
    pairs = list(zip(lat, reversed(lat)))
    yield "all_subgroups", lat
    yield "intersection", [ca.intersection(a, b) for a, b in pairs]
    yield "core", [core(g, s) for s in lat]
    yield "normalizer", [normalizer(g, s) for s in lat]
    yield "center", [center(g)]
    yield "frattini", [ca.frattini(g)]
    yield "chief_series", ca.chief_series(g).terms
    yield "derived_subgroup", [ca.derived_subgroup(s) for s in lat]
    yield "commutator_subgroup", [ca.commutator_subgroup(g, a, b) for a, b in pairs]
    yield "normal_closure", [normal_closure(g, s) for s in lat]
    yield "subgroup_from_members", [subgroup_from_members(g, s.members) for s in lat]
    yield "Subgroup", [Subgroup(g, s.members) for s in lat]


@pytest.mark.parametrize("name", [e.name for e in ca.catalog() if e.order <= 64])
def test_every_subgroup_is_generated_by_its_gens(name):
    g = ca.catalog_entry(name).build().group
    for routine, subs in _built_subgroups(g):
        fresh = _fresh(g)  # an empty memo, so is_abelian reads these gens
        for s in subs:
            assert closure_bits(g.mult, s.gens) == s.members, (routine, s)
            elems = s.elements()
            all_pairs = all(g.mult[a][b] == g.mult[b][a] for a in elems for b in elems)
            assert ca.is_abelian(Subgroup(fresh, s.members, s.gens)) == all_pairs, \
                (routine, s)


def test_is_normal_and_normalizer_match_conjugation_by_every_element():
    for entry in ca.catalog():
        if entry.order > 64:
            continue
        g = entry.build().group
        lat = ca.all_subgroups(g)
        exported = ca.lattice_to_dict(lat)["normal"]
        for i, s in enumerate(lat.subgroups):
            norm = [x for x in g.elements()
                    if all(s.members >> g.conj(e, x) & 1 for e in s.elements())]
            assert normalizer(g, s).elements() == tuple(norm), entry.name
            for h in (s, Subgroup(g, s.members)):
                assert ca.is_normal(g, h) == (len(norm) == g.order), entry.name
            assert exported[i] == (len(norm) == g.order), entry.name


@pytest.mark.parametrize("name", ["holomorph8", "s3xs3", "c2xa4", "split-p5-2"])
def test_inclusion_is_the_covering_relation(name):
    subs = ca.all_subgroups(ca.catalog_entry(name).build().group).subgroups
    below = {(i, j) for i, a in enumerate(subs) for j, b in enumerate(subs)
             if i != j and b.contains(a)}
    covers = sorted((i, j) for i, j in below
                    if not any((i, k) in below and (k, j) in below
                               for k in range(len(subs))))
    assert list(ca.all_subgroups(subs[0].parent).inclusion) == covers


@pytest.mark.parametrize("name", [e.name for e in ca.catalog() if e.order <= 32])
def test_right_cosets_partition_the_group_in_order_of_least_element(name):
    g = ca.catalog_entry(name).build().group
    for a in ca.all_subgroups(g).subgroups:
        cosets = right_cosets(g, a)
        covered = 0
        for c in cosets:
            assert not c & covered and c.bit_count() == a.order
            covered |= c
        assert covered == (1 << g.order) - 1
        least = [bit_indices(c)[0] for c in cosets]
        assert least == sorted(least)
        assert all(c == bits_of(g.mult[x][y] for x in a.elements())
                   for c, y in zip(cosets, least))


@pytest.mark.parametrize("name", [e.name for e in ca.catalog() if e.order <= 32])
def test_product_bits_is_the_set_of_products(name):
    g = ca.catalog_entry(name).build().group
    subs = ca.all_subgroups(g).subgroups
    for a in subs:
        for b in subs:
            brute = bits_of(g.mult[x][y] for x in a.elements() for y in b.elements())
            assert product_bits(g, a, b) == brute, (a, b)


def test_maximal_subgroups_read_from_inclusion_match_the_maximality_scan():
    for entry in ca.catalog():
        lat = ca.all_subgroups(entry.build().group)
        proper = [s for s in lat.subgroups if s.order < lat.group.order]
        maximal = []
        for s in sorted(proper, key=lambda t: -t.order):
            if not any(m.contains(s) for m in maximal):
                maximal.append(s)
        assert lat.maximal_subgroups() == tuple(sorted(maximal, key=Subgroup.sort_key)), \
            entry.name


def reference_inclusion(subs):
    """The covering relation by a walk over containment: for each subgroup,
    its smaller subgroups in decreasing canonical order, each one a cover
    unless a cover already kept contains it."""
    members = [s.members for s in subs]
    orders = [s.order for s in subs]
    pairs = []
    lo = 0
    for j, big in enumerate(members):
        while orders[lo] < orders[j]:
            lo += 1
        covers = []
        below = [i for i in range(lo - 1, -1, -1) if members[i] & big == members[i]]
        for i in below:
            sm = members[i]
            if not any(sm & m == sm for m in covers):
                covers.append(sm)
                pairs.append((i, j))
    return tuple(sorted(pairs))


# split-p5-3 is a catalog entry
CYCLIC_GROUPS = {
    "hol27": lambda: ca.holomorph_cyclic(27).group,
    "hol32": lambda: ca.holomorph_cyclic(32).group,
    "S5": _s5,
}


@pytest.mark.parametrize("name", [e.name for e in ca.catalog()] + list(CYCLIC_GROUPS))
def test_cyclic_subgroups_match_one_walk_per_element(name):
    """One power walk per cyclic subgroup finds the subgroups, and the least
    generator of each, that a walk from every element does, in the same
    order."""
    if name in CYCLIC_GROUPS:
        g = CYCLIC_GROUPS[name]()
    else:
        g = ca.catalog_entry(name).build().group
    assert [(s.members, s.gens, s.order) for s in cyclic_subgroups(g)] == \
        [(s.members, s.gens, s.order) for s in cyclic_subgroups_by_element(g)]


def cover_pairs(lat):
    """``covers`` flattened to (i, k) pairs, each row checked ascending."""
    assert all(list(row) == sorted(set(row)) for row in lat.covers)
    return tuple((i, k) for i, row in enumerate(lat.covers) for k in row)


@pytest.mark.parametrize("name", [e.name for e in ca.catalog()] + list(LARGE_LATTICES))
def test_inclusion_matches_the_reference_walk(name):
    g = lattice_group(name)
    lat = ca.all_subgroups(g, cap=g.order)
    reference = reference_inclusion(lat.subgroups)
    assert cover_pairs(lat) == reference
    assert lat.inclusion == reference


@pytest.mark.parametrize("name", ["holomorph8", "s3xs3", "c2xa4", "split-p5-3"])
def test_inclusion_of_subgroups_given_without_generators(name):
    g = _fresh(ca.catalog_entry(name).build().group)
    subs = [Subgroup(g, s.members) for s in ca.all_subgroups(g).subgroups]
    assert all(s._gens is None for s in subs)
    lat = SubgroupLattice(g, subs)
    assert cover_pairs(lat) == reference_inclusion(subs)
    assert lat.inclusion == reference_inclusion(subs)


@pytest.mark.parametrize("name", [e.name for e in ca.catalog()] + list(LARGE_LATTICES))
def test_dot_written_per_subgroup_matches_the_per_pair_text(name):
    g = lattice_group(name)
    lat = ca.all_subgroups(g, cap=g.order)
    assert ca.lattice_to_dot(lat) == lattice_to_dot_by_pairs(lat)


def test_dot_of_the_trivial_group_has_no_edge():
    lat = ca.all_subgroups(ca.cyclic(1))
    assert ca.lattice_to_dot(lat) == lattice_to_dot_by_pairs(lat)
    assert "->" not in ca.lattice_to_dot(lat)


@pytest.mark.parametrize("name", [e.name for e in ca.catalog()])
def test_conjugation_without_identity_or_repeats_finds_the_same_lattice(name, monkeypatch):
    """``_conj_perms`` leaves out identity permutations and repeats; the
    lattice search by orbits finds the same subgroups, with the same gens,
    in the same orbits, as with one permutation per generator."""
    base = ca.catalog_entry(name).build().group
    by_generator = conj_perms_by_generator(base)
    identity = tuple(base.elements())
    kept = _conj_perms(_fresh(base))
    assert kept == tuple(dict.fromkeys(p for p in by_generator if p != identity))

    def searched(g):
        lat = ca.all_subgroups(g)
        return ([(s.members, s.gens) for s in lat.subgroups], lat.orbits,
                lat.conjugacy_classes if not ca.is_abelian(g) else None)

    dropped = searched(_fresh(base))
    monkeypatch.setattr(subgroups_module, "_conj_perms", conj_perms_by_generator)
    assert searched(_fresh(base)) == dropped


@pytest.mark.parametrize("name", ["split-p5-3", "c2xa4"])
def test_a_central_generator_gives_no_conjugation_permutation(name):
    g = _fresh(ca.catalog_entry(name).build().group)
    assert len(_conj_perms(g)) == len(conj_perms_by_generator(g)) - 1


def loop_bit_indices(bits):
    """bit_indices by one shift per bit position."""
    out = []
    i = 0
    while bits:
        if bits & 1:
            out.append(i)
        bits >>= 1
        i += 1
    return tuple(out)


@given(st.integers(min_value=0, max_value=2 ** 4096 - 1)
       | st.sets(st.integers(min_value=0, max_value=4095)).map(bits_of))
@example(0)
@example(1)
@example(2 ** 4096 - 1)
def test_bit_indices_matches_the_shift_loop(bits):
    assert bit_indices(bits) == loop_bit_indices(bits)
