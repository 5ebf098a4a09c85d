"""Complement search and the supercomplemented / completely factorizable /
C-separating predicates."""

import pytest

import complementa as ca
from complementa._primes import divisors
from complementa.complementation import _complements_in
from complementa.groups import CapExceededError, PreconditionError
from complementa.subgroups import (Subgroup, _subgroups_order_dividing, full_subgroup,
                                   product_bits)
from references import quotient_transport_check


def test_complements_of_extremes(s3):
    full = full_subgroup(s3)
    res = ca.complements(s3, full)
    assert [t.order for t in res.complements] == [1]
    res2 = ca.complements(s3, ca.trivial_subgroup(s3))
    assert [t.order for t in res2.complements] == [6]


def test_complements_in_s3(s3):
    refl = ca.generated_subgroup(s3, (1,))
    res = ca.complements(s3, refl, mode="all")
    assert res.exhaustive
    assert [t.order for t in res.complements] == [3]
    assert set(res.complements[0].elements()) == {0, 2, 5}


def test_complements_first_mode(s3):
    refl = ca.generated_subgroup(s3, (1,))
    res = ca.complements(s3, refl, mode="first")
    assert len(res.complements) == 1 and not res.exhaustive


def test_cyclic4_subgroup_not_complemented():
    c4 = ca.cyclic(4)
    half = ca.generated_subgroup(c4, (2,))
    assert not ca.is_complemented(c4, half)
    assert ca.is_complemented(c4, ca.trivial_subgroup(c4))


def test_listed_complement_of_xa_in_holomorph(hol8):
    g = hol8.group
    x, a, b = (hol8.elements[k] for k in "xab")
    k = ca.generated_subgroup(g, (x, a))
    res = ca.complements(g, k, mode="all")
    assert ca.generated_subgroup(g, (b,)).members in {t.members for t in res.complements}


def test_all_index2_subgroups_complemented(hol8):
    g = hol8.group
    for sub in ca.all_subgroups(g).by_order(16):
        assert ca.is_complemented(g, sub)


def test_supercomplemented_extremes(s3):
    full = full_subgroup(s3)
    ok, wit = ca.is_supercomplemented(s3, full)
    assert ok and wit is None


def test_supercomplemented_x_in_holomorph(hol8):
    ok, wit = ca.is_supercomplemented(hol8.group, hol8.subgroups["x"])
    assert ok and wit is None


def test_supercomplemented_false_with_witness():
    c4 = ca.cyclic(4)
    ok, wit = ca.is_supercomplemented(c4, ca.trivial_subgroup(c4))
    assert not ok
    assert set(wit.elements()) == {0, 2}


def test_holomorph_overgroup_complements_lie_in_V(hol8):
    g = hol8.group
    v = hol8.subgroups["V"]
    for k in ca.overgroups(g, hol8.subgroups["x"]):
        res = ca.complements(g, k, mode="all")
        assert any(v.contains(t) for t in res.complements)


def test_completely_factorizable(s3):
    assert ca.is_completely_factorizable(ca.trivial_group())[0]
    assert ca.is_completely_factorizable(s3)[0]
    ok, wit = ca.is_completely_factorizable(ca.cyclic(4))
    assert not ok and set(wit.elements()) == {0, 2}


def test_c_separating_in_completely_factorizable(s3):
    seps = ca.c_separating_subgroups(s3)
    lat = ca.all_subgroups(s3)
    proper = [s for s in lat.subgroups if s.order < 6]
    assert [s.members for s in seps] == [s.members for s in proper]


def test_c_separating_cyclic4():
    c4 = ca.cyclic(4)
    seps = ca.c_separating_subgroups(c4)
    assert [set(s.elements()) for s in seps] == [{0, 2}]
    assert ca.is_c_separating(c4, ca.generated_subgroup(c4, (2,)))
    assert not ca.is_c_separating(c4, ca.trivial_subgroup(c4))


def test_no_c_separating_in_holomorph(hol8):
    assert not ca.has_c_separating(hol8.group)
    g = hol8.group
    assert [h for h in ca.c_separating_subgroups(g) if g.order // h.order == 2] == []


def test_c_separating_rejects_trivial_group():
    with pytest.raises(PreconditionError):
        ca.c_separating_subgroups(ca.trivial_group())


def test_c_separating_monotone():
    c8 = ca.cyclic(8)
    seps = {s.members for s in ca.c_separating_subgroups(c8)}
    for sub in ca.all_subgroups(c8).subgroups:
        if sub.members in seps:
            for over in ca.overgroups(c8, sub):
                if over.order < 8:
                    assert over.members in seps


def test_transport_with_n_equal_k(hol8):
    g = hol8.group
    full = full_subgroup(g)
    assert quotient_transport_check(g, hol8.subgroups["x"], full, full)


def test_transport_with_trivial_n_reduces_to_plain_check(hol8):
    g = hol8.group
    x = hol8.subgroups["x"]
    k = ca.generated_subgroup(g, (hol8.elements["x"], hol8.elements["a"]))
    triv = ca.trivial_subgroup(g)
    assert quotient_transport_check(g, x, k, triv) == \
        ca.is_supercomplemented(ca.subgroup_as_group(g, k)[0],
                                _relabel(g, k, x))[0]


def _relabel(g, k, sub):
    k_grp, to_local, _ = ca.subgroup_as_group(g, k)
    bits = 0
    for e in sub.elements():
        bits |= 1 << to_local[e]
    return ca.Subgroup(k_grp, bits)


def test_transport_quotient_by_derived(hol8):
    g = hol8.group
    x = hol8.elements["x"]
    x2 = ca.generated_subgroup(g, (g.mult[x][x],))
    assert quotient_transport_check(g, hol8.subgroups["x"], full_subgroup(g), x2)


def test_transport_preconditions(hol8, s3):
    g = hol8.group
    with pytest.raises(PreconditionError):
        # K does not contain H
        quotient_transport_check(g, hol8.subgroups["x"], hol8.subgroups["a"],
                                 ca.trivial_subgroup(g))
    refl = ca.generated_subgroup(s3, (1,))
    rot = ca.generated_subgroup(s3, (2,))
    with pytest.raises(PreconditionError):
        # N not normal in K
        quotient_transport_check(s3, ca.trivial_subgroup(s3),
                                 full_subgroup(s3), refl)
    c4 = ca.cyclic(4)
    with pytest.raises(PreconditionError):
        # H not supercomplemented in K
        quotient_transport_check(c4, ca.generated_subgroup(c4, (2,)),
                                 full_subgroup(c4), ca.trivial_subgroup(c4))


LARGE = {
    "ea2r6": lambda: ca.elementary_abelian(2, 6).group,
    "ea3r5": lambda: ca.elementary_abelian(3, 5).group,
    "hol32": lambda: ca.holomorph_cyclic(32).group,
    "dih64": lambda: ca.dihedral(32).group,
    "s5": lambda: ca.from_generators([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], name="S5"),
    "a5": lambda: ca.from_generators([(1, 2, 3, 4, 0), (0, 2, 3, 1, 4)], name="A5"),
}


def _fresh(name):
    """A copy of a LARGE group with nothing memoized on it."""
    g = LARGE[name]()
    return ca.FiniteGroup(g.mult, g.generators, g.labels, name=g.name)


def test_uncomplemented_sets():
    """The lattice-wide bitset reads the lattice's order blocks, and so does
    is_complemented once the lattice is built.  The other side is computed
    on a copy without the lattice: each is_complemented on a nontrivial
    subgroup runs its own search of the subgroups that avoid it.  On the
    three largest lattices that takes 3 to 80 s per group, so there the
    copy scans one list per index, the subgroups of order dividing it."""
    c4 = ca.cyclic(4)
    bad = ca.uncomplemented_subgroups(c4)
    assert [set(s.elements()) for s in bad] == [{0, 2}]
    assert ca.uncomplemented_subgroups(ca.symmetric3().group) == ()
    groups = [(e.name, e.build().group) for e in ca.catalog() if e.order <= 64]
    groups += [(name, _fresh(name)) for name in ("ea2r6", "ea3r5", "hol32", "s5", "a5")]
    for name, g in groups:
        lat = ca.all_subgroups(g)
        bad = ca.uncomplemented_subgroups(g)
        assert bad == tuple(k for k in lat.subgroups if not ca.is_complemented(g, k)), name
        bare = ca.FiniteGroup(g.mult, g.generators, g.labels, name=g.name)
        if name in ("ea2r6", "ea3r5", "hol32"):
            def complemented(k):
                below = _subgroups_order_dividing(bare, bare.order // k.order)
                return next(_complements_in(below, k), None) is not None
        else:
            def complemented(k):
                return ca.is_complemented(bare, k)
        assert [k.members for k in bad] == [
            k.members for k in lat.subgroups[1:]
            if not complemented(Subgroup(bare, k.members))], name
        assert bare.cached_value(("sub_div", g.order)) is None, name


@pytest.mark.parametrize("name", ["hol32", "ea3r5", "s5", "dih64"])
def test_whole_lattice_questions_build_no_partial_lattice(name):
    """The factorizable verdict, the C-separating subgroups and, with the
    lattice built, the supercomplemented check read the lattice: no
    subgroup list of order dividing a proper divisor of |G| is memoized."""
    g = _fresh(name)
    ca.is_completely_factorizable(g)
    ca.c_separating_subgroups(g)
    for h in ca.all_subgroups(g).subgroups:
        ca.is_supercomplemented(g, h)
    assert [c for c in divisors(g.order)[:-1]
            if g.cached_value(("sub_div", c)) is not None] == []


@pytest.mark.parametrize("build", [
    lambda: ca.holomorph8().group,
    lambda: ca.holomorph_cyclic(16).group,
    lambda: ca.split_p5_group(3).group,
    LARGE["s5"],
], ids=["holomorph8", "hol16", "split-p5-3", "s5"])
def test_subject_questions_search_only_the_subgroups_avoiding_h(build, monkeypatch):
    """Without the full lattice, ``complements`` and ``is_supercomplemented``
    on H ≠ 1 memoize no subgroup list: each searches one list, the
    subgroups of order dividing |G:H| that meet H in 1, which hold the
    complements of H and of every overgroup K of H (|G:K| divides |G:H|),
    and keeps it as a local.  That list is the full lattice's subgroups of
    order dividing |G:H| that meet H in 1, and the answers, as member
    bitsets, are those read off the full lattice of a copy that has it
    built."""
    searched = []
    search = ca.complementation._subgroups_order_dividing

    def recorded(grp, c, avoid=0):
        found = search(grp, c, avoid)
        searched.append([t.members for t in found.subgroups])
        return found

    monkeypatch.setattr(ca.complementation, "_subgroups_order_dividing", recorded)

    def complement_bits(grp, sub):
        return [t.members for t in ca.complements(grp, sub).complements]

    def supercomplemented_bits(grp, sub):
        ok, witness = ca.is_supercomplemented(grp, sub)
        return ok, witness and witness.members

    base = build()
    g = ca.FiniteGroup(base.mult, base.generators, base.labels, name=base.name)
    lat = ca.all_subgroups(base)
    for s in lat.subgroups:
        h = Subgroup(g, s.members)
        index = g.order // h.order
        avoiding = [t.members for t in lat.subgroups
                    if not index % t.order and t.members & h.members == 1]
        for question in (complement_bits, supercomplemented_bits):
            g.clear_cache()
            searched.clear()
            assert question(g, h) == question(base, s), (question.__name__, s)
            assert [c for c in divisors(g.order)[:-1]
                    if g.cached_value(("sub_div", c)) is not None] == [], \
                (question.__name__, s)
            if h.order > 1:
                assert searched == [avoiding], (question.__name__, s)


@pytest.mark.parametrize("build", [
    lambda: ca.from_generators([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], name="S5"),
    lambda: ca.holomorph_cyclic(16).group,
    lambda: ca.split_p5_group(3).group,
    lambda: ca.holomorph_cyclic(32).group,
    lambda: ca.elementary_abelian(3, 4).group,
], ids=["s5", "hol16", "split-p5-3", "hol32", "ea3r4"])
def test_order_criterion_gives_product_set_above_order_64(build):
    # complements decides by |H|·|T| = |G| and H∩T = 1 alone; the verify
    # claim that compares this with the product set stops at order 64
    g = build()
    lat = ca.all_subgroups(g)
    for h in lat.subgroups:
        pairs = [t for t in lat.by_order(g.order // h.order) if t.members & h.members == 1]
        assert all(product_bits(g, h, t).bit_count() == g.order for t in pairs)
        assert ca.complements(g, h, "all").complements == tuple(pairs)


def _c_separating_reference(g, lat, max_index=None):
    """The definition: proper H containing every uncomplemented subgroup."""
    bad = [k for k in lat.subgroups if not ca.is_complemented(g, k)]
    return tuple(h for h in lat.subgroups
                 if h.order < g.order and all(h.contains(k) for k in bad)
                 and (max_index is None or g.order // h.order <= max_index))


@pytest.mark.parametrize("name", [e.name for e in ca.catalog() if e.order > 1])
def test_c_separating_union_bitset_matches_definition(name):
    g = ca.catalog_entry(name).build().group
    lat = ca.all_subgroups(g)
    seps = _c_separating_reference(g, lat)
    assert ca.c_separating_subgroups(g) == seps
    assert tuple(h for h in ca.c_separating_subgroups(g) if g.order // h.order <= 2) == \
        _c_separating_reference(g, lat, 2)
    assert [ca.is_c_separating(g, h) for h in lat.subgroups] == \
        [h in seps for h in lat.subgroups]


def _no_full_lattice(*args, **kwargs):
    raise AssertionError("full lattice built for a subject-level predicate")


@pytest.mark.parametrize("p, rank", [(2, 9), (3, 5)])
def test_subject_predicates_do_not_build_the_full_lattice(monkeypatch, p, rank):
    """C2^9 is within the default cap but has 8,283,458 subgroups.  The
    complements of an index-p subgroup H have order p and its overgroups are
    H and G, so the complement scan and the supercomplemented check on H
    stay small: they read the subgroups of order dividing p and the joins
    above H, never the full lattice."""
    base = ca.elementary_abelian(p, rank).group
    g = ca.FiniteGroup(base.mult, base.generators, base.labels, name=base.name)
    h = ca.generated_subgroup(g, [p ** k for k in range(1, rank)])
    assert h.order == g.order // p
    full = ca.subgroups._subgroups_order_dividing

    def partial_only(grp, c, avoid=0):
        assert c < grp.order, "full lattice built for a subject-level predicate"
        return full(grp, c, avoid)

    for module in (ca.subgroups, ca.complementation):
        monkeypatch.setattr(module, "_subgroups_order_dividing", partial_only)
        monkeypatch.setattr(module, "all_subgroups", _no_full_lattice)
    res = ca.complements(g, h)
    assert len(res.complements) == p ** (rank - 1) and res.exhaustive
    assert all(t.order == p and not h.contains(t) for t in res.complements)
    assert ca.is_supercomplemented(g, h) == (True, None)
    assert [k.order for k in ca.overgroups(g, h)] == [g.order // p, g.order]


def test_cap_is_checked_before_the_memo():
    c4 = ca.cyclic(4)
    half = ca.generated_subgroup(c4, (2,))
    assert not ca.is_complemented(c4, half)
    for predicate in (lambda: ca.is_complemented(c4, half, cap=2),
                      lambda: ca.is_supercomplemented(c4, half, cap=2),
                      lambda: ca.is_completely_factorizable(c4, cap=2),
                      lambda: ca.uncomplemented_subgroups(c4, cap=2),
                      lambda: ca.c_separating_subgroups(c4, cap=2),
                      lambda: ca.is_c_separating(c4, half, cap=2)):
        with pytest.raises(CapExceededError):
            predicate()
