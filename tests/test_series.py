"""Derived/lower-central/chief series, centre, Frattini, Sylow, minimal normals."""

import pytest

import complementa as ca
import complementa.series as series_module
from complementa.groups import PreconditionError, closure_bits
from complementa.subgroups import Subgroup, full_subgroup
from references import (center, lower_central_series, normal_closure,
                        p_subgroups, reached_trivial)


def commutator_oracle(g):
    """Independent derived-subgroup oracle: closure of all commutators."""
    comms = {g.commutator(a, b) for a in g.elements() for b in g.elements()}
    members = comms | {0}
    while True:
        new = {g.mult[a][b] for a in members for b in members}
        if new <= members:
            return members
        members |= new


def test_derived_length_basics(s3):
    assert ca.derived_length(ca.trivial_group()) == 0
    assert ca.derived_length(ca.cyclic(12)) == 1
    assert ca.derived_length(s3) == 2


def test_derived_subgroup_matches_oracle(s3):
    assert set(ca.derived_subgroup(s3).elements()) == commutator_oracle(s3)
    a4 = ca.alternating4().group
    assert set(ca.derived_subgroup(a4).elements()) == commutator_oracle(a4)


def test_derived_subgroup_of_holomorph_is_x_squared(hol8):
    g = hol8.group
    x = hol8.elements["x"]
    d = ca.derived_subgroup(g)
    assert d.members == ca.generated_subgroup(g, (g.mult[x][x],)).members
    assert d.order == 4


def test_center(s3, hol8):
    assert center(ca.cyclic(6)).order == 6
    assert center(s3).order == 1
    assert center(hol8.group).order == 2


def test_nilpotency(s3, hol8):
    assert ca.is_nilpotent(ca.cyclic(9))
    assert ca.is_nilpotent(hol8.group)  # 2-group
    assert not ca.is_nilpotent(s3)
    report = lower_central_series(s3)
    assert report.length is None and not reached_trivial(report)


def test_frattini():
    e8 = ca.elementary_abelian(2, 3).group
    assert ca.frattini(e8).order == 1
    c8 = ca.cyclic(8)
    phi = ca.frattini(c8)
    assert phi.order == 4 and set(phi.elements()) == {0, 2, 4, 6}
    assert ca.frattini(ca.trivial_group()).order == 1


def test_sylow(s3, hol8):
    assert ca.sylow_subgroup(s3, 5).order == 1  # p does not divide |G|
    syl2 = ca.sylow_subgroup(s3, 2)
    assert syl2.order == 2
    assert len(ca.all_subgroups(s3).by_order(2)) == 3
    assert ca.sylow_subgroup(hol8.group, 2).order == 32
    with pytest.raises(PreconditionError):
        ca.sylow_subgroup(s3, 4)


def test_sylow_containing(s3):
    refl = ca.generated_subgroup(s3, (1,))
    syl = ca.sylow_subgroup(s3, 2, containing=refl)
    assert syl.contains(refl) and syl.order == 2
    rot = ca.generated_subgroup(s3, (2,))
    with pytest.raises(PreconditionError):
        ca.sylow_subgroup(s3, 2, containing=rot)  # not a 2-subgroup


def test_p_subgroups(s3):
    twos = p_subgroups(s3, 2)
    assert [s.order for s in twos] == [1, 2, 2, 2]


def test_minimal_normal_subgroups(s3):
    c5 = ca.cyclic(5)
    mins = ca.minimal_normal_subgroups(c5)
    assert len(mins) == 1 and mins[0].order == 5
    v4 = ca.elementary_abelian(2, 2).group
    assert [m.order for m in ca.minimal_normal_subgroups(v4)] == [2, 2, 2]
    assert [m.order for m in ca.minimal_normal_subgroups(s3)] == [3]


def test_minimal_normals_match_lattice_scan(hol8):
    g = hol8.group
    lat = ca.all_subgroups(g)
    normals = [s for s in lat.subgroups if s.order > 1 and ca.is_normal(g, s)]
    minimal = [s for s in normals
               if not any(t.order < s.order and s.contains(t) for t in normals)]
    assert [m.members for m in ca.minimal_normal_subgroups(g)] == \
        [m.members for m in minimal]


def reference_minimal_normals(g):
    """The minimal elements among the normal closures of every element."""
    closures = {}
    for e in range(1, g.order):
        sub = normal_closure(g, ca.generated_subgroup(g, (e,)))
        closures.setdefault(sub.members, sub)
    subs = list(closures.values())
    return sorted(s.members for s in subs
                  if not any(t.members != s.members and s.contains(t) for t in subs))


@pytest.mark.parametrize("build", [
    *[(lambda e=e: e.build().group) for e in ca.catalog()],
    lambda: ca.holomorph_cyclic(27).group,
], ids=[*[e.name for e in ca.catalog()], "hol27"])
def test_minimal_normals_match_the_scan_of_every_element(build):
    g = build()
    assert sorted(m.members for m in ca.minimal_normal_subgroups(g)) == \
        reference_minimal_normals(g)


def test_chief_series_structure(hol8):
    g = hol8.group
    report = ca.chief_series(g)
    assert report.kind == "chief"
    assert report.terms[0].order == g.order and report.terms[-1].order == 1
    for i in range(len(report.terms) - 1):
        assert report.terms[i].contains(report.terms[i + 1])
    for term in report.terms:
        assert ca.is_normal(g, term)
    # factors of this 2-group are all elementary abelian within {2, 4}
    assert all(f.order in (2, 4) and f.elementary_abelian for f in report.factors)
    assert [f.order for f in report.factors] == [2, 2, 2, 2, 2]


def test_chief_factors_elementary_for_split_p5():
    nm = ca.split_p5_group(3)
    report = ca.chief_series(nm.group)
    assert all(f.order == 3 and f.elementary_abelian for f in report.factors)


def test_quotient_derived_length_monotone(s3):
    d = ca.derived_length(s3)
    for sub in ca.all_subgroups(s3).subgroups:
        if ca.is_normal(s3, sub):
            quo, _ = ca.quotient(s3, sub.members)
            assert ca.derived_length(quo) <= d


def test_derived_series_report_fields(s3):
    rep = ca.derived_series(s3)
    assert rep.kind == "derived"
    assert [t.order for t in rep.terms] == [6, 3, 1]
    assert rep.length == 2
    assert [f.order for f in rep.factors] == [2, 3]
    assert all(f.abelian for f in rep.factors)


# -- commutator subgroups from generators ----------------------------------


def naive_commutator_subgroup(g, a, b):
    """Reference for ``commutator_subgroup``: the closure of [x, y] over all
    x in A and y in B."""
    return closure_bits(g.mult, sorted({g.commutator(x, y) for x in a.elements()
                                        for y in b.elements()}))


CATALOG_NAMES = [e.name for e in ca.catalog()]
UP_TO_64 = [e.name for e in ca.catalog() if e.order <= 64]


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_derived_and_commutator_with_g_match_all_pairs(name):
    g = ca.catalog_entry(name).build().group
    full = full_subgroup(g)
    for a in ca.all_subgroups(g).subgroups:
        assert ca.commutator_subgroup(g, a, a).members == naive_commutator_subgroup(g, a, a)
        assert ca.commutator_subgroup(g, a, full).members == \
            naive_commutator_subgroup(g, a, full)


def test_commutator_of_every_pair_matches_all_pairs_up_to_order_64():
    pairs = 0
    for name in UP_TO_64:
        g = ca.catalog_entry(name).build().group
        subs = ca.all_subgroups(g).subgroups
        for a in subs:
            for b in subs:
                assert ca.commutator_subgroup(g, a, b).members == \
                    naive_commutator_subgroup(g, a, b), (name, a, b)
        pairs += len(subs) ** 2
    assert len(UP_TO_64) == 62 and pairs == 32893


def test_commutator_gens_generate_it_and_empty_gens_fall_back_to_elements():
    g = ca.catalog_entry("s3xs3").build().group
    subs = ca.all_subgroups(g).subgroups
    for a in subs:
        for b in subs[::5]:
            c = ca.commutator_subgroup(g, a, b)
            assert closure_bits(g.mult, c.gens) == c.members
            bare = ca.commutator_subgroup(g, Subgroup(g, a.members), Subgroup(g, b.members))
            assert bare.members == c.members


@pytest.mark.parametrize("name", UP_TO_64)
def test_normal_closure_is_the_least_normal_subgroup_containing_h(name):
    g = ca.catalog_entry(name).build().group
    subs = ca.all_subgroups(g).subgroups
    normals = [n.members for n in subs if ca.is_normal(g, n)]
    for h in subs:
        least = (1 << g.order) - 1
        for n in normals:
            if n & h.members == h.members:
                least &= n
        for given in (h, Subgroup(g, h.members)):
            closure = normal_closure(g, given)
            assert closure.members == least, (name, h)
            assert closure_bits(g.mult, closure.gens) == least


@pytest.mark.parametrize("name", UP_TO_64)
def test_series_factor_flags_match_brute_force(name):
    g = ca.catalog_entry(name).build().group
    for a in ca.all_subgroups(g).subgroups:
        for report in (ca.derived_series(a), lower_central_series(a)):
            for top, low, f in zip(report.terms, report.terms[1:], report.factors):
                elems = top.elements()
                assert f.abelian == all(low.members >> g.commutator(x, y) & 1
                                        for x in elems for y in elems)
                p = f.prime
                assert f.elementary_abelian == (p is not None and all(
                    low.members >> g.power(x, p) & 1 for x in elems))



@pytest.mark.parametrize("name", ["s3", "a4", "dih8", "holomorph8", "c2xa4"])
def test_derived_length_and_nilpotency_read_no_series_factor(monkeypatch, name):
    built = ca.catalog_entry(name).build().group
    g = ca.FiniteGroup(built.mult, built.generators, built.labels)  # an empty memo
    subgroups = ca.all_subgroups(g).subgroups
    expected = [(ca.derived_series(a).length, reached_trivial(lower_central_series(a)))
                for a in subgroups]
    g.clear_cache()

    def refused(*args):
        raise AssertionError("a series factor was computed")

    monkeypatch.setattr(series_module, "section_info", refused)
    subgroups = ca.all_subgroups(g).subgroups
    assert [(ca.derived_length(a), ca.is_nilpotent(a)) for a in subgroups] == expected
