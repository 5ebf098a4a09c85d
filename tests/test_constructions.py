"""Distinguished constructions: relation audits, handles, catalog fingerprints."""

from collections import Counter

import pytest

import complementa as ca
from complementa.groups import CapExceededError


def conj(g, h, by):
    return g.mult[g.mult[g.inv[by]][h]][by]


def test_holomorph8_relations(hol8):
    g = hol8.group
    x, a, b = (hol8.elements[k] for k in "xab")
    assert ca.element_order(g, x) == 8
    assert ca.element_order(g, a) == 2
    assert ca.element_order(g, b) == 2
    assert conj(g, x, a) == g.inv[x]            # x^a = x^-1
    assert conj(g, x, b) == g.power(x, 5)       # x^b = x^5
    assert g.mult[a][b] == g.mult[b][a]
    v = hol8.subgroups["V"]
    assert v.order == 4 and ca.is_elementary_abelian(v)


def test_holomorph8_order_and_handles(hol8):
    assert hol8.group.order == 32
    assert hol8.subgroups["x"].order == 8
    assert hol8.subgroups["a"].order == 2
    assert hol8.subgroups["b"].order == 2


@pytest.mark.parametrize("p", [2, 3])
def test_split_p5_relations(p):
    nm = ca.split_p5_group(p)
    g = nm.group
    x, a, b, c = (nm.elements[k] for k in "xabc")
    assert g.order == p ** 5
    assert ca.element_order(g, x) == p * p
    assert ca.element_order(g, a) == p
    assert conj(g, x, a) == g.power(x, p + 1)   # x^a = x^(p+1)
    assert conj(g, b, x) == g.mult[b][c]        # b^x = bc
    assert conj(g, c, x) == c                   # c^x = c
    assert conj(g, b, a) == b                   # b^a = b
    assert conj(g, c, a) == c                   # c^a = c
    assert nm.subgroups["A"].order == p ** 2
    assert nm.subgroups["F"].order == p ** 3
    b_sub = nm.subgroups["B"]
    assert b_sub.order == p ** 3 and ca.is_elementary_abelian(b_sub)


def test_split_p5_for_p2_inversion_coincidence():
    nm = ca.split_p5_group(2)
    g = nm.group
    x, a = nm.elements["x"], nm.elements["a"]
    assert conj(g, x, a) == g.inv[x]  # x^3 = x^-1 since |x| = 4


def test_split_p5_rejects_large_p():
    with pytest.raises(CapExceededError):
        ca.split_p5_group(5)


@pytest.mark.parametrize("build, requested", [
    (lambda: ca.cyclic(10**6), 10**6),
    (lambda: ca.dihedral(2**70), 2**70),
    (lambda: ca.holomorph_cyclic(4000), 4000 * 1600),
    (lambda: ca.holomorph_cyclic(2**70), 2**70),
    (lambda: ca.elementary_abelian(2, 2**70), 2**13),
    (lambda: ca.elementary_abelian(4099, 1), 4099),
], ids=["cyclic", "dihedral", "holomorph", "holomorph-huge", "elementary-rank",
        "elementary-prime"])
def test_constructions_refuse_orders_over_the_cap_before_building(build, requested):
    with pytest.raises(CapExceededError) as exc:
        build()
    assert exc.value.requested == requested


def test_elementary_abelian_beyond_six_generators():
    nm = ca.elementary_abelian(2, 7)
    assert nm.group.order == 128 and ca.exponent(nm.group) == 2
    assert sorted(nm.elements) == ["a", "b", "c", "d", "e5", "e6", "e7"]


def test_split_p5_deterministic_rebuild():
    g1 = ca.split_p5_group.__wrapped__(2).group
    g2 = ca.split_p5_group.__wrapped__(2).group
    assert g1.mult == g2.mult and g1.labels == g2.labels


def fingerprint(g):
    return (g.order, ca.is_abelian(g), ca.exponent(g),
            tuple(sorted(Counter(ca.element_orders(g)).items())))


def test_holomorph_cyclic_small():
    assert ca.holomorph_cyclic(1).group.order == 1
    h3 = ca.holomorph_cyclic(3).group
    assert h3.order == 6 and not ca.is_abelian(h3)


def test_holomorph_cyclic8_matches_distinguished_builder(hol8):
    generic = ca.holomorph_cyclic(8).group
    assert fingerprint(generic) == fingerprint(hol8.group) == \
        (32, False, 8, ((1, 1), (2, 15), (4, 8), (8, 8)))


def test_catalog_entries_rebuild_to_fingerprint():
    entries = ca.catalog()
    assert len(entries) > 50
    for entry in entries:
        g = entry.build().group
        assert g.order == entry.order, entry.name
        assert ca.is_abelian(g) == entry.abelian, entry.name
        assert ca.exponent(g) == entry.exponent, entry.name


def test_catalog_contains_required_witnesses():
    names = {e.name for e in ca.catalog()}
    assert "c4" in names            # not completely factorizable
    assert "s3" in names            # completely factorizable nonabelian
    assert "holomorph8" in names
    assert {"split-p5-2", "split-p5-3"} <= names


def test_catalog_entry_lookup_error():
    with pytest.raises(ca.PreconditionError):
        ca.catalog_entry("nonexistent")


def test_small_constructions():
    assert ca.alternating4().group.order == 12
    assert ca.dicyclic12().group.order == 12
    assert not ca.is_abelian(ca.dicyclic12().group)
    assert ca.dihedral(8).group.order == 16
    assert ca.elementary_abelian(3, 2).group.order == 9
