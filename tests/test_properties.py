"""Hypothesis property tests over the catalog and random constructions."""

import math
from itertools import permutations

from hypothesis import assume, given, settings, strategies as st

import complementa as ca
from complementa.subgroups import product_bits
from references import dedekind_identity_check

SMALL_ENTRIES = [e.name for e in ca.catalog() if e.order <= 24]

perm_strategy = st.lists(
    st.sampled_from(list(permutations(range(4)))), min_size=1, max_size=3)


@given(perm_strategy)
@settings(max_examples=60, deadline=None)
def test_from_generators_builds_valid_group(perms):
    g = ca.from_generators(perms)
    # construction validates Latin square / associativity; check determinism
    g2 = ca.from_generators(perms)
    assert g.mult == g2.mult
    assert g.order <= 24 and 24 % g.order == 0


@given(st.sampled_from(SMALL_ENTRIES), st.data())
@settings(max_examples=40, deadline=None)
def test_product_order_formula(name, data):
    g = ca.catalog_entry(name).build().group
    subs = ca.all_subgroups(g).subgroups
    a = data.draw(st.sampled_from(subs))
    b = data.draw(st.sampled_from(subs))
    ab = product_bits(g, a, b)
    inter = (a.members & b.members).bit_count()
    assert ab.bit_count() * inter == a.order * b.order


@given(st.sampled_from(SMALL_ENTRIES), st.data())
@settings(max_examples=40, deadline=None)
def test_complement_relation_symmetric(name, data):
    g = ca.catalog_entry(name).build().group
    subs = ca.all_subgroups(g).subgroups
    h = data.draw(st.sampled_from(subs))
    t = data.draw(st.sampled_from(subs))
    assume(h.members & t.members == 1)
    ht_complement = h.order * t.order == g.order
    th = product_bits(g, t, h)
    assert ht_complement == (th.bit_count() == g.order)


@given(st.sampled_from(SMALL_ENTRIES), st.data())
@settings(max_examples=40, deadline=None)
def test_modular_identity_random_triples(name, data):
    g = ca.catalog_entry(name).build().group
    subs = ca.all_subgroups(g).subgroups
    a = data.draw(st.sampled_from(subs))
    t = data.draw(st.sampled_from(subs))
    assume(a.order * t.order == g.order * (a.members & t.members).bit_count())
    b = data.draw(st.sampled_from([s for s in subs if s.contains(a)]))
    assert dedekind_identity_check(g, a, b, t)


@given(st.sampled_from(SMALL_ENTRIES), st.data())
@settings(max_examples=30, deadline=None)
def test_element_order_divides_group_order(name, data):
    g = ca.catalog_entry(name).build().group
    e = data.draw(st.integers(min_value=0, max_value=g.order - 1))
    assert g.order % ca.element_order(g, e) == 0


@given(st.integers(min_value=2, max_value=5000))
@settings(max_examples=200, deadline=None)
def test_n_of_m_matches_exact_oracle(m):
    assert ca.n_of_m(m) == m * (m - 1) + (m ** m).bit_length() - 1


@given(st.integers(min_value=1, max_value=200000), st.integers(min_value=0, max_value=500))
@settings(max_examples=200, deadline=None)
def test_zeta_bound_nondecreasing(n, step):
    assert ca.zeta_bound(n) <= ca.zeta_bound(n + step)


@given(st.integers(min_value=74, max_value=10 ** 7))
@settings(max_examples=200, deadline=None)
def test_zeta_bound_brackets_real_value(n):
    k = ca.zeta_bound(n)
    real = 5 * math.log((n - 2) / 8, 9) + 10
    assert k <= real + 1e-9 and real - 1 < k


@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(min_value=2, max_value=12))
@settings(max_examples=80, deadline=None)
def test_prop1_bound_digit_count(q, m):
    value = ca.prop1_bound(q, m)
    expected_digits = math.floor((m - 1) * m * math.log10(q) + m * math.log10(m)) + 1
    assert len(str(value)) == expected_digits


@given(st.integers(min_value=1, max_value=40))
@settings(max_examples=40, deadline=None)
def test_cyclic_serialization_roundtrip(n):
    g = ca.cyclic(n)
    data = ca.group_to_dict(g)
    assert ca.group_from_dict(data).mult == g.mult


@given(st.sampled_from(SMALL_ENTRIES))
@settings(max_examples=30, deadline=None)
def test_quotients_by_derived_subgroup_are_abelian(name):
    g = ca.catalog_entry(name).build().group
    quo, _ = ca.quotient(g, ca.derived_subgroup(g).members)
    assert ca.is_abelian(quo)
