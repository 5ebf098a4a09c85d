"""Core group construction, arithmetic and serialization."""

from collections import Counter

import pytest

import complementa as ca
from complementa.groups import ActionError, CapExceededError, GroupError


def brute_force_perm_closure(perms):
    """Independent closure oracle: repeated composition until stable."""
    if not perms:
        return {()}
    n = len(perms[0])
    elems = {tuple(range(n))} | {tuple(p) for p in perms}
    while True:
        new = {tuple(q[a[i]] for i in range(n)) for a in elems for q in elems}
        if new <= elems:
            return elems
        elems |= new


def test_from_generators_single_involution():
    g = ca.from_generators([(1, 0)])
    assert g.order == 2
    assert ca.element_order(g, 1) == 2


def test_from_generators_s3_matches_closure_oracle():
    perms = [(1, 0, 2), (1, 2, 0)]
    g = ca.from_generators(perms)
    oracle = brute_force_perm_closure(perms)
    assert g.order == len(oracle) == 6
    assert not ca.is_abelian(g)


def test_from_generators_empty_is_trivial():
    g = ca.from_generators([])
    assert g.order == 1
    assert g.generators == ()


def test_from_generators_deterministic():
    perms = [(1, 2, 3, 0), (1, 0, 3, 2)]
    g1 = ca.from_generators(perms)
    g2 = ca.from_generators(perms)
    assert g1.mult == g2.mult
    assert g1.labels == g2.labels


def test_from_generators_cap():
    with pytest.raises(CapExceededError) as exc:
        ca.from_generators([(1, 2, 3, 4, 0)], cap=3)
    assert exc.value.cap_name == "construction"


def test_from_generators_rejects_non_permutation():
    with pytest.raises(GroupError):
        ca.from_generators([(0, 0, 1)])


def test_cyclic_trivial_and_orders():
    assert ca.cyclic(1).order == 1
    c8 = ca.cyclic(8)
    assert max(ca.element_orders(c8)) == 8
    c4 = ca.cyclic(4)
    assert sorted(ca.element_orders(c4)) == [1, 2, 4, 4]


def test_cyclic_generator_is_index_1():
    c6 = ca.cyclic(6)
    assert c6.generators == (1,)


def test_direct_product_klein():
    v4 = ca.direct_product(ca.cyclic(2), ca.cyclic(2))
    assert v4.order == 4
    assert ca.is_elementary_abelian(v4)


def test_direct_product_nested_exponent():
    g = ca.direct_product(ca.direct_product(ca.cyclic(2), ca.cyclic(2)), ca.cyclic(2))
    assert g.order == 8
    assert ca.exponent(g) == 2


def test_direct_product_orders_multiply():
    s3 = ca.symmetric3().group
    g = ca.direct_product(ca.cyclic(3), s3)
    assert g.order == 18


def test_semidirect_trivial_action_equals_direct():
    a, b = ca.cyclic(3), ca.cyclic(4)
    sd = ca.semidirect_product(a, b, ca.trivial_action(a, b))
    dp = ca.direct_product(a, b)
    assert sd.mult == dp.mult


def test_semidirect_dihedral16_fingerprint():
    # oracle: permutation representation of the same dihedral group
    c8, c2 = ca.cyclic(8), ca.cyclic(2)
    action = ca.ActionSpec(c2, c8, {1: tuple((-i) % 8 for i in range(8))})
    sd = ca.semidirect_product(c8, c2, action)
    perm = ca.from_generators([(1, 2, 3, 4, 5, 6, 7, 0), (0, 7, 6, 5, 4, 3, 2, 1)])
    for g in (sd, perm):
        assert g.order == 16 and not ca.is_abelian(g) and ca.exponent(g) == 8
    assert Counter(ca.element_orders(sd)) == Counter(ca.element_orders(perm)) == \
        Counter({1: 1, 2: 9, 4: 2, 8: 4})


def test_semidirect_rejects_non_automorphism():
    c4, c2 = ca.cyclic(4), ca.cyclic(2)
    # i -> i+1 is no automorphism (does not fix the identity)
    with pytest.raises(ActionError):
        ca.semidirect_product(c4, c2, ca.ActionSpec(c2, c4, {1: (1, 2, 3, 0)}))


def test_semidirect_rejects_inconsistent_extension():
    # C2 acting on C5 through an order-4 automorphism violates a^2 = 1
    c5, c2 = ca.cyclic(5), ca.cyclic(2)
    doubling = tuple((2 * i) % 5 for i in range(5))
    with pytest.raises(ActionError):
        ca.semidirect_product(c5, c2, ca.ActionSpec(c2, c5, {1: doubling}))


def test_quotient_by_whole_group_and_trivial(s3):
    quo, proj = ca.quotient(s3, (1 << s3.order) - 1)
    assert quo.order == 1
    quo2, proj2 = ca.quotient(s3, 1)
    assert quo2.order == s3.order
    assert sorted(proj2) == list(range(s3.order))
    assert quo2.mult == s3.mult


def test_quotient_requires_normal(s3):
    sub = ca.generated_subgroup(s3, (1,))  # an order-2 subgroup, not normal
    with pytest.raises(ca.PreconditionError):
        ca.quotient(s3, sub.members)


def test_quotient_projection_is_homomorphism(hol8):
    g = hol8.group
    x2 = g.mult[hol8.elements["x"]][hol8.elements["x"]]
    n = ca.generated_subgroup(g, (x2,))
    quo, proj = ca.quotient(g, n.members)
    assert quo.order == 8
    assert ca.is_elementary_abelian(quo)
    for a in range(g.order):
        for b in range(g.order):
            assert proj[g.mult[a][b]] == quo.mult[proj[a]][proj[b]]


def test_element_order_and_exponent(hol8):
    g = hol8.group
    assert ca.element_order(g, 0) == 1
    assert ca.exponent(g) == 8
    e8 = ca.elementary_abelian(2, 3).group
    assert ca.exponent(e8) == 2


def test_primes_of(s3, hol8):
    assert ca.primes_of(ca.trivial_group()) == set()
    assert ca.primes_of(s3) == {2, 3}
    assert ca.primes_of(hol8.group) == {2}


def test_serialization_roundtrip(hol8):
    data = ca.group_to_dict(hol8.group)
    assert data["version"] == "cayley-v1"
    assert list(data) == ["version", "order", "mult", "generators", "labels"]
    g2 = ca.group_from_dict(data)
    assert g2.mult == hol8.group.mult
    assert g2.labels == hol8.group.labels


def test_serialization_rejects_bad_version():
    with pytest.raises(GroupError):
        ca.group_from_dict({"version": "cayley-v2", "order": 1, "mult": [0]})


@pytest.mark.parametrize("doc", [
    {"version": "cayley-v1", "mult": [0]},
    {"version": "cayley-v1", "order": "1", "mult": [0]},
    {"version": "cayley-v1", "order": 2, "mult": [0, 1, 1, "0"]},
    {"version": "cayley-v1", "order": 2, "mult": [0, 1, 1, 0.0]},
    {"version": "cayley-v1", "order": 2, "mult": [0, 1, 2**70, 0]},
    {"version": "cayley-v1", "order": 2, "mult": [0, 1, 1, -1]},
    {"version": "cayley-v1", "order": 2, "mult": [0, 1, 1, 0], "generators": 1},
    {"version": "cayley-v1", "order": 2, "mult": [0, 1, 1, 0], "generators": [True]},
    {"version": "cayley-v1", "order": 2, "mult": [0, 1, 1, 0], "generators": [1],
     "labels": ["e", 1]},
], ids=["no-order", "string-order", "string-entry", "float-entry",
        "huge-entry", "negative-entry",
        "generators-not-list", "bool-generator", "non-string-label"])
def test_serialization_rejects_malformed_fields(doc):
    with pytest.raises(GroupError):
        ca.group_from_dict(doc)


def test_validation_rejects_broken_tables():
    with pytest.raises(GroupError):
        ca.FiniteGroup([[0, 1], [1, 1]], [1], ["e", "x"])  # not a Latin square
    # Latin square with identity that is not associative (order 5 loop)
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(GroupError):
        ca.FiniteGroup(loop, [1], list("exabc"))


def test_validation_rejects_non_generating_set():
    with pytest.raises(GroupError):
        ca.FiniteGroup([[0, 1], [1, 0]], [], ["e", "x"])


def test_labels_are_generator_words():
    g = ca.from_generators([(1, 2, 0)], names=["r"])
    assert g.labels == ("e", "r", "r^2")
