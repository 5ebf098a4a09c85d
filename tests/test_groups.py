"""Core group construction, arithmetic and serialization."""

import json
import random
import warnings
from collections import Counter
from functools import partial
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import complementa as ca
import complementa.constructions as constructions_module
import complementa.groups as groups_module
from complementa.groups import ActionError, CapExceededError, GroupError
from references import reference_action, trivial_action


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
    sd = ca.semidirect_product(a, b, trivial_action(a, b))
    dp = ca.direct_product(a, b)
    assert sd.mult == dp.mult


def test_semidirect_dihedral16_fingerprint():
    # oracle: permutation representation of the same dihedral group
    c8, c2 = ca.cyclic(8), ca.cyclic(2)
    sd = ca.semidirect_product(c8, c2, {1: tuple((-i) % 8 for i in range(8))})
    perm = ca.from_generators([(1, 2, 3, 4, 5, 6, 7, 0), (0, 7, 6, 5, 4, 3, 2, 1)])
    for g in (sd, perm):
        assert g.order == 16 and not ca.is_abelian(g) and ca.exponent(g) == 8
    assert Counter(ca.element_orders(sd)) == Counter(ca.element_orders(perm)) == \
        Counter({1: 1, 2: 9, 4: 2, 8: 4})


def test_semidirect_rejects_non_automorphism():
    c4, c2 = ca.cyclic(4), ca.cyclic(2)
    # i -> i+1 is no automorphism (does not fix the identity)
    with pytest.raises(ActionError):
        ca.semidirect_product(c4, c2, {1: (1, 2, 3, 0)})


def test_semidirect_rejects_identity_fixing_non_automorphism():
    c4, c2 = ca.cyclic(4), ca.cyclic(2)
    # fixes 0 and permutes C4, but sends 1·1 = 2 to 1 and 1·1 to 2·2 = 0
    with pytest.raises(ActionError, match="not an automorphism"):
        ca.semidirect_product(c4, c2, {1: (0, 2, 1, 3)})


def test_action_images_are_checked_in_order():
    c4, klein = ca.cyclic(4), ca.direct_product(ca.cyclic(2), ca.cyclic(2))
    no_automorphism, no_permutation = (0, 2, 1, 3), (1, 0, 2, 3)
    for images, named in (({1: no_automorphism, 2: no_permutation},
                           "image of 1 is not an automorphism"),
                          ({2: no_permutation, 1: no_automorphism},
                           "image of 2 is not an identity-fixing permutation")):
        with pytest.raises(ActionError, match=named):
            ca.semidirect_product(c4, klein, images)


@pytest.mark.parametrize("n_grp", [
    ca.cyclic(4), ca.direct_product(ca.cyclic(2), ca.cyclic(2)), ca.cyclic(6),
    ca.symmetric3().group, ca.elementary_abelian(2, 3).group,
], ids=["c4", "c2xc2", "c6", "s3", "c2xc2xc2"])
def test_an_image_is_refused_as_no_automorphism_exactly_when_it_is_none(n_grp):
    """Every identity-fixing permutation p of N as the image of C2's
    generator: "not an automorphism" exactly when p(a·b) ≠ p(a)·p(b) for
    some a and b, decided here cell by cell."""
    n, mult = n_grp.order, n_grp.mult
    c2 = ca.cyclic(2)
    for rest in permutations(range(1, n)):
        p = (0, *rest)
        homomorphism = all(p[mult[a][b]] == mult[p[a]][p[b]]
                           for a in range(n) for b in range(n))
        try:
            ca.semidirect_product(n_grp, c2, {1: p})
            said = False
        except ActionError as exc:
            said = "not an automorphism" in str(exc)
        assert said == (not homomorphism), p


def reference_product(n_grp, h_grp, alpha):
    """Per-cell oracle for both products: (n1, h1)(n2, h2) =
    (n1 · n2^(h1^-1), h1 h2) on pairs encoded as n·|H| + h, where
    ``alpha[h][n]`` is n^h."""
    ho = h_grp.order
    return tuple(
        tuple(n_grp.mult[n1][alpha[h_grp.inv[h1]][n2]] * ho + h_grp.mult[h1][h2]
              for n2 in range(n_grp.order) for h2 in range(ho))
        for n1 in range(n_grp.order) for h1 in range(ho))


# uncached builders, so every semidirect product they make runs again
SPLIT_EXTENSIONS = {
    "holomorph8": constructions_module.holomorph8.__wrapped__,
    "split-p5-2": partial(constructions_module.split_p5_group.__wrapped__, 2),
    "split-p5-3": partial(constructions_module.split_p5_group.__wrapped__, 3),
    **{f"hol{n}": partial(constructions_module.holomorph_cyclic.__wrapped__, n)
       for n in range(1, 17)},
}


@pytest.mark.parametrize("name", SPLIT_EXTENSIONS)
def test_semidirect_products_match_the_per_cell_reference(monkeypatch, name):
    products = []

    def recording(n_grp, h_grp, images, cap=groups_module.CONSTRUCTION_CAP):
        g = groups_module.semidirect_product(n_grp, h_grp, images, cap=cap)
        products.append((n_grp, h_grp, reference_action(n_grp, h_grp, images), g))
        return g

    monkeypatch.setattr(constructions_module, "semidirect_product", recording)
    SPLIT_EXTENSIONS[name]()
    assert products
    for n_grp, h_grp, alpha, g in products:
        assert g.mult == reference_product(n_grp, h_grp, alpha)


@pytest.mark.parametrize("a, b", [
    (ca.symmetric3().group, ca.symmetric3().group),
    (ca.cyclic(2), ca.alternating4().group),
], ids=["s3xs3", "c2xa4"])
def test_direct_products_match_the_per_cell_reference(a, b):
    g = ca.direct_product(a, b)
    assert g.mult == reference_product(a, b, [tuple(range(a.order))] * b.order)


def test_semidirect_rejects_inconsistent_extension():
    # C2 acting on C5 through an order-4 automorphism violates a^2 = 1
    c5, c2 = ca.cyclic(5), ca.cyclic(2)
    doubling = tuple((2 * i) % 5 for i in range(5))
    with pytest.raises(ActionError):
        ca.semidirect_product(c5, c2, {1: doubling})


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


def test_validation_rejects_broken_tables(loop5):
    with pytest.raises(GroupError):
        ca.FiniteGroup([[0, 1], [1, 1]], [1], ["e", "x"])  # not a Latin square
    # Latin square with identity that is not associative; [1, 2] generates it
    with pytest.raises(GroupError, match="not associative"):
        ca.FiniteGroup(loop5, [1, 2], list("exabc"))


def test_validation_rejects_order_640_loop(loop640):
    # above the order at which the old exhaustive audit stopped
    mult, gens = loop640
    with pytest.raises(GroupError, match="not associative"):
        ca.FiniteGroup(mult, gens, [str(i) for i in range(len(mult))])


def test_validation_rejects_an_entry_beyond_int32():
    with pytest.raises(GroupError, match=r"mult entries must be integers in 0\.\.2"):
        ca.FiniteGroup([[0, 1, 2], [1, 2, 0], [2, 0, 2**70]], [1], list("exy"))


C3_ROWS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

# (row, column, entry) put into the C3 table; each entry reads as the value
# it replaces, or is no integer at all.
NON_INT_ENTRIES = {
    "float": (1, 2, 0.0),
    "str": (1, 0, "1"),
    "none": (2, 2, None),
    "bool-one": (1, 0, True),
    "bool-zero": (2, 1, False),
    "nested-list": (1, 1, [2]),
    "over-int32": (2, 0, 2**31 + 2),
}


def c3_rows_with(r, c, entry):
    rows = [list(row) for row in C3_ROWS]
    rows[r][c] = entry
    return rows


@pytest.mark.parametrize("r, c, entry", NON_INT_ENTRIES.values(), ids=NON_INT_ENTRIES)
def test_finite_group_refuses_non_int_entries(r, c, entry):
    with pytest.raises(GroupError, match=r"mult entries must be integers in 0\.\.2"):
        ca.FiniteGroup(c3_rows_with(r, c, entry), [1], list("exy"))


@pytest.mark.parametrize("r, c, entry", NON_INT_ENTRIES.values(), ids=NON_INT_ENTRIES)
def test_cayley_document_refuses_non_int_entries(r, c, entry):
    flat = [v for row in c3_rows_with(r, c, entry) for v in row]
    doc = {"version": "cayley-v1", "order": 3, "mult": flat, "generators": [1]}
    with pytest.raises(GroupError, match=r"mult entries must be integers in 0\.\.2"):
        ca.group_from_dict(doc)


@pytest.mark.parametrize("rows", [
    [[0, 1, 2], [1, 2], [2, 0, 1]],
    [[0, 1, 2], [1, 2, 0, 1], [2, 0, 1]],
    [[0, 1, 2], [1, 2, 0], 7],
    [[0, 1, 2], [1, 2, 0], "201"],
], ids=["short-row", "long-row", "int-row", "str-row"])
def test_finite_group_refuses_ragged_rows(rows):
    with pytest.raises(GroupError, match=r"mult entries must be integers in 0\.\.2"):
        ca.FiniteGroup(rows, [1], list("exy"))


def test_cayley_document_refuses_rows_for_a_flat_table():
    doc = {"version": "cayley-v1", "order": 3, "mult": [list(row) for row in C3_ROWS],
           "generators": [1]}
    with pytest.raises(GroupError):
        ca.group_from_dict(doc)


def load_by_json(text):
    """The cayley-v1 text loader's reference: ``json`` decodes the whole text."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise GroupError("cayley-v1 document is nested too deeply to decode") from None
    return ca.group_from_dict(doc)


def load_outcome(load, text):
    """The group a loader gives (rows, inverses, generators, labels), or the
    type and message of its error; a warning is an error here."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            g = load(text)
        except (GroupError, ValueError) as exc:
            return type(exc), str(exc)
    return g.mult, g.inv, g.generators, g.labels


def cayley_text(doc, cells=None, sep=", ", keys=None, extra=()):
    """cayley-v1 text of ``doc`` with the mult array written as ``cells``
    (its entries by default) joined by ``sep``, the keys in the order
    ``keys``, and the (key, value text) pairs ``extra`` after them."""
    cells = [str(v) for v in doc["mult"]] if cells is None else cells
    values = {k: json.dumps(v) for k, v in doc.items()}
    values["mult"] = "[" + sep.join(cells) + "]"
    pairs = [(json.dumps(k), values[k]) for k in keys or doc] + list(extra)
    return "{" + ", ".join(f"{k}: {v}" for k, v in pairs) + "}"


S3_DOC = ca.group_to_dict(ca.symmetric3().group)


def s3_cells_with(i, token):
    cells = [str(v) for v in S3_DOC["mult"]]
    cells[i] = token
    return cells


# (text, whether the numpy read vouches for it)
LOADER_CASES = {
    "canonical": (json.dumps(S3_DOC), True),
    "indented": (json.dumps(S3_DOC, indent=2), True),
    "key-order": (cayley_text(S3_DOC, keys=["labels", "mult", "generators", "order",
                                            "version"]), True),
    "array-whitespace": (cayley_text(S3_DOC, sep=" ,\n\t\r "), True),
    "mult-label": (json.dumps({**S3_DOC, "labels": ["mult", *S3_DOC["labels"][1:]]}),
                   True),
    "extra-key": (cayley_text(S3_DOC, extra=[('"note"', '"a \\"mult\\": [1]"')]), True),
    "duplicate-mult": (cayley_text(S3_DOC, extra=[('"mult"', json.dumps(S3_DOC["mult"]))]),
                       False),
    "duplicate-mult-escaped": (cayley_text(S3_DOC, extra=[('"m\\u0075lt"', "[0]")]), False),
    "nested-mult-before": (cayley_text(S3_DOC, keys=["version", "order", "labels"],
                                       extra=[('"meta"', '{"mult": [0]}'),
                                              ('"mult"', json.dumps(S3_DOC["mult"]))]),
                           False),
    "nested-mult-after": (cayley_text(S3_DOC, extra=[('"meta"', '{"mult": [0]}')]), False),
    "escaped-quote-key": (cayley_text(S3_DOC, keys=["version", "order"],
                                      extra=[('"x\\"mult"', json.dumps(S3_DOC["mult"])),
                                             ('"mult"', json.dumps(S3_DOC["mult"]))]),
                          False),
    "other-constant": (cayley_text(S3_DOC, extra=[('"note"', "NaN")]), False),
    "negative": (cayley_text(S3_DOC, s3_cells_with(1, "-1")), False),
    "negative-zero": (cayley_text(S3_DOC, s3_cells_with(0, "-0")), False),
    "leading-zero": (cayley_text(S3_DOC, s3_cells_with(1, "01")), False),
    "double-zero": (cayley_text(S3_DOC, s3_cells_with(0, "00")), False),
    "float": (cayley_text(S3_DOC, s3_cells_with(1, "1.0")), False),
    "exponent": (cayley_text(S3_DOC, s3_cells_with(1, "1e0")), False),
    "true": (cayley_text(S3_DOC, s3_cells_with(1, "true")), False),
    "trailing-element": (cayley_text(S3_DOC, [*s3_cells_with(0, "0"), ""]), False),
    "empty-element": (cayley_text(S3_DOC, s3_cells_with(4, "")), False),
    "empty-array": (cayley_text(S3_DOC, []), False),
    "blank-array": (cayley_text(S3_DOC, [" "]), False),
    "space-in-number": (cayley_text(S3_DOC, s3_cells_with(7, "1 2")), False),
    "out-of-range": (cayley_text(S3_DOC, s3_cells_with(7, "6")), False),
    "int64-max": (cayley_text(S3_DOC, s3_cells_with(7, str(2**63 - 1))), False),
    "huge": (cayley_text(S3_DOC, s3_cells_with(7, str(2**70))), False),
    "huge-wrapping": (cayley_text(S3_DOC, s3_cells_with(7, str(2**64 + 2))), False),
    "non-ascii-digit": (cayley_text(S3_DOC, s3_cells_with(7, "\u0662")), False),
    "wrong-order": (json.dumps({**S3_DOC, "order": 5}), False),
    "bad-version": (json.dumps({**S3_DOC, "version": "cayley-v2"}), False),
    "not-latin": (cayley_text(S3_DOC, s3_cells_with(7, "2")), True),
    "bad-generator": (json.dumps({**S3_DOC, "generators": [6]}), True),
    "nested-too-deeply": (cayley_text(S3_DOC, extra=[('"deep"', "[" * 100_000 + "]" * 100_000)]),
                          False),
    "truncated": (json.dumps(S3_DOC)[:-1], False),
    "top-level-list": ("[" + json.dumps(S3_DOC) + "]", False),
}


@pytest.mark.parametrize("text, vouched", LOADER_CASES.values(), ids=LOADER_CASES)
def test_text_loader_matches_json_on_listed_documents(text, vouched):
    assert load_outcome(ca.group_from_json, text) == load_outcome(load_by_json, text)
    assert (groups_module._read_table_text(text) is not None) == vouched


def test_text_loader_reads_every_catalog_table_on_the_fast_path(monkeypatch):
    monkeypatch.setattr(groups_module, "group_from_dict", None)  # the fallback's
    for entry in ca.catalog():
        g = entry.build().group
        loaded = ca.group_from_json(json.dumps(ca.group_to_dict(g)))
        assert (loaded.mult, loaded.generators, loaded.labels) == (g.mult, g.generators,
                                                                    g.labels)


LOADER_BASES = [ca.group_to_dict(ca.catalog_entry(name).build().group)
                for name in ("c1", "c4", "s3", "ea2r2", "c5", "dih8", "a4", "c12")]

# Spellings of one cell: the value itself, JSON spellings of other numbers,
# and text that is not a JSON number.
CELL_TOKENS = ["-0", "0.0", "1e0", "01", "00", "true", "null", '"1"', "", " ", "1 1",
               "-1", "12", str(2**63), str(2**70), "\u0661", "[0]", "NaN"]


@st.composite
def cayley_texts(draw):
    """cayley-v1 text of a small catalog group, its keys in any order and its
    array with any JSON whitespace, one time in two with one cell, field or
    extra key changed."""
    doc = dict(draw(st.sampled_from(LOADER_BASES)))
    n = doc["order"]
    cells = [str(v) for v in doc["mult"]]
    change = draw(st.sampled_from(["none", "none", "cell", "value", "order", "extra",
                                   "drop", "append"]))
    if change == "cell":
        cells[draw(st.integers(0, n * n - 1))] = draw(st.sampled_from(CELL_TOKENS))
    elif change == "value":
        cells[draw(st.integers(0, n * n - 1))] = str(draw(st.integers(0, 2 * n)))
    elif change == "order":
        doc["order"] = draw(st.integers(0, 2 * n))
    elif change == "drop":
        del cells[draw(st.integers(0, n * n - 1)):]
    elif change == "append":
        cells.append(draw(st.sampled_from(["", "0"])))
    keys = draw(st.permutations(list(doc)))
    sep = draw(st.sampled_from([",", ", ", ",\n  ", " ,\t", "\r\n,\r\n"]))
    extra = []
    if change == "extra":
        extra = [draw(st.sampled_from([('"mult"', "[0]"), ('"meta"', '{"mult": [0]}'),
                                       ('"meta"', '["mult"]'), ('"x"', "Infinity"),
                                       ('"m\\u0075lt"', json.dumps(doc["mult"]))]))]
    return cayley_text(doc, cells, sep, keys, extra)


@given(cayley_texts())
@settings(derandomize=True, max_examples=300, deadline=None)
def test_text_loader_matches_json_on_generated_documents(text):
    assert load_outcome(ca.group_from_json, text) == load_outcome(load_by_json, text)


def test_finite_group_refuses_a_non_integer_array():
    for dtype in (float, bool):
        with pytest.raises(GroupError, match=r"mult entries must be integers in 0\.\.2"):
            ca.FiniteGroup(np.array(C3_ROWS, dtype=dtype), [1], list("exy"))


def test_finite_group_takes_tuple_and_list_rows():
    for rows in (C3_ROWS, [list(row) for row in C3_ROWS]):
        g = ca.FiniteGroup(rows, [1], list("exy"))
        assert g.mult == C3_ROWS and g.inv == (0, 2, 1)


def inverses_by_row_scan(mult) -> tuple[int, ...]:
    """Reference inverses: the column of 0 in each row, found by a scan."""
    return tuple(row.index(0) for row in mult)


def relabeled(g, rng):
    """An isomorphic copy of g with every element but 0 renamed at random."""
    perm = np.array([0] + rng.sample(range(1, g.order), g.order - 1))
    table = np.empty((g.order, g.order), dtype=np.int64)
    table[perm[:, None], perm[None, :]] = perm[np.array(g.mult)]
    labels = [""] * g.order
    for i, label in enumerate(g.labels):
        labels[perm[i]] = label
    return ca.FiniteGroup(table.tolist(), [int(perm[s]) for s in g.generators], labels)


def test_inverses_match_the_row_scan():
    groups = [entry.build().group for entry in ca.catalog()]
    groups.append(relabeled(ca.holomorph_cyclic(16).group, random.Random(16)))
    for g in groups:
        assert g.inv == inverses_by_row_scan(g.mult), g.name
        assert all(type(i) is int for i in g.inv), g.name


def test_array_and_rows_give_the_same_group():
    for entry in ca.catalog():
        g = entry.build().group
        from_rows = ca.FiniteGroup([list(row) for row in g.mult], g.generators, g.labels)
        from_array = ca.FiniteGroup(np.array(g.mult, dtype=np.int32), g.generators,
                                    g.labels)
        for h in (from_rows, from_array):
            assert (h.mult, h.inv, h.generators) == (g.mult, g.inv, g.generators)
            assert all(type(v) is int for v in h.mult[-1]), entry.name


def test_rows_past_order_257_hold_one_int_object_per_value():
    hol32 = ca.holomorph_cyclic(32).group
    loaded = ca.group_from_json(json.dumps(ca.group_to_dict(hol32)))
    built = ca.direct_product(ca.cyclic(2), ca.cyclic(150))
    for g, order in ((loaded, 512), (built, 300)):
        assert g.order == order
        assert len({id(v) for row in g.mult for v in row}) == order
    assert loaded.mult == hol32.mult
    assert built.mult == tuple(tuple((a // 150 ^ b // 150) * 150 + (a + b) % 150
                                     for b in range(300)) for a in range(300))


def _last_block_defect(defect):
    """The table, generators and labels of C515 × C2 (order 1030, more than
    one block), with one ``defect`` that only the last block of rows, of
    columns or of Light's test can see."""
    g = ca.direct_product(ca.cyclic(515), ca.cyclic(2))
    n = g.order
    t = np.array(g.mult, dtype=np.int32)
    blocks = groups_module._blocks(n)
    last = blocks[-1].start
    assert len(blocks) > 1 and last <= n - 4
    ident = np.arange(n)
    if defect == "row":  # rows n-2 and n-1 trade one cell: each repeats a value
        t[[n - 2, n - 1], 5] = t[[n - 1, n - 2], 5]
    elif defect == "column":  # columns n-2 and n-1 trade one cell
        t[5, [n - 2, n - 1]] = t[5, [n - 1, n - 2]]
    else:  # flip the intercalate of rows n-2, n-1 and columns 514, 515
        t[n - 2:, 514:516] = t[n - 2:, 514:516][:, ::-1]
        assert (np.sort(t, axis=1) == ident).all()
        assert (np.sort(t, axis=0) == ident[:, None]).all()
        # (x·s)·y differs from x·(s·y) only for x in the last block
        wrong = {x for s in g.generators for x in np.flatnonzero(
            (t[t[:, s]] != t.take(t[s], axis=1)).any(axis=1)).tolist()}
        assert wrong and min(wrong) >= last
    # every block but the last passes both sorts
    assert (np.sort(t[:last], axis=1) == ident).all()
    assert (np.sort(t[:, :last], axis=0) == ident[:, None]).all()
    return t, g.generators, g.labels


@pytest.mark.parametrize("form", ["array", "rows"])
@pytest.mark.parametrize("defect, message", [
    ("row", "table is not a Latin square"),
    ("column", "table is not a Latin square"),
    ("light", "multiplication table is not associative"),
])
def test_a_defect_in_the_last_block_alone_is_refused(defect, message, form):
    t, gens, labels = _last_block_defect(defect)
    mult = t if form == "array" else t.tolist()
    with pytest.raises(GroupError, match=message):
        ca.FiniteGroup(mult, gens, labels)


def exhaustive_associative(mult) -> bool:
    """Reference verdict: (a·b)·c == a·(b·c) over all n³ triples."""
    table = np.array(mult, dtype=np.int32)
    return all(np.array_equal(table[table[a]], table[a][table])
               for a in range(len(table)))


def light_accepts(mult, generators) -> bool:
    """Whether FiniteGroup's validation accepts a loop table."""
    try:
        ca.FiniteGroup(mult, generators, [str(i) for i in range(len(mult))])
    except GroupError as exc:
        assert "not associative" in str(exc)
        return False
    return True


def loop_isotope(mult, rng):
    """A random principal loop isotope of a Latin square, identity at 0.

    Rows and columns are permuted, x∘y = R_v⁻¹(x)·L_u⁻¹(y) makes u·v the
    identity, and swapping the labels of u·v and 0 moves it to index 0.
    """
    n = len(mult)
    rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
    t = [[mult[rows[x]][cols[y]] for y in range(n)] for x in range(n)]
    u, v = rng.randrange(n), rng.randrange(n)
    r_inv = {t[x][v]: x for x in range(n)}
    l_inv = {t[u][y]: y for y in range(n)}
    swap = list(range(n))
    swap[0], swap[t[u][v]] = t[u][v], 0
    return [[swap[t[r_inv[swap[x]]][l_inv[swap[y]]]] for y in range(n)]
            for x in range(n)]


def flip_intercalate(mult, rng):
    """Swap a random 2×2 subsquare [[a, b], [b, a]] off row and column 0.

    The result is again a loop with identity 0, and usually not associative;
    returns None when the table has no such subsquare.
    """
    n = len(mult)
    col_of = [{v: c for c, v in enumerate(row)} for row in mult]
    found = [(r1, r2, c1, c2)
             for r1 in range(1, n) for r2 in range(r1 + 1, n) for c1 in range(1, n)
             for c2 in [col_of[r2][mult[r1][c1]]]
             if c2 > c1 and mult[r1][c2] == mult[r2][c1]]
    if not found:
        return None
    r1, r2, c1, c2 = rng.choice(found)
    out = [list(row) for row in mult]
    out[r1][c1], out[r1][c2], out[r2][c1], out[r2][c2] = (
        mult[r1][c2], mult[r1][c1], mult[r2][c2], mult[r2][c1])
    return out


def test_light_matches_exhaustive_on_catalog():
    # building each group ran Light's test; the reference must agree
    for entry in ca.catalog():
        g = entry.build().group
        assert exhaustive_associative(g.mult), entry.name


def test_light_matches_exhaustive_on_loops(loop5):
    rng = random.Random(20070)
    sources = [e.build().group.mult for e in ca.catalog() if e.order <= 24] + [loop5]
    verdicts = Counter()
    for mult in sources:
        for _ in range(2):
            loop = loop_isotope(mult, rng)
            tables = [loop] + [flip_intercalate(loop, rng) for _ in range(2)]
            for table in filter(None, tables):
                n = len(table)
                gens = rng.sample(range(1, n), n - 1)
                expected = exhaustive_associative(table)
                assert light_accepts(table, gens) == expected
                verdicts[expected] += 1
    # principal loop isotopes of groups are groups (Albert's theorem), so the
    # non-associative cases come from the flips and the isotopes of LOOP5
    assert verdicts[False] > verdicts[True] > 0, verdicts


def test_light_runs_over_at_most_log2_n_generators(monkeypatch):
    g = ca.holomorph_cyclic(8).group
    doc = ca.group_to_dict(g)
    doc["generators"] = list(range(g.order))
    runs = []

    def counted(mult, generators):
        kept, reached = original(mult, generators)
        runs.append(len(kept))
        return kept, reached

    original = groups_module._light_generators
    monkeypatch.setattr(groups_module, "_light_generators", counted)
    assert ca.group_from_dict(doc).mult == g.mult
    assert len(runs) == 1 and 0 < runs[0] <= 5  # floor(log2 32)


def test_quotient_projection_is_homomorphism_on_catalog():
    for entry in ca.catalog():
        if entry.order > 64:
            continue
        g = entry.build().group
        table = np.array(g.mult)
        for sub in ca.all_subgroups(g).subgroups:
            if not ca.is_normal(g, sub):
                continue
            quo, proj = ca.quotient(g, sub.members)
            p, q = np.array(proj), np.array(quo.mult)
            assert np.array_equal(p[table], q[p[:, None], p[None, :]]), entry.name


def test_validation_rejects_non_generating_set():
    with pytest.raises(GroupError):
        ca.FiniteGroup([[0, 1], [1, 0]], [], ["e", "x"])


def test_labels_are_generator_words():
    g = ca.from_generators([(1, 2, 0)], names=["r"])
    assert g.labels == ("e", "r", "r^2")
