"""Verification suites: statuses, witnesses, determinism, skip semantics."""

from itertools import combinations

import pytest

import complementa as ca
import complementa.subgroups as subgroups_module
import complementa.verify as verify_module
from complementa._primes import divisors
from complementa.subgroups import _conj_bits, bit_indices, bits_of
from complementa.verify import _Suite, _entry_suite


def naive_subset_closure_subgroups(g):
    """Reference for ``subset_closure_subgroups``: tests closure of every
    identity-containing subset of divisor size, with no pruning."""
    n = g.order
    out = []
    rows = g.mult
    for d in divisors(n):
        if d == 1:
            out.append(1)
            continue
        for combo in combinations(range(1, n), d - 1):
            bits = bits_of(combo) | 1
            closed = True
            for x in combo:
                row = rows[x]
                for y in combo:
                    if not bits >> row[y] & 1:
                        closed = False
                        break
                if not closed:
                    break
            if closed:
                out.append(bits)
    return sorted(out, key=lambda b: (b.bit_count(), bit_indices(b)))


def test_holomorph8_suite_all_pass():
    reports = ca.verify_holomorph8()
    assert [r.claim for r in reports] == [
        "holomorph8.seven-index-2",
        "holomorph8.index2-contain-derived",
        "holomorph8.quotient-elementary-8",
        "holomorph8.listed-complements",
        "holomorph8.x-supercomplemented",
        "holomorph8.no-c-separating-full",
        "holomorph8.no-c-separating-index2",
        "holomorph8.exponent-8",
    ]
    assert all(r.status == "pass" for r in reports)


def test_split_p5_suites_pass():
    for p in (2, 3):
        reports = ca.verify_split_p5(p)
        assert all(r.status == "pass" for r in reports), [
            (r.claim, r.status) for r in reports if r.status != "pass"]
        claims = {r.claim for r in reports}
        assert (f"split-p5-{p}.metabelian" in claims) == (p != 2)


def test_supercomplemented_consequences_on_holomorph(hol8):
    reports = ca.verify_supercomplemented_consequences(
        hol8.group, hol8.subgroups["x"], prefix="t")
    by_claim = {r.claim: r for r in reports}
    assert by_claim["t.hypothesis"].status == "pass"
    assert by_claim["t.solvable"].status == "pass"
    bound_report = by_claim["t.derived-length-bound"]
    assert bound_report.status == "pass"
    assert bound_report.witnesses[0]["derived_length"] == 2
    assert 18 < bound_report.witnesses[0]["bound"] < 19
    assert by_claim["t.p-subgroup-battery"].status == "pass"


def test_supercomplemented_consequences_skips():
    c4 = ca.cyclic(4)
    half = ca.generated_subgroup(c4, (2,))
    reports = ca.verify_supercomplemented_consequences(c4, half, prefix="t")
    assert len(reports) == 1 and reports[0].status == "skipped"
    assert "not supercomplemented" in reports[0].witnesses[0]

    hol = ca.holomorph8()
    reports2 = ca.verify_supercomplemented_consequences(
        hol.group, hol.subgroups["V"], prefix="t")
    assert reports2[0].status == "skipped"
    assert "not cyclic" in reports2[0].witnesses[0]


def test_minimal_normal_bounds_m8(hol8):
    reports = ca.verify_minimal_normal_bounds(hol8.group, hol8.subgroups["x"],
                                              prefix="t")
    by_claim = {r.claim: r for r in reports}
    rep = by_claim["t.minimal-normal-order-bound"]
    assert rep.status == "pass"
    for wit in rep.witnesses:
        assert wit["order"] <= wit["bound"]


def test_minimal_normal_bounds_m1_equality(s3):
    reports = ca.verify_minimal_normal_bounds(s3, ca.trivial_subgroup(s3),
                                              prefix="t")
    rep = [r for r in reports if r.claim == "t.minimal-normal-order-bound"][0]
    assert rep.status == "pass"
    assert all(w["order"] == w["q"] for w in rep.witnesses)


def test_c_separating_consequences_cyclic4():
    c4 = ca.cyclic(4)
    h = ca.generated_subgroup(c4, (2,))
    reports = ca.verify_c_separating_consequences(c4, h, prefix="t")
    by_claim = {r.claim: r.status for r in reports}
    assert by_claim == {"t.hypothesis": "pass", "t.solvable": "pass",
                        "t.primary-structure": "pass"}


def test_c_separating_consequences_skip(hol8):
    reports = ca.verify_c_separating_consequences(
        hol8.group, hol8.subgroups["x"], prefix="t")
    assert len(reports) == 1 and reports[0].status == "skipped"


def test_failed_checks_always_carry_witnesses():
    suite = _Suite()
    suite.check("demo", False)
    assert suite.reports[0].status == "fail" and suite.reports[0].witnesses


def _wrong_factorizable(g, cap=512):
    return False, ca.trivial_subgroup(g)


def _wrong_supercomplemented(g, h, cap=512):
    if h.order == 1:
        return False, ca.trivial_subgroup(g)
    return ca.is_supercomplemented(g, h, cap)


def _too_few_c_separating(g, cap=512):
    return ca.c_separating_subgroups(g, cap)[:1]


def _extra_overgroup(g, h):
    return ca.overgroups(g, h) + (ca.trivial_subgroup(g),)


@pytest.mark.parametrize("entry, claim, name, replacement", [
    ("s3", "factorizable-equivalence", "is_completely_factorizable", _wrong_factorizable),
    ("s3", "factorizable-equivalence", "is_supercomplemented", _wrong_supercomplemented),
    ("s3", "c-separating-upward-closed", "c_separating_subgroups", _too_few_c_separating),
    ("c4", "c-separating-upward-closed", "overgroups", _extra_overgroup),
], ids=["factorizable", "supercomplemented", "c-separating", "overgroups"])
def test_cross_check_claims_report_disagreement(monkeypatch, entry, claim, name,
                                                replacement):
    by_claim = {r.claim: r for r in _entry_suite(ca.catalog_entry(entry))}
    assert by_claim[f"catalog.{entry}.{claim}"].status == "pass"
    monkeypatch.setattr(verify_module, name, replacement)
    report = {r.claim: r for r in _entry_suite(ca.catalog_entry(entry))}[
        f"catalog.{entry}.{claim}"]
    assert report.status == "fail"
    assert report.witnesses and report.witnesses != ("no witness recorded",)


def test_conjugation_closed_does_not_share_the_search_permutations(monkeypatch):
    """A fault in the permutations the search closes its orbits with leaves
    a lattice closed under those permutations, by construction; the claim
    conjugates by permutations of its own and reports it.  Here the fault
    puts a transposition of two elements, which is no automorphism, in
    place of conjugation by the generators."""

    def faulty(g):
        swap = list(range(g.order))
        swap[1], swap[2] = 2, 1
        return (tuple(swap),)

    base = ca.catalog_entry("s3xs3").build().group
    good = ca.FiniteGroup(base.mult, base.generators, base.labels)
    assert verify_module._conjugation_closed(good, ca.all_subgroups(good))
    monkeypatch.setattr(subgroups_module, "_conj_perms", faulty)
    g = ca.FiniteGroup(base.mult, base.generators, base.labels)
    lat = ca.all_subgroups(g)
    assert all(_conj_bits(perm, s.elements()) in lat.index_of
               for perm in faulty(g) for s in lat.subgroups)
    assert not verify_module._conjugation_closed(g, lat)


def test_catalog_suite_restriction_and_empty():
    assert ca.run_catalog_suite(names=()) == []
    reports = ca.run_catalog_suite(names=("holomorph8",))
    claims = [r.claim for r in reports]
    assert "holomorph8.seven-index-2" in claims
    assert "catalog.holomorph8.fingerprint" in claims
    assert all(c.startswith(("catalog.holomorph8", "holomorph8")) for c in claims)


def test_catalog_suite_deterministic():
    r1 = ca.run_catalog_suite(names=("c6", "s3"))
    r2 = ca.run_catalog_suite(names=("c6", "s3"))
    assert ca.reports_to_dicts(r1, timing=False) == ca.reports_to_dicts(r2, timing=False)


def test_report_serialization(hol8):
    reports = ca.verify_holomorph8()
    dumped = ca.reports_to_dicts(reports, timing=False)
    for d in dumped:
        assert set(d) == {"claim", "status", "witnesses", "elapsed_ms"}
        assert d["elapsed_ms"] is None
    timed = ca.reports_to_dicts(reports, timing=True)
    assert all(isinstance(d["elapsed_ms"], float) for d in timed)


def test_subset_closure_oracle_counts(s3):
    assert len(ca.subset_closure_subgroups(s3)) == 6
    assert len(ca.subset_closure_subgroups(ca.cyclic(12))) == 6
    v4 = ca.elementary_abelian(2, 2).group
    assert len(ca.subset_closure_subgroups(v4)) == 5


def test_pruned_oracle_matches_naive_reference():
    entries = [e for e in ca.catalog() if e.order <= 20]
    assert len(entries) == 38
    for entry in entries:
        g = entry.build().group
        assert ca.subset_closure_subgroups(g) == naive_subset_closure_subgroups(g), entry.name


def test_oracle_matches_engine_up_to_order_64():
    entries = [e for e in ca.catalog() if e.order <= 64]
    assert len(entries) == 62
    for entry in entries:
        g = entry.build().group
        assert ca.subset_closure_subgroups(g) == [
            s.members for s in ca.all_subgroups(g).subgroups], entry.name
