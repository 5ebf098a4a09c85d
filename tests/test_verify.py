"""Verification suites: statuses, witnesses, determinism, skip semantics."""

from itertools import combinations

import pytest

import complementa as ca
import complementa.subgroups as subgroups_module
import complementa.verify as verify_module
from complementa._primes import divisors
from complementa.complementation import subgroup_table
from complementa.groups import quotient
from complementa.subgroups import _conj_bits, bit_indices
from references import bits_of, dedekind_identity_check, quotient_transport_check
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


def test_minimal_normal_bounds_scan_once_per_order(monkeypatch):
    """The bounds read nothing of a representative but its order m, so the
    41 supercomplemented cyclic representatives of C3^4 scan its minimal
    normal subgroups once for m = 1 and once for m = 3, and each still gets
    its own claim."""
    built = ca.catalog_entry("ea3r4").build().group
    g = ca.FiniteGroup(built.mult, built.generators, built.labels, name=built.name)
    scanned = []
    scan = verify_module._minimal_normal_scan
    monkeypatch.setattr(verify_module, "_minimal_normal_scan",
                        lambda g, m: scanned.append(m) or scan(g, m))
    reps = verify_module._supercomplemented_cyclic_reps(g)
    claims = [r for i, rep in enumerate(reps)
              for r in ca.verify_minimal_normal_bounds(g, rep, prefix=f"t.x{i}")
              if r.claim.endswith(".minimal-normal-order-bound")]
    assert len(reps) == 41
    assert sorted(scanned) == [1, 3]
    assert [r.claim for r in claims] == [f"t.x{i}.minimal-normal-order-bound"
                                         for i in range(41)]
    assert all(r.status == "pass" and r.witnesses for r in claims)


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


# -- the scans that compute each fact once, against per-input references ------
#
# The references compute every fact per input, with no reuse: every quotient
# gets its own lattice and supercomplemented scan, every instance its own
# p-subgroup battery, and every T its own filter of the overgroups of A.
# They look up the library through ``verify_module`` so that a monkeypatch
# reaches both sides.


def reference_transport_scan(suite, pre, g, lat):
    vm = verify_module
    count = 0
    ok = True
    witness = []
    for cls in lat.conjugacy_classes:
        k = lat.subgroups[cls[0]]
        k_grp, _, _ = vm.subgroup_as_group(g, k)
        klat = vm.all_subgroups(k_grp)
        sc_subs = [s for s in klat.subgroups if vm.is_supercomplemented(k_grp, s)[0]]
        if not sc_subs:
            continue
        for n_sub in klat.subgroups:
            if not vm.is_normal(k_grp, n_sub):
                continue
            quo, proj = vm.cached_quotient(k_grp, n_sub.members)
            qlat = vm.all_subgroups(quo)
            sc_q = {s.members for s in qlat.subgroups
                    if vm.is_supercomplemented(quo, s)[0]}
            for h in sc_subs:
                img = 0
                for e in h.elements():
                    img |= 1 << proj[e]
                count += 1
                if img not in sc_q:
                    ok = False
                    if len(witness) < 3:
                        witness.append({"K_class_rep": vm.sub_witness(k),
                                        "N": vm.sub_witness(n_sub),
                                        "H": vm.sub_witness(h)})
    suite.check(f"{pre}.quotient-transport", ok,
                witness or [{"tuples_checked": count}])


def reference_dedekind_scan(suite, pre, g, lat):
    vm = verify_module
    subs = lat.subgroups
    count = 0
    ok = True
    witness = []
    for a in subs:
        for t in subs:
            if a.order * t.order != g.order * (a.members & t.members).bit_count():
                continue
            for b in subs:
                if not b.contains(a):
                    continue
                count += 1
                if not dedekind_identity_check(g, a, b, t):
                    ok = False
                    if len(witness) < 3:
                        witness.append({"A": vm.sub_witness(a), "B": vm.sub_witness(b),
                                        "T": vm.sub_witness(t)})
    suite.check(f"{pre}.modular-identity", ok,
                witness or [{"triples_checked": count}])


def reference_p_subgroup_failures(g, lat, p, m):
    vm = verify_module
    fact_bound = vm.factorial_index_bound(m)
    dmax = 2 if p != 2 else 3
    for sub in lat.subgroups:
        if not vm.is_p_power(sub.order, p):
            continue
        if not vm.is_nilpotent(sub):
            yield {"p": p, "check": "nilpotent", "subgroup": vm.sub_witness(sub)}
        dp = vm.derived_length(sub)
        if dp is None or dp > dmax:
            yield {"p": p, "check": "derived-length", "subgroup": vm.sub_witness(sub)}
        if not vm._has_normal_elem_abelian_of_index(g, sub, fact_bound, lat):
            yield {"p": p, "check": "almost-elementary", "subgroup": vm.sub_witness(sub)}


def fresh_group(name):
    """A copy of a catalog group with nothing memoized on it."""
    g = ca.catalog_entry(name).build().group
    return ca.FiniteGroup(g.mult, g.generators, g.labels, name=g.name)


def scan_reports(scan, g):
    """(claim, status, witnesses) of one scan over a fresh lattice of g; the
    Dedekind scan also gets the product table of that lattice."""
    suite = _Suite()
    lat = ca.all_subgroups(g)
    tables = ((verify_module._product_table(g, lat),)
              if scan is verify_module._dedekind_scan else ())
    scan(suite, "t", g, lat, *tables)
    return [(r.claim, r.status, r.witnesses) for r in suite.reports]


SMALL_ENTRIES = [e.name for e in ca.catalog() if e.order <= 64]


def test_scans_match_their_references_on_every_entry_up_to_order_64():
    assert len(SMALL_ENTRIES) == 62
    for name in SMALL_ENTRIES:
        for scan, reference in ((verify_module._transport_scan, reference_transport_scan),
                                (verify_module._dedekind_scan, reference_dedekind_scan)):
            got = scan_reports(scan, fresh_group(name))
            assert got == scan_reports(reference, fresh_group(name)), (name, scan.__name__)
            assert got[0][1] == "pass"
            assert set(got[0][2][0]) & {"tuples_checked", "triples_checked"}, name
        g = fresh_group(name)
        lat = ca.all_subgroups(g)
        for rep in verify_module._supercomplemented_cyclic_reps(g):
            for p in verify_module._battery_primes(g, rep):
                assert verify_module._p_subgroup_failures(g, p, rep.order) == tuple(
                    reference_p_subgroup_failures(g, lat, p, rep.order)), (name, p)


def recording_quotients(formed):
    """``quotient`` that appends each quotient group it returns to ``formed``."""

    def recording(k_grp, members, *pool):
        quo, proj = quotient(k_grp, members, *pool)
        formed.append(quo)
        return quo, proj

    return recording


def test_transport_failure_on_a_repeated_order_is_reported(monkeypatch):
    """A quotient table that is not the first of its order in scan order
    answers "not supercomplemented" for every subgroup; the scan must fail
    with the witnesses of the per-quotient reference."""
    formed = []
    with monkeypatch.context() as patch:
        patch.setattr(verify_module, "quotient", recording_quotients(formed))
        scan_reports(verify_module._transport_scan, fresh_group("c4xc2"))
    first = {}
    for quo in formed:
        first.setdefault(quo.order, quo.mult)
    target = next(q.mult for q in formed if q.mult != first[q.order])
    real = verify_module.is_supercomplemented

    def refusing(grp, h, *args):
        return (False, None) if grp.mult == target else real(grp, h, *args)

    monkeypatch.setattr(verify_module, "is_supercomplemented", refusing)
    got = scan_reports(verify_module._transport_scan, fresh_group("c4xc2"))
    assert got[0][1] == "fail"
    assert got == scan_reports(reference_transport_scan, fresh_group("c4xc2"))


def test_transport_reports_a_corrupted_quotient_for_each_k_of_its_table(monkeypatch):
    """An order-3 subgroup of one S3 quotient table of D24 is reported as not
    supercomplemented there.  The scan fails with the three witnesses of the
    per-quotient reference, two of them from different class
    representatives K with one local table, so one pooled group."""
    formed = []
    with monkeypatch.context() as patch:
        patch.setattr(verify_module, "quotient", recording_quotients(formed))
        scan_reports(verify_module._transport_scan, fresh_group("dih24"))
    quo = next(q for q in formed if q.order == 6 and not ca.is_abelian(q))
    target = (quo.mult, ca.all_subgroups(quo).by_order(3)[0].members)
    real = verify_module.is_supercomplemented

    def refusing(grp, h, *args):
        return (False, None) if (grp.mult, h.members) == target else real(grp, h, *args)

    monkeypatch.setattr(verify_module, "is_supercomplemented", refusing)
    got = scan_reports(verify_module._transport_scan, fresh_group("dih24"))
    assert got[0][1] == "fail" and len(got[0][2]) == 3
    assert got == scan_reports(reference_transport_scan, fresh_group("dih24"))
    g = fresh_group("dih24")
    reps = {bits_of(w["K_class_rep"]["members"]) for w in got[0][2]}
    keys = [subgroup_table(g, ca.Subgroup(g, bits))[:2] for bits in reps]
    assert len(reps) > len(set(keys))


@pytest.mark.parametrize("name", ["dih24", "c2xa4", "holomorph8", "s3xs3"])
def test_transport_scan_agrees_with_the_per_tuple_check(name):
    """Every (K, N, H) tuple passes ``quotient_transport_check``, which forms
    its own K-as-a-group and quotient, and the scan counts exactly those
    tuples."""
    g = fresh_group(name)
    lat = ca.all_subgroups(g)
    checked = 0
    for cls in lat.conjugacy_classes:
        k = lat.subgroups[cls[0]]
        k_grp, _, from_local = ca.subgroup_as_group(g, k)
        klat = ca.all_subgroups(k_grp).subgroups
        sc = [ca.Subgroup(g, _conj_bits(from_local, h.elements())) for h in klat
              if ca.is_supercomplemented(k_grp, h)[0]]
        for n_sub in klat:
            if not ca.is_normal(k_grp, n_sub):
                continue
            n_parent = ca.Subgroup(g, _conj_bits(from_local, n_sub.elements()))
            for h in sc:
                checked += 1
                assert quotient_transport_check(g, h, k, n_parent), (name, k, n_sub, h)
    assert scan_reports(verify_module._transport_scan, g) == [
        ("t.quotient-transport", "pass", ({"tuples_checked": checked},))]


def test_transport_validates_each_table_once(monkeypatch):
    """On split-p5-2 the scan constructs, and so validates, each distinct
    (rows, generators) at most once, whether it is a K-as-a-group or a
    quotient."""
    g = fresh_group("split-p5-2")
    validated = []
    real = ca.FiniteGroup._validate

    def recording(grp, mult):
        inv = real(grp, mult)
        validated.append((grp.mult, grp.generators))
        return inv

    monkeypatch.setattr(ca.FiniteGroup, "_validate", recording)
    scan_reports(verify_module._transport_scan, g)
    assert validated and len(validated) == len(set(validated))


def test_battery_failure_reaches_every_instance_of_its_order(monkeypatch):
    """One 3-subgroup of S3×S3 made non-nilpotent fails the battery of every
    instance whose primes include 3, the three of order 3 among them, as the
    per-instance reference does."""
    g = fresh_group("s3xs3")
    lat = ca.all_subgroups(g)
    target = lat.by_order(9)[0].members
    real = verify_module.is_nilpotent
    monkeypatch.setattr(verify_module, "is_nilpotent",
                        lambda sub: sub.members != target and real(sub))
    reps = verify_module._supercomplemented_cyclic_reps(g)
    expected = [f"t.x{i}.p-subgroup-battery" for i, rep in enumerate(reps)
                if any(next(reference_p_subgroup_failures(g, lat, p, rep.order), None)
                       for p in verify_module._battery_primes(g, rep))]
    assert sum(rep.order == 3 for rep in reps) == 3
    assert len(expected) == 4
    suite = _Suite()
    verify_module._instance_batteries(suite, "t", g)
    report = suite.reports[0]
    assert report.claim == "t.supercomplemented-consequences"
    assert report.status == "fail" and list(report.witnesses) == expected


def test_dedekind_failure_is_reported_with_the_reference_witnesses(monkeypatch):
    """Products that drop the last element of the group fail the identity
    for every B that holds it, in the product table the scan reads and in
    ``dedekind_identity_check``, which the reference calls."""
    real = subgroups_module.product_bits

    def dropping(g, a, b, cosets=None):
        return real(g, a, b, cosets) & ~(1 << g.order - 1)

    monkeypatch.setattr(verify_module, "product_bits", dropping)
    monkeypatch.setattr(subgroups_module, "product_bits", dropping)
    got = scan_reports(verify_module._dedekind_scan, fresh_group("dih8"))
    assert got[0][1] == "fail" and len(got[0][2]) == 3
    assert got == scan_reports(reference_dedekind_scan, fresh_group("dih8"))


@pytest.mark.parametrize("name", ["dih8", "holomorph8", "split-p5-2", "s3xs3"])
def test_pairwise_and_dedekind_scans_build_each_product_once(monkeypatch, name):
    calls = []
    real = subgroups_module.product_bits

    def counted(g, a, b, cosets=None):
        calls.append((a.members, b.members))
        return real(g, a, b, cosets)

    monkeypatch.setattr(verify_module, "product_bits", counted)
    monkeypatch.setattr(subgroups_module, "product_bits", counted)
    g = fresh_group(name)
    lat = ca.all_subgroups(g)
    suite = _Suite()
    table = verify_module._product_table(g, lat)
    verify_module._pairwise_checks(suite, "t", g, lat, table)
    verify_module._dedekind_scan(suite, "t", g, lat, table)
    assert [r.status for r in suite.reports] == ["pass"] * 4
    assert len(calls) == len(set(calls)) == len(lat) ** 2


@pytest.mark.parametrize("name", ["ea2r4", "holomorph8", "split-p5-2", "s3xs3"])
def test_transport_builds_one_quotient_lattice_per_table(monkeypatch, name):
    """Quotients with one table are one group in the scan, and every
    quotient table's lattice is built exactly once: in the scan, or before
    it for G/1, which is G's own table."""
    formed, built = [], []

    def counting(grp, *args):
        if grp.cached_value(("sub_div", grp.order)) is None:
            built.append((grp.mult, grp.generators))
        return ca.all_subgroups(grp, *args)

    monkeypatch.setattr(verify_module, "quotient", recording_quotients(formed))
    monkeypatch.setattr(verify_module, "all_subgroups", counting)
    g = fresh_group(name)
    scan_reports(verify_module._transport_scan, g)
    tables = {(quo.mult, quo.generators) for quo in formed}
    assert len(formed) > len(tables) == len({id(quo) for quo in formed})
    assert len(built) == len(set(built))
    assert tables <= set(built) | {(g.mult, g.generators)}


@pytest.mark.parametrize("name", ["holomorph8", "split-p5-2", "s3xs3"])
def test_transport_keeps_no_subgroup_as_group_on_the_group(name):
    """Each class representative K is reindexed as a group once per scan;
    neither K-as-a-group nor its lattice stays memoized on G."""
    g = fresh_group(name)
    lat = ca.all_subgroups(g)
    scan_reports(verify_module._transport_scan, g)
    assert [k for k in lat.subgroups
            if g.cached_value(("as_group", k.members)) is not None] == []


@pytest.mark.parametrize("name", ["s3xs3", "holomorph8", "dih8xc2", "c30"])
def test_one_battery_per_prime_and_order(monkeypatch, name):
    asked, evaluated = [], []
    failures, battery = verify_module._p_subgroup_failures, verify_module._p_subgroup_battery

    def asking(grp, p, m):
        asked.append((p, m))
        return failures(grp, p, m)

    def evaluating(grp, p, m):
        evaluated.append((p, m))
        return battery(grp, p, m)

    monkeypatch.setattr(verify_module, "_p_subgroup_failures", asking)
    monkeypatch.setattr(verify_module, "_p_subgroup_battery", evaluating)
    verify_module._instance_batteries(_Suite(), "t", fresh_group(name))
    assert sorted(evaluated) == sorted(set(asked))
    assert len(asked) > len(evaluated)
