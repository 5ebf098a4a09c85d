"""Orchestrated verification of the finite-instance claims, producing
auditable pass/fail/skipped reports with witnesses.

Hypothesis failures yield "skipped", never "pass": vacuous truth stays
distinguishable in reports.
"""

from __future__ import annotations

import time
from itertools import combinations
from typing import NamedTuple

from ._primes import divisors, is_p_power, p_part, prime_factors
from .bounds import (derived_length_bound, factorial_index_bound, prop1_bound)
from .complementation import (c_separating_subgroups,
                              is_completely_factorizable, is_c_separating,
                              is_supercomplemented, subgroup_as_group,
                              subgroup_table)
from .constructions import catalog, holomorph8, split_p5_group
from .groups import (FiniteGroup, cached_quotient, closure_bits, element_order,
                     exponent, greedy_generators, normalizes, primes_of, quotient)
from .subgroups import (Subgroup, _conj_bits, all_subgroups,
                        bit_indices, generated_subgroup, is_abelian,
                        is_elementary_abelian, is_normal, overgroups,
                        overgroups_by_joins, product_bits, right_cosets,
                        trivial_subgroup)
from .series import (chief_series, derived_length, derived_subgroup,
                     is_nilpotent, frattini, minimal_normal_subgroups,
                     sylow_subgroup)


class VerificationReport(NamedTuple):
    claim: str
    status: str  # "pass" | "fail" | "skipped"
    witnesses: tuple
    elapsed_ms: float

    def to_dict(self, timing: bool = True) -> dict:
        return {
            "claim": self.claim,
            "status": self.status,
            "witnesses": list(self.witnesses),
            "elapsed_ms": round(self.elapsed_ms, 3) if timing else None,
        }


def sub_witness(s: Subgroup) -> dict:
    return {"order": s.order, "members": list(s.elements())}


class _Suite:
    """Collects timed reports; failed checks must carry a witness."""

    def __init__(self):
        self.reports: list[VerificationReport] = []
        self._t0 = time.perf_counter()

    def _elapsed(self) -> float:
        now = time.perf_counter()
        ms = (now - self._t0) * 1000.0
        self._t0 = now
        return ms

    def check(self, claim: str, ok: bool, witnesses=()):
        status = "pass" if ok else "fail"
        wit = tuple(witnesses)
        if not ok and not wit:
            wit = ("no witness recorded",)
        self.reports.append(VerificationReport(claim, status, wit, self._elapsed()))
        return ok

    def skip(self, claim: str, reason: str, witnesses=()):
        self.reports.append(VerificationReport(
            claim, "skipped", (reason,) + tuple(witnesses), self._elapsed()))


# -- the holomorph-of-C8 reproduction ----------------------------------------


def verify_holomorph8() -> list[VerificationReport]:
    """Checks the order-32 holomorph of C8: its seven index-2 subgroups with
    their listed complements, the supercomplemented <x>, and the absence of
    C-separating subgroups."""
    nm = holomorph8()
    g = nm.group
    suite = _Suite()
    pre = "holomorph8"
    x, a, b = nm.elements["x"], nm.elements["a"], nm.elements["b"]
    lat = all_subgroups(g)

    index2 = lat.by_order(16)
    suite.check(f"{pre}.seven-index-2", len(index2) == 7,
                [sub_witness(s) for s in index2])

    x2 = g.mult[x][x]
    derived = derived_subgroup(g)
    sq = generated_subgroup(g, (x2,))
    ok = derived.members == sq.members and derived.order == 4
    ok = ok and all(s.contains(derived) for s in index2)
    suite.check(f"{pre}.index2-contain-derived", ok,
                [{"derived": sub_witness(derived)}])

    quo, _ = quotient(g, sq.members)
    suite.check(f"{pre}.quotient-elementary-8",
                quo.order == 8 and is_elementary_abelian(quo),
                [{"quotient_order": quo.order}])

    xa = g.mult[x][a]
    xb = g.mult[x][b]
    ab = g.mult[a][b]
    x2a = g.mult[x2][a]
    listed = [
        (generated_subgroup(g, (x, a)), generated_subgroup(g, (b,))),
        (generated_subgroup(g, (x, b)), generated_subgroup(g, (a,))),
        (generated_subgroup(g, (x2, a, b)), generated_subgroup(g, (xa,))),
        (generated_subgroup(g, (x2, b, xa)), generated_subgroup(g, (x2a,))),
        (generated_subgroup(g, (x, ab)), generated_subgroup(g, (a,))),
        (generated_subgroup(g, (xb, a)), generated_subgroup(g, (b,))),
        (generated_subgroup(g, (x2, ab, xa)), generated_subgroup(g, (b,))),
    ]
    distinct = len({k.members for k, _ in listed}) == 7
    all_index2 = all(k.order == 16 for k, _ in listed)
    covers = {k.members for k, _ in listed} == {s.members for s in index2}
    complemented_ok = True
    for k, t in listed:
        prod = product_bits(g, k, t)
        if k.members & t.members != 1 or prod.bit_count() != g.order:
            complemented_ok = False
    suite.check(f"{pre}.listed-complements",
                distinct and all_index2 and covers and complemented_ok,
                [{"pairs": [[sub_witness(k), sub_witness(t)] for k, t in listed]}])

    ok_sc, wit = is_supercomplemented(g, nm.subgroups["x"])
    suite.check(f"{pre}.x-supercomplemented", ok_sc,
                [sub_witness(wit)] if wit else [{"overgroups": len(overgroups(g, nm.subgroups["x"]))}])

    full_scan = c_separating_subgroups(g)
    suite.check(f"{pre}.no-c-separating-full", len(full_scan) == 0,
                [sub_witness(s) for s in full_scan] or [{"found": 0}])
    index2_scan = [s for s in full_scan if g.order // s.order == 2]
    suite.check(f"{pre}.no-c-separating-index2", len(index2_scan) == 0,
                [sub_witness(s) for s in index2_scan] or [{"found": 0}])

    suite.check(f"{pre}.exponent-8", exponent(g) == 8, [{"exponent": exponent(g)}])
    return suite.reports


# -- the order-p^5 split factorization example --------------------------------


def verify_split_p5(p: int) -> list[VerificationReport]:
    """Checks G = <x>·B with trivial intersection, B elementary abelian of
    order p^3, neither factor normal, <x> supercomplemented, and (for odd p)
    metabelianness."""
    nm = split_p5_group(p)
    g = nm.group
    suite = _Suite()
    pre = f"split-p5-{p}"
    xs, bs = nm.subgroups["x"], nm.subgroups["B"]

    suite.check(f"{pre}.order", g.order == p ** 5, [{"order": g.order}])

    prod = product_bits(g, xs, bs)
    suite.check(f"{pre}.factorization", prod.bit_count() == g.order,
                [{"product_size": prod.bit_count()}])
    suite.check(f"{pre}.trivial-intersection", xs.members & bs.members == 1,
                [{"intersection_order": (xs.members & bs.members).bit_count()}])
    suite.check(f"{pre}.B-elementary-abelian",
                bs.order == p ** 3 and is_elementary_abelian(bs),
                [sub_witness(bs)])
    suite.check(f"{pre}.x-not-normal", not is_normal(g, xs), [sub_witness(xs)])
    suite.check(f"{pre}.B-not-normal", not is_normal(g, bs), [sub_witness(bs)])

    ok_sc, wit = is_supercomplemented(g, xs)
    suite.check(f"{pre}.x-supercomplemented", ok_sc,
                [sub_witness(wit)] if wit else [{"overgroups": len(overgroups(g, xs))}])

    if p != 2:
        d = derived_length(g)
        suite.check(f"{pre}.metabelian", d is not None and d <= 2,
                    [{"derived_length": d}])
    return suite.reports


# -- instance suites for the structural consequences ---------------------------


def _cyclic_prime_power_hypothesis(g: FiniteGroup, x_sub: Subgroup):
    """(ok, reason): x_sub must be cyclic of prime-power order (1 allowed)."""
    m = x_sub.order
    if m > 1:
        if len(prime_factors(m)) != 1:
            return False, "order is not a prime power"
        if all(element_order(g, e) != m for e in x_sub.elements()):
            return False, "subgroup is not cyclic"
    return True, ""


def _supercomplemented_hypothesis(suite, g: FiniteGroup, x_sub: Subgroup,
                                  prefix: str) -> bool:
    """Records the ``hypothesis`` claim of the instance suites, skipped unless
    x_sub is a supercomplemented cyclic subgroup of prime-power order, and
    returns whether it holds."""
    ok, reason = _cyclic_prime_power_hypothesis(g, x_sub)
    if not ok:
        suite.skip(f"{prefix}.hypothesis", f"skipped: {reason}")
        return False
    sc, wit = is_supercomplemented(g, x_sub)
    if not sc:
        suite.skip(f"{prefix}.hypothesis", "skipped: subgroup is not supercomplemented",
                   [sub_witness(wit)])
        return False
    suite.check(f"{prefix}.hypothesis", True, [{"m": x_sub.order}])
    return True


def _battery_primes(g: FiniteGroup, x_sub: Subgroup) -> list[int]:
    if x_sub.order > 1:
        return prime_factors(x_sub.order)
    return sorted(primes_of(g))


def _has_normal_elem_abelian_of_index(g, p_sub, bound, lat) -> bool:
    if p_sub.order <= bound:
        return True
    for n_sub in lat.subgroups:
        if n_sub.order * bound < p_sub.order:
            continue
        if (p_sub.contains(n_sub) and is_elementary_abelian(n_sub)
                and normalizes(g, n_sub.members, n_sub.gens, p_sub.gens)):
            return True
    return False


def verify_supercomplemented_consequences(g: FiniteGroup, x_sub: Subgroup,
                                          prefix: str = "instance") -> list[VerificationReport]:
    """Given a verified supercomplemented cyclic p-subgroup of order m:
    solvability, the derived-length bound, and for every p-subgroup
    nilpotency, derived length <= 3 (<= 2 for odd p), and a normal elementary
    abelian subgroup of index <= m!."""
    suite = _Suite()
    if not _supercomplemented_hypothesis(suite, g, x_sub, prefix):
        return suite.reports
    m = x_sub.order

    d = derived_length(g)
    suite.check(f"{prefix}.solvable", d is not None, [{"derived_length": d}])
    bound = derived_length_bound(m)
    suite.check(f"{prefix}.derived-length-bound", d is not None and d <= bound,
                [{"derived_length": d, "bound": bound}])

    bad = [f for p in _battery_primes(g, x_sub) for f in _p_subgroup_failures(g, p, m)]
    suite.check(f"{prefix}.p-subgroup-battery", not bad,
                bad or [{"m": m, "factorial_bound": factorial_index_bound(m)}])
    return suite.reports


def _p_subgroup_failures(g, p, m) -> tuple:
    """The p-subgroup battery for a supercomplemented cyclic p-subgroup of
    order m: in canonical order, each p-subgroup that is not nilpotent, has
    derived length above 3 (above 2 for odd p), or has no normal elementary
    abelian subgroup of index <= m!.

    The battery reads nothing of the cyclic subgroup but p and m, so every
    instance of one order, and the primary-structure test, read one tuple
    memoized on g.
    """
    return g.cached(("p-subgroup-battery", p, m),
                    lambda: tuple(_p_subgroup_battery(g, p, m)))


def _p_subgroup_battery(g, p, m):
    """Yields the failures ``_p_subgroup_failures`` memoizes."""
    lat = all_subgroups(g)
    fact_bound = factorial_index_bound(m)
    dmax = 2 if p != 2 else 3
    for sub in lat.subgroups:
        if not is_p_power(sub.order, p):
            continue
        if not is_nilpotent(sub):
            yield {"p": p, "check": "nilpotent", "subgroup": sub_witness(sub)}
        dp = derived_length(sub)
        if dp is None or dp > dmax:
            yield {"p": p, "check": "derived-length", "subgroup": sub_witness(sub)}
        if not _has_normal_elem_abelian_of_index(g, sub, fact_bound, lat):
            yield {"p": p, "check": "almost-elementary", "subgroup": sub_witness(sub)}


def verify_minimal_normal_bounds(g: FiniteGroup, x_sub: Subgroup,
                                 prefix: str = "instance") -> list[VerificationReport]:
    """Given a verified supercomplemented cyclic p-subgroup of order m: every
    elementary abelian minimal normal q-subgroup Q has |Q| <= q^((m-1)m)·m^m,
    and exactly |Q| = q when m = 1."""
    suite = _Suite()
    if not _supercomplemented_hypothesis(suite, g, x_sub, prefix):
        return suite.reports
    m = x_sub.order
    ok_all, witnesses = g.cached(("minimal-normal-bounds", m),
                                 lambda: _minimal_normal_scan(g, m))
    suite.check(f"{prefix}.minimal-normal-order-bound", ok_all,
                witnesses or [{"minimal_normals": 0}])
    return suite.reports


def _minimal_normal_scan(g, m) -> tuple:
    """(every bound holds, one witness per elementary abelian minimal normal
    subgroup) for a supercomplemented cyclic subgroup of order m.

    The bounds read nothing of the cyclic subgroup but m, so every instance
    of one order reads one pair memoized on g.
    """
    witnesses = []
    for q_sub in minimal_normal_subgroups(g):
        if not is_elementary_abelian(q_sub):
            continue
        q = prime_factors(q_sub.order)[0]
        bound = q if m == 1 else prop1_bound(q, m)
        good = q_sub.order == q if m == 1 else q_sub.order <= bound
        witnesses.append({"q": q, "order": q_sub.order, "bound": bound, "ok": good})
    return all(w["ok"] for w in witnesses), tuple(witnesses)


def verify_c_separating_consequences(g: FiniteGroup, h_sub: Subgroup,
                                     prefix: str = "instance") -> list[VerificationReport]:
    """Given a verified C-separating subgroup H: solvability, and for some
    prime p a supercomplemented cyclic p-subgroup outside H whose prime makes
    all other-primary subgroups elementary abelian, with the p-subgroup
    battery holding."""
    suite = _Suite()
    if not is_c_separating(g, h_sub):
        suite.skip(f"{prefix}.hypothesis", "skipped: subgroup is not C-separating",
                   [sub_witness(h_sub)])
        return suite.reports
    suite.check(f"{prefix}.hypothesis", True, [sub_witness(h_sub)])

    d = derived_length(g)
    suite.check(f"{prefix}.solvable", d is not None, [{"derived_length": d}])

    lat = all_subgroups(g)
    chosen = None
    for p in sorted(primes_of(g)):
        candidates = [s for s in lat.subgroups
                      if s.order > 1 and is_p_power(s.order, p)
                      and not h_sub.contains(s)
                      and any(element_order(g, e) == s.order for e in s.elements())
                      and is_supercomplemented(g, s)[0]]
        for cand in candidates:
            if _primary_structure_holds(g, lat, p, cand.order):
                chosen = (p, cand)
                break
        if chosen:
            break
    suite.check(f"{prefix}.primary-structure", chosen is not None,
                [{"p": chosen[0], "witness": sub_witness(chosen[1])}] if chosen
                else [{"reason": "no prime admits a supercomplemented cyclic subgroup "
                                 "outside H with the required primary structure"}])
    return suite.reports


def _primary_structure_holds(g, lat, p, m) -> bool:
    for q in sorted(primes_of(g)):
        if q == p:
            continue
        for sub in lat.subgroups:
            if sub.order > 1 and is_p_power(sub.order, q) and not is_elementary_abelian(sub):
                return False
    return not _p_subgroup_failures(g, p, m)


# -- independent oracle: subgroups by subset closure ---------------------------


def subset_closure_subgroups(g: FiniteGroup) -> list[int]:
    """Brute-force oracle: member bitsets of all subgroups, in canonical
    order, found by an exhaustive search over identity-containing subsets
    that reads nothing but ``g.mult``.

    A finite subset containing the identity is a subgroup iff it is closed
    under multiplication.  For each divisor d of |G| the search decides the
    indices 1..n-1 in ascending order, including before excluding, and keeps
    the bitset ``chosen`` and the bitset ``prods`` of all products of two
    chosen elements, extended as each element is added.  Every closed
    d-subset that contains ``chosen`` contains ``prods``, so each cut below
    drops only branches holding no closed d-subset:

    * a product on an index already excluded can never be covered;
    * ``|prods | chosen| > d`` means no closed superset has d elements;
    * an index in ``prods`` is never excluded, since it must be chosen;
    * a branch stops when the undecided indices cannot fill d places;
    * with d elements chosen, the subset is kept iff ``prods`` is within it.
    """
    n = g.order
    rows = g.mult
    out = []

    def search(i: int, chosen: int, members: list, prods: int, d: int):
        if len(members) == d:
            if not prods & ~chosen:
                out.append(chosen)
            return
        if len(members) + n - i < d:
            return
        row = rows[i]
        grown = prods | 1 << row[i]
        for x in members:
            grown |= 1 << row[x] | 1 << rows[x][i]
        bits = chosen | 1 << i
        if not grown & ~bits & ((2 << i) - 1) and (grown | bits).bit_count() <= d:
            members.append(i)
            search(i + 1, bits, members, grown, d)
            members.pop()
        if not prods >> i & 1:
            search(i + 1, chosen, members, prods, d)

    for d in divisors(n):
        search(1, 1, [0], 1, d)
    return sorted(out, key=lambda b: (b.bit_count(), bit_indices(b)))


# -- catalog-wide property suite ----------------------------------------------

ORACLE_ORDER_CAP = 24
PAIRWISE_ORDER_CAP = 64
OVERGROUP_XCHECK_CAP = 128


def run_catalog_suite(names=None) -> list[VerificationReport]:
    """Execute every module's invariants over the catalog (optionally filtered
    by entry names) and the distinguished construction suites, returning the
    aggregated reports in canonical order."""
    reports: list[VerificationReport] = []
    if names is None:
        # finite-instance reductions recorded, by design, as skipped claims
        reports.append(VerificationReport(
            "catalog.meta.residual-finiteness", "skipped",
            ("skipped by design: finite groups are residually finite; nothing to test",),
            0.0))
        reports.append(VerificationReport(
            "catalog.meta.generalized-solvability-hypotheses", "skipped",
            ("skipped by design: the hypotheses beyond finiteness hold automatically "
             "for finite groups; solvability itself is checked per instance",),
            0.0))
    for entry in catalog():
        if names is not None and entry.name not in names:
            continue
        reports.extend(_entry_suite(entry))
        if entry.name == "holomorph8":
            reports.extend(verify_holomorph8())
        elif entry.name.startswith("split-p5-"):
            reports.extend(verify_split_p5(int(entry.name.rsplit("-", 1)[1])))
    return reports


def _conjugation_closed(g: FiniteGroup, lat) -> bool:
    """Whether every conjugate of every subgroup in ``lat`` is in it.

    It conjugates by a generating set of its own, kept greedily from the
    elements in descending order, with permutations made here by ``g.conj``.
    The lattice search fills its orbits by conjugating with the permutations
    of ``g.generators``, so a fault in those is not repeated here.  Closure
    under a generating set is closure under G, so the check is complete.
    """
    perms = [tuple(g.conj(e, b) for e in g.elements())
             for b, _ in greedy_generators(g.mult, range(g.order - 1, 0, -1))]
    index_of = lat.index_of
    return all(_conj_bits(perm, s.elements()) in index_of
               for s in lat.subgroups for perm in perms)


def _entry_suite(entry) -> list[VerificationReport]:
    suite = _Suite()
    pre = f"catalog.{entry.name}"
    nm = entry.build()
    g = nm.group

    suite.check(f"{pre}.fingerprint",
                g.order == entry.order and is_abelian(g) == entry.abelian
                and exponent(g) == entry.exponent,
                [{"order": g.order, "abelian": is_abelian(g), "exponent": exponent(g)}])

    lat = all_subgroups(g)
    suite.check(f"{pre}.lagrange",
                all(g.order % s.order == 0 for s in lat.subgroups),
                [{"subgroups": len(lat)}])

    suite.check(f"{pre}.conjugation-closed", _conjugation_closed(g, lat),
                [{"subgroups": len(lat)}])

    sylow_wit = []
    sylow_ok = True
    for p in sorted(primes_of(g)):
        part = p_part(g.order, p)
        syl = sylow_subgroup(g, p)
        count = len(lat.by_order(part))
        sylow_ok = sylow_ok and syl.order == part and count % p == 1
        sylow_wit.append({"p": p, "sylow_order": syl.order, "count": count})
    suite.check(f"{pre}.sylow", sylow_ok, sylow_wit or [{"primes": 0}])

    d = derived_length(g)
    if d is not None:
        factors = chief_series(g).factors
        suite.check(f"{pre}.chief-factors-elementary",
                    all(f.elementary_abelian for f in factors),
                    [{"factor_orders": [f.order for f in factors]}])

    if len(prime_factors(g.order)) == 1:
        suite.check(f"{pre}.p-group-nilpotent", is_nilpotent(g),
                    [{"order": g.order}])

    mono_ok = True
    for s in lat.subgroups:
        if is_normal(g, s):
            quo, _ = cached_quotient(g, s.members)
            dq = derived_length(quo)
            if d is not None and (dq is None or dq > d):
                mono_ok = False
    suite.check(f"{pre}.quotient-derived-monotone", mono_ok,
                [{"derived_length": d}])

    if g.order <= ORACLE_ORDER_CAP:
        oracle = subset_closure_subgroups(g)
        suite.check(f"{pre}.lattice-oracle",
                    oracle == [s.members for s in lat.subgroups],
                    [{"oracle_count": len(oracle), "lattice_count": len(lat)}])

    if g.order <= PAIRWISE_ORDER_CAP:
        table = _product_table(g, lat)
        _pairwise_checks(suite, pre, g, lat, table)
        _dedekind_scan(suite, pre, g, lat, table)
        del table  # read by these two scans only
        _transport_scan(suite, pre, g, lat)
        _frattini_spot_checks(suite, pre, g, lat)

    if g.order <= OVERGROUP_XCHECK_CAP:
        ovg_ok = True
        for s in lat.subgroups:
            sm = s.members
            ovg_ok = overgroups_by_joins(g, s) == tuple(
                k for k in lat.subgroups if k.members & sm == sm)
            if not ovg_ok:
                break
        suite.check(f"{pre}.overgroups-match-filter", ovg_ok,
                    [{"subgroups": len(lat)}])

    cf, cf_wit = is_completely_factorizable(g)
    sc, sc_wit = is_supercomplemented(g, trivial_subgroup(g))
    cf_side = {"completely_factorizable": cf,
               "witness": sub_witness(cf_wit) if cf_wit else None}
    same = (cf, cf_wit and cf_wit.members) == (sc, sc_wit and sc_wit.members)
    suite.check(f"{pre}.factorizable-equivalence", same,
                [cf_side] if same else
                [cf_side, {"trivial_supercomplemented": sc,
                           "witness": sub_witness(sc_wit) if sc_wit else None}])
    if cf:
        suite.check(f"{pre}.factorizable-metabelian", d is not None and d <= 2,
                    [{"derived_length": d}])

    if g.order > 1:
        seps = c_separating_subgroups(g)
        found = {h.members for h in seps}
        stray = [{"c_separating": sub_witness(h), "overgroup": sub_witness(k)}
                 for h in seps for k in overgroups(g, h)
                 if k.order < g.order and k.members not in found]
        suite.check(f"{pre}.c-separating-upward-closed", not stray,
                    stray[:3] or [{"count": len(seps)}])

    _instance_batteries(suite, pre, g)
    return suite.reports


def _product_table(g, lat) -> tuple[tuple[int, ...], ...]:
    """The product set AB of every ordered pair of lattice subgroups: row A,
    column B, in lattice order.  ``_entry_suite`` builds it once and passes
    it to the pairwise and Dedekind scans, its only readers; it is not
    memoized on the group, nor are the right cosets of each row's A, built
    once for the row."""
    subs = lat.subgroups
    rows = []
    for a in subs:
        cosets = right_cosets(g, a)
        rows.append(tuple(product_bits(g, a, b, cosets) for b in subs))
    return tuple(rows)


def _pairwise_checks(suite, pre, g, lat, table):
    subs = lat.subgroups
    formula_ok = True
    criterion_ok = True
    symmetry_ok = True
    for i, a in enumerate(subs):
        row = table[i]
        for j, b in enumerate(subs):
            inter = (a.members & b.members).bit_count()
            ab = row[j]
            if ab.bit_count() * inter != a.order * b.order:
                formula_ok = False
            if inter == 1:
                by_order = a.order * b.order == g.order
                by_product = ab.bit_count() == g.order
                if by_order != by_product:
                    criterion_ok = False
                if by_product and table[j][i].bit_count() != g.order:
                    symmetry_ok = False
    suite.check(f"{pre}.product-order-formula", formula_ok, [{"pairs": len(subs) ** 2}])
    suite.check(f"{pre}.complement-criterion-equivalence", criterion_ok,
                [{"pairs": len(subs) ** 2}])
    suite.check(f"{pre}.complement-symmetry", symmetry_ok, [{"pairs": len(subs) ** 2}])


def _dedekind_scan(suite, pre, g, lat, table):
    """The modular identity A(B ∩ T) = B ∩ AT for every A <= B and every T
    with AT = G, over (A, T, B) in canonical order.  The overgroups B of A
    are the same for every T, so they are filtered once per A.  B ∩ T is a
    subgroup, so A(B ∩ T) is read from the product table at row A and the
    lattice index of B ∩ T; every triple is still counted and checked."""
    subs = lat.subgroups
    index_of = lat.index_of
    count = 0
    ok = True
    witness = []
    for a, row in zip(subs, table):
        supers = [b for b in subs if b.contains(a)]
        for t in subs:
            tm = t.members
            if a.order * t.order != g.order * (a.members & tm).bit_count():
                continue
            for b in supers:
                count += 1
                if row[index_of[b.members & tm]] != b.members:
                    ok = False
                    if len(witness) < 3:
                        witness.append({"A": sub_witness(a), "B": sub_witness(b),
                                        "T": sub_witness(t)})
    suite.check(f"{pre}.modular-identity", ok,
                witness or [{"triples_checked": count}])


def _transport_scan(suite, pre, g, lat):
    """Supercomplementedness survives passing to quotients of intermediate
    subgroups: scan (H, K, N) over conjugacy-class representatives K, every
    N normal in K and every H supercomplemented in K.

    The lattice and the complement searches read nothing of a group but its
    table and generators, and answer in member bitsets of its indices.  So
    K-as-groups and quotients share one pool keyed by (rows, generators):
    a class representative whose local table from ``subgroup_table`` is
    pooled takes the pooled group, and ``quotient`` constructs, and so
    validates, only a table not pooled yet, though it still runs its
    normality test and audit for every K/N.  Each distinct table is
    validated once in the scan, and its lattice and supercomplemented
    members are found once.  Witnesses read only orders and local members,
    so they are those of a scan that builds every group afresh.  A pooled
    group's labels may be another K's, so no pooled group leaves the scan:
    the pool and everything read from it are locals, dropped when the scan
    returns.
    """
    pool = {}  # (rows, generators) -> the one group of the scan with them
    sc_of = {}  # pooled group -> {members: subgroup} of its supercomplemented

    def supercomplemented(grp):
        if grp not in sc_of:
            sc_of[grp] = {s.members: s for s in all_subgroups(grp).subgroups
                          if is_supercomplemented(grp, s)[0]}
        return sc_of[grp]

    count = 0
    ok = True
    witness = []
    for cls in lat.conjugacy_classes:
        k = lat.subgroups[cls[0]]
        key = subgroup_table(g, k)[:2]
        k_grp = pool.get(key)
        if k_grp is None:
            k_grp = pool[key] = subgroup_as_group(g, k)[0]
        sc_subs = supercomplemented(k_grp).values()
        if not sc_subs:
            continue
        for n_sub in all_subgroups(k_grp).subgroups:
            if not is_normal(k_grp, n_sub):
                continue
            quo, proj = quotient(k_grp, n_sub.members, pool)
            sc_q = supercomplemented(quo)
            for h in sc_subs:
                count += 1
                if _conj_bits(proj, h.elements()) not in sc_q:
                    ok = False
                    if len(witness) < 3:
                        witness.append({"K_class_rep": sub_witness(k),
                                        "N": sub_witness(n_sub),
                                        "H": sub_witness(h)})
    suite.check(f"{pre}.quotient-transport", ok,
                witness or [{"tuples_checked": count}])


def _frattini_spot_checks(suite, pre, g, lat):
    phi = frattini(g)
    normal_ok = is_normal(g, phi)
    full = (1 << g.order) - 1
    nongen_ok = True
    gen_subsets = []
    gens = list(g.generators)
    for r in range(len(gens) + 1):
        gen_subsets.extend(combinations(gens, r))
    singletons = [(e,) for e in g.elements()]
    for f in phi.elements():
        if f == 0:
            continue
        for base in gen_subsets + singletons:
            with_f = closure_bits(g.mult, tuple(base) + (f,))
            if with_f == full and closure_bits(g.mult, base) != full:
                nongen_ok = False
    suite.check(f"{pre}.frattini-nongenerator", normal_ok and nongen_ok,
                [{"frattini_order": phi.order}])


def _supercomplemented_cyclic_reps(g: FiniteGroup) -> list[Subgroup]:
    """One subgroup per conjugacy class that is cyclic of prime-power order
    and supercomplemented (both properties are conjugation-invariant)."""
    lat = all_subgroups(g)
    reps = (lat.subgroups[cls[0]] for cls in lat.conjugacy_classes)
    return [s for s in reps if _cyclic_prime_power_hypothesis(g, s)[0]
            and is_supercomplemented(g, s)[0]]


def _instance_batteries(suite, pre, g):
    reps = _supercomplemented_cyclic_reps(g)
    sc_fail = []
    mn_fail = []
    for i, rep in enumerate(reps):
        for r in verify_supercomplemented_consequences(g, rep, prefix=f"{pre}.x{i}"):
            if r.status == "fail":
                sc_fail.append(r.claim)
        for r in verify_minimal_normal_bounds(g, rep, prefix=f"{pre}.x{i}"):
            if r.status == "fail":
                mn_fail.append(r.claim)
    suite.check(f"{pre}.supercomplemented-consequences", not sc_fail,
                sc_fail or [{"instances": len(reps)}])
    suite.check(f"{pre}.minimal-normal-bounds", not mn_fail,
                mn_fail or [{"instances": len(reps)}])

    if g.order > 1:
        seps = c_separating_subgroups(g)
        if seps:
            sub_reports = verify_c_separating_consequences(g, seps[0], prefix=pre)
            bad = [r.claim for r in sub_reports if r.status == "fail"]
            suite.check(f"{pre}.c-separating-consequences", not bad,
                        bad or [{"H": sub_witness(seps[0])}])
        else:
            suite.skip(f"{pre}.c-separating-consequences",
                       "skipped: no C-separating subgroup")


def reports_to_dicts(reports, timing: bool = True) -> list[dict]:
    return [r.to_dict(timing) for r in reports]


def summarize(reports) -> dict:
    out = {"pass": 0, "fail": 0, "skipped": 0}
    for r in reports:
        out[r.status] += 1
    return out
