"""Structural series and distinguished subgroups: derived and chief series,
Frattini and Sylow subgroups, minimal normal subgroups."""

from __future__ import annotations

import math
from typing import NamedTuple

from ._primes import is_p_power, is_prime, p_part, prime_factors
from .groups import (FiniteGroup, PreconditionError, cached_quotient,
                     element_orders)
from .subgroups import (Subgroup, all_subgroups, as_subgroup, is_abelian,
                        is_elementary_abelian, _normal_closure,
                        trivial_subgroup)


class FactorInfo(NamedTuple):
    order: int
    abelian: bool
    elementary_abelian: bool
    prime: int | None


class SeriesReport(NamedTuple):
    """A descending subgroup series with per-step factor structure.

    ``length`` is the derived length or nilpotency class when the series
    reaches the trivial subgroup, None otherwise.
    """

    kind: str
    terms: tuple
    length: int | None
    factors: tuple


def commutator_subgroup(g: FiniteGroup, a: Subgroup, b: Subgroup) -> Subgroup:
    """[A, B] = <[a, b] : a in A, b in B>, as the normal closure in <A, B>
    of the commutators [a_i, b_j] of generators of A and B (Holt, Eick and
    O'Brien, *Handbook of Computational Group Theory*, 2005)."""
    return _normal_closure(g, (g.commutator(x, y) for x in a.gens for y in b.gens),
                           a.gens + b.gens)


def derived_subgroup(x) -> Subgroup:
    sub = as_subgroup(x)
    g = sub.parent
    return g.cached(("derived", sub.members),
                    lambda: commutator_subgroup(g, sub, sub))


def _section_exponent(g: FiniteGroup, a: Subgroup, b_bits: int) -> int:
    """Exponent of the section A/B: lcm over a in A of min k with a^k in B."""
    orders = []
    for e in a.elements():
        k, cur = 1, e
        while not b_bits >> cur & 1:
            cur = g.mult[cur][e]
            k += 1
        orders.append(k)
    return math.lcm(*orders)


def section_info(g: FiniteGroup, a: Subgroup, b: Subgroup) -> FactorInfo:
    """Structure of the factor A/B, for B normal in A with A/B abelian.

    The factors of the derived and lower central series are abelian by
    construction: A/[A, A], and γ_i/[γ_i, A] since [γ_i, γ_i] <= [γ_i, A].
    """
    order = a.order // b.order
    primes = prime_factors(order)
    return FactorInfo(order, True,
                      order == 1 or is_prime(_section_exponent(g, a, b.members)),
                      primes[0] if len(primes) == 1 else None)


def _terms(sub: Subgroup, step) -> list[Subgroup]:
    """The series sub = T_0 > T_1 > ... with T_(i+1) = step(T_i), stopped at
    the first step that changes nothing."""
    terms = [sub]
    while True:
        nxt = step(terms[-1])
        if nxt.members == terms[-1].members:
            return terms
        terms.append(nxt)


def _length(terms: list[Subgroup]) -> int | None:
    """The steps of a series that reaches the trivial subgroup, else None."""
    return len(terms) - 1 if terms[-1].order == 1 else None


def _series(kind: str, sub: Subgroup, step) -> SeriesReport:
    terms = _terms(sub, step)
    factors = tuple(section_info(sub.parent, a, b) for a, b in zip(terms, terms[1:]))
    return SeriesReport(kind, tuple(terms), _length(terms), factors)


def _lower_central_step(sub: Subgroup):
    return lambda t: commutator_subgroup(sub.parent, t, sub)


def derived_series(x) -> SeriesReport:
    return _series("derived", as_subgroup(x), derived_subgroup)


def derived_length(x) -> int | None:
    """Derived length, or None when the derived series does not reach 1."""
    sub = as_subgroup(x)
    return sub.parent.cached(("derived_len", sub.members),
                             lambda: _length(_terms(sub, derived_subgroup)))


def is_nilpotent(x) -> bool:
    sub = as_subgroup(x)
    return sub.parent.cached(
        ("nilpotent", sub.members),
        lambda: _terms(sub, _lower_central_step(sub))[-1].order == 1)


def frattini(g: FiniteGroup) -> Subgroup:
    """Intersection of all maximal subgroups (G itself if none exist)."""
    lat = all_subgroups(g)
    maximal = lat.maximal_subgroups()
    if not maximal:
        return as_subgroup(g)
    bits = (1 << g.order) - 1
    for m in maximal:
        bits &= m.members
    return Subgroup(g, bits)


def sylow_subgroup(g: FiniteGroup, p: int, containing: Subgroup | None = None) -> Subgroup:
    """A Sylow p-subgroup, canonical-first; optionally one containing a given p-subgroup."""
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    target = p_part(g.order, p)
    lat = all_subgroups(g)
    candidates = lat.by_order(target)
    if containing is not None:
        if not is_p_power(containing.order, p):
            raise PreconditionError("given subgroup is not a p-subgroup")
        for s in candidates:
            if s.contains(containing):
                return s
        raise AssertionError("Sylow theorem violated: no Sylow subgroup contains the p-subgroup")
    return candidates[0]


def minimal_normal_subgroups(g: FiniteGroup) -> tuple[Subgroup, ...]:
    """Minimal nontrivial normal subgroups, via normal closures of elements
    of prime order.

    Every minimal normal subgroup N contains an element e of prime order, and
    then ncl(e) = N; every ncl(e) contains some minimal normal subgroup.  So
    the minimal elements among those closures are exactly the minimal normal
    subgroups.  Avoids needing the full lattice.
    """

    def build():
        orders = element_orders(g)
        prime = {k: is_prime(k) for k in set(orders)}
        closures: dict[int, Subgroup] = {}
        for e in range(1, g.order):
            if prime[orders[e]]:
                sub = _normal_closure(g, (e,), g.generators)
                closures.setdefault(sub.members, sub)
        subs = list(closures.values())
        minimal = [s for s in subs
                   if not any(t.members != s.members and s.contains(t) for t in subs)]
        return tuple(sorted(minimal, key=Subgroup.sort_key))

    return g.cached("min_normals", build)


def chief_series(g: FiniteGroup) -> SeriesReport:
    """A chief series, refined by canonical-first minimal normal subgroups
    of the successive quotients, pulled back to G."""
    ascending = [trivial_subgroup(g)]
    factors_up = []
    while ascending[-1].order < g.order:
        current = ascending[-1]
        quo, proj = cached_quotient(g, current.members)
        m = minimal_normal_subgroups(quo)[0]
        pre_bits = 0
        for e in g.elements():
            if m.members >> proj[e] & 1:
                pre_bits |= 1 << e
        ascending.append(Subgroup(g, pre_bits))
        primes = prime_factors(m.order)
        factors_up.append(FactorInfo(m.order, is_abelian(m),
                                     is_elementary_abelian(m),
                                     primes[0] if len(primes) == 1 else None))
    terms = tuple(reversed(ascending))
    return SeriesReport("chief", terms, len(terms) - 1,
                        tuple(reversed(factors_up)))
