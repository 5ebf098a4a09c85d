"""Subgroups as bitsets over a parent group, and exhaustive lattice enumeration.

Membership bitsets make intersection, product and conjugation word-parallel
integer operations; exhaustive searches over the lattice dominate runtime, so
everything here is deterministic and heavily memoized on the parent group.
"""

from __future__ import annotations

import math

from ._primes import is_prime, lcm, prime_factors
from .groups import CapExceededError, FiniteGroup, PreconditionError, element_order

LATTICE_CAP = 512


def bits_of(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def bit_indices(bits: int) -> tuple[int, ...]:
    out = []
    i = 0
    while bits:
        if bits & 1:
            out.append(i)
        bits >>= 1
        i += 1
    return tuple(out)


class Subgroup:
    """Subgroup of a parent group, stored as a membership bitset.

    ``gens`` is a (small) generating tuple kept from construction; it is not
    part of the identity of the subgroup, which is (parent, members) only.
    """

    __slots__ = ("parent", "members", "order", "gens", "_elems")

    def __init__(self, parent: FiniteGroup, members: int, gens=()):
        if not members & 1:
            raise PreconditionError("subgroup must contain the identity (index 0)")
        self.parent = parent
        self.members = members
        self.order = members.bit_count()
        self.gens = tuple(gens)
        self._elems = None
        if parent.order % self.order:
            raise PreconditionError("subgroup order must divide the group order")

    def elements(self) -> tuple[int, ...]:
        if self._elems is None:
            self._elems = bit_indices(self.members)
        return self._elems

    def contains(self, other: "Subgroup") -> bool:
        return other.members & self.members == other.members

    def sort_key(self):
        return (self.order, self.elements())

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and self.parent is other.parent
                and self.members == other.members)

    def __hash__(self):
        return hash((id(self.parent), self.members))

    def __repr__(self):
        names = ",".join(self.parent.labels[g] for g in self.gens) or "e"
        return f"<Subgroup |H|={self.order} = <{names}>>"


def trivial_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, 1)


def full_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, (1 << g.order) - 1, g.generators)


def closure_bits(g: FiniteGroup, seed, cap: int | None = None) -> int | None:
    """Bitset of the subgroup generated by ``seed`` element indices.

    With ``cap`` set, returns None as soon as the closure exceeds cap elements.
    """
    mult = g.mult
    members = 1
    count = 1
    gens = []
    for s in seed:
        if s and not members >> s & 1:
            members |= 1 << s
            count += 1
            gens.append(s)
    frontier = [0] + gens
    while frontier:
        nxt = []
        for e in frontier:
            row = mult[e]
            for s in gens:
                p = row[s]
                if not members >> p & 1:
                    members |= 1 << p
                    count += 1
                    nxt.append(p)
        if cap is not None and count > cap:
            return None
        frontier = nxt
    return members


def generated_subgroup(g: FiniteGroup, elems) -> Subgroup:
    """Least subgroup containing the given element indices."""
    elems = tuple(elems)
    bits = closure_bits(g, elems)
    return Subgroup(g, bits, tuple(e for e in elems if e != 0))


def subgroup_from_members(g: FiniteGroup, members) -> Subgroup:
    """Build a subgroup from an explicit member set, verifying closure."""
    bits = members if isinstance(members, int) else bits_of(members)
    elems = bit_indices(bits)
    for a in elems:
        row = g.mult[a]
        for b in elems:
            if not bits >> row[b] & 1:
                raise PreconditionError("member set is not closed under multiplication")
    return Subgroup(g, bits, _small_gens(g, bits))


def _small_gens(g: FiniteGroup, bits: int) -> tuple[int, ...]:
    gens: list[int] = []
    have = 1
    for e in bit_indices(bits):
        if not have >> e & 1:
            gens.append(e)
            have = closure_bits(g, gens)
            if have == bits:
                break
    return tuple(gens)


def cyclic_subgroups(g: FiniteGroup) -> tuple[Subgroup, ...]:
    """All cyclic subgroups, deduplicated, canonically sorted and cached."""

    def build():
        seen: dict[int, int] = {}
        for e in range(1, g.order):
            bits = 1
            cur = e
            while cur:
                bits |= 1 << cur
                cur = g.mult[cur][e]
            if bits not in seen:
                seen[bits] = e
        subs = [Subgroup(g, bits, (e,)) for bits, e in seen.items()]
        subs.sort(key=Subgroup.sort_key)
        return tuple(subs)

    return g.cached("cyclic_subgroups", build)


def _subgroups_order_dividing(g: FiniteGroup, c: int) -> tuple[Subgroup, ...]:
    """All subgroups whose order divides c, canonically sorted.

    When every such subgroup is solvable, each nontrivial one, L, has a normal
    subgroup M of prime index p, and L = M·<x> for any element x of L outside
    M of p-power order.  The search therefore builds layer k+1 from layer k
    by cyclic extension with such elements (see ``_cyclic_extension``).
    When ``_all_solvable`` cannot show that (c ≥ 60 with three or more
    prime factors, and G not solvable) it falls back to joins with cyclic
    subgroups of order dividing c, keeping the joins whose order divides c
    (``_join_search``).  Derived from the full lattice when that is cached.
    """
    c = math.gcd(g.order, c)

    def build():
        full = g._cache.get(("sub_div", g.order))
        if full is not None:
            return tuple(s for s in full if c % s.order == 0)
        if _all_solvable(g, c):
            return _cyclic_extension(g, c)
        cyclics = [s for s in cyclic_subgroups(g) if c % s.order == 0]
        return _join_search(g, [trivial_subgroup(g), *cyclics], cyclics, cap=c)

    return g.cached(("sub_div", c), build)


def _all_solvable(g: FiniteGroup, c: int) -> bool:
    """A sufficient condition for every subgroup of G of order dividing c to
    be solvable.

    It holds when c < 60 (every group of order below 60 is solvable), when c
    has at most two prime factors (Burnside's p^a·q^b theorem), or when G
    itself is solvable.  A False answer is conservative: in S5 every subgroup
    of order dividing 120 except S5 itself is solvable.
    """
    if c < 60 or len(prime_factors(c)) < 3:
        return True
    from .series import derived_length  # series imports this module
    return derived_length(g) is not None


def _cyclic_extension(g: FiniteGroup, c: int) -> tuple[Subgroup, ...]:
    """Neubüser's cyclic-extension method, for c with solvable subgroups only.

    For each found H and each cyclic subgroup <x> of prime-power order with
    p·|H| dividing c, where p is the prime of |x|: if x is not in H, x^p is
    in H and x normalizes H, then H·<x> = H ∪ Hx ∪ ... ∪ Hx^(p-1) is a
    subgroup of order p·|H|.  Any valid y in that subgroup outside H gives
    the same extension, so the bitset ``covered`` of the extensions already
    built from H lets later candidates in it be skipped.
    """
    mult, inv = g.mult, g.inv
    zuppos = []
    for cyc in cyclic_subgroups(g):
        primes = prime_factors(cyc.order)
        if len(primes) == 1 and c % cyc.order == 0:
            x = cyc.gens[0]
            zuppos.append((x, inv[x], primes[0], g.power(x, primes[0])))
    layer = [trivial_subgroup(g)]
    found = {1: layer[0]}
    while layer:
        nxt = []
        for h in layer:
            hm, room = h.members, c // h.order
            covered = hm
            for x, x_inv, p, xp in zuppos:
                if covered >> x & 1 or room % p or not hm >> xp & 1:
                    continue
                if not all(hm >> mult[mult[x_inv][s]][x] & 1 for s in h.gens):
                    continue
                bits, y = hm, x
                for _ in range(p - 1):
                    bits |= _coset_bits(mult, h.elements(), y)
                    y = mult[y][x]
                covered |= bits
                if bits not in found:
                    new = Subgroup(g, bits, h.gens + (x,))
                    found[bits] = new
                    nxt.append(new)
        layer = nxt
    return tuple(sorted(found.values(), key=Subgroup.sort_key))


def _coset_bits(mult, elems, y: int) -> int:
    """Bitset of the right coset H·y, given the elements of H."""
    bits = 0
    for m in elems:
        bits |= 1 << mult[m][y]
    return bits


def _join_bits(g: FiniteGroup, h: Subgroup, x: int, cap: int | None = None) -> int | None:
    """Bitset of <H, x>, grown from H one right coset H·t at a time.

    The union K of the cosets H·t over the transversal found so far is closed
    once every t·s, s a generator of H or x, lies in K.  With ``cap`` set,
    returns None as soon as K exceeds cap elements.
    """
    mult = g.mult
    elems = h.elements()
    gens = (h.gens or elems) + (x,)
    bits, count = h.members, h.order
    reps = [0]
    for t in reps:
        row = mult[t]
        for s in gens:
            y = row[s]
            if not bits >> y & 1:
                bits |= _coset_bits(mult, elems, y)
                count += h.order
                if cap is not None and count > cap:
                    return None
                reps.append(y)
    return bits


def _join_search(g: FiniteGroup, seeds, cyclics, cap: int | None = None) -> tuple[Subgroup, ...]:
    """Close ``seeds`` under joins with ``cyclics``, canonically sorted.

    With ``cap`` set, only joins whose order divides cap are kept; any
    subgroup of such order is reachable through joins that stay inside it.
    """
    found = {s.members: s for s in seeds}
    frontier = list(found.values())
    while frontier:
        nxt = []
        for sub in frontier:
            for cyc in cyclics:
                x = cyc.gens[0]
                if sub.members >> x & 1:
                    continue
                bits = _join_bits(g, sub, x, cap)
                if bits is None or bits in found:
                    continue
                if cap is not None and cap % bits.bit_count():
                    continue
                new = Subgroup(g, bits, sub.gens + (x,))
                found[bits] = new
                nxt.append(new)
        frontier = nxt
    return tuple(sorted(found.values(), key=Subgroup.sort_key))


class SubgroupLattice:
    """The complete subgroup lattice, canonically ordered.

    ``inclusion`` is the covering relation of the Hasse diagram;
    ``conjugacy_classes`` partitions subgroup indices.
    """

    def __init__(self, group: FiniteGroup, subgroups):
        self.group = group
        self.subgroups = tuple(subgroups)
        self.index_of = {s.members: i for i, s in enumerate(self.subgroups)}
        self._by_order = None
        self._inclusion = None
        self._classes = None

    def __len__(self):
        return len(self.subgroups)

    def by_order(self, order: int) -> tuple[Subgroup, ...]:
        if self._by_order is None:
            table: dict[int, list[Subgroup]] = {}
            for s in self.subgroups:
                table.setdefault(s.order, []).append(s)
            self._by_order = {k: tuple(v) for k, v in table.items()}
        return self._by_order.get(order, ())

    @property
    def inclusion(self) -> tuple[tuple[int, int], ...]:
        if self._inclusion is None:
            # The covers of a subgroup are its maximal subgroups: walking the
            # smaller subgroups in decreasing canonical order, a subgroup is
            # maximal unless a cover already accepted contains it.
            members = [s.members for s in self.subgroups]
            orders = [s.order for s in self.subgroups]
            pairs = []
            lo = 0
            for j, big in enumerate(members):
                while orders[lo] < orders[j]:
                    lo += 1
                covers: list[int] = []
                below = [i for i in range(lo - 1, -1, -1)
                         if members[i] & big == members[i]]
                for i in below:
                    sm = members[i]
                    for m in covers:
                        if sm & m == sm:
                            break
                    else:
                        covers.append(sm)
                        pairs.append((i, j))
            self._inclusion = tuple(sorted(pairs))
        return self._inclusion

    @property
    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        if self._classes is None:
            g = self.group
            assigned = [-1] * len(self.subgroups)
            classes = []
            for i, sub in enumerate(self.subgroups):
                if assigned[i] >= 0:
                    continue
                orbit = sorted(self.index_of[c.members] for c in conjugates(g, sub))
                for k in orbit:
                    assigned[k] = len(classes)
                classes.append(tuple(orbit))
            self._classes = tuple(classes)
        return self._classes

    def maximal_subgroups(self) -> tuple[Subgroup, ...]:
        proper = [s for s in self.subgroups if s.order < self.group.order]
        maximal: list[Subgroup] = []
        for s in sorted(proper, key=lambda t: -t.order):
            if not any(m.contains(s) for m in maximal):
                maximal.append(s)
        return tuple(sorted(maximal, key=Subgroup.sort_key))


def all_subgroups(g: FiniteGroup, cap: int = LATTICE_CAP) -> SubgroupLattice:
    """Complete subgroup lattice; groups larger than ``cap`` are rejected."""
    if g.order > cap:
        raise CapExceededError("lattice", cap, g.order)

    def build():
        return SubgroupLattice(g, _subgroups_order_dividing(g, g.order))

    return g.cached("lattice", build)


def overgroups(g: FiniteGroup, h: Subgroup) -> tuple[Subgroup, ...]:
    """All subgroups K with H <= K <= G, by joins with cyclic subgroups.

    Does not require the full lattice; reuses it when already built.
    """
    lat = g._cache.get("lattice")
    if lat is not None:
        return tuple(s for s in lat.subgroups if s.contains(h))
    return overgroups_by_joins(g, h)


def overgroups_by_joins(g: FiniteGroup, h: Subgroup) -> tuple[Subgroup, ...]:
    """The join-based overgroup enumeration, independent of the lattice."""
    return _join_search(g, [h], cyclic_subgroups(g))


# -- conjugation and normality ----------------------------------------------


def _conj_perms(g: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Per generator gen, the permutation e -> e^gen, cached."""
    return g.cached(
        "conj_perms",
        lambda: tuple(tuple(g.conj(e, gen) for e in g.elements())
                      for gen in g.generators))


def _conj_bits(perm, elems) -> int:
    out = 0
    for e in elems:
        out |= 1 << perm[e]
    return out


def conjugate_subgroup(g: FiniteGroup, h: Subgroup, by: int) -> Subgroup:
    inv = g.inv[by]
    members = 0
    for e in h.elements():
        members |= 1 << g.mult[g.mult[inv][e]][by]
    return Subgroup(g, members, tuple(g.conj(e, by) for e in h.gens))


def is_normal(g: FiniteGroup, h: Subgroup) -> bool:
    for perm in _conj_perms(g):
        for e in h.gens or h.elements():
            if not h.members >> perm[e] & 1:
                return False
    return True


def conjugates(g: FiniteGroup, h: Subgroup) -> tuple[Subgroup, ...]:
    """The conjugacy class of h, canonically sorted."""
    seen = {h.members: h}
    frontier = [h]
    perms = _conj_perms(g)
    while frontier:
        nxt = []
        for sub in frontier:
            elems = sub.elements()
            for perm in perms:
                bits = _conj_bits(perm, elems)
                if bits not in seen:
                    new = Subgroup(g, bits,
                                   tuple(perm[e] for e in sub.gens))
                    seen[bits] = new
                    nxt.append(new)
        frontier = nxt
    return tuple(sorted(seen.values(), key=Subgroup.sort_key))


def normal_closure(g: FiniteGroup, h: Subgroup) -> Subgroup:
    """Least normal subgroup of G containing h."""
    gens = list(h.gens)
    bits = closure_bits(g, gens)
    perms = _conj_perms(g)
    changed = True
    while changed:
        changed = False
        for s in list(gens):
            for perm in perms:
                c = perm[s]
                if not bits >> c & 1:
                    gens.append(c)
                    bits = closure_bits(g, gens)
                    changed = True
    return Subgroup(g, bits, tuple(gens))


def core(g: FiniteGroup, h: Subgroup) -> Subgroup:
    """Intersection of all conjugates of h (the largest normal subgroup inside)."""
    bits = h.members
    for c in conjugates(g, h):
        bits &= c.members
    return Subgroup(g, bits, _small_gens(g, bits))


def normalizer(g: FiniteGroup, h: Subgroup) -> Subgroup:
    gens = h.gens or h.elements()
    members = 0
    for e in g.elements():
        inv = g.inv[e]
        if all(h.members >> g.mult[g.mult[inv][s]][e] & 1 for s in gens):
            members |= 1 << e
    return Subgroup(g, members, _small_gens(g, members))


def intersection(a: Subgroup, b: Subgroup) -> Subgroup:
    bits = a.members & b.members
    return Subgroup(a.parent, bits, _small_gens(a.parent, bits))


# -- set products and the modular identity ----------------------------------


def _coset_cover(g: FiniteGroup, a: Subgroup) -> tuple[int, ...]:
    """For each element e, the bitset of the right coset A·e; cached per subgroup."""
    key = ("cosets", a.members)

    def build():
        cover = [0] * g.order
        elems = a.elements()
        for e in g.elements():
            if cover[e]:
                continue
            bits = 0
            for m in elems:
                bits |= 1 << g.mult[m][e]
            for x in bit_indices(bits):
                cover[x] = bits
        return tuple(cover)

    return g.cached(key, build)


def product_bits(g: FiniteGroup, a: Subgroup, b: Subgroup) -> int:
    """Bitset of the product set AB = {a·b}."""
    cover = _coset_cover(g, a)
    bits = 0
    for e in b.elements():
        bits |= cover[e]
    return bits


def product_set(g: FiniteGroup, a: Subgroup, b: Subgroup):
    """The set AB and whether it is a subgroup (AB = BA criterion).

    |AB| = |A||B| / |A∩B| is asserted, as it must hold for any two subgroups.
    """
    ab = product_bits(g, a, b)
    inter = (a.members & b.members).bit_count()
    if ab.bit_count() * inter != a.order * b.order:
        raise AssertionError("|AB|·|A∩B| != |A|·|B|: engine inconsistency")
    return ab, ab == product_bits(g, b, a)


def dedekind_identity_check(g: FiniteGroup, a: Subgroup, b: Subgroup,
                            t: Subgroup) -> bool:
    """Modular identity: with A <= B <= G and G = AT, test B = A(B∩T).

    Precondition violations raise PreconditionError; a False return means the
    identity itself failed (which would indicate an engine bug).
    """
    if not b.contains(a):
        raise PreconditionError("A must be contained in B")
    inter_at = (a.members & t.members).bit_count()
    if a.order * t.order != g.order * inter_at:
        raise PreconditionError("G = A·T must hold as a product set")
    bt = Subgroup(g, b.members & t.members)
    return product_bits(g, a, bt) == b.members


# -- commutativity predicates ------------------------------------------------


def _as_parent_and_elems(x):
    if isinstance(x, Subgroup):
        return x.parent, x.elements(), x.members
    return x, tuple(x.elements()), (1 << x.order) - 1


def is_abelian(x) -> bool:
    """Whether a group or subgroup is abelian (cached per member set)."""
    g, elems, bits = _as_parent_and_elems(x)

    def compute():
        for i, a in enumerate(elems):
            row = g.mult[a]
            for b in elems[i + 1:]:
                if row[b] != g.mult[b][a]:
                    return False
        return True

    return g.cached(("abelian", bits), compute)


def subgroup_exponent(x) -> int:
    g, elems, bits = _as_parent_and_elems(x)
    return g.cached(("exponent", bits),
                    lambda: lcm(element_order(g, e) for e in elems))


def is_elementary_abelian(x) -> bool:
    """Abelian of prime exponent; the trivial group counts as elementary abelian."""
    g, elems, bits = _as_parent_and_elems(x)
    if len(elems) == 1:
        return True
    return is_abelian(x) and is_prime(subgroup_exponent(x))


def subgroup_primes(x) -> set[int]:
    g, elems, _ = _as_parent_and_elems(x)
    out: set[int] = set()
    for e in elems:
        out.update(prime_factors(element_order(g, e)))
    return out


# -- lattice export -----------------------------------------------------------


def lattice_to_dict(lat: SubgroupLattice) -> dict:
    g = lat.group
    return {
        "group_order": g.order,
        "subgroups": [list(s.elements()) for s in lat.subgroups],
        "orders": [s.order for s in lat.subgroups],
        "inclusion": [list(p) for p in lat.inclusion],
        "normal": [is_normal(g, s) for s in lat.subgroups],
        "conjugacy_classes": [list(c) for c in lat.conjugacy_classes],
    }


def lattice_to_dot(lat: SubgroupLattice) -> str:
    """Hasse diagram of the covering relation in DOT format."""
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for i, s in enumerate(lat.subgroups):
        shape = "doubleoctagon" if s.order == lat.group.order else "ellipse"
        lines.append(f'  H{i} [label="H{i}\\n|H|={s.order}" shape={shape}];')
    for i, j in lat.inclusion:
        lines.append(f"  H{i} -> H{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
