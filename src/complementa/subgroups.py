"""Subgroups as bitsets over a parent group, and exhaustive lattice enumeration.

Membership bitsets make intersection, product and conjugation word-parallel
integer operations; exhaustive searches over the lattice dominate runtime, so
everything here is deterministic and heavily memoized on the parent group.
"""

from __future__ import annotations

import math

from ._primes import is_prime, prime_factors, primitive_root
from .groups import (CapExceededError, FiniteGroup, PreconditionError,
                     bit_indices, closure_bits, element_order, extend_on_generators,
                     greedy_generators, normalizes)

LATTICE_CAP = 512


class Subgroup:
    """Subgroup of a parent group, stored as a membership bitset.

    ``gens`` always generates ``members``: closure_bits(parent.mult, gens)
    == members.  A routine that builds the subgroup from a generating tuple
    passes that tuple and it is kept; every other subgroup derives its tuple
    on first read, greedily from its elements in ascending order.  The
    subgroup search (``_join_search``) gives each ⟨K, x⟩ it builds K's gens
    plus x.  For a lattice it builds one subgroup per orbit: per
    automorphism orbit (``_automorphisms``) when the parent is abelian, per
    conjugacy class otherwise.  Each other subgroup of the orbit records the
    image of the tuple of the subgroup it was mapped from.  User
    input reaches here only through ``generated_subgroup``.  ``gens`` is not
    part of the identity of the subgroup, which is (parent, members) only.

    ``elements()`` is ``bit_indices(members)``, read off the bitset on first
    call unless the constructor is given it as ``elems``, which it trusts:
    ``_orbit`` passes each image's sorted members, which it has already.
    """

    __slots__ = ("parent", "members", "order", "_gens", "_elems")

    def __init__(self, parent: FiniteGroup, members: int, gens=None, elems=None):
        if not members & 1:
            raise PreconditionError("subgroup must contain the identity (index 0)")
        self.parent = parent
        self.members = members
        self.order = members.bit_count()
        self._gens = None if gens is None else tuple(gens)
        self._elems = None if elems is None else tuple(elems)
        if parent.order % self.order:
            raise PreconditionError("subgroup order must divide the group order")

    @property
    def gens(self) -> tuple[int, ...]:
        if self._gens is None:
            self._gens = tuple(s for s, _ in greedy_generators(
                self.parent.mult, bit_indices(self.members)))
        return self._gens

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


def generated_subgroup(g: FiniteGroup, elems) -> Subgroup:
    """Least subgroup containing the given element indices."""
    elems = tuple(elems)
    bits = closure_bits(g.mult, elems)
    return Subgroup(g, bits, tuple(e for e in elems if e != 0))


def cyclic_subgroups(g: FiniteGroup) -> tuple[Subgroup, ...]:
    """All cyclic subgroups, deduplicated and canonically sorted.  Not
    memoized: its one library reader, ``_prime_power_cyclics``, is."""
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


def _subgroups_order_dividing(g: FiniteGroup, c: int) -> SubgroupLattice:
    """The subgroups whose order divides c, as the ``SubgroupLattice``
    memoized under ``("sub_div", c)``.

    Found by ``_join_search`` from the trivial subgroup, with join steps only
    when ``_all_solvable`` cannot show that every such subgroup is solvable;
    otherwise extension steps alone find them all.
    """
    c = math.gcd(g.order, c)

    def build():
        orbits = []
        subs = _join_search(g, trivial_subgroup(g), c, not _all_solvable(g, c),
                            orbits)
        orbits = tuple(orbits)
        classes = tuple((s.members,) for s in subs) if is_abelian(g) else orbits
        return SubgroupLattice(g, subs, classes, orbits)

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


def _prime_power_cyclics(g: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """(order, x, p, xᵖ) for the generator x of each cyclic subgroup of
    prime-power order, p the prime, in canonical order; cached."""

    def build():
        out = []
        for cyc in cyclic_subgroups(g):
            primes = prime_factors(cyc.order)
            if len(primes) == 1:
                x = cyc.gens[0]
                out.append((cyc.order, x, primes[0], g.power(x, primes[0])))
        return tuple(out)

    return g.cached("prime_power_cyclics", build)


def _coset_bits(mult, elems, y: int) -> int:
    """Bitset of the right coset H·y, given the elements of H."""
    bits = 0
    for m in elems:
        bits |= 1 << mult[m][y]
    return bits


def _grow_cosets(mult, h: Subgroup, bits: int, reps: list, gens,
                 cap: int) -> int | None:
    """The least union of right cosets of H that contains ``bits``, the
    union of the cosets H·t for t in ``reps``, and is closed under right
    multiplication by ``gens``: each t·s outside it adds the coset H·t·s,
    whose representative t·s is appended to ``reps`` in turn.  The union is
    closed once every t·s lies in it.  Returns None as soon as it exceeds
    cap elements.
    """
    elems, most = h.elements(), cap // h.order
    for t in reps:
        row = mult[t]
        for s in gens:
            y = row[s]
            if not bits >> y & 1:
                bits |= _coset_bits(mult, elems, y)
                reps.append(y)
                if len(reps) > most:
                    return None
    return bits


def _join_bits(g: FiniteGroup, h: Subgroup, x: int, cap: int) -> int | None:
    """Bitset of <H, x>, or None once it exceeds cap elements: the least
    union of right cosets of H that holds H and is closed under right
    multiplication by H's gens and x (``_grow_cosets``)."""
    return _grow_cosets(g.mult, h, h.members, [0], h.gens + (x,), cap)


def _join_search(g: FiniteGroup, seed: Subgroup, cap: int, joins: bool,
                 orbits: list | None = None) -> tuple[Subgroup, ...]:
    """The subgroups that contain ``seed`` and have order dividing ``cap``,
    canonically sorted.

    Each found K is joined with the generator x of each cyclic subgroup of
    prime-power order dividing cap (``_prime_power_cyclics``), which finds
    them all.  A subgroup L ≠ seed above the seed has a subgroup M with
    seed ≤ M < L, maximal in L.  L is generated by its elements of
    prime-power order (each element is a product of powers of itself of
    prime-power order), so one of them, x, lies in L outside M, and then
    ⟨M, x⟩ = L.  |M| and |x| divide |L|, so by induction on |L| the search
    reaches L.  The joins of each K are ``_kept_joins``; each ⟨K, x⟩ not
    found before records K's gens plus x.

    Without ``joins``, extension steps alone find every subgroup above the
    trivial seed when all of order dividing cap are solvable: a solvable
    L ≠ 1 has a normal subgroup M of prime index p, and L = M·⟨x⟩ for any x
    of p-power order in L outside M.

    With ``orbits`` None, each K's joins are memoized under
    ``("joins", K.members, cap, joins)``, so searches from many seeds of one
    group, such as ``overgroups_by_joins`` from every subgroup, join each K
    once.  With ``orbits`` a list, the search runs by orbit, for a seed that
    every acting permutation fixes: each subgroup not found before brings
    its whole orbit into the found set (``_orbit``, appended to ``orbits``)
    and is the one subgroup of that orbit joined in turn, unmemoized, as
    one search joins it once.  The permutations, ``_automorphisms``, make
    the orbits automorphism orbits in an abelian G and conjugacy classes
    otherwise.  Since a(⟨K, x⟩) = ⟨a(K), a(x)⟩ for an automorphism a, the
    joins of the images of K are the images of joins of K, and
    automorphisms keep orders, so the cap too.  Only the subgroups joined
    record the gens the search without orbits would.
    """
    cands = [t for t in _prime_power_cyclics(g) if cap % t[0] == 0]
    perms = () if orbits is None else _automorphisms(g)

    def joined(k):
        if orbits is not None:
            return _kept_joins(g, k, cap, joins, cands)
        return g.cached(("joins", k.members, cap, joins),
                        lambda: _kept_joins(g, k, cap, joins, cands))

    def orbit(sub):
        if orbits is None:
            return {sub.members: sub}
        orb = _orbit(g, sub, perms)
        orbits.append(tuple(orb))
        return orb

    found = orbit(seed)
    frontier = [seed]
    while frontier:
        nxt = []
        for k in frontier:
            for x, bits in joined(k):
                if bits not in found:
                    new = Subgroup(g, bits, k.gens + (x,))
                    found.update(orbit(new))
                    nxt.append(new)
        frontier = nxt
    return tuple(sorted(found.values(), key=Subgroup.sort_key))


def _kept_joins(g: FiniteGroup, k: Subgroup, cap: int, joins: bool,
                cands) -> tuple[tuple[int, int], ...]:
    """The (x, bits of ⟨K, x⟩) pairs the join search keeps for K, in the
    order of ``cands``, the (order, x, p, xᵖ) of ``_prime_power_cyclics``
    whose order divides cap.

    For each x not in ``skip``, a bitset of elements y known to give a join
    ⟨K, y⟩ already made for K:
    - extension step: if p·|K| divides cap (p the prime of |x|), xᵖ ∈ K and
      x normalizes K, then ⟨K, x⟩ = K ∪ Kx ∪ … ∪ Kxᵖ⁻¹, built from cosets
      (Neubüser's cyclic extension).  The cheap tests run first;
    - join step: otherwise, with ``joins`` set, ⟨K, x⟩ is grown from K by
      ``_join_bits`` and kept if its order divides cap.
    When |⟨K, x⟩ : K| is prime, all of ⟨K, x⟩ goes into ``skip``, since any
    y in it outside K gives the same join; otherwise, or past the cap, the
    double coset KxK does, since ⟨K, k₁·x·k₂⟩ = ⟨K, x⟩.  So every skipped
    join repeats an earlier one, and the subgroups the search finds, the
    ``gens`` each records (K's gens plus the x of the first join that finds
    it) and their order are those of the search without skips.

    The pairs depend on K's members, cap and ``joins`` alone: K's gens
    change only which generating set the tests read.
    """
    mult = g.mult
    km, kgens, elems, room = k.members, k.gens, k.elements(), cap // k.order
    skip = km
    kept = []
    for _, x, p, xp in cands:
        if skip >> x & 1:
            continue
        if (not room % p and km >> xp & 1
                and normalizes(g, km, kgens, (x,))):
            bits, y = km, x
            for _ in range(p - 1):
                bits |= _coset_bits(mult, elems, y)
                y = mult[y][x]
            skip |= bits
        elif not joins:
            continue
        else:
            bits = _join_bits(g, k, x, cap)
            if bits is not None and is_prime(bits.bit_count() // k.order):
                skip |= bits
            else:
                # the double coset KxK, grown from Kx
                skip |= _grow_cosets(mult, k, _coset_bits(mult, elems, x),
                                     [x], kgens, g.order)
            if bits is None or cap % bits.bit_count():
                continue
        kept.append((x, bits))
    return tuple(kept)


class SubgroupLattice:
    """The subgroups of G of order dividing some c, canonically ordered: the
    complete lattice when c = |G|.

    ``inclusion`` is the covering relation of the Hasse diagram;
    ``conjugacy_classes`` partitions subgroup indices, read off
    ``class_bits``, the classes as tuples of member bitsets.  ``orbits``
    are the orbits the search ran on, each led by the subgroup it extended
    or joined: the classes, except in an abelian G, where the classes are
    singletons and the orbits automorphism orbits.
    """

    def __init__(self, group: FiniteGroup, subgroups, class_bits=None, orbits=()):
        self.group = group
        self.subgroups = tuple(subgroups)
        self.index_of = {s.members: i for i, s in enumerate(self.subgroups)}
        self.class_bits = class_bits
        self.orbits = orbits
        self._by_order = None
        self._holders = None
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
    def holders(self) -> list[int]:
        """holders[e] is the bitset of the indices of the subgroups that contain e."""
        if self._holders is None:
            holders = [0] * self.group.order
            for i, s in enumerate(self.subgroups):
                bit = 1 << i
                for e in s.elements():
                    holders[e] |= bit
            self._holders = holders
        return self._holders

    def above(self, h: Subgroup) -> int:
        """Bitset of the indices of the subgroups that contain h: the AND of
        ``holders`` over h's gens, which generate h."""
        holders = self.holders
        bits = (1 << len(self.subgroups)) - 1
        for x in h.gens:
            bits &= holders[x]
        return bits

    @property
    def inclusion(self) -> tuple[tuple[int, int], ...]:
        """The covering relation, as sorted (i, k) index pairs: subgroup k
        covers subgroup i.

        Canonical order puts the overgroups of H at H's own index and above,
        so ``above(H)`` less H's own bit holds its strict overgroups.  The
        covers of H are the minimal ones: the lowest index left is minimal,
        and accepting it clears it and everything above it, which is one AND
        with the complement of its ``above``.  Only the complements are
        kept, one per subgroup.  So the pairs come out sorted.
        """
        if self._inclusion is None:
            outside = [~self.above(s) for s in self.subgroups]
            pairs = []
            for i, out in enumerate(outside):
                bits = ~out ^ 1 << i
                while bits:
                    k = (bits & -bits).bit_length() - 1
                    pairs.append((i, k))
                    bits &= outside[k]
            self._inclusion = tuple(pairs)
        return self._inclusion

    @property
    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """The partition of subgroup indices into conjugacy classes, each
        class sorted, classes ordered by their lowest index.  Read off the
        classes given to the constructor, so it is known only for a list
        built by the subgroup search."""
        if self._classes is None:
            if self.class_bits is None:
                raise PreconditionError(
                    "conjugacy classes are recorded only by the subgroup search")
            index_of = self.index_of
            self._classes = tuple(sorted(
                tuple(sorted(index_of[bits] for bits in cls))
                for cls in self.class_bits))
        return self._classes

    def maximal_subgroups(self) -> tuple[Subgroup, ...]:
        """The subgroups covered by the last one: the maximal subgroups of G
        only for the complete lattice (c = |G|), whose last subgroup is G."""
        top = len(self.subgroups) - 1
        return tuple(self.subgroups[i] for i, j in self.inclusion if j == top)


def all_subgroups(g: FiniteGroup, cap: int = LATTICE_CAP) -> SubgroupLattice:
    """Complete subgroup lattice, the ``("sub_div", |G|)`` entry; groups
    larger than ``cap`` are rejected."""
    check_lattice_cap(g, cap)
    return _subgroups_order_dividing(g, g.order)


def check_lattice_cap(g: FiniteGroup, cap: int) -> None:
    """Refuse groups above the lattice cap, before any scan or memo read."""
    if g.order > cap:
        raise CapExceededError("lattice", cap, g.order)


def overgroups(g: FiniteGroup, h: Subgroup) -> tuple[Subgroup, ...]:
    """All subgroups K with H <= K <= G, canonically sorted.

    Read off the lattice index (``SubgroupLattice.above``) when the full
    subgroup list is cached; otherwise found by ``overgroups_by_joins``.
    """
    lat = g.cached_value(("sub_div", g.order))
    if lat is None:
        return overgroups_by_joins(g, h)
    return tuple(lat.subgroups[i] for i in bit_indices(lat.above(h)))


def overgroups_by_joins(g: FiniteGroup, h: Subgroup) -> tuple[Subgroup, ...]:
    """The overgroups of h found by ``_join_search`` from h, with join steps,
    independent of the lattice.  Each new ⟨K, x⟩, x of prime-power order,
    records K's generators plus x as its own.
    """
    return _join_search(g, h, g.order, True)


# -- conjugation and normality ----------------------------------------------


def _conj_perms(g: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Per generator gen, the permutation e -> e^gen, cached."""
    return g.cached(
        "conj_perms",
        lambda: tuple(tuple(g.conj(e, gen) for e in g.elements())
                      for gen in g.generators))


def _conj_bits(perm, elems) -> int:
    """Bitset of the images perm[e] of the elements e in ``elems``, where
    ``perm`` maps elements to elements as any sequence or dict indexed by
    element: a permutation, an embedding or a projection onto a quotient."""
    out = 0
    for e in elems:
        out |= 1 << perm[e]
    return out


def is_normal(g: FiniteGroup, h: Subgroup) -> bool:
    return normalizes(g, h.members, h.gens, g.generators)


def _orbit(g: FiniteGroup, h: Subgroup, perms) -> dict[int, Subgroup]:
    """The orbit of h under the automorphisms of G given as element
    permutations ``perms``, as {members: subgroup}, h itself first: the
    closure of {h} under the permutations, each image with the image of the
    gens of the subgroup it was reached from.  Each image also keeps its
    elements, the images of those of that subgroup, sorted, so no orbit
    member but h reads them off its bitset.  With no permutations, h
    alone."""
    seen = {h.members: h}
    frontier = [h]
    while frontier:
        nxt = []
        for sub in frontier:
            elems = sub.elements()
            for perm in perms:
                bits = _conj_bits(perm, elems)
                if bits not in seen:
                    image = perm.__getitem__
                    new = Subgroup(g, bits, map(image, sub.gens),
                                   sorted(map(image, elems)))
                    seen[bits] = new
                    nxt.append(new)
        frontier = nxt
    return seen


def _automorphisms(g: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """The automorphisms of G whose orbits the lattice search runs on, as
    element permutations; cached.

    When G is not abelian, conjugation by each generator (``_conj_perms``),
    so the orbits are the conjugacy classes.  When G is abelian, where
    conjugation is trivial, generators of GL(n, p) on each elementary
    abelian Sylow subgroup of rank n ≥ 2, each the identity on the other
    Sylow subgroups.  The basis s₁, …, sₙ of a Sylow p-subgroup is what
    ``greedy_generators`` keeps of the generators of its cyclic subgroups
    (``_prime_power_cyclics``).  Two permutations serve every p: the cyclic
    shift sᵢ → sᵢ₊₁ and the transvection t₁₂: s₁ → s₁s₂.  Conjugating t₁₂ by
    the powers of the shift gives every tᵢ,ᵢ₊₁, indices mod n, and the
    commutators [tᵢⱼ, tⱼₖ] = tᵢₖ then give every elementary transvection,
    which generate SL(n, p).  So no swap of two basis elements is needed.
    GL(n, 2) = SL(n, 2); for odd p, s₁ → s₁ʳ, r a primitive root mod p, adds
    every determinant.  A Sylow subgroup that is not elementary abelian adds
    none.
    """
    if not is_abelian(g):
        return _conj_perms(g)

    def build():
        mult = g.mult
        cyclics: dict[int, list[tuple[int, int]]] = {}
        for order, x, p, _ in _prime_power_cyclics(g):
            cyclics.setdefault(p, []).append((order, x))
        # elementary abelian of rank >= 2: every cyclic subgroup has order
        # p, and there is more than one
        acting = {p for p, xs in cyclics.items()
                  if len(xs) > 1 and all(order == p for order, _ in xs)}
        if not acting:
            return ()
        bases = {p: [s for s, _ in greedy_generators(mult, (x for _, x in xs))]
                 for p, xs in sorted(cyclics.items())}
        gens = [s for basis in bases.values() for s in basis]
        perms = []
        for p, s in bases.items():
            if p not in acting:
                continue
            moves = [dict(zip(s, s[1:] + s[:1])), {s[0]: mult[s[0]][s[1]]}]
            if p > 2:
                moves.append({s[0]: g.power(s[0], primitive_root(p))})
            for move in moves:
                perms.append(_extend_to_automorphism(
                    g, gens, [move.get(x, x) for x in gens]))
        return tuple(perms)

    return g.cached("automorphisms", build)


def _extend_to_automorphism(g: FiniteGroup, gens, images) -> tuple[int, ...]:
    """The automorphism of G that sends each of ``gens``, which generate G,
    to its entry of ``images``, as an element permutation, grown by
    ``extend_on_generators``; RuntimeError when the images define no
    automorphism."""
    mult = g.mult
    perm = extend_on_generators(mult, gens, images, 0, lambda a, b: mult[a][b])
    if perm is None:
        raise RuntimeError("generator images define no homomorphism")
    if None in perm or len(set(perm)) != g.order:
        raise RuntimeError("generator images define no automorphism")
    return tuple(perm)


def conjugates(g: FiniteGroup, h: Subgroup) -> tuple[Subgroup, ...]:
    """The conjugacy class of h, canonically sorted."""
    return tuple(sorted(_orbit(g, h, _conj_perms(g)).values(),
                        key=Subgroup.sort_key))


def _normal_closure(g: FiniteGroup, seed, by) -> Subgroup:
    """The least subgroup N containing ``seed`` and normalized by ``by``, the
    normal closure of <seed> in <seed, by>, in one greedy pass over a
    worklist: the seed, then the conjugate s^b of each kept generator s by
    each b.  A candidate outside N joins N's gens and N is closed again."""
    mult, inv = g.mult, g.inv
    gens: list[int] = []
    bits = 1

    def candidates():  # reads gens while the loop below appends to it
        yield from seed
        for s in gens:
            for b in by:
                yield mult[mult[inv[b]][s]][b]

    for s, bits in greedy_generators(mult, candidates()):
        gens.append(s)
    return Subgroup(g, bits, tuple(gens))


def intersection(a: Subgroup, b: Subgroup) -> Subgroup:
    return Subgroup(a.parent, a.members & b.members)


# -- set products and the modular identity ----------------------------------


def right_cosets(g: FiniteGroup, a: Subgroup) -> tuple[int, ...]:
    """The right cosets A·y of A, as bitsets ordered by least element.  Each
    new coset is grown from the least element y not yet covered, and
    A·y ∋ y, so y is its least element."""
    mult, elems = g.mult, a.elements()
    full = (1 << g.order) - 1
    covered = 0
    cosets = []
    while covered != full:
        y = ((covered + 1) & ~covered).bit_length() - 1  # lowest clear bit
        coset = _coset_bits(mult, elems, y)
        covered |= coset
        cosets.append(coset)
    return tuple(cosets)


def product_bits(g: FiniteGroup, a: Subgroup, b: Subgroup, cosets=None) -> int:
    """Bitset of the product set AB = {a·b}: the union of the right cosets
    of A that meet B.  Each y in B lies in A·y, and each coset A·y with y in
    B lies in AB, so the union is exactly AB.  ``cosets``, A's
    ``right_cosets`` when the caller has them, saves building them again."""
    bm = b.members
    bits = 0
    for coset in right_cosets(g, a) if cosets is None else cosets:
        if coset & bm:
            bits |= coset
    return bits


# -- commutativity predicates ------------------------------------------------


def as_subgroup(x) -> Subgroup:
    """A subgroup as itself, a group as its full subgroup (cached)."""
    if isinstance(x, Subgroup):
        return x
    return x.cached("full_subgroup", lambda: full_subgroup(x))


def is_abelian(x) -> bool:
    """Whether a group or subgroup is abelian: whether its generators
    commute pairwise (cached per member set)."""
    sub = as_subgroup(x)

    def compute():
        mult, gens = sub.parent.mult, sub.gens
        return all(mult[a][b] == mult[b][a]
                   for i, a in enumerate(gens) for b in gens[i + 1:])

    return sub.parent.cached(("abelian", sub.members), compute)


def subgroup_exponent(x) -> int:
    sub = as_subgroup(x)
    g = sub.parent
    return g.cached(("exponent", sub.members),
                    lambda: math.lcm(*(element_order(g, e) for e in sub.elements())))


def is_elementary_abelian(x) -> bool:
    """Abelian of prime exponent; the trivial group counts as elementary abelian."""
    sub = as_subgroup(x)
    return sub.order == 1 or (is_abelian(sub) and is_prime(subgroup_exponent(sub)))


# -- lattice export -----------------------------------------------------------


def lattice_to_dict(lat: SubgroupLattice) -> dict:
    # A subgroup is normal exactly when its conjugacy class is itself alone.
    classes = lat.conjugacy_classes
    normal = [False] * len(lat)
    for c in classes:
        if len(c) == 1:
            normal[c[0]] = True
    return {
        "group_order": lat.group.order,
        "subgroups": [s.elements() for s in lat.subgroups],
        "orders": [s.order for s in lat.subgroups],
        "inclusion": lat.inclusion,
        "normal": normal,
        "conjugacy_classes": classes,
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
