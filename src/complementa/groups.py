"""Finite groups as validated multiplication tables over dense indices 0..n-1.

The identity is always index 0.  Groups are immutable after construction;
every constructor validates the table once, as one int32 array: a Latin
square with identity 0 (so each element's inverse is where 0 sits in its
row), generation, and associativity by Light's test over the declared generators
(Clifford and Preston, *The Algebraic Theory of Semigroups* I, 1961, §1.2),
which is exact once generation is shown and compares k·n² cells for k
generators instead of n³.  Every check works on blocks of whole rows or
columns of at most ``_BLOCK_CELLS`` cells, so no temporary grows with n².
The validated rows are tuples of ints; past order 257, where values leave
CPython's cached small ints, rows built from an array share one int object
per value, so a table of order n holds n int objects, not n².

A cayley-v1 text is read by ``group_from_json``, whose answer, group or
error, is always that of ``group_from_dict(json.loads(text))``.  Its fast
path parses a plain top-level ``"mult": [...]`` array of digits with numpy
straight into the int32 table and leaves the rest of the text to ``json``;
``_read_table_text`` says which documents it vouches for.  Every other
document, such as one with ``-0``, ``01``, a float, a bool, a duplicate or
nested ``"mult"`` key, or a malformed or too deeply nested one, goes
through ``json`` whole.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from array import array
from itertools import compress, islice

from ._primes import prime_factors

CONSTRUCTION_CAP = 4096

# Validation works on blocks of whole rows or columns of at most this many
# cells, so its temporaries stay bounded (one block up to order 1,024).
_BLOCK_CELLS = 1 << 20


class _DeferredNumpy:
    """Stands in for numpy until the first table is read or built: the first
    attribute read imports numpy and rebinds ``np`` to it, so a process that
    builds no group (``bounds``, ``-h``, a usage error) never loads it."""

    def __getattr__(self, name):
        global np
        import numpy
        np = numpy
        return getattr(numpy, name)


np = _DeferredNumpy()


class GroupError(Exception):
    """Base error for group construction and operations."""


class CapExceededError(GroupError):
    """A configured size cap was exceeded; carries the cap's name."""

    def __init__(self, cap_name: str, cap: int, requested: int):
        self.cap_name = cap_name
        self.cap = cap
        self.requested = requested
        super().__init__(f"{cap_name} cap exceeded: {requested} > {cap}")


class ActionError(GroupError):
    """An action specification is not a consistent automorphism action."""


class PreconditionError(GroupError):
    """An operation's stated precondition does not hold for the arguments."""


def _format_word(word: tuple[str, ...]) -> str:
    """Render a generator word, collapsing runs: (x,x,x,a) -> 'x^3·a'."""
    if not word:
        return "e"
    parts = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        parts.append(word[i] if j - i == 1 else f"{word[i]}^{j - i}")
        i = j
    return "·".join(parts)


def _join_labels(*parts: str) -> str:
    nontrivial = [p for p in parts if p != "e"]
    return "·".join(nontrivial) if nontrivial else "e"


class FiniteGroup:
    """A finite group given by its full multiplication table.

    Attributes:
        order: number of elements.
        mult: tuple of row tuples; ``mult[a][b]`` is the index of a*b.
        inv: tuple of inverse indices.
        generators: element indices that generate the group.
        labels: display word for each element in the generators.
    """

    identity = 0

    def __init__(self, mult, generators, labels, name="G"):
        self.order = len(mult)
        self.generators = tuple(generators)
        self.labels = tuple(labels)
        self.name = name
        self._cache: dict = {}
        self.inv = self._validate(mult)

    def _validate(self, mult) -> tuple[int, ...]:
        """Check ``mult`` (rows or an integer array) against this group's
        order, labels and generators, set ``self.mult`` to its rows as
        tuples of ints, and return the inverses."""
        n = self.order
        if n == 0:
            raise GroupError("empty multiplication table")
        if len(self.labels) != n:
            raise GroupError("labels length does not match order")
        bad = [s for s in self.generators if type(s) is not int or not 0 <= s < n]
        if bad:
            raise GroupError(f"generator indices out of range 0..{n - 1}: {bad}")
        table = _int32_table(mult, n)
        blocks = _blocks(n)
        self.mult = (_table_rows(table, blocks) if isinstance(mult, np.ndarray)
                     else tuple(map(tuple, mult)))
        ident = np.arange(n, dtype=np.int32)
        if not (np.array_equal(table[0], ident) and np.array_equal(table[:, 0], ident)):
            raise GroupError("index 0 is not a two-sided identity")
        if not (all((np.sort(table[r], axis=1) == ident).all() for r in blocks)
                and all((np.sort(table[:, c], axis=0) == ident[:, None]).all()
                        for c in blocks)):
            raise GroupError("table is not a Latin square")
        # in a Latin square with identity 0, each row holds 0 once, as its least entry
        inv = table.argmin(axis=1).tolist()
        # _int32_table read a bool as 0 or 1, and each row holds 0 and 1 once
        if not isinstance(mult, np.ndarray):
            ones = np.concatenate([(table[r] == 1).argmax(axis=1) for r in blocks]).tolist()
            if any(type(row[a]) is bool or type(row[b]) is bool
                   for row, a, b in zip(self.mult, inv, ones)):
                raise GroupError(f"mult entries must be integers in 0..{n - 1}")
        # every element must be a left-normed product of generators: the
        # greedy pass that reaches G shows it; only where it does not (a
        # non-associative table, or generators that fall short) does the
        # closure of all of them decide
        light, reached = _light_generators(self.mult, self.generators)
        everything = (1 << n) - 1
        if reached != everything and closure_bits(self.mult, self.generators) != everything:
            raise GroupError("declared generators do not generate the group")
        # Light's test: the s with (x·s)·y = x·(s·y) for all x, y include 0
        # and are closed under products, so checking kept generators that
        # reach G suffices; in a group they always reach it.
        if reached != everything or not all(
                np.array_equal(table[table[r, s]], table[r].take(table[s], axis=1))
                for s in light for r in blocks):
            raise GroupError("multiplication table is not associative")
        return tuple(inv)

    # -- element arithmetic ------------------------------------------------

    def conj(self, h: int, g: int) -> int:
        """h^g = g^-1 h g."""
        return self.mult[self.mult[self.inv[g]][h]][g]

    def commutator(self, a: int, b: int) -> int:
        """[a, b] = a^-1 b^-1 a b."""
        return self.mult[self.mult[self.mult[self.inv[a]][self.inv[b]]][a]][b]

    def power(self, g: int, k: int) -> int:
        if k < 0:
            g, k = self.inv[g], -k
        out = 0
        for _ in range(k):
            out = self.mult[out][g]
        return out

    def elements(self) -> range:
        return range(self.order)

    def cached(self, key, builder):
        """Memoize a derived, immutable computation on this group."""
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def cached_value(self, key):
        """The value memoized under ``key``, or None when none is built yet."""
        return self._cache.get(key)

    def clear_cache(self) -> None:
        """Drop every memoized value.

        Memoized subgroups refer back to their group, so a group with a memo
        is freed only by the cycle collector; once the memo is dropped,
        reference counting frees it with its last outside reference.
        """
        self._cache = {}

    def __repr__(self):
        return f"<FiniteGroup {self.name} of order {self.order}>"


def _int32_table(mult, n: int) -> np.ndarray:
    """``mult``, an integer array or n rows of n ints, as an n×n int32 array
    with entries in 0..n-1; GroupError for anything else.

    Rows convert once through ``array("i")``, which refuses floats, strings,
    None, lists and ints beyond int32, but reads a bool as 0 or 1; the
    caller checks the cells that read 0 or 1 for bools.
    """
    refused = GroupError(f"mult entries must be integers in 0..{n - 1}")
    if isinstance(mult, np.ndarray):
        if (mult.dtype.kind not in "iu" or mult.shape != (n, n)
                or mult.min() < 0 or mult.max() >= n):
            raise refused
        return mult.astype(np.int32, copy=False)
    flat = array("i")
    try:
        for row in mult:
            if len(row) != n:
                raise refused
            flat.fromlist(row if type(row) is list else list(row))
    except (TypeError, OverflowError):
        raise refused from None
    table = np.frombuffer(flat, dtype=np.int32).reshape(n, n)
    # read as unsigned, a negative entry is above n too
    if table.view(np.uint32).max() >= n:
        raise refused
    return table


_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def bit_indices(bits: int) -> tuple[int, ...]:
    """The set bit positions of a non-negative int, ascending: the binary
    digits, least significant first, as 0/1 bytes select from a range."""
    flags = bin(bits)[:1:-1].encode().translate(_BIT_FLAGS)
    return tuple(compress(range(len(flags)), flags))


def closure_bits(mult, seed) -> int:
    """Bitset of the subgroup generated by the ``seed`` element indices,
    closed breadth-first under the table rows ``mult``."""
    members = 1
    gens = []
    for s in seed:
        if s and not members >> s & 1:
            members |= 1 << s
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
                    nxt.append(p)
        frontier = nxt
    return members


def greedy_generators(mult, candidates):
    """Yield (s, reached) for each candidate s outside the subgroup generated
    by the candidates yielded before it, where ``reached`` is the subgroup
    they generate together with s.

    The one greedy generating-set loop: the yielded elements generate what
    all the candidates generate, and in a group each one at least doubles
    the subgroup reached.  ``reached`` comes from ``closure_bits``, which is
    exact even on a table not yet shown to be associative.  The candidates
    are read lazily, so a worklist may grow while it is consumed.
    """
    kept: list[int] = []
    reached = 1
    for s in candidates:
        if not reached >> s & 1:
            kept.append(s)
            reached = closure_bits(mult, kept)
            yield s, reached


def _light_generators(mult, generators) -> tuple[list[int], int]:
    """The generators that ``greedy_generators`` keeps, cut at
    floor(log2 n) + 1, and the bitset of the subgroup they reach.

    Light's test needs only these: a skipped generator is a product of kept
    ones, so it passes whenever they do.  In a group each kept generator at
    least doubles the subgroup reached, so at most floor(log2 n) are kept
    and they reach what all the generators do; only a non-associative table
    can reach the cut.
    """
    kept, reached = [], 1
    for s, reached in islice(greedy_generators(mult, generators), len(mult).bit_length()):
        kept.append(s)
    return kept, reached


def _blocks(n: int) -> list[slice]:
    """Consecutive slices of 0..n-1, each of at most ``_BLOCK_CELLS`` // n
    indices (at least one), so that a block of rows or of columns of an
    n×n table holds at most ``_BLOCK_CELLS`` cells."""
    step = max(1, _BLOCK_CELLS // n)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _table_rows(table, blocks) -> tuple[tuple[int, ...], ...]:
    """The rows of an n×n int32 table as tuples of ints, one block of rows
    at a time.  CPython keeps one int object for each value up to 256; past
    that, each row gathers its ints from one pool of n, so every cell of
    value v holds the same object."""
    n = len(table)
    pool = np.array(range(n), dtype=object) if n > 257 else None
    rows = []
    for b in blocks:
        rows.extend(map(tuple, (table[b] if pool is None else pool[table[b]]).tolist()))
    return tuple(rows)


# -- constructors ---------------------------------------------------------


def from_generators(perms, names=None, cap: int = CONSTRUCTION_CAP,
                    name: str = "G") -> FiniteGroup:
    """Group generated by permutations, closed by BFS from the identity.

    Permutations are sequences over the same point set; enumeration order is
    deterministic in the given generator order, so equal inputs produce the
    identical table.
    """
    perms = [tuple(p) for p in perms]
    if not perms:
        return trivial_group()
    degree = len(perms[0])
    for p in perms:
        if len(p) != degree or sorted(p) != list(range(degree)):
            raise GroupError(f"not a permutation of 0..{degree - 1}: {p}")
    if names is None:
        names = [f"g{i}" for i in range(len(perms))]
    identity = tuple(range(degree))
    elems = [identity]
    index = {identity: 0}
    words: list[tuple[str, ...]] = [()]
    pos = 0
    while pos < len(elems):
        e = elems[pos]
        for pname, p in zip(names, perms):
            composed = tuple(p[e[i]] for i in range(degree))
            if composed not in index:
                if len(elems) >= cap:
                    raise CapExceededError("construction", cap, len(elems) + 1)
                index[composed] = len(elems)
                elems.append(composed)
                words.append(words[pos] + (pname,))
        pos += 1
    n = len(elems)
    mult = [[index[tuple(b[a[i]] for i in range(degree))] for b in elems] for a in elems]
    gens = [gi for gi in dict.fromkeys(index[p] for p in perms) if gi]
    labels = [_format_word(w) for w in words]
    return FiniteGroup(mult, gens, labels, name=name)


def trivial_group() -> FiniteGroup:
    return FiniteGroup([[0]], [], ["e"], name="1")


def cyclic(n: int, gen_name: str = "x") -> FiniteGroup:
    """Cyclic group of order n; generator is index 1 (none if n == 1)."""
    if n < 1:
        raise GroupError(f"cyclic order must be positive, got {n}")
    if n > CONSTRUCTION_CAP:
        raise CapExceededError("construction", CONSTRUCTION_CAP, n)
    if n == 1:
        return trivial_group()
    mult = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = ["e"] + [gen_name if k == 1 else f"{gen_name}^{k}" for k in range(1, n)]
    return FiniteGroup(mult, [1], labels, name=f"C{n}")


def direct_product(g: FiniteGroup, h: FiniteGroup,
                   cap: int = CONSTRUCTION_CAP) -> FiniteGroup:
    """Direct product on pairs, encoded as index = a * |H| + b: the product
    kernel with every h acting as the identity."""
    n = g.order * h.order
    if n > cap:
        raise CapExceededError("construction", cap, n)
    identity = np.broadcast_to(np.arange(g.order), (h.order, g.order))
    return _product(g, h, identity, name=f"{g.name}x{h.name}")


def _product(n_grp: FiniteGroup, h_grp: FiniteGroup, alpha_inv,
             name: str) -> FiniteGroup:
    """The one product kernel.  ``alpha_inv[h][n]`` is n^(h^-1), and cell
    (n1·|H| + h1, n2·|H| + h2) holds N[n1, n2^(h1^-1)]·|H| + H[h1, h2],
    gathered over whole index arrays at once."""
    total, ho = n_grp.order * h_grp.order, h_grp.order
    gens = [a * ho for a in n_grp.generators] + list(h_grp.generators)
    labels = [_join_labels(a, b) for a in n_grp.labels for b in h_grp.labels]
    # left[n1, h1, n2] = N[n1, n2^(h1^-1)]
    left = np.array(n_grp.mult, dtype=np.int32)[:, np.asarray(alpha_inv, dtype=np.intp)]
    right = np.array(h_grp.mult, dtype=np.int32)
    table = (left[..., None] * ho + right[:, None, :]).reshape(total, total)
    return FiniteGroup(table, gens, labels, name=name)


def extend_on_generators(mult, gens, images, identity, times):
    """The map f with f(0) = ``identity`` and f(e·s) = times(f(e), t) for
    each s of ``gens`` and its t of ``images``, grown breadth-first from 0
    over the group with table rows ``mult``, as a list with None at the
    elements ``gens`` do not reach; None when two paths to an element give
    different values.

    The one walk that extends a map given on generators: every edge e → e·s
    of the Cayley graph is checked, so on a group generated by ``gens`` a
    result is the only map of that form, a homomorphism when ``times`` is
    the product of a group.
    """
    f = [None] * len(mult)
    f[0] = identity
    reached = [0]
    for e in reached:
        row, fe = mult[e], f[e]
        for s, t in zip(gens, images):
            y, image = row[s], times(fe, t)
            if f[y] is None:
                f[y] = image
                reached.append(y)
            elif f[y] != image:
                return None
    return f


def semidirect_product(n_grp: FiniteGroup, h_grp: FiniteGroup, images: dict,
                       cap: int = CONSTRUCTION_CAP) -> FiniteGroup:
    """Split extension of ``n_grp`` (normal) by ``h_grp``.

    ``images`` maps each generator h of ``h_grp`` to the permutation
    n -> n^h of ``n_grp``'s indices.  Each image, in dict order, must be an
    identity-fixing permutation and an automorphism; the action of all of
    ``h_grp`` is grown from them by ``extend_on_generators``, which refuses
    images that break a relation of ``h_grp``.  Elements are pairs (n, h)
    encoded as n * |H| + h and written n·h.  The acting group acts by
    conjugation exponents, n^h, so (n1, h1)(n2, h2) = (n1 · n2^(h1^-1), h1 h2);
    with the trivial action the table equals direct_product's.
    """
    total = n_grp.order * h_grp.order
    if total > cap:
        raise CapExceededError("construction", cap, total)
    for gen in h_grp.generators:
        if gen not in images:
            raise ActionError(f"no image for generator {gen}")
    n, nmult, ngens = n_grp.order, n_grp.mult, n_grp.generators

    def times(a, b):
        return nmult[a][b]

    for gen, img in images.items():
        perm = list(img)
        if sorted(perm) != list(range(n)) or perm[0] != 0:
            raise ActionError(f"image of {gen} is not an identity-fixing permutation")
        if extend_on_generators(nmult, ngens, [perm[s] for s in ngens], 0, times) != perm:
            raise ActionError(f"image of {gen} is not an automorphism")
    # right action: n^(hg) = (n^h)^g
    alpha = extend_on_generators(
        h_grp.mult, h_grp.generators, [tuple(images[g]) for g in h_grp.generators],
        tuple(range(n)), lambda ah, ag: tuple(map(ag.__getitem__, ah)))
    if alpha is None:
        raise ActionError("images are inconsistent with the acting group's relations")
    alpha_inv = [alpha[h] for h in h_grp.inv]
    return _product(n_grp, h_grp, alpha_inv, name=f"{n_grp.name}:{h_grp.name}")


def quotient(g: FiniteGroup, normal_members: int, pool: dict | None = None):
    """Quotient by a normal subgroup given as a membership bitset.

    Cosets are numbered by ascending minimal element; returns the quotient
    group and the projection list (element index -> coset index).  The
    projection is verified to be a homomorphism on the generators of g,
    π(a·s) = π(a)·π(s); since g and the quotient are groups, induction on
    left-normed words extends that to every pair.

    ``pool``, a dict from (rows, generators) to a group with exactly that
    table and those generators, saves constructing and validating the same
    table twice: a quotient whose table is in it is the pooled group, and a
    new one is added.  The normality test and the audit still run.  A
    pooled group's labels may be another group's cosets, so its holder
    must keep it to questions that read only the table and generators.
    """
    n = g.order
    coset_of = [-1] * n
    reps = []
    nm_elems = bit_indices(normal_members)
    for e in range(n):
        if coset_of[e] >= 0:
            continue
        ci = len(reps)
        reps.append(e)
        for m in nm_elems:
            coset_of[g.mult[m][e]] = ci
    if not normalizes(g, normal_members, nm_elems, g.generators):
        raise PreconditionError("subgroup is not normal; quotient undefined")
    mult = tuple(tuple([coset_of[row[r]] for r in reps])
                 for row in (g.mult[r] for r in reps))
    gens = tuple(gi for gi in dict.fromkeys(coset_of[gen] for gen in g.generators) if gi)
    quo = None if pool is None else pool.get((mult, gens))
    if quo is None:
        quo = FiniteGroup(mult, gens, [g.labels[r] for r in reps], name=f"{g.name}/N")
        if pool is not None:
            pool[mult, gens] = quo
    for s in g.generators:
        cs = coset_of[s]
        for a in range(n):
            if coset_of[g.mult[a][s]] != quo.mult[coset_of[a]][cs]:
                raise GroupError("projection failed homomorphism audit")
    return quo, coset_of


def cached_quotient(g: FiniteGroup, normal_members: int):
    """Memoized quotient; safe because groups and bitsets are immutable."""
    return g.cached(("quotient", normal_members),
                    lambda: quotient(g, normal_members))


def normalizes(g: FiniteGroup, members: int, elems, by) -> bool:
    """Whether e^b = b^-1·e·b lies in the bitset ``members`` for every e in
    ``elems`` and b in ``by``.

    With ``members`` a subgroup H generated by ``elems``, this says that the
    subgroup generated by ``by`` normalizes H; with ``by`` the generators of
    G, that H is normal in G.
    """
    mult, inv = g.mult, g.inv
    for b in by:
        row = mult[inv[b]]
        for e in elems:
            if not members >> mult[row[e]][b] & 1:
                return False
    return True


# -- elementwise invariants ------------------------------------------------


def element_order(g: FiniteGroup, e: int) -> int:
    k, cur = 1, e
    while cur != 0:
        cur = g.mult[cur][e]
        k += 1
    return k


def element_orders(g: FiniteGroup) -> tuple[int, ...]:
    return g.cached("element_orders",
                    lambda: tuple(element_order(g, e) for e in g.elements()))


def exponent(g: FiniteGroup) -> int:
    return math.lcm(*element_orders(g))


def primes_of(g: FiniteGroup) -> set[int]:
    out: set[int] = set()
    for k in element_orders(g):
        out.update(prime_factors(k))
    return out


# -- cayley-v1 serialization ------------------------------------------------

CAYLEY_FORMAT = "cayley-v1"


def group_to_dict(g: FiniteGroup) -> dict:
    """Serializable form: version tag, order, row-major table, generators, labels."""
    flat = [v for row in g.mult for v in row]
    return {
        "version": CAYLEY_FORMAT,
        "order": g.order,
        "mult": flat,
        "generators": list(g.generators),
        "labels": list(g.labels),
    }


def group_to_json(g: FiniteGroup):
    """The text of ``json.dumps(group_to_dict(g), indent=2)``, in pieces.

    Each table row is one piece, one ``str.join`` over a table of decimal
    strings made for the call, so no flat list and no int is built per
    cell.  ``json`` writes the generators and labels, so labels keep its
    escaping.
    """
    dec = list(map(str, range(g.order)))
    item = "\n    "
    after = "," + item
    yield f'{{\n  "version": "{CAYLEY_FORMAT}",\n  "order": {g.order},\n  "mult": ['
    for i, row in enumerate(g.mult):
        yield (after if i else item) + after.join(map(dec.__getitem__, row))
    yield "\n  ],\n" + json.dumps({"generators": list(g.generators),
                                   "labels": list(g.labels)}, indent=2)[2:]


def group_from_dict(data: dict) -> FiniteGroup:
    """Parse a cayley-v1 document; any malformed field raises GroupError."""
    n, gens, labels = _document_fields(
        data, lambda mult: len(mult) if isinstance(mult, list) else None)
    flat = data["mult"]
    mult = [flat[i * n:(i + 1) * n] for i in range(n)]
    return FiniteGroup(mult, gens, labels)


def _document_fields(data, cells) -> tuple[int, list, list]:
    """The order, generators and labels of a cayley-v1 document, checked
    after its version in this order; ``cells(mult)`` is the number of
    entries of a mult that is a list, and None for any other mult.  With
    ``cells`` None the mult is not checked."""
    if not isinstance(data, dict):
        raise GroupError(f"cayley-v1 document must be a JSON object, not {type(data).__name__}")
    if data.get("version") != CAYLEY_FORMAT:
        raise GroupError(f"unsupported format version: {data.get('version')!r}")
    n = data.get("order")
    if type(n) is not int or n < 1:
        raise GroupError(f"order must be a positive integer, got {n!r}")
    if cells is not None and cells(data.get("mult")) != n * n:
        raise GroupError("mult must be a list of order^2 entries")
    gens = data.get("generators", [])
    if not isinstance(gens, list):
        raise GroupError("generators must be a list of element indices")
    labels = data.get("labels")
    if labels is None:
        labels = [str(i) for i in range(n)]
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise GroupError("labels must be a list of strings")
    return n, gens, labels


def group_from_json(text: str) -> FiniteGroup:
    """Parse the text of a cayley-v1 document: the group, or the error, of
    ``group_from_dict(json.loads(text))``, with a RecursionError of
    ``json`` raised as a GroupError.  Where ``_read_table_text`` vouches for
    the text, numpy reads its mult array instead of ``json``, which builds
    one Python int per cell."""
    read = _read_table_text(text)
    if read is None:
        try:
            doc = json.loads(text)
        except RecursionError:
            raise GroupError("cayley-v1 document is nested too deeply to decode") from None
        return group_from_dict(doc)
    del text  # not held while the rows are built
    return FiniteGroup(*read)


# compiled by ``re`` on first use, so an import compiles nothing
_TABLE_OPEN = r'"mult"[ \t\n\r]*:[ \t\n\r]*\['
_TABLE_BYTES = b"0123456789, \t\n\r"
_COMMA, _ZERO = ord(","), ord("0")


def _read_table_text(text: str):
    """(n×n int32 table, generators, labels) of a cayley-v1 text whose mult
    array the fast path vouches for, else None.

    It vouches for the first ``"mult": [...]`` span when:
    - the span holds nothing but ASCII digits, commas and JSON whitespace;
    - the text with the span replaced by ``NaN`` decodes to an object whose
      one ``"mult"`` key, in the whole document, holds that ``NaN``, the
      rest's only constant;
    - the fields besides mult pass ``group_from_dict``'s checks;
    - the span holds order² − 1 commas, and numpy reads it, with no error
      or warning, as order² int32 values below the order, printed with
      exactly the span's digits (so none has a leading zero).  An int32
      read wraps a token of 2³¹ or more, or clamps it to −1 past int64, so
      it fails one of these: its value is negative, at least the order, or
      printed with fewer digits than the token holds.
    The span is then the JSON array of those values, and the rest of the
    document is what ``json`` decodes.  Any other text, such as ``-0``,
    ``1.0``, ``true``, a duplicate or nested mult key, or a malformed or
    too deeply nested document, is left to ``json``.  The fields are checked
    before numpy is touched, so a document refused before its table is read
    loads no numpy.  The commas, digits and printed digits are counted over
    blocks of at most ``_BLOCK_CELLS`` bytes or cells, so the read holds no
    temporary of the span's length but its bytes and the table.
    """
    opened = re.search(_TABLE_OPEN, text)
    if opened is None:
        return None
    start = opened.end()
    end = text.find("]", start)
    body = text[start:end]
    if end < 0 or not body.isascii():
        return None
    body = body.encode("ascii")
    if body.translate(None, _TABLE_BYTES):
        return None
    # each NaN or Infinity of the rest decodes as ``constants`` itself
    constants, mult_keys = [], []

    def constant(name):
        constants.append(name)
        return constants

    def pairs(items):
        mult_keys.extend(k for k, _ in items if k == "mult")
        return dict(items)

    try:
        doc = json.loads(text[:start - 1] + "NaN" + text[end + 1:],
                         parse_constant=constant, object_pairs_hook=pairs)
    except (ValueError, RecursionError):
        return None
    if not (isinstance(doc, dict) and doc.get("mult") is constants
            and len(constants) == len(mult_keys) == 1):
        return None
    try:  # the span's cells are counted below
        n, gens, labels = _document_fields(doc, None)
    except GroupError:
        return None
    # the span's commas, and its digits, the only bytes in it from "0" up
    view = np.frombuffer(body, dtype=np.uint8)
    commas = digits = 0
    for lo in range(0, len(view), _BLOCK_CELLS):
        block = view[lo:lo + _BLOCK_CELLS]
        commas += np.count_nonzero(block == _COMMA)
        digits += np.count_nonzero(block >= _ZERO)
    if commas != n * n - 1:
        return None
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        try:
            flat = np.fromstring(body, dtype=np.int32, sep=",")
        except ValueError:
            return None
    # read as unsigned, a negative value is above n too
    if warned or flat.size != n * n or flat.view(np.uint32).max() >= n:
        return None
    table = flat.reshape(n, n)
    printed = n * n + sum(np.count_nonzero(table[b] >= 10 ** k)
                          for b in _blocks(n) for k in range(1, len(str(n - 1))))
    if digits != printed:
        return None
    return table, gens, labels
