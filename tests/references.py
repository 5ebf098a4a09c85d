"""Per-input reference routines for the tests, kept out of the library,
which answers the same questions by scans that share work between inputs."""

import complementa.series as series_module
import complementa.subgroups as subgroups_module
from complementa import (PreconditionError, Subgroup, all_subgroups,
                         is_supercomplemented, quotient, subgroup_as_group)
from complementa._primes import is_p_power, is_prime
from complementa.groups import normalizes
from complementa.subgroups import (LATTICE_CAP, _conj_bits, _conj_perms,
                                   _normal_closure, _orbit, as_subgroup,
                                   bit_indices)


def bits_of(indices) -> int:
    """The bitset with the bits at ``indices`` set."""
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def lower_central_series(x):
    """The lower central series of a group or subgroup X, X > [X, X] >
    [[X, X], X] > ..., as a ``SeriesReport`` of kind "lower-central", built
    by the library's own series walk and the step ``is_nilpotent`` reads."""
    sub = as_subgroup(x)
    return series_module._series("lower-central", sub,
                                 series_module._lower_central_step(sub))


def reached_trivial(report) -> bool:
    """Whether a series report ends at the trivial subgroup."""
    return report.terms[-1].order == 1


def trivial_action(n_grp, h_grp) -> dict:
    """Every generator of ``h_grp`` acting on ``n_grp`` as the identity."""
    ident = tuple(range(n_grp.order))
    return {g: ident for g in h_grp.generators}


def reference_action(n_grp, h_grp, images) -> list[tuple[int, ...]]:
    """The permutation n -> n^h for every h of ``h_grp``, from the images of
    its generators: h written as a shortest word s1…sk in the generators,
    found breadth-first, gives n^h = (…(n^s1)…)^sk.  Asserts, pair by pair,
    that the result is a right action, n^(ab) = (n^a)^b."""
    words = {0: ()}
    queue = [0]
    for h in queue:
        for s in h_grp.generators:
            y = h_grp.mult[h][s]
            if y not in words:
                words[y] = words[h] + (s,)
                queue.append(y)
    alpha = []
    for h in range(h_grp.order):
        perm = tuple(range(n_grp.order))
        for s in words[h]:
            perm = tuple(images[s][x] for x in perm)
        alpha.append(perm)
    assert all(alpha[h_grp.mult[a][b]] == tuple(alpha[b][x] for x in alpha[a])
               for a in range(h_grp.order) for b in range(h_grp.order))
    return alpha


def dedekind_identity_check(g, a: Subgroup, b: Subgroup, t: Subgroup) -> bool:
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
    # read through the module, so a test that patches the library's
    # product_bits patches it here too
    return subgroups_module.product_bits(g, a, bt) == b.members


def quotient_transport_check(g, h: Subgroup, k: Subgroup, n: Subgroup,
                             cap: int = LATTICE_CAP) -> bool:
    """Supercomplementedness transports to quotients: with H <= K <= G,
    N normal in K and H supercomplemented in K, the image of H must be
    supercomplemented in K/N.  Returns that final check's outcome for this
    one tuple, on a K-as-a-group and a quotient of its own."""
    if not k.contains(h):
        raise PreconditionError("H must be contained in K")
    if not k.contains(n):
        raise PreconditionError("N must be contained in K")
    k_grp, to_local, _ = subgroup_as_group(g, k)
    h_local = Subgroup(k_grp, _conj_bits(to_local, h.elements()))
    ok, _ = is_supercomplemented(k_grp, h_local, cap)
    if not ok:
        raise PreconditionError("H is not supercomplemented in K")
    quo, proj = quotient(k_grp, _conj_bits(to_local, n.elements()))
    img = Subgroup(quo, _conj_bits(proj, h_local.elements()))
    ok_q, _ = is_supercomplemented(quo, img, cap)
    return ok_q


def subgroup_from_members(g, members) -> Subgroup:
    """Build a subgroup from an explicit member set, verifying closure."""
    bits = members if isinstance(members, int) else bits_of(members)
    elems = bit_indices(bits)
    for a in elems:
        row = g.mult[a]
        for b in elems:
            if not bits >> row[b] & 1:
                raise PreconditionError("member set is not closed under multiplication")
    return Subgroup(g, bits)


def normal_closure(g, h: Subgroup) -> Subgroup:
    """Least normal subgroup of G containing h."""
    return _normal_closure(g, h.gens, g.generators)


def core(g, h: Subgroup) -> Subgroup:
    """Intersection of all conjugates of h (the largest normal subgroup inside)."""
    bits = h.members
    for c in _orbit(g, h, _conj_perms(g)):
        bits &= c
    return Subgroup(g, bits)


def normalizer(g, h: Subgroup) -> Subgroup:
    members = 0
    for e in g.elements():
        if normalizes(g, h.members, h.gens, (e,)):
            members |= 1 << e
    return Subgroup(g, members)


def center(g) -> Subgroup:
    members = 0
    for z in g.elements():
        row = g.mult[z]
        if all(row[gen] == g.mult[gen][z] for gen in g.generators):
            members |= 1 << z
    return Subgroup(g, members)


def p_subgroups(g, p: int) -> tuple[Subgroup, ...]:
    """All subgroups of p-power order (including the trivial subgroup)."""
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    lat = all_subgroups(g)
    return tuple(s for s in lat.subgroups if is_p_power(s.order, p))
