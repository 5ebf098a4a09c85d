"""Per-input reference routines for the tests, kept out of the library,
which answers the same questions by scans that share work between inputs."""

import complementa.subgroups as subgroups_module
from complementa import (ActionSpec, PreconditionError, Subgroup,
                         is_supercomplemented, quotient, subgroup_as_group)
from complementa.subgroups import LATTICE_CAP, _conj_bits


def trivial_action(n_grp, h_grp) -> ActionSpec:
    """Every generator of ``h_grp`` acting on ``n_grp`` as the identity."""
    ident = tuple(range(n_grp.order))
    return ActionSpec(h_grp, n_grp, {g: ident for g in h_grp.generators})


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
