"""Per-input reference routines for the tests, kept out of the library,
which answers the same questions by scans that share work between inputs."""

from complementa import (PreconditionError, Subgroup, is_supercomplemented,
                         quotient, subgroup_as_group)
from complementa.subgroups import LATTICE_CAP, _conj_bits


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
