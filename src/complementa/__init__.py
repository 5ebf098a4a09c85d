"""Finite-group complementation analysis: Cayley-table groups, exhaustive
subgroup lattices, complement search, quantitative bounds, and verification
suites for the distinguished constructions."""

from .bounds import (BoundReport, bound_report, derived_length_bound,
                     derived_length_bound_floor, derived_length_bound_general,
                     factorial_index_bound, n_of_m, prop1_bound, zeta_bound)
from .complementation import (ComplementResult, c_separating_subgroups,
                              complements, has_c_separating, is_complemented,
                              is_completely_factorizable, is_c_separating,
                              is_supercomplemented, subgroup_as_group,
                              uncomplemented_subgroups)
from .constructions import (CatalogEntry, NamedGroup, alternating4, catalog,
                            catalog_entry, dicyclic12, dihedral,
                            elementary_abelian, holomorph8, holomorph_cyclic,
                            split_p5_group, symmetric3)
from .groups import (ActionError, CapExceededError, FiniteGroup, GroupError,
                     PreconditionError, cyclic, direct_product, element_order,
                     element_orders, exponent, from_generators,
                     group_from_dict, group_from_json, group_to_dict,
                     primes_of, quotient, semidirect_product, trivial_group)
from .series import (FactorInfo, SeriesReport, chief_series,
                     commutator_subgroup, derived_length, derived_series,
                     derived_subgroup, frattini, is_nilpotent,
                     minimal_normal_subgroups, sylow_subgroup)
from .subgroups import (Subgroup, SubgroupLattice, all_subgroups,
                        conjugates, cyclic_subgroups, generated_subgroup,
                        intersection, is_abelian, is_elementary_abelian,
                        is_normal, lattice_to_dict, lattice_to_dot,
                        overgroups, trivial_subgroup)
from .verify import (VerificationReport, reports_to_dicts, run_catalog_suite,
                     subset_closure_subgroups, summarize,
                     verify_c_separating_consequences, verify_holomorph8,
                     verify_minimal_normal_bounds, verify_split_p5,
                     verify_supercomplemented_consequences)

__version__ = "0.1.0"
