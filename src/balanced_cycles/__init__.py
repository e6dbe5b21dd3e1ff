"""Balanced cycles in group-labelled complete digraphs.

A finite-group / labelled-digraph toolkit around one question: how many
vertices force a directed cycle whose arc labels multiply to the identity?
Exact answers come from bitset subset dynamic programming; the constructive
side (stabilizer certificates, efficient tuples, the prime-order finder)
turns the underlying proof steps into checkable procedures.
"""

from .constructions import arc_critical_instance, extremal_cyclic, random_labelling
from .errors import (AsymmetricMask, BadIndex, BadSeed, BadSize, BadSpec,
                     BalancedCyclesError, IncompleteDigraph, Mismatch,
                     MissingArc, NotAGroup, NotASubgroup, NotInScope, NotPrime,
                     PreconditionViolated, SearchSpaceTooLarge, TheoremViolation,
                     TooLarge, TrivialGroup)
from .groups import (FiniteGroup, build_group, catalog, cosets, cyclic_group,
                     grow_set, is_subgroup, metacyclic_group, product_group,
                     stabilizer, subgroup_closure, subset_elements, subset_of,
                     table_group)
from .harness import (ComputeNResult, VerdictReport, compute_n, verify_all,
                      verify_random)
from .labellings import (CycleWitness, Labelling, apply_shift_family,
                         cycle_value, invert, is_balanced, labelling_from_json,
                         normalize, path_value, shift, shifting_equivalent,
                         to_dot)
from .proof_engine import (Dichotomy, EfficientTuple, StabilizerCertificate,
                           TupleReport, augment_tuple, key_lemma,
                           make_efficient_tuple, prime_finder, validate_tuple)
from .reach import (ReachTable, StartAnchoredTable, enumerate_balanced_cycles,
                    find_balanced_cycle, find_path_with_value, reach_set,
                    reach_set_between, reach_table, short_cycle_scan,
                    start_anchored_table)

__version__ = "0.1.0"
