"""Finite set-theoretic Yang-Baxter structures as Cayley tables.

Carriers, law checkers, structure-theorem decompositions, classification of
simple solutions by odometer triples, named solution builders, and
symmetry-reduced censuses.
"""

from .core import (BiMagma, CayleyTable, CrossCheckFailed, FiniteFunction,
                   GuardExceeded, Limits, DEFAULT_LIMITS, Permutation, RMap,
                   SetPartition, Verdict, Witness, are_isomorphic, automorphisms,
                   canonical_correspondence, find_homomorphisms, flip_map,
                   identity_rmap, lyubashenko_rmap)
from .laws import (BiMagmaLaw, MagmaLaw, RMapLaw, check_bimagma_law,
                   check_magma_law, check_rmap_law, lyubashenko_pair)
from .plonka import (BiPlonkaPartition, BijectivizationResult, NotPlonkaError,
                     PlonkaPartition, bi_plonka_partition, bijectivize,
                     connected_components, is_refinement, plonka_partition,
                     rebuild, structured_iso)
from .ideals import (DecompositionReport, IdealKind, decomposition_report,
                     element_closure, ideals, is_simple, rees_quotient)
from .families import (AbelianGroupStructure, FamilyError, FamilyFlags,
                       FunctionFamily, OdometerTriple, analyze_family,
                       build_odometer, count_incompressible,
                       enumerate_incompressible, is_incompressible,
                       odometer_canonicalize, recover_group)
from .build import (BlsFromPartitionSolution, EssSolution, FlipSolution,
                    FreeKCyclicElement, FreeMagmaResult, IdentitySolution,
                    LyubashenkoSolution, OdometerSolution,
                    RightPlonkaOppositeSolution, SkewBraceSolution,
                    build_solution, cyclic_group_table, free_k_cyclic,
                    left_zero_table, magma_from_function, right_zero_table,
                    symmetric_group_table, trivial_bimagma, trivial_brace)
from .census import (CensusQuery, CensusResult, CensusRow, CensusStats,
                     SimpleSolutionCensus, census_simple_bls,
                     commuting_permutation_pairs_up_to_conjugacy,
                     enumerate_structures, function_conjugacy_census,
                     minimal_image)
from .formats import ParseError, parse_structure, serialize, serialize_json

__all__ = [name for name in dir() if not name.startswith("_")]
