"""Certified approximate counting via truncated cluster expansions.

A library and CLI that approximates abstract polymer-model partition
functions by truncated cluster expansion and applies the engine to four
counting problems under Lovász-local-lemma-type weak-dependence hypotheses:
probability of intersection of events (including #SAT of k-CNF formulae),
kernel-intersection dimension for commuting projectors, the same for general
projectors under an inclusion-exclusion stability condition, and a
detectability-based affine approximation under a spectral-gap assumption.
"""

from ._lazy import lazy_getattr as _lazy_getattr
from .clusters import (ApproxResult, Cluster, ConditionCheck, WeightOracle,
                       approx_partition_function, check_weight_condition,
                       choose_truncation_order, enumerate_clusters,
                       incompatible, truncated_expansion, ursell,
                       weight_decay_threshold)
from .cnf import (CnfFormula, CountResult, EventTableOracle,
                  ProbabilityResult, approx_probability_intersection,
                  cnf_dependency_graph, cnf_polymer_weight, count_satisfying,
                  parse_dimacs)
from .errors import (HypothesisViolation, LLCountError, NumericFailure,
                     ResourceCapExceeded, SpecParseError)
from .graphs import (Coloring, DependencyGraph, build_graph,
                     enumerate_connected_subgraphs, greedy_coloring,
                     induced_components, strong_product_with_complete,
                     support_dependency_graph)

# The numpy-backed modules and their exports load on first use.
_LAZY = {
    "oracles": ("OracleBudget", "brute_force_polymer_z",
                "brute_force_sat_count", "exact_detectability_trace",
                "exact_dimension_full_diagonalization",
                "exact_inclusion_exclusion_probability", "ursell_bruteforce"),
    "projectors": ("LocalProjector", "ProjectorSet", "kernel_intersection_dim",
                   "normalized_product_trace", "rank_normalized",
                   "spectral_gap", "validate_projector",
                   "verify_commuting"),
    "qsat": ("AffineResult", "DimensionResult", "approx_dim_commuting",
             "approx_dim_detectability", "approx_dim_general",
             "commuting_weight", "detectability_weight", "general_ie_weight",
             "stability_check", "suggest_delta_general"),
}
_HOMES = {name: home for home, names in _LAZY.items()
          for name in (home, *names)}
__getattr__ = _lazy_getattr(__name__, _HOMES)

__version__ = "0.1.0"

__all__ = sorted({name for name in globals() if not name.startswith("_")}
                 | _HOMES.keys())


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOMES.keys())
