"""The three projector counting pipelines: commuting kernel-intersection
dimension, general projectors under an inclusion-exclusion stability
condition, and the detectability-based affine approximation under a spectral
gap assumption.

All dimensions are normalized (full space = 1); absolute dimensions are
normalized times d^qudit_count, reported with their base-2 logarithm because
d^qudit_count leaves float range past about 1023 qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .clusters import (DEFAULT_MAX_ORDER, DELTA_CEILING, ApproxResult,
                       ConditionCheck, Problem, WeightConditionReport,
                       WeightOracle, approx_partition_function,
                       certified_delta, check_weight_condition,
                       choose_truncation_order, holder_delta,
                       weight_decay_threshold)
from .cnf import proper_coloring
from .errors import ResourceCapExceeded
from .graphs import (Coloring, DependencyGraph, greedy_coloring,
                     strong_product_with_complete)
from .projectors import (ProjectorSet, kernel_intersection_dim,
                         normalized_product_trace, rank_normalized,
                         spectral_gap, support_dependency_graph,
                         verify_commuting)


def _absolute_dimension(normalized: float, ps: ProjectorSet
                       ) -> tuple[float | None, float | None]:
    """(normalized * d^qudit_count, its log2).  The value is None when it
    leaves float range; the log is None unless normalized > 0."""
    try:
        value = normalized * ps.d ** ps.qudit_count
    except OverflowError:  # d^qudit_count does not convert to float
        value = math.inf
    log2 = (math.log2(normalized) + ps.qudit_count * math.log2(ps.d)
            if normalized > 0.0 else None)
    return (value if math.isfinite(value) else None), log2


@dataclass
class DimensionResult:
    """Normalized and absolute kernel-intersection dimension estimates."""

    approx: ApproxResult
    normalized: float
    absolute: float | None
    log2_absolute: float | None
    chi_used: int
    method: str
    delta_requested: float


def _rank_check(ps: ProjectorSet, name: str, threshold: float, delta: float,
                max_degree: int, chi: int) -> tuple[ConditionCheck, float]:
    ranks = [rank_normalized(p, ps.d) for p in ps.projectors]
    worst = max(ranks, default=0.0)
    detail = (f"max normalized rank = {worst:.6g} vs bound = {threshold:.6g} "
              f"(delta={delta}, D={max_degree}, chi={chi})")
    return ConditionCheck(name, worst <= threshold, threshold - worst, detail), worst


def commuting_weight(ps: ProjectorSet, polymer: Sequence[int]) -> float:
    """(-1)^|polymer| times the normalized dimension of the intersection of
    images, computed as the product trace (valid for commuting families)."""
    tr = normalized_product_trace(ps, tuple(polymer))
    return -tr if len(polymer) % 2 else tr


def commuting_problem(ps: ProjectorSet, graph: DependencyGraph,
                      coloring: Coloring | None, delta: float) -> Problem:
    """The commuting family's polymer model, under pairwise commutation and
    max normalized rank <= (1/(e^(1+delta)(2D+1)))^chi."""
    chi = proper_coloring(graph, coloring).num_colors
    dmax = graph.max_degree()
    comm = verify_commuting(ps, graph=graph)
    commutation = ConditionCheck(
        "pairwise-commutation", comm.commuting,
        0.0 if comm.commuting else -1.0,
        f"{comm.pairs_checked} overlapping pairs checked; "
        f"failures: {list(comm.failures)}")
    rank_chk, worst_rank = _rank_check(
        ps, "rank-condition", weight_decay_threshold(delta, dmax) ** chi,
        delta, dmax, chi)
    return Problem(graph, WeightOracle(lambda p: commuting_weight(ps, p)),
                   [commutation, rank_chk],
                   holder_delta(worst_rank, chi, dmax, delta, rank_chk.passed),
                   chi)


def approx_dim_commuting(ps: ProjectorSet, epsilon: float, delta: float, *,
                         coloring: Coloring | None = None,
                         force: bool = False) -> DimensionResult:
    """FPTAS for the normalized kernel-intersection dimension of a commuting
    projector family, under the per-projector rank bound."""
    problem = commuting_problem(ps, support_dependency_graph(ps), coloring,
                                delta)
    approx = approx_partition_function(
        problem.graph, problem.oracle, epsilon, problem.delta_used,
        force=force, extra_checks=problem.checks)
    normalized = approx.real_value()
    return DimensionResult(approx, normalized,
                           *_absolute_dimension(normalized, ps),
                           problem.chi, "commuting", delta)


class _KernelDimCache:
    """Memoized normalized kernel-intersection dimensions per index subset."""

    def __init__(self, ps: ProjectorSet):
        self.ps = ps
        self._memo: dict[tuple[int, ...], float] = {}

    def dim(self, indices: tuple[int, ...]) -> float:
        got = self._memo.get(indices)
        if got is None:
            got = kernel_intersection_dim(self.ps, indices)
            self._memo[indices] = got
        return got


# Largest polymer whose inclusion-exclusion sum (2^size kernel dimensions)
# ``general_ie_weight`` evaluates.
SUBSET_CAP = 20


def general_ie_weight(ps: ProjectorSet, polymer: Sequence[int],
                      cache: _KernelDimCache | None = None) -> float:
    """Alternating sum over subsets of the polymer of kernel-intersection
    dimensions; the empty subset contributes the full space, 1."""
    polymer = tuple(sorted(polymer))
    if len(polymer) > SUBSET_CAP:
        raise ResourceCapExceeded(
            f"polymer of size {len(polymer)} needs 2^{len(polymer)} kernel "
            f"computations (cap {SUBSET_CAP})")
    if cache is None:
        cache = _KernelDimCache(ps)
    total = 0.0
    t = len(polymer)
    for mask in range(1 << t):
        subset = tuple(polymer[i] for i in range(t) if mask >> i & 1)
        term = cache.dim(subset) if subset else 1.0
        total += -term if mask.bit_count() % 2 else term
    return -total if t % 2 else total


def general_oracle(ps: ProjectorSet) -> WeightOracle:
    """The general family's polymer weights, ``general_ie_weight``, over one
    kernel-dimension cache."""
    cache = _KernelDimCache(ps)
    return WeightOracle(lambda p: general_ie_weight(ps, p, cache))


class StabilityReport(WeightConditionReport):
    """Observed inclusion-exclusion sums for connected sets up to a size cap,
    ``verified_up_to``.

    The certified guarantee's hypothesis quantifies over every subset; only
    connected sets up to the cap (what the truncated expansion consumes) are
    checked, the rest is assumed.
    """

    __slots__ = ()

    def as_check(self) -> ConditionCheck:
        observed = max(self.max_abs_root_by_size.values(), default=0.0)
        detail = (f"max |IE sum|^(1/|U|) = {observed:.6g} vs eta = "
                  f"{self.threshold:.6g} over connected U with |U| <= "
                  f"{self.verified_up_to}; larger and disconnected U assumed")
        return ConditionCheck("stability", self.passed,
                              self.threshold - observed, detail)


def stability_check(ps: ProjectorSet, size_cap: int, delta: float, *,
                    oracle: WeightOracle | None = None,
                    graph: DependencyGraph | None = None) -> StabilityReport:
    """Check the inclusion-exclusion stability bound on connected sets.

    The checked quantity for a connected U is exactly the polymer weight
    magnitude |w_U| of the general-projector polymer model, read from
    ``oracle`` (``general_oracle(ps)`` when None), on ``graph``
    (``support_dependency_graph(ps)`` when None).
    """
    oracle = general_oracle(ps) if oracle is None else oracle
    graph = support_dependency_graph(ps) if graph is None else graph
    return StabilityReport._make(check_weight_condition(
        graph, oracle, size_cap, delta))


def approx_dim_general(ps: ProjectorSet, epsilon: float, delta: float, *,
                       force: bool = False) -> DimensionResult:
    """FPTAS for the normalized kernel-intersection dimension of general
    projectors, conditional on the global stability hypothesis at the given
    delta: the engine checks it as weight decay (the weights are the
    inclusion-exclusion sums) on connected sets up to the truncation order."""
    graph = support_dependency_graph(ps)
    approx = approx_partition_function(graph, general_oracle(ps), epsilon,
                                       delta, force=force)
    normalized = approx.real_value()
    chi = greedy_coloring(graph).num_colors
    return DimensionResult(approx, normalized,
                           *_absolute_dimension(normalized, ps),
                           chi, "general-stability", delta)


# ``suggest_delta_general``'s first probe size, and its back-off
SUGGEST_INITIAL_PROBE = 3
SUGGEST_SAFETY = 0.02


def suggest_delta_general(ps: ProjectorSet, epsilon: float, *,
                          oracle: WeightOracle | None = None,
                          graph: DependencyGraph | None = None) -> float:
    """Near-largest delta consistent with the observed inclusion-exclusion
    decay, backed off by ``SUGGEST_SAFETY`` so the stability check is not
    knife-edge.  Weights come from ``oracle`` (``general_oracle(ps)`` when
    None), on ``graph`` (``support_dependency_graph(ps)`` when None).

    Probes connected sets up to the truncation order the suggestion itself
    implies; the result certifies nothing beyond the probed sizes.
    """
    graph = support_dependency_graph(ps) if graph is None else graph
    dmax = graph.max_degree()
    oracle = general_oracle(ps) if oracle is None else oracle
    probe = SUGGEST_INITIAL_PROBE
    while True:
        rep = check_weight_condition(graph, oracle, probe, 0.0)
        observed = max(rep.max_abs_root_by_size.values(), default=0.0)
        if observed <= 0.0:
            return DELTA_CEILING
        delta = min(certified_delta(observed, dmax) - SUGGEST_SAFETY,
                    DELTA_CEILING)
        if delta <= 0.0:
            return delta
        m = choose_truncation_order(graph.vertex_count, dmax, delta, epsilon)
        if m <= probe or probe >= DEFAULT_MAX_ORDER:
            return delta
        probe = min(m, DEFAULT_MAX_ORDER)


# ---------------------------------------------------------------------------
# Detectability

@dataclass
class AffineResult:
    """Affine approximation z to the kernel-intersection dimension.

    |z - dim| <= relative_coefficient * dim + additive_part, where the first
    term's dim is unknown; worst_case_total bounds the sum using dim <= 1.
    """

    z: float
    relative_coefficient: float
    additive_part: float
    worst_case_total: float
    lambda_star: float
    t: int
    chi_used: int
    approx: ApproxResult
    absolute_z: float | None
    log2_absolute_z: float | None
    delta_requested: float


def product_vertex_order(coloring: Coloring, t: int, polymer: Sequence[int]) -> list[int]:
    """Base-graph vertices of a product-graph polymer, in the lexicographic
    (round, color, vertex) product order."""
    decorated = []
    for pv in polymer:
        v, tau = divmod(pv, t)
        decorated.append((tau, coloring.class_of[v], v))
    decorated.sort()
    return [v for _, _, v in decorated]


def detectability_weight(ps: ProjectorSet, coloring: Coloring, t: int,
                         polymer: Sequence[int]) -> float:
    """Weight of a polymer of the round-expanded product graph: signed
    normalized trace of the ordered projector product."""
    order = product_vertex_order(coloring, t, polymer)
    tr = normalized_product_trace(ps, order)
    return -tr if len(polymer) % 2 else tr


def detectability_additive_part(epsilon: float, lambda_star: float, chi: int,
                                t: int) -> float:
    return (1.0 + epsilon) * (1.0 / (1.0 + lambda_star / chi ** 2)) ** (t / 2.0)


# Most adjacency entries (twice the edges) of a detectability product graph.
PRODUCT_ADJACENCY_CAP = 1 << 20


def detectability_problem(ps: ProjectorSet, graph: DependencyGraph,
                          coloring: Coloring | None, t: int,
                          delta: float) -> Problem:
    """The t-round polymer model on the support graph times K_t, under max
    normalized rank <= (1/(e^(1+delta)(2t(D+1)-1)))^(t chi), chi >= 1; a
    product past ``PRODUCT_ADJACENCY_CAP`` is refused before it is built."""
    col = proper_coloring(graph, coloring)
    chi = max(col.num_colors, 1)
    dmax = graph.max_degree()
    n = graph.vertex_count
    # vertex (v, tau) of the product has t - 1 + t deg(v) neighbours
    entries = t * (t * (n + 2 * graph.edge_count()) - n)
    if entries > PRODUCT_ADJACENCY_CAP:
        raise ResourceCapExceeded(
            f"the {t}-round product graph has {entries} adjacency entries, "
            f"exceeding cap {PRODUCT_ADJACENCY_CAP}; lower t")
    # the product's max degree if it has a vertex; 2 * it + 1 = 2t(D+1) - 1
    product_dmax = t * (dmax + 1) - 1
    threshold = weight_decay_threshold(delta, product_dmax) ** (t * chi)
    rank_chk, worst_rank = _rank_check(
        ps, "detectability-rank-condition", threshold, delta, dmax, chi)
    delta_used = holder_delta(worst_rank, t * chi, product_dmax, delta,
                              rank_chk.passed)
    oracle = WeightOracle(lambda p: detectability_weight(ps, col, t, p))
    return Problem(strong_product_with_complete(graph, t), oracle, [rank_chk],
                   delta_used, chi)


def approx_dim_detectability(ps: ProjectorSet, epsilon: float, delta: float,
                             *, t: int = 1, coloring: Coloring | None = None,
                             lambda_star: float | None = None,
                             force: bool = False) -> AffineResult:
    """Affine approximation of the kernel-intersection dimension via the
    detectability trace over ``t`` rounds, computed by the cluster engine on
    the strong product of the dependency graph with a complete graph on t
    vertices.  ``lambda_star`` is the spectral gap or a certified lower
    bound on it; when None the gap is computed."""
    problem = detectability_problem(ps, support_dependency_graph(ps),
                                    coloring, t, delta)
    approx = approx_partition_function(
        problem.graph, problem.oracle, epsilon, problem.delta_used,
        force=force, extra_checks=problem.checks)
    # after the engine has enforced the rank condition, so a failed
    # hypothesis exits 2 before a capped gap can exit 4
    lam = spectral_gap_or_error(ps) if lambda_star is None else lambda_star
    z = approx.real_value()
    additive = detectability_additive_part(epsilon, lam, problem.chi, t)
    absolute_z, log2_absolute_z = _absolute_dimension(z, ps)
    return AffineResult(
        z=z, relative_coefficient=epsilon, additive_part=additive,
        worst_case_total=epsilon + additive, lambda_star=lam, t=t,
        chi_used=problem.chi, approx=approx, absolute_z=absolute_z,
        log2_absolute_z=log2_absolute_z, delta_requested=delta)


def spectral_gap_or_error(ps: ProjectorSet) -> float:
    try:
        return spectral_gap(ps)
    except ResourceCapExceeded as exc:
        raise ResourceCapExceeded(
            str(exc) + " (detectability needs lambda_star; pass a certified "
            "lower bound)") from None
