"""Quantum counting pipelines: commuting, general (stability), detectability."""

import math
import random

import numpy as np
import pytest

from llcount.errors import HypothesisViolation, ResourceCapExceeded
from llcount.graphs import greedy_coloring, strong_product_with_complete
from llcount.oracles import (brute_force_polymer_z, exact_detectability_trace,
                             exact_dimension_full_diagonalization)
from llcount.projectors import (LocalProjector, ProjectorSet,
                                rank_normalized, support_dependency_graph)
from llcount.qsat import (approx_dim_commuting, approx_dim_detectability, approx_dim_general,
                          commuting_weight, detectability_problem,
                          detectability_weight, general_ie_weight,
                          stability_check, suggest_delta_general)

from gen import (disjoint_family, noncommuting_pair, overlapping_pair,
                 random_diag_projector, single_fat_projector)

P0 = np.array([[1, 0], [0, 0]], dtype=complex)
PPLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def test_commuting_weight_examples():
    ps = ProjectorSet(2, 1, [LocalProjector((0,), P0)])
    assert commuting_weight(ps, (0,)) == pytest.approx(-0.5)

    p00 = np.zeros((4, 4), dtype=complex)
    p00[0, 0] = 1
    p11 = np.zeros((4, 4), dtype=complex)
    p11[3, 3] = 1
    ps = ProjectorSet(2, 2, [LocalProjector((0, 1), p00),
                             LocalProjector((0, 1), p11)])
    assert commuting_weight(ps, (0, 1)) == pytest.approx(0.0)

    rng = random.Random(3)
    m1 = random_diag_projector(rng, 2, 2)
    m2 = random_diag_projector(rng, 2, 1)
    ps = ProjectorSet(2, 3, [LocalProjector((0, 1), m1),
                             LocalProjector((1, 2), m2)])
    direct = 0.0
    for a in range(8):
        d1 = ((a >> 2) & 1) * 2 + ((a >> 1) & 1)
        d2 = a & 3
        direct += m1[d1, d1].real * m2[d2, d2].real
    assert commuting_weight(ps, (0, 1)) == pytest.approx(direct / 8.0)


def test_approx_dim_commuting_trivial_cases():
    empty = ProjectorSet(2, 2, [])
    res = approx_dim_commuting(empty, 0.05, 0.1)
    assert res.normalized == pytest.approx(1.0)
    assert res.absolute == pytest.approx(4.0)

    # single rank-1 projector on a 3-qubit support inside a 4-qubit register
    m = np.zeros((8, 8), dtype=complex)
    m[5, 5] = 1
    ps = ProjectorSet(2, 4, [LocalProjector((0, 1, 2), m)])
    res = approx_dim_commuting(ps, 0.01, 0.1)
    assert res.normalized == pytest.approx(1.0 - 1.0 / 8.0, rel=0.01)
    assert res.absolute == pytest.approx(14.0, rel=0.01)


def test_approx_dim_commuting_single_qubit_forced():
    # normalized rank 1/2 violates every rank bound (threshold < 1/e), so the
    # pipeline aborts; a forced run still lands near the true value 1/2
    ps = ProjectorSet(2, 3, [LocalProjector((0,), P0)])
    with pytest.raises(HypothesisViolation):
        approx_dim_commuting(ps, 0.05, 0.1)
    res = approx_dim_commuting(ps, 0.05, 2.5, force=True)
    assert res.approx.forced
    assert res.normalized == pytest.approx(0.5, rel=0.1)
    assert res.absolute == pytest.approx(4.0, rel=0.1)


def test_approx_dim_commuting_matches_diagonalization():
    rng = random.Random(21)
    for maker in (lambda: overlapping_pair(rng, 9, 7, 1),
                  lambda: overlapping_pair(rng, 9, 7, 1, conjugated=True),
                  lambda: disjoint_family(rng, 4, 2)):
        ps = maker()
        res = approx_dim_commuting(ps, 0.05, 0.05)
        exact = exact_dimension_full_diagonalization(ps)
        assert abs(res.normalized - exact.normalized_dim) \
            <= 0.05 * exact.normalized_dim


def test_approx_dim_commuting_rejects_noncommuting():
    rng = random.Random(33)
    ps = noncommuting_pair(rng, angle=0.3, total_qubits=8, support_size=7)
    with pytest.raises(HypothesisViolation):
        approx_dim_commuting(ps, 0.05, 0.05)


def test_general_ie_weight_examples():
    m = np.zeros((8, 8), dtype=complex)
    m[0, 0] = 1
    ps = ProjectorSet(2, 3, [LocalProjector((0, 1, 2), m)])
    assert general_ie_weight(ps, (0,)) == pytest.approx(
        -rank_normalized(ps.projectors[0], 2))

    # commuting pair: equals the commuting weight
    rng = random.Random(8)
    pair = overlapping_pair(rng, 8, 7, 1, conjugated=True)
    assert general_ie_weight(pair, (0, 1)) == pytest.approx(
        commuting_weight(pair, (0, 1)), abs=1e-9)

    # |0><0| and |+><+| on the same qubit: kernels intersect trivially
    ps = ProjectorSet(2, 1, [LocalProjector((0,), P0),
                             LocalProjector((0,), PPLUS)])
    assert general_ie_weight(ps, (0, 1)) == pytest.approx(0.0, abs=1e-9)


def test_general_vs_commuting_weights_up_to_size_four():
    from llcount.graphs import enumerate_connected_subgraphs
    rng = random.Random(14)
    fam = disjoint_family(rng, 3, 2, diagonal=False)
    for polymer in enumerate_connected_subgraphs(support_dependency_graph(fam), 3):
        assert general_ie_weight(fam, polymer) == pytest.approx(
            commuting_weight(fam, polymer), abs=1e-9)

    # chain of four overlapping diagonal projectors: polymers up to size 4
    chain = ProjectorSet(2, 5, [
        LocalProjector((i, i + 1), random_diag_projector(rng, 2, 1))
        for i in range(4)])
    g = support_dependency_graph(chain)
    assert g.max_degree() == 2
    for polymer in enumerate_connected_subgraphs(g, 4):
        assert general_ie_weight(chain, polymer) == pytest.approx(
            commuting_weight(chain, polymer), abs=1e-9)


def test_stability_check_examples():
    zero = ProjectorSet(2, 2, [LocalProjector((0,), np.zeros((2, 2))),
                               LocalProjector((1,), np.zeros((2, 2)))])
    rep = stability_check(zero, 2, 0.1)
    assert rep.passed

    # a single projector with rank above the bound: size-1 violation
    ps = ProjectorSet(2, 1, [LocalProjector((0,), P0)])
    rep = stability_check(ps, 1, 0.1)
    assert not rep.passed
    assert rep.violations[0][0] == (0,)


def test_stability_report_matches_recomputation():
    rng = random.Random(40)
    ps = noncommuting_pair(rng, angle=0.05, total_qubits=8, support_size=7)
    rep = stability_check(ps, 2, 0.2)
    from llcount.projectors import kernel_intersection_dim
    for size in rep.max_abs_root_by_size:
        assert size in (1, 2)
    s01 = (1.0
           - kernel_intersection_dim(ps, (0,))
           - kernel_intersection_dim(ps, (1,))
           + kernel_intersection_dim(ps, (0, 1)))
    assert rep.max_abs_root_by_size[2] == pytest.approx(abs(s01) ** 0.5)


def test_approx_dim_general_agrees_with_commuting_and_exact():
    rng = random.Random(50)
    ps = overlapping_pair(rng, 9, 7, 1, conjugated=True)
    eps = 0.05
    delta = suggest_delta_general(ps, eps)
    gen_res = approx_dim_general(ps, eps, delta)
    com_res = approx_dim_commuting(ps, eps, 0.05)
    exact = exact_dimension_full_diagonalization(ps)
    assert abs(gen_res.normalized - com_res.normalized) \
        <= 2 * eps * exact.normalized_dim
    assert abs(gen_res.normalized - exact.normalized_dim) \
        <= eps * exact.normalized_dim

    single = single_fat_projector(rng, qubits=7)
    delta = suggest_delta_general(single, eps)
    res = approx_dim_general(single, eps, delta)
    r = rank_normalized(single.projectors[0], 2)
    assert res.normalized == pytest.approx(1.0 - r, rel=eps)


def test_approx_dim_general_noncommuting_within_eps():
    rng = random.Random(60)
    ps = noncommuting_pair(rng, angle=0.04, total_qubits=8, support_size=7)
    eps = 0.05
    delta = suggest_delta_general(ps, eps)
    res = approx_dim_general(ps, eps, delta)
    exact = exact_dimension_full_diagonalization(ps)
    assert abs(res.normalized - exact.normalized_dim) \
        <= eps * exact.normalized_dim


def test_detectability_weight_examples():
    m = np.zeros((8, 8), dtype=complex)
    m[0, 0] = 1
    ps = ProjectorSet(2, 3, [LocalProjector((0, 1, 2), m)])
    g = support_dependency_graph(ps)
    col = greedy_coloring(g)
    t = 2
    # product vertices of the single base vertex: (v=0, tau) -> index tau
    r = rank_normalized(ps.projectors[0], 2)
    assert detectability_weight(ps, col, t, (0,)) == pytest.approx(-r)
    # same projector at both rounds: idempotent product, positive sign
    assert detectability_weight(ps, col, t, (0, 1)) == pytest.approx(r)

    # ordered non-commuting pair on one qubit: +tr(P0 Pplus)/2 = 1/4
    ps2 = ProjectorSet(2, 1, [LocalProjector((0,), P0),
                              LocalProjector((0,), PPLUS)])
    g2 = support_dependency_graph(ps2)
    col2 = greedy_coloring(g2)
    # T=1: product vertices are the base vertices
    assert detectability_weight(ps2, col2, 1, (0, 1)) == pytest.approx(0.25)


def test_detectability_polymer_model_reproduces_exact_trace():
    # Engine-independent identity: the polymer-model partition function on
    # the product graph equals the detectability trace exactly at desk scale.
    rng = random.Random(70)
    ps = noncommuting_pair(rng, angle=0.2, total_qubits=5, support_size=3,
                           rank=1)
    g = support_dependency_graph(ps)
    col = greedy_coloring(g)
    for t in (1, 2, 3):
        product = strong_product_with_complete(g, t)
        z = brute_force_polymer_z(
            product, lambda p: detectability_weight(ps, col, t, p))
        exact = exact_detectability_trace(ps, col, t)
        assert z.imag == pytest.approx(0.0, abs=1e-9)
        assert z.real == pytest.approx(exact, abs=1e-9)


def test_approx_dim_detectability_single_projector():
    rng = random.Random(81)
    ps = single_fat_projector(rng, qubits=7)
    exact = exact_dimension_full_diagonalization(ps)
    res = approx_dim_detectability(ps, 0.05, 0.05, t=2,
                                   lambda_star=exact.lambda_star)
    # (I - P)^t = I - P: the trace equals the dimension for every t
    assert abs(res.z - exact.normalized_dim) \
        <= 0.05 * exact.normalized_dim + res.additive_part
    assert res.additive_part == pytest.approx(
        1.05 * (1.0 / (1.0 + exact.lambda_star)) ** 1.0)
    assert res.worst_case_total == pytest.approx(0.05 + res.additive_part)


def test_approx_dim_detectability_commuting_instance():
    rng = random.Random(82)
    ps = disjoint_family(rng, 3, 2, diagonal=False)
    exact = exact_dimension_full_diagonalization(ps)
    col = greedy_coloring(support_dependency_graph(ps))
    # rank 1/4 meets the condition only at t=1; for commuting instances the
    # exact trace equals the exact dimension at every t regardless
    for t in (1, 2, 4):
        trace = exact_detectability_trace(ps, col, t)
        assert trace == pytest.approx(exact.normalized_dim, abs=1e-9)
    res = approx_dim_detectability(ps, 0.05, 0.05,
                                   lambda_star=exact.lambda_star)
    assert abs(res.z - exact.normalized_dim) <= 0.05 * exact.normalized_dim


def test_detectability_condition_rejects_fat_rank():
    rng = random.Random(83)
    ps = overlapping_pair(rng, 8, 7, 1)  # fine at T=1, too fat for T=4
    with pytest.raises(HypothesisViolation):
        approx_dim_detectability(ps, 0.05, 0.05, t=4, lambda_star=0.5)


def test_detectability_weight_decay_bound_holds():
    # per-polymer decay bound on the product graph, for instances meeting
    # the T-dependent rank condition
    rng = random.Random(84)
    ps = single_fat_projector(rng, qubits=7)
    g = support_dependency_graph(ps)
    col = greedy_coloring(g)
    t = 2
    chi = max(col.num_colors, 1)
    dmax = g.max_degree()
    eta = 1.0 / (math.exp(1.0) * (2 * t * (dmax + 1) - 1))
    rank = rank_normalized(ps.projectors[0], 2)
    assert rank <= eta ** (t * chi)  # instance meets the condition at delta->0
    product = strong_product_with_complete(g, t)
    from llcount.graphs import enumerate_connected_subgraphs
    for polymer in enumerate_connected_subgraphs(product, 2 * t):
        w = detectability_weight(ps, col, t, polymer)
        assert abs(w) <= eta ** len(polymer) * (1 + 1e-9)


@pytest.mark.parametrize("make", [
    lambda rng: ProjectorSet(2, 1, []),
    lambda rng: single_fat_projector(rng, qubits=3),
    lambda rng: overlapping_pair(rng, 4, 3, 1),
    lambda rng: disjoint_family(rng, 3, 2),
])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_detectability_product_is_bounded_before_it_is_built(monkeypatch,
                                                             make, t):
    """The product's adjacency size and degree, read from the support graph,
    are the built product's; one entry past the cap refuses it."""
    import llcount.qsat

    ps = make(random.Random(t))
    graph = support_dependency_graph(ps)
    product = strong_product_with_complete(graph, t)
    entries = sum(len(product.neighbors(v)) for v in product.vertices())
    monkeypatch.setattr(llcount.qsat, "PRODUCT_ADJACENCY_CAP", entries)
    problem = detectability_problem(ps, graph, None, t, 0.1)
    assert [problem.graph.neighbors(v) for v in problem.graph.vertices()] == [
        product.neighbors(v) for v in product.vertices()]
    if len(ps):
        assert product.max_degree() == t * (graph.max_degree() + 1) - 1
    monkeypatch.setattr(llcount.qsat, "PRODUCT_ADJACENCY_CAP", entries - 1)
    with pytest.raises(ResourceCapExceeded, match=f"{entries} adjacency"):
        detectability_problem(ps, graph, None, t, 0.1)
