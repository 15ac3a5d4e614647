"""Dense projector operations: validation, embedding, traces, kernels, gap."""

import itertools
import random

import numpy as np
import pytest

from llcount.errors import ResourceCapExceeded
from llcount.projectors import (LocalProjector, ProjectorSet, embed_operator,
                                kernel_intersection_dim,
                                normalized_product_trace, rank_normalized,
                                spectral_gap, support_dependency_graph,
                                validate_projector, verify_commuting)

from gen import random_diag_projector, random_rank_projector

P0 = np.array([[1, 0], [0, 0]], dtype=complex)   # |0><0|
P1 = np.array([[0, 0], [0, 1]], dtype=complex)   # |1><1|
PPLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)  # |+><+|


def test_validate_projector_examples():
    assert validate_projector(LocalProjector((0,), P0)).passed
    bad = validate_projector(LocalProjector((0,), 2 * P0))
    assert not bad.passed and bad.idempotency_deviation > 1.0
    with pytest.raises(ValueError):
        validate_projector(LocalProjector((0,), np.zeros((2, 3))))


def test_projector_set_shape_validation():
    with pytest.raises(ValueError):
        ProjectorSet(2, 2, [LocalProjector((0, 1), P0)])  # side 2 != 4
    with pytest.raises(ValueError):
        ProjectorSet(2, 1, [LocalProjector((0, 0), np.eye(4))])
    with pytest.raises(ValueError):
        ProjectorSet(2, 1, [LocalProjector((3,), P0)])


def test_support_dependency_graph_examples():
    ps = ProjectorSet(2, 4, [LocalProjector((0,), P0), LocalProjector((1,), P0)])
    assert support_dependency_graph(ps).edge_count() == 0

    ps = ProjectorSet(2, 5, [LocalProjector((0, 3), np.kron(P0, P0)),
                             LocalProjector((3, 4), np.kron(P0, P0))])
    assert list(support_dependency_graph(ps).edges()) == [(0, 1)]

    chain = ProjectorSet(2, 4, [LocalProjector((0, 1), np.kron(P0, P0)),
                                LocalProjector((1, 2), np.kron(P0, P0)),
                                LocalProjector((2, 3), np.kron(P0, P0))])
    assert sorted(support_dependency_graph(chain).edges()) == [(0, 1), (1, 2)]


def _embed_reference(matrix, support, target, d):
    """Element-by-element reference embedding."""
    u = len(target)
    dim = d ** u
    out = np.zeros((dim, dim), dtype=complex)
    pos = {q: i for i, q in enumerate(target)}

    def digits(idx):
        out_digits = [0] * u
        for i in range(u - 1, -1, -1):
            out_digits[i] = idx % d
            idx //= d
        return out_digits

    for i in range(dim):
        di = digits(i)
        for j in range(dim):
            dj = digits(j)
            if any(di[pos[q]] != dj[pos[q]] for q in target
                   if q not in support):
                continue
            si = 0
            sj = 0
            for q in support:
                si = si * d + di[pos[q]]
                sj = sj * d + dj[pos[q]]
            out[i, j] = matrix[si, sj]
    return out


def test_embed_operator_matches_reference():
    rng = random.Random(2024)
    npr = np.random.default_rng(7)
    for _ in range(12):
        d = rng.choice((2, 3))
        target = tuple(sorted(rng.sample(range(6), rng.randint(1, 3))))
        k = rng.randint(1, len(target))
        support = tuple(sorted(rng.sample(target, k)))
        side = d ** len(support)
        m = npr.normal(size=(side, side)) + 1j * npr.normal(size=(side, side))
        got = embed_operator(m, support, target, d)
        want = _embed_reference(m, support, target, d)
        assert np.allclose(got, want, atol=1e-12)


def test_normalized_product_trace_examples():
    ps = ProjectorSet(2, 1, [LocalProjector((0,), P0)])
    assert normalized_product_trace(ps, (0,)) == pytest.approx(0.5)

    p00 = np.zeros((4, 4), dtype=complex)
    p00[0, 0] = 1
    p11 = np.zeros((4, 4), dtype=complex)
    p11[3, 3] = 1
    ps = ProjectorSet(2, 2, [LocalProjector((0, 1), p00),
                             LocalProjector((0, 1), p11)])
    assert normalized_product_trace(ps, (0, 1)) == pytest.approx(0.0)


def test_normalized_product_trace_diagonal_crosscheck():
    rng = random.Random(31)
    for _ in range(8):
        m1 = random_diag_projector(rng, 2, rng.randint(1, 3))
        m2 = random_diag_projector(rng, 2, rng.randint(1, 3))
        ps = ProjectorSet(2, 3, [LocalProjector((0, 1), m1),
                                 LocalProjector((1, 2), m2)])
        got = normalized_product_trace(ps, (0, 1))
        # direct diagonal computation on the 3-qubit union
        total = 0.0
        for a in range(8):
            d1 = ((a >> 2) & 1) * 2 + ((a >> 1) & 1)  # digits of qubits 0,1
            d2 = a & 3                                 # digits of qubits 1,2
            total += m1[d1, d1].real * m2[d2, d2].real
        assert got == pytest.approx(total / 8.0)


def test_product_trace_reorder_invariance_for_commuting():
    rng = random.Random(55)
    m1 = random_diag_projector(rng, 2, 2)
    m2 = random_diag_projector(rng, 2, 1)
    m3 = random_diag_projector(rng, 2, 2)
    ps = ProjectorSet(2, 4, [LocalProjector((0, 1), m1),
                             LocalProjector((1, 2), m2),
                             LocalProjector((2, 3), m3)])
    assert verify_commuting(ps).commuting
    values = {normalized_product_trace(ps, perm)
              for perm in itertools.permutations((0, 1, 2))}
    assert max(values) - min(values) <= 1e-9


def test_rank_normalized_examples():
    assert rank_normalized(LocalProjector((0,), P0), 2) == pytest.approx(0.5)
    assert rank_normalized(LocalProjector((0,), np.zeros((2, 2))), 2) == 0.0
    assert rank_normalized(LocalProjector((0, 1), np.eye(4)), 2) == pytest.approx(1.0)


def test_kernel_intersection_dim_examples():
    ps = ProjectorSet(2, 2, [LocalProjector((0,), P0), LocalProjector((0,), P1)])
    assert kernel_intersection_dim(ps, ()) == 1.0
    assert kernel_intersection_dim(ps, (0,)) == pytest.approx(0.5)
    assert kernel_intersection_dim(ps, (0, 1)) == pytest.approx(0.0)


def test_kernel_dim_monotone_and_complement():
    rng = random.Random(77)
    for _ in range(6):
        projs = []
        for i in range(3):
            projs.append(LocalProjector(
                (i, i + 1), random_rank_projector(rng, 2, rng.randint(1, 2))))
        ps = ProjectorSet(2, 4, projs)
        sets = [(), (0,), (0, 1), (0, 1, 2)]
        dims = [kernel_intersection_dim(ps, s) for s in sets]
        assert all(a >= b - 1e-12 for a, b in zip(dims, dims[1:]))
        for i in range(3):
            r = rank_normalized(ps.projectors[i], 2)
            assert 0.0 <= r <= 1.0
            assert kernel_intersection_dim(ps, (i,)) == pytest.approx(1.0 - r)


def test_spectral_gap_examples():
    ps = ProjectorSet(2, 1, [LocalProjector((0,), P0)])
    assert spectral_gap(ps) == pytest.approx(1.0)

    ps = ProjectorSet(2, 1, [LocalProjector((0,), P0), LocalProjector((0,), P0)])
    assert spectral_gap(ps) == pytest.approx(2.0)

    ps = ProjectorSet(2, 2, [])
    assert spectral_gap(ps) == 0.0


def test_spectral_gap_matches_dense_oracle():
    from llcount.oracles import exact_dimension_full_diagonalization
    rng = random.Random(404)
    for _ in range(4):
        projs = [LocalProjector((0, 1), random_rank_projector(rng, 2, 1)),
                 LocalProjector((1, 2), random_rank_projector(rng, 2, 2))]
        ps = ProjectorSet(2, 3, projs)
        exact = exact_dimension_full_diagonalization(ps)
        assert spectral_gap(ps) == pytest.approx(exact.lambda_star, abs=1e-9)


def test_dense_cap_enforced():
    ps = ProjectorSet(2, 3, [LocalProjector((0, 1, 2), np.eye(8))],
                      dense_cap=4)
    with pytest.raises(ResourceCapExceeded):
        normalized_product_trace(ps, (0,))
    with pytest.raises(ResourceCapExceeded):
        spectral_gap(ps)


@pytest.mark.parametrize("support", [(1, 0), (0, 0), (2, 0, 1)])
def test_projector_set_rejects_a_support_that_is_not_ascending(support):
    side = 2 ** len(support)
    with pytest.raises(ValueError, match="not strictly ascending"):
        ProjectorSet(2, 3, [LocalProjector(support, np.zeros((side, side)))])


def test_validate_projector_reports_no_spectrum_without_hermiticity():
    nan = np.array([[np.nan, 0], [0, 0]], dtype=complex)
    bad = validate_projector(LocalProjector((0,), nan))
    assert not bad.passed and np.isnan(bad.hermiticity_deviation)
    assert bad.spectrum_deviation == np.inf
