"""Seeded instance generators shared by the unit and acceptance tests."""

import math
import random

import numpy as np

from llcount.clusters import WeightOracle, weight_decay_threshold
from llcount.cnf import CnfFormula
from llcount.graphs import DependencyGraph, build_graph, enumerate_connected_subgraphs
from llcount.projectors import LocalProjector, ProjectorSet


def random_graph(rng: random.Random, n: int, max_degree: int,
                 edge_prob: float = 0.4) -> DependencyGraph:
    """Random simple graph with maximum degree at most max_degree."""
    edges = []
    deg = [0] * n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    for u, v in pairs:
        if deg[u] < max_degree and deg[v] < max_degree and rng.random() < edge_prob:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return build_graph(n, edges)


def random_weight_table(rng: random.Random, g: DependencyGraph, delta: float,
                        allow_complex: bool = True) -> dict:
    """Weights for every polymer of g, drawn strictly inside the decay bound."""
    eta = weight_decay_threshold(delta, g.max_degree())
    table = {}
    for p in enumerate_connected_subgraphs(g, max(g.vertex_count, 1)):
        mag = rng.random() * eta ** len(p)
        if allow_complex and rng.random() < 0.5:
            phase = rng.uniform(0.0, 2.0 * math.pi)
            table[p] = complex(mag * math.cos(phase), mag * math.sin(phase))
        else:
            table[p] = mag if rng.random() < 0.5 else -mag
    return table


def table_oracle(table: dict) -> WeightOracle:
    return WeightOracle(lambda p: table[tuple(p)])


# ---------------------------------------------------------------------------
# CNF instances

def _signed(rng: random.Random, variables) -> tuple[int, ...]:
    return tuple(v if rng.random() < 0.5 else -v for v in variables)


def chain_cnf(rng: random.Random, n_clauses: int, k: int = 12,
              share: int = 6) -> CnfFormula:
    """Chain of k-clauses; consecutive clauses share `share` variables.

    With share <= k/2 non-consecutive clauses are variable-disjoint, so the
    dependency graph is a path with max degree 2 (chi_used = 2).
    """
    assert 1 <= share <= k // 2
    clauses = []
    start = 0
    for _ in range(n_clauses):
        clauses.append(_signed(rng, range(start + 1, start + k + 1)))
        start += k - share
    n = start + share if n_clauses else 0
    return CnfFormula(n, tuple(clauses))


def ring_cnf(rng: random.Random, n_clauses: int, k: int = 12,
             share: int = 6) -> CnfFormula:
    """Even-length ring of k-clauses (chi_used = 2), each sharing `share`
    variables with each neighbor."""
    assert n_clauses >= 3 and n_clauses % 2 == 0
    return _ring(rng, n_clauses, k, share)


def odd_ring_cnf(rng: random.Random, n_clauses: int, k: int = 12,
                 share: int = 6) -> CnfFormula:
    """Odd-length ring of k-clauses, each sharing `share` variables with each
    neighbor; a greedy coloring of its cycle uses 3 colors."""
    assert n_clauses >= 3 and n_clauses % 2 == 1
    return _ring(rng, n_clauses, k, share)


def _ring(rng: random.Random, n_clauses: int, k: int,
          share: int) -> CnfFormula:
    step = k - share
    assert step * 2 >= k, "non-adjacent clauses would overlap"
    n = step * n_clauses
    clauses = []
    for i in range(n_clauses):
        vars_i = [(i * step + j) % n + 1 for j in range(k)]
        clauses.append(_signed(rng, vars_i))
    return CnfFormula(n, tuple(clauses))


def cnf_catalog(seed: int = 20240913) -> list[CnfFormula]:
    """>= 20 k=12 chain/ring instances with <= 20 clauses, chi_used = 2."""
    rng = random.Random(seed)
    out = []
    for c in (2, 3, 4, 5, 7, 9, 12, 16, 20):
        out.append(chain_cnf(rng, c, share=6))
    for c in (2, 3, 4):
        out.append(chain_cnf(rng, c, share=1))
    for c in (4, 6, 8, 10, 14, 18, 20):
        out.append(ring_cnf(rng, c, share=6))
    out.append(ring_cnf(rng, 6, share=1))  # the 12-CNF ring sharing one var
    return out


# ---------------------------------------------------------------------------
# Projector instances

def basis_state_projector(num_qudits: int, d: int, index: int) -> np.ndarray:
    side = d ** num_qudits
    m = np.zeros((side, side), dtype=complex)
    m[index, index] = 1.0
    return m


def random_rank_projector(rng: random.Random, num_qudits: int, rank: int,
                          d: int = 2) -> np.ndarray:
    """Projector onto the span of `rank` Haar-ish random orthonormal vectors."""
    side = d ** num_qudits
    npr = np.random.default_rng(rng.getrandbits(32))
    a = npr.normal(size=(side, rank)) + 1j * npr.normal(size=(side, rank))
    q, _ = np.linalg.qr(a)
    return q @ q.conj().T


def random_diag_projector(rng: random.Random, num_qudits: int, rank: int,
                          d: int = 2) -> np.ndarray:
    side = d ** num_qudits
    picks = rng.sample(range(side), rank)
    m = np.zeros((side, side), dtype=complex)
    for i in picks:
        m[i, i] = 1.0
    return m


def local_unitaries(rng: random.Random, qudits, d: int = 2) -> dict:
    npr = np.random.default_rng(rng.getrandbits(32))
    out = {}
    for q in qudits:
        a = npr.normal(size=(d, d)) + 1j * npr.normal(size=(d, d))
        qmat, r = np.linalg.qr(a)
        out[q] = qmat * (np.diag(r) / np.abs(np.diag(r)))
    return out


def conjugate_by_locals(matrix: np.ndarray, support, unitaries: dict,
                        d: int = 2) -> np.ndarray:
    big = np.array([[1.0 + 0j]])
    for q in support:
        big = np.kron(big, unitaries[q])
    return big @ matrix @ big.conj().T


def overlapping_pair(rng: random.Random, total_qubits: int = 10,
                     support_size: int = 7, rank: int = 1,
                     conjugated: bool = False) -> ProjectorSet:
    """Two commuting low-rank projectors on overlapping fat supports.

    chi_used = 2, max degree 1; normalized rank = rank / 2^support_size.
    Diagonal projectors commute under embedding; conjugating both by the same
    single-qubit unitaries keeps them commuting but makes them dense.
    """
    s1 = tuple(range(support_size))
    s2 = tuple(range(total_qubits - support_size, total_qubits))
    m1 = random_diag_projector(rng, support_size, rank)
    m2 = random_diag_projector(rng, support_size, rank)
    if conjugated:
        us = local_unitaries(rng, range(total_qubits))
        m1 = conjugate_by_locals(m1, s1, us)
        m2 = conjugate_by_locals(m2, s2, us)
    return ProjectorSet(2, total_qubits,
                        [LocalProjector(s1, m1), LocalProjector(s2, m2)])


def disjoint_family(rng: random.Random, blocks: int = 5, block_qubits: int = 2,
                    rank: int = 1, diagonal: bool = True) -> ProjectorSet:
    """Several projectors on disjoint small supports (edgeless graph, chi=1)."""
    projectors = []
    for b in range(blocks):
        support = tuple(range(b * block_qubits, (b + 1) * block_qubits))
        if diagonal:
            m = random_diag_projector(rng, block_qubits, rank)
        else:
            m = random_rank_projector(rng, block_qubits, rank)
        projectors.append(LocalProjector(support, m))
    return ProjectorSet(2, blocks * block_qubits, projectors)


def single_fat_projector(rng: random.Random, qubits: int = 7, rank: int = 1,
                         dense: bool = True,
                         total_qubits: int | None = None) -> ProjectorSet:
    total = qubits if total_qubits is None else total_qubits
    support = tuple(range(qubits))
    m = (random_rank_projector(rng, qubits, rank) if dense
         else random_diag_projector(rng, qubits, rank))
    return ProjectorSet(2, total, [LocalProjector(support, m)])


def commuting_catalog(seed: int = 77001) -> list[ProjectorSet]:
    """>= 20 commuting families on <= 12 qubits meeting the rank condition."""
    rng = random.Random(seed)
    out = []
    for i in range(4):
        out.append(overlapping_pair(rng, total_qubits=8 + i % 3,
                                    support_size=7, rank=1))
    for i in range(2):
        out.append(overlapping_pair(rng, total_qubits=10, support_size=8,
                                    rank=2))
    for i in range(3):
        out.append(overlapping_pair(rng, total_qubits=9, support_size=7,
                                    rank=1, conjugated=True))
    for blocks, bq in ((4, 2), (5, 2), (6, 2), (4, 3), (3, 4)):
        out.append(disjoint_family(rng, blocks=blocks, block_qubits=bq))
    out.append(disjoint_family(rng, blocks=3, block_qubits=2, diagonal=False))
    out.append(disjoint_family(rng, blocks=6, block_qubits=2))  # 12 qubits
    for qb in (7, 8):
        out.append(single_fat_projector(rng, qubits=qb, rank=1, dense=False))
    out.append(single_fat_projector(rng, qubits=8, rank=2, dense=False))
    out.append(single_fat_projector(rng, qubits=7, rank=1, dense=True))
    out.append(ProjectorSet(2, 3, []))  # empty family
    return out


def rotate_projector(rng: random.Random, matrix: np.ndarray,
                     angle: float) -> np.ndarray:
    """Conjugate by exp(i*angle*H) for a random Hermitian H of unit norm."""
    npr = np.random.default_rng(rng.getrandbits(32))
    side = matrix.shape[0]
    h = npr.normal(size=(side, side)) + 1j * npr.normal(size=(side, side))
    h = (h + h.conj().T) / 2.0
    h /= np.linalg.norm(h, 2)
    eigval, eigvec = np.linalg.eigh(h)
    u = (eigvec * np.exp(1j * angle * eigval)) @ eigvec.conj().T
    return u @ matrix @ u.conj().T


def noncommuting_pair(rng: random.Random, angle: float = 0.05,
                      total_qubits: int = 8, support_size: int = 7,
                      rank: int = 1) -> ProjectorSet:
    """Mildly non-commuting pair: a commuting fat pair with one projector
    rotated by a small random unitary on its own support."""
    base = overlapping_pair(rng, total_qubits=total_qubits,
                            support_size=support_size, rank=rank)
    p1, p2 = base.projectors
    rotated = rotate_projector(rng, p2.matrix, angle)
    return ProjectorSet(2, total_qubits,
                        [p1, LocalProjector(p2.support, rotated)])


def noncommuting_catalog(seed: int = 90210) -> list[ProjectorSet]:
    """>= 10 mildly non-commuting families on <= 10 qubits."""
    rng = random.Random(seed)
    out = []
    for i in range(6):
        out.append(noncommuting_pair(rng, angle=0.02 + 0.01 * i,
                                     total_qubits=8, support_size=7))
    for i in range(3):
        out.append(noncommuting_pair(rng, angle=0.03, total_qubits=9 + i % 2,
                                     support_size=8, rank=2))
    out.append(noncommuting_pair(rng, angle=0.05, total_qubits=10,
                                 support_size=8, rank=1))
    return out


def detectability_catalog_t1(seed: int = 5150) -> list[ProjectorSet]:
    """>= 10 instances on <= 8 qubits meeting the T=1 rank condition."""
    rng = random.Random(seed)
    out = []
    for i in range(4):
        out.append(overlapping_pair(rng, total_qubits=8, support_size=7,
                                    rank=1, conjugated=(i % 2 == 0)))
    for blocks in (3, 4):
        out.append(disjoint_family(rng, blocks=blocks, block_qubits=2,
                                   diagonal=False))
    out.append(disjoint_family(rng, blocks=2, block_qubits=3, rank=2))
    for qb in (7, 8):
        out.append(single_fat_projector(rng, qubits=qb, rank=1, dense=True))
    out.append(single_fat_projector(rng, qubits=8, rank=2, dense=False))
    return out


def detectability_catalog_t2(seed: int = 6280) -> list[ProjectorSet]:
    """>= 10 instances on <= 8 qubits meeting the T=2 rank condition.

    At T=2 the condition forces an isolated projector of normalized rank at
    most (1/(3e^(1+delta)))^2, so each instance has exactly one nonzero
    projector on a 7- or 8-qubit support.
    """
    rng = random.Random(seed)
    out = []
    for i in range(5):
        out.append(single_fat_projector(rng, qubits=7, rank=1, dense=True))
    for i in range(3):
        out.append(single_fat_projector(rng, qubits=8, rank=1, dense=True))
    out.append(single_fat_projector(rng, qubits=8, rank=2, dense=False))
    out.append(single_fat_projector(rng, qubits=7, rank=1, dense=False,
                                    total_qubits=8))
    return out


def detectability_monotone_catalog(seed: int = 424242) -> list[ProjectorSet]:
    """Non-commuting instances with rank <= 1/(e(D+1)), for the exact
    detectability-trace monotonicity check."""
    rng = random.Random(seed)
    out = []
    for i in range(4):
        rng2 = random.Random(seed + i)
        m1 = random_rank_projector(rng2, 3, 1)
        m2 = rotate_projector(rng2, random_rank_projector(rng2, 3, 1),
                              0.3 + 0.1 * i)
        out.append(ProjectorSet(2, 5, [LocalProjector((0, 1, 2), m1),
                                       LocalProjector((2, 3, 4), m2)]))
    return out
