"""Independent brute-force oracles for acceptance testing.

Every approximation path in the package has an exact desk-scale counterpart
here, implemented without sharing numeric kernels with the engine (different
embedding code, literal definitions, exact arithmetic where possible), so
agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .cnf import CnfFormula, EventTableOracle, _integer, clause_forcing
from .errors import ResourceCapExceeded, SpecParseError
from .graphs import Coloring, DependencyGraph, induced_components
from .projectors import DEFAULT_DENSE_CAP, ProjectorSet

_ENV_PREFIX = "LLCOUNT_MAX_"



@dataclass
class OracleBudget:
    """Hard caps enforced before any oracle allocates or enumerates."""

    max_events: int = 20
    max_variables: int = 26
    max_dense_dim: int = DEFAULT_DENSE_CAP
    max_polymer_model_vertices: int = 16
    max_ursell_edges: int = 20

    @classmethod
    def from_env(cls) -> "OracleBudget":
        """The caps, with each set ``LLCOUNT_MAX_*`` variable in place of its
        default; one that is not a positive integer raises SpecParseError."""
        kwargs = {}
        for field_name in ("events", "variables", "dense_dim",
                           "polymer_model_vertices", "ursell_edges"):
            name = _ENV_PREFIX + field_name.upper()
            raw = os.environ.get(name)
            if raw is not None:
                try:
                    value = _integer(raw)
                except ValueError:
                    value = 0
                if value < 1:
                    raise SpecParseError(
                        f"{name} must be a positive integer, got {raw!r}")
                kwargs["max_" + field_name] = value
        return cls(**kwargs)


_DEFAULT_BUDGET = OracleBudget()


def brute_force_polymer_z(g: DependencyGraph, weights, *,
                          budget: OracleBudget | None = None) -> complex:
    """Exact polymer-model partition function by enumerating admissible sets.

    Admissible sets of connected, pairwise disjoint and non-adjacent polymers
    are in bijection with vertex subsets (a subset's polymers are the
    components of its induced subgraph), so the sum runs over all 2^|G|
    subsets.  ``weights`` is a callable on sorted vertex tuples, or anything
    with a ``weight`` method.
    """
    budget = budget or _DEFAULT_BUDGET
    n = g.vertex_count
    if n > budget.max_polymer_model_vertices:
        raise ResourceCapExceeded(
            f"{n} vertices exceeds polymer-model cap "
            f"{budget.max_polymer_model_vertices}")
    weight_fn = weights.weight if hasattr(weights, "weight") else weights
    reals = []
    imags = []
    for mask in range(1 << n):
        vertices = [v for v in range(n) if mask >> v & 1]
        term = complex(1.0)
        for comp in induced_components(g, vertices):
            w = weight_fn(comp)
            term *= complex(float(w)) if isinstance(w, Fraction) else complex(w)
        reals.append(term.real)
        imags.append(term.imag)
    return complex(math.fsum(reals), math.fsum(imags))


# ---------------------------------------------------------------------------
# Classical (CNF / events)

def _popcount_u64(a: np.ndarray) -> np.ndarray:
    a = a - ((a >> np.uint64(1)) & np.uint64(0x5555555555555555))
    a = (a & np.uint64(0x3333333333333333)) + ((a >> np.uint64(2)) & np.uint64(0x3333333333333333))
    a = (a + (a >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return (a * np.uint64(0x0101010101010101)) >> np.uint64(56)


def exact_inclusion_exclusion_probability(source, vertices: Sequence[int] | None = None,
                                          *, budget: OracleBudget | None = None):
    """Exact sum over subsets S of (-1)^|S| Pr[all events in S fail].

    For a CnfFormula the result is an exact Fraction (the arithmetic is
    dyadic); for an EventTableOracle or a callable prob(subset) it is a float.
    """
    budget = budget or _DEFAULT_BUDGET
    if isinstance(source, CnfFormula):
        u = tuple(range(len(source.clauses))) if vertices is None else tuple(vertices)
        _check_events(len(u), budget)
        if source.variable_count + len(u) <= 52 and source.variable_count <= 60:
            return _ie_cnf_dyadic(source, u)
        return _ie_cnf_fraction(source, u)
    if isinstance(source, EventTableOracle):
        graph = source.graph
        u = tuple(graph.vertices()) if vertices is None else tuple(vertices)
        _check_events(len(u), budget)

        def prob(subset: Sequence[int]) -> float:
            total = 1.0
            for comp in induced_components(graph, subset):
                total *= source.joint_complement_probability(comp)
            return total

        return _ie_generic(prob, u)
    if callable(source):
        if vertices is None:
            raise ValueError("vertices required for a callable source")
        u = tuple(vertices)
        _check_events(len(u), budget)
        return _ie_generic(source, u)
    raise TypeError("source must be a CnfFormula, EventTableOracle or callable")


def _check_events(count: int, budget: OracleBudget) -> None:
    if count > budget.max_events:
        raise ResourceCapExceeded(
            f"inclusion-exclusion over {count} events exceeds cap "
            f"{budget.max_events}")


def _ie_generic(prob: Callable[[tuple[int, ...]], float], u: tuple[int, ...]) -> float:
    terms = []
    for mask in range(1 << len(u)):
        subset = tuple(u[i] for i in range(len(u)) if mask >> i & 1)
        p = prob(subset) if subset else 1.0
        terms.append(-p if mask.bit_count() % 2 else p)
    return math.fsum(terms)


def _ie_cnf_dyadic(f: CnfFormula, u: tuple[int, ...]) -> Fraction:
    # Subset DP by highest clause bit: slice [2^h, 2^{h+1}) extends slice
    # [0, 2^h) with clause h.  All quantities are dyadic with exponents that
    # fit a double, so the float arithmetic below is exact.
    k = len(u)
    size = 1 << k
    forcings = [clause_forcing(f.clauses[i]) for i in u]
    mask = np.zeros(size, dtype=np.uint64)
    pattern = np.zeros(size, dtype=np.uint64)
    ok = np.ones(size, dtype=bool)
    parity = np.zeros(size, dtype=bool)
    for h in range(k):
        lo = 1 << h
        cm = np.uint64(forcings[h][0])
        cp = np.uint64(forcings[h][1])
        base_m = mask[:lo]
        base_p = pattern[:lo]
        conflict = ((base_m & cm) & (base_p ^ cp)) != 0
        mask[lo:2 * lo] = base_m | cm
        pattern[lo:2 * lo] = base_p | cp
        ok[lo:2 * lo] = ok[:lo] & ~conflict
        parity[lo:2 * lo] = ~parity[:lo]
    var_count = _popcount_u64(mask).astype(np.int64)
    values = np.ldexp(1.0, -var_count)
    values[~ok] = 0.0
    values[parity] = -values[parity]
    return Fraction(float(values.sum()))


def _ie_cnf_fraction(f: CnfFormula, u: tuple[int, ...]) -> Fraction:
    # Exact arbitrary-precision path: accumulate integer numerators over the
    # common denominator 2^n, pruning subtrees whose prefix is inconsistent
    # (every superset then contributes a zero term).
    n = f.variable_count
    k = len(u)
    forcings = [clause_forcing(f.clauses[i]) for i in u]
    total = 0
    stack = [(0, 0, 0, False)]  # (next clause, mask, pattern, parity)
    while stack:
        i, mask, pattern, parity = stack.pop()
        if i == k:
            term = 1 << (n - mask.bit_count())
            total += -term if parity else term
            continue
        cm, cp = forcings[i]
        stack.append((i + 1, mask, pattern, parity))
        if not ((mask & cm) & (pattern ^ cp)):
            stack.append((i + 1, mask | cm, pattern | cp, not parity))
    return Fraction(total, 1 << n)


def brute_force_sat_count(f: CnfFormula, *, budget: OracleBudget | None = None) -> int:
    """Exact satisfying-assignment count by exhaustive enumeration."""
    budget = budget or _DEFAULT_BUDGET
    n = f.variable_count
    if n > budget.max_variables:
        raise ResourceCapExceeded(
            f"{n} variables exceeds exhaustive-count cap {budget.max_variables}")
    forcings = [clause_forcing(c) for c in f.clauses]
    total = 0
    chunk = 1 << 20
    for start in range(0, 1 << n, chunk):
        stop = min(start + chunk, 1 << n)
        assignments = np.arange(start, stop, dtype=np.uint64)
        sat = np.ones(stop - start, dtype=bool)
        for cm, cp in forcings:
            falsified = (assignments & np.uint64(cm)) == np.uint64(cp)
            sat &= ~falsified
        total += int(sat.sum())
    return total


# ---------------------------------------------------------------------------
# Quantum

def _digit_index(indices: np.ndarray, qudits: Sequence[int], n: int, d: int) -> np.ndarray:
    # Row-major: qudit 0 is the most significant digit of a basis index.
    out = np.zeros_like(indices)
    for q in qudits:
        digit = (indices // d ** (n - 1 - q)) % d
        out = out * d + digit
    return out


def _embed_full(matrix: np.ndarray, support: Sequence[int], n: int, d: int) -> np.ndarray:
    """Embed a local operator into the full register via explicit basis-index
    arithmetic (independent of the engine's tensor-transpose embedding)."""
    support = tuple(support)
    s = len(support)
    rest = [q for q in range(n) if q not in set(support)]
    dim = d ** n
    idx = np.arange(dim)
    sigma = _digit_index(idx, support, n, d) * d ** (n - s) \
        + _digit_index(idx, rest, n, d)
    kron = np.kron(np.asarray(matrix, dtype=np.complex128), np.eye(d ** (n - s)))
    return kron[np.ix_(sigma, sigma)]


def _all_diagonal(ps: ProjectorSet) -> bool:
    for p in ps.projectors:
        m = np.asarray(p.matrix)
        if m.size and float(np.max(np.abs(m - np.diag(np.diag(m))))) > 1e-14:
            return False
    return True


@dataclass(frozen=True)
class ExactDimension:
    normalized_dim: float
    lambda_star: float
    absolute_dim: float


def exact_dimension_full_diagonalization(ps: ProjectorSet, *,
                                         budget: OracleBudget | None = None) -> ExactDimension:
    """Exact normalized kernel-intersection dimension and spectral gap of the
    projector sum, by dense full-space diagonalization (diagonal families use
    an exact diagonal path)."""
    budget = budget or _DEFAULT_BUDGET
    n = ps.qudit_count
    dim = ps.d ** n
    if dim > budget.max_dense_dim:
        raise ResourceCapExceeded(
            f"full-space dimension {dim} exceeds cap {budget.max_dense_dim}")
    if not ps.projectors:
        return ExactDimension(1.0, 0.0, float(dim))
    if _all_diagonal(ps):
        total = np.zeros(dim)
        idx = np.arange(dim)
        for p in ps.projectors:
            local = _digit_index(idx, p.support, n, ps.d)
            total += np.real(np.diag(np.asarray(p.matrix)))[local]
        eig = np.sort(total)
    else:
        acc = np.zeros((dim, dim), dtype=np.complex128)
        for p in ps.projectors:
            acc += _embed_full(p.matrix, p.support, n, ps.d)
        eig = np.linalg.eigvalsh(acc)
    cut = 1e-9 * max(1.0, float(eig[-1]))
    null_count = int(np.sum(eig < cut))
    nonzero = eig[eig > cut]
    lam = float(nonzero[0]) if nonzero.size else 0.0
    return ExactDimension(null_count / dim, lam, float(null_count))


def exact_detectability_trace(ps: ProjectorSet, coloring: Coloring, t: int, *,
                              budget: OracleBudget | None = None) -> float:
    """Exact normalized trace of the t-th power of the ordered product of
    complement projectors, color class by color class."""
    budget = budget or _DEFAULT_BUDGET
    n = ps.qudit_count
    dim = ps.d ** n
    if dim > budget.max_dense_dim:
        raise ResourceCapExceeded(
            f"full-space dimension {dim} exceeds cap {budget.max_dense_dim}")
    if t < 1:
        raise ValueError("t must be a positive integer")
    eye = np.eye(dim, dtype=np.complex128)
    pi_star = eye.copy()
    for color_class in coloring.classes():
        for v in sorted(color_class):
            p = ps.projectors[v]
            pi_star = pi_star @ (eye - _embed_full(p.matrix, p.support, n, ps.d))
    powered = np.linalg.matrix_power(pi_star, t)
    tr = complex(np.trace(powered))
    return tr.real / dim


# ---------------------------------------------------------------------------
# Ursell

def ursell_bruteforce(h: DependencyGraph, *, budget: OracleBudget | None = None) -> Fraction:
    """Literal Ursell definition: iterate all edge subsets, keep the spanning
    connected ones, sum signs, divide by |H|!.  Returns 0 for disconnected H."""
    budget = budget or _DEFAULT_BUDGET
    edges = list(h.edges())
    if len(edges) > budget.max_ursell_edges:
        raise ResourceCapExceeded(
            f"{len(edges)} edges exceeds Ursell brute-force cap "
            f"{budget.max_ursell_edges}")
    n = h.vertex_count
    if n == 0:
        raise ValueError("Ursell function needs at least one vertex")
    total = 0
    for mask in range(1 << len(edges)):
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        bits = 0
        mm = mask
        while mm:
            e = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            bits += 1
            u, v = edges[e]
            parent[find(u)] = find(v)
        roots = {find(v) for v in range(n)}
        if len(roots) == 1:
            total += -1 if bits % 2 else 1
    return Fraction(total, math.factorial(n))
