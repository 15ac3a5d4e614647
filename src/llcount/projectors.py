"""Projector algebra on qudit supports: validation, normalized traces of
ordered products, kernel-intersection dimensions and the spectral gap.

Normalization convention: every dimension, rank and trace is relative to
d^(size of the relevant support), so the full space has normalized dimension 1
and values computed on a local support equal the full-space normalized
values.  Absolute dimensions are recovered by multiplying by d^qudit_count at
the reporting layer.

Embedding convention: qudit indices ascending, row-major composite indexing
(the first qudit of a support is the most significant digit).

Each projector is diagonalized once: read off its diagonal when every nonzero
entry lies on it, by ``eigh`` otherwise.  Its image factor W = V sqrt(lambda),
over the eigenpairs above ``EIG_TOL``, satisfies W W^dagger = P up to those
dropped eigenpairs, and all algebra on a union support U of dimension
D = d^|U| runs on the embedded factors (D x K, K = sum_i r_i d^(|U| - |s_i|))
instead of D x D embedded projectors: the kernel of a sum is read from the
K x K Gram matrix, and a product trace from chained K_a x K_b blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import NumericFailure, ResourceCapExceeded
from .graphs import support_dependency_graph

EIG_TOL = 1e-9
IMAG_TOL = 1e-8
DEFAULT_DENSE_CAP = 2 ** 14


@dataclass(frozen=True, eq=False)
class LocalProjector:
    """Hermitian idempotent matrix acting on the listed qudits.

    ``matrix`` has side d^len(support) with row-major composite indexing over
    the support, which lists its qudits in strictly ascending order.  It is
    diagonalized once, on first use (normally by validation), and must not be
    modified afterwards.
    """

    support: tuple[int, ...]
    matrix: np.ndarray

    @cached_property
    def diagonal(self) -> np.ndarray | None:
        """The diagonal of ``matrix`` when every nonzero entry lies on it
        (NaN counts as nonzero), else None."""
        m = np.asarray(self.matrix, dtype=np.complex128)
        diag = np.diagonal(m)
        return diag if np.count_nonzero(m) == np.count_nonzero(diag) else None

    @cached_property
    def _eigen(self) -> tuple[np.ndarray, np.ndarray]:
        diag = self.diagonal
        if diag is None:
            eig, vec = np.linalg.eigh(
                np.asarray(self.matrix, dtype=np.complex128))
            keep = eig > EIG_TOL
            return eig, vec[:, keep] * np.sqrt(eig[keep])
        # eigh of a diagonal matrix: its real diagonal (eigh reads no
        # imaginary part there) ascending, with unit eigenvectors
        order = np.argsort(diag.real, kind="stable")
        eig = diag.real[order]
        keep = eig > EIG_TOL
        w = np.zeros((eig.size, int(np.count_nonzero(keep))),
                     dtype=np.complex128)
        w[order[keep], np.arange(w.shape[1])] = np.sqrt(eig[keep])
        return eig, w

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of ``matrix``, ascending."""
        return self._eigen[0]

    @property
    def image_factor(self) -> np.ndarray:
        """W with W W^dagger = ``matrix`` (Hermitian, as validation checks)
        less its eigenpairs at or below EIG_TOL; one column per kept
        eigenpair."""
        return self._eigen[1]


class ProjectorSet:
    """A family of local projectors on a shared qudit register."""

    def __init__(self, d: int, qudit_count: int,
                 projectors: Sequence[LocalProjector],
                 dense_cap: int = DEFAULT_DENSE_CAP):
        if d < 2:
            raise ValueError("local dimension d must be at least 2")
        if qudit_count < 0:
            raise ValueError("qudit_count must be non-negative")
        self.d = d
        self.qudit_count = qudit_count
        self.dense_cap = dense_cap
        cleaned = []
        for i, p in enumerate(projectors):
            # The matrix's digit order is the support's order, so the support
            # cannot be sorted here without permuting the matrix.
            support = tuple(p.support)
            if any(a >= b for a, b in zip(support, support[1:])):
                raise ValueError(
                    f"projector {i}: support {support} is not strictly "
                    "ascending")
            if support and not (0 <= support[0] and support[-1] < qudit_count):
                raise ValueError(f"projector {i}: support out of range")
            mat = np.asarray(p.matrix, dtype=np.complex128)
            side = d ** len(support)
            if mat.shape != (side, side):
                raise ValueError(
                    f"projector {i}: matrix shape {mat.shape} does not match "
                    f"d^|support| = {side}")
            # Keep the caller's object when nothing changed, so a
            # diagonalization it already holds carries over.
            if support == p.support and mat is p.matrix:
                cleaned.append(p)
            else:
                cleaned.append(LocalProjector(support, mat))
        self.projectors: tuple[LocalProjector, ...] = tuple(cleaned)

    def __len__(self) -> int:
        return len(self.projectors)


@dataclass(frozen=True)
class ProjectorDiagnostics:
    hermiticity_deviation: float
    idempotency_deviation: float
    spectrum_deviation: float
    passed: bool


def validate_projector(p: LocalProjector, tol: float = 1e-8) -> ProjectorDiagnostics:
    """Check Hermiticity, idempotency and a {0,1} spectrum within tol.

    The spectrum is read only from a Hermitian matrix: otherwise, NaN
    hermiticity included, its deviation is reported as inf."""
    m = np.asarray(p.matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"projector matrix must be square, got shape {m.shape}")
    if not m.size:
        return ProjectorDiagnostics(0.0, 0.0, 0.0, True)
    diag = p.diagonal
    # huge or non-finite entries give non-finite deviations, which fail
    with np.errstate(over="ignore", invalid="ignore"):
        if diag is None:
            herm = float(np.max(np.abs(m - m.conj().T)))
            idem = float(np.max(np.abs(m @ m - m)))
        else:
            herm = float(np.max(np.abs(diag - diag.conj())))
            idem = float(np.max(np.abs(diag * diag - diag)))
    if herm <= tol:
        eig = p.eigenvalues
        spectrum = float(np.max(np.minimum(np.abs(eig), np.abs(eig - 1.0))))
    else:
        spectrum = float("inf")
    passed = herm <= tol and idem <= tol and spectrum <= tol
    return ProjectorDiagnostics(herm, idem, spectrum, passed)


def _digit_order(support: tuple[int, ...], target: tuple[int, ...]) -> list[int]:
    """Axis permutation taking [support digits..., extra digits...] to the
    target's ascending qudit order."""
    pos_in_support = {q: i for i, q in enumerate(support)}
    perm = []
    next_extra = len(support)
    for q in target:
        if q in pos_in_support:
            perm.append(pos_in_support[q])
        else:
            perm.append(next_extra)
            next_extra += 1
    return perm


def embed_operator(matrix: np.ndarray, support: Sequence[int],
                   target: Sequence[int], d: int) -> np.ndarray:
    """Embed an operator on ``support`` into the register ``target`` by
    tensoring with identity, respecting the ascending row-major convention."""
    support = tuple(support)
    target = tuple(target)
    if not set(support) <= set(target):
        raise ValueError("support must be contained in the target register")
    extra = len(target) - len(support)
    if extra == 0 and support == target:
        return np.asarray(matrix, dtype=np.complex128)
    big = np.kron(np.asarray(matrix, dtype=np.complex128), np.eye(d ** extra))
    # axes of big: [support digits..., extra digits...] for rows and columns;
    # permute so digits follow the target's ascending qudit order.
    perm = _digit_order(support, target)
    u = len(target)
    tensor = big.reshape([d] * (2 * u))
    tensor = tensor.transpose(perm + [u + a for a in perm])
    return np.ascontiguousarray(tensor.reshape(d ** u, d ** u))


def _embed_factor(p: LocalProjector, target: tuple[int, ...], d: int) -> np.ndarray:
    """The image factor of ``p`` tensored with identity on ``target``:
    rows are target indices, columns (kept eigenpair, extra digits)."""
    w = p.image_factor
    extra = len(target) - len(p.support)
    if extra == 0:
        return w
    big = np.kron(w, np.eye(d ** extra))
    u = len(target)
    tensor = big.reshape([d] * u + [big.shape[1]])
    tensor = tensor.transpose(_digit_order(p.support, target) + [u])
    return tensor.reshape(d ** u, big.shape[1])


def _union_support(ps: ProjectorSet, indices: Iterable[int]) -> tuple[int, ...]:
    out: set[int] = set()
    for i in indices:
        out.update(ps.projectors[i].support)
    return tuple(sorted(out))


def _check_cap(ps: ProjectorSet, support: Sequence[int]) -> None:
    dim = ps.d ** len(support)
    if dim > ps.dense_cap:
        raise ResourceCapExceeded(
            f"dense dimension d^{len(support)} = {dim} exceeds cap {ps.dense_cap}")


def _sum_spectrum(ps: ProjectorSet, indices: Sequence[int],
                  union: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """Spectrum of the sum of the listed projectors on ``union``, as
    (ascending eigenvalues of the Gram matrix, count of further zeros).

    With M the stacked D x K embedded image factors, the sum is M M^dagger,
    whose spectrum is that of the K x K matrix M^dagger M plus D - K
    structural zeros; when K >= D the D x D matrix M M^dagger is used."""
    m = np.hstack([_embed_factor(ps.projectors[i], union, ps.d)
                   for i in indices])
    dim, k = m.shape
    if k < dim:
        return np.linalg.eigvalsh(m.conj().T @ m), dim - k
    return np.linalg.eigvalsh(m @ m.conj().T), 0


def normalized_product_trace(ps: ProjectorSet, indices: Sequence[int], *,
                             imag_tol: float = IMAG_TOL) -> float:
    """tr of the ordered product of the listed projectors over d^|support union|.

    Factors are taken in the given order (repeats allowed).  With P_a =
    W_a W_a^dagger embedded on the union, the trace is that of the cyclic
    chain of blocks W_a^dagger W_b.  The imaginary part must be below
    tolerance; for commuting families it vanishes identically.
    """
    if not indices:
        raise ValueError("product of an empty index list")
    union = _union_support(ps, indices)
    _check_cap(ps, union)
    factors = {i: _embed_factor(ps.projectors[i], union, ps.d)
               for i in set(indices)}
    blocks: dict[tuple[int, int], np.ndarray] = {}
    acc = None
    for a, b in zip(indices, tuple(indices[1:]) + (indices[0],)):
        block = blocks.get((a, b))
        if block is None:
            block = blocks[(a, b)] = factors[a].conj().T @ factors[b]
        acc = block if acc is None else acc @ block
    tr = complex(np.trace(acc))
    norm = ps.d ** len(union)
    if abs(tr.imag) > imag_tol * max(1.0, abs(tr)):
        raise NumericFailure(
            f"product trace has imaginary residue {tr.imag:.3e}")
    return tr.real / norm


def rank_normalized(p: LocalProjector, d: int) -> float:
    """Eigenvalue count >= 1/2, over d^|support|."""
    rank = int(np.sum(p.eigenvalues >= 0.5))
    return rank / (d ** len(p.support))


def kernel_intersection_dim(ps: ProjectorSet, indices: Iterable[int], *,
                            tol: float = EIG_TOL) -> float:
    """Normalized dimension of the intersection of the listed kernels.

    Computed as the null-space dimension of the sum of the projectors on the
    joint support; the empty set gives the full space, i.e. 1.
    """
    indices = tuple(indices)
    if not indices:
        return 1.0
    union = _union_support(ps, indices)
    _check_cap(ps, union)
    eig, zeros = _sum_spectrum(ps, indices, union)
    cut = tol * max(1.0, float(eig[-1])) if eig.size else tol
    null_dim = zeros + int(np.sum(eig < cut))
    return null_dim / ps.d ** len(union)


def spectral_gap(ps: ProjectorSet, *, tol: float = EIG_TOL) -> float:
    """Smallest nonzero eigenvalue of the sum of all projectors (0 if the sum
    vanishes).  Qudits outside every support only repeat eigenvalues, so the
    sum is taken on the union of the supports; the cap still bounds the
    full-space dimension."""
    n = ps.qudit_count
    dim = ps.d ** n
    if dim > ps.dense_cap:
        raise ResourceCapExceeded(
            f"full-space dimension {dim} exceeds cap {ps.dense_cap}; "
            "supply a certified lower bound for the gap instead")
    if not ps.projectors:
        return 0.0
    indices = range(len(ps.projectors))
    eig, _ = _sum_spectrum(ps, indices, _union_support(ps, indices))
    cut = tol * max(1.0, float(eig[-1])) if eig.size else tol
    nonzero = eig[eig > cut]
    return float(nonzero[0]) if nonzero.size else 0.0


def pair_commutes(ps: ProjectorSet, i: int, j: int, tol: float = 1e-8) -> bool:
    """Check the commutator of two projectors on their joint support.

    With C = P_i P_j = W_i (W_i^dagger W_j) W_j^dagger, the commutator is
    C - C^dagger."""
    union = _union_support(ps, (i, j))
    _check_cap(ps, union)
    if (ps.projectors[i].diagonal is not None
            and ps.projectors[j].diagonal is not None):
        return True  # diagonal matrices commute; C is then real diagonal
    a = _embed_factor(ps.projectors[i], union, ps.d)
    b = _embed_factor(ps.projectors[j], union, ps.d)
    c = (a @ (a.conj().T @ b)) @ b.conj().T
    return float(np.max(np.abs(c - c.conj().T))) <= tol


@dataclass(frozen=True)
class CommutationReport:
    pairs_checked: int
    failures: tuple[tuple[int, int], ...]

    @property
    def commuting(self) -> bool:
        return not self.failures


def verify_commuting(ps: ProjectorSet, tol: float = 1e-8) -> CommutationReport:
    """Check all overlapping pairs; disjoint supports commute trivially."""
    g = support_dependency_graph(ps)
    failures = []
    checked = 0
    for u, v in g.edges():
        checked += 1
        if not pair_commutes(ps, u, v, tol):
            failures.append((u, v))
    return CommutationReport(checked, tuple(failures))
