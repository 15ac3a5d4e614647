"""Projector algebra on qudit supports: validation, normalized traces of
ordered products, kernel-intersection dimensions and the spectral gap.

Normalization convention: every dimension, rank and trace is relative to
d^(size of the relevant support), so the full space has normalized dimension 1
and values computed on a local support equal the full-space normalized
values.  Absolute dimensions are recovered by multiplying by d^qudit_count at
the reporting layer.

Embedding convention: qudit indices ascending, row-major composite indexing
(the first qudit of a support is the most significant digit).

Each projector is factored once.  A projector whose nonzero entries all lie
on its diagonal is read off that diagonal.  Any other one of side D and rank
r gets a thin factorization in O(D^2 r): a pivoted Cholesky (largest
residual diagonal first, until it is at most ``EIG_TOL``) whose k columns are
orthonormalized to Q, then Rayleigh-Ritz on the k x k compression
M = Q^dagger P Q.  The Frobenius norm rho of the residual P - Q M Q^dagger
bounds, by Weyl's inequality, how far each eigenvalue of P lies from a Ritz
value or a padded zero.  Validation reads certified deviations from the Ritz
values and rho; the eigenvalues and the image factor W = (Q U) sqrt(mu), over
the Ritz pairs (mu, U) above ``EIG_TOL``, come from the same factorization.
``eigh`` on the D x D matrix runs only as the exact fallback: when rho
exceeds ``EIG_TOL`` (an indefinite or unvalidated matrix), when the pivoting
shows the matrix is no thin projector (its residual trace, the rank still to
be found, exceeds D/2 less the columns taken, or is gone while a residual
diagonal stays above ``EIG_TOL``), or when a validation bound exceeds its
tolerance.

All algebra on a union support U of dimension D = d^|U| runs on the embedded
factors (D x K, K = sum_i r_i d^(|U| - |s_i|)) instead of D x D embedded
projectors: the kernel of a sum is read from the K x K Gram matrix, and a
product trace from chained K_a x K_b blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import NumericFailure, ResourceCapExceeded
from .graphs import DependencyGraph, support_dependency_graph

EIG_TOL = 1e-9
IMAG_TOL = 1e-8
VALIDATION_TOL = 1e-8
COMMUTATOR_TOL = 1e-8  # largest commutator entry that counts as zero
DEFAULT_DENSE_CAP = 2 ** 14


class ThinFactor(NamedTuple):
    """Rayleigh-Ritz factorization of a matrix P of side D on the span Q of
    k pivoted Cholesky columns."""

    vectors: np.ndarray  # Q U: D x k orthonormal Ritz vectors
    ritz: np.ndarray     # mu: eigenvalues of M = Q^dagger P Q = U mu U^dagger
    residual: float      # rho >= ||P - Q M Q^dagger||_2


def _factorize(m: np.ndarray) -> ThinFactor | None:
    """The thin factorization of ``m``, or None when ``m`` has a non-finite
    entry or the pivoting shows it is no thin projector.

    On a projector each pivot removes a rank-one projector from the
    residual, whose trace is then the rank still to be found.  So pivoting
    gives up, before any further column, when that trace exceeds what D/2
    columns leave room for (a rank above D/2, say I - |psi><psi|), or is
    1/2 or less while a residual diagonal stays above EIG_TOL (errors in
    the entries that no rank explains, say P + 2e-9 I).  ``eigh`` is then
    the exact path, after O(D^2 (r + 1)) work here.

    ``residual`` is the Frobenius norm of P - Q M Q^dagger plus a rounding
    allowance of 4 D eps (1 + ||M||) for forming it and for the
    orthonormality of Q, which keeps the bounds read from it above the
    values ``eigh`` and the D x D product compute."""
    side = m.shape[0]
    if not np.isfinite(m).all():
        return None
    limit = side // 2
    resid = m.diagonal().real.copy()
    cols = np.empty((side, min(limit, 4)), dtype=np.complex128)
    k = 0
    # huge entries overflow to a non-finite residual, which gives None
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            j = int(np.argmax(resid))
            pivot = resid[j]
            if not pivot > EIG_TOL:
                break
            if not 0.5 < float(resid.sum()) <= limit - k + 0.5:
                return None
            if k == cols.shape[1]:
                cols = np.hstack([cols, np.empty(
                    (side, min(limit, 2 * k) - k), dtype=np.complex128)])
            c = m[:, j] - cols[:, :k] @ cols[j, :k].conj()
            c /= np.sqrt(pivot)
            cols[:, k] = c
            resid -= c.real ** 2 + c.imag ** 2
            resid[j] = 0.0  # exact; rounding must not pick it again
            k += 1
        q, _ = np.linalg.qr(cols[:, :k])
        mk = q.conj().T @ (m @ q)
        mk = (mk + mk.conj().T) / 2.0
        rho = float(np.linalg.norm(m - (q @ mk) @ q.conj().T))
    if not np.isfinite(rho):
        return None
    ritz, vectors = np.linalg.eigh(mk)
    norm = float(np.max(np.abs(ritz), initial=0.0))
    rho += 4.0 * side * float(np.finfo(np.float64).eps) * (1.0 + norm)
    return ThinFactor(q @ vectors, ritz, rho)


@dataclass(frozen=True, eq=False)
class LocalProjector:
    """Hermitian idempotent matrix acting on the listed qudits.

    ``matrix`` has side d^len(support) with row-major composite indexing over
    the support, which lists its qudits in strictly ascending order.  It is
    factored once, on first use (normally by validation), and must not be
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
    def factorization(self) -> ThinFactor | None:
        """The thin factorization of ``matrix``; None for a diagonal matrix,
        which is read exactly, and where ``_factorize`` gives none."""
        if self.diagonal is not None:
            return None
        return _factorize(np.asarray(self.matrix, dtype=np.complex128))

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        f = self.factorization
        if f is None or f.residual > EIG_TOL:
            return self._eigen
        zeros = np.zeros(f.vectors.shape[0] - f.ritz.size)
        keep = f.ritz > EIG_TOL
        w = f.vectors[:, keep] * np.sqrt(f.ritz[keep])
        return np.sort(np.concatenate([f.ritz, zeros])), w

    @cached_property
    def _eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """The exact spectrum and image factor: from the diagonal, else
        from ``eigh``."""
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
        """Eigenvalues of ``matrix``, ascending.

        From a thin factorization they are the Ritz values padded with
        zeros, each within the residual rho <= EIG_TOL of an exact eigenvalue
        (Weyl); from the diagonal or the ``eigh`` fallback they are exact."""
        return self._spectrum[0]

    @property
    def image_factor(self) -> np.ndarray:
        """W with W W^dagger = ``matrix`` (Hermitian, as validation checks)
        less its eigenpairs at or below EIG_TOL; one column per kept pair.

        From a thin factorization W = (Q U) sqrt(mu) over the Ritz pairs
        above EIG_TOL, so W W^dagger lies within rho plus the dropped Ritz
        values of ``matrix``; the diagonal and ``eigh`` paths drop exact
        eigenpairs."""
        return self._spectrum[1]


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
        # one ProjectorDiagnostics per projector when a parser validated them
        self.diagnostics: tuple[ProjectorDiagnostics, ...] | None = None
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


    @property
    def worst_deviation(self) -> float:
        return max(self.hermiticity_deviation, self.idempotency_deviation,
                   self.spectrum_deviation)


def _distance_to_01(eig: np.ndarray) -> float:
    return float(np.max(np.minimum(np.abs(eig), np.abs(eig - 1.0)),
                        initial=0.0))


def validate_projector(p: LocalProjector) -> ProjectorDiagnostics:
    """Check Hermiticity, idempotency and a {0,1} spectrum within tol.

    The hermiticity deviation max|P - P^dagger| is exact.  The spectrum is
    read only from a Hermitian matrix: otherwise, NaN hermiticity included,
    its deviation is reported as inf.  For a non-diagonal matrix the other
    two deviations are read from its thin factorization (Ritz values mu,
    residual rho, M = Q^dagger P Q) as certified upper bounds:

    - spectrum: the largest distance of a Ritz value (or a padded zero) from
      {0, 1}, plus rho and the Frobenius norm of the part of P that ``eigh``
      does not read (its strict upper triangle against the conjugate of the
      lower one, and the imaginary part of the diagonal), by Weyl's
      inequality;
    - idempotency: max|mu^2 - mu| + (2 ||M|| + rho + 1) rho, which bounds the
      spectral norm, and hence every entry, of P^2 - P.

    Only a bound above ``tol``, or a matrix without a thin factorization,
    costs the exact D x D quantity (``eigh``, or the product P P); so every
    accept or reject is the exact decision, and a reported deviation is at
    least the exact one and, when the projector passes, at most ``tol``.
    Validation costs O(D^2 r) for a thin projector of rank r."""
    tol = VALIDATION_TOL
    m = np.asarray(p.matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"projector matrix must be square, got shape {m.shape}")
    if not m.size:
        return ProjectorDiagnostics(0.0, 0.0, 0.0, True)
    diag = p.diagonal
    inf = float("inf")
    # huge or non-finite entries give non-finite deviations, which fail
    with np.errstate(over="ignore", invalid="ignore"):
        if diag is not None:
            herm = float(np.max(np.abs(diag - diag.conj())))
            idem = float(np.max(np.abs(diag * diag - diag)))
            spectrum = _distance_to_01(p.eigenvalues) if herm <= tol else inf
        else:
            skew = m - m.conj().T
            herm = float(np.max(np.abs(skew)))
            idem = spectrum = inf
            f = p.factorization if herm <= tol else None
            if f is not None:
                mu, rho = f.ritz, f.residual
                # eigh reads the Hermitian matrix Hl built from the lower
                # triangle of P: ||Hl - P||_F <= ||P - P^dagger||_F / sqrt(2)
                unread = float(np.linalg.norm(skew)) / 2.0 ** 0.5
                spectrum = _distance_to_01(mu) + rho + unread
                norm = float(np.max(np.abs(mu), initial=0.0))
                idem = (float(np.max(np.abs(mu * mu - mu), initial=0.0))
                        + (2.0 * norm + rho + 1.0) * rho)
            if herm <= tol and not spectrum <= tol:
                spectrum = _distance_to_01(p._eigen[0])
            if not idem <= tol:
                idem = float(np.max(np.abs(m @ m - m)))
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


def normalized_product_trace(ps: ProjectorSet, indices: Sequence[int]) -> float:
    """tr of the ordered product of the listed projectors over d^|support union|.

    Factors are taken in the given order (repeats allowed).  With P_a =
    W_a W_a^dagger embedded on the union, the trace is that of the cyclic
    chain of blocks W_a^dagger W_b.  The imaginary part must be below
    IMAG_TOL; for commuting families it vanishes identically.
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
    if abs(tr.imag) > IMAG_TOL * max(1.0, abs(tr)):
        raise NumericFailure(
            f"product trace has imaginary residue {tr.imag:.3e}")
    return tr.real / norm


def rank_normalized(p: LocalProjector, d: int) -> float:
    """Eigenvalue count >= 1/2, over d^|support|."""
    rank = int(np.sum(p.eigenvalues >= 0.5))
    return rank / (d ** len(p.support))


def kernel_intersection_dim(ps: ProjectorSet, indices: Iterable[int]) -> float:
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
    cut = EIG_TOL * max(1.0, float(eig[-1])) if eig.size else EIG_TOL
    null_dim = zeros + int(np.sum(eig < cut))
    return null_dim / ps.d ** len(union)


def spectral_gap(ps: ProjectorSet) -> float:
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
    cut = EIG_TOL * max(1.0, float(eig[-1])) if eig.size else EIG_TOL
    nonzero = eig[eig > cut]
    return float(nonzero[0]) if nonzero.size else 0.0


def pair_commutes(ps: ProjectorSet, i: int, j: int) -> bool:
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
    return float(np.max(np.abs(c - c.conj().T))) <= COMMUTATOR_TOL


@dataclass(frozen=True)
class CommutationReport:
    pairs_checked: int
    failures: tuple[tuple[int, int], ...]

    @property
    def commuting(self) -> bool:
        return not self.failures


def verify_commuting(ps: ProjectorSet, *,
                     graph: DependencyGraph | None = None) -> CommutationReport:
    """Check all overlapping pairs; disjoint supports commute trivially.

    ``graph`` is ``support_dependency_graph(ps)`` when the caller has it.
    """
    g = support_dependency_graph(ps) if graph is None else graph
    failures = []
    checked = 0
    for u, v in g.edges():
        checked += 1
        if not pair_commutes(ps, u, v):
            failures.append((u, v))
    return CommutationReport(checked, tuple(failures))
