"""The projector algebra on image factors against a dense reference.

The reference embeds every projector on the union support with
``embed_operator`` and works on D x D matrices; it is itself checked against
the full-space diagonalization oracle.  The image factors drop eigenpairs at
or below EIG_TOL, which moves every eigenvalue, trace and commutator entry by
at most the sum of the dropped eigenvalues' magnitudes (Weyl's inequality and
the operator-norm bound on traces).  Where the dense quantity lies within
that margin of a cut or tolerance, either answer is right and the comparison
is skipped.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llcount.errors import NumericFailure
from llcount.oracles import exact_dimension_full_diagonalization
from llcount.projectors import (EIG_TOL, IMAG_TOL, LocalProjector,
                                ProjectorSet, embed_operator,
                                kernel_intersection_dim,
                                normalized_product_trace, pair_commutes,
                                rank_normalized, spectral_gap,
                                validate_projector)

# Spectral norm of the perturbation: inside the 1e-8 validation tolerance.
PERTURBATION = 0.9e-8
ROUNDING = 1e-11
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def _projector(npr, side, rank, diagonal):
    if diagonal:
        m = np.zeros((side, side), dtype=complex)
        idx = npr.choice(side, rank, replace=False)
        m[idx, idx] = 1.0
        return m
    q, _ = np.linalg.qr(npr.normal(size=(side, side))
                        + 1j * npr.normal(size=(side, side)))
    return q[:, :rank] @ q[:, :rank].conj().T


def _perturb(npr, m):
    side = m.shape[0]
    h = npr.normal(size=(side, side)) + 1j * npr.normal(size=(side, side))
    h = (h + h.conj().T) / 2.0
    return m + PERTURBATION * h / np.linalg.norm(h, 2)


def _dropped(m):
    """Spectral norm of what the image factor leaves out of ``m``."""
    eig = np.linalg.eigvalsh(m)
    small = np.abs(eig[eig <= EIG_TOL])
    return float(small.max()) if small.size else 0.0


@st.composite
def families(draw):
    """(ProjectorSet, dropped norm per projector): d in {2, 3}, ranks from 0
    to full, overlapping or disjoint supports, diagonal or dense bases, and
    sometimes one projector perturbed just inside the validation tolerance."""
    d = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 4 if d == 2 else 3))
    npr = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    perturbed = draw(st.booleans())
    projectors, dropped = [], []
    for k in range(draw(st.integers(1, 3))):
        support = tuple(sorted(draw(st.sets(
            st.integers(0, n - 1), min_size=1, max_size=min(n, 5 - d)))))
        side = d ** len(support)
        m = _projector(npr, side, draw(st.integers(0, side)),
                       draw(st.booleans()))
        if perturbed and k == 0:
            m = _perturb(npr, m)
        p = LocalProjector(support, m)
        assert validate_projector(p).passed
        projectors.append(p)
        dropped.append(_dropped(m))
    return ProjectorSet(d, n, projectors), dropped


def _union(ps, indices):
    return tuple(sorted({q for i in indices for q in ps.projectors[i].support}))


def _dense(ps, i, union):
    p = ps.projectors[i]
    return embed_operator(p.matrix, p.support, union, ps.d)


def _dense_spectrum(ps, indices, union):
    return np.linalg.eigvalsh(sum(_dense(ps, i, union) for i in indices))


def _near(values, edge, margin):
    return bool(np.any(np.abs(np.asarray(values) - edge) <= margin))


@SETTINGS
@given(families(), st.data())
def test_kernel_dim_matches_dense(family, data):
    ps, dropped = family
    indices = tuple(data.draw(st.lists(st.sampled_from(range(len(ps))),
                                       min_size=1, unique=True)))
    union = _union(ps, indices)
    eig = _dense_spectrum(ps, indices, union)
    margin = sum(dropped[i] for i in indices) + ROUNDING
    cut = EIG_TOL * max(1.0, float(eig[-1]))
    if not _near(eig, cut, 2 * margin):
        want = int(np.sum(eig < cut)) / ps.d ** len(union)
        assert kernel_intersection_dim(ps, indices) == want


@SETTINGS
@given(families(), st.data())
def test_product_trace_matches_dense(family, data):
    ps, dropped = family
    order = data.draw(st.lists(st.sampled_from(range(len(ps))),
                               min_size=1, max_size=4))
    union = _union(ps, order)
    acc = np.eye(ps.d ** len(union), dtype=complex)
    for i in order:
        acc = acc @ _dense(ps, i, union)
    tr = complex(np.trace(acc))
    dim = ps.d ** len(union)
    margin = 1.01 * sum(dropped[i] for i in order) + ROUNDING
    threshold = IMAG_TOL * max(1.0, abs(tr))
    if abs(tr.imag) > threshold + 2 * dim * margin:
        with pytest.raises(NumericFailure):
            normalized_product_trace(ps, order)
    elif abs(tr.imag) < threshold - 2 * dim * margin:
        got = normalized_product_trace(ps, order)
        assert abs(got - tr.real / dim) <= margin


@SETTINGS
@given(families(), st.data())
def test_pair_commutes_matches_dense(family, data):
    ps, dropped = family
    if len(ps) < 2:
        return
    i, j = data.draw(st.sampled_from(list(itertools.combinations(
        range(len(ps)), 2))))
    union = _union(ps, (i, j))
    a, b = _dense(ps, i, union), _dense(ps, j, union)
    worst = float(np.max(np.abs(a @ b - b @ a)))
    if _near(worst, 1e-8, 2.1 * (dropped[i] + dropped[j]) + ROUNDING):
        return
    assert pair_commutes(ps, i, j) == (worst <= 1e-8)


@SETTINGS
@given(families())
def test_gap_and_dimension_match_dense_and_oracle(family):
    ps, dropped = family
    everything = tuple(range(len(ps)))
    full = tuple(range(ps.qudit_count))
    eig = _dense_spectrum(ps, everything, full)
    cut = EIG_TOL * max(1.0, float(eig[-1]))
    margin = sum(dropped) + ROUNDING
    if _near(eig, cut, 2 * margin):
        return
    nonzero = eig[eig > cut]
    dense_gap = float(nonzero[0]) if nonzero.size else 0.0
    dense_dim = int(np.sum(eig < cut)) / ps.d ** ps.qudit_count
    exact = exact_dimension_full_diagonalization(ps)
    assert exact.normalized_dim == dense_dim
    assert exact.lambda_star == pytest.approx(dense_gap, abs=ROUNDING)
    assert kernel_intersection_dim(ps, everything) == dense_dim
    assert abs(spectral_gap(ps) - dense_gap) <= margin


@pytest.mark.parametrize("d,ranks,supports", [
    (2, (1, 1), ((0, 1), (1, 2))),      # K = 4 < D = 8
    (2, (2, 2), ((0, 1), (1, 2))),      # K = 8 = D
    (2, (3, 4), ((0, 1), (1, 2))),      # K = 14 > D, full rank included
    (3, (9,), ((0, 1),)),               # one full-rank projector, K = D
    (3, (0, 2), ((0,), (0, 1))),        # a rank-0 projector
])
def test_gram_side_switch_matches_dense(d, ranks, supports):
    npr = np.random.default_rng(5)
    n = 1 + max(q for s in supports for q in s)
    ps = ProjectorSet(d, n, [
        LocalProjector(s, _projector(npr, d ** len(s), r, False))
        for s, r in zip(supports, ranks)])
    indices = tuple(range(len(ps)))
    union = _union(ps, indices)
    eig = _dense_spectrum(ps, indices, union)
    cut = EIG_TOL * max(1.0, float(eig[-1]))
    want = int(np.sum(eig < cut)) / d ** len(union)
    assert kernel_intersection_dim(ps, indices) == want
    nonzero = eig[eig > cut]
    assert spectral_gap(ps) == pytest.approx(
        float(nonzero[0]) if nonzero.size else 0.0, abs=1e-12)


@st.composite
def diagonal_matrices(draw):
    """Diagonal matrices with real, complex or non-finite diagonals; the
    values favour 0 and 1, as projector diagonals do."""
    side = draw(st.sampled_from((1, 2, 4, 8)))
    kind = draw(st.sampled_from(("real", "complex", "non-finite")))
    values = st.one_of(st.sampled_from((0.0, 1.0, -0.0)),
                       st.floats(-2.0, 2.0))
    re = np.array(draw(st.lists(values, min_size=side, max_size=side)))
    im = np.zeros(side)
    if kind != "real":
        im = np.array(draw(st.lists(values, min_size=side, max_size=side)))
    if kind == "non-finite":
        part = draw(st.sampled_from((re, im)))
        part[draw(st.integers(0, side - 1))] = draw(
            st.sampled_from((np.inf, -np.inf, np.nan)))
    z = np.empty(side, dtype=complex)
    z.real, z.imag = re, im
    return np.diag(z)


def _same_deviation(fast, dense):
    """Equal up to rounding; non-finite on both sides counts as equal."""
    if not (np.isfinite(fast) and np.isfinite(dense)):
        return not (np.isfinite(fast) or np.isfinite(dense))
    return abs(fast - dense) <= ROUNDING * max(1.0, abs(dense))


@SETTINGS
@given(diagonal_matrices())
def test_diagonal_fast_path_matches_eigh(m):
    p = LocalProjector((0,), m)
    assert p.diagonal is not None
    with np.errstate(over="ignore", invalid="ignore"):
        herm = float(np.max(np.abs(m - m.conj().T)))
        idem = float(np.max(np.abs(m @ m - m)))
    diag = validate_projector(p)
    assert _same_deviation(diag.hermiticity_deviation, herm)
    assert _same_deviation(diag.idempotency_deviation, idem)
    if not np.all(np.isfinite(m)):
        assert not diag.passed and diag.spectrum_deviation == np.inf
        return
    # Bit for bit, the exact spectrum of a diagonal matrix as eigh reads it:
    # its real diagonal, stably sorted.  eigh itself may miss it by an ulp
    # where LAPACK rescales a matrix of tiny or huge entries (2.7e-151).
    exact = np.sort(np.diag(m).real, kind="stable")
    assert p.eigenvalues.tobytes() == exact.tobytes()
    root = np.sqrt(np.where(np.diag(m).real > EIG_TOL, np.diag(m).real, 0.0))
    assert np.array_equal(p.image_factor @ p.image_factor.conj().T,
                          np.diag(root * root))
    eig = np.linalg.eigh(m)[0]
    if herm <= 1e-8:
        spectrum = float(np.max(np.minimum(np.abs(eig), np.abs(eig - 1.0))))
    else:
        spectrum = np.inf
    assert _same_deviation(diag.spectrum_deviation, spectrum)
    assert diag.passed == (herm <= 1e-8 and idem <= 1e-8 and spectrum <= 1e-8)


def test_diagonal_projectors_skip_eigh_and_commute(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a diagonal projector was diagonalized")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    p = LocalProjector((0, 1), np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex))
    q = LocalProjector((1, 2), np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    assert validate_projector(p).passed and validate_projector(q).passed
    assert list(p.eigenvalues) == [0.0, 0.0, 1.0, 1.0]
    assert pair_commutes(ProjectorSet(2, 3, [p, q]), 0, 1)
    monkeypatch.undo()
    plus = LocalProjector((1,), np.array([[0.5, 0.5], [0.5, 0.5]],
                                         dtype=complex))
    assert plus.diagonal is None
    assert not pair_commutes(ProjectorSet(2, 3, [p, q, plus]), 0, 2)


def _exact_diagnostics(m, tol=1e-8):
    """Hermiticity, idempotency and spectrum deviations from the full D x D
    product and ``eigh`` (``eigvalsh`` may round differently), and the
    decision they give."""
    herm = float(np.max(np.abs(m - m.conj().T)))
    idem = float(np.max(np.abs(m @ m - m)))
    eig = np.linalg.eigh(m)[0]
    spectrum = float(np.max(np.minimum(np.abs(eig), np.abs(eig - 1.0))))
    return herm, idem, spectrum, max(herm, idem, spectrum) <= tol


@st.composite
def thin_projectors(draw):
    """Dense Hermitian projectors of side 2-256 and rank 1..side/2, exact,
    perturbed inside the validation tolerance, or perturbed past it."""
    side = draw(st.integers(2, 256))
    rank = draw(st.integers(1, side // 2))
    npr = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = _projector(npr, side, rank, False)
    scale = draw(st.sampled_from((0.0, 1.0, 10.0, 1e4)))
    if scale:
        h = npr.normal(size=(side, side)) + 1j * npr.normal(size=(side, side))
        h = (h + h.conj().T) / 2.0
        m = m + scale * PERTURBATION * h / np.linalg.norm(h, 2)
    return m


@settings(max_examples=80, deadline=None, derandomize=True)
@given(thin_projectors())
def test_thin_validation_is_the_exact_decision(m):
    herm, idem, spectrum, passed = _exact_diagnostics(m)
    p = LocalProjector((0,), m)
    diag = validate_projector(p)
    assert diag.passed == passed
    assert diag.hermiticity_deviation == herm
    assert diag.idempotency_deviation >= idem
    assert diag.spectrum_deviation >= spectrum
    if diag.passed:
        assert diag.worst_deviation <= 1e-8
    side = m.shape[0]
    eig = np.linalg.eigh(m)[0]
    assert rank_normalized(p, side) == np.sum(eig >= 0.5) / side
    # the thin factor is used while rho <= EIG_TOL, eigh's otherwise (and
    # where a perturbation past the tolerance leaves no thin factorization)
    f = p.factorization
    rho = f.residual if f is not None and f.residual <= EIG_TOL else 0.0
    # Weyl: the Ritz values padded with zeros lie within rho of eigh's
    assert p.eigenvalues.shape == (side,)
    assert np.max(np.abs(p.eigenvalues - eig)) <= rho + ROUNDING
    w = p.image_factor
    gap = np.linalg.norm(w @ w.conj().T - m, 2)
    assert gap <= rho + _dropped(m) + ROUNDING


def test_bound_above_tol_falls_back_to_the_exact_values(monkeypatch):
    """P + eps (I - P) with 2 eps under EIG_TOL: the Schur complement after
    the first pivot has diagonal at most 2 eps, so the pivoted Cholesky stops
    at rank 1, but the residual over the 511-dimensional kernel, eps sqrt(511),
    gives bounds above the tolerance; the exact values decide, and pass."""
    npr = np.random.default_rng(3)
    side, eps = 512, 0.49e-9
    proj = _projector(npr, side, 1, False)
    m = proj + eps * (np.eye(side) - proj)
    full = []
    original = np.linalg.eigh

    def counting(a, *args, **kwargs):
        if np.asarray(a).shape == (side, side):
            full.append(a)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    p = LocalProjector((0,), m)
    f = p.factorization
    assert f.ritz.size == 1
    assert f.residual > 1e-8
    diag = validate_projector(p)
    assert len(full) == 1   # the spectrum's fallback
    # rho > EIG_TOL: the image factor comes from the same eigh
    assert p.image_factor.shape == (side, 1) and len(full) == 1
    monkeypatch.undo()
    herm, idem, spectrum, passed = _exact_diagnostics(m)
    assert passed and diag.passed
    assert (diag.hermiticity_deviation, diag.idempotency_deviation,
            diag.spectrum_deviation) == (herm, idem, spectrum)


def test_spectrum_bound_covers_the_triangle_eigh_reads():
    """P = |0><0| + L, L = eps times the strict lower triangle of J/n: P is
    Hermitian only within eps/n, and ``eigh`` reads |0><0| + L + L^dagger,
    whose kernel eigenvalue eps (n - 2)/n exceeds ||L||_F = eps / sqrt(2)
    and so the residual; the bound must add the unread part."""
    side, eps = 64, 6e-9
    m = np.zeros((side, side), dtype=complex)
    m[0, 0] = 1.0
    m += eps * np.tril(np.ones((side, side)), -1) / side
    herm, idem, spectrum, passed = _exact_diagnostics(m)
    assert passed and spectrum > eps * 0.9
    p = LocalProjector((0,), m)
    diag = validate_projector(p)
    assert p.factorization.residual < spectrum
    assert diag.passed
    assert spectrum <= diag.spectrum_deviation <= 1e-8


def test_pivoting_gives_up_at_once_without_a_thin_factor(monkeypatch):
    """A rank above D/2 (I - |psi><psi|), or a residual diagonal above
    EIG_TOL that no rank explains (P + 2e-9 I), ends the pivoting before
    any further column; the exact values decide, and both pass."""
    npr = np.random.default_rng(5)
    side = 64
    proj = _projector(npr, side, 1, False)
    original = np.argmax
    steps = []

    def counting(a, *args, **kwargs):
        steps.append(1)
        return original(a, *args, **kwargs)

    for m, pivots in ((np.eye(side) - proj, 0),
                      (proj + 2e-9 * np.eye(side), 1)):
        p = LocalProjector((0,), m)
        steps.clear()
        monkeypatch.setattr(np, "argmax", counting)
        assert p.factorization is None
        monkeypatch.undo()
        assert len(steps) == pivots + 1
        herm, idem, spectrum, passed = _exact_diagnostics(m)
        diag = validate_projector(p)
        assert passed and diag.passed
        assert (diag.hermiticity_deviation, diag.idempotency_deviation,
                diag.spectrum_deviation) == (herm, idem, spectrum)
        eig = np.linalg.eigh(m)[0]
        assert rank_normalized(p, side) == np.sum(eig >= 0.5) / side
        assert p.image_factor.shape == (side, np.sum(eig > EIG_TOL))
