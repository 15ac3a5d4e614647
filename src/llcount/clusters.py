"""Abstract polymer models on a host graph and the truncated cluster expansion.

Polymers are connected induced subgraphs of a host ``DependencyGraph``,
identified by their sorted vertex tuple.  Two polymers are compatible exactly
when their vertex sets are disjoint and no host edge joins them.  A cluster is
an ordered tuple of polymers whose incompatibility graph is connected; the
expansion sums, over clusters of bounded total size, the product of polymer
weights times the Ursell function of the incompatibility graph.

Clusters are stored as sorted multisets together with the number of distinct
orderings, which is the multiplicity of the multiset among ordered tuples.
"""

from __future__ import annotations

import math
import os
import time
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import HypothesisViolation, NumericFailure, ResourceCapExceeded
from .graphs import (DependencyGraph, ball_sets, connected_masks,
                     enumerate_connected_subgraphs, induced_masks, keyed_ball,
                     mask_bits)

Polymer = tuple[int, ...]

# Ursell values beyond this order would need ~3^m subset-sieve work per
# distinct incompatibility pattern; refuse rather than stall.
DEFAULT_MAX_ORDER = 14


def incompatible(a: Polymer, b: Polymer, g: DependencyGraph) -> bool:
    """True iff the polymers share a vertex or a host edge joins them.

    Every polymer is incompatible with itself (its vertex set meets itself).
    """
    sa = frozenset(a)
    if sa.intersection(b):
        return True
    for v in b:
        if not sa.isdisjoint(g.neighbors(v)):
            return True
    return False


class WeightOracle:
    """Maps a polymer to a complex weight; pure in the vertex set.

    Evaluations are memoized by polymer tuple, so the oracle is safe for
    concurrent use (pure function plus an idempotent cache).

    ``labels``, when given, maps the host graph to the labels of its
    vertices and edges that ``graphs.keyed_ball`` reads, under this
    contract: if two roots' balls have equal keys (the same adjacency masks,
    and position by position the same vertex labels and the same labels on
    their edges), then every set of positions weighs the same on both, in
    value and in type.  The engine then reuses one root's part of the
    expansion for every later root with the same key.  Without labels every
    root's part is computed.
    """

    def __init__(self, fn: Callable[[Polymer], complex],
                 labels: Callable[[DependencyGraph], tuple] | None = None):
        self._fn = fn
        self._memo: dict[Polymer, complex] = {}
        self.labels = labels

    def weight(self, polymer: Polymer):
        w = self._memo.get(polymer)
        if w is None:
            w = self._fn(polymer)
            self._memo[polymer] = w
        return w


class Cluster(NamedTuple):
    """A sorted multiset of polymers with connected incompatibility graph."""

    polymers: tuple[Polymer, ...]
    total_size: int
    orderings: int
    incompatibility_masks: tuple[int, ...]


# ---------------------------------------------------------------------------
# Ursell function

_URSELL_MEMO: dict[tuple[int, ...], Fraction] = {}


def _connected_masks(masks: Sequence[int]) -> bool:
    t = len(masks)
    seen = 1
    stack = [0]
    while stack:
        v = stack.pop()
        row = masks[v] & ~seen
        while row:
            low = row & -row
            seen |= low
            stack.append(low.bit_length() - 1)
            row ^= low
    return seen == (1 << t) - 1


def _ursell_from_masks(masks: tuple[int, ...]) -> Fraction:
    t = len(masks)
    if t == 1:
        return Fraction(1)
    full = (1 << t) - 1
    if all(masks[v] == full ^ (1 << v) for v in range(t)):
        # complete graph: matches the log(1+x) series coefficient
        return Fraction((-1) ** (t - 1), t)
    cached = _URSELL_MEMO.get(masks)
    if cached is not None:
        return cached
    # Subset sieve: q[W] = 1 iff W induces no edge; c[W] = signed count of
    # spanning connected edge sets on W, via peeling the component of the
    # lowest vertex.  Runs in O(3^t).
    size = 1 << t
    q = [0] * size
    c = [0] * size
    q[0] = 1
    for w in range(1, size):
        low = w & -w
        v = low.bit_length() - 1
        rest = w ^ low
        q[w] = q[rest] if (masks[v] & rest) == 0 else 0
        if rest == 0:
            c[w] = 1
            continue
        acc = 0
        sub = rest
        while True:
            w1 = sub | low
            if w1 != w:
                acc += c[w1] * q[w ^ w1]
            if sub == 0:
                break
            sub = (sub - 1) & rest
        c[w] = q[w] - acc
    result = Fraction(c[full], math.factorial(t))
    _URSELL_MEMO[masks] = result
    return result


def ursell(h: DependencyGraph) -> Fraction:
    """Exact Ursell function of a connected graph.

    phi(H) = (1/|H|!) * sum over spanning connected edge sets S of (-1)^|S|.
    Disconnected input is rejected (phi would be 0; treat as a caller bug).
    """
    if h.vertex_count < 1:
        raise ValueError("Ursell function needs at least one vertex")
    masks = tuple(sum(1 << w for w in h.neighbors(v)) for v in h.vertices())
    if not _connected_masks(masks):
        raise ValueError("Ursell function of a disconnected graph")
    return _ursell_from_masks(masks)


# ---------------------------------------------------------------------------
# Cluster enumeration

class _ShapeTable:
    """Prepared cluster tables of union shapes, shared by every call in the
    process.

    A shape is keyed by the local adjacency bitmasks of a sorted union and by
    the truncation order m.  Its entry holds one getter per local polymer and
    the shape's clusters as (polymers getter, total_size, orderings,
    incompatibility_masks, used), where ``used`` is the mask of the local
    polymers the cluster holds.  Like ``_URSELL_MEMO`` this is combinatorics
    that no input's weights change, so a report does not depend on what the
    table holds.

    ``size`` counts the cluster entries held.  The table is trimmed only
    between calls: each engine call, and each ``enumerate_clusters`` call
    over a whole graph, starts with ``trim``, which empties it if ``size``
    passed ``cap``.  So a call builds each of its shapes once, and the table
    holds at most ``cap`` entries plus one call's shapes.
    """

    def __init__(self, cap: int):
        self.cap = cap
        self.shapes: dict[tuple[tuple[int, ...], int], tuple] = {}
        self.size = 0

    def clear(self) -> None:
        self.shapes.clear()
        self.size = 0

    def trim(self) -> None:
        """Empty the table if it holds more than ``cap`` entries."""
        if self.size > self.cap:
            self.clear()

    def shape(self, key: tuple[int, ...], m: int) -> tuple:
        """The prepared entry of shape ``key`` at order ``m``."""
        shape = self.shapes.get((key, m))
        if shape is None:
            local_polymers, local_clusters = _shape_clusters(key, m)
            shape = self.shapes[key, m] = (
                [_tuple_getter(p) for p in local_polymers],
                [(_tuple_getter(indices), *rest, sum({1 << i for i in indices}))
                 for indices, *rest in local_clusters])
            self.size += len(local_clusters)
        return shape


# About 350 bytes per cluster entry, so a full table is some 45 MB.
SHAPE_TABLE_CAP = 1 << 17
_SHAPE_TABLE = _ShapeTable(SHAPE_TABLE_CAP)


def enumerate_clusters(g: DependencyGraph, m: int,
                       weight: Callable[[Polymer], object] | None = None, *,
                       unions: Iterable[Polymer] | None = None,
                       counted: list[int] | None = None) -> Iterator[Cluster]:
    """Yield every cluster of total size <= m exactly once, deterministically.

    A cluster's polymers all lie inside the (connected) union of its vertex
    sets, so enumeration anchors each cluster at that union: for every
    connected set U of at most m vertices, emit the polymer multisets inside U
    that cover U and have a connected incompatibility graph.

    Those clusters depend only on the induced subgraph G[U].  Each distinct
    shape, keyed by the local adjacency bitmasks of the sorted U, is
    enumerated once into the process-wide ``_SHAPE_TABLE``; every union of
    that shape relabels the shape's clusters through the order-preserving
    map i -> U[i], which keeps the emission order of a per-union
    enumeration.  A call over the whole graph first trims the table to
    ``SHAPE_TABLE_CAP`` cluster entries (see ``_ShapeTable``).

    With ``weight`` (polymer -> weight), the clusters holding a polymer whose
    weight is exactly 0 are skipped: their term in the expansion is 0.  The
    others keep their order.  ``weight`` is called on every local polymer of
    a union before any of the union's clusters is yielded.  ``unions`` is a
    sorted list of connected sets of at most m vertices, all of them or
    some, when the caller has it already; the table is then not trimmed.
    When given, ``counted[0]`` grows by the number of clusters of each
    union, the skipped ones included.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    new = tuple.__new__  # skips NamedTuple's Python-level __new__
    table = _SHAPE_TABLE
    if unions is None:
        table.trim()
        unions = sorted(enumerate_connected_subgraphs(g, m))
    for union in unions:
        relabel, local_clusters = table.shape(tuple(induced_masks(g, union)), m)
        polymers = tuple([get(union) for get in relabel])
        if counted is not None:
            counted[0] += len(local_clusters)
        dead = 0
        if weight is not None:
            for i, p in enumerate(polymers):
                if weight(p) == 0:
                    dead |= 1 << i
        for get, total_size, orderings, masks, used in local_clusters:
            if not used & dead:
                yield new(Cluster, (get(polymers), total_size, orderings,
                                    masks))


def _tuple_getter(indices: Sequence[int]) -> itemgetter:
    """An itemgetter returning the tuple of a tuple's items at ``indices``."""
    if len(indices) == 1:
        # a one-item itemgetter returns the item itself; a slice keeps a tuple
        return itemgetter(slice(indices[0], indices[0] + 1))
    return itemgetter(*indices)


def _shape_clusters(key: tuple[int, ...], m: int
                    ) -> tuple[list[Polymer], list[tuple]]:
    """Clusters covering the whole graph with adjacency bitmasks ``key``, with
    each polymer given by its index in the returned polymer list.

    Emits what ``_clusters_with_union`` emits on that graph, in its order, on
    bitmasks: a polymer is a vertex mask with its closed-neighbourhood mask,
    so two polymers are incompatible iff one's vertex mask meets the other's
    closed neighbourhood.  The polymer list holds the polymers that occur, in
    order of first occurrence.
    """
    k = len(key)
    full = (1 << k) - 1
    # every connected subset, in the order of the sorted vertex tuples
    tuples = sorted(tuple(mask_bits(s)) for root in range(k)
                    for s in connected_masks(key, k, root))
    vertex_masks = [sum(1 << v for v in p) for p in tuples]
    closed = []
    for reach, p in zip(vertex_masks, tuples):
        for v in p:
            reach |= key[v]
        closed.append(reach)
    sizes = [len(p) for p in tuples]
    count = len(tuples)
    index: dict[int, int] = {}
    clusters = []
    chosen: list[int] = []

    def finish() -> None:
        t = len(chosen)
        masks = [0] * t
        for a in range(t):
            reach = closed[chosen[a]]
            for b in range(a + 1, t):
                if vertex_masks[chosen[b]] & reach:
                    masks[a] |= 1 << b
                    masks[b] |= 1 << a
        if not _connected_masks(masks):
            return
        # chosen is sorted, so equal polymers form runs
        orderings = math.factorial(t)
        for _, run in groupby(chosen):
            orderings //= math.factorial(len(list(run)))
        clusters.append((
            tuple([index.setdefault(i, len(index)) for i in chosen]),
            sum([sizes[i] for i in chosen]), orderings, tuple(masks)))

    def rec(start: int, covered: int, total: int) -> None:
        if covered == full:
            finish()
        for i in range(start, count):
            new_total = total + sizes[i]
            if new_total > m:
                continue
            new_covered = covered | vertex_masks[i]
            if new_total + k - new_covered.bit_count() > m:
                continue
            chosen.append(i)
            rec(i, new_covered, new_total)
            chosen.pop()

    rec(0, 0, 0)
    return [tuples[i] for i in index], clusters


def _polymers_inside(g: DependencyGraph, union: Polymer) -> list[Polymer]:
    # Connected subsets of the induced subgraph G[U]; connectivity of a subset
    # of U is the same in G[U] as in G, so enumerate on the induced graph.
    local_index = {v: i for i, v in enumerate(union)}
    induced = DependencyGraph(
        len(union),
        [[local_index[w] for w in g.neighbors(v) if w in local_index] for v in union])
    out = [tuple(union[i] for i in p)
           for p in enumerate_connected_subgraphs(induced, len(union))]
    out.sort()
    return out


def _clusters_with_union(g: DependencyGraph, union: Polymer, m: int) -> Iterator[Cluster]:
    uset = set(union)
    polymers = _polymers_inside(g, union)
    sizes = [len(p) for p in polymers]
    need = len(union)
    chosen: list[int] = []

    def rec(start: int, covered: set[int], total: int) -> Iterator[Cluster]:
        if covered == uset:
            cluster = _finish_cluster(g, polymers, chosen)
            if cluster is not None:
                yield cluster
        for i in range(start, len(polymers)):
            size = sizes[i]
            new_total = total + size
            if new_total > m:
                continue
            new_covered = covered | set(polymers[i])
            if new_total + (need - len(new_covered)) > m:
                continue
            chosen.append(i)
            yield from rec(i, new_covered, new_total)
            chosen.pop()

    yield from rec(0, set(), 0)


def _finish_cluster(g: DependencyGraph, polymers: list[Polymer],
                    chosen: list[int]) -> Cluster | None:
    t = len(chosen)
    masks = [0] * t
    for i in range(t):
        pi = polymers[chosen[i]]
        for j in range(i + 1, t):
            pj = polymers[chosen[j]]
            if chosen[i] == chosen[j] or incompatible(pi, pj, g):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    if not _connected_masks(masks):
        return None
    counts: dict[int, int] = {}
    for i in chosen:
        counts[i] = counts.get(i, 0) + 1
    orderings = math.factorial(t)
    for k in counts.values():
        orderings //= math.factorial(k)
    tuple_polymers = tuple(polymers[i] for i in chosen)
    return Cluster(tuple_polymers, sum(len(p) for p in tuple_polymers),
                   orderings, tuple(masks))


# ---------------------------------------------------------------------------
# Truncated expansion and the approximation pipeline

_NONFINITE = "nonfinite truncated expansion value"


class _Memo(dict):
    """A dict that fills a missing key with ``fn(key)``."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _sum_clusters(clusters: Iterable[Cluster], oracle: WeightOracle, *,
                  exact: bool = False):
    """Sum coefficient times weight product over the clusters.

    Streams the clusters.  Each distinct polymer weight is converted once, and
    so is each distinct Ursell coefficient, keyed by incompatibility masks
    and orderings.  Every term is exact and enters one exact sum (``_fold``),
    which is rounded once (``_rounded``), so the value does not depend on the
    order of the clusters.
    """
    weights, coeffs = _converters(oracle)
    return _rounded(_fold(_term_triples(clusters, weights, coeffs)), exact)


def _converters(oracle: WeightOracle) -> tuple[_Memo, _Memo]:
    """Memos of each polymer's weight as a (real numerator, imaginary
    numerator, denominator) triple and of each (masks, orderings) key's
    coefficient as a (numerator, denominator) pair."""
    return _Memo(lambda p: _triple(oracle.weight(p))), _Memo(_coefficient)


def _coefficient(key: tuple[tuple[int, ...], int]) -> tuple[int, int]:
    masks, orderings = key
    u = _ursell_from_masks(masks) * orderings
    return u.numerator, u.denominator


def _triple(w) -> tuple[int, int, int]:
    """A weight as the exact (real numerator, imaginary numerator,
    denominator) triple it is; a float is a dyadic rational.  A nonfinite
    weight raises ``NumericFailure``."""
    try:
        if isinstance(w, complex):
            re, re_den = w.real.as_integer_ratio()
            im, im_den = w.imag.as_integer_ratio()
            den = max(re_den, im_den)  # both are powers of two
            return re * (den // re_den), im * (den // im_den), den
        w = Fraction(w)
    except (OverflowError, ValueError):  # an infinite or NaN part
        raise NumericFailure(_NONFINITE) from None
    return w.numerator, 0, w.denominator


def _term_triples(clusters: Iterable[Cluster], weights, coeffs
                  ) -> Iterator[tuple[int, int, int]]:
    """Each cluster's exact term as a (real numerator, imaginary numerator,
    denominator) triple: the product of its coefficient's pair and its
    weights' triples, with ``weights`` and ``coeffs`` mapping polymers and
    (masks, orderings) to them."""
    for polymers, _, orderings, masks in clusters:
        re, den = coeffs[masks, orderings]
        im = 0
        for p in polymers:
            wre, wim, wden = weights[p]
            if wim:
                re, im = re * wre - im * wim, re * wim + im * wre
            else:
                re *= wre
                im *= wre
            den *= wden
        yield re, im, den


def _fold(triples: Iterable[tuple[int, int, int]]) -> tuple[int, int, int]:
    """The exact sum of (real numerator, imaginary numerator, denominator)
    triples, as one such triple over the lcm of their denominators."""
    re = im = 0
    common = 1
    for num_re, num_im, den in triples:
        scale, rest = divmod(common, den)
        if rest:
            lift = den // math.gcd(common, den)
            re *= lift
            im *= lift
            common *= lift
            scale = common // den
        re += num_re * scale
        im += num_im * scale
    return re, im, common


def _rounded(total: tuple[int, int, int], exact: bool) -> Fraction | complex:
    """A folded sum as a ``Fraction`` when ``exact``, else as the nearest
    complex; CPython rounds int / int correctly.  A sum beyond float range
    raises ``NumericFailure``; an exact sum that is not real, ``TypeError``."""
    re, im, den = total
    if exact:
        if im:
            raise TypeError("exact truncated expansion is not real")
        return Fraction(re, den)
    try:
        return complex(re / den, im / den)
    except OverflowError:
        raise NumericFailure(_NONFINITE) from None


def _converted_weights(oracle: WeightOracle, polymers: Sequence[Polymer],
                       threads: int) -> dict[Polymer, complex]:
    """Each polymer's weight as a complex, evaluated on up to ``threads``
    threads."""
    # pool.map submits every polymer at once, so the pool would start up to
    # min(threads, len(polymers)) threads without the cpu_count cap.
    workers = min(threads, os.cpu_count() or 1, len(polymers))
    if workers > 1:
        # concurrent.futures loads logging; a single-threaded call needs
        # neither
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(oracle.weight, polymers))
    weight = oracle.weight
    return {p: complex(weight(p)) for p in polymers}


class _RootPart:
    """What the expansion holds of the connected sets rooted at one vertex.

    ``roots`` is the number of roots that have the part.  ``polymers`` are
    the sorted sets of order <= m whose smallest vertex is the part's first
    root; the part's clusters are those whose union is one of them.
    """

    __slots__ = ("roots", "polymers")

    def __init__(self, polymers: list[Polymer]):
        self.roots = 0
        self.polymers = polymers


class _Roots:
    """One call's truncated expansion and decay check, split by root.

    A root's part (see ``_RootPart``) lies in the root's ball (see
    ``graphs.keyed_ball``), built once per root with its adjacency masks
    and, under an oracle's ``labels``, its key: every polymer of a cluster
    lies in the cluster's union.  So the part depends only on m, the ball's
    adjacency masks and the weights of the sets of ball positions.  Under
    the ``labels`` contract, a root whose key an earlier root of the call
    had reuses that root's part, and nothing of it is enumerated, weighed or
    summed again; without labels every root's part is its own.  Each
    distinct part is summed once, exactly (``_fold``), from one
    ``enumerate_clusters`` call over its sets; the expansion adds that sum
    times the part's number of roots, exactly, and rounds once.  So the sum
    does not depend on the order of the parts, on how many roots share one,
    or on what the shape table held.
    """

    def __init__(self, g: DependencyGraph, oracle: WeightOracle, m: int,
                 threads: int):
        if m < 1:
            raise ValueError("m must be a positive integer")
        self.g, self.oracle, self.m, self.threads = g, oracle, m, threads
        labels = None if oracle.labels is None else oracle.labels(g)
        # per root, ascending: its part; the parts in order of their first
        # root, which computes it
        self.roots, self.parts, polymers, seen = [], [], [], {}
        for root in g.vertices():
            ball, masks, key = keyed_ball(g, root, m, labels)
            if key is None:
                key = root
            part = seen.get(key)
            if part is None:
                part = seen[key] = _RootPart(sorted(ball_sets(ball, masks, m)))
                polymers += part.polymers  # sorted: each set starts at its root
                self.parts.append(part)
            part.roots += 1
            self.roots.append(part)
        self.weights = _converted_weights(oracle, polymers, threads)

    def report(self, delta: float) -> WeightConditionReport:
        """The weight-decay check of every polymer of order <= m, as a scan
        of all polymers in sorted order gives it, at the graph's maximum
        degree.

        One scan covers the computed roots' sets.  It finds the maxima and
        the worst polymers of all sets: a reusing root's values equal, not
        exceed, those of its part's first root, and a NaN stays the worst.
        When a part that several roots share has a violation, every root's
        sets are scanned, so the violations are listed root by root.
        """
        dmax = self.g.max_degree()
        report = _scan(self.weights, delta, dmax, self.m)
        if any(self.roots[p[0]].roots > 1 for p, _, _ in report.violations):
            everything = sorted(enumerate_connected_subgraphs(self.g, self.m))
            weights = _converted_weights(self.oracle, everything, self.threads)
            report = _scan(weights, delta, dmax, self.m)
        return report

    def expansion(self, exact: bool = False) -> tuple[Fraction | complex, int]:
        """The truncated expansion to order m and its number of clusters,
        skipped ones included."""
        g, m = self.g, self.m
        _SHAPE_TABLE.trim()
        weights, coeffs = _converters(self.oracle)
        shares = []
        count = 0
        for part in self.parts:
            counted = [0]
            clusters = enumerate_clusters(g, m, self.oracle.weight,
                                          unions=part.polymers,
                                          counted=counted)
            re, im, den = _fold(_term_triples(clusters, weights, coeffs))
            shares.append((re * part.roots, im * part.roots, den))
            count += counted[0] * part.roots
        return _rounded(_fold(shares), exact), count


def truncated_expansion(g: DependencyGraph, oracle: WeightOracle, m: int, *,
                        threads: int = 1, exact: bool = False):
    """Truncated cluster expansion of log Z to total cluster size m.

    Every term is exact, a float weight being the dyadic rational it is.
    Returns the exact sum rounded once to the nearest complex, or, when
    ``exact`` is set, as a Fraction (the sum must then be real).  So the
    value is bit-identical for any thread count and any reuse of root parts.
    """
    return _Roots(g, oracle, m, threads).expansion(exact)[0]


def weight_decay_threshold(delta: float, max_degree: int) -> float:
    """Per-size weight bound eta = 1 / (e^(1+delta) * (2*max_degree + 1)).

    Where e^(1+delta) leaves float range (delta above about 708.8) the bound
    is computed as e^-(1+delta) / (2*max_degree + 1), which underflows
    toward 0 instead of overflowing."""
    try:
        return 1.0 / (math.exp(1.0 + delta) * (2 * max_degree + 1))
    except OverflowError:
        return math.exp(-1.0 - delta) / (2 * max_degree + 1)


def certified_delta(eta: float, max_degree: int) -> float:
    """Largest delta whose decay threshold is still >= eta (may be <= 0)."""
    if eta <= 0.0:
        return math.inf
    return math.log(1.0 / (eta * (2 * max_degree + 1))) - 1.0


# Cap on the decay rate that ``holder_delta`` (and ``check``'s suggestion)
# may report.
DELTA_CEILING = 50.0


def holder_delta(worst: float, exponent_classes: int, max_degree: int,
                 delta: float, hypothesis_ok: bool) -> float:
    """Largest decay rate certified by a per-vertex bound ``worst`` through
    the coloring (Hoelder) weight bound; falls back to the requested delta.

    Hoelder across the coloring classes gives |w| <= worst^(|polymer|/classes),
    so the decay base worst^(1/classes) certifies a (usually larger) delta
    than requested.
    """
    if not hypothesis_ok:
        return delta
    if worst <= 0.0:
        return max(delta, DELTA_CEILING)
    eta = worst ** (1.0 / exponent_classes)
    return max(delta, min(certified_delta(eta, max_degree), DELTA_CEILING))


def convergence_bound(graph_order: int, max_degree: int, delta: float, m: int) -> float:
    """Certified tail bound on |T_m - log Z| under the decay condition."""
    c = (max_degree + 1) / (2 * max_degree + 1)
    return c * graph_order * math.exp(-delta * m)


def choose_truncation_order(graph_order: int, max_degree: int, delta: float,
                            epsilon: float) -> int:
    """Smallest m whose tail bound is at most log(1+epsilon).

    Exponentiating then gives |Z_hat / Z - 1| <= epsilon.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    target = math.log1p(epsilon)
    if graph_order == 0:
        return 1
    c = (max_degree + 1) / (2 * max_degree + 1)
    m = max(1, math.ceil(math.log(c * graph_order / target) / delta))
    while m > 1 and convergence_bound(graph_order, max_degree, delta, m - 1) <= target:
        m -= 1
    while convergence_bound(graph_order, max_degree, delta, m) > target:
        m += 1
    return m


def capped_truncation_order(graph_order: int, max_degree: int, delta: float,
                            epsilon: float) -> int:
    """``choose_truncation_order``, refusing m > ``DEFAULT_MAX_ORDER``."""
    m = choose_truncation_order(graph_order, max_degree, delta, epsilon)
    if m > DEFAULT_MAX_ORDER:
        raise ResourceCapExceeded(
            f"truncation order {m} exceeds cap {DEFAULT_MAX_ORDER}; "
            "increase delta or epsilon")
    return m


class ConditionCheck(NamedTuple):
    """One hypothesis check; margin >= 0 iff the check passed."""

    name: str
    passed: bool
    margin: float
    detail: str


class Problem(NamedTuple):
    """A polymer model, its hypothesis checks, their certified delta, chi."""

    graph: DependencyGraph
    oracle: WeightOracle
    checks: list[ConditionCheck]
    delta_used: float
    chi: int


def require(checks: Sequence[ConditionCheck], force: bool) -> None:
    """Unless ``force``, raise on the first failed check, attaching them all."""
    failed = [c for c in checks if not c.passed]
    if failed and not force:
        raise HypothesisViolation(
            f"{failed[0].name} fails: {failed[0].detail}", checks)


class WeightConditionReport(NamedTuple):
    """Observed per-size weight decay against the required threshold."""

    delta: float
    max_degree: int
    threshold: float
    verified_up_to: int
    max_abs_root_by_size: dict[int, float]
    worst_polymer_by_size: dict[int, Polymer]
    violations: list[tuple[Polymer, float, float]]

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_check(self) -> ConditionCheck:
        roots = self.max_abs_root_by_size.values()
        observed = (math.nan if any(map(math.isnan, roots))
                    else max(roots, default=0.0))
        detail = (f"max |w|^(1/|polymer|) = {observed:.6g} vs eta = "
                  f"{self.threshold:.6g}, sizes <= {self.verified_up_to}"
                  " (sizes beyond the truncation order are assumed)")
        return ConditionCheck("weight-decay", self.passed,
                              self.threshold - observed, detail)


def check_weight_condition(g: DependencyGraph, oracle: WeightOracle, m: int,
                           delta: float, *,
                           threads: int = 1) -> WeightConditionReport:
    """Verify |w_gamma| <= eta^|gamma| for every polymer of size <= m, by
    the engine's check (``_Roots.report``), eta at the maximum degree of
    ``g``.  The condition over all sizes cannot be checked exhaustively;
    callers assert it through application-level hypotheses."""
    return _Roots(g, oracle, m, threads).report(delta)


def _scan(weights: dict[Polymer, complex], delta: float, max_degree: int,
          m: int) -> WeightConditionReport:
    """The weight-decay check of ``weights``, polymers in sorted order mapped
    to their complex weights."""
    eta = weight_decay_threshold(delta, max_degree)
    max_root: dict[int, float] = {}
    worst: dict[int, Polymer] = {}
    violations: list[tuple[Polymer, float, float]] = []
    for p, w in weights.items():
        size = len(p)
        aw = abs(w)
        root = aw ** (1.0 / size)
        best = max_root.get(size, -1.0)
        # a NaN root, once seen, stays the worst of its size
        if not math.isnan(best) and (root > best or math.isnan(root)):
            max_root[size] = root
            worst[size] = p
        allowed = eta ** size
        if not aw <= allowed * (1.0 + 1e-9):
            violations.append((p, aw, allowed))
    return WeightConditionReport(delta, max_degree, eta, m, max_root, worst,
                                 violations)


class ApproxResult(NamedTuple):
    """Approximate value with its certified error provenance."""

    value: complex
    log_value: complex
    truncation_order: int
    additive_log_error_bound: float
    epsilon: float
    delta: float
    graph_order: int
    max_degree: int
    condition_report: WeightConditionReport | None
    checks: Sequence[ConditionCheck] = ()
    forced: bool = False
    cluster_count: int = 0
    elapsed: float = 0.0
    exact_log: Fraction | None = None

    @property
    def value_lower_bound(self) -> float:
        """Certified lower bound on |Z|; positive, hence Z != 0."""
        return abs(self.value) * math.exp(-self.additive_log_error_bound)

    def real_value(self) -> float:
        mag = max(1.0, abs(self.value))
        if abs(self.value.imag) > 1e-8 * mag:
            raise NumericFailure(
                f"imaginary residue {self.value.imag:.3e} exceeds tolerance")
        return self.value.real


def approx_partition_function(g: DependencyGraph, oracle: WeightOracle,
                              epsilon: float, delta: float, *,
                              force: bool = False, threads: int = 1,
                              exact: bool = False,
                              extra_checks: Sequence[ConditionCheck] = ()) -> ApproxResult:
    """Multiplicative epsilon-approximation of the polymer partition function.

    The guarantee is conditional on the problem's hypotheses ``extra_checks``
    and on the weight-decay bound holding at every polymer size; sizes up to
    the truncation order are verified.  A failed hypothesis aborts before the
    truncation order is chosen, and a decay violation aborts after it, unless
    ``force`` is set; a forced run that fails any check is marked ``forced``.
    The decay threshold, the truncation order and the error bound all use
    the maximum degree of ``g``, which the certificate needs.
    """
    start = time.perf_counter()
    require(extra_checks, force)
    dmax = g.max_degree()
    m = capped_truncation_order(g.vertex_count, dmax, delta, epsilon)
    roots = _Roots(g, oracle, m, threads)
    report = roots.report(delta)
    checks = list(extra_checks) + [report.as_check()]
    if report.violations and not force:
        p, aw, allowed = report.violations[0]
        raise HypothesisViolation(
            f"weight-decay condition fails at polymer {p}: "
            f"|w| = {aw:.6g} > {allowed:.6g}", checks)
    total, cluster_count = roots.expansion(exact)
    exact_log = total if exact else None
    try:
        log_value = complex(float(total)) if exact else total
    except OverflowError:
        raise NumericFailure(_NONFINITE) from None
    value = _cexp(log_value)
    bound = convergence_bound(g.vertex_count, dmax, delta, m)
    return ApproxResult(
        value=value, log_value=log_value, truncation_order=m,
        additive_log_error_bound=bound, epsilon=epsilon, delta=delta,
        graph_order=g.vertex_count, max_degree=dmax,
        condition_report=report, checks=checks,
        forced=not all(c.passed for c in checks), cluster_count=cluster_count,
        elapsed=time.perf_counter() - start, exact_log=exact_log)


def _cexp(z: complex) -> complex:
    try:
        r = math.exp(z.real)
    except OverflowError:
        raise NumericFailure(
            f"exp of the truncated log value {z.real:.6g} leaves float "
            "range") from None
    return complex(r * math.cos(z.imag), r * math.sin(z.imag))
