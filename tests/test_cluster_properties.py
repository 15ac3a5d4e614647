"""Property tests of the cluster engine's fast paths against literal loops:
shape-cached cluster enumeration, the bitmask shape enumeration, the streamed
summation, the skipping of clusters that hold a zero-weight polymer, the
indexed intersection graph, the integer exact sum, the float sum rounded
once from the exact one, the engine that sums each computed root's part from
one enumeration, the process-wide shape table trimmed to its cap between
calls, and the reuse of a root's part under the CNF local key."""

import functools
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import llcount.clusters
import llcount.cnf
from llcount.cli import main
from llcount.clusters import (WeightOracle, _clusters_with_union,
                              _coefficient, _Roots, _shape_clusters,
                              _ShapeTable, _sum_clusters, _ursell_from_masks,
                              approx_partition_function,
                              check_weight_condition, enumerate_clusters,
                              truncated_expansion)
from llcount.cnf import (CnfFormula, cnf_dependency_graph, cnf_labels,
                         cnf_polymer_weight)
from llcount.errors import HypothesisViolation, NumericFailure
from llcount.formats import format_weights_spec
from llcount.graphs import (DependencyGraph, build_graph,
                            enumerate_connected_subgraphs, induced_masks,
                            intersection_graph, keyed_ball,
                            strong_product_with_complete)

from gen import chain_cnf, random_graph, random_weight_table, ring_cnf

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def multi_component_graphs(draw):
    """Up to three random components of up to six vertices each, plus up to
    two isolated vertices, with vertex ids shuffled so components interleave
    in the numbering."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    isolated = draw(st.integers(0, 2))
    n = sum(sizes) + isolated
    label = draw(st.permutations(range(n)))
    edges = []
    base = 0
    for k in sizes:
        pairs = [(base + i, base + j) for i in range(k) for j in range(i + 1, k)]
        if pairs:
            edges += draw(st.sets(st.sampled_from(pairs), max_size=8))
        base += k
    return build_graph(n, [(label[u], label[v]) for u, v in edges])


def _uncached_clusters(g, m):
    """Cluster enumeration with no shape cache: every sorted union U is
    enumerated on its own."""
    out = []
    for union in sorted(enumerate_connected_subgraphs(g, m)):
        out.extend(_clusters_with_union(g, union, m))
    return out


def _exact_parts(w):
    """A weight's real and imaginary parts as Fractions."""
    if isinstance(w, complex):
        return Fraction(w.real), Fraction(w.imag)
    return Fraction(w), Fraction(0)


def _literal_terms(clusters, weight):
    """Each cluster's term as exact (real, imaginary) Fractions: its Ursell
    coefficient times the complex product of its weights, in order."""
    for c in clusters:
        re = _ursell_from_masks(c.incompatibility_masks) * c.orderings
        im = Fraction(0)
        for p in c.polymers:
            wre, wim = _exact_parts(weight(p))
            re, im = re * wre - im * wim, re * wim + im * wre
        yield re, im


def _list_sum(clusters, oracle, exact):
    """The summation loop over a materialized cluster list, converting every
    weight and coefficient at each use: the exact Fraction sum of each
    component, as a Fraction when ``exact`` (it must then be real), else
    rounded once to the nearest complex."""
    re = im = Fraction(0)
    for term_re, term_im in _literal_terms(clusters, oracle.weight):
        re += term_re
        im += term_im
    if exact:
        assert im == 0
        return re
    return complex(float(re), float(im))


@SETTINGS
@given(multi_component_graphs(), st.integers(1, 6))
def test_shape_cached_enumeration_equals_per_union_loop(g, m):
    assert list(enumerate_clusters(g, m)) == _uncached_clusters(g, m)


@st.composite
def connected_shapes(draw):
    """Adjacency bitmasks of a connected graph on 1..7 vertices: a random
    spanning tree plus random extra edges, with shuffled vertex ids."""
    k = draw(st.integers(1, 7))
    label = draw(st.permutations(range(k)))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, k)}
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
    if pairs:
        edges |= draw(st.sets(st.sampled_from(pairs), max_size=10))
    masks = [0] * k
    for u, v in edges:
        masks[label[u]] |= 1 << label[v]
        masks[label[v]] |= 1 << label[u]
    return tuple(masks)


def _reference_shape_clusters(key, m):
    """``_shape_clusters`` through the literal per-union enumeration: clusters
    covering the whole shape, each polymer numbered by first occurrence."""
    k = len(key)
    induced = DependencyGraph(k, [[j for j in range(k) if mask >> j & 1]
                                  for mask in key])
    index = {}
    clusters = []
    for c in _clusters_with_union(induced, tuple(range(k)), m):
        clusters.append((tuple(index.setdefault(p, len(index))
                               for p in c.polymers),
                         c.total_size, c.orderings, c.incompatibility_masks))
    return list(index), clusters


@SETTINGS
@given(connected_shapes(), st.integers(0, 7))
def test_bitmask_shape_clusters_equal_per_union_loop(key, slack):
    # below m = len(key) no cluster covers the shape
    m = min(len(key) + slack, 8)
    assert _shape_clusters(key, m) == _reference_shape_clusters(key, m)


def _weights(g, m, seed, rational):
    rng = random.Random(seed)
    table = {}
    for p in enumerate_connected_subgraphs(g, m):
        if rational:
            table[p] = Fraction(rng.randint(-64, 64), 1 << rng.randint(4, 12))
        else:
            table[p] = complex(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
    return table


@SETTINGS
@given(multi_component_graphs(), st.integers(1, 5), st.integers(0, 2**32),
       st.sampled_from([(False, False), (True, False), (True, True)]))
def test_streamed_sum_equals_list_based_loop(g, m, seed, mode):
    rational, exact = mode
    table = _weights(g, m, seed, rational)
    got = truncated_expansion(g, WeightOracle(table.__getitem__), m,
                              exact=exact)
    want = _list_sum(_uncached_clusters(g, m),
                     WeightOracle(table.__getitem__), exact)
    assert type(got) is type(want)
    assert got == want


def _weights_with_zeros(g, m, seed, zeros):
    """Nonzero dyadic weights, made exactly 0 on every polymer ("all"), on
    the single vertices ("singletons"), on about a third of the polymers
    ("random") or on none ("none")."""
    rng = random.Random(seed)
    table = {}
    for p in enumerate_connected_subgraphs(g, m):
        w = Fraction(rng.choice((-1, 1)) * rng.randint(1, 64),
                     1 << rng.randint(4, 12))
        if (zeros == "all" or (zeros == "singletons" and len(p) == 1)
                or (zeros == "random" and rng.random() < 0.3)):
            w = Fraction(0)
        table[p] = w
    return table


@SETTINGS
@given(multi_component_graphs(), st.integers(1, 5), st.integers(0, 2**32),
       st.sampled_from(["none", "all", "singletons", "random"]))
def test_zero_weight_clusters_are_skipped_exactly(g, m, seed, zeros):
    table = _weights_with_zeros(g, m, seed, zeros)
    weight = table.__getitem__
    full = list(enumerate_clusters(g, m))
    counted = [0]
    assert list(enumerate_clusters(g, m, weight, counted=counted)) == [
        c for c in full if all(weight(p) != 0 for p in c.polymers)]
    assert counted[0] == len(full)

    exact = truncated_expansion(g, WeightOracle(weight), m, exact=True)
    assert exact == _sum_clusters(full, WeightOracle(weight), exact=True)
    got = truncated_expansion(g, WeightOracle(weight), m)
    assert got == _sum_clusters(full, WeightOracle(weight)) == complex(exact)


@SETTINGS
@given(multi_component_graphs(), st.sampled_from([1.0, 1.5, 3.0]),
       st.integers(0, 2**32),
       st.sampled_from(["none", "all", "singletons", "random"]))
def test_cluster_count_counts_the_skipped_clusters(g, delta, seed, zeros):
    # forced: random weights need not decay; the order m follows delta
    table = _weights_with_zeros(g, 14, seed, zeros)
    res = approx_partition_function(g, WeightOracle(table.__getitem__), 0.5,
                                    delta, force=True, exact=True)
    m = res.truncation_order
    assert res.cluster_count == sum(1 for _ in enumerate_clusters(g, m))
    assert res.exact_log == _sum_clusters(
        enumerate_clusters(g, m), WeightOracle(table.__getitem__), exact=True)


def _all_pairs_graph(sets):
    frozen = [frozenset(s) for s in sets]
    return build_graph(len(frozen), [
        (i, j) for i in range(len(frozen)) for j in range(i + 1, len(frozen))
        if frozen[i] & frozen[j]])


@SETTINGS
@given(st.lists(st.lists(st.integers(0, 9), max_size=5), max_size=14),
       st.sets(st.integers(0, 13)))
def test_intersection_graph_equals_all_pairs(sets, hub_members):
    # element -1 is shared by many sets at once; empty sets stay isolated
    sets = [s + [-1] if i in hub_members else s for i, s in enumerate(sets)]
    got = intersection_graph(sets)
    want = _all_pairs_graph(sets)
    assert got.vertex_count == want.vertex_count == len(sets)
    assert [got.neighbors(v) for v in got.vertices()] == [
        want.neighbors(v) for v in want.vertices()]


def _rows(g):
    return [g.neighbors(v) for v in g.vertices()]


@SETTINGS
@given(st.lists(st.lists(st.integers(0, 9), max_size=5), max_size=14),
       st.integers(1, 3), st.randoms(use_true_random=False))
def test_unvalidated_graphs_equal_the_validated_graph(sets, t, rng):
    """The graph constructions that hand their rows over unvalidated build
    what DependencyGraph's validating constructor builds from the same
    rows, with the same maximum degree; a set may repeat an element."""
    g = intersection_graph(sets)
    edges = list(g.edges())
    # repeated edges, both ways round
    edges += [(v, u) for u, v in edges] + rng.sample(edges, len(edges) // 2)
    rng.shuffle(edges)
    built = [g, build_graph(g.vertex_count, edges),
             strong_product_with_complete(g, t)]
    assert _rows(built[1]) == _rows(g)
    for got in built:
        want = DependencyGraph(got.vertex_count, _rows(got))
        assert _rows(got) == _rows(want)
        assert all(type(row) is tuple for row in _rows(got))
        assert got.max_degree() == want.max_degree() == max(
            map(len, _rows(want)), default=0)


def _graph_from_masks(key):
    return DependencyGraph(len(key), [[j for j in range(len(key)) if mask >> j & 1]
                                      for mask in key])


def _cnf_graph(seed):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        f = chain_cnf(rng, rng.randint(1, 8), k=4, share=2)
    else:
        f = ring_cnf(rng, 2 * rng.randint(2, 4), k=4, share=2)
    return cnf_dependency_graph(f)


# host graphs from three catalogs: random multi-component graphs, connected
# shapes, and the dependency graphs of chain and ring CNFs
_catalog_graphs = st.one_of(multi_component_graphs(),
                            connected_shapes().map(_graph_from_masks),
                            st.integers(0, 2**32).map(_cnf_graph))


@SETTINGS
@given(_catalog_graphs, st.integers(1, 5), st.integers(0, 2**32),
       st.sampled_from([0.0, 0.3, 1.0]))
def test_integer_exact_sum_equals_fraction_fold(g, m, seed, zero_share):
    # signed weights over arbitrary denominators, a share of them exactly 0
    rng = random.Random(seed)
    table = {}
    for p in enumerate_connected_subgraphs(g, m):
        w = Fraction(rng.randint(-99, 99), rng.randint(1, 720))
        table[p] = Fraction(0) if rng.random() < zero_share else w
    oracle = WeightOracle(table.__getitem__)
    want = _list_sum(list(enumerate_clusters(g, m)), oracle, True)
    for clusters in (enumerate_clusters(g, m),
                     enumerate_clusters(g, m, table.__getitem__)):
        got = _sum_clusters(clusters, oracle, exact=True)
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (want.numerator,
                                                    want.denominator)
    assert truncated_expansion(g, oracle, m, exact=True) == want


# ---------------------------------------------------------------------------
# The exact float sum

def _kahan(terms):
    """The compensated sum the engine used before its float sum was exact."""
    total = carry = 0.0
    for x in terms:
        y = x - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


@st.composite
def cancelling_weights(draw):
    """Real weights of binary exponents from -40 to 40 and random signs, so
    terms of very different sizes cancel, on a random graph."""
    g = draw(multi_component_graphs())
    m = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return g, m, {p: rng.choice((-1.0, 1.0)) * rng.random()
                  * 2.0 ** rng.randint(-40, 40)
                  for p in enumerate_connected_subgraphs(g, m)}


@SETTINGS
@given(cancelling_weights())
def test_float_sum_is_correctly_rounded_under_cancellation(model):
    g, m, table = model
    oracle = WeightOracle(table.__getitem__)
    want = _list_sum(list(enumerate_clusters(g, m)), oracle, False)
    assert truncated_expansion(g, oracle, m) == want
    assert _sum_clusters(enumerate_clusters(g, m), oracle) == want


def test_float_sum_differs_from_kahan_where_kahan_loses_the_answer():
    # on an edgeless graph at m = 1 the clusters are the single vertices and
    # the expansion is the plain sum of their weights
    weights = [1e100, 1.0, -1e100, 1.0]
    g = build_graph(len(weights), [])
    oracle = WeightOracle(lambda p: weights[p[0]])
    assert _kahan(weights) == 1.0
    assert truncated_expansion(g, oracle, 1) == 2.0
    res = approx_partition_function(g, oracle, 1.0, 5.0, force=True)
    assert res.truncation_order == 1 and res.log_value == 2.0


@pytest.mark.parametrize("weight", [1e200, float("inf"), float("nan")])
def test_nonfinite_terms_are_a_numeric_failure(weight):
    # at m = 2 the cluster of a vertex taken twice has the term -w^2 / 2
    g = build_graph(2, [(0, 1)])
    oracle = WeightOracle(lambda p: weight)
    with pytest.raises(NumericFailure, match="nonfinite truncated expansion"):
        approx_partition_function(g, oracle, 0.5, 1.0, force=True)
    with pytest.raises(NumericFailure):
        truncated_expansion(g, WeightOracle(lambda p: weight), 2)


def test_a_partial_sum_past_float_range_is_no_failure():
    # math.fsum raises "intermediate overflow" on these terms; their exact
    # sum is 1e308, and only its exp leaves float range
    weights = [1e308, 1e308, -1e308]
    g = build_graph(len(weights), [])
    oracle = WeightOracle(lambda p: weights[p[0]])
    assert truncated_expansion(g, oracle, 1) == 1e308
    assert _sum_clusters(enumerate_clusters(g, 1), oracle) == 1e308
    with pytest.raises(NumericFailure, match="exp of the truncated log"):
        approx_partition_function(g, oracle, 1.0, 5.0, force=True)
    # nor is a term past float range: at m = 2 the terms -w^2/2 of weights
    # 1e200 and 1e200j are -5e399 and 5e399, which cancel exactly
    weights = [1e200, 1e200j]
    g = build_graph(len(weights), [])
    oracle = WeightOracle(lambda p: weights[p[0]])
    assert truncated_expansion(g, oracle, 2) == complex(1e200, 1e200)
    assert _sum_clusters(enumerate_clusters(g, 2), oracle) == complex(1e200,
                                                                      1e200)


@pytest.mark.parametrize("weights", [
    [float("nan")], [float("inf")], [1.0, float("-inf")], [1e308, 1e308]])
def test_a_nonfinite_term_or_total_is_a_numeric_failure(weights):
    g = build_graph(len(weights), [])
    oracle = WeightOracle(lambda p: weights[p[0]])
    with pytest.raises(NumericFailure, match="nonfinite truncated expansion"):
        truncated_expansion(g, oracle, 1)
    with pytest.raises(NumericFailure, match="nonfinite truncated expansion"):
        _sum_clusters(enumerate_clusters(g, 1), oracle)
    if not all(map(math.isfinite, weights)):
        # exact mode converts each weight the same way
        with pytest.raises(NumericFailure,
                           match="nonfinite truncated expansion"):
            truncated_expansion(g, oracle, 1, exact=True)


# ---------------------------------------------------------------------------
# The engine: one union at a time, memoized by (shape, local weights), and
# one root's part reused for every later root of the same key

@st.composite
def engine_models(draw):
    """(graph, order m, polymer -> weight, oracle labels or None) from three
    kinds of model: random graphs whose polymers all weigh differently;
    CNF chains and rings, whose dyadic weights repeat along the chain, with
    their CNF labels (most roots reuse a part); and dyadic models with
    exact zeros."""
    kind = draw(st.sampled_from(["distinct", "cnf", "zeros"]))
    m = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32))
    if kind == "cnf":
        rng = random.Random(seed)
        if draw(st.booleans()):
            f = chain_cnf(rng, draw(st.integers(1, 12)), k=4, share=2)
        else:
            f = ring_cnf(rng, 2 * draw(st.integers(2, 6)), k=4, share=2)
        g = cnf_dependency_graph(f)
        return g, m, {p: cnf_polymer_weight(f, p)
                      for p in enumerate_connected_subgraphs(g, m)
                      }, functools.partial(cnf_labels, f)
    g = draw(multi_component_graphs())
    if kind == "distinct":
        return g, m, _weights(g, m, seed, draw(st.booleans())), None
    return g, m, _weights_with_zeros(
        g, m, seed, draw(st.sampled_from(["all", "singletons", "random"]))), None


@SETTINGS
@given(engine_models(), st.booleans())
def test_engine_equals_streamed_reference(model, exact):
    g, m, table, labels = model
    if exact and any(isinstance(w, complex) for w in table.values()):
        exact = False
    oracle = WeightOracle(table.__getitem__)
    want = _sum_clusters(enumerate_clusters(g, m), oracle, exact=exact)
    assert want == _list_sum(list(enumerate_clusters(g, m)), oracle, exact)
    count = sum(1 for _ in enumerate_clusters(g, m))
    # both sums are exact and rounded once, so the floats agree to the bit,
    # well inside eps times the sum of |terms|, with the root memo on or off
    for key in (labels, None):
        oracle = WeightOracle(table.__getitem__, key)
        got = truncated_expansion(g, oracle, m, exact=exact)
        assert type(got) is type(want)
        assert got == want
        assert _Roots(g, oracle, m).expansion(exact)[1] == count


def _bits(z):
    return z.real.hex(), z.imag.hex()


@SETTINGS
@given(engine_models())
def test_float_sum_is_the_exact_sum_of_the_literal_terms_rounded_once(model):
    # complex weights too: each component's exact sum, rounded once
    g, m, table, labels = model
    bits = _bits(_list_sum(enumerate_clusters(g, m),
                           WeightOracle(table.__getitem__), False))
    got = _sum_clusters(enumerate_clusters(g, m), WeightOracle(
        table.__getitem__))
    assert _bits(got) == bits
    for key in (labels, None):
        got = truncated_expansion(g, WeightOracle(table.__getitem__, key), m)
        assert _bits(got) == bits


@SETTINGS
@given(engine_models())
def test_float_answer_is_the_exact_answer_rounded(model):
    """On real rational weights the float result is complex(exact result)
    to the bit, through every entry point, with the root memo on and off."""
    g, m, table, labels = model
    assume(not any(isinstance(w, complex) for w in table.values()))
    exact = _sum_clusters(enumerate_clusters(g, m),
                          WeightOracle(table.__getitem__), exact=True)
    bits = _bits(complex(exact))
    assert _bits(_sum_clusters(enumerate_clusters(g, m),
                               WeightOracle(table.__getitem__))) == bits

    def weight(p):
        # approx_partition_function picks its own order: weigh the sets
        # past the table too
        return table.get(p, Fraction(-1, 1 << 3 * len(p)))

    for key in (labels, None):
        oracle = WeightOracle(table.__getitem__, key)
        assert truncated_expansion(g, oracle, m, exact=True) == exact
        assert _bits(truncated_expansion(g, oracle, m)) == bits
        with_exact, with_float = [approx_partition_function(
            g, WeightOracle(weight, key), 0.5, 1.0, force=True, exact=mode)
            for mode in (True, False)]
        assert with_float.exact_log is None
        assert _bits(with_float.log_value) == _bits(with_exact.log_value) \
            == _bits(complex(float(with_exact.exact_log)))


@pytest.mark.parametrize("w", [Fraction(13, 4), 3.25, complex(3.25)])
def test_a_float_answer_is_rounded_once_from_the_exact_answer(w):
    """One vertex of weight 13/4 at m = 3: the clusters are the vertex taken
    once, twice and three times, and the float answer is the exact
    13/4 - (13/4)^2/2 + (13/4)^3/3 rounded once, not a sum of rounded float
    terms (9.411458333333332)."""
    g = build_graph(1, [])
    x = Fraction(13, 4)
    want = x - x ** 2 / 2 + x ** 3 / 3
    assert truncated_expansion(g, WeightOracle(lambda p: w), 3,
                               exact=True) == want
    got = truncated_expansion(g, WeightOracle(lambda p: w), 3)
    assert got == float(want) == 9.411458333333334


def test_coefficient_is_the_exact_ursell_value_times_orderings():
    """On one edge at m = 6 the cluster of {0} and {1} three times each has
    Ursell function -1/6 and 20 orderings; its coefficient is exactly
    -20/6, which no float holds."""
    clusters = _shape_clusters((2, 1), 6)[1]
    assert any(masks == (62, 61, 59, 55, 47, 31) and orderings == 20
               for _, _, orderings, masks in clusters)
    for _, _, orderings, masks in clusters:
        x = _ursell_from_masks(masks) * orderings
        assert _coefficient((masks, orderings)) == (x.numerator,
                                                    x.denominator)
    assert _coefficient(((62, 61, 59, 55, 47, 31), 20)) == (-10, 3)


def test_exact_mode_refuses_a_result_that_is_not_real():
    """Exact mode returns a Fraction, so a sum with an imaginary part is a
    TypeError; complex-typed weights whose sum is real are accepted."""
    g = build_graph(2, [(0, 1)])
    conjugates = {(0,): complex(0.25, 0.125), (1,): complex(0.25, -0.125),
                  (0, 1): complex(0.0625)}
    skewed = {**conjugates, (1,): complex(0.25)}
    for m in (1, 2):
        with pytest.raises(TypeError, match="not real"):
            truncated_expansion(g, WeightOracle(skewed.__getitem__), m,
                                exact=True)
        with pytest.raises(TypeError, match="not real"):
            _sum_clusters(enumerate_clusters(g, m),
                          WeightOracle(skewed.__getitem__), exact=True)
        # the imaginary parts of conjugate weights cancel in every order
        oracle = WeightOracle(conjugates.__getitem__)
        got = truncated_expansion(g, oracle, m, exact=True)
        assert type(got) is Fraction
        assert got == _list_sum(list(enumerate_clusters(g, m)), oracle, True)
        assert truncated_expansion(g, oracle, m) == complex(got)
    assert truncated_expansion(g, WeightOracle(conjugates.__getitem__), 1,
                               exact=True) == Fraction(1, 2)


@SETTINGS
@given(engine_models())
def test_exact_sum_is_the_fraction_sum_of_the_literal_terms(model):
    g, m, table, labels = model
    assume(not any(isinstance(w, complex) for w in table.values()))
    want = Fraction(0)
    for c in enumerate_clusters(g, m):
        term = _ursell_from_masks(c.incompatibility_masks) * c.orderings
        for p in c.polymers:
            term *= Fraction(table[p])
        want += term
    got = _sum_clusters(enumerate_clusters(g, m),
                        WeightOracle(table.__getitem__), exact=True)
    assert type(got) is Fraction and got == want
    for key in (labels, None):
        got = truncated_expansion(g, WeightOracle(table.__getitem__, key), m,
                                  exact=True)
        assert type(got) is Fraction and got == want


@st.composite
def cnf_formulas(draw):
    """Chains and rings of random widths and overlaps, and small random CNFs:
    either clauses over a handful of variables, or shifted copies of one
    random template clause with random signs."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["chain", "ring", "random", "shifted"]))
    if kind in ("chain", "ring"):
        k = draw(st.integers(2, 6))
        share = draw(st.integers(1, k // 2))
        if kind == "chain":
            return chain_cnf(rng, draw(st.integers(1, 12)), k=k, share=share)
        return ring_cnf(rng, 2 * draw(st.integers(2, 6)), k=k, share=share)
    n = draw(st.integers(2, 8))
    if kind == "random":
        clauses = [tuple(v if rng.random() < 0.5 else -v for v in
                         rng.sample(range(1, n + 1), rng.randint(1, min(n, 3))))
                   for _ in range(draw(st.integers(1, 10)))]
        return CnfFormula(n, tuple(clauses))
    template = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
    step = draw(st.integers(1, n))
    count = draw(st.integers(1, 10))
    clauses = [tuple(v + i * step if rng.random() < 0.5 else -(v + i * step)
                     for v in template) for i in range(count)]
    return CnfFormula(n + (count - 1) * step, tuple(clauses))


def _engine_keys(f, m):
    """Each root's (ball, engine key) under the CNF labels."""
    g = cnf_dependency_graph(f)
    labels = cnf_labels(f, g)
    out = []
    for root in g.vertices():
        ball, _, key = keyed_ball(g, root, m, labels)
        out.append((ball, key))
    return out


@SETTINGS
@given(cnf_formulas(), st.integers(1, 4))
def test_cnf_local_key_is_sound(f, m):
    """Whenever two roots share an engine key, every set of ball positions
    weighs the same on both, in value and in type."""
    balls = {}
    for ball, key in _engine_keys(f, m):
        balls.setdefault(key, []).append(ball)
    for first, *others in balls.values():
        for other in others:
            for r in range(1, len(first) + 1):
                for positions in itertools.combinations(range(len(first)), r):
                    a = cnf_polymer_weight(f, [first[i] for i in positions])
                    b = cnf_polymer_weight(f, [other[i] for i in positions])
                    assert a == b and type(a) is type(b)


def _reference_key(f, ball):
    """The CNF key built from the ball's clauses alone: each clause's mask
    with its offset less the smallest, and one bit per pair (a, b), a < b,
    of positions whose clauses force a shared variable to opposite values."""
    rows = [f.forcings[i] for i in ball]
    base = min(offset for offset, _, _ in rows)
    placed = [(mask << (offset - base), pattern << (offset - base))
              for offset, mask, pattern in rows]
    clashes = [bool(ma & mb & (pa ^ pb))
               for (ma, pa), (mb, pb) in itertools.combinations(placed, 2)]
    return [(offset - base, mask) for offset, mask, _ in rows], clashes


@SETTINGS
@given(cnf_formulas(), st.integers(1, 5))
def test_edge_label_keys_equal_exactly_when_clause_keys_do(f, m):
    """Two roots share an engine key iff their balls have the same adjacency
    and the same clause key, so the engine's parts are the same as with
    keys built from every pair of ball clauses."""
    roots = _engine_keys(f, m)
    for (ball_a, key_a), (ball_b, key_b) in itertools.combinations(roots, 2):
        same_reference = (key_a[0] == key_b[0] and _reference_key(f, ball_a)
                          == _reference_key(f, ball_b))
        assert (key_a == key_b) == same_reference


def test_cnf_local_key_repeats_along_a_chain():
    """A chain's inner roots share keys, so most roots reuse a part."""
    f = chain_cnf(random.Random(3), 60, k=12, share=6)
    keys = {key for _, key in _engine_keys(f, 5)}
    assert len(keys) < len(f.clauses) // 2


def _result_fields(res):
    """Everything an ApproxResult reports, less its timing, with the
    report's dicts in their order and floats by their bits."""
    rep = res.condition_report
    return (res.log_value.real.hex(), res.log_value.imag.hex(), res.exact_log,
            res.cluster_count, res.truncation_order, res.forced,
            [(c.name, c.passed, c.margin, c.detail) for c in res.checks],
            list(rep.max_abs_root_by_size.items()),
            list(rep.worst_polymer_by_size.items()), rep.violations)


@pytest.mark.parametrize("make,n,k,share,delta,force,exact", [
    (chain_cnf, 60, 12, 6, 1.0, False, False),
    (ring_cnf, 40, 12, 6, 1.0, False, True),
    (chain_cnf, 30, 4, 2, 1.0, True, False),
    (ring_cnf, 24, 4, 2, 1.0, True, True),
    (chain_cnf, 30, 6, 3, 1.5, True, False),
])
def test_root_memo_on_and_off_give_identical_results(make, n, k, share, delta,
                                                     force, exact):
    f = make(random.Random(n * k + share), n, k=k, share=share)
    g = cnf_dependency_graph(f)
    results = []
    for labels in (functools.partial(cnf_labels, f), None):
        oracle = WeightOracle(lambda p: cnf_polymer_weight(f, p), labels)
        results.append(approx_partition_function(
            g, oracle, 0.5, delta, force=force, exact=exact))
    with_memo, without = results
    assert _result_fields(with_memo) == _result_fields(without)
    assert (with_memo.condition_report.violations != []) == force
    if force:
        # unforced, both stop at the same first violation
        messages = []
        for labels in (functools.partial(cnf_labels, f), None):
            oracle = WeightOracle(lambda p: cnf_polymer_weight(f, p),
                                  labels)
            with pytest.raises(HypothesisViolation) as caught:
                approx_partition_function(g, oracle, 0.5, delta, exact=exact)
            messages.append((str(caught.value), [
                (c.name, c.passed, c.margin, c.detail)
                for c in caught.value.checks]))
        assert messages[0] == messages[1]


@st.composite
def decay_models(draw):
    """(graph, polymer -> weight, oracle labels or None, kind) with weights
    on every connected set: random graphs with seeded real or complex
    weights of about scale^|polymer|, some past the decay bound; and CNF
    chains and rings of 4-clauses with their labels, whose parts most roots
    share and whose clauses, false with probability 1/16, break the bound
    at delta >= 1."""
    seed = draw(st.integers(0, 2**32))
    if draw(st.booleans()):
        rng = random.Random(seed)
        if draw(st.booleans()):
            f = chain_cnf(rng, draw(st.integers(3, 12)), k=4, share=2)
        else:
            f = ring_cnf(rng, 2 * draw(st.integers(2, 6)), k=4, share=2)
        return (cnf_dependency_graph(f), functools.partial(
            cnf_polymer_weight, f), functools.partial(cnf_labels, f), "cnf")
    g = draw(multi_component_graphs())
    scale = draw(st.sampled_from([0.005, 0.03, 0.2]))
    imaginary = draw(st.booleans())

    def weight(p):
        rng = random.Random(f"{seed}:{p}")
        w = rng.uniform(-1.0, 1.0) * scale ** len(p)
        return complex(w, rng.uniform(-1.0, 1.0) * w) if imaginary else w

    return g, weight, None, "random"


@SETTINGS
@given(decay_models(), st.sampled_from([1.0, 2.0]))
def test_check_weight_condition_is_the_engines_report(model, delta):
    """The standalone decay check reports exactly what a forced run's
    engine reports, maxima, worst polymers and violations in order, with
    the root memo on or off."""
    g, weight, labels, kind = model
    res = approx_partition_function(g, WeightOracle(weight, labels), 0.5,
                                    delta, force=True)
    want = res.condition_report
    if kind == "cnf":
        assert want.violations
    for key in (labels, None):
        got = check_weight_condition(g, WeightOracle(weight, key),
                                     res.truncation_order, delta)
        assert got == want
        assert (list(got.max_abs_root_by_size.items())
                == list(want.max_abs_root_by_size.items()))
        assert (list(got.worst_polymer_by_size.items())
                == list(want.worst_polymer_by_size.items()))


@SETTINGS
@given(st.lists(st.lists(connected_shapes(), min_size=1, max_size=6),
                min_size=1, max_size=4),
       st.integers(1, 40))
def test_shape_table_stays_within_its_cap(calls, cap):
    """The table is trimmed only between calls: each call starts by emptying
    it if it holds more than ``cap`` entries, then builds each of its shapes
    once and holds them all until it ends.  So it holds at most ``cap``
    entries plus one call's shapes.  Each cluster entry carries the mask of
    the local polymers it uses."""
    table = _ShapeTable(cap)
    for keys in calls:
        size, shapes = table.size, dict(table.shapes)
        table.trim()
        if size > cap:
            assert table.size == 0 and table.shapes == {}
        else:
            assert table.size == size and table.shapes == shapes
        built = {}
        for key in keys:
            m = len(key) + 1
            shape = table.shape(key, m)
            assert built.setdefault((key, m), shape) is shape
            assert [c[1:] for c in shape[1]] == [
                (*c[1:], sum({1 << i for i in c[0]}))
                for c in _shape_clusters(key, m)[1]]
        assert all(table.shapes[k] is shape for k, shape in built.items())
        assert table.size == sum(len(s[1]) for s in table.shapes.values())


def _reports(capsys, argv):
    """The jsonl report of each run, less its ``elapsed_s``."""
    assert main(argv + ["--format", "jsonl"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    report = json.loads(lines[-1])
    del report["elapsed_s"]
    return report


def test_reports_do_not_depend_on_the_shape_table(tmp_path, capsys,
                                                   monkeypatch):
    """Reports are bit-identical with the shape table cold, warm and emptied
    at the start of every call, and with the CNF root memo on and off."""
    rng = random.Random(2024)
    chain = tmp_path / "chain.cnf"
    f = chain_cnf(rng, 40, k=12, share=6)
    chain.write_text(f"p cnf {f.variable_count} {len(f.clauses)}\n" + "".join(
        " ".join(map(str, c)) + " 0\n" for c in f.clauses))
    g = random_graph(rng, 9, 3, edge_prob=0.5)
    table = {p: w for p, w in random_weight_table(rng, g, 1.0).items()
             if len(p) <= 4}
    spec = tmp_path / "model.spec"
    spec.write_text(format_weights_spec(g, table, 4))
    runs = [["count-sat", str(chain), "--epsilon", "0.001"],
            ["count-sat", str(chain), "--epsilon", "0.001", "--exact-rational"],
            ["polymer-z", str(spec), "--epsilon", "0.1", "--delta", "1.0"]]
    shapes = llcount.clusters._SHAPE_TABLE
    for argv in runs:
        shapes.clear()
        cold = _reports(capsys, argv)
        assert cold["cluster_count"] > 0
        used = set(shapes.shapes)  # each run makes one engine call
        assert _reports(capsys, argv) == cold  # warm
        with monkeypatch.context() as patch:
            # past a cap of 1 every call starts from an empty table, then
            # holds each of its shapes to its end; a shape past the order
            # cap, which no run uses, shows that the table was emptied
            patch.setattr(shapes, "cap", 1)
            shapes.shape((0,), llcount.clusters.DEFAULT_MAX_ORDER + 1)
            assert _reports(capsys, argv) == cold
            assert set(shapes.shapes) == used
        with monkeypatch.context() as patch:
            # the CNF oracle without its labels: every root a miss
            patch.setattr(llcount.cnf, "WeightOracle",
                          lambda fn, labels=None: WeightOracle(fn))
            assert _reports(capsys, argv) == cold
