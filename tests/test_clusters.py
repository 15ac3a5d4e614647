"""Cluster engine: incompatibility, Ursell values, enumeration bookkeeping,
truncated expansion and the partition-function pipeline."""

import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest

from llcount.clusters import (WeightOracle, approx_partition_function,
                              check_weight_condition, choose_truncation_order,
                              convergence_bound, enumerate_clusters,
                              incompatible, truncated_expansion, ursell,
                              weight_decay_threshold)
from llcount.errors import HypothesisViolation
from llcount.graphs import build_graph, enumerate_connected_subgraphs
from llcount.oracles import brute_force_polymer_z, ursell_bruteforce

from gen import (chain_cnf, overlapping_pair, random_graph,
                 random_weight_table, table_oracle)

P3 = build_graph(3, [(0, 1), (1, 2)])
K2 = build_graph(2, [(0, 1)])
K3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
SINGLE = build_graph(1, [])


def test_incompatible_examples():
    assert not incompatible((0,), (2,), P3)
    assert incompatible((0,), (1,), P3)
    assert incompatible((0, 1), (0, 1), P3)
    assert incompatible((0,), (0,), P3)  # self-incompatibility


def test_ursell_examples():
    assert ursell(SINGLE) == 1
    assert ursell(K2) == Fraction(-1, 2)
    assert ursell(K3) == Fraction(1, 3)
    assert ursell(P3) == Fraction(1, 6)
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    # confirmed against the edge-subset oracle below
    assert ursell(c4) == ursell_bruteforce(c4) == Fraction(-1, 8)


def test_ursell_rejects_disconnected():
    with pytest.raises(ValueError):
        ursell(build_graph(2, []))


def _all_connected_graphs(n):
    all_edges = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(all_edges)):
        g = build_graph(n, [e for i, e in enumerate(all_edges) if mask >> i & 1])
        if any(len(c) == n for c in enumerate_connected_subgraphs(g, n)):
            yield g


def test_ursell_matches_bruteforce_small():
    for n in (1, 2, 3, 4):
        for g in _all_connected_graphs(n):
            assert ursell(g) == ursell_bruteforce(g)


def test_enumerate_clusters_examples():
    got = [(c.polymers, c.orderings) for c in enumerate_clusters(P3, 1)]
    assert sorted(got) == [((((0,),)), 1), ((((1,),)), 1), ((((2,),)), 1)]

    got = [(c.polymers, c.orderings) for c in enumerate_clusters(SINGLE, 2)]
    assert sorted(got) == [(((0,),), 1), (((0,), (0,)), 1)]

    got = {c.polymers for c in enumerate_clusters(P3, 2)}
    expected = {
        ((0,),), ((1,),), ((2,),),
        ((0, 1),), ((1, 2),),
        ((0,), (0,)), ((1,), (1,)), ((2,), (2,)),
        ((0,), (1,)), ((1,), (2,)),
    }
    assert got == expected
    orderings = {c.polymers: c.orderings for c in enumerate_clusters(P3, 2)}
    assert orderings[((0,), (1,))] == 2
    assert orderings[((0,), (0,))] == 1


def test_cluster_emission_unique_and_deterministic():
    rng = random.Random(321)
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 6), 3)
        m = rng.randint(1, 5)
        first = [(c.polymers, c.orderings) for c in enumerate_clusters(g, m)]
        second = [(c.polymers, c.orderings) for c in enumerate_clusters(g, m)]
        assert first == second
        assert len(first) == len({p for p, _ in first})


def _ordered_tuple_bruteforce(g, weights, m):
    """Literal sum over ordered polymer tuples with connected H."""
    polymers = sorted(enumerate_connected_subgraphs(g, m))
    total = 0.0 + 0.0j
    for t in range(1, m + 1):
        for tup in itertools.product(polymers, repeat=t):
            if sum(len(p) for p in tup) > m:
                continue
            masks = [0] * t
            for i in range(t):
                for j in range(i + 1, t):
                    if tup[i] == tup[j] or incompatible(tup[i], tup[j], g):
                        masks[i] |= 1 << j
                        masks[j] |= 1 << i
            seen = 1
            stack = [0]
            while stack:
                v = stack.pop()
                rest = masks[v] & ~seen
                while rest:
                    low = rest & -rest
                    seen |= low
                    stack.append(low.bit_length() - 1)
                    rest ^= low
            if seen != (1 << t) - 1:
                continue
            h = build_graph(t, [(i, j) for i in range(t) for j in range(i + 1, t)
                                if masks[i] >> j & 1])
            coeff = float(ursell(h))
            prod = 1.0 + 0.0j
            for p in tup:
                prod *= weights[p]
            total += coeff * prod
    return total


def test_multiset_bookkeeping_vs_ordered_tuple_bruteforce():
    # The factorial bookkeeping (unordered multisets with an orderings count)
    # must reproduce the literal ordered-tuple sum.
    rng = random.Random(777)
    for g in (SINGLE, K2, P3, K3):
        weights = {p: complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.1, 0.1))
                   for p in enumerate_connected_subgraphs(g, 3)}
        oracle = WeightOracle(lambda p, w=weights: w[p])
        for m in (1, 2, 3):
            engine = truncated_expansion(g, oracle, m)
            literal = _ordered_tuple_bruteforce(g, weights, m)
            assert engine == pytest.approx(literal, abs=1e-12)


def test_truncated_expansion_single_vertex_log_series():
    x = 0.2
    oracle = WeightOracle(lambda p: x)
    assert truncated_expansion(SINGLE, oracle, 1) == pytest.approx(x)
    assert truncated_expansion(SINGLE, oracle, 2) == pytest.approx(x - x * x / 2)
    got = truncated_expansion(SINGLE, oracle, 6)
    series = sum((-1) ** (j - 1) * x ** j / j for j in range(1, 7))
    assert got == pytest.approx(series, abs=1e-15)


def test_truncated_expansion_p3_coefficient_pattern():
    x = 0.013
    oracle = WeightOracle(lambda p: x if len(p) == 1 else 0.0)
    got = truncated_expansion(P3, oracle, 2)
    assert got == pytest.approx(3 * x - (1.5 + 2.0) * x * x, abs=1e-15)


def test_exact_rational_expansion():
    oracle = WeightOracle(lambda p: Fraction(1, 8) if len(p) == 1 else Fraction(0))
    exact = truncated_expansion(P3, oracle, 2, exact=True)
    assert exact == 3 * Fraction(1, 8) - Fraction(7, 2) * Fraction(1, 64)


def test_choose_truncation_order_examples():
    eps = math.expm1(0.6 * math.exp(-3.0) * (1 + 1e-12))
    assert choose_truncation_order(1, 2, 1.0, eps) == 3

    m = choose_truncation_order(100, 2, 0.5, 0.01)
    assert m == math.ceil(2 * math.log(0.6 * 100 / math.log(1.01)))
    # smallest such m
    assert convergence_bound(100, 2, 0.5, m) <= math.log(1.01)
    assert convergence_bound(100, 2, 0.5, m - 1) > math.log(1.01)


def test_choose_truncation_order_monotonicity():
    rng = random.Random(15)
    for _ in range(50):
        n = rng.randint(1, 500)
        dmax = rng.randint(0, 5)
        delta = rng.uniform(0.05, 2.0)
        eps = rng.uniform(0.001, 1.0)
        m1 = choose_truncation_order(n, dmax, delta, eps)
        m2 = choose_truncation_order(2 * n, dmax, delta, eps)
        assert m1 <= m2 <= m1 + math.ceil(math.log(2) / delta)


def test_check_weight_condition_examples():
    zero = WeightOracle(lambda p: 0.0)
    rep = check_weight_condition(P3, zero, 3, 0.1)
    assert rep.passed and not rep.violations

    # boundary case: weight exactly at the bound passes (delta=0, Delta=2)
    w = 1.0 / (5 * math.e)
    boundary = WeightOracle(lambda p: w if len(p) == 1 else 0.0)
    rep = check_weight_condition(P3, boundary, 1, 0.0)
    assert rep.passed

    bad = WeightOracle(lambda p: 1.0 if len(p) == 1 else 0.0)
    rep = check_weight_condition(P3, bad, 1, 0.1)
    assert not rep.passed
    assert rep.violations[0][0] == (0,)


@pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.nan),
                                 complex(math.nan, 1e-9)])
@pytest.mark.parametrize("where", [(0,), (1,), (0, 1)])
def test_nan_weight_is_a_weight_decay_violation(bad, where):
    # a NaN |w| compares false with every bound; it must still fail
    table = {(0,): 1e-6, (1,): 2e-6, (2,): 1e-6, (0, 1): 1e-9, (1, 2): 1e-9,
             (0, 1, 2): 1e-12, where: bad}
    oracle = WeightOracle(table.__getitem__)
    rep = check_weight_condition(P3, oracle, 3, 0.5)
    assert not rep.passed
    assert [v[0] for v in rep.violations] == [where]
    assert math.isnan(rep.max_abs_root_by_size[len(where)])
    assert rep.worst_polymer_by_size[len(where)] == where
    check = rep.as_check()
    assert not check.passed and not check.margin >= 0
    assert "max |w|^(1/|polymer|) = nan" in check.detail
    with pytest.raises(HypothesisViolation, match=rf"polymer \({where[0]},"):
        approx_partition_function(P3, WeightOracle(table.__getitem__), 0.5,
                                  0.5)


def test_approx_partition_function_trivial_and_small():
    zero = WeightOracle(lambda p: 0.0)
    res = approx_partition_function(P3, zero, 0.01, 0.5)
    assert res.value == pytest.approx(1.0)

    # single polymer with weight -1/(5e); at the actual max degree 0 the
    # decay condition holds with room, so a small epsilon is reachable
    w = -1.0 / (5 * math.e)
    oracle = WeightOracle(lambda p: w)
    res = approx_partition_function(SINGLE, oracle, 0.001, 1.0)
    assert res.value.real == pytest.approx(1.0 + w, rel=0.001)

    rng = random.Random(2)
    table = random_weight_table(rng, P3, 0.5)
    oracle = table_oracle(table)
    res = approx_partition_function(P3, oracle, 0.05, 0.5)
    exact = brute_force_polymer_z(P3, oracle)
    assert abs(res.value - exact) <= 0.05 * abs(exact)
    # Z certified nonzero: |Z| >= |value| * exp(-bound) > 0
    assert res.value_lower_bound > 0.0
    assert abs(exact) >= res.value_lower_bound * (1 - 1e-9)


def test_approx_partition_function_violation_aborts_and_force():
    big = WeightOracle(lambda p: 0.9 if len(p) == 1 else 0.0)
    with pytest.raises(HypothesisViolation):
        # epsilon 1: at 0.5 the order of a 3-vertex graph passes its cap
        approx_partition_function(P3, big, 1.0, 0.1)
    res = approx_partition_function(P3, big, 0.5, 0.7, force=True)
    assert res.forced
    assert res.condition_report is not None and not res.condition_report.passed


def test_the_certificate_uses_the_graphs_max_degree():
    # singleton weights -0.22 on an 8-cycle: at its D = 2 the decay bound
    # 1/(5 e^1.5) = 0.0446 refuses them; a D = 0 threshold e^-1.5 = 0.223
    # would admit them and certify a bound the true error exceeds, so D is
    # not a parameter
    cycle = build_graph(8, [(v, (v + 1) % 8) for v in range(8)])
    oracle = WeightOracle(lambda p: -0.22 if len(p) == 1 else 0.0)
    with pytest.raises(HypothesisViolation, match="weight-decay"):
        approx_partition_function(cycle, oracle, 0.1, 0.5)
    res = approx_partition_function(cycle, oracle, 0.1, 0.5, force=True)
    assert res.forced and res.max_degree == 2
    assert not check_weight_condition(cycle, oracle, 1, 0.5).passed
    with pytest.raises(TypeError, match="max_degree"):
        approx_partition_function(cycle, oracle, 0.1, 0.5, max_degree=0)
    with pytest.raises(TypeError, match="max_degree"):
        check_weight_condition(cycle, oracle, 1, 0.5, max_degree=0)


def test_no_public_function_takes_threads():
    # the weight pass is serial: a caller's threads= is refused as any
    # unknown keyword is, before the function runs
    from llcount.cnf import approx_probability_intersection, count_satisfying
    from llcount.qsat import (approx_dim_commuting, approx_dim_detectability,
                              approx_dim_general)

    rng = random.Random(27)
    f = chain_cnf(rng, 3)
    ps = overlapping_pair(rng)
    oracle = WeightOracle(lambda p: 0.01 ** len(p))
    calls = [(count_satisfying, (f, 0.1, 0.1)),
             (approx_probability_intersection, (f, 0.1, 0.1)),
             (approx_dim_commuting, (ps, 0.1, 0.1)),
             (approx_dim_general, (ps, 0.1, 0.1)),
             (approx_dim_detectability, (ps, 0.1, 0.1)),
             (truncated_expansion, (P3, oracle, 2)),
             (check_weight_condition, (P3, oracle, 2, 0.1)),
             (approx_partition_function, (P3, oracle, 0.1, 0.1))]
    for fn, args in calls:
        with pytest.raises(TypeError,
                           match="unexpected keyword argument 'threads'"):
            fn(*args, threads=1)


def test_convergence_bound_holds_on_random_models():
    # engine-level version of the acceptance criterion, small sample
    rng = random.Random(31415)
    for _ in range(8):
        g = random_graph(rng, rng.randint(2, 6), 3)
        table = random_weight_table(rng, g, 0.2)
        oracle = table_oracle(table)
        z = brute_force_polymer_z(g, oracle)
        logz = cmath.log(z)
        for m in range(1, 7):
            bound = convergence_bound(g.vertex_count, g.max_degree(), 0.2, m)
            tm = truncated_expansion(g, oracle, m)
            assert abs(tm - logz) <= bound + 1e-12


def test_weight_decay_threshold_value():
    assert weight_decay_threshold(0.0, 2) == pytest.approx(1 / (5 * math.e))


def test_cluster_is_a_named_tuple():
    import llcount
    from llcount.clusters import Cluster

    assert llcount.Cluster is Cluster
    assert Cluster._fields == ("polymers", "total_size", "orderings",
                               "incompatibility_masks")
    c = Cluster(((0,), (0, 1)), 3, 2, (0b10, 0b01))
    assert tuple(c) == (((0,), (0, 1)), 3, 2, (0b10, 0b01))
    assert (c.polymers, c.total_size, c.orderings,
            c.incompatibility_masks) == tuple(c)
    assert c == Cluster(((0,), (0, 1)), 3, 2, (0b10, 0b01))
    assert c != Cluster(((0,), (0, 1)), 3, 1, (0b10, 0b01))
    assert {c: 1}[Cluster(((0,), (0, 1)), 3, 2, (0b10, 0b01))] == 1
    emitted = list(enumerate_clusters(P3, 2))
    assert all(type(e) is Cluster for e in emitted)
    assert len(set(emitted)) == len(emitted)


def _one_label(g):
    """Labels under which balls of one adjacency share a key."""
    return [0] * g.vertex_count, [[0] * len(g.neighbors(v))
                                  for v in g.vertices()]


@pytest.mark.parametrize("labels", [None, _one_label],
                         ids=["unkeyed", "keyed"])
@pytest.mark.parametrize("run", [
    lambda g, oracle: approx_partition_function(g, oracle, 0.5, 1.0),
    lambda g, oracle: truncated_expansion(g, oracle, 2),
], ids=["approx", "truncated"])
def test_each_root_ball_is_built_once_per_call(monkeypatch, run, labels):
    from llcount import clusters, graphs

    calls = []
    original = graphs.keyed_ball

    def counting(g, root, m, labels=None):
        calls.append(root)
        return original(g, root, m, labels)

    monkeypatch.setattr(graphs, "keyed_ball", counting)
    monkeypatch.setattr(clusters, "keyed_ball", counting)
    # the weight depends on the size alone, so every ball may share one key
    # and the inner roots of the path reuse the first root's part
    oracle = WeightOracle(lambda p: 0.01 ** len(p), labels)
    path = build_graph(6, [(v, v + 1) for v in range(5)])
    run(path, oracle)
    assert sorted(calls) == list(path.vertices())
