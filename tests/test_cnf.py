"""CNF parsing, polymer weights, probability and counting pipelines."""

import math
import random
from fractions import Fraction

import pytest

from llcount.clusters import WeightOracle, _sum_clusters, enumerate_clusters
from llcount.cnf import (CnfFormula, EventTableOracle,
                         approx_probability_intersection, cnf_dependency_graph,
                         cnf_polymer_weight, count_satisfying,
                         joint_false_probability, parse_dimacs)
from llcount.errors import HypothesisViolation, SpecParseError
from llcount.graphs import Coloring, build_graph, greedy_coloring
from llcount.oracles import (brute_force_sat_count,
                             exact_inclusion_exclusion_probability)

from gen import chain_cnf, ring_cnf


def test_parse_dimacs_examples():
    f = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
    assert f.variable_count == 3
    assert f.clauses == ((1, 2, 3),)

    f = parse_dimacs("p cnf 2 2\n1 -2 0\n-1 2 0\n")
    assert f.clauses == ((1, -2), (-1, 2))

    with pytest.raises(SpecParseError):
        parse_dimacs("1 1 0\n")


def test_parse_dimacs_errors_carry_line_numbers():
    with pytest.raises(SpecParseError) as err:
        parse_dimacs("c comment\np cnf 2 1\n1 -1 0\n")
    assert "line 3" in str(err.value)
    with pytest.raises(SpecParseError):
        parse_dimacs("p cnf 2 1\n1 x 0\n")
    with pytest.raises(SpecParseError):
        parse_dimacs("p cnf 1 1\n5 0\n")


@pytest.mark.parametrize("n,clauses,message", [
    (2, ((1, -1),), "clause 0: variable 1 repeated"),   # a tautology
    (3, ((1, 2), (3, 2, -3)), "clause 1: variable 3 repeated"),
    (2, ((1, 3),), "clause 0: variable 3 outside 1..2"),
    (2, ((-3,),), "clause 0: variable 3 outside 1..2"),
    (2, ((0, 1),), "clause 0: variable 0 outside 1..2"),
])
def test_cnf_formula_rejects_what_its_clauses_may_not_hold(n, clauses,
                                                          message):
    # a tautology used to get joint_false_probability 1/2 instead of 0
    with pytest.raises(ValueError, match=message):
        CnfFormula(n, clauses)


def test_parse_dimacs_clause_spanning_lines_and_no_header():
    f = parse_dimacs("1 2\n3 0\n")
    assert f.variable_count == 3
    assert f.clauses == ((1, 2, 3),)


def test_cnf_dependency_graph_examples():
    disjoint = CnfFormula(4, ((1, 2), (3, 4)))
    assert cnf_dependency_graph(disjoint).edge_count() == 0

    chained = CnfFormula(4, ((1, 2), (2, 3), (3, 4)))
    g = cnf_dependency_graph(chained)
    assert sorted(g.edges()) == [(0, 1), (1, 2)]

    shared = CnfFormula(4, ((1, 2), (1, 3), (1, 4)))
    assert cnf_dependency_graph(shared).edge_count() == 3


def test_cnf_polymer_weight_examples():
    single = CnfFormula(12, (tuple(range(1, 13)),))
    assert cnf_polymer_weight(single, (0,)) == Fraction(-1, 2 ** 12)

    conflict = CnfFormula(3, ((1, 2), (-1, 3)))
    assert cnf_polymer_weight(conflict, (0, 1)) == 0

    consistent = CnfFormula(3, ((1, 2), (1, 3)))
    assert cnf_polymer_weight(consistent, (0, 1)) == Fraction(1, 8)


def test_cnf_weight_matches_exhaustive_enumeration():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(2, 8)
        clauses = []
        for _ in range(rng.randint(1, 4)):
            width = rng.randint(1, min(3, n))
            vars_ = rng.sample(range(1, n + 1), width)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vars_))
        f = CnfFormula(n, tuple(clauses))
        indices = tuple(range(len(clauses)))
        count = 0
        for a in range(1 << n):
            falsifies_all = True
            for c in clauses:
                clause_false = all(
                    ((a >> (abs(l) - 1)) & 1) == (0 if l > 0 else 1)
                    for l in c)
                if not clause_false:
                    falsifies_all = False
                    break
            count += falsifies_all
        assert joint_false_probability(f, indices) == Fraction(count, 1 << n)


def test_probability_zero_events_and_single_event():
    empty = CnfFormula(3, ())
    res = approx_probability_intersection(empty, 0.01, 0.1)
    assert res.probability == pytest.approx(1.0)

    single = CnfFormula(12, (tuple(range(1, 13)),))
    res = approx_probability_intersection(single, 0.001, 0.1)
    p = 2.0 ** -12
    assert res.probability == pytest.approx(1.0 - p, rel=0.001)


def test_probability_ring_matches_inclusion_exclusion():
    rng = random.Random(99)
    f = ring_cnf(rng, 6, k=12, share=1)
    res = approx_probability_intersection(f, 0.01, 0.1)
    exact = float(exact_inclusion_exclusion_probability(f))
    assert abs(res.probability - exact) <= 0.01 * exact
    assert res.probability > 0.0


def test_count_satisfying_examples():
    empty = parse_dimacs("p cnf 4 0\n")
    res = count_satisfying(empty, 0.01, 0.1)
    assert res.count == pytest.approx(16.0)

    single3 = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
    # an isolated clause has max degree 0 and chi 1, so k=3 passes
    res = count_satisfying(single3, 0.05, 0.1)
    assert res.count == pytest.approx(7.0, rel=0.05)

    rng = random.Random(7)
    f = chain_cnf(rng, 3, k=12, share=6)
    res = count_satisfying(f, 0.01, 0.1)
    exact = brute_force_sat_count(f)
    assert abs(res.count - exact) <= 0.01 * exact


def test_count_satisfying_exact_rational_mode():
    rng = random.Random(8)
    f = chain_cnf(rng, 2, k=12, share=6)
    res = count_satisfying(f, 0.01, 0.1, exact=True)
    assert res.approx.exact_log is not None
    assert isinstance(res.approx.exact_log, Fraction)
    plain = count_satisfying(f, 0.01, 0.1)
    assert res.count == pytest.approx(plain.count, rel=1e-12)


def test_k_condition_margin_reported():
    rng = random.Random(11)
    f = ring_cnf(rng, 6, k=12, share=1)
    res = count_satisfying(f, 0.1, 0.1)
    kcheck = [c for c in res.approx.checks if c.name == "k-condition"][0]
    g = cnf_dependency_graph(f)
    chi = greedy_coloring(g).num_colors
    required = (chi / math.log(2)) * (math.log(2 * g.max_degree() + 1) + 1 + 0.1)
    assert kcheck.margin == pytest.approx(12 - required)
    assert kcheck.passed


def test_output_invariant_under_clause_reordering_and_renaming():
    # Reordering can degrade the greedy coloring (and with it the checked
    # hypothesis), so the reordered run gets the permuted proper coloring
    # explicitly; the value must then agree within 2*epsilon.
    rng = random.Random(13)
    f = chain_cnf(rng, 4, k=12, share=6)
    eps = 0.01
    base_res = count_satisfying(f, eps, 0.1)
    base = base_res.count
    base_coloring = greedy_coloring(cnf_dependency_graph(f))

    perm = list(range(len(f.clauses)))
    rng.shuffle(perm)
    reordered = CnfFormula(f.variable_count, tuple(f.clauses[i] for i in perm))
    permuted_coloring = Coloring(
        tuple(base_coloring.class_of[perm[i]] for i in range(len(perm))),
        base_coloring.num_colors)
    got = count_satisfying(reordered, eps, 0.1,
                           coloring=permuted_coloring).count
    assert abs(got - base) <= 2 * eps * base

    names = list(range(1, f.variable_count + 1))
    rng.shuffle(names)
    renamed = CnfFormula(f.variable_count, tuple(
        tuple(names[abs(l) - 1] * (1 if l > 0 else -1) for l in c)
        for c in f.clauses))
    got = count_satisfying(renamed, eps, 0.1).count
    assert abs(got - base) <= 2 * eps * base


def test_event_table_oracle_path():
    g = build_graph(3, [(0, 1), (1, 2)])
    table = {
        (0,): 0.001, (1,): 0.0008, (2,): 0.0006,
        (0, 1): 5e-05, (1, 2): 4e-05, (0, 1, 2): 1e-06,
    }
    oracle = EventTableOracle(g, table, 3)
    res = approx_probability_intersection(oracle, 0.01, 0.1)
    exact = exact_inclusion_exclusion_probability(oracle)
    assert res.probability == pytest.approx(exact, rel=0.01)

    with pytest.raises(SpecParseError):
        oracle.joint_complement_probability((0, 2))  # not in table


def test_event_table_oracle_exact_log():
    # a table's floats are rationals, so the exact sum is the rational one
    g = build_graph(3, [(0, 1), (1, 2)])
    table = {
        (0,): 0.001, (1,): 0.0008, (2,): 0.0006,
        (0, 1): 5e-05, (1, 2): 4e-05, (0, 1, 2): 1e-06,
    }
    oracle = EventTableOracle(g, table, 3)
    res = approx_probability_intersection(oracle, 0.01, 0.1, exact=True)
    approx = approx_probability_intersection(oracle, 0.01, 0.1).approx
    m = res.approx.truncation_order
    assert m == approx.truncation_order
    assert isinstance(res.approx.exact_log, Fraction)
    assert res.approx.exact_log == _sum_clusters(
        enumerate_clusters(g, m), WeightOracle(lambda p: Fraction(
            (-1) ** len(p) * table[p])), exact=True)
    assert res.approx.log_value == float(res.approx.exact_log)
    assert res.approx.log_value == pytest.approx(approx.log_value,
                                                 rel=1e-12)


def test_event_oracle_per_event_violation():
    g = build_graph(2, [(0, 1)])
    table = {(0,): 0.3, (1,): 0.3, (0, 1): 0.2}
    oracle = EventTableOracle(g, table, 2)
    with pytest.raises(HypothesisViolation):
        approx_probability_intersection(oracle, 0.1, 0.1)
