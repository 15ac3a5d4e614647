"""The truncation order and its certificate: the paper's tail bound and the
Kotecky-Preiss rule for weights under the Hoelder bound (CNFs and events
specs), checked against exact references and brute-force sums."""

import contextlib
import io
import json
import math
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llcount.cli import main
from llcount.clusters import (DEFAULT_MAX_ORDER, _kp_rates,
                              choose_truncation_order, convergence_bound,
                              holder_delta, kotecky_preiss, truncation)
from llcount.cnf import (CnfFormula, EventTableOracle,
                         approx_probability_intersection,
                         cnf_dependency_graph, cnf_polymer_weight,
                         count_satisfying, intersection_problem)
from llcount.errors import ResourceCapExceeded
from llcount.formats import format_events_spec
from llcount.graphs import enumerate_connected_subgraphs, greedy_coloring
from llcount.oracles import exact_inclusion_exclusion_probability

from gen import chain_cnf, odd_ring_cnf, random_graph, ring_cnf


def _tree_count(d: int, s: int) -> int:
    """Subtrees of s vertices through the root of the d-regular tree."""
    if d <= 1:
        return int(s == 1 or d == 1 and s == 2)
    return d * math.comb((d - 1) * s, s - 1) // ((d - 2) * s + 2)


def _rooted_sets(d: int, s: int) -> int:
    """Connected s-vertex sets through the root of the d-regular tree,
    grown one neighbour at a time on the tree's vertices as paths."""
    def neighbours(v):
        out = [v[:-1]] if v else []
        first = 0 if not v else 1  # a non-root vertex's parent is one edge
        out += [v + (c,) for c in range(first, d)]
        return out

    sets = {frozenset([()])}
    for _ in range(s - 1):
        sets = {part | {w} for part in sets for v in part
                for w in neighbours(v) if w not in part}
    return len(sets)


@pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
def test_tree_count_counts_rooted_subtrees(d):
    for s in range(1, 6):
        assert _rooted_sets(d, s) == _tree_count(d, s), (d, s)


@pytest.mark.parametrize("d", [0, 1, 2, 3, 4, 7, 16])
@pytest.mark.parametrize("worst, chi", [(2.0 ** -12, 2), (1e-3, 3),
                                        (0.2, 1)])
def test_kp_sum_is_the_tree_series_rounded_up(d, worst, chi):
    rates = _kp_rates(d, worst, chi)
    w1 = worst ** (1.0 / chi)
    for theta in (0.01, 0.1, 0.3):
        x, a = rates(theta)
        log_q = math.log(w1) + x
        terms = [worst * math.exp(x)]
        for s in range(2, 1000):
            count = _tree_count(d, s)
            if not count:
                break
            terms.append(math.exp(math.log(count) + s * log_q))
            # past the radius' ratio the terms fall geometrically
            if s > 20 and terms[-1] < 1e-25 * terms[0]:
                break
        else:
            raise AssertionError("the series did not converge")
        series = math.fsum(terms)
        assert series <= a / (d + 1) <= series * (1.0 + 1e-9), (theta, x)


def test_kotecky_preiss_refuses_what_it_cannot_certify():
    assert kotecky_preiss(0, 2, 0.1, 2, 0.1) is None
    assert kotecky_preiss(5, 2, 0.0, 2, 0.1) is None
    assert kotecky_preiss(5, 2, 1.0, 2, 0.1) is None
    assert kotecky_preiss(5, 2, math.nan, 2, 0.1) is None
    # weights this large meet the condition at no x
    assert kotecky_preiss(5, 6, 0.3, 3, 0.1) is None
    kp = kotecky_preiss(100, 2, 2.0 ** -12, 2, 0.1)
    assert kp == kotecky_preiss(100, 2, 2.0 ** -12, 2, 0.1)
    assert kp.rule == "kotecky-preiss"


# (clauses, epsilon) -> (the paper's m, the rule's m): the 12-CNF chains and
# rings of the benchmark, neighbours sharing 6 variables, chi = 2
BENCHMARK_SHAPES = {
    (20, 0.1): (4, 1), (40, 0.1): (4, 1), (50, 0.1): (4, 1),
    (60, 0.1): (4, 2), (75, 0.1): (4, 2), (100, 0.1): (5, 2),
    (150, 0.1): (5, 2), (200, 0.1): (5, 2), (50, 0.01): (6, 3),
    (3000, 0.1): (7, 4),
}


@pytest.mark.parametrize("n, epsilon", sorted(BENCHMARK_SHAPES))
def test_orders_of_the_benchmark_shapes(n, epsilon):
    worst = 2.0 ** -12
    delta = holder_delta(worst, 2, 2, 0.1, True)
    paper, rule = BENCHMARK_SHAPES[n, epsilon]
    assert choose_truncation_order(n, 2, delta, epsilon) == paper
    order = truncation(n, 2, delta, epsilon, (worst, 2))
    assert order.order == rule and order.rule == "kotecky-preiss"
    assert order.bound <= math.log1p(epsilon)
    assert order.bound <= convergence_bound(n, 2, delta, rule)
    assert truncation(n, 2, delta, epsilon) == (
        paper, convergence_bound(n, 2, delta, paper), "paper")


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--format", "jsonl"])
    text = (out.getvalue() or err.getvalue()).strip()
    return code, json.loads(text.splitlines()[-1])


def _dimacs(f: CnfFormula) -> str:
    return "".join([f"p cnf {f.variable_count} {len(f.clauses)}\n"]
                   + [" ".join(map(str, c)) + " 0\n" for c in f.clauses])


@pytest.mark.parametrize("n, paper", [(5, 22), (7, 24), (9, 25)])
def test_odd_rings_run_at_order_3(tmp_path, n, paper):
    f = odd_ring_cnf(random.Random(n), n)
    res = count_satisfying(f, 0.1, 0.1)
    approx = res.approx
    assert res.chi_used == 3
    assert choose_truncation_order(n, 2, approx.delta, 0.1) == paper
    assert paper > DEFAULT_MAX_ORDER
    assert approx.truncation_order == 3
    assert approx.bound_rule == "kotecky-preiss"
    exact = exact_inclusion_exclusion_probability(f)
    assert abs(math.log(res.probability) - math.log(exact)) <= (
        approx.additive_log_error_bound)
    path = tmp_path / "ring.cnf"
    path.write_text(_dimacs(f))
    (run_code, run), (check_code, check) = (
        _call(["count-sat", str(path)]), _call(["check", str(path)]))
    assert run_code == check_code == 0
    assert run["m"] == check["m"] == 3
    assert run["log_error_rule"] == check["log_error_rule"] == (
        "kotecky-preiss")


# ---------------------------------------------------------------------------
# Soundness of the rule on random CNFs and event families

@st.composite
def event_families(draw):
    """A CNF of 2 to 9 clauses, k = 6..12, on a chain, an even or odd ring or
    a random graph of degree <= 3; and, for an events spec, a bias per
    variable, the probability that it is 1."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    shape = draw(st.sampled_from(["chain", "ring", "odd-ring", "graph"]))
    k = draw(st.integers(6, 12))
    if shape == "chain":
        f = chain_cnf(rng, draw(st.integers(2, 9)), k,
                      draw(st.integers(1, k // 2)))
    elif shape in ("ring", "odd-ring"):
        n = draw(st.integers(2, 4)) * 2 + (shape == "odd-ring")
        make = ring_cnf if shape == "ring" else odd_ring_cnf
        f = make(rng, n, k, draw(st.integers(1, k // 2)))
    else:
        g = random_graph(rng, draw(st.integers(2, 8)), 3)
        clauses = [[] for _ in g.vertices()]
        top = 0
        for u in g.vertices():
            for v in g.neighbors(u):
                if u < v:
                    for _ in range(rng.randint(1, 2)):
                        top += 1
                        clauses[u].append(top)
                        clauses[v].append(top)
        for c in clauses:
            while len(c) < k:
                top += 1
                c.append(top)
        f = CnfFormula(top, tuple(tuple(v if rng.random() < 0.5 else -v
                                        for v in c) for c in clauses))
    if not draw(st.booleans()):
        return f
    bias = [draw(st.sampled_from([0.5, 0.3, 0.1])) for _ in
            range(f.variable_count)]
    g = cnf_dependency_graph(f)

    def false_probability(polymer):
        forced = {}
        for i in polymer:
            for lit in f.clauses[i]:
                value = lit < 0  # the value that falsifies the literal
                if forced.setdefault(abs(lit), value) != value:
                    return 0.0
        return math.prod(bias[v - 1] if value else 1.0 - bias[v - 1]
                         for v, value in forced.items())

    n = g.vertex_count
    table = {p: false_probability(p)
             for p in enumerate_connected_subgraphs(g, n)}
    return EventTableOracle(g, table, n)


def _weight(source):
    if isinstance(source, CnfFormula):
        return lambda p: float(cnf_polymer_weight(source, p))
    return lambda p: source.joint_complement_probability(p) * (-1) ** len(p)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(event_families(), st.sampled_from([0.5, 0.1, 0.01]),
       st.sampled_from([0.1, 0.5]))
def test_the_certified_bound_holds_and_check_reports_the_run_order(
        source, epsilon, delta):
    graph = cnf_dependency_graph(source) if isinstance(
        source, CnfFormula) else source.graph
    problem = intersection_problem(source, graph, None, delta)
    try:
        order = truncation(graph.vertex_count, graph.max_degree(),
                           problem.delta_used, epsilon, problem.holder)
    except ResourceCapExceeded:
        return
    if order.order > 8:
        return  # an expansion too large for a unit test
    res = approx_probability_intersection(source, epsilon, delta, force=True)
    approx = res.approx
    assert (approx.truncation_order, approx.additive_log_error_bound,
            approx.bound_rule) == order
    n, d, m = approx.graph_order, approx.max_degree, approx.truncation_order
    bound = approx.additive_log_error_bound
    assert m <= choose_truncation_order(n, d, approx.delta, epsilon)
    assert bound <= math.log1p(epsilon)
    paper = convergence_bound(n, d, approx.delta, m)
    assert bound == paper if approx.bound_rule == "paper" else bound <= paper
    # the rule's certificate needs only the Hoelder bound, so it holds on a
    # forced run too
    if not approx.forced or approx.bound_rule == "kotecky-preiss":
        exact = exact_inclusion_exclusion_probability(source)
        assert exact > 0
        error = abs(complex(approx.log_value) - math.log(exact))
        assert error <= bound + 1e-12, (error, bound)

    # S(x) is at least the sum over each vertex's polymers, which a graph
    # of maximum degree d has no more of than the d-regular tree
    weight = _weight(source)
    worst = max(abs(weight((v,))) for v in graph.vertices())
    chi = greedy_coloring(graph).num_colors
    assert chi == res.chi_used
    if 0.0 < worst < 1.0:
        rates = _kp_rates(d, worst, chi)
        polymers = list(enumerate_connected_subgraphs(graph, n))
        for theta in (0.05, 0.3, 0.7):
            x, a = rates(theta)
            for v in graph.vertices():
                total = math.fsum(abs(weight(p)) * math.exp(x * len(p))
                                  for p in polymers if v in p)
                assert total <= a / (d + 1)

    # check reports the run command's order and rule on the same file
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "w") as fh:
            fh.write(_dimacs(source) if isinstance(source, CnfFormula)
                     else format_events_spec(source))
        flags = ["--epsilon", str(epsilon), "--delta", str(delta)]
        # check on a CNF checks count-sat's hypotheses
        command = ("count-sat" if isinstance(source, CnfFormula)
                   else "prob-intersection")
        run_code, run = _call([command, path] + flags)
        check_code, check = _call(["check", path] + flags)
    assert check_code == run_code
    if run_code == 0:
        assert (check["m"], check["log_error_rule"]) == (
            run["m"], run["log_error_rule"])
