"""Graph primitives: construction, coloring, products, enumeration."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llcount.graphs import (Coloring, DependencyGraph, build_graph,
                            enumerate_connected_subgraphs, greedy_coloring,
                            induced_components, strong_product_with_complete)

from gen import random_graph


def test_build_graph_examples():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    assert p3.max_degree() == 2
    single = build_graph(1, [])
    assert single.max_degree() == 0
    k3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert k3.max_degree() == 2
    assert k3.edge_count() == 3


def test_build_graph_dedupes():
    g = build_graph(2, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


def test_build_graph_errors():
    with pytest.raises(ValueError):
        build_graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        build_graph(2, [(1, 1)])


def test_greedy_coloring_examples():
    k3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert greedy_coloring(k3).num_colors == 3
    p3 = build_graph(3, [(0, 1), (1, 2)])
    assert greedy_coloring(p3).num_colors == 2
    edgeless = build_graph(5, [])
    assert greedy_coloring(edgeless).num_colors == 1


def test_greedy_coloring_proper_and_bounded_on_random_graphs():
    rng = random.Random(12345)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 12), rng.randint(1, 5))
        col = greedy_coloring(g)
        col.assert_proper(g)
        assert col.num_colors <= g.max_degree() + 1


def test_coloring_assert_proper_rejects():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        Coloring((0, 0, 1), 2).assert_proper(p3)


def test_strong_product_examples():
    single = build_graph(1, [])
    k3 = strong_product_with_complete(single, 3)
    assert k3.vertex_count == 3 and k3.edge_count() == 3

    k2 = build_graph(2, [(0, 1)])
    same = strong_product_with_complete(k2, 1)
    assert same.vertex_count == 2 and same.edge_count() == 1

    p3 = build_graph(3, [(0, 1), (1, 2)])
    prod = strong_product_with_complete(p3, 2)
    assert prod.vertex_count == 6
    assert prod.max_degree() == 2 * (2 + 1) - 1


def test_strong_product_rejects_zero():
    with pytest.raises(ValueError):
        strong_product_with_complete(build_graph(1, []), 0)


def test_strong_product_degree_property_random():
    rng = random.Random(999)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 7), rng.randint(1, 4))
        t = rng.randint(1, 4)
        prod = strong_product_with_complete(g, t)
        assert prod.vertex_count == g.vertex_count * t
        assert prod.max_degree() == t * (g.max_degree() + 1) - 1


def _brute_connected_sets(g, m):
    out = set()
    for size in range(1, m + 1):
        for sub in itertools.combinations(range(g.vertex_count), size):
            pool = set(sub)
            seen = {sub[0]}
            stack = [sub[0]]
            while stack:
                u = stack.pop()
                for w in g.neighbors(u):
                    if w in pool and w not in seen:
                        seen.add(w)
                        stack.append(w)
            if seen == pool:
                out.add(sub)
    return out


def test_enumerate_connected_subgraphs_examples():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    assert sorted(enumerate_connected_subgraphs(p3, 2)) == [
        (0,), (0, 1), (1,), (1, 2), (2,)]
    k3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert len(list(enumerate_connected_subgraphs(k3, 3))) == 7
    edgeless = build_graph(4, [])
    assert sorted(enumerate_connected_subgraphs(edgeless, 3)) == [
        (0,), (1,), (2,), (3,)]


def test_enumerate_connected_subgraphs_vs_bruteforce():
    # exhaustive over every graph on up to 5 vertices; all 2^15 graphs on 6
    # vertices would be slow, so 6-vertex coverage is randomized
    for n in (1, 2, 3, 4, 5):
        all_edges = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(all_edges)):
            g = build_graph(n, [e for i, e in enumerate(all_edges)
                                if mask >> i & 1])
            got = list(enumerate_connected_subgraphs(g, n))
            assert len(got) == len(set(got)), "duplicate emission"
            assert set(got) == _brute_connected_sets(g, n)
    rng = random.Random(4242)
    for _ in range(120):
        g = random_graph(rng, 6, rng.randint(1, 5), edge_prob=rng.random())
        m = rng.randint(1, 6)
        got = list(enumerate_connected_subgraphs(g, m))
        assert len(got) == len(set(got))
        assert set(got) == _brute_connected_sets(g, m)


def test_induced_components_examples():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    assert induced_components(p3, {0, 2}) == [(0,), (2,)]
    assert induced_components(p3, {0, 1, 2}) == [(0, 1, 2)]
    k3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert induced_components(k3, set()) == []


def _set_based_connected_subgraphs(g, m):
    """Set-based rooted growth: the reference for the emission order of the
    bitmask enumeration."""
    for root in g.vertices():
        yield from _set_based_grow(g, {root}, set(range(root)), m)


def _set_based_grow(g, subset, forbidden, m):
    yield tuple(sorted(subset))
    if len(subset) == m:
        return
    ext = set()
    for v in subset:
        for w in g.neighbors(v):
            if w not in subset and w not in forbidden:
                ext.add(w)
    banned = set(forbidden)
    for u in sorted(ext):
        subset.add(u)
        yield from _set_based_grow(g, subset, banned, m)
        subset.remove(u)
        banned.add(u)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=20)) if pairs else ()
    return build_graph(n, edges)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(small_graphs(), st.integers(1, 7))
def test_bitmask_enumeration_keeps_the_set_based_order(g, m):
    assert list(enumerate_connected_subgraphs(g, m)) == list(
        _set_based_connected_subgraphs(g, m))


def _reference_validation_error(n, adjacency):
    """The message of DependencyGraph's checks made one neighbour at a time:
    every row's range, self-loop and duplicate checks, then symmetry."""
    rows = [tuple(sorted(row)) for row in adjacency]
    for v, row in enumerate(rows):
        for w in row:
            if not 0 <= w < n:
                return f"neighbor {w} of vertex {v} out of range"
            if w == v:
                return f"self-loop at vertex {v}"
        if any(a == b for a, b in zip(row, row[1:])):
            return f"duplicate neighbor in adjacency of vertex {v}"
    for v, row in enumerate(rows):
        for w in row:
            if v not in rows[w]:
                return f"asymmetric adjacency between {v} and {w}"
    return None


def _validation_error(n, adjacency):
    try:
        DependencyGraph(n, adjacency)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("adjacency,message", [
    # each row is invalid in two ways, or the graph in a row and in symmetry
    ([[1], [5]], "neighbor 5 of vertex 1 out of range"),
    ([[1, -1], [0]], "neighbor -1 of vertex 0 out of range"),
    ([[-1, 0], []], "neighbor -1 of vertex 0 out of range"),
    ([[0, 2], []], "self-loop at vertex 0"),
    ([[], [1, 1]], "self-loop at vertex 1"),
    ([[], [-2, 1, 1]], "neighbor -2 of vertex 1 out of range"),
    ([[1, 1, 3], [0]], "neighbor 3 of vertex 0 out of range"),
    ([[1, 1], []], "duplicate neighbor in adjacency of vertex 0"),
    ([[1], [], [0, 0]], "duplicate neighbor in adjacency of vertex 2"),
    ([[1], [], [4, 0]], "neighbor 4 of vertex 2 out of range"),
    ([[2, 1], [], [0]], "asymmetric adjacency between 0 and 1"),
    ([[], [2], [0]], "asymmetric adjacency between 1 and 2"),
    # long rows: a star with 100 leaves, and a vertex adjacent to all
    ([list(range(1, 101))] + [[0]] * 99 + [[]],
     "asymmetric adjacency between 0 and 100"),
    ([list(range(1, 101)) + [100]] + [[0]] * 100,
     "duplicate neighbor in adjacency of vertex 0"),
    ([list(range(1, 102))] + [[0]] * 100,
     "neighbor 101 of vertex 0 out of range"),
    ([[]] * 50 + [list(range(101))] + [[]] * 50, "self-loop at vertex 50"),
    ([[w for w in range(1, 101) if w != 50]] + [[0]] * 100,
     "asymmetric adjacency between 50 and 0"),
])
def test_invalid_adjacency_reports_the_first_failed_check(adjacency, message):
    n = len(adjacency)
    assert _reference_validation_error(n, adjacency) == message
    assert _validation_error(n, adjacency) == message


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.integers(-2, n + 1), max_size=4),
                         min_size=n, max_size=n))))
def test_adjacency_validation_matches_per_neighbour_checks(case):
    n, adjacency = case
    assert _validation_error(n, adjacency) == _reference_validation_error(
        n, adjacency)
