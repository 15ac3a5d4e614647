"""Input format parsing: grammars, line-numbered errors, roundtrips."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llcount.cnf import proper_coloring
from llcount.errors import SpecParseError
from llcount.formats import (format_edge_list, format_events_spec,
                             format_projector_spec, format_weights_spec,
                             parse_coloring, parse_edge_list,
                             parse_events_spec, parse_projector_spec,
                             parse_table_spec, parse_weights_spec)
from llcount.graphs import build_graph
from llcount.projectors import LocalProjector, ProjectorSet
from gen import overlapping_pair



def test_edge_list_roundtrip():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    text = format_edge_list(g)
    g2 = parse_edge_list(text)
    assert g2.vertex_count == 4
    assert list(g2.edges()) == list(g.edges())


def test_edge_list_errors():
    with pytest.raises(SpecParseError):
        parse_edge_list("")
    with pytest.raises(SpecParseError) as err:
        parse_edge_list("2 1\n0 2\n")
    assert "line 2" in str(err.value)
    with pytest.raises(SpecParseError):
        parse_edge_list("2 2\n0 1\n")  # declared 2 edges, found 1


@pytest.mark.parametrize("text,message", [
    ("", "empty graph file"),
    ("# comment\n3\n", "line 2: header must be 'n m'"),
    ("3 x\n", "line 1: expected integer edge count, got 'x'"),
    ("3 1\n0 1 2\n", "line 2: edge line must be 'u v'"),
    ("3 1\n0 y\n", "line 2: expected integer endpoint, got 'y'"),
    ("3 2\n0 1\n1 3\n",
     "line 3: edge (1, 3) has an endpoint out of range [0, 3)"),
    ("3 2\n0 1\n\n-1 2\n",
     "line 4: edge (-1, 2) has an endpoint out of range [0, 3)"),
    ("3 2\n0 1\n2 2\n", "line 3: self-loop (2, 2)"),
    # an endpoint is checked on its own line, before later lines are read
    ("3 2\n0 5\nx\n",
     "line 2: edge (0, 5) has an endpoint out of range [0, 3)"),
    ("3 2\n0 1\n", "header declares 2 edges, found 1"),
    ("3 1\n0 1\n1 2\n", "header declares 1 edges, found 2"),
    # header counts are non-negative, and every integer is ASCII
    # [+-]?[0-9]+, though int() reads '1_0' as 10 and other digits
    ("-5 0\n", "line 1: header counts must be non-negative"),
    ("3 -1\n", "line 1: header counts must be non-negative"),
    ("1_0 0\n", "line 1: expected integer vertex count, got '1_0'"),
    ("3 1\n0 \u0662\n", "line 2: expected integer endpoint, got '\u0662'"),
])
def test_edge_list_error_messages(text, message):
    with pytest.raises(SpecParseError) as err:
        parse_edge_list(text)
    assert str(err.value) == message


GRAPH_BLOCK = "vertices 3\nedges 2\n"
ENTRIES = "max-size 1\n{0} 0 0.01\n{0} 1 0.01\n{0} 2 0.01\n"


@pytest.mark.parametrize("text,message", [
    # the graph block of a table spec shares the edge-list grammar
    (GRAPH_BLOCK + "0 1\n1 5\n" + ENTRIES.format("weight"),
     "line 4: edge (1, 5) has an endpoint out of range [0, 3)"),
    (GRAPH_BLOCK + "0 1\n2 2\n" + ENTRIES.format("prob"),
     "line 4: self-loop (2, 2)"),
    (GRAPH_BLOCK + "0 5\nx\n", "line 3: edge (0, 5) has an endpoint out of "
     "range [0, 3)"),
    (GRAPH_BLOCK + "0 1 2\n", "line 3: edge line must be 'u v'"),
    (GRAPH_BLOCK + "0 1\n", "expected 2 edge lines, file ended early"),
    ("vertices -1\nedges 0\nmax-size 1\n",
     "line 1: vertex count must be non-negative"),
    ("vertices 3\nedges -1\nmax-size 1\n",
     "line 2: edge count must be non-negative"),
    ("vertices 1_0\nedges 0\nmax-size 1\n",
     "line 1: expected integer vertex count, got '1_0'"),
    ("vertices 3\nedges 0_1\nmax-size 1\n",
     "line 2: expected integer edge count, got '0_1'"),
    (GRAPH_BLOCK + "0 1\n1 2_0\n", "line 4: expected integer endpoint, "
     "got '2_0'"),
    (GRAPH_BLOCK + "0 1\n1 2\nmax-size 1_0\n",
     "line 5: expected integer max set size, got '1_0'"),
    (GRAPH_BLOCK + "0 1\n1 2\n" + ENTRIES.format("weight").replace(
        "weight 2", "weight \uff12"), "line 8: bad vertex-set key '\uff12'"),
    (GRAPH_BLOCK + "0 1\n1 2\nmax-size 2\nweight 0,1_0 0.01\n",
     "line 6: bad vertex-set key '0,1_0'"),
    # the first entry line picks the kind; a line of the other kind fails
    # where it stands
    (GRAPH_BLOCK + "0 1\n1 2\n" + ENTRIES.format("prob")
     + "weight 0,1 0.001\n",
     "line 9: expected 'prob' line, got 'weight 0,1 0.001'"),
    (GRAPH_BLOCK + "0 1\n1 2\n"
     + ENTRIES.format("weight").replace("weight 1", "prob 1"),
     "line 7: expected 'weight' line, got 'prob 1 0.01'"),
])
def test_table_spec_error_messages(text, message):
    with pytest.raises(SpecParseError) as err:
        parse_table_spec(text)
    assert str(err.value) == message


def test_table_spec_kind_is_its_first_entry_keyword():
    g = build_graph(2, [(0, 1)])
    text = format_weights_spec(g, {(0,): 0.02, (1,): 0.03, (0, 1): 0.001}, 2)
    kind, (graph, oracle, max_size) = parse_table_spec(text)
    assert (kind, graph.edge_count(), max_size) == ("weights", 1, 2)
    assert oracle.weight((0, 1)) == 0.001
    kind, oracle = parse_table_spec(text.replace("weight", "prob"))
    assert kind == "events" and oracle.table[(0, 1)] == 0.001


def test_long_edge_list_builds_its_graph_once(monkeypatch):
    import llcount.formats

    calls = []

    def counting(n, edges):
        calls.append(n)
        return build_graph(n, edges)

    monkeypatch.setattr(llcount.formats, "build_graph", counting)
    n = 4000
    path = f"{n} {n - 1}\n" + "".join(f"{v} {v + 1}\n" for v in range(n - 1))
    g = parse_edge_list(path)
    assert (g.vertex_count, g.edge_count(), g.max_degree()) == (n, n - 1, 2)
    assert calls == [n]
    with pytest.raises(SpecParseError) as err:
        parse_edge_list(path + f"{n - 1} {n}\n")
    assert str(err.value) == (
        f"line {n + 1}: edge ({n - 1}, {n}) has an endpoint out of range "
        f"[0, {n})")


def test_projector_spec_roundtrip():
    rng = random.Random(1)
    ps = overlapping_pair(rng, 8, 7, 1, conjugated=True)
    text = format_projector_spec(ps)
    ps2 = parse_projector_spec(text)
    assert ps2.d == 2 and ps2.qudit_count == 8
    for a, b in zip(ps.projectors, ps2.projectors):
        assert a.support == b.support
        assert np.allclose(a.matrix, b.matrix, atol=1e-12)


def test_projector_spec_rejects_invalid_matrix():
    text = ("d 2\nqudits 1\nprojector\nsupport 0\nmatrix\n"
            "2 0  0 0\n0 0  0 0\nend\n")
    with pytest.raises(SpecParseError) as err:
        parse_projector_spec(text)
    assert "validation" in str(err.value)
    # but loads with validation off
    ps = parse_projector_spec(text, validate=False)
    assert ps.projectors[0].matrix[0, 0] == 2.0


def test_projector_spec_parse_errors():
    with pytest.raises(SpecParseError):
        parse_projector_spec("qudits 2\n")
    with pytest.raises(SpecParseError):
        parse_projector_spec("d 2\nqudits 1\nprojector\nmatrix\nend\n")
    with pytest.raises(SpecParseError) as err:
        parse_projector_spec("d 2\nqudits 1\nprojector\nsupport 0\n"
                             "matrix\n1 0\n0 0 0 0\nend\n")
    assert "line 6" in str(err.value)
    for d in ("1", "-2"):
        with pytest.raises(SpecParseError) as err:
            parse_projector_spec(f"d {d}\nqudits 1\nprojector\nsupport 0\n"
                                 "matrix\n1 0\nend\n")
        assert "at least 2" in str(err.value)


def test_events_spec_roundtrip_and_checks():
    text = ("vertices 3\nedges 2\n0 1\n1 2\nmax-size 2\n"
            "prob 0 0.01\nprob 1 0.02\nprob 2 0.01\n"
            "prob 0,1 0.001\nprob 1,2 0.002\n")
    oracle = parse_events_spec(text)
    assert oracle.joint_complement_probability((1, 0)) == 0.001
    text2 = format_events_spec(oracle)
    oracle2 = parse_events_spec(text2)
    assert oracle2.table == oracle.table

    with pytest.raises(SpecParseError) as err:
        parse_events_spec(text.replace("prob 1,2 0.002\n", ""))
    assert "missing" in str(err.value)

    with pytest.raises(SpecParseError) as err:
        parse_events_spec(text.replace("prob 0,1 0.001", "prob 0,1 0.5"))
    assert "monotone" in str(err.value)

    with pytest.raises(SpecParseError):
        parse_events_spec(text.replace("prob 0 0.01", "prob 0 1.5"))


@pytest.mark.parametrize("entries,first_missing", [
    ((), (0,)), ([(v,) for v in range(40)], (0, 1))])
def test_table_check_stops_at_the_first_missing_set(monkeypatch, entries,
                                                    first_missing):
    """On a 40-vertex complete graph with max-size 20, which has some 10^11
    connected sets, the check draws at most one set beyond the table."""
    import llcount.formats

    drawn = []
    original = llcount.formats.enumerate_connected_subgraphs

    def counting(*args):
        for p in original(*args):
            drawn.append(p)
            yield p

    monkeypatch.setattr(llcount.formats, "enumerate_connected_subgraphs",
                        counting)
    g = build_graph(40, [(u, v) for u in range(40) for v in range(u + 1, 40)])
    text = format_weights_spec(g, {p: 0.001 for p in entries}, 20)
    for parse in (parse_weights_spec,
                  lambda t: parse_events_spec(t.replace("weight", "prob"))):
        drawn.clear()
        with pytest.raises(SpecParseError) as err:
            parse(text)
        assert "missing" in str(err.value)
        assert str(first_missing) in str(err.value)
        assert len(drawn) <= len(entries) + 1


def test_weights_spec_roundtrip():
    g = build_graph(2, [(0, 1)])
    table = {(0,): 0.02, (1,): -0.03, (0, 1): complex(0.001, -0.002)}
    text = format_weights_spec(g, table, 2)
    graph, oracle, max_size = parse_weights_spec(text)
    assert max_size == 2
    assert graph.edge_count() == 1
    assert oracle.weight((0,)) == 0.02
    assert oracle.weight((0, 1)) == complex(0.001, -0.002)
    with pytest.raises(SpecParseError):
        oracle.weight((0, 1, 2))


@pytest.mark.parametrize("text,message", [
    ("d 2\nqudits 1_0\n", "line 2: expected integer qudit count, got '1_0'"),
    ("d \u0662\nqudits 1\n",
     "line 1: expected integer local dimension, got '\u0662'"),
    ("d 2\nqudits 2\nprojector\nsupport 0 1_0\n",
     "line 4: expected integer qudit index, got '1_0'"),
])
def test_projector_spec_integers_are_ascii(text, message):
    with pytest.raises(SpecParseError) as err:
        parse_projector_spec(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text,message", [
    ("1_0 1\n", "line 1: expected integer vertex, got '1_0'"),
    ("0 0\n1 \u0661\n", "line 2: expected integer color, got '\u0661'"),
])
def test_coloring_integers_are_ascii(text, message):
    with pytest.raises(SpecParseError) as err:
        parse_coloring(text, 11)
    assert str(err.value) == message


def test_coloring_parse():
    g = build_graph(3, [(0, 1), (1, 2)])
    col = parse_coloring("0 0\n1 5\n2 0\n", 3)
    assert col.num_colors == 2
    assert col.class_of == (0, 1, 0)
    assert proper_coloring(g, col) is col
    # parsing reads only the vertex count; properness is checked on the graph
    improper = parse_coloring("0 0\n1 0\n2 0\n", 3)
    with pytest.raises(ValueError, match=r"edge \(0, 1\) is monochromatic"):
        proper_coloring(g, improper)
    with pytest.raises(SpecParseError, match="does not cover every vertex"):
        parse_coloring("0 0\n1 1\n", 3)  # vertex 2 uncovered
    with pytest.raises(SpecParseError, match="line 2: vertex 0 colored twice"):
        parse_coloring("0 0\n0 1\n1 1\n2 0\n", 3)
    with pytest.raises(SpecParseError, match="line 3: vertex 3 out of range"):
        parse_coloring("0 0\n1 1\n3 0\n", 3)


def _per_entry_matrices(text):
    """Matrices as a per-number float() parse of the spec text reads them."""
    lines = [s.split("#", 1)[0].strip() for s in text.splitlines()]
    lines = [s for s in lines if s]
    out = []
    for k, s in enumerate(lines):
        if s == "matrix":
            side = lines.index("end", k) - k - 1
            vals = [[float(t) for t in row.split()] for row in lines[k + 1:k + 1 + side]]
            out.append(np.array(vals).view(np.complex128))
    return out


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_projector_spec_roundtrip_is_bit_identical(data):
    qubits = data.draw(st.integers(0, 2))
    side = 2 ** qubits
    entries = data.draw(st.lists(st.floats(allow_nan=False, width=64),
                                 min_size=2 * side * side,
                                 max_size=2 * side * side))
    m = np.array(entries, dtype=np.float64).reshape(side, 2 * side)
    ps = ProjectorSet(2, qubits, [LocalProjector(tuple(range(qubits)),
                                                 m.view(np.complex128))])
    text = format_projector_spec(ps)
    got = parse_projector_spec(text, validate=False).projectors[0].matrix
    assert got.tobytes() == ps.projectors[0].matrix.tobytes()
    assert got.tobytes() == _per_entry_matrices(text)[0].tobytes()


def test_projector_spec_roundtrip_of_generated_family_is_bit_identical():
    rng = random.Random(3)
    ps = overlapping_pair(rng, 8, 7, 1, conjugated=True)
    ps2 = parse_projector_spec(format_projector_spec(ps))
    for a, b in zip(ps.projectors, ps2.projectors):
        assert a.matrix.tobytes() == b.matrix.tobytes()


HEADER = "d 2\nqudits 1\nprojector\nsupport 0\nmatrix\n"


@pytest.mark.parametrize("body,line,message", [
    ("1 0  0 0\n0 0\nend\n", 7, "needs 4 numbers (re im pairs), got 2"),
    ("1 0  0 0  0\n0 0  0 0\nend\n", 6, "needs 4 numbers (re im pairs), got 5"),
    ("1 0  0 0\n0 0  x 0\nend\n", 7, "expected number matrix entry, got 'x'"),
    ("# a comment line\n1 0  0 0\n\n0 0  0 0 0 0\nend\n", 9, "got 6"),
    ("1 0  0 0\nend\n", 7, "needs 4 numbers (re im pairs), got 1"),
])
def test_projector_spec_matrix_errors_keep_line_numbers(body, line, message):
    with pytest.raises(SpecParseError) as err:
        parse_projector_spec(HEADER + body)
    assert err.value.line == line
    assert message in str(err.value)


def test_projector_spec_early_eof():
    with pytest.raises(SpecParseError) as err:
        parse_projector_spec(HEADER + "1 0  0 0\n")
    assert "file ended early" in str(err.value)
    with pytest.raises(SpecParseError) as err:
        parse_projector_spec(HEADER + "1 0  0 x\n")
    assert err.value.line == 6 and "'x'" in str(err.value)


@pytest.mark.parametrize("body,line,token", [
    ("\u0661 0  0 0\n0 0  0 0\nend\n", 6, "\u0661"),
    ("1 0_0  0 0\n0 0  0 0\nend\n", 6, "0_0"),
    ("1 0  0 0\n0 0  0 0.0_0\nend\n", 7, "0.0_0"),
    ("1 0  0 0\n0 0  0 \uff10\nend\n", 7, "\uff10"),
])
def test_projector_spec_matrix_entries_are_ascii(body, line, token):
    # float() reads digit separators and non-ASCII digits; the grammar,
    # like numpy, does not
    with pytest.raises(SpecParseError) as err:
        parse_projector_spec(HEADER + body)
    assert str(err.value) == (
        f"line {line}: expected number matrix entry, got {token!r}")


@pytest.mark.parametrize("support", ["1 0", "0 0"])
def test_projector_spec_rejects_a_support_that_is_not_ascending(support):
    rows = "".join("0 0  " * 4 + "\n" for _ in range(4))
    text = (f"d 2\nqudits 2\nprojector\nsupport {support}\nmatrix\n{rows}"
            "end\n")
    with pytest.raises(SpecParseError) as err:
        parse_projector_spec(text)
    assert err.value.line == 4
    assert "strictly ascending" in str(err.value)


@pytest.mark.parametrize("body,line,token", [
    ("1 0  0 0\n0 0  inf 0\nend\n", 7, "inf"),           # one numpy call
    ("nan 0  0 0\n0 0  0 0\nend\n", 6, "nan"),
    ("1 0  0 0\n0 0  0 1e400\nend\n", 7, "1e400"),
    ("1 0  0 -Infinity\n0 0  x 0\nend\n", 6, "-Infinity"),  # per number
])
def test_projector_spec_rejects_non_finite_entries(body, line, token):
    with pytest.raises(SpecParseError) as err:
        parse_projector_spec(HEADER + body)
    assert err.value.line == line
    assert f"matrix entry {token!r} is not finite" in str(err.value)


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf", "1e400", "0.1 nan",
                                   "-nan 0", "0 -inf"])
@pytest.mark.parametrize("parse,keyword", [(parse_weights_spec, "weight"),
                                           (parse_events_spec, "prob")])
def test_non_finite_table_value_is_a_line_numbered_error(parse, keyword,
                                                         entry):
    bad = next(t for t in entry.split() if t.lstrip("-") in ("nan", "inf",
                                                               "1e400"))
    text = ("vertices 2\nedges 1\n0 1\nmax-size 2\n"
            f"{keyword} 0 0.001\n{keyword} 1 {entry}\n{keyword} 0,1 1e-6\n")
    with pytest.raises(SpecParseError) as err:
        parse(text)
    assert str(err.value) == f"line 6: value {bad!r} is not finite"
