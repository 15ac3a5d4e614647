"""Text input formats.

Edge-list graphs::

    n m          header: vertex count, edge count
    u v          one line per edge, 0-based

Projector specs::

    d 2
    qudits 3
    projector
    support 0 1
    matrix
    <row-major rows: 2*side decimal numbers per row, re im pairs>
    end

A support lists distinct qudits in strictly ascending order; the first is the
most significant digit of the row-major index.  Matrix entries must be finite.

Events specs (joint complement probabilities for connected vertex sets)::

    vertices 6
    edges 6
    u v          (edge lines)
    max-size 3
    prob 0 0.01
    prob 0,1 0.001

Weights specs are the same with ``weight KEY re [im]`` lines.  Keys are
comma-joined ascending vertex ids.  Every connected set up to max-size must
have an entry.  Colorings are ``v c`` lines, one per vertex.

Every integer (a count, a dimension, a vertex, qudit or color index, a key
entry) is ASCII ``[+-]?[0-9]+``: ``1_0`` and non-ASCII digits, which
Python's ``int`` reads, are errors naming their line.  The counts of an
edge-list header are non-negative.  Every other number is an ASCII decimal
with optional exponent: ``_`` and non-ASCII characters, which ``float``
may read (``1_0e-3``), are errors naming their line; ``#`` starts a comment.
"""

from __future__ import annotations

import math
from typing import Iterator

from ._lazy import lazy_getattr
from .clusters import WeightOracle
from .cnf import EventTableOracle, _integer, _real
from .errors import SpecParseError
from .graphs import (Coloring, DependencyGraph, build_graph, check_edge,
                     enumerate_connected_subgraphs)

# numpy and the projector module load with the first projector spec; the
# graph, events and weights formats need neither.
__getattr__ = lazy_getattr(__name__, dict.fromkeys(
    ("LocalProjector", "ProjectorSet", "validate_projector"), "projectors"))


def _lines(text: str) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # Matrix rows run to kilobytes; only split lines that hold a comment.
        s = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        if s:
            yield lineno, s


def _int(tok: str, lineno: int, what: str) -> int:
    try:
        return _integer(tok)
    except ValueError:
        raise SpecParseError(f"expected integer {what}, got {tok!r}", lineno) from None


def _float(tok: str, lineno: int, what: str) -> float:
    try:
        return _real(tok)
    except ValueError:
        raise SpecParseError(f"expected number {what}, got {tok!r}", lineno) from None


def _finite(tok: str, lineno: int) -> float:
    x = _float(tok, lineno, "value")
    if not math.isfinite(x):
        raise SpecParseError(f"value {tok!r} is not finite", lineno)
    return x


def _edges(lines: list[tuple[int, str]], n: int) -> list[tuple[int, int]]:
    """The edges of an n-vertex graph's ``u v`` lines, each checked there."""
    edges = []
    for lineno, s in lines:
        parts = s.split()
        if len(parts) != 2:
            raise SpecParseError("edge line must be 'u v'", lineno)
        u = _int(parts[0], lineno, "endpoint")
        v = _int(parts[1], lineno, "endpoint")
        try:
            check_edge(n, u, v)
        except ValueError as exc:
            raise SpecParseError(str(exc), lineno) from None
        edges.append((u, v))
    return edges


def parse_edge_list(text: str) -> DependencyGraph:
    """Parse the `n m` / `u v` edge-list format."""
    lines = list(_lines(text))
    if not lines:
        raise SpecParseError("empty graph file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise SpecParseError("header must be 'n m'", lineno)
    n = _int(parts[0], lineno, "vertex count")
    m = _int(parts[1], lineno, "edge count")
    if n < 0 or m < 0:
        raise SpecParseError("header counts must be non-negative", lineno)
    edges = _edges(lines[1:], n)
    if len(edges) != m:
        raise SpecParseError(f"header declares {m} edges, found {len(edges)}")
    return build_graph(n, edges)


def format_edge_list(g: DependencyGraph) -> str:
    out = [f"{g.vertex_count} {g.edge_count()}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Projector specs

def _non_finite_entry(tok: str, lineno: int) -> SpecParseError:
    return SpecParseError(f"matrix entry {tok!r} is not finite", lineno)


def _parse_matrix(block: list[tuple[int, str]], side: int,
                  finite: bool) -> np.ndarray:
    """The side x side complex matrix written as ``side`` rows of re/im pairs.

    One numpy call converts the whole block.  When it fails, or the block is
    short or ragged, the rows are read again one number at a time by
    ``_float``, which names the line of the first bad row.  With ``finite``,
    a non-finite entry (``inf``, ``nan``, or a numeral past float range) is
    rejected with its line.
    """
    import numpy as np

    if len(block) == side:
        try:
            flat = np.loadtxt([s for _, s in block], dtype=np.float64, ndmin=2)
        except ValueError:
            flat = None
        if flat is not None and flat.shape == (side, 2 * side):
            bad = np.argwhere(~np.isfinite(flat)) if finite else ()
            if len(bad):
                k, j = bad[0]
                lineno, s = block[k]
                raise _non_finite_entry(s.split()[j], lineno)
            return flat.view(np.complex128)
    rows = []
    for k in range(side):
        if k >= len(block):
            raise SpecParseError(f"matrix needs {side} rows, file ended early")
        lineno, s = block[k]
        toks = s.split()
        if len(toks) != 2 * side:
            raise SpecParseError(
                f"matrix row needs {2 * side} numbers (re im pairs), "
                f"got {len(toks)}", lineno)
        row = [_float(t, lineno, "matrix entry") for t in toks]
        for tok, x in zip(toks, row):
            if finite and not math.isfinite(x):
                raise _non_finite_entry(tok, lineno)
        rows.append(row)
    return np.array(rows, dtype=np.float64).view(np.complex128)


def parse_projector_spec(text: str, *, validate: bool = True) -> ProjectorSet:
    """Parse a projector-spec file into a validated ProjectorSet.

    Each projector is validated within ``VALIDATION_TOL`` and the set keeps
    the diagnostics as ``diagnostics``.  ``validate=False`` reads the
    matrices as written, non-finite entries included, and checks no
    projector."""
    from .projectors import LocalProjector, ProjectorSet, validate_projector

    lines = list(_lines(text))
    pos = 0
    d = None
    qudits = None
    while pos < len(lines) and lines[pos][1].split()[0] in ("d", "qudits"):
        lineno, s = lines[pos]
        key, *rest = s.split()
        if len(rest) != 1:
            raise SpecParseError(f"'{key}' takes one value", lineno)
        if key == "d":
            d = _int(rest[0], lineno, "local dimension")
        else:
            qudits = _int(rest[0], lineno, "qudit count")
        pos += 1
    if d is None or qudits is None:
        raise SpecParseError("header must declare 'd' and 'qudits'")
    if d < 2:
        raise SpecParseError("local dimension d must be at least 2")
    projectors = []
    while pos < len(lines):
        lineno, s = lines[pos]
        if s != "projector":
            raise SpecParseError(f"expected 'projector', got {s!r}", lineno)
        pos += 1
        if pos >= len(lines) or not lines[pos][1].startswith("support"):
            raise SpecParseError("projector block needs a 'support' line",
                                 lines[pos - 1][0])
        lineno, s = lines[pos]
        support = tuple(_int(tok, lineno, "qudit index") for tok in s.split()[1:])
        if any(a >= b for a, b in zip(support, support[1:])):
            raise SpecParseError(
                "support must list its qudits in strictly ascending order",
                lineno)
        pos += 1
        if pos >= len(lines) or lines[pos][1] != "matrix":
            raise SpecParseError("projector block needs a 'matrix' line",
                                 lineno)
        pos += 1
        side = d ** len(support)
        matrix = _parse_matrix(lines[pos:pos + side], side, validate)
        pos += side
        if pos >= len(lines) or lines[pos][1] != "end":
            raise SpecParseError("projector block must close with 'end'",
                                 lines[pos - 1][0])
        pos += 1
        projectors.append(LocalProjector(support, matrix))
    try:
        ps = ProjectorSet(d, qudits, projectors)
    except ValueError as exc:
        raise SpecParseError(str(exc)) from None
    if validate:
        diagnostics = []
        for i, p in enumerate(ps.projectors):
            diag = validate_projector(p)
            if not diag.passed:
                raise SpecParseError(
                    f"projector {i} fails validation: hermiticity dev "
                    f"{diag.hermiticity_deviation:.3e}, idempotency dev "
                    f"{diag.idempotency_deviation:.3e}, spectrum dev "
                    f"{diag.spectrum_deviation:.3e}")
            diagnostics.append(diag)
        ps.diagnostics = tuple(diagnostics)
    return ps


def format_projector_spec(ps: ProjectorSet) -> str:
    import numpy as np

    out = [f"d {ps.d}", f"qudits {ps.qudit_count}"]
    for p in ps.projectors:
        out.append("projector")
        out.append("support " + " ".join(str(q) for q in p.support))
        out.append("matrix")
        for row in np.asarray(p.matrix):
            out.append("  ".join(f"{float(z.real)!r} {float(z.imag)!r}"
                                 for z in row))
        out.append("end")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Events and weights tables

def _line_at(lines: list[tuple[int, str]], pos: int, expected: str
             ) -> tuple[int, str]:
    """``lines[pos]``; past the end, an error naming the last line read."""
    if pos < len(lines):
        return lines[pos]
    raise SpecParseError(f"file ends here; expected {expected!r} next",
                         lines[pos - 1][0])


def _parse_graph_block(lines: list[tuple[int, str]], pos: int):
    lineno, s = lines[pos]
    parts = s.split()
    if len(parts) != 2 or parts[0] != "vertices":
        raise SpecParseError("expected 'vertices N'", lineno)
    n = _int(parts[1], lineno, "vertex count")
    if n < 0:
        raise SpecParseError("vertex count must be non-negative", lineno)
    pos += 1
    lineno, s = _line_at(lines, pos, "edges M")
    parts = s.split()
    if len(parts) != 2 or parts[0] != "edges":
        raise SpecParseError("expected 'edges M'", lineno)
    m = _int(parts[1], lineno, "edge count")
    if m < 0:
        raise SpecParseError("edge count must be non-negative", lineno)
    pos += 1
    edges = _edges(lines[pos:pos + m], n)
    if len(edges) < m:
        raise SpecParseError(f"expected {m} edge lines, file ended early")
    return build_graph(n, edges), pos + m


def _parse_key(tok: str, lineno: int, n: int) -> tuple[int, ...]:
    try:
        key = tuple(map(_integer, tok.split(",")))
    except ValueError:
        raise SpecParseError(f"bad vertex-set key {tok!r}", lineno) from None
    if key != tuple(sorted(key)) or len(set(key)) != len(key):
        raise SpecParseError(
            f"key {tok!r} must list distinct ascending vertices", lineno)
    if key and not (0 <= key[0] and key[-1] < n):
        raise SpecParseError(f"key {tok!r} has a vertex out of range", lineno)
    return key


def _parse_table_spec(text: str, keyword: str | None):
    """``parse_table_spec`` of a spec whose entries are ``keyword`` lines;
    without ``keyword``, 'weight' if the first entry line is one, else 'prob'.
    """
    lines = list(_lines(text))
    if not lines:
        raise SpecParseError("empty table file")
    graph, pos = _parse_graph_block(lines, 0)
    lineno, s = _line_at(lines, pos, "max-size K")
    parts = s.split()
    if len(parts) != 2 or parts[0] != "max-size":
        raise SpecParseError("expected 'max-size K'", lineno)
    max_size = _int(parts[1], lineno, "max set size")
    if max_size < 1:
        raise SpecParseError("max-size must be at least 1", lineno)
    pos += 1
    if keyword is None:
        keyword = ("weight" if pos < len(lines)
                   and lines[pos][1].split()[0] == "weight" else "prob")
    table = {}
    while pos < len(lines):
        lineno, s = lines[pos]
        parts = s.split()
        if parts[0] != keyword:
            raise SpecParseError(f"expected '{keyword}' line, got {s!r}", lineno)
        if len(parts) not in (3, 4):
            raise SpecParseError(
                f"'{keyword}' line needs a key and one or two numbers", lineno)
        key = _parse_key(parts[1], lineno, graph.vertex_count)
        if len(key) > max_size:
            raise SpecParseError(
                f"key {parts[1]} exceeds declared max-size {max_size}", lineno)
        re = _finite(parts[2], lineno)
        im = _finite(parts[3], lineno) if len(parts) == 4 else 0.0
        if key in table:
            raise SpecParseError(f"duplicate entry for {parts[1]}", lineno)
        table[key] = complex(re, im)
        pos += 1
    # the enumeration is lazy, so a table that lacks a set costs at most
    # its own size plus one set, however many sets the graph has
    for p in enumerate_connected_subgraphs(graph, max_size):
        if p not in table:
            raise SpecParseError(
                f"table is missing connected set {p}; every connected set "
                f"up to size {max_size} needs an entry")
    if keyword == "weight":
        def fn(polymer):
            try:
                return table[tuple(polymer)]
            except KeyError:
                raise SpecParseError(
                    f"weights table has no entry for polymer "
                    f"{tuple(polymer)}; declared max-size is {max_size}"
                ) from None

        return "weights", (graph, WeightOracle(fn), max_size)
    probs = {}
    for key, value in table.items():
        if value.imag != 0.0 or not 0.0 <= value.real <= 1.0:
            raise SpecParseError(
                f"probability for {key} must be real in [0, 1], got {value}")
        probs[key] = value.real
    for key, value in probs.items():
        for v in key:
            smaller = tuple(x for x in key if x != v)
            if smaller in probs and value > probs[smaller] + 1e-12:
                raise SpecParseError(
                    f"probability table is not monotone: P{key} = {value} > "
                    f"P{smaller} = {probs[smaller]}")
    return "events", EventTableOracle(graph, probs, max_size)


def parse_table_spec(text: str):
    """Parse an events- or weights-spec, as its first ``prob`` or ``weight``
    line makes it, into ("events", EventTableOracle) or ("weights", (graph,
    WeightOracle, max_size)); a line of the other kind is an error there."""
    return _parse_table_spec(text, None)


def parse_events_spec(text: str) -> EventTableOracle:
    """Parse an events-spec into a table-backed event oracle.

    Values must be probabilities in [0, 1], non-increasing when a connected
    set is extended by one vertex (where both sets are in the table).
    """
    return _parse_table_spec(text, "prob")[1]


def parse_weights_spec(text: str):
    """Parse a weights-spec; returns (graph, WeightOracle, max_size)."""
    return _parse_table_spec(text, "weight")[1]


def format_events_spec(oracle: EventTableOracle) -> str:
    g = oracle.graph
    out = [f"vertices {g.vertex_count}", f"edges {g.edge_count()}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    out.append(f"max-size {oracle.max_size}")
    for key in sorted(oracle.table):
        out.append("prob " + ",".join(map(str, key)) + f" {oracle.table[key]!r}")
    return "\n".join(out) + "\n"


def format_weights_spec(graph: DependencyGraph, table: dict, max_size: int) -> str:
    out = [f"vertices {graph.vertex_count}", f"edges {graph.edge_count()}"]
    out.extend(f"{u} {v}" for u, v in graph.edges())
    out.append(f"max-size {max_size}")
    for key in sorted(table):
        w = complex(table[key])
        entry = f"{w.real!r}" if w.imag == 0.0 else f"{w.real!r} {w.imag!r}"
        out.append("weight " + ",".join(map(str, key)) + " " + entry)
    return "\n".join(out) + "\n"


def parse_coloring(text: str, n: int) -> Coloring:
    """Parse `v c` lines into a coloring of vertices 0..n-1, each colored
    once; ``cnf.proper_coloring`` checks it on the graph it colors."""
    class_of = [-1] * n
    for lineno, s in _lines(text):
        parts = s.split()
        if len(parts) != 2:
            raise SpecParseError("coloring line must be 'v c'", lineno)
        v = _int(parts[0], lineno, "vertex")
        c = _int(parts[1], lineno, "color")
        if not 0 <= v < n:
            raise SpecParseError(f"vertex {v} out of range", lineno)
        if c < 0:
            raise SpecParseError("colors must be non-negative", lineno)
        if class_of[v] != -1:
            raise SpecParseError(f"vertex {v} colored twice", lineno)
        class_of[v] = c
    if any(c == -1 for c in class_of):
        raise SpecParseError("coloring does not cover every vertex")
    used = sorted(set(class_of))
    remap = {c: i for i, c in enumerate(used)}
    return Coloring(tuple(remap[c] for c in class_of), len(used))
