"""Probability-of-intersection pipeline: generic event families via a joint
complement-probability table, and the concrete k-CNF satisfying-assignment
counter.

Events are indexed by vertices of a strong dependency graph; disconnected
parts of the graph must correspond to fully independent event sets (for the
table path this is an unverifiable promise of the input).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .clusters import (ApproxResult, ConditionCheck, Problem, WeightOracle,
                       approx_partition_function, holder_delta,
                       weight_decay_threshold)
from .errors import SpecParseError
from .graphs import (Coloring, DependencyGraph, greedy_coloring,
                     intersection_graph)


class CnfFormula:
    """CNF over variables 1..variable_count with DIMACS-style signed literals.

    Each clause is a tuple of nonzero ints with pairwise distinct variables;
    construction raises ValueError otherwise, or for a literal whose
    variable lies outside 1..variable_count.  Formulas compare and hash by
    value.
    """

    __slots__ = ("variable_count", "clauses", "_forcings")

    def __init__(self, variable_count: int,
                 clauses: tuple[tuple[int, ...], ...]) -> None:
        self.variable_count = variable_count
        self.clauses = clauses
        self._forcings = None
        n = variable_count
        for i, c in enumerate(clauses):
            variables = set(map(abs, c))
            if len(variables) != len(c):
                v = next(abs(lit) for j, lit in enumerate(c)
                         if abs(lit) in map(abs, c[:j]))
                raise ValueError(f"clause {i}: variable {v} repeated")
            if variables and (0 in variables or max(variables) > n):
                v = 0 if 0 in variables else max(variables)
                raise ValueError(
                    f"clause {i}: variable {v} outside 1..{n}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.variable_count == other.variable_count
                and self.clauses == other.clauses)

    def __hash__(self) -> int:
        return hash((self.variable_count, self.clauses))

    def __repr__(self) -> str:
        return (f"CnfFormula(variable_count={self.variable_count!r}, "
                f"clauses={self.clauses!r})")

    @property
    def clause_count(self) -> int:
        return len(self.clauses)

    def uniform_k(self) -> int | None:
        """Common clause width, or None if widths differ (or no clauses)."""
        widths = set(map(len, self.clauses))
        if len(widths) == 1:
            return widths.pop()
        return None

    def min_width(self) -> int | None:
        return min(map(len, self.clauses), default=None)

    @property
    def forcings(self) -> tuple[tuple[int, int, int], ...]:
        """Per clause, (offset, mask, pattern): ``clause_forcing`` shifted right
        by offset = smallest variable - 1, so no int built is n bits wide.
        Built on first use.
        """
        if self._forcings is None:
            out = []
            for c in self.clauses:
                offset = min(map(abs, c), default=1) - 1
                out.append((offset, *clause_forcing(c, offset)))
            self._forcings = tuple(out)
        return self._forcings


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF text; raises SpecParseError with a line number.

    A literal is an ASCII integer, ``[+-]?[0-9]+``; 0 closes a clause.  A
    clause mentioning the same variable twice is rejected.  The `p cnf`
    header is optional; without it the variable count is inferred.  At most
    one header may appear, its counts are ASCII integers of at least 0, and
    its clause count must match the clauses read.  A line starting with `%`
    opens the SATLIB trailer: after it only blank lines, comments and one
    lone `0` may follow.

    A line holding exactly one whole clause, in ASCII, is read by whole-line
    string and int operations; any other line (a header, a comment, a bad
    token, several clauses, a clause spanning lines) goes through the
    per-token loop, which decides every error.
    """
    declared_vars = declared_clauses = None
    clauses: list[tuple[int, ...]] = []
    max_var = 0
    current: list[int] = []
    current_line = None
    trailer = None  # after a '%' line: whether its lone '0' has been seen
    # on ASCII text without '_', int() reads exactly [+-]?[0-9]+
    plain = text.isascii() and "_" not in text
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # a whole clause on one line, the common case, read without a
        # per-token loop
        if ((plain or raw.isascii() and "_" not in raw) and not current
                and trailer is None and raw.endswith(" 0")):
            try:
                lits = tuple(map(int, raw[:-2].split()))
            except ValueError:
                pass
            else:
                variables = set(map(abs, lits))
                if lits and len(variables) == len(lits) and 0 not in variables:
                    clauses.append(lits)
                    max_var = max(max_var, max(variables))
                    continue
        s = raw.strip()
        if not s or s.startswith("c"):
            continue
        if trailer is not None:
            if s == "0" and not trailer:
                trailer = True
                continue
            raise SpecParseError(
                f"unexpected {s!r} after the '%' trailer", lineno)
        if s.startswith("%"):
            trailer = False
            continue
        if s.startswith("p"):
            parts = s.split()
            if len(parts) != 4 or parts[:2] != ["p", "cnf"]:
                raise SpecParseError(f"bad problem line {s!r}", lineno)
            if declared_vars is not None:
                raise SpecParseError(f"second problem line {s!r}", lineno)
            try:
                declared_vars, declared_clauses = map(_count, parts[2:])
            except ValueError:
                raise SpecParseError(f"bad problem line {s!r}",
                                     lineno) from None
            continue
        read = int if s.isascii() and "_" not in s else _integer
        for tok in s.split():
            try:
                lit = read(tok)
            except ValueError:
                raise SpecParseError(f"bad literal {tok!r}", lineno) from None
            if lit == 0:
                _append_clause(clauses, current, current_line or lineno)
                current = []
                current_line = None
                continue
            if current_line is None:
                current_line = lineno
            current.append(lit)
            max_var = max(max_var, abs(lit))
    if current:
        _append_clause(clauses, current, current_line)
    n = declared_vars if declared_vars is not None else max_var
    if max_var > n:
        raise SpecParseError(
            f"variable {max_var} exceeds declared count {n}")
    if declared_clauses is not None and declared_clauses != len(clauses):
        raise SpecParseError(f"header declares {declared_clauses} clauses, "
                             f"found {len(clauses)}")
    # each clause was checked as it closed: skip __init__'s second pass
    formula = object.__new__(CnfFormula)
    formula.variable_count = n
    formula.clauses = tuple(clauses)
    formula._forcings = None
    return formula


def _ascii(read):
    """``read`` (int or float, whose name it takes for argparse) on an ASCII
    token without '_'; ``read`` alone would take '1_2' and non-ASCII digits."""
    def parse(tok: str):
        if not tok.isascii() or "_" in tok:
            raise ValueError(f"not an ASCII number: {tok!r}")
        return read(tok)

    parse.__name__ = read.__name__
    return parse


# every number of every input: ASCII [+-]?[0-9]+, or an ASCII float() numeral
_integer, _real = _ascii(int), _ascii(float)


def _count(tok: str) -> int:
    """The value of an ASCII ``[+-]?[0-9]+`` token of at least 0; ValueError
    otherwise."""
    n = _integer(tok)
    if n < 0:
        raise ValueError(f"negative count: {tok!r}")
    return n


def _append_clause(clauses: list, literals: list[int], lineno: int) -> None:
    if not literals:
        raise SpecParseError("empty clause", lineno)
    seen = set()
    for lit in literals:
        v = abs(lit)
        if v in seen:
            raise SpecParseError(f"variable {v} repeated in clause", lineno)
        seen.add(v)
    clauses.append(tuple(literals))


def cnf_dependency_graph(f: CnfFormula) -> DependencyGraph:
    """One vertex per clause; an edge iff the clauses share a variable."""
    return intersection_graph(map(abs, c) for c in f.clauses)


def clause_forcing(clause: Sequence[int], offset: int = 0) -> tuple[int, int]:
    """Bit-encoded assignment forced by falsifying the clause.

    Literal +v forces v=0, -v forces v=1; returned as (mask, pattern) ints
    with bit v-1-offset set in mask, and in pattern when the forced value is
    1.  Every variable of the clause must exceed ``offset``.
    """
    base = offset + 1
    mask = 0
    pattern = 0
    for lit in clause:
        if lit > 0:
            mask |= 1 << (lit - base)
        else:
            bit = 1 << (-lit - base)
            mask |= bit
            pattern |= bit
    return mask, pattern


def _forced_bits(f: CnfFormula, clause_indices: Sequence[int]) -> int | None:
    """How many variables falsifying all listed clauses forces, or None when
    no assignment falsifies them all."""
    forcings = f.forcings
    base = min((forcings[i][0] for i in clause_indices), default=0)
    mask = pattern = 0
    for i in clause_indices:
        offset, cm, cp = forcings[i]
        cm <<= offset - base
        cp <<= offset - base
        if (mask & cm) & (pattern ^ cp):
            return None
        mask |= cm
        pattern |= cp
    return mask.bit_count()


def cnf_labels(f: CnfFormula, g: DependencyGraph
               ) -> tuple[list[int], list[list[int | None]]]:
    """The ``WeightOracle.labels`` of clause polymers on ``g``, the formula's
    dependency graph: each clause's mask (its forcing mask, over the
    variables from its offset + 1 on); and on each edge from a clause to a
    higher one, twice the difference of their offsets, plus 1 when the two
    force a shared variable to opposite values.  The edges to lower clauses
    get None, which ``graphs.keyed_ball`` does not read.

    Sound because a polymer's weight is 0 when two of its clauses clash, and
    otherwise depends only on its size and on the number of variables its
    clauses hold.  Only adjacent clauses share a variable, so only they can
    clash, and a ball is connected, so the offset differences on its edges
    fix every relative offset.  Equal keys therefore make one ball's clauses
    a shift of the other's with the same clashing pairs: every set of
    positions has the same clashes and the same variable count on both,
    hence the same shared ``Fraction``.  Literal signs enter only through
    the clashes.
    """
    forcings = f.forcings
    edges = []
    for v, (offset, mask, pattern) in enumerate(forcings):
        row = []
        for w in g.neighbors(v):
            if w < v:
                row.append(None)
                continue
            w_offset, w_mask, w_pattern = forcings[w]
            shift = w_offset - offset
            # both clauses placed over the variables from the lower offset on
            up, w_up = max(-shift, 0), max(shift, 0)
            clash = ((mask << up) & (w_mask << w_up)
                     & ((pattern << up) ^ (w_pattern << w_up)))
            row.append(2 * shift + (clash != 0))
        edges.append(row)
    return [mask for _, mask, _ in forcings], edges


_ZERO = Fraction(0)


@functools.cache
def _dyadic(bits: int, negative: bool) -> Fraction:
    """The shared ``Fraction`` (-1)^negative / 2^bits (Fractions are
    immutable, so one object serves every polymer with these values)."""
    return Fraction(-1 if negative else 1, 1 << bits)


def joint_false_probability(f: CnfFormula, clause_indices: Sequence[int]) -> Fraction:
    """Exact probability that all listed clauses are simultaneously false."""
    bits = _forced_bits(f, clause_indices)
    return _ZERO if bits is None else _dyadic(bits, False)


def cnf_polymer_weight(f: CnfFormula, polymer: Sequence[int]) -> Fraction:
    """(-1)^|polymer| times the probability all clauses in it are false."""
    bits = _forced_bits(f, polymer)
    return _ZERO if bits is None else _dyadic(bits, len(polymer) % 2 == 1)


class EventTableOracle:
    """Joint complement probabilities keyed by connected vertex sets.

    Backed by an explicit table (the events-spec file format); a lookup for a
    missing connected set is an input error.
    """

    def __init__(self, graph: DependencyGraph, table: dict[tuple[int, ...], float],
                 max_size: int):
        self.graph = graph
        self.table = dict(table)
        self.max_size = max_size

    def joint_complement_probability(self, vertices: Sequence[int]) -> float:
        key = tuple(sorted(vertices))
        if not key:
            return 1.0
        try:
            return self.table[key]
        except KeyError:
            raise SpecParseError(
                f"events table has no entry for connected set {key}; "
                f"declared max-size is {self.max_size}") from None


class ProbabilityResult(NamedTuple):
    """Probability of the intersection of all events, with provenance."""

    approx: ApproxResult
    probability: float
    chi_used: int
    delta_requested: float


def k_condition_check(f: CnfFormula, delta: float, max_degree: int,
                      chi: int) -> ConditionCheck:
    """Width condition under which k-CNF counting is certified."""
    k = f.min_width()
    if k is None:
        return ConditionCheck("k-condition", True, math.inf, "no clauses")
    required = (chi / math.log(2)) * (math.log(2 * max_degree + 1) + 1 + delta)
    uniform = f.uniform_k()
    note = "" if uniform is not None else " (non-uniform widths; using min width)"
    detail = (f"k = {k} vs required {required:.4f} "
              f"(chi={chi}, D={max_degree}, delta={delta}){note}")
    return ConditionCheck("k-condition", k >= required, k - required, detail)


def proper_coloring(graph: DependencyGraph, coloring: Coloring | None
                    ) -> Coloring:
    """``coloring`` verified against ``graph``; greedy when None."""
    if coloring is None:
        return greedy_coloring(graph)
    coloring.assert_proper(graph)
    return coloring


def intersection_problem(source, graph: DependencyGraph,
                         coloring: Coloring | None, delta: float) -> Problem:
    """The events of ``source`` (a CnfFormula or an event oracle) as a
    polymer model, under max Pr[complement] <= (1/(e^(1+delta)(2D+1)))^chi."""
    labels = None
    if isinstance(source, CnfFormula):
        # a clause's variables are distinct, so it is false with probability
        # 2^-width, and the narrowest clause is the likeliest to be
        worst = math.ldexp(1.0, -source.min_width()) if source.clauses else 0.0
        weight_fn = functools.partial(cnf_polymer_weight, source)
        labels = functools.partial(cnf_labels, source)
    else:
        prob = source.joint_complement_probability
        worst = max((float(prob((v,))) for v in graph.vertices()),
                    default=0.0)

        def weight_fn(polymer):
            p = prob(polymer)
            return -p if len(polymer) % 2 else p

    chi = proper_coloring(graph, coloring).num_colors
    dmax = graph.max_degree()
    bound = weight_decay_threshold(delta, dmax) ** chi
    check = ConditionCheck(
        "per-event-probability", worst <= bound, bound - worst,
        f"max Pr[complement] = {worst:.6g} vs "
        f"(1/(e^(1+delta)(2D+1)))^chi = {bound:.6g} "
        f"(delta={delta}, D={dmax}, chi={chi})")
    # events in one colour class are independent, so a polymer's events are
    # all false with probability at most worst^(|polymer|/chi)
    return Problem(graph, WeightOracle(weight_fn, labels), [check],
                   holder_delta(worst, chi, dmax, delta, check.passed), chi,
                   (worst, chi))


def approx_probability_intersection(source, epsilon: float, delta: float, *,
                                    coloring: Coloring | None = None,
                                    force: bool = False, threads: int = 1,
                                    exact: bool = False) -> ProbabilityResult:
    """Multiplicative epsilon-approximation of Pr[all events occur].

    ``source`` is a CnfFormula or an EventTableOracle.  The per-event
    complement probabilities must satisfy the coloring-exponent bound; when
    they do, the certified decay rate (which is at least the requested delta)
    is the paper's.  The truncation order is the smaller of the paper's and
    the Kotecky-Preiss rule's under the Hoelder bound of the events
    (``clusters.truncation``).
    """
    if isinstance(source, CnfFormula):
        graph = cnf_dependency_graph(source)
    elif hasattr(source, "joint_complement_probability"):
        # any oracle with a .graph and joint complement probabilities; the
        # strong-dependency factorization across disconnected parts is the
        # caller's (unverifiable) promise
        graph = source.graph
    else:
        raise TypeError("source must be a CnfFormula or an event oracle")
    problem = intersection_problem(source, graph, coloring, delta)
    approx = approx_partition_function(
        graph, problem.oracle, epsilon, problem.delta_used, force=force,
        threads=threads, exact=exact, extra_checks=problem.checks,
        holder=problem.holder)
    return ProbabilityResult(approx, approx.real_value(), problem.chi, delta)


class CountResult(NamedTuple):
    """Approximate satisfying-assignment count."""

    approx: ApproxResult
    count: float
    probability: float
    variable_count: int
    chi_used: int
    delta_requested: float


def count_problem(f: CnfFormula, graph: DependencyGraph,
                  coloring: Coloring | None, delta: float) -> Problem:
    """The k-condition, then ``intersection_problem`` of the clauses."""
    problem = intersection_problem(f, graph, coloring, delta)
    kcheck = k_condition_check(f, delta, graph.max_degree(), problem.chi)
    return problem._replace(checks=[kcheck] + problem.checks)


def count_satisfying(f: CnfFormula, epsilon: float, delta: float, *,
                     coloring: Coloring | None = None, force: bool = False,
                     threads: int = 1, exact: bool = False) -> CountResult:
    """Approximate the number of satisfying assignments of a k-CNF.

    Requires the width condition k >= (chi/log 2)(log(2D+1)+1+delta); the
    count is 2^n times the approximate probability of satisfying all clauses.
    """
    graph = cnf_dependency_graph(f)
    problem = count_problem(f, graph, coloring, delta)
    approx = approx_partition_function(
        graph, problem.oracle, epsilon, problem.delta_used, force=force,
        threads=threads, exact=exact, extra_checks=problem.checks,
        holder=problem.holder)
    p = approx.real_value()
    return CountResult(approx, math.ldexp(p, f.variable_count), p,
                       f.variable_count, problem.chi, delta)
