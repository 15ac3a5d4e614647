"""Property tests of the classical front end's fast paths against literal
loops: the one-pass DIMACS clause line, the per-clause bound read from clause
widths, and the SATLIB `%` trailer."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llcount.cnf import (CnfFormula, cnf_dependency_graph,
                         intersection_problem, joint_false_probability,
                         parse_dimacs)
from llcount.errors import SpecParseError

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


def _reference_parse(text):
    """DIMACS read one token at a time: each literal is converted, each
    clause closed and checked for a repeated variable at its `0`.  One
    `p cnf` header at most, whose clause count must match."""
    declared = declared_clauses = None
    clauses = []
    max_var = 0
    current = []
    current_line = None
    trailer = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
            if len(parts) != 4 or parts[1] != "cnf":
                raise SpecParseError(f"bad problem line {s!r}", lineno)
            if declared is not None:
                raise SpecParseError(f"second problem line {s!r}", lineno)
            try:
                declared = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError:
                raise SpecParseError(f"bad problem line {s!r}", lineno) from None
            continue
        for tok in s.split():
            try:
                lit = int(tok)
            except ValueError:
                raise SpecParseError(f"bad literal {tok!r}", lineno) from None
            if lit == 0:
                _close(clauses, current, current_line or lineno)
                current = []
                current_line = None
                continue
            if current_line is None:
                current_line = lineno
            current.append(lit)
            max_var = max(max_var, abs(lit))
    if current:
        _close(clauses, current, current_line)
    n = declared if declared is not None else max_var
    if max_var > n:
        raise SpecParseError(f"variable {max_var} exceeds declared count {n}")
    if declared_clauses is not None and declared_clauses != len(clauses):
        raise SpecParseError(f"header declares {declared_clauses} clauses, "
                             f"found {len(clauses)}")
    return CnfFormula(n, tuple(clauses))


def _close(clauses, literals, lineno):
    if not literals:
        raise SpecParseError("empty clause", lineno)
    seen = set()
    for lit in literals:
        if abs(lit) in seen:
            raise SpecParseError(f"variable {abs(lit)} repeated in clause",
                                 lineno)
        seen.add(abs(lit))
    clauses.append(tuple(literals))


def _outcome(parse, text):
    try:
        return parse(text)
    except SpecParseError as exc:
        return ("error", str(exc))


_literal = st.integers(1, 9).flatmap(
    lambda v: st.sampled_from([str(v), str(-v)]))
# whole clauses, which take the one-pass path unless a variable repeats
_clause_line = st.lists(_literal, min_size=1, max_size=5).map(
    lambda lits: " ".join(lits) + " 0")
# anything: several clauses, clause fragments, odd numerals, bad tokens
_token = st.one_of(st.integers(-9, 9).map(str),
                   st.sampled_from(["+3", "1_0", "-0", "x", "2.0", "00"]))
_any_line = st.lists(_token, min_size=1, max_size=7).map(" ".join)
_special = st.sampled_from(["", "c a comment", "p cnf 9 4", "p cnf 3 2",
                            "p cnf x 1", "p dnf 3 1", "%", "0", "  0  "])
_lines = st.lists(st.one_of(_clause_line, _clause_line, _any_line, _special),
                  max_size=12)


@SETTINGS
@given(_lines, st.sampled_from(["", "  ", "\t"]))
@example(["p cnf 3 1", "1 1 x 0"], "")        # bad token after a repeat
@example(["p cnf 3 1", "1 -1 0 x"], "")       # repeat closed before it
@example(["1 2", "3 0 4 0"], "")              # spanning, then two clauses
@example(["+3 1_0 0", "1 2 3 0 2 2 0"], "")   # numerals; a later repeat
@example(["c x", "p cnf 3 1", "1 -2 3 0", "%", "0"], "")
def test_parse_dimacs_matches_per_token_reader(lines, pad):
    text = "\n".join(pad + s + pad for s in lines) + "\n"
    assert _outcome(parse_dimacs, text) == _outcome(_reference_parse, text)


@st.composite
def _headed(draw):
    """Lines under a `p cnf 9 M` header whose M is the number of clauses they
    close (whole clause lines, comments and blanks), or off by one."""
    body = draw(st.lists(st.one_of(_clause_line, _clause_line,
                                   st.sampled_from(["", "c a comment"])),
                         max_size=12))
    count = sum(s.endswith(" 0") for s in body)
    count += draw(st.sampled_from([0, 0, 0, -1, 1]))
    return [f"p cnf 9 {count}"] + body


@SETTINGS
@given(_headed(), st.sampled_from(["", "  ", "\t"]))
@example(["p cnf 9 2", "1 -2 0", "c x", "3 4 5 0"], "")
@example(["p cnf 9 1", "1 -2 0", "3 4 5 0"], "")      # declares too few
def test_parse_dimacs_with_header_matches_per_token_reader(lines, pad):
    text = "\n".join(pad + s + pad for s in lines) + "\n"
    assert _outcome(parse_dimacs, text) == _outcome(_reference_parse, text)


def test_satlib_trailer_is_accepted():
    f = parse_dimacs("c x\np cnf 3 1\n1 -2 3 0\n%\n0\n")
    assert f == CnfFormula(3, ((1, -2, 3),))
    # blank lines and comments may follow, with or without the lone 0
    assert parse_dimacs("1 2 0\n%\n\nc end\n0\n\n") == CnfFormula(2, ((1, 2),))
    assert parse_dimacs("1 2 0\n%\n") == CnfFormula(2, ((1, 2),))


@pytest.mark.parametrize("text,line,what", [
    ("p cnf 3 2\n1 2 0\n%\n0\n-1 3 0\n", 5, "-1 3 0"),   # a clause after it
    ("p cnf 3 1\n1 2 0\n%\n3 0\n", 4, "3 0"),
    ("p cnf 3 1\n1 2 0\n%\n0\n0\n", 5, "0"),             # a second lone 0
    ("p cnf 3 1\n1 2 0\n%\n%\n", 4, "%"),
    ("1 2 0\n%\np cnf 3 1\n", 3, "p cnf 3 1"),
])
def test_satlib_trailer_rejects_anything_else(text, line, what):
    with pytest.raises(SpecParseError) as err:
        parse_dimacs(text)
    assert str(err.value) == (f"line {line}: unexpected {what!r} after the "
                              "'%' trailer")


@st.composite
def formulas(draw):
    """Random clauses over at most 12 variables, sometimes with one clause
    wide enough that 2^-width is subnormal or rounds to 0."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = 12
    clauses = []
    for _ in range(draw(st.integers(0, 8))):
        width = rng.randint(1, n)
        clauses.append(tuple(v if rng.random() < 0.5 else -v
                             for v in rng.sample(range(1, n + 1), width)))
    wide = draw(st.sampled_from([None, 1022, 1074, 1075, 1100]))
    if wide is not None:
        n = wide
        clauses.insert(rng.randint(0, len(clauses)),
                       tuple(range(-1, -wide - 1, -1)))
    return CnfFormula(n, tuple(clauses))


class _JointFalseOracle:
    """The CNF's events behind the generic event interface, so that
    ``intersection_problem`` reads each Pr[false] from
    ``joint_false_probability``."""

    def __init__(self, f):
        self.f = f

    def joint_complement_probability(self, vertices):
        return joint_false_probability(self.f, vertices)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(formulas(), st.sampled_from([0.1, 1.0, 3.0]))
def test_per_clause_bound_equals_joint_false_probability(f, delta):
    for i, c in enumerate(f.clauses):
        assert math.ldexp(1.0, -len(c)) == float(
            joint_false_probability(f, (i,)))
    graph = cnf_dependency_graph(f)
    got = intersection_problem(f, graph, None, delta)
    want = intersection_problem(_JointFalseOracle(f), graph, None, delta)
    assert got.checks == want.checks
    assert (got.delta_used, got.chi) == (want.delta_used, want.chi)
