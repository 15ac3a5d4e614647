"""Exact references for every benchmark call, used after the timed window.

* Chain and ring CNFs: an exact satisfying-assignment count by a transfer
  matrix over the blocks of variables that neighbouring clauses share, far
  past the oracles' 20-event and 26-variable caps.  It is cross-checked
  against ``llcount.oracles`` on the instances small enough for them.
* Projector families: ``oracles.exact_dimension_full_diagonalization``; the
  detectability calls are held to their affine bound.

A call passes when it exits with its expected code and, where it carries a
multiplicative certificate, when |log value - log exact| is at most its
``log_error_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from perfbench.inputs import CnfInstance, ProjectorFamily

# Slack for floating-point rounding in a comparison against a certificate.
ROUNDING = 1e-9


@dataclass
class Verdict:
    ok: bool
    log_err: float | None = None
    note: str = ""


# ---------------------------------------------------------------------------
# CNF chains and rings

def _block_patterns(f: CnfInstance, i: int) -> tuple[int, int]:
    """Assignments of the left and right shared blocks that falsify clause i.

    Bit j of a block pattern is the value of the block's j-th variable; a
    literal +v is falsified by v=0 and -v by v=1.
    """
    step = f.k - f.share
    modulus = f.variable_count if f.shape == "ring" else None
    left = right = 0
    for lit in f.clauses[i]:
        offset = abs(lit) - 1 - i * step
        if modulus is not None:
            offset %= modulus
        bit = 1 if lit < 0 else 0
        if offset < f.share:
            left |= bit << offset
        elif offset >= step:
            right |= bit << (offset - step)
    return left, right


def exact_cnf_count(f: CnfInstance) -> int:
    """Exact number of satisfying assignments of a chain or ring CNF.

    Clause i covers shared block B_i, ``k - 2*share`` private variables and
    shared block B_{i+1}; it is falsified by one pattern on each.  A vector
    indexed by the assignment of B_i is pushed across the clauses; a ring
    closes B_n = B_0 by fixing B_0 and taking the trace.
    """
    if not 2 * f.share <= f.k:
        raise ValueError("transfer matrix needs share <= k/2")
    states = 1 << f.share
    free = 1 << (f.k - 2 * f.share)
    patterns = [_block_patterns(f, i) for i in range(len(f.clauses))]

    def push(v: list[int]) -> list[int]:
        for left, right in patterns:
            total = sum(v) * free
            hit = v[left]
            v = [total] * states
            v[right] -= hit
        return v

    if f.shape == "chain":
        return sum(push([1] * states))
    count = 0
    for start in range(states):
        v = [0] * states
        v[start] = 1
        count += push(v)[start]
    return count


def exact_cnf_log_probability(f: CnfInstance) -> float:
    """log Pr[all clauses satisfied] under uniform assignments."""
    return math.log(exact_cnf_count(f)) - f.variable_count * math.log(2.0)


def to_formula(f: CnfInstance):
    from llcount.cnf import CnfFormula
    return CnfFormula(f.variable_count, f.clauses)


def cross_check_cnf(f: CnfInstance) -> Verdict:
    """Compare the transfer matrix with the inclusion-exclusion oracle."""
    from llcount import oracles
    exact = oracles.exact_inclusion_exclusion_probability(to_formula(f))
    mine = Fraction(exact_cnf_count(f), 1 << f.variable_count)
    return Verdict(exact == mine, 0.0,
                   "" if exact == mine else f"oracle {exact} != {mine}")


# ---------------------------------------------------------------------------
# Projector families

def _embed(matrix: np.ndarray, support: tuple[int, ...], n: int) -> np.ndarray:
    """Embed an operator on the contiguous qubits ``support`` into n qubits."""
    if tuple(support) != tuple(range(support[0], support[0] + len(support))):
        raise ValueError("support must be a contiguous run of qubits")
    left = np.eye(2 ** support[0])
    right = np.eye(2 ** (n - support[0] - len(support)))
    return np.kron(np.kron(left, matrix), right)


def max_commutator(fam: ProjectorFamily) -> float:
    """Largest entry of [P_i, P_j] over all pairs, on the full register."""
    full = [_embed(m, s, fam.qudit_count) for s, m in fam.projectors]
    worst = 0.0
    for i in range(len(full)):
        for j in range(i + 1, len(full)):
            c = full[i] @ full[j] - full[j] @ full[i]
            worst = max(worst, float(np.max(np.abs(c))))
    return worst


def to_projector_set(fam: ProjectorFamily):
    from llcount.projectors import LocalProjector, ProjectorSet
    return ProjectorSet(2, fam.qudit_count,
                        [LocalProjector(s, m) for s, m in fam.projectors])


# ---------------------------------------------------------------------------
# Verdicts per call

def _certified(report: dict, exact_log: complex) -> Verdict:
    approx = complex(report["log_value_re"], report["log_value_im"])
    err = abs(approx - exact_log)
    bound = report["log_error_bound"]
    ok = err <= bound * (1.0 + ROUNDING) + ROUNDING
    return Verdict(ok, err, "" if ok else
                   f"|log value - log exact| = {err:.3e} > bound {bound:.3e}")


class References:
    """Exact answers for one generated workload, computed once per input."""

    def __init__(self, workload):
        self.workload = workload
        self._cache: dict = {}

    def _exact(self, input_id: str):
        if input_id not in self._cache:
            self._cache[input_id] = self._compute(
                self.workload.instances[input_id])
        return self._cache[input_id]

    @staticmethod
    def _compute(inst):
        from llcount import oracles
        if isinstance(inst, CnfInstance):
            return exact_cnf_log_probability(inst)
        return oracles.exact_dimension_full_diagonalization(
            to_projector_set(inst)).normalized_dim

    def verdict(self, call, outcome: dict) -> Verdict:
        if outcome["exception"] is not None:
            return Verdict(False, note=f"raised {outcome['exception']}")
        if outcome["exit"] != call.expect_exit:
            return Verdict(False, note=f"exit {outcome['exit']}, expected "
                                       f"{call.expect_exit}")
        report = outcome["report"]
        command = call.argv[0]
        inst = self.workload.instances[call.input]
        if command == "check":
            return self._check_verdict(inst, report)
        if report is None:
            return Verdict(False, note="no report")
        if "--mode" in call.argv:
            return self._affine_verdict(report, self._exact(call.input))
        exact = self._exact(call.input)
        if isinstance(inst, ProjectorFamily):
            exact = math.log(exact)
        verdict = _certified(report, exact)
        if command == "count-sat" and verdict.ok:
            verdict = self._count_consistent(inst, report, verdict)
        return verdict

    @staticmethod
    def _count_consistent(inst: CnfInstance, report: dict,
                          verdict: Verdict) -> Verdict:
        if "log_value_exact" in report:
            exact_log = float(Fraction(report["log_value_exact"]))
            if abs(exact_log - report["log_value_re"]) > ROUNDING:
                return Verdict(False, verdict.log_err,
                               "log_value_exact disagrees with log_value_re")
        count = report["value"]
        expected = report["log_value_re"] + inst.variable_count * math.log(2.0)
        if not (count > 0 and abs(math.log(count) - expected) <= ROUNDING * max(1.0, expected)):
            return Verdict(False, verdict.log_err,
                           f"count {count} != 2^n exp(log value)")
        return verdict

    @staticmethod
    def _check_verdict(inst, report: dict | None) -> Verdict:
        if report is None:
            return Verdict(False, note="no report")
        conditions = {c["name"]: c["passed"] for c in report["conditions"]}
        if isinstance(inst, CnfInstance):
            # a chain of k-clauses sharing <= k/2 variables is a path
            want = {"graph_order": len(inst.clauses), "max_degree": 2, "chi": 2}
            got = {k: report.get(k) for k in want}
            ok = got == want and report["status"] == "pass"
            return Verdict(ok, note="" if ok else f"check reported {got}, "
                                                   f"status {report['status']}")
        commutator = max_commutator(inst)
        ok = (report["status"] == "fail" and commutator > 1e-8
              and conditions.get("pairwise-commutation") is False)
        return Verdict(ok, note="" if ok else
                       f"commutator {commutator:.3e} but check says "
                       f"pairwise-commutation={conditions.get('pairwise-commutation')}")

    @staticmethod
    def _affine_verdict(report: dict, exact_dim: float) -> Verdict:
        allowed = (report["relative_coefficient"] * exact_dim
                   + report["additive_part"])
        err = abs(report["value"] - exact_dim)
        ok = err <= allowed * (1.0 + ROUNDING) + ROUNDING
        return Verdict(ok, None, "" if ok else
                       f"|z - dim| = {err:.3e} > affine bound {allowed:.3e}")
