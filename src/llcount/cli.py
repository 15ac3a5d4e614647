"""Batch command-line front end.

Subcommands run the four counting pipelines plus hypothesis checks and the
exact oracles; reports are printed as human-readable text or JSON lines.
Exit codes: 0 success, 2 hypothesis violation without --force, 3 parse error,
4 resource cap exceeded, 5 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import re
import sys
import time
from pathlib import Path

from . import cnf as cnfmod
from ._lazy import lazy_getattr
from .clusters import (ApproxResult, ConditionCheck,
                       approx_partition_function, capped_truncation_order,
                       check_weight_condition)
from .errors import LLCountError, SpecParseError
from .graphs import greedy_coloring, support_dependency_graph

# The projector stack loads numpy, which no CNF or table command needs, and
# only spec inputs and --coloring read a spec, so the runners import these
# where they use them.  Their names stay resolvable on this module for
# callers that look them up here.
__getattr__ = lazy_getattr(__name__, {
    "formats": "formats", "oracles": "oracles", "qsat": "qsat",
    "ProjectorSet": "projectors", "verify_commuting": "projectors"})


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecParseError(f"cannot read {path}: {exc}") from None


# A run of characters that ``str.splitlines`` does not split at: the
# non-empty lines, found one at a time.
_LINE = re.compile("[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]+")
# A DIMACS literal, in the grammar of every integer field (``cnf._integer``).
_LITERAL = re.compile("[+-]?[0-9]+")


def _sniff(text: str) -> str:
    for match in _LINE.finditer(text):
        s = match[0].split("#", 1)[0].strip()
        if not s:
            continue
        first = s.split()[0]
        if first in ("p", "c") or _LITERAL.fullmatch(first):
            return "cnf"
        if first == "d":
            return "projectors"
        if first == "vertices":
            return "table"
        return "unknown"
    return "unknown"


def _conditions_json(checks) -> list[dict]:
    return [{"name": c.name, "passed": c.passed, "margin": c.margin,
             "detail": c.detail} for c in checks]


def _approx_fields(approx: ApproxResult) -> dict:
    fields = {
        "m": approx.truncation_order,
        "delta_used": approx.delta,
        "epsilon": approx.epsilon,
        "log_error_bound": approx.additive_log_error_bound,
        "log_value_re": approx.log_value.real,
        "log_value_im": approx.log_value.imag,
        "graph_order": approx.graph_order,
        "max_degree": approx.max_degree,
        "cluster_count": approx.cluster_count,
        "conditions": _conditions_json(approx.checks),
        "forced": approx.forced,
        "status": "forced" if approx.forced else "ok",
        "elapsed_s": approx.elapsed,
    }
    if approx.exact_log is not None:
        fields["log_value_exact"] = str(approx.exact_log)
    return fields


def _emit(report: dict, fmt: str, stream=None) -> None:
    stream = stream or sys.stdout
    if fmt == "jsonl":
        stream.write(json.dumps(report, sort_keys=True) + "\n")
        return
    order = ("command", "input", "status", "value", "normalized_value",
             "absolute_value", "log2_absolute_value", "m", "epsilon",
             "delta_requested", "delta_used", "log_value_re", "log_value_im",
             "log_error_bound", "graph_order", "max_degree", "chi",
             "cluster_count", "lambda_star", "t",
             "relative_coefficient", "additive_part", "worst_case_total",
             "suggested_delta", "forced", "elapsed_s")
    for key in order:
        if key in report:
            stream.write(f"{key:>20}: {report[key]}\n")
    for cond in report.get("conditions", ()):
        flag = "pass" if cond["passed"] else "FAIL"
        stream.write(f"{'condition':>20}: [{flag}] {cond['name']} "
                     f"(margin {cond['margin']:.6g}) {cond['detail']}\n")
    for key in sorted(report):
        if key not in order and key != "conditions":
            stream.write(f"{key:>20}: {report[key]}\n")


# Every flag of every command, written once: its add_argument keywords.  The
# flags that some mode or input kind of a command does not read (_UNREAD)
# default to None, so a run can tell that they were given.  Numbers follow
# the input grammar (cnf._ascii).
_FLAGS = {
    "--epsilon": dict(type=cnfmod._real, default=0.1,
                      help="target relative error in (0, 1]"),
    "--delta": dict(type=cnfmod._real, default=0.1,
                    help="decay-margin parameter of the hypotheses"),
    "--force": dict(action="store_true", help="compute even when a checked "
                    "hypothesis fails (no error certificate)"),
    "--threads": dict(type=cnfmod._integer, default=1,
                      help="worker threads for weight evaluation"),
    "--coloring": dict(metavar="PATH",
                       help="optional proper-coloring file (v c lines)"),
    "--format": dict(choices=("human", "jsonl"), default="human"),
    "--dense-cap": dict(type=cnfmod._integer,
                        help="cap on dense operator dimension per evaluation"),
    "--exact-rational": dict(action="store_true", help="exact rational "
                             "expansion; only the final exp rounds"),
    "--mode": dict(choices=("stability", "detectability"),
                   default="stability"),
    "--t": dict(type=cnfmod._integer, help="detectability rounds (default 1)"),
    "--lambda-star": dict(type=cnfmod._real, help="certified lower bound "
                          "on the spectral gap"),
}

_RUN = "--epsilon --delta --force --threads --coloring --format"

# Each command's help line and the flags its runner reads.
_COMMANDS = {
    "count-sat": ("approximate #SAT of a DIMACS CNF",
                  _RUN + " --exact-rational"),
    "prob-intersection": ("approximate Pr[all events] from a DIMACS CNF or "
                          "an events-spec", _RUN),
    "qsat-commuting": ("kernel-intersection dimension, commuting family",
                       _RUN + " --dense-cap"),
    "qsat-general": ("kernel-intersection dimension, general family",
                     _RUN + " --dense-cap --mode --t --lambda-star"),
    "polymer-z": ("approximate a polymer partition function from a "
                  "graph+weights spec",
                  "--epsilon --delta --force --threads --format"),
    "check": ("hypothesis report only", "--epsilon --delta --coloring "
              "--format --dense-cap --t"),
}
_ORACLES = {
    "sat-count": ("exhaustive satisfying-assignment count", "--format"),
    "prob": ("exact inclusion-exclusion probability", "--format"),
    "dim": ("exact kernel-intersection dimension and gap", "--format"),
    "detect-trace": ("exact detectability trace", "--format --t"),
    "polymer-z": ("exact polymer partition function", "--format"),
    "ursell": ("brute-force Ursell function of an edge-list graph",
               "--format"),
}

# The flags that a command takes but one of its modes or input kinds ignores.
_UNREAD = {
    ("qsat-general", "stability"): "--coloring --t --lambda-star",
    ("check", "cnf"): "--t --dense-cap",
    ("check", "events"): "--t --dense-cap",
    ("check", "weights"): "--coloring --t --dense-cap",
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 3, the parse-error code:
    argparse's own 2 is the hypothesis-violation code.  Subcommand parsers
    take their parent's class, and refuse a flag they do not take with their
    own usage rather than leave it to the top-level parser.  Abbreviated
    flags are refused: ``--t`` is not ``--threads``."""

    def __init__(self, *args, allow_abbrev: bool = False, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


def _add_commands(sub, commands: dict) -> None:
    for name, (help_text, flags) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input")
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="llcount",
        description="Certified approximate counting via truncated "
                    "cluster expansions.")
    sub = ap.add_subparsers(dest="command", required=True)
    _add_commands(sub, _COMMANDS)
    oracle = sub.add_parser("oracle", help="exact desk-scale oracles")
    _add_commands(oracle.add_subparsers(dest="oracle_command", required=True),
                  _ORACLES)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process: parsing leaves no state
    on it, and building it costs milliseconds per call in a batch."""
    return build_parser()


def _load_projectors(text: str, args) -> ProjectorSet:
    """Parse and validate a projector spec and set its dense cap: --dense-cap,
    else LLCOUNT_MAX_DENSE_DIM, else the default."""
    from . import formats
    from .oracles import OracleBudget

    ps = formats.parse_projector_spec(text)
    ps.dense_cap = args.dense_cap or OracleBudget.from_env().max_dense_dim
    return ps


def _validation_check(ps: ProjectorSet) -> ConditionCheck:
    """Parsing validated every projector and rejects the spec on the first
    failure; the margin is the tolerance less the largest deviation."""
    from .projectors import VALIDATION_TOL

    diags = ps.diagnostics
    detail = f"{len(diags)} projectors validated"
    if not diags:
        return ConditionCheck("projector-validation", True, VALIDATION_TOL,
                              detail)
    i = max(range(len(diags)), key=lambda k: diags[k].worst_deviation)
    worst = diags[i]
    return ConditionCheck(
        "projector-validation", True,
        VALIDATION_TOL - worst.worst_deviation,
        f"{detail}; largest deviation at projector {i}: hermiticity "
        f"{worst.hermiticity_deviation:.3e}, idempotency "
        f"{worst.idempotency_deviation:.3e}, spectrum "
        f"{worst.spectrum_deviation:.3e}")


def _refuse_unread(args, kind: str, where: str) -> None:
    """Refuse, naming it, a flag given to a mode or input ``kind`` of the
    command that does not read it; the error calls that run ``where``."""
    for flag in _UNREAD.get((args.command, kind), "").split():
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise SpecParseError(f"{flag} does not apply to {where}")


def _maybe_coloring(args, n: int):
    """The ``--coloring`` file as a coloring of ``n`` vertices; None without
    the flag.  Whether it is proper is checked on the run's graph."""
    if args.coloring:
        from . import formats

        return formats.parse_coloring(_read(args.coloring), n)
    return None


def _run_count_sat(args) -> dict:
    f = cnfmod.parse_dimacs(_read(args.input))
    coloring = _maybe_coloring(args, f.clause_count)
    res = cnfmod.count_satisfying(
        f, args.epsilon, args.delta, coloring=coloring, force=args.force,
        threads=args.threads, exact=args.exact_rational)
    return {"value": res.count, "normalized_value": res.probability,
            "absolute_value": res.count, "chi": res.chi_used,
            "variable_count": res.variable_count,
            "delta_requested": res.delta_requested,
            **_approx_fields(res.approx)}


def _events(text: str, command: str):
    """The events of a DIMACS CNF or an events-spec, and their number."""
    if _sniff(text) == "cnf":
        f = cnfmod.parse_dimacs(text)
        return f, f.clause_count
    from . import formats

    kind, source = formats.parse_table_spec(text)
    if kind != "events":
        raise SpecParseError(f"{command} needs a CNF or events-spec")
    return source, source.graph.vertex_count


def _run_prob_intersection(args) -> dict:
    source, n = _events(_read(args.input), "prob-intersection")
    res = cnfmod.approx_probability_intersection(
        source, args.epsilon, args.delta,
        coloring=_maybe_coloring(args, n), force=args.force,
        threads=args.threads)
    return {"value": res.probability, "normalized_value": res.probability,
            "chi": res.chi_used, "delta_requested": res.delta_requested,
            **_approx_fields(res.approx)}


def _run_qsat_commuting(args) -> dict:
    from . import qsat

    ps = _load_projectors(_read(args.input), args)
    res = qsat.approx_dim_commuting(
        ps, args.epsilon, args.delta,
        coloring=_maybe_coloring(args, len(ps)), force=args.force,
        threads=args.threads)
    return _dim_report(res, ps)


def _dim_report(res: qsat.DimensionResult, ps: ProjectorSet) -> dict:
    return {"value": res.normalized, "normalized_value": res.normalized,
            "absolute_value": res.absolute,
            "log2_absolute_value": res.log2_absolute, "chi": res.chi_used,
            "d": ps.d, "qudit_count": ps.qudit_count,
            "method": res.method, "delta_requested": res.delta_requested,
            **_approx_fields(res.approx)}


def _run_qsat_general(args) -> dict:
    from . import qsat

    _refuse_unread(args, args.mode, f"qsat-general --mode {args.mode}")
    ps = _load_projectors(_read(args.input), args)
    if args.mode == "stability":
        res = qsat.approx_dim_general(ps, args.epsilon, args.delta,
                                      force=args.force, threads=args.threads)
        return _dim_report(res, ps)
    res = qsat.approx_dim_detectability(
        ps, args.epsilon, args.delta, t=args.t or 1,
        coloring=_maybe_coloring(args, len(ps)), lambda_star=args.lambda_star,
        force=args.force, threads=args.threads)
    return {"mode": "detectability", "value": res.z,
            "normalized_value": res.z, "absolute_value": res.absolute_z,
            "log2_absolute_value": res.log2_absolute_z,
            "chi": res.chi_used, "d": ps.d, "qudit_count": ps.qudit_count,
            "t": res.t, "lambda_star": res.lambda_star,
            "relative_coefficient": res.relative_coefficient,
            "additive_part": res.additive_part,
            "worst_case_total": res.worst_case_total,
            "delta_requested": res.delta_requested,
            **_approx_fields(res.approx)}


def _run_polymer_z(args) -> dict:
    from . import formats

    graph, oracle, _ = formats.parse_weights_spec(_read(args.input))
    approx = approx_partition_function(graph, oracle, args.epsilon, args.delta,
                                       force=args.force, threads=args.threads)
    return {"value": approx.value.real, "value_im": approx.value.imag,
            "delta_requested": args.delta, **_approx_fields(approx)}


def _run_check(args) -> dict:
    """The run commands' hypothesis checks, from the same problem builders."""
    text = _read(args.input)
    kind = _sniff(text)
    if kind == "table":
        from . import formats

        kind, parsed = formats.parse_table_spec(text)
    _refuse_unread(args, kind, f"check on {kind} input")
    problem = None
    if kind == "cnf":
        f = cnfmod.parse_dimacs(text)
        graph = cnfmod.cnf_dependency_graph(f)
        problem = cnfmod.count_problem(
            f, graph, _maybe_coloring(args, f.clause_count), args.delta)
        checks = problem.checks
        extra = {"delta_used": problem.delta_used}
    elif kind == "events":
        graph = parsed.graph
        problem = cnfmod.intersection_problem(
            parsed, graph, _maybe_coloring(args, graph.vertex_count),
            args.delta)
        checks = problem.checks
        extra = {"delta_used": problem.delta_used}
    elif kind == "projectors":
        from . import qsat

        ps = _load_projectors(text, args)
        graph = support_dependency_graph(ps)
        coloring = _maybe_coloring(args, len(ps))
        problem = qsat.commuting_problem(ps, graph, coloring, args.delta)
        # the stability probe runs at the order the delta suggestion starts
        # from; both read one oracle and the one graph
        oracle = qsat.general_oracle(ps)
        checks = [_validation_check(ps), *problem.checks,
                  qsat.stability_check(ps, qsat.SUGGEST_INITIAL_PROBE,
                                       args.delta, oracle=oracle,
                                       graph=graph).as_check()]
        extra = {"suggested_delta":
                 qsat.suggest_delta_general(ps, args.epsilon, oracle=oracle,
                                            graph=graph)}
        if args.t:
            # the order and graph reported are then qsat-general --mode
            # detectability's, on the product graph
            problem = qsat.detectability_problem(ps, graph, coloring, args.t,
                                                 args.delta)
            graph = problem.graph
            checks += problem.checks
    elif kind == "weights":
        graph, oracle, _ = parsed
        m = capped_truncation_order(graph.vertex_count, graph.max_degree(),
                                    args.delta, args.epsilon)
        checks = [check_weight_condition(graph, oracle, m,
                                         args.delta).as_check()]
        extra = {"m": m, "delta_used": args.delta}
    else:
        raise SpecParseError("unrecognized input format")
    if problem is not None:
        extra["chi"] = problem.chi
        if all(c.passed for c in problem.checks):
            # a run command reaches the truncation order, and its cap, only
            # once its problem's hypotheses hold
            extra["delta_used"] = problem.delta_used
            extra["m"] = capped_truncation_order(
                graph.vertex_count, graph.max_degree(), problem.delta_used,
                args.epsilon)
    return {"status": "pass" if all(c.passed for c in checks) else "fail",
            "conditions": _conditions_json(checks),
            "graph_order": graph.vertex_count,
            "max_degree": graph.max_degree(), **extra}


def _run_oracle(args) -> dict:
    from . import formats, oracles

    cmd = args.oracle_command
    budget = oracles.OracleBudget.from_env()
    text = _read(args.input)
    if cmd == "sat-count":
        f = cnfmod.parse_dimacs(text)
        value = oracles.brute_force_sat_count(f, budget=budget)
    elif cmd == "prob":
        value = float(oracles.exact_inclusion_exclusion_probability(
            _events(text, "oracle prob")[0], budget=budget))
    elif cmd == "dim":
        ps = formats.parse_projector_spec(text)
        exact = oracles.exact_dimension_full_diagonalization(ps, budget=budget)
        return {"command": "oracle-dim", "value": exact.normalized_dim,
                "normalized_value": exact.normalized_dim,
                "absolute_value": exact.absolute_dim,
                "lambda_star": exact.lambda_star}
    elif cmd == "detect-trace":
        ps = formats.parse_projector_spec(text)
        coloring = greedy_coloring(support_dependency_graph(ps))
        value = oracles.exact_detectability_trace(ps, coloring, args.t or 1,
                                                  budget=budget)
    elif cmd == "polymer-z":
        graph, oracle, _ = formats.parse_weights_spec(text)
        z = oracles.brute_force_polymer_z(graph, oracle, budget=budget)
        return {"command": "oracle-polymer-z", "value": z.real,
                "value_im": z.imag}
    elif cmd == "ursell":
        graph = formats.parse_edge_list(text)
        frac = oracles.ursell_bruteforce(graph, budget=budget)
        return {"command": "oracle-ursell", "value": float(frac),
                "exact": str(frac)}
    return {"command": f"oracle-{cmd}", "value": value}


_RUNNERS = {
    "count-sat": _run_count_sat,
    "prob-intersection": _run_prob_intersection,
    "qsat-commuting": _run_qsat_commuting,
    "qsat-general": _run_qsat_general,
    "polymer-z": _run_polymer_z,
    "check": _run_check,
    "oracle": _run_oracle,
}


def _validate_args(args) -> None:
    epsilon = getattr(args, "epsilon", None)
    if epsilon is not None and not 0.0 < epsilon <= 1.0:
        raise SpecParseError("--epsilon must lie in (0, 1]")
    delta = getattr(args, "delta", None)
    if delta is not None and not (math.isfinite(delta) and delta > 0.0):
        raise SpecParseError("--delta must be finite and positive")
    lambda_star = getattr(args, "lambda_star", None)
    if lambda_star is not None and not (math.isfinite(lambda_star)
                                        and lambda_star >= 0.0):
        raise SpecParseError("--lambda-star must be finite and non-negative")
    for flag in ("t", "threads", "dense_cap"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise SpecParseError(
                f"--{flag.replace('_', '-')} must be a positive integer")


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The cyclic garbage collector is paused for the call: a call makes few
    reference cycles, and reference counting frees the rest of its garbage,
    so the collections it would set off mostly walk live data.  The
    caller's collector state is restored however the call ends, an escaping
    exception included.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv) -> int:
    args = _parser().parse_args(argv)
    fmt = args.format
    start = time.perf_counter()
    try:
        _validate_args(args)
        # an oracle's report names the oracle in its own "command"
        report = {"command": args.command, "input": args.input,
                  **_RUNNERS[args.command](args)}
    except LLCountError as exc:
        err = {"command": args.command, "error": str(exc),
               "exit_code": exc.exit_code}
        checks = getattr(exc, "checks", None)
        if checks:
            err["conditions"] = _conditions_json(checks)
        _emit(err, fmt, sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        # numpy's LinAlgError subclasses ValueError; it can only have been
        # raised if a command has loaded numpy.
        numpy = sys.modules.get("numpy")
        if numpy is not None and isinstance(exc, numpy.linalg.LinAlgError):
            code, error = 5, f"linear algebra failure: {exc}"
        else:
            code, error = 3, f"invalid input: {exc}"
        _emit({"command": args.command, "error": error, "exit_code": code},
              fmt, sys.stderr)
        return code
    report.setdefault("elapsed_s", time.perf_counter() - start)
    _emit(report, fmt)
    if args.command == "check" and report.get("status") != "pass":
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
