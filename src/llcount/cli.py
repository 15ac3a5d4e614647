"""Batch command-line front end.

Subcommands run the four counting pipelines plus hypothesis checks and the
exact oracles; reports are printed as human-readable text or JSON lines.
Exit codes: 0 success, 2 hypothesis violation without --force, 3 parse error,
4 resource cap exceeded, 5 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
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


def _sniff(text: str) -> str:
    for match in _LINE.finditer(text):
        s = match[0].split("#", 1)[0].strip()
        if not s:
            continue
        first = s.split()[0]
        if first in ("p", "c") or first.lstrip("-").isdigit():
            return "cnf"
        if first == "d":
            return "projectors"
        if first == "vertices":
            return "table"
        return "unknown"
    return "unknown"


def _load_table_spec(text: str):
    from . import formats

    # events-spec and weights-spec share a grammar; distinguish by keyword.
    if any(line.split()[0] == "weight" for _, line in formats._lines(text)):
        return "weights", formats.parse_weights_spec(text)
    return "events", formats.parse_events_spec(text)


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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", type=float, default=0.1,
                   help="target relative error in (0, 1]")
    p.add_argument("--delta", type=float, default=0.1,
                   help="decay-margin parameter of the hypotheses")
    p.add_argument("--force", action="store_true",
                   help="compute even when a checked hypothesis fails "
                        "(no error certificate)")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads for weight evaluation")
    p.add_argument("--coloring", metavar="PATH",
                   help="optional proper-coloring file (v c lines)")
    p.add_argument("--format", choices=("human", "jsonl"), default="human")
    p.add_argument("--dense-cap", type=int, default=None,
                   help="cap on dense operator dimension per evaluation")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 3, the parse-error code:
    argparse's own 2 is the hypothesis-violation code.  Subcommand parsers
    take their parent's class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="llcount",
        description="Certified approximate counting via truncated "
                    "cluster expansions.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count-sat", help="approximate #SAT of a DIMACS CNF")
    p.add_argument("input")
    _add_common(p)
    p.add_argument("--exact-rational", action="store_true",
                   help="exact rational truncated expansion (CNF weights "
                        "are dyadic); only the final exp rounds")

    p = sub.add_parser("prob-intersection",
                       help="approximate Pr[all events] from a DIMACS CNF "
                            "or an events-spec")
    p.add_argument("input")
    _add_common(p)

    p = sub.add_parser("qsat-commuting",
                       help="kernel-intersection dimension, commuting family")
    p.add_argument("input")
    _add_common(p)

    p = sub.add_parser("qsat-general",
                       help="kernel-intersection dimension, general family")
    p.add_argument("input")
    _add_common(p)
    p.add_argument("--mode", choices=("stability", "detectability"),
                   default="stability")
    p.add_argument("--t", type=int, default=1,
                   help="detectability rounds (mode=detectability)")
    p.add_argument("--lambda-star", type=float, default=None,
                   help="certified lower bound on the spectral gap")

    p = sub.add_parser("polymer-z",
                       help="approximate a polymer partition function from "
                            "a graph+weights spec")
    p.add_argument("input")
    _add_common(p)

    p = sub.add_parser("check", help="hypothesis report only")
    p.add_argument("input")
    _add_common(p)
    p.add_argument("--t", type=int, default=None,
                   help="also check the detectability rank condition at t, "
                        "and choose m as qsat-general --mode detectability "
                        "does")
    p.add_argument("--stability-cap", type=int, default=3)

    p = sub.add_parser("oracle", help="exact desk-scale oracles")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    for name, help_text, extra in (
            ("sat-count", "exhaustive satisfying-assignment count", ()),
            ("prob", "exact inclusion-exclusion probability", ()),
            ("dim", "exact kernel-intersection dimension and gap", ()),
            ("detect-trace", "exact detectability trace", ("t",)),
            ("polymer-z", "exact polymer partition function", ()),
            ("ursell", "brute-force Ursell function of an edge-list graph", ())):
        op = osub.add_parser(name, help=help_text)
        op.add_argument("input")
        op.add_argument("--format", choices=("human", "jsonl"), default="human")
        if "t" in extra:
            op.add_argument("--t", type=int, default=1)
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
    cap = getattr(args, "dense_cap", None)
    if cap is None:
        cap = OracleBudget.from_env().max_dense_dim
    ps.dense_cap = cap
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


def _reject_coloring(args, where: str) -> None:
    if args.coloring:
        raise SpecParseError(f"--coloring does not apply to {where}")


def _maybe_coloring(args, graph_of):
    """The ``--coloring`` file parsed against the graph ``graph_of()``, which
    is built only when the flag is given; None without the flag."""
    if getattr(args, "coloring", None):
        from . import formats

        return formats.parse_coloring(_read(args.coloring), graph_of())
    return None


def _run_count_sat(args) -> dict:
    f = cnfmod.parse_dimacs(_read(args.input))
    coloring = _maybe_coloring(args, lambda: cnfmod.cnf_dependency_graph(f))
    res = cnfmod.count_satisfying(
        f, args.epsilon, args.delta, coloring=coloring, force=args.force,
        threads=args.threads, exact=args.exact_rational)
    return {"command": "count-sat", "input": args.input,
            "value": res.count, "normalized_value": res.probability,
            "absolute_value": res.count, "chi": res.chi_used,
            "variable_count": res.variable_count,
            "delta_requested": res.delta_requested,
            **_approx_fields(res.approx)}


def _run_prob_intersection(args) -> dict:
    text = _read(args.input)
    if _sniff(text) == "cnf":
        source = cnfmod.parse_dimacs(text)
        coloring = _maybe_coloring(
            args, lambda: cnfmod.cnf_dependency_graph(source))
    else:
        kind, source = _load_table_spec(text)
        if kind != "events":
            raise SpecParseError("prob-intersection needs a CNF or events-spec")
        coloring = _maybe_coloring(args, lambda: source.graph)
    res = cnfmod.approx_probability_intersection(
        source, args.epsilon, args.delta, coloring=coloring,
        force=args.force, threads=args.threads)
    return {"command": "prob-intersection", "input": args.input,
            "value": res.probability, "normalized_value": res.probability,
            "chi": res.chi_used, "delta_requested": res.delta_requested,
            **_approx_fields(res.approx)}


def _run_qsat_commuting(args) -> dict:
    from . import qsat

    ps = _load_projectors(_read(args.input), args)
    res = qsat.approx_dim_commuting(
        ps, args.epsilon, args.delta,
        coloring=_maybe_coloring(args, lambda: support_dependency_graph(ps)),
        force=args.force, threads=args.threads)
    return _dim_report("qsat-commuting", args, res, ps)


def _dim_report(command: str, args, res: qsat.DimensionResult,
                ps: ProjectorSet) -> dict:
    return {"command": command, "input": args.input,
            "value": res.normalized, "normalized_value": res.normalized,
            "absolute_value": res.absolute,
            "log2_absolute_value": res.log2_absolute, "chi": res.chi_used,
            "d": ps.d, "qudit_count": ps.qudit_count,
            "method": res.method, "delta_requested": res.delta_requested,
            **_approx_fields(res.approx)}


def _run_qsat_general(args) -> dict:
    from . import qsat

    ps = _load_projectors(_read(args.input), args)
    if args.mode == "stability":
        _reject_coloring(args, "qsat-general --mode stability")
        res = qsat.approx_dim_general(ps, args.epsilon, args.delta,
                                      force=args.force, threads=args.threads)
        return _dim_report("qsat-general", args, res, ps)
    params = qsat.DetectabilityParams(
        t=args.t, epsilon=args.epsilon,
        coloring=_maybe_coloring(args, lambda: support_dependency_graph(ps)),
        lambda_star=args.lambda_star)
    res = qsat.approx_dim_detectability(ps, params, args.delta,
                                        force=args.force, threads=args.threads)
    return {"command": "qsat-general", "input": args.input,
            "mode": "detectability", "value": res.z,
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
    _reject_coloring(args, "polymer-z")
    approx = approx_partition_function(graph, oracle, args.epsilon, args.delta,
                                       force=args.force, threads=args.threads)
    return {"command": "polymer-z", "input": args.input,
            "value": approx.value.real, "value_im": approx.value.imag,
            "delta_requested": args.delta, **_approx_fields(approx)}


def _run_check(args) -> dict:
    """The run commands' hypothesis checks, from the same problem builders."""
    text = _read(args.input)
    kind = _sniff(text)
    if kind == "table":
        kind, parsed = _load_table_spec(text)
    problem = None
    if kind == "cnf":
        f = cnfmod.parse_dimacs(text)
        graph = cnfmod.cnf_dependency_graph(f)
        problem = cnfmod.count_problem(
            f, graph, _maybe_coloring(args, lambda: graph), args.delta)
        checks = problem.checks
        extra = {"delta_used": problem.delta_used}
    elif kind == "events":
        graph = parsed.graph
        problem = cnfmod.intersection_problem(
            parsed, graph, _maybe_coloring(args, lambda: graph), args.delta)
        checks = problem.checks
        extra = {"delta_used": problem.delta_used}
    elif kind == "projectors":
        from . import qsat

        ps = _load_projectors(text, args)
        graph = support_dependency_graph(ps)
        coloring = _maybe_coloring(args, lambda: graph)
        problem = qsat.commuting_problem(ps, graph, coloring, args.delta)
        # the stability probe and the delta suggestion read one oracle and
        # the one graph
        oracle = qsat.general_oracle(ps)
        checks = [_validation_check(ps), *problem.checks,
                  qsat.stability_check(ps, args.stability_cap, args.delta,
                                       oracle=oracle, graph=graph).as_check()]
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
        _reject_coloring(args, "check on a weights-spec")
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
    return {"command": "check", "input": args.input,
            "status": "pass" if all(c.passed for c in checks) else "fail",
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
        if _sniff(text) == "cnf":
            value = float(oracles.exact_inclusion_exclusion_probability(
                cnfmod.parse_dimacs(text), budget=budget))
        else:
            kind, parsed = _load_table_spec(text)
            if kind != "events":
                raise SpecParseError("oracle prob needs a CNF or events-spec")
            value = oracles.exact_inclusion_exclusion_probability(
                parsed, budget=budget)
    elif cmd == "dim":
        ps = formats.parse_projector_spec(text)
        exact = oracles.exact_dimension_full_diagonalization(ps, budget=budget)
        return {"command": "oracle-dim", "input": args.input,
                "value": exact.normalized_dim,
                "normalized_value": exact.normalized_dim,
                "absolute_value": exact.absolute_dim,
                "lambda_star": exact.lambda_star}
    elif cmd == "detect-trace":
        ps = formats.parse_projector_spec(text)
        coloring = greedy_coloring(support_dependency_graph(ps))
        value = oracles.exact_detectability_trace(ps, coloring, args.t,
                                                  budget=budget)
    elif cmd == "polymer-z":
        graph, oracle, _ = formats.parse_weights_spec(text)
        z = oracles.brute_force_polymer_z(graph, oracle, budget=budget)
        return {"command": "oracle-polymer-z", "input": args.input,
                "value": z.real, "value_im": z.imag}
    elif cmd == "ursell":
        graph = formats.parse_edge_list(text)
        frac = oracles.ursell_bruteforce(graph, budget=budget)
        return {"command": "oracle-ursell", "input": args.input,
                "value": float(frac), "exact": str(frac)}
    else:  # pragma: no cover - argparse prevents this
        raise SpecParseError(f"unknown oracle {cmd!r}")
    return {"command": f"oracle-{cmd}", "input": args.input, "value": value}


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
    for flag in ("t", "threads", "dense_cap", "stability_cap"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise SpecParseError(
                f"--{flag.replace('_', '-')} must be a positive integer")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    fmt = getattr(args, "format", "human")
    start = time.perf_counter()
    try:
        _validate_args(args)
        report = _RUNNERS[args.command](args)
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
