"""One hypothesis layer: the problem builders, ``require``, and parity between
``check`` and the run commands, condition by condition and field by field."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

import llcount.cnf
from llcount.cli import main
from llcount.clusters import ConditionCheck, require
from llcount.cnf import (EventTableOracle, clause_forcing,
                         joint_false_probability)
from llcount.errors import HypothesisViolation
from llcount.formats import (format_events_spec, format_projector_spec,
                             format_weights_spec)
from llcount.graphs import build_graph
from llcount.projectors import LocalProjector, ProjectorSet

from gen import (chain_cnf, disjoint_family, noncommuting_pair,
                 overlapping_pair, single_fat_projector)


def _call(capsys, argv):
    """(exit code, report, conditions by name).  The report is the stdout
    line, or the stderr error of a failed run command."""
    code = main(argv + ["--format", "jsonl"])
    captured = capsys.readouterr()
    stream = captured.out if captured.out.strip() else captured.err
    report = json.loads(stream.strip().splitlines()[-1])
    return code, report, {c["name"]: c for c in report.get("conditions", ())}


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _cnf_text(f):
    lines = [f"p cnf {f.variable_count} {len(f.clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in f.clauses]
    return "\n".join(lines) + "\n"


def _path_events(p):
    """Independent events on the path 0-1-2, each complement of probability
    p; every connected set is in the table."""
    g = build_graph(3, [(0, 1), (1, 2)])
    table = {(0,): p, (1,): p, (2,): p, (0, 1): p * p, (1, 2): p * p,
             (0, 1, 2): p ** 3}
    return EventTableOracle(g, table, 3)


# ---------------------------------------------------------------------------
# require


def test_require_names_the_first_failed_check_and_lists_them_all():
    checks = [ConditionCheck("a", True, 1.0, "fine"),
              ConditionCheck("b", False, -1.0, "b detail"),
              ConditionCheck("c", False, -2.0, "c detail")]
    with pytest.raises(HypothesisViolation) as info:
        require(checks, force=False)
    assert str(info.value) == "b fails: b detail"
    assert info.value.checks == checks
    require(checks, force=True)
    require(checks[:1], force=False)
    require([], force=False)


# ---------------------------------------------------------------------------
# check against the run commands


@pytest.mark.parametrize("k, share, coloring", [
    (12, 6, None), (14, 6, "0 0\n1 1\n2 2\n3 0\n"), (6, 3, None)])
def test_check_cnf_matches_count_sat(tmp_path, capsys, k, share, coloring):
    f = chain_cnf(random.Random(5), 4, k=k, share=share)
    path = _write(tmp_path, "f.cnf", _cnf_text(f))
    flags = ["--coloring", _write(tmp_path, "f.col", coloring)] if coloring else []
    check_code, check, check_conds = _call(capsys, ["check", path] + flags)
    run_code, run, run_conds = _call(capsys, ["count-sat", path] + flags)
    assert check_code == run_code == (0 if k > 6 else 2)
    for name in ("k-condition", "per-event-probability"):
        assert check_conds[name] == run_conds[name]
    if run_code == 0:
        for key in ("chi", "delta_used", "m", "graph_order", "max_degree"):
            assert check[key] == run[key], key
        assert run["chi"] == (3 if coloring else 2)


# per-event probability -> (flags, exit code); at 0.005 the hypotheses hold,
# but at epsilon 1e-6 the paper's certified delta needs m = 363 and the
# Kotecky-Preiss rule m = 21, both past cap 14
EVENT_CASES = {0.001: ([], 0), 0.2: ([], 2),
               0.005: (["--delta", "0.01", "--epsilon", "1e-6"], 4)}


@pytest.mark.parametrize("p", sorted(EVENT_CASES))
def test_check_events_spec_matches_prob_intersection(tmp_path, capsys, p):
    flags, code = EVENT_CASES[p]
    path = _write(tmp_path, "e.spec", format_events_spec(_path_events(p)))
    check_code, check, check_conds = _call(capsys, ["check", path] + flags)
    run_code, run, run_conds = _call(capsys,
                                     ["prob-intersection", path] + flags)
    assert check_code == run_code == code
    if code == 4:
        assert check["error"] == run["error"]
        assert "truncation order 21 exceeds cap 14" in run["error"]
        return
    run_conds.pop("weight-decay", None)
    assert check_conds == run_conds
    assert list(check_conds) == ["per-event-probability"]
    if run_code == 0:
        for key in ("chi", "delta_used", "m", "graph_order", "max_degree"):
            assert check[key] == run[key], key


def _single_qubit_rank_half():
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    return ProjectorSet(2, 1, [LocalProjector((0,), p0)])


COMMUTING_CASES = {
    "commuting-pair": (lambda: overlapping_pair(random.Random(8), 9, 7, 1),
                       None),
    "noncommuting-pair": (lambda: noncommuting_pair(random.Random(4), 0.05),
                          None),
    "rank-fails": (_single_qubit_rank_half, None),
    "disjoint-own-colors": (
        lambda: disjoint_family(random.Random(3), blocks=3, block_qubits=3),
        "0 0\n1 1\n2 2\n"),
}


@pytest.mark.parametrize("case", sorted(COMMUTING_CASES))
def test_check_projectors_match_qsat_commuting(tmp_path, capsys, case):
    family, coloring = COMMUTING_CASES[case]
    path = _write(tmp_path, "p.spec", format_projector_spec(family()))
    flags = ["--coloring", _write(tmp_path, "p.col", coloring)] if coloring else []
    _, check, check_conds = _call(capsys, ["check", path] + flags)
    run_code, run, run_conds = _call(capsys, ["qsat-commuting", path] + flags)
    for name in ("pairwise-commutation", "rank-condition"):
        assert check_conds[name] == run_conds[name], name
    if run_code == 0:
        assert check["chi"] == run["chi"]


DETECTABILITY_FAMILIES = {
    "empty": lambda: ProjectorSet(2, 3, []),
    "single-fat": lambda: single_fat_projector(random.Random(11), qubits=7),
    "overlapping-pair": lambda: overlapping_pair(random.Random(8), 9, 7, 1),
}


@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("family", sorted(DETECTABILITY_FAMILIES))
def test_check_detectability_matches_qsat_general(tmp_path, capsys, family, t):
    ps = DETECTABILITY_FAMILIES[family]()
    path = _write(tmp_path, "p.spec", format_projector_spec(ps))
    _, _, check_conds = _call(capsys, ["check", path, "--t", str(t)])
    _, _, run_conds = _call(capsys, ["qsat-general", path, "--mode",
                                     "detectability", "--t", str(t),
                                     "--lambda-star", "1"])
    name = "detectability-rank-condition"
    assert check_conds[name] == run_conds[name]


@pytest.mark.parametrize("epsilon", ["0.1", "0.01"])
def test_check_t_chooses_the_detectability_order(tmp_path, capsys, epsilon):
    # one 7-qubit rank-1 projector: at epsilon 0.01 the t=2 product graph
    # needs order 15, past the cap, where the commuting problem needs 2
    ps = single_fat_projector(random.Random(11), qubits=7)
    path = _write(tmp_path, "p.spec", format_projector_spec(ps))
    flags = ["--t", "2", "--epsilon", epsilon]
    check_code, check, _ = _call(capsys, ["check", path] + flags)
    run_code, run, _ = _call(capsys, ["qsat-general", path, "--mode",
                                      "detectability", "--lambda-star", "1"]
                             + flags)
    assert check_code == run_code == (0 if epsilon == "0.1" else 4)
    if run_code == 4:
        assert check["error"] == run["error"] == (
            "truncation order 15 exceeds cap 14; increase delta or epsilon")
    else:
        for key in ("m", "delta_used", "graph_order", "max_degree", "chi"):
            assert check[key] == run[key], key


@pytest.mark.parametrize("scale", [0.001, 0.05])
def test_check_weights_spec_matches_polymer_z(tmp_path, capsys, scale):
    g = build_graph(3, [(0, 1), (1, 2)])
    table = {(0,): scale, (1,): 2 * scale, (2,): scale,
             (0, 1): scale ** 2, (1, 2): -scale ** 2, (0, 1, 2): scale ** 3}
    path = _write(tmp_path, "w.spec", format_weights_spec(g, table, 3))
    flags = ["--delta", "1.0"]
    check_code, check, check_conds = _call(capsys, ["check", path] + flags)
    run_code, run, run_conds = _call(capsys, ["polymer-z", path] + flags)
    assert check["m"] <= 3
    assert check_code == run_code == (0 if scale < 0.01 else 2)
    assert check_conds == run_conds
    assert list(check_conds) == ["weight-decay"]
    if run_code == 0:
        for key in ("m", "delta_used", "graph_order", "max_degree"):
            assert check[key] == run[key], key


@pytest.mark.parametrize("argv, failing, names", [
    (["count-sat", "narrow.cnf"], "k-condition",
     ["k-condition", "per-event-probability"]),
    (["prob-intersection", "events.spec"], "per-event-probability",
     ["per-event-probability"]),
    (["qsat-commuting", "noncomm.spec"], "pairwise-commutation",
     ["pairwise-commutation", "rank-condition"]),
    (["qsat-general", "pair.spec", "--mode", "detectability", "--t", "2",
      "--lambda-star", "1"], "detectability-rank-condition",
     ["detectability-rank-condition"]),
    # the 2^9 gap computation exceeds the dense cap: the failed rank
    # condition still decides the exit code
    (["qsat-general", "pair.spec", "--mode", "detectability", "--t", "2",
      "--dense-cap", "256"], "detectability-rank-condition",
     ["detectability-rank-condition"]),
])
def test_failed_run_names_the_check_and_lists_its_problem(tmp_path, capsys,
                                                          argv, failing, names):
    _write(tmp_path, "narrow.cnf",
           _cnf_text(chain_cnf(random.Random(5), 4, k=6, share=3)))
    _write(tmp_path, "events.spec", format_events_spec(_path_events(0.2)))
    _write(tmp_path, "noncomm.spec", format_projector_spec(
        noncommuting_pair(random.Random(4), 0.05)))
    _write(tmp_path, "pair.spec", format_projector_spec(
        overlapping_pair(random.Random(8), 9, 7, 1)))
    code, err, conds = _call(capsys, [argv[0], str(tmp_path / argv[1])]
                             + argv[2:])
    assert code == 2
    assert list(conds) == names
    assert not conds[failing]["passed"]
    assert err["error"] == f"{failing} fails: {conds[failing]['detail']}"


# ---------------------------------------------------------------------------
# input rules


def _weights_path(tmp_path):
    g = build_graph(3, [(0, 1), (1, 2)])
    table = {(0,): 0.001, (1,): 0.002, (2,): 0.001, (0, 1): 1e-6,
             (1, 2): -1e-6, (0, 1, 2): 1e-9}
    return _write(tmp_path, "w.spec", format_weights_spec(g, table, 3))


@pytest.mark.parametrize("command", [
    ["check", "w.spec"], ["qsat-general", "pair.spec"],
    ["qsat-general", "pair.spec", "--mode", "stability"]])
def test_coloring_is_rejected_where_no_hypothesis_uses_it(tmp_path, capsys,
                                                          command):
    _weights_path(tmp_path)
    _write(tmp_path, "pair.spec", format_projector_spec(
        overlapping_pair(random.Random(8), 9, 7, 1)))
    bad = _write(tmp_path, "bad.col", "5 0\n")
    argv = [command[0], str(tmp_path / command[1])] + command[2:] + [
        "--delta", "1.0"]
    assert main(argv + ["--format", "jsonl"]) == 0
    capsys.readouterr()
    code = main(argv + ["--coloring", bad, "--format", "jsonl"])
    err = capsys.readouterr().err
    assert code == 3
    assert "--coloring" in json.loads(err.strip().splitlines()[-1])["error"]


@pytest.mark.parametrize("flag, value", [
    ("--delta", "nan"), ("--delta", "inf"), ("--delta", "-inf"),
    ("--delta", "0"), ("--delta", "-1"),
    ("--lambda-star", "-1"), ("--lambda-star", "-2"),
    ("--lambda-star", "nan"), ("--lambda-star", "inf")])
def test_out_of_range_delta_and_lambda_star_exit_3(tmp_path, capsys, flag,
                                                   value):
    path = _write(tmp_path, "pair.spec", format_projector_spec(
        overlapping_pair(random.Random(8), 9, 7, 1)))
    cnf = _write(tmp_path, "f.cnf",
                 _cnf_text(chain_cnf(random.Random(5), 4, share=6)))
    if flag == "--delta":
        argvs = [["count-sat", cnf], ["check", cnf], ["qsat-commuting", path]]
    else:
        argvs = [["qsat-general", path, "--mode", "detectability"]]
    for argv in argvs:
        code = main(argv + [f"{flag}={value}", "--format", "jsonl"])
        err = capsys.readouterr().err
        assert code == 3, argv
        assert flag in json.loads(err.strip().splitlines()[-1])["error"]


def test_lambda_star_zero_is_accepted(tmp_path, capsys):
    path = _write(tmp_path, "pair.spec", format_projector_spec(
        overlapping_pair(random.Random(8), 9, 7, 1)))
    code, report, _ = _call(capsys, ["qsat-general", path, "--mode",
                                     "detectability", "--lambda-star", "0"])
    assert code == 0
    assert report["lambda_star"] == 0.0


# ---------------------------------------------------------------------------
# forcing masks


def test_forcing_masks_are_computed_once_per_formula(tmp_path, capsys,
                                                     monkeypatch):
    calls = []

    def counting(clause, *offset):
        calls.append(clause)
        return clause_forcing(clause, *offset)

    monkeypatch.setattr(llcount.cnf, "clause_forcing", counting)
    f = chain_cnf(random.Random(2), 5, share=6)
    unshifted = [clause_forcing(c) for c in f.clauses]
    calls.clear()
    for _ in range(3):
        for v in range(len(f.clauses)):
            joint_false_probability(f, (v,))
        joint_false_probability(f, (0, 1, 2))
    assert len(calls) == len(f.clauses)
    assert [(cm << off, cp << off) for off, cm, cp in f.forcings] == unshifted

    calls.clear()
    path = _write(tmp_path, "f.cnf", _cnf_text(f))
    code, _, _ = _call(capsys, ["count-sat", path])
    assert code == 0
    assert len(calls) == len(f.clauses)


def test_shifted_forcing_masks_keep_conflicts_and_counts():
    f = llcount.cnf.CnfFormula(40, ((30, 31), (-31, 35), (2, 3), (35, 40)))
    assert [off for off, _, _ in f.forcings] == [29, 30, 1, 34]
    assert joint_false_probability(f, (1, 0)) == 0
    assert joint_false_probability(f, (2, 0)) == Fraction(1, 16)
    assert joint_false_probability(f, (3, 2, 1)) == Fraction(1, 32)
    assert joint_false_probability(f, ()) == 1
