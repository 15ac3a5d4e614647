"""CLI behavior: subcommands, exit codes, JSON-lines schema, determinism."""

import json
import math
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llcount.cli import _sniff, main
from llcount.formats import format_projector_spec, format_weights_spec
from llcount.graphs import build_graph
from llcount.projectors import LocalProjector, ProjectorSet

from gen import (chain_cnf, noncommuting_pair, overlapping_pair,
                 single_fat_projector)


def _write_cnf(tmp_path, f, name="f.cnf"):
    lines = [f"p cnf {f.variable_count} {len(f.clauses)}"]
    for c in f.clauses:
        lines.append(" ".join(map(str, c)) + " 0")
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _last_json(out):
    return json.loads(out.strip().splitlines()[-1])


def test_count_sat_empty_formula(tmp_path, capsys):
    path = tmp_path / "empty.cnf"
    path.write_text("p cnf 4 0\n")
    code, out, _ = _run(capsys, ["count-sat", str(path), "--epsilon", "0.01",
                                 "--delta", "0.1", "--format", "jsonl"])
    assert code == 0
    report = _last_json(out)
    assert report["value"] == 16.0
    assert report["status"] == "ok"


def test_count_sat_report_fields(tmp_path, capsys):
    rng = random.Random(3)
    path = _write_cnf(tmp_path, chain_cnf(rng, 3, share=6))
    code, out, _ = _run(capsys, ["count-sat", path, "--epsilon", "0.01",
                                 "--delta", "0.1", "--format", "jsonl"])
    assert code == 0
    report = _last_json(out)
    for key in ("value", "m", "log_error_bound", "conditions", "chi",
                "delta_used", "elapsed_s", "cluster_count"):
        assert key in report
    names = {c["name"] for c in report["conditions"]}
    assert {"k-condition", "per-event-probability", "weight-decay"} <= names


def test_check_cnf_prints_margin(tmp_path, capsys):
    rng = random.Random(5)
    path = _write_cnf(tmp_path, chain_cnf(rng, 4, share=6))
    code, out, _ = _run(capsys, ["check", path, "--delta", "0.1",
                                 "--format", "jsonl"])
    assert code == 0
    report = _last_json(out)
    assert report["status"] == "pass"
    kcond = [c for c in report["conditions"] if c["name"] == "k-condition"][0]
    assert kcond["margin"] > 0


def test_hypothesis_violation_exit_code(tmp_path, capsys):
    # single-qubit rank-1/2 projector violates the rank bound
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    ps = ProjectorSet(2, 1, [LocalProjector((0,), p0)])
    path = tmp_path / "bad.spec"
    path.write_text(format_projector_spec(ps))
    code, out, err = _run(capsys, ["qsat-commuting", str(path),
                                   "--format", "jsonl"])
    assert code == 2
    report = json.loads(err.strip().splitlines()[-1])
    assert "rank" in report["error"]
    conds = {c["name"]: c for c in report["conditions"]}
    assert not conds["rank-condition"]["passed"]
    assert conds["rank-condition"]["margin"] < 0


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.cnf"
    path.write_text("p cnf 2 1\n1 1 0\n")
    code, _, err = _run(capsys, ["count-sat", str(path)])
    assert code == 3
    assert "repeated" in err


@pytest.mark.parametrize("argv, usage", [
    (["count-sat"], "usage: llcount count-sat"),
    (["check", "f.cnf", "--threads", "two"], "usage: llcount check"),
    (["count-sat", "f.cnf", "--format", "xml"], "usage: llcount count-sat"),
    (["oracle"], "usage: llcount oracle"),
    (["count"], "usage: llcount"),
    ([], "usage: llcount"),
    (["qsat-general", "p.spec", "--t", "two"], "usage: llcount qsat-general"),
])
def test_usage_error_exits_3_with_usage(capsys, argv, usage):
    # argparse's own exit 2 is the hypothesis-violation code
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith(usage + " [-h]")
    assert "error: " in err.splitlines()[-1]


@pytest.mark.parametrize("argv", [["-h"], ["count-sat", "-h"],
                                  ["oracle", "dim", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: llcount")


def test_resource_cap_exit_code(tmp_path, capsys):
    path = tmp_path / "big.cnf"
    clauses = "\n".join(f"{i + 1} 0" for i in range(27))
    path.write_text(f"p cnf 27 27\n{clauses}\n")
    code, _, err = _run(capsys, ["oracle", "sat-count", str(path)])
    assert code == 4


def test_qsat_general_both_modes(tmp_path, capsys):
    rng = random.Random(11)
    ps = single_fat_projector(rng, qubits=7)
    path = tmp_path / "single.spec"
    path.write_text(format_projector_spec(ps))
    code, out, _ = _run(capsys, ["qsat-general", str(path), "--delta", "1.0",
                                 "--epsilon", "0.05", "--format", "jsonl"])
    assert code == 0
    stability = _last_json(out)
    assert stability["method"] == "general-stability"

    code, out, _ = _run(capsys, ["qsat-general", str(path), "--mode",
                                 "detectability", "--t", "2", "--delta",
                                 "0.05", "--format", "jsonl"])
    assert code == 0
    detect = _last_json(out)
    assert detect["mode"] == "detectability"
    assert {"lambda_star", "additive_part", "worst_case_total",
            "relative_coefficient"} <= set(detect)
    assert detect["value"] == pytest.approx(stability["value"], rel=0.1)


def test_polymer_z_and_oracle_polymer_z(tmp_path, capsys):
    g = build_graph(3, [(0, 1), (1, 2)])
    table = {(0,): 0.01, (1,): 0.02, (2,): 0.01,
             (0, 1): 0.001, (1, 2): -0.001, (0, 1, 2): 5e-05}
    path = tmp_path / "w.spec"
    path.write_text(format_weights_spec(g, table, 3))
    code, out, _ = _run(capsys, ["polymer-z", str(path), "--delta", "0.5",
                                 "--format", "jsonl"])
    assert code == 0
    approx = _last_json(out)
    code, out, _ = _run(capsys, ["oracle", "polymer-z", str(path),
                                 "--format", "jsonl"])
    assert code == 0
    exact = _last_json(out)
    assert approx["value"] == pytest.approx(exact["value"], rel=0.1)


def test_oracle_ursell(tmp_path, capsys):
    path = tmp_path / "c4.graph"
    path.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n")
    code, out, _ = _run(capsys, ["oracle", "ursell", str(path),
                                 "--format", "jsonl"])
    assert code == 0
    report = _last_json(out)
    assert report["exact"] == "-1/8"


def test_check_exit_two_on_failed_condition(tmp_path, capsys):
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    ps = ProjectorSet(2, 1, [LocalProjector((0,), p0)])
    path = tmp_path / "bad.spec"
    path.write_text(format_projector_spec(ps))
    code, out, _ = _run(capsys, ["check", str(path), "--format", "jsonl"])
    assert code == 2
    assert _last_json(out)["status"] == "fail"


def _strip_timing(out):
    report = _last_json(out)
    report.pop("elapsed_s", None)
    return json.dumps(report, sort_keys=True)


def test_reports_bit_identical_across_thread_counts(tmp_path, capsys):
    rng = random.Random(42)
    cnf_path = _write_cnf(tmp_path, chain_cnf(rng, 5, share=6))
    proj = overlapping_pair(rng, 9, 7, 1, conjugated=True)
    proj_path = tmp_path / "pair.spec"
    proj_path.write_text(format_projector_spec(proj))

    for argv in (["count-sat", cnf_path, "--epsilon", "0.01"],
                 ["qsat-commuting", str(proj_path), "--epsilon", "0.05"]):
        outputs = set()
        for threads in ("1", "3"):
            code, out, _ = _run(capsys, argv + ["--threads", threads,
                                                "--format", "jsonl"])
            assert code == 0
            outputs.add(_strip_timing(out))
        assert len(outputs) == 1


def _huge_register_spec(tmp_path):
    """1100 qubits, one rank-1 projector on qubits 0 and 1: d^qudits is far
    outside float range."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 1.0
    path = tmp_path / "huge.spec"
    path.write_text(format_projector_spec(
        ProjectorSet(2, 1100, [LocalProjector((0, 1), m)])))
    return str(path)


@pytest.mark.parametrize("extra", [
    ["qsat-commuting"],
    ["qsat-general", "--mode", "detectability", "--lambda-star", "1"],
])
def test_absolute_value_out_of_float_range_is_null_with_log2(tmp_path, capsys,
                                                              extra):
    path = _huge_register_spec(tmp_path)
    code, out, _ = _run(capsys, [extra[0], path] + extra[1:]
                        + ["--format", "jsonl"])
    assert code == 0
    report = _last_json(out)
    assert report["absolute_value"] is None
    assert report["log2_absolute_value"] == pytest.approx(
        1100 + math.log2(report["normalized_value"]), abs=1e-9)


def test_absolute_value_in_float_range_matches_log2(tmp_path, capsys):
    rng = random.Random(8)
    path = tmp_path / "pair.spec"
    path.write_text(format_projector_spec(overlapping_pair(rng, 9, 7, 1)))
    code, out, _ = _run(capsys, ["qsat-commuting", str(path),
                                 "--format", "jsonl"])
    assert code == 0
    report = _last_json(out)
    assert report["absolute_value"] == report["normalized_value"] * 2 ** 9
    assert 2 ** report["log2_absolute_value"] == pytest.approx(
        report["absolute_value"], rel=1e-12)


def _pair_spec(tmp_path):
    path = tmp_path / "pair.spec"
    path.write_text(format_projector_spec(
        overlapping_pair(random.Random(4), 8, 7, 1)))
    return str(path)


@pytest.mark.parametrize("command", ["qsat-commuting", "check"])
def test_dense_cap_from_environment_applies_to_every_command(
        tmp_path, capsys, monkeypatch, command):
    path = _pair_spec(tmp_path)
    monkeypatch.setenv("LLCOUNT_MAX_DENSE_DIM", "2")
    code, _, err = _run(capsys, [command, path, "--format", "jsonl"])
    assert code == 4
    assert "exceeds cap 2" in err
    code, _, _ = _run(capsys, [command, path, "--dense-cap", "1024",
                               "--format", "jsonl"])
    assert code == 0


@pytest.mark.parametrize("command", ["qsat-commuting", "qsat-general", "check"])
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_dense_cap_below_one_is_rejected(tmp_path, capsys, command, cap):
    code, _, err = _run(capsys, [command, _pair_spec(tmp_path),
                                 "--dense-cap", cap, "--format", "jsonl"])
    assert code == 3
    assert "--dense-cap" in err


@pytest.mark.parametrize("command", ["qsat-commuting", "check"])
@pytest.mark.parametrize("value", ["0", "-3", "abc", "1.5", "", "1_6",
                                   "\u0661\u0666"])
def test_dense_cap_from_environment_must_be_a_positive_integer(
        tmp_path, capsys, monkeypatch, command, value):
    monkeypatch.setenv("LLCOUNT_MAX_DENSE_DIM", value)
    code, _, err = _run(capsys, [command, _pair_spec(tmp_path),
                                 "--format", "jsonl"])
    assert code == 3
    assert "LLCOUNT_MAX_DENSE_DIM must be a positive integer" in err


def test_oracle_caps_from_environment_must_be_positive_integers(
        tmp_path, capsys, monkeypatch):
    path = tmp_path / "p3.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    monkeypatch.setenv("LLCOUNT_MAX_URSELL_EDGES", "-1")
    code, _, err = _run(capsys, ["oracle", "ursell", str(path),
                                 "--format", "jsonl"])
    assert code == 3
    assert "LLCOUNT_MAX_URSELL_EDGES must be a positive integer" in err
    monkeypatch.setenv("LLCOUNT_MAX_URSELL_EDGES", "1")
    code, _, err = _run(capsys, ["oracle", "ursell", str(path),
                                 "--format", "jsonl"])
    assert code == 4
    assert "exceeds Ursell brute-force cap 1" in err


def test_check_validates_each_projector_once(tmp_path, capsys, monkeypatch):
    import llcount.formats
    import llcount.projectors

    calls = []
    original = llcount.projectors.validate_projector

    def counting(p, *args, **kwargs):
        calls.append(p)
        return original(p, *args, **kwargs)

    monkeypatch.setattr(llcount.formats, "validate_projector", counting)
    monkeypatch.setattr(llcount.projectors, "validate_projector", counting)
    dense = tmp_path / "dense.spec"
    dense.write_text(format_projector_spec(
        overlapping_pair(random.Random(4), 8, 7, 1, conjugated=True)))
    # the diagonal fast path is exact; the dense pair is factored thin
    for path, exact in ((_pair_spec(tmp_path), True), (str(dense), False)):
        calls.clear()
        code, out, _ = _run(capsys, ["check", path, "--format", "jsonl"])
        assert code == 0
        assert len(calls) == 2 and len(set(map(id, calls))) == 2
        # the same diagnostics again, from the factorizations already cached
        diags = [original(p) for p in calls]
        i = max(range(2), key=lambda k: diags[k].worst_deviation)
        worst = diags[i]
        if exact:
            assert i == 0 and worst.worst_deviation == 0.0
        else:
            assert 0.0 < worst.worst_deviation < 1e-8
        cond = {c["name"]: c for c in _last_json(out)["conditions"]}
        assert cond["projector-validation"] == {
            "name": "projector-validation", "passed": True,
            "margin": 1e-8 - worst.worst_deviation,
            "detail": f"2 projectors validated; largest deviation at "
                      f"projector {i}: hermiticity "
                      f"{worst.hermiticity_deviation:.3e}, idempotency "
                      f"{worst.idempotency_deviation:.3e}, spectrum "
                      f"{worst.spectrum_deviation:.3e}"}


@pytest.mark.parametrize("argv", [
    ["qsat-commuting"],
    ["check", "--t", "1"],
    ["qsat-general", "--delta", "1.0"],
    ["qsat-general", "--mode", "detectability", "--t", "1"],
])
def test_each_projector_is_diagonalized_once_per_call(tmp_path, capsys,
                                                      monkeypatch, argv):
    """Each dense rank-1 projector is factored exactly once, and ``eigh``
    sees only the 1 x 1 Ritz compressions: no projector's full matrix, nor
    any matrix wider than its rank, reaches ``eigh`` or ``eigvalsh``."""
    import llcount.projectors

    proj = overlapping_pair(random.Random(6), 8, 7, 1, conjugated=True)
    path = tmp_path / "pair.spec"
    path.write_text(format_projector_spec(proj))
    factored, seen = [], {"eigh": [], "eigvalsh": []}
    original_factorize = llcount.projectors._factorize

    def counting_factorize(m):
        factored.append(np.asarray(m).tobytes())
        return original_factorize(m)

    monkeypatch.setattr(llcount.projectors, "_factorize", counting_factorize)
    for name in seen:
        original = getattr(np.linalg, name)

        def counting(a, *args, _original=original, _name=name, **kwargs):
            seen[_name].append(np.asarray(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    code, _, _ = _run(capsys, [argv[0], str(path)] + argv[1:]
                      + ["--format", "jsonl"])
    assert code == 0
    matrices = [np.asarray(p.matrix, dtype=complex).tobytes()
                for p in proj.projectors]
    assert sorted(factored) == sorted(matrices)
    assert seen["eigh"] and all(a.shape == (1, 1) for a in seen["eigh"])
    assert not any(a.tobytes() in matrices
                   for a in seen["eigh"] + seen["eigvalsh"])


def test_reused_parser_keeps_no_state_between_calls(tmp_path, capsys):
    import llcount.cli

    rng = random.Random(8)
    path = _write_cnf(tmp_path, chain_cnf(rng, 4, share=6))
    coloring = tmp_path / "f.col"
    coloring.write_text("".join(f"{v} {v % 2}\n" for v in range(4)))
    calls = [["count-sat", path, "--exact-rational"],
             ["count-sat", path],
             ["count-sat", path, "--coloring", str(coloring)],
             ["count-sat", path]]

    def reports(fresh_parser):
        out = []
        for argv in calls:
            if fresh_parser:
                llcount.cli._parser.cache_clear()
            code, stdout, _ = _run(capsys, argv + ["--format", "jsonl"])
            assert code == 0
            out.append(_strip_timing(stdout))
        return out

    one_by_one = reports(fresh_parser=True)
    assert reports(fresh_parser=False) == one_by_one
    assert "log_value_exact" in one_by_one[0]
    assert "log_value_exact" not in one_by_one[1]
    assert llcount.cli._parser() is llcount.cli._parser()
    assert llcount.cli.build_parser() is not llcount.cli.build_parser()


@pytest.mark.parametrize("with_coloring", [False, True])
def test_count_sat_builds_the_dependency_graph_once(tmp_path, capsys,
                                                    monkeypatch, with_coloring):
    import llcount.cnf

    builds = []
    original = llcount.cnf.cnf_dependency_graph

    def counting(f):
        builds.append(f)
        return original(f)

    monkeypatch.setattr(llcount.cnf, "cnf_dependency_graph", counting)
    path = _write_cnf(tmp_path, chain_cnf(random.Random(9), 4, share=6))
    argv = ["count-sat", path, "--format", "jsonl"]
    if with_coloring:
        coloring = tmp_path / "f.col"
        coloring.write_text("".join(f"{v} {v % 2}\n" for v in range(4)))
        argv += ["--coloring", str(coloring)]
    code, _, _ = _run(capsys, argv)
    assert code == 0
    # the --coloring file is checked on the one graph the pipeline builds
    assert len(builds) == 1


def test_check_applies_the_truncation_order_cap(tmp_path, capsys):
    # with this 3-coloring at epsilon 1e-6 the paper's certified delta needs
    # m = 91 and the Kotecky-Preiss rule m = 17, both past cap 14
    path = _write_cnf(tmp_path, chain_cnf(random.Random(5), 4, share=6))
    coloring = tmp_path / "f.col"
    coloring.write_text("0 0\n1 1\n2 2\n3 0\n")
    flags = ["--coloring", str(coloring), "--epsilon", "1e-6", "--format",
             "jsonl"]
    check_code, check_out, check_err = _run(capsys, ["check", path] + flags)
    run_code, _, run_err = _run(capsys, ["count-sat", path] + flags)
    assert check_code == run_code == 4
    assert check_out == ""
    assert _last_json(check_err)["error"] == _last_json(run_err)["error"]
    assert _last_json(check_err)["error"].startswith(
        "truncation order 17 exceeds cap 14")


@pytest.mark.parametrize("command", ["polymer-z", "prob-intersection",
                                     "check"])
@pytest.mark.parametrize("text, message", [
    ("vertices 3\n", "line 1: file ends here; expected 'edges M' next"),
    ("vertices 3\nedges 0\n",
     "line 2: file ends here; expected 'max-size K' next"),
])
def test_truncated_table_spec_exits_3(tmp_path, capsys, command, text,
                                      message):
    path = tmp_path / "truncated.spec"
    path.write_text(text)
    code, out, err = _run(capsys, [command, str(path), "--format", "jsonl"])
    assert code == 3
    assert out == ""
    assert _last_json(err)["error"] == message


def _rank_five_spec(tmp_path):
    # normalized rank 5/16 passes the rank condition at delta 0.1 but
    # certifies only delta = log(16/5) - 1, which needs m = 15 > cap 14
    p = np.zeros((16, 16), dtype=complex)
    for i in (0, 3, 6, 9, 12):
        p[i, i] = 1.0
    path = tmp_path / "rank5.spec"
    path.write_text(format_projector_spec(
        ProjectorSet(2, 4, [LocalProjector((0, 1, 2, 3), p)])))
    return str(path)


def test_check_on_projector_spec_applies_the_truncation_order_cap(
        tmp_path, capsys):
    path = _rank_five_spec(tmp_path)
    flags = ["--delta", "0.1", "--format", "jsonl"]
    check_code, check_out, check_err = _run(capsys, ["check", path] + flags)
    run_code, _, run_err = _run(capsys, ["qsat-commuting", path] + flags)
    assert check_code == run_code == 4
    assert check_out == ""
    assert _last_json(check_err)["error"] == _last_json(run_err)["error"]
    assert _last_json(check_err)["error"].startswith(
        "truncation order 15 exceeds cap 14")


def test_check_on_projector_spec_reports_the_run_order(tmp_path, capsys):
    path = _pair_spec(tmp_path)
    check_code, check_out, _ = _run(capsys, ["check", path, "--format",
                                             "jsonl"])
    run_code, run_out, _ = _run(capsys, ["qsat-commuting", path, "--format",
                                         "jsonl"])
    assert check_code == run_code == 0
    check, run = _last_json(check_out), _last_json(run_out)
    for key in ("m", "delta_used", "chi"):
        assert check[key] == run[key], key


def test_failed_projector_check_reports_no_order(tmp_path, capsys):
    # a rank-1/2 qubit projector fails the rank condition: no order to cap
    path = tmp_path / "fat.spec"
    p0 = np.diag([1.0, 0.0]).astype(complex)
    path.write_text(format_projector_spec(
        ProjectorSet(2, 1, [LocalProjector((0,), p0)])))
    code, out, _ = _run(capsys, ["check", str(path), "--format", "jsonl"])
    assert code == 2
    report = _last_json(out)
    assert "m" not in report and "delta_used" not in report


def test_check_on_weights_spec_checks_decay_up_to_m(tmp_path, capsys):
    # max-size 1 on a 3-vertex path at delta 1.0 (m = 3): the pair and
    # triple weights lie within the truncation order but are missing
    g = build_graph(3, [(0, 1), (1, 2)])
    path = tmp_path / "w.spec"
    path.write_text(format_weights_spec(
        g, {(0,): 0.001, (1,): 0.001, (2,): 0.001}, 1))
    flags = ["--delta", "1.0", "--format", "jsonl"]
    check_code, check_out, check_err = _run(capsys, ["check", str(path)] + flags)
    run_code, _, run_err = _run(capsys, ["polymer-z", str(path)] + flags)
    assert check_code == run_code == 3
    assert check_out == ""
    assert _last_json(check_err)["error"] == _last_json(run_err)["error"] == (
        "weights table has no entry for polymer (0, 1); declared max-size is 1")


def test_cluster_count_is_the_number_of_enumerated_clusters(tmp_path, capsys):
    from llcount.clusters import enumerate_clusters
    from llcount.cnf import cnf_dependency_graph, parse_dimacs

    path = _write_cnf(tmp_path, chain_cnf(random.Random(7), 20, share=6))
    code, out, _ = _run(capsys, ["count-sat", path, "--format", "jsonl"])
    assert code == 0
    report = _last_json(out)
    with open(path) as fh:
        g = cnf_dependency_graph(parse_dimacs(fh.read()))
    assert report["cluster_count"] == sum(
        1 for _ in enumerate_clusters(g, report["m"])) > 0


def test_linear_algebra_failure_exits_5(tmp_path, capsys, monkeypatch):
    import llcount.qsat

    def fail(ps):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(llcount.qsat, "spectral_gap_or_error", fail)
    path = tmp_path / "pair.spec"
    path.write_text(format_projector_spec(
        overlapping_pair(random.Random(6), 8, 7, 1, conjugated=True)))
    code, _, err = _run(capsys, ["qsat-general", str(path), "--mode",
                                 "detectability", "--format", "jsonl"])
    assert code == 5
    report = _last_json(err)
    assert report["exit_code"] == 5
    assert report["error"] == ("linear algebra failure: Eigenvalues did not "
                               "converge")


def test_unsorted_support_is_a_parse_error(tmp_path, capsys):
    # |0><0| on qudit 1, tensored with I on qudit 0, over the support "1 0";
    # with |1><1| on qudit 1 the kernels meet only in 0.  Read over the
    # sorted support the first matrix would act on qudit 0 instead.
    rows = ["1 0  0 0  0 0  0 0", "0 0  1 0  0 0  0 0",
            "0 0  0 0  0 0  0 0", "0 0  0 0  0 0  0 0"]
    path = tmp_path / "unsorted.spec"
    path.write_text("\n".join(["d 2", "qudits 2", "projector", "support 1 0",
                               "matrix", *rows, "end", "projector",
                               "support 1", "matrix", "0 0  0 0", "0 0  1 0",
                               "end"]) + "\n")
    code, out, err = _run(capsys, ["qsat-commuting", str(path),
                                   "--format", "jsonl"])
    assert code == 3 and out == ""
    assert "line 4" in _last_json(err)["error"]
    assert "strictly ascending" in _last_json(err)["error"]


@pytest.mark.parametrize("entry", ["inf", "nan", "1e400"])
def test_non_finite_matrix_entry_is_a_parse_error(tmp_path, capsys, entry):
    path = tmp_path / "inf.spec"
    path.write_text("d 2\nqudits 1\nprojector\nsupport 0\nmatrix\n"
                    f"1 0  0 0\n0 0  {entry} 0\nend\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, ["qsat-commuting", str(path),
                                       "--format", "jsonl"])
    assert code == 3 and out == "" and caught == []
    lines = err.strip().splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report["error"] == (f"line 7: matrix entry {entry!r} is not "
                               "finite")


@pytest.mark.parametrize("command", [["check", "--delta", "0.5"],
                                     ["polymer-z", "--delta", "0.5"]])
@pytest.mark.parametrize("entry", ["nan", "inf", "0 nan"])
def test_non_finite_weight_is_a_parse_error(tmp_path, capsys, command, entry):
    # check used to pass this spec (the NaN left its maximum unseen) while
    # polymer-z failed in the expansion with exit 5
    path = tmp_path / "w.spec"
    path.write_text("vertices 2\nedges 1\n0 1\nmax-size 2\n"
                    f"weight 0 {entry}\nweight 1 1e-6\nweight 0,1 1e-9\n")
    code, out, err = _run(capsys, [command[0], str(path), *command[1:],
                                   "--format", "jsonl"])
    assert code == 3 and out == ""
    bad = entry.split()[-1]
    assert _last_json(err)["error"] == f"line 5: value {bad!r} is not finite"


def test_forced_run_is_marked_forced_when_a_hypothesis_fails(tmp_path,
                                                             capsys):
    # k = 6 fails the k-condition and Pr[false] = 2^-6 the per-event bound
    path = _write_cnf(tmp_path, chain_cnf(random.Random(5), 4, k=6, share=3))
    code, out, _ = _run(capsys, ["count-sat", path, "--force", "--epsilon",
                                 "1", "--delta", "1.0", "--format", "jsonl"])
    assert code == 0
    report = _last_json(out)
    failed = [c["name"] for c in report["conditions"] if not c["passed"]]
    assert failed == ["k-condition", "per-event-probability"]
    assert report["forced"] is True and report["status"] == "forced"


@pytest.mark.parametrize("text, error", [
    ("p cnf 3 5\n1 2 0\n", "header declares 5 clauses, found 1"),
    ("p cnf 3 1\n1 2 0\np cnf 9 1\n",
     "line 3: second problem line 'p cnf 9 1'"),
])
def test_dimacs_header_mismatch_exits_3(tmp_path, capsys, text, error):
    path = tmp_path / "bad.cnf"
    path.write_text(text)
    for command in ("count-sat", "check"):
        code, _, err = _run(capsys, [command, str(path), "--format", "jsonl"])
        assert code == 3
        assert _last_json(err)["error"] == error


@pytest.mark.parametrize("text, error", [
    ("p cnf 12 1\n1_2 2 0\n", "line 2: bad literal '1_2'"),
    ("p cnf 3 1\n\u0663 1 0\n", "line 2: bad literal '\u0663'"),
    ("p cnf 3 1\n1 2 \uff10\n", "line 2: bad literal '\uff10'"),
    ("c x\np cnf 1_2 1\n1 2 0\n", "line 2: bad problem line 'p cnf 1_2 1'"),
    ("p cnf -1 0\n", "line 1: bad problem line 'p cnf -1 0'"),
    ("p cnf 3 -2\n", "line 1: bad problem line 'p cnf 3 -2'"),
])
def test_dimacs_literals_and_counts_are_ascii_integers(tmp_path, capsys,
                                                       text, error):
    """int() would read '1_2' as 12 and the Arabic-Indic three as 3; a
    literal is [+-]?[0-9]+ in ASCII, and a header count one of at least 0."""
    path = tmp_path / "bad.cnf"
    path.write_text(text, encoding="utf-8")
    for command in ("count-sat", "check"):
        code, _, err = _run(capsys, [command, str(path), "--format", "jsonl"])
        assert code == 3
        assert _last_json(err)["error"] == error


@pytest.mark.parametrize("argv, text, error", [
    (["qsat-commuting"], "d 2\nqudits 1_0\n",
     "line 2: expected integer qudit count, got '1_0'"),
    (["polymer-z"], "vertices 1\nedges 0\nmax-size 1_0\nweight 0 0.01\n",
     "line 3: expected integer max set size, got '1_0'"),
    (["oracle", "ursell"], "-5 0\n",
     "line 1: header counts must be non-negative"),
    (["oracle", "ursell"], "3 -1\n",
     "line 1: header counts must be non-negative"),
])
def test_spec_integers_are_ascii_and_header_counts_non_negative(
        tmp_path, capsys, argv, text, error):
    """int() would read '1_0' as 10; an edge-list header of -5 vertices
    would parse as the empty graph."""
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    code, _, err = _run(capsys, argv + [str(path), "--format", "jsonl"])
    assert code == 3
    assert _last_json(err)["error"] == error


def _gc_inputs(tmp_path):
    """(argv, exit code or escaping exception type) for each way a call
    ends."""
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    ok = _write_cnf(tmp_path, chain_cnf(random.Random(7), 20, share=6))
    # k = 6 fails the k-condition
    weak = _write_cnf(tmp_path, chain_cnf(random.Random(5), 4, k=6, share=3),
                      "weak.cnf")
    events = write("e.spec", "vertices 3\nedges 2\n0 1\n1 2\nmax-size 3\n"
                   "prob 0 0.005\nprob 1 0.005\nprob 2 0.005\n"
                   "prob 0,1 2.5e-05\nprob 1,2 2.5e-05\nprob 0,1,2 1.25e-07\n")
    big = write("big.spec", "vertices 2\nedges 1\n0 1\nmax-size 2\n"
                "weight 0 1e200\nweight 1 1e200\nweight 0,1 1e200\n")
    return [
        (["count-sat", ok], 0),
        (["check", weak], 2),
        (["count-sat"], 3),  # argparse's usage error, a SystemExit
        (["count-sat", write("u.cnf", "p cnf 12 1\n1_2 2 0\n")], 3),
        (["check", events, "--delta", "0.01", "--epsilon", "1e-6"], 4),
        (["polymer-z", big, "--force", "--delta", "5"], 5),
        # 2^2000 leaves float range in count_satisfying's ldexp
        (["count-sat", write("wide.cnf", "p cnf 2000 1\n1 2000 0\n")],
         OverflowError),
    ]


@pytest.mark.parametrize("caller_gc", [True, False], ids=["gc-on", "gc-off"])
def test_main_pauses_gc_and_restores_the_callers_state(
        tmp_path, capsys, monkeypatch, caller_gc):
    import gc

    import llcount.cli

    inside = []
    original = llcount.cli._validate_args

    def recording(args):
        inside.append(gc.isenabled())
        return original(args)

    monkeypatch.setattr(llcount.cli, "_validate_args", recording)
    was = gc.isenabled()
    try:
        (gc.enable if caller_gc else gc.disable)()
        for argv, want in _gc_inputs(tmp_path):
            try:
                got = main(argv + ["--format", "jsonl"])
            except SystemExit as exc:
                got = exc.code
            except OverflowError:
                got = OverflowError
            capsys.readouterr()
            assert got == want, argv
            assert gc.isenabled() is caller_gc, argv
    finally:
        (gc.enable if was else gc.disable)()
    assert inside and not any(inside)


def test_general_weights_are_checked_and_computed_once(tmp_path, capsys,
                                                       monkeypatch):
    """qsat-general --mode stability checks the weights once, in the engine's
    one scan; check on a projector spec computes each kernel dimension once,
    for its stability probe and its delta suggestion together."""
    import llcount.clusters
    import llcount.qsat

    scans, checked, kdims = [], [], []
    original_scan = llcount.clusters._scan
    original_check = llcount.clusters.check_weight_condition
    original_kdim = llcount.qsat.kernel_intersection_dim

    def counting_scan(weights, *args):
        scans.append(tuple(weights))
        return original_scan(weights, *args)

    def counting_check(*args, **kwargs):
        checked.append(args[2])
        return original_check(*args, **kwargs)

    def counting_kdim(ps, indices):
        kdims.append(tuple(indices))
        return original_kdim(ps, indices)

    monkeypatch.setattr(llcount.clusters, "_scan", counting_scan)
    for module in (llcount.clusters, llcount.qsat):
        monkeypatch.setattr(module, "check_weight_condition", counting_check)
    monkeypatch.setattr(llcount.qsat, "kernel_intersection_dim", counting_kdim)
    single = tmp_path / "single.spec"
    single.write_text(format_projector_spec(
        single_fat_projector(random.Random(11), qubits=7)))
    code, out, _ = _run(capsys, ["qsat-general", str(single), "--delta", "1.0",
                                 "--format", "jsonl"])
    assert code == 0
    assert scans == [((0,),)] and checked == []
    assert [c["name"] for c in _last_json(out)["conditions"]] == [
        "weight-decay"]
    noncomm = tmp_path / "noncomm.spec"
    noncomm.write_text(format_projector_spec(
        noncommuting_pair(random.Random(4), 0.05)))
    kdims.clear()
    code, _, _ = _run(capsys, ["check", str(noncomm), "--format", "jsonl"])
    assert code == 2
    assert sorted(kdims) == [(0,), (0, 1), (1,)]


def test_check_on_a_projector_spec_builds_its_graph_once(tmp_path, capsys,
                                                         monkeypatch):
    """check on a projector spec builds the support dependency graph once and
    hands it to the commutation check, the stability probe, the delta
    suggestion and, with --t, the detectability problem."""
    import llcount.cli
    import llcount.graphs
    import llcount.projectors
    import llcount.qsat

    builds = []
    original = llcount.graphs.support_dependency_graph

    def counting_build(ps):
        builds.append(ps)
        return original(ps)

    for module in (llcount.graphs, llcount.projectors, llcount.qsat,
                   llcount.cli):
        monkeypatch.setattr(module, "support_dependency_graph", counting_build)
    noncomm = tmp_path / "noncomm.spec"
    noncomm.write_text(format_projector_spec(
        noncommuting_pair(random.Random(4), 0.05)))
    for extra in ([], ["--t", "1"]):
        builds.clear()
        code, out, _ = _run(capsys, ["check", str(noncomm), "--format",
                                     "jsonl", *extra])
        assert code == 2
        assert "suggested_delta" in _last_json(out)
        assert len(builds) == 1


_SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
               "\x85", "\u2028", "\u2029"]


def _sniff_by_splitlines(text):
    # the first line each parser reads: parse_dimacs skips blank lines and
    # lines starting with 'c'; the spec parsers cut '#' comments
    lines = [raw.strip() for raw in text.splitlines()]
    dimacs = [s for s in lines if s and not s.startswith("c")]
    spec = [s.split("#", 1)[0].strip() for s in text.splitlines()]
    spec = [s.split()[0] for s in spec if s]
    if not dimacs or dimacs[0][0] in "p%" or re.fullmatch(
            "[+-]?[0-9]+", dimacs[0].split()[0]):
        return "cnf"
    if spec and spec[0] in ("d", "qudits"):
        return "projectors"
    if spec and spec[0] == "vertices":
        return "table"
    return "unknown"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_SEPARATORS + [
    " ", "\t", "\x1f", "#", "# x", "p", "c", "d", "-3", "+3", "-", "+",
    "12", "\u0663", "vertices", "weight", "x", "qudits", "%", "cx"]),
    max_size=12).map("".join))
def test_sniff_matches_splitlines(text):
    assert _sniff(text) == _sniff_by_splitlines(text)


@pytest.mark.parametrize("command", ["check", "count-sat",
                                     "prob-intersection"])
def test_a_cnf_whose_first_line_is_a_comment_word_is_read(
        tmp_path, capsys, command):
    # parse_dimacs skips every line starting with 'c', not only 'c ...'
    f = chain_cnf(random.Random(3), 4)
    body = "".join(" ".join(map(str, c)) + " 0\n" for c in f.clauses)
    plain, commented = tmp_path / "plain.cnf", tmp_path / "commented.cnf"
    plain.write_text(body)
    commented.write_text("comment line\n" + body)
    reports = []
    for path in (plain, commented):
        code, out, _ = _run(capsys, [command, str(path), "--format",
                                     "jsonl"])
        assert code == 0, path
        reports.append(_strip_timing(out))
    assert reports[0].replace("plain.cnf", "X") == reports[1].replace(
        "commented.cnf", "X")


def test_check_reads_a_projector_spec_that_declares_qudits_first(
        tmp_path, capsys):
    ordered = _pair_spec(tmp_path)
    with open(ordered) as fh:
        d_line, qudits_line, rest = fh.read().split("\n", 2)
    assert qudits_line.startswith("qudits ") and d_line.startswith("d ")
    swapped = tmp_path / "swapped.spec"
    swapped.write_text("\n".join([qudits_line, d_line, rest]))
    reports = []
    for command in ("check", "qsat-commuting"):
        for path in (ordered, str(swapped)):
            code, out, _ = _run(capsys, [command, path, "--format", "jsonl"])
            assert code == 0, (command, path)
            reports.append(_strip_timing(out).replace(path, "X"))
    assert reports[0] == reports[1] and reports[2] == reports[3]


@pytest.mark.parametrize("before", [
    "", "\n\n", "c a comment\n", "\n \nc\nc x\n\n"],
    ids=["first", "after-blanks", "after-comment", "after-both"])
@pytest.mark.parametrize("sign", ["+", "-", ""],
                         ids=["plus", "minus", "unsigned"])
@pytest.mark.parametrize("command", ["check", "prob-intersection"])
def test_a_headerless_cnf_is_read_whatever_its_first_literal(
        tmp_path, capsys, command, sign, before):
    # the first literal, in the grammar [+-]?[0-9]+, tells a CNF apart; the
    # report is the one of the same clauses under a problem line
    f = chain_cnf(random.Random(3), 4)
    first, *rest = f.clauses[0]
    clauses = [(-abs(first) if sign == "-" else abs(first), *rest),
               *f.clauses[1:]]
    lines = [" ".join(map(str, c)) + " 0" for c in clauses]
    headed = tmp_path / "headed.cnf"
    headed.write_text(f"p cnf {f.variable_count} {len(clauses)}\n"
                      + "\n".join(lines) + "\n")
    bare = tmp_path / "bare.cnf"
    bare.write_text(before + ("+" if sign == "+" else "") + "\n".join(lines)
                    + "\n")
    reports = []
    for path in (headed, bare):
        code, out, err = _run(capsys, [command, str(path), "--format",
                                       "jsonl"])
        assert code == 0, err
        report = _last_json(out)
        del report["elapsed_s"], report["input"]
        reports.append(report)
    assert reports[0] == reports[1]


def _degree_inputs(tmp_path):
    """Inputs whose graphs have edges: a CNF chain (D = 2), a weights-spec
    and an events-spec on a path of three (D = 2), two overlapping
    projectors (D = 1)."""
    path = build_graph(3, [(0, 1), (1, 2)])
    weights = tmp_path / "w.spec"
    weights.write_text(format_weights_spec(
        path, {(0,): 1e-3, (1,): 2e-3, (2,): 1e-3, (0, 1): 1e-6,
               (1, 2): 1e-6, (0, 1, 2): 1e-9}, 3))
    events = tmp_path / "e.spec"
    events.write_text("vertices 3\nedges 2\n0 1\n1 2\nmax-size 3\n"
                      "prob 0 1e-3\nprob 1 2e-3\nprob 2 1e-3\n"
                      "prob 0,1 1e-6\nprob 1,2 1e-6\nprob 0,1,2 1e-9\n")
    proj = tmp_path / "p.spec"
    proj.write_text(format_projector_spec(
        overlapping_pair(random.Random(8), 6, 4, 1)))
    return {"cnf": _write_cnf(tmp_path, chain_cnf(random.Random(1), 6)),
            "weights": str(weights), "events": str(events),
            "projectors": str(proj)}


@pytest.mark.parametrize("argv, check_argv", [
    (["count-sat", "cnf"], ["cnf"]),
    (["prob-intersection", "cnf"], ["cnf"]),
    (["prob-intersection", "events"], ["events"]),
    (["qsat-commuting", "projectors"], ["projectors"]),
    (["qsat-general", "projectors", "--mode", "stability"], ["projectors"]),
    (["qsat-general", "projectors", "--mode", "detectability", "--t", "2",
      "--lambda-star", "0.5"], ["projectors", "--t", "2"]),
    (["polymer-z", "weights"], ["weights"]),
], ids=lambda argv: " ".join(argv))
def test_reported_max_degree_is_the_engine_graphs(tmp_path, capsys,
                                                  monkeypatch, argv,
                                                  check_argv):
    # the certificate reads D off the graph the engine runs on, the product
    # graph under detectability, and check reports the same D
    from llcount import clusters

    graphs = []

    class Recording(clusters._Roots):
        def __init__(self, g, *args):
            graphs.append(g)
            super().__init__(g, *args)

    monkeypatch.setattr(clusters, "_Roots", Recording)
    inputs = _degree_inputs(tmp_path)
    code, out, err = _run(capsys, [argv[0], inputs[argv[1]], *argv[2:],
                                   "--delta", "1.0", "--force", "--format",
                                   "jsonl"])
    assert code == 0, err
    (g,) = graphs
    degree = max((len(g.neighbors(v)) for v in g.vertices()), default=0)
    assert degree >= 1
    report = _last_json(out)
    assert (report["graph_order"], report["max_degree"]) == (
        g.vertex_count, degree)
    _, out, _ = _run(capsys, ["check", inputs[check_argv[0]],
                              *check_argv[1:], "--delta", "1.0", "--format",
                              "jsonl"])
    report = _last_json(out)
    assert (report["graph_order"], report["max_degree"]) == (
        g.vertex_count, degree)


def _large_delta_inputs(tmp_path):
    """One input of each kind the run commands and check read."""
    cnf = _write_cnf(tmp_path, chain_cnf(random.Random(1), 6))
    path = build_graph(2, [(0, 1)])
    weights = tmp_path / "w.spec"
    weights.write_text(format_weights_spec(
        path, {(0,): 1e-3, (1,): 1e-3, (0, 1): 1e-6}, 2))
    events = tmp_path / "e.spec"
    events.write_text("vertices 2\nedges 1\n0 1\nmax-size 2\n"
                      "prob 0 1e-3\nprob 1 1e-3\nprob 0,1 1e-6\n")
    proj = tmp_path / "p.spec"
    proj.write_text(format_projector_spec(
        single_fat_projector(random.Random(2), qubits=3)))
    return {"cnf": cnf, "weights": str(weights), "events": str(events),
            "projectors": str(proj)}


@pytest.mark.parametrize("argv", [
    ["count-sat", "cnf"], ["prob-intersection", "cnf"],
    ["prob-intersection", "events"], ["polymer-z", "weights"],
    ["check", "cnf"], ["check", "weights"], ["check", "events"],
    ["check", "projectors", "--t", "1"], ["qsat-commuting", "projectors"],
    ["qsat-general", "projectors"],
    ["qsat-general", "projectors", "--mode", "detectability",
     "--lambda-star", "0.5"],
])
@pytest.mark.parametrize("delta", ["700", "800", "1e308"])
def test_large_delta_exits_2(tmp_path, capsys, argv, delta):
    # e^(1+delta) leaves float range above delta = 708.8; the decay
    # threshold then underflows toward 0, so every hypothesis fails as it
    # does at delta = 700
    inputs = _large_delta_inputs(tmp_path)
    code, _, _ = _run(capsys, [argv[0], inputs[argv[1]], *argv[2:],
                               "--delta", delta, "--format", "jsonl"])
    assert code == 2


def test_decay_threshold_underflows_past_float_range():
    from llcount.clusters import weight_decay_threshold

    assert weight_decay_threshold(0.1, 2) == 1.0 / (math.exp(1.1) * 5)
    assert weight_decay_threshold(700.0, 2) == 1.0 / (math.exp(701.0) * 5)
    assert 0.0 < weight_decay_threshold(708.0, 0) < weight_decay_threshold(
        707.0, 0)
    assert 0.0 < weight_decay_threshold(720.0, 1) < 1e-310
    assert weight_decay_threshold(1e308, 1) == 0.0


def test_nonfinite_sum_exits_5(tmp_path, capsys):
    # forced past the decay check, at m = 2 the cluster of a vertex taken
    # twice has the term -w^2 / 2, which leaves float range; at m = 1 the
    # log value 2e200 is finite, but its exp is not
    path = tmp_path / "big.spec"
    path.write_text(format_weights_spec(
        build_graph(2, [(0, 1)]), {(0,): 1e200, (1,): 1e200, (0, 1): 1e200},
        2))
    for delta, error in (
            ("1.0", "nonfinite truncated expansion value"),
            ("5", "exp of the truncated log value 2e+200 leaves float range")):
        code, out, err = _run(capsys, ["polymer-z", str(path), "--force",
                                       "--delta", delta, "--format", "jsonl"])
        assert code == 5 and out == ""
        assert "Traceback" not in err
        assert _last_json(err)["error"] == error


# ---------------------------------------------------------------------------
# Each command, mode and input kind accepts only the flags it reads.

# (command and mode, input kind) -> the optional flags its run reads beyond
# --epsilon, --delta and --format, which every run command reads
_READS = {
    ("count-sat", "cnf"): "--force --threads --coloring --exact-rational",
    ("prob-intersection", "cnf"): "--force --threads --coloring",
    ("prob-intersection", "events"): "--force --threads --coloring",
    ("qsat-commuting", "projectors"):
        "--force --threads --coloring --dense-cap",
    ("qsat-general", "projectors"): "--force --threads --dense-cap",
    ("qsat-general --mode stability", "projectors"):
        "--force --threads --dense-cap",
    ("qsat-general --mode detectability", "projectors"):
        "--force --threads --coloring --dense-cap --t --lambda-star",
    ("polymer-z", "weights"): "--force --threads",
    ("check", "cnf"): "--coloring",
    ("check", "events"): "--coloring",
    ("check", "weights"): "",
    ("check", "projectors"): "--coloring --dense-cap --t",
}

# what each command's -h lists
_HELP_FLAGS = {
    "count-sat": "--force --threads --coloring --exact-rational",
    "prob-intersection": "--force --threads --coloring",
    "qsat-commuting": "--force --threads --coloring --dense-cap",
    "qsat-general": "--force --threads --coloring --dense-cap --mode --t "
                    "--lambda-star",
    "polymer-z": "--force --threads",
    "check": "--coloring --dense-cap --t",
}

_UNREAD = [
    # dropped from the command
    ("count-sat", "cnf", "--dense-cap"),
    ("prob-intersection", "cnf", "--dense-cap"),
    ("prob-intersection", "events", "--dense-cap"),
    ("polymer-z", "weights", "--dense-cap"),
    ("polymer-z", "weights", "--coloring"),
    *(("check", kind, flag) for kind in ("cnf", "events", "weights",
                                         "projectors")
      for flag in ("--force", "--threads", "--stability-cap")),
    # refused by the mode or the input kind
    *((mode, "projectors", flag)
      for mode in ("qsat-general", "qsat-general --mode stability")
      for flag in ("--coloring", "--t", "--lambda-star")),
    *(("check", kind, flag) for kind in ("cnf", "events", "weights")
      for flag in ("--t", "--dense-cap")),
    ("check", "weights", "--coloring"),
]


def _flag_argv(tmp_path, command, kind, flags):
    """The argv of ``command`` on the ``kind`` input with each of ``flags``
    given a value that run accepts."""
    from llcount.cnf import cnf_dependency_graph, parse_dimacs
    from llcount.formats import (parse_events_spec, parse_projector_spec,
                                 parse_weights_spec)
    from llcount.graphs import greedy_coloring, support_dependency_graph

    inputs = _large_delta_inputs(tmp_path)
    text = open(inputs[kind]).read()
    graph = {"cnf": lambda: cnf_dependency_graph(parse_dimacs(text)),
             "events": lambda: parse_events_spec(text).graph,
             "weights": lambda: parse_weights_spec(text)[0],
             "projectors": lambda: support_dependency_graph(
                 parse_projector_spec(text))}[kind]()
    coloring = tmp_path / "g.col"
    coloring.write_text("".join(
        f"{v} {c}\n" for v, c in enumerate(greedy_coloring(graph).class_of)))
    values = {"--epsilon": ["0.2"], "--force": [], "--exact-rational": [],
              "--threads": ["2"], "--coloring": [str(coloring)],
              "--dense-cap": ["1024"], "--t": ["1"], "--lambda-star": ["0.5"],
              "--stability-cap": ["2"]}
    name, *mode = command.split()
    argv = [name, inputs[kind], *mode, "--delta", "1.0", "--format", "jsonl"]
    for flag in flags:
        argv += [flag, *values[flag]]
    return argv


def _exit(capsys, argv):
    """The exit code and stderr of ``main``, a usage error's included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


@pytest.mark.parametrize("command, kind, flag", _UNREAD)
def test_a_flag_the_run_does_not_read_exits_3(tmp_path, capsys, command,
                                              kind, flag):
    code, err = _exit(capsys, _flag_argv(tmp_path, command, kind, [flag]))
    assert code == 3
    assert flag in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, kind", list(_READS))
def test_each_flag_the_run_reads_is_accepted(tmp_path, capsys, command,
                                             kind):
    for flag in [None, "--epsilon", *_READS[command, kind].split()]:
        code, err = _exit(capsys, _flag_argv(tmp_path, command, kind,
                                             [flag] if flag else []))
        assert code in (0, 2), (flag, err)


@pytest.mark.parametrize("command", list(_HELP_FLAGS))
def test_help_lists_the_flags_the_command_reads(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, "-h"])
    assert info.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    listed = re.findall(r"\[(--?[\w-]+)", usage)
    assert sorted(listed) == sorted(
        ["-h", "--epsilon", "--delta", "--format",
         *_HELP_FLAGS[command].split()])


@pytest.mark.parametrize("command, kind, flag, value", [
    ("count-sat", "cnf", "--t", "2"),      # would be --threads
    ("count-sat", "cnf", "--eps", "0.5"),  # would be --epsilon
    ("polymer-z", "weights", "--t", "0"),  # would fail as --threads
])
def test_an_abbreviated_flag_exits_3(tmp_path, capsys, command, kind, flag,
                                     value):
    path = _large_delta_inputs(tmp_path)[kind]
    code, err = _exit(capsys, [command, path, flag, value])
    assert code == 3
    assert err.splitlines()[-1].endswith(
        f"error: unrecognized arguments: {flag} {value}")
    assert "--threads" not in err.splitlines()[-1]


# ---------------------------------------------------------------------------
# One number grammar: '1_0' and non-ASCII digits, which Python's int() and
# float() read, are refused in every input, flag and environment variable.

_WEIGHTS = "vertices 2\nedges 1\n0 1\nmax-size 2\n"


@pytest.mark.parametrize("command, text, message", [
    ("polymer-z", _WEIGHTS + "weight 0 1_0e-3\nweight 1 1e-3\n"
     "weight 0,1 1e-6\n", "line 5: expected number value, got '1_0e-3'"),
    ("polymer-z", _WEIGHTS + "weight 0 1e-3\nweight 1 \u0661e-3\n"
     "weight 0,1 1e-6\n", "line 6: expected number value, got '\u0661e-3'"),
    ("check", _WEIGHTS + "weight 0 1e-3\nweight 1 1e-3\n"
     "weight 0,1 1e-6 0_0\n", "line 7: expected number value, got '0_0'"),
    ("prob-intersection", _WEIGHTS.replace("weight", "prob")
     + "prob 0 0.00_1\nprob 1 1e-3\nprob 0,1 1e-6\n",
     "line 5: expected number value, got '0.00_1'"),
    ("qsat-commuting", "d 2\nqudits 1\nprojector\nsupport 0\nmatrix\n"
     "1 0  0 0\n0 0  0_0 0\nend\n",
     "line 7: expected number matrix entry, got '0_0'"),
])
def test_spec_numbers_are_ascii(tmp_path, capsys, command, text, message):
    path = tmp_path / "in.spec"
    path.write_text(text, encoding="utf-8")
    code, out, err = _run(capsys, [command, str(path), "--format", "jsonl"])
    assert code == 3 and out == ""
    assert _last_json(err)["error"] == message


@pytest.mark.parametrize("argv, flag, kind", [
    (["count-sat", "cnf", "--delta", "1_0"], "--delta", "float"),
    (["count-sat", "cnf", "--epsilon", "\u0660.\u0665"], "--epsilon",
     "float"),
    (["count-sat", "cnf", "--threads", "1_0"], "--threads", "int"),
    (["qsat-general", "projectors", "--mode", "detectability", "--t", "1_0"],
     "--t", "int"),
    (["qsat-general", "projectors", "--mode", "detectability",
      "--lambda-star", "0_5"], "--lambda-star", "float"),
    (["check", "projectors", "--t", "\u0662"], "--t", "int"),
    (["qsat-commuting", "projectors", "--dense-cap", "1_024"], "--dense-cap",
     "int"),
])
def test_flag_numbers_are_ascii(tmp_path, capsys, argv, flag, kind):
    inputs = _large_delta_inputs(tmp_path)
    code, err = _exit(capsys, [argv[0], inputs[argv[1]], *argv[2:]])
    assert code == 3
    assert f"argument {flag}: invalid {kind} value" in err
    assert "Traceback" not in err


def test_ascii_numbers_still_read_as_before():
    from llcount.cnf import _integer, _real

    assert _integer("+12") == 12 and _integer("-0") == 0
    assert _real("1e-3") == 0.001 and _real("-.5") == -0.5
    assert math.isinf(_real("inf")) and math.isnan(_real("nan"))
    for read, tok in [(_integer, "1_2"), (_integer, "\u0663"),
                      (_real, "1_0e-3"), (_real, "\u0661e-3"),
                      (_real, "\uff10")]:
        with pytest.raises(ValueError):
            read(tok)


# ---------------------------------------------------------------------------
# A --coloring file is read against the vertex count alone and checked for
# properness once, on the graph the run builds.

def _coloring_inputs(tmp_path):
    """A CNF chain, an events-spec and a projector spec, each with an edge
    (0, 1), and a one-color coloring file for each."""
    inputs = _large_delta_inputs(tmp_path)
    pair = tmp_path / "pair.spec"
    pair.write_text(format_projector_spec(
        overlapping_pair(random.Random(0), 4, 3, 1)))
    inputs["projectors"] = str(pair)
    colorings = {}
    for kind, n in (("cnf", 6), ("events", 2), ("projectors", 2)):
        path = tmp_path / f"{kind}.col"
        path.write_text("".join(f"{v} 0\n" for v in range(n)))
        colorings[kind] = str(path)
    return inputs, colorings


@pytest.mark.parametrize("argv", [
    ["count-sat", "cnf"], ["prob-intersection", "cnf"],
    ["prob-intersection", "events"], ["qsat-commuting", "projectors"],
    ["qsat-general", "projectors", "--mode", "detectability"],
    ["check", "cnf"], ["check", "events"], ["check", "projectors"],
    ["check", "projectors", "--t", "2"],
])
def test_an_improper_coloring_exits_3(tmp_path, capsys, argv):
    inputs, colorings = _coloring_inputs(tmp_path)
    code, out, err = _run(capsys, [argv[0], inputs[argv[1]], *argv[2:],
                                   "--coloring", colorings[argv[1]],
                                   "--format", "jsonl"])
    assert code == 3 and out == ""
    assert _last_json(err)["error"] == (
        "invalid input: improper coloring: edge (0, 1) is monochromatic")


@pytest.mark.parametrize("argv, builder", [
    (["prob-intersection", "cnf"], "cnf_dependency_graph"),
    (["qsat-commuting", "projectors"], "support_dependency_graph"),
    (["qsat-general", "projectors", "--mode", "detectability"],
     "support_dependency_graph"),
])
@pytest.mark.parametrize("with_coloring", [False, True])
def test_run_commands_build_the_dependency_graph_once(
        tmp_path, capsys, monkeypatch, argv, builder, with_coloring):
    import llcount.cli
    import llcount.cnf
    import llcount.graphs
    import llcount.projectors
    import llcount.qsat

    builds = []
    original = getattr(llcount.cnf if builder == "cnf_dependency_graph"
                       else llcount.graphs, builder)

    def counting(source):
        builds.append(source)
        return original(source)

    for module in (llcount.cnf, llcount.graphs, llcount.projectors,
                   llcount.qsat, llcount.cli):
        if hasattr(module, builder):
            monkeypatch.setattr(module, builder, counting)
    inputs = _large_delta_inputs(tmp_path)
    extra = []
    if with_coloring:
        # greedy's colors, which are proper on either graph
        coloring = tmp_path / "g.col"
        n = 6 if argv[1] == "cnf" else 1
        coloring.write_text("".join(f"{v} {v % 2}\n" for v in range(n)))
        extra = ["--coloring", str(coloring)]
    code, err = _exit(capsys, [argv[0], inputs[argv[1]], *argv[2:], *extra,
                               "--delta", "1.0", "--format", "jsonl"])
    assert code in (0, 2), err
    assert len(builds) == 1


# ---------------------------------------------------------------------------
# The detectability product graph is bounded before it is built.

@pytest.mark.parametrize("argv", [
    ["qsat-general", "--mode", "detectability", "--t", "100000"],
    ["check", "--t", "100000"],
])
def test_a_product_past_its_cap_exits_4_before_it_is_built(
        tmp_path, capsys, monkeypatch, argv):
    import time

    import llcount.qsat

    def refuse(*args):
        raise AssertionError("the product graph was built")

    monkeypatch.setattr(llcount.qsat, "strong_product_with_complete", refuse)
    path = _large_delta_inputs(tmp_path)["projectors"]
    start = time.perf_counter()
    code, out, err = _run(capsys, [argv[0], path, *argv[1:],
                                   "--format", "jsonl"])
    assert time.perf_counter() - start < 10
    # the rank condition fails at this t too: the cap comes first
    assert code == 4 and out == ""
    assert _last_json(err)["error"] == (
        "the 100000-round product graph has 9999900000 adjacency entries, "
        "exceeding cap 1048576; lower t")
