"""Tests of the benchmark harness itself (inputs, tracing, statistics)."""

import importlib.util
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if importlib.util.find_spec("llcount") is None:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import compare, inputs, reference, tracing, worker  # noqa: E402
from perfbench.run import tail_percentile  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_are_deterministic_in_the_seed(workload):
    first = inputs.build(workload, 3)
    again = inputs.build(workload, 3)
    other = inputs.build(workload, 4)
    assert first.files == again.files
    assert [vars(c) for c in first.calls] == [vars(c) for c in again.calls]
    assert first.files.keys() == other.files.keys()
    assert first.files != other.files


def _small_calls(tmp_path: Path) -> list[dict]:
    """A few cheap calls that between them reach every layer."""
    keep = {"count-sat:chain20", "count-sat:ring40-exact-rational",
            "qsat-commuting:comm00", "qsat-commuting:comm12",
            "check:noncomm00", "qsat-general:noncomm00",
            "detect-t1:detect-t1-04", "detect-t2:detect-t2-00"}
    calls = []
    for name in inputs.WORKLOADS:
        built = inputs.build(name, 5)
        built.write(tmp_path)
        calls += [vars(c) for c in built.calls if c.id in keep]
    assert len(calls) == len(keep)
    return calls


def test_traced_and_untraced_reports_match(tmp_path, monkeypatch):
    import llcount.cli

    calls = _small_calls(tmp_path)
    monkeypatch.chdir(tmp_path)
    plain = worker.run_passes(llcount.cli, calls, 0.0)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        traced = worker.run_passes(llcount.cli, calls, 0.0, tracer)
    finally:
        restore()
    assert llcount.cli.main.__name__ == "main" and not hasattr(
        llcount.cli.main, "__wrapped__")

    def answers(run):
        return {cid: worker.comparable(r) for cid, r in run["results"].items()}

    assert answers(plain) == answers(traced)
    assert all(r["exception"] is None for r in traced["results"].values())
    metrics = tracing.layer_metrics(tracer, range(len(calls)), 1, 0)
    for name in ("cnf.weight_s", "formats.parse_s", "projectors.kdim_s",
                 "clusters.enum_s", "graphs.product_s", "qsat.checks_s"):
        assert metrics[name] > 0.0, name
    call_seconds = sum(row[0] for row in traced["passes"][0]["calls"])
    assert sum(tracer.self_times(range(len(calls))).values()) == pytest.approx(
        call_seconds, rel=0.05)


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    random.Random(0).shuffle(samples)
    assert tail_percentile(samples) == (90, 90.0)
    assert tail_percentile([float(i) for i in range(48)]) == (79, 37.0)
    for n in (21, 37, 60, 244):
        p, value = tail_percentile(list(range(n)))
        beyond = sum(1 for x in range(n) if x > value)
        assert beyond >= 10
        if p < 99:
            assert n - math.ceil((p + 1) * n / 100) < 10
    assert tail_percentile(list(range(12)))[0] == 50


@pytest.mark.parametrize("shape,n,k,share", [
    ("chain", 3, 12, 6), ("ring", 4, 12, 6),
    ("chain", 5, 6, 2), ("ring", 8, 6, 3), ("ring", 4, 8, 2),
])
def test_transfer_matrix_matches_brute_force(shape, n, k, share):
    from llcount import oracles
    make = inputs.chain_cnf if shape == "chain" else inputs.ring_cnf
    for seed in range(4):
        f = make(random.Random(seed), n, k, share)
        assert f.variable_count <= 26
        expected = oracles.brute_force_sat_count(reference.to_formula(f))
        assert reference.exact_cnf_count(f) == expected


@pytest.mark.parametrize("make", [inputs.chain_cnf, inputs.ring_cnf])
def test_transfer_matrix_matches_inclusion_exclusion(make):
    f = make(random.Random(9), 20)
    verdict = reference.cross_check_cnf(f)
    assert verdict.ok, verdict.note
    assert Fraction(reference.exact_cnf_count(f), 1 << f.variable_count) > 0


def test_compare_lists_moved_answers():
    base = {"id": "a", "command": "count-sat", "exit": 0, "exception": None,
            "m": 4, "cluster_count": 10, "log_value_re": -0.5,
            "log_value_im": 0.0, "log_error_bound": 0.01}
    same = dict(base, log_value_re=-0.5 + 1e-12)
    shifted = dict(base, log_value_re=-0.5 + 1e-4)
    assert compare.compare([base], [same]) == []
    assert compare.compare([base], [shifted]) == [
        f"a: log value moved 1.000e-04 > {compare.TOL * 0.01:.3e}"]
    assert compare.compare([base], [dict(base, exit=None,
                                         exception="OverflowError")])
    assert compare.compare([base], []) == ["a: missing from the new record"]
