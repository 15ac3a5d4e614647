"""Start-up footprint: the CNF and table commands never load numpy or the
projector stack, the CNF commands load no dataclasses, concurrent.futures,
logging or spec parser, and the package's exports still resolve lazily."""

import json
import os
import subprocess
import sys
from pathlib import Path

import llcount
import llcount.cli
import llcount.formats
import llcount.oracles
import llcount.projectors
import llcount.qsat

HEAVY = ("numpy", "llcount.projectors", "llcount.qsat", "llcount.oracles")
# what a CNF command does not run: record classes, a thread pool (and the
# logging it loads), the spec parser
LIGHT = ("dataclasses", "inspect", "concurrent.futures", "logging",
         "llcount.formats")

EXPORTS = {
    "AffineResult", "ApproxResult", "Cluster", "CnfFormula", "Coloring",
    "ConditionCheck", "CountResult", "DependencyGraph", "DimensionResult", "EventTableOracle", "HypothesisViolation",
    "LLCountError", "LocalProjector", "NumericFailure", "OracleBudget",
    "ProbabilityResult", "ProjectorSet", "ResourceCapExceeded",
    "SpecParseError", "WeightOracle", "approx_dim_commuting",
    "approx_dim_detectability", "approx_dim_general",
    "approx_partition_function", "approx_probability_intersection",
    "brute_force_polymer_z", "brute_force_sat_count", "build_graph",
    "check_weight_condition", "choose_truncation_order", "clusters", "cnf",
    "cnf_dependency_graph", "cnf_polymer_weight", "commuting_weight",
    "count_satisfying", "detectability_weight", "enumerate_clusters",
    "enumerate_connected_subgraphs", "errors", "exact_detectability_trace",
    "exact_dimension_full_diagonalization",
    "exact_inclusion_exclusion_probability", "general_ie_weight", "graphs",
    "greedy_coloring", "incompatible", "induced_components",
    "kernel_intersection_dim", "normalized_product_trace", "oracles",
    "parse_dimacs", "projectors", "qsat", "rank_normalized", "spectral_gap",
    "stability_check", "strong_product_with_complete",
    "suggest_delta_general", "support_dependency_graph",
    "truncated_expansion", "ursell", "ursell_bruteforce",
    "validate_projector", "verify_commuting", "weight_decay_threshold",
}

TABLE = "vertices 3\nedges 2\n0 1\n1 2\nmax-size 3\n"
KEYS = ("0", "1", "2", "0,1", "1,2", "0,1,2")

SCRIPT = """
import sys
before = set(sys.modules)
import contextlib, io, json
watched = {watched!r}
loaded = lambda: sorted(m for m in watched
                        if m in sys.modules and m not in before)
import llcount.cli
steps = [loaded()]
for argv in {calls!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = llcount.cli.main(argv)
    steps.append([argv, code, loaded()])
print(json.dumps(steps))
"""


def _footprint(tmp_path, watched, calls):
    """Run ``llcount.cli.main`` on each argv of ``calls`` in a fresh process:
    the ``watched`` modules newly loaded by ``import llcount.cli``, then
    (argv, exit code, newly loaded) after each call."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(llcount.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(watched=watched, calls=calls)],
        capture_output=True, text=True, env=env, cwd=tmp_path, check=True)
    after_import, *steps = json.loads(proc.stdout)
    assert [argv for argv, _, _ in steps] == calls
    for argv, code, _ in steps:
        assert code == 0, (argv, proc.stderr)
    return after_import, [loaded for _, _, loaded in steps]


def _write_inputs(tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 20 2\n" + " ".join(map(str, range(1, 13)))
                   + " 0\n" + " ".join(map(str, range(7, 19))) + " 0\n")
    events = tmp_path / "e.spec"
    events.write_text(TABLE + "".join(
        f"prob {k} {1e-6 ** (1 + k.count(','))!r}\n" for k in KEYS))
    weights = tmp_path / "w.spec"
    weights.write_text(TABLE + "".join(
        f"weight {k} {1e-6 ** (1 + k.count(','))!r}\n" for k in KEYS))
    return str(cnf), str(events), str(weights)


def test_cnf_and_table_commands_load_no_numpy(tmp_path):
    cnf, events, weights = _write_inputs(tmp_path)
    calls = [["count-sat", cnf], ["check", cnf], ["prob-intersection", cnf],
             ["prob-intersection", events], ["check", events],
             ["polymer-z", weights, "--delta", "0.5"],
             ["check", weights, "--delta", "0.5"]]
    after_import, steps = _footprint(tmp_path, HEAVY, calls)
    assert after_import == []
    assert steps == [[]] * len(calls)


def test_cnf_commands_load_no_dataclasses_pool_or_spec_parser(tmp_path):
    cnf, events, weights = _write_inputs(tmp_path)
    cnf_calls = [["count-sat", cnf], ["check", cnf],
                 ["prob-intersection", cnf]]
    table_calls = [["prob-intersection", events], ["check", events],
                   ["polymer-z", weights, "--delta", "0.5"],
                   ["check", weights, "--delta", "0.5"]]
    after_import, steps = _footprint(tmp_path, LIGHT, cnf_calls + table_calls)
    assert after_import == []
    assert steps == ([[]] * len(cnf_calls)
                     + [["llcount.formats"]] * len(table_calls))


def test_projector_commands_still_load_the_projector_stack(tmp_path):
    path = tmp_path / "p.spec"
    path.write_text("d 2\nqudits 2\nprojector\nsupport 0 1\nmatrix\n"
                    "1 0  0 0  0 0  0 0\n" + "0 0  0 0  0 0  0 0\n" * 3
                    + "end\n")
    _, steps = _footprint(tmp_path, HEAVY, [["qsat-commuting", str(path)]])
    assert steps == [sorted(HEAVY)]


def test_exports_resolve_lazily():
    assert llcount.__all__ == sorted(EXPORTS)
    namespace = {}
    exec("from llcount import *", namespace)
    assert EXPORTS <= namespace.keys()
    for name in EXPORTS:
        assert namespace[name] is getattr(llcount, name)
    assert llcount.oracles is sys.modules["llcount.oracles"]
    assert llcount.spectral_gap is llcount.projectors.spectral_gap
    assert llcount.approx_dim_general is llcount.qsat.approx_dim_general
    assert EXPORTS <= set(dir(llcount))


def test_projector_names_stay_on_cli_and_formats():
    # looked up, and patched, on these modules by callers such as tracers
    for name in ("ProjectorSet", "support_dependency_graph",
                 "verify_commuting"):
        assert getattr(llcount.cli, name) is getattr(llcount.projectors, name)
    for name in ("LocalProjector", "ProjectorSet", "validate_projector"):
        assert getattr(llcount.formats, name) is getattr(llcount.projectors,
                                                         name)
    assert llcount.cli.formats is llcount.formats
    assert llcount.cli.qsat is llcount.qsat
    assert llcount.cli.oracles is llcount.oracles
