"""Start-up footprint: the CNF and table commands never load numpy or the
projector stack, and the package's exports still resolve lazily."""

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

EXPORTS = {
    "AffineResult", "ApproxResult", "Cluster", "CnfFormula", "Coloring",
    "ConditionCheck", "CountResult", "DependencyGraph", "DetectabilityParams",
    "DimensionResult", "EventTableOracle", "HypothesisViolation",
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
import contextlib, io, json, sys
heavy = {heavy!r}
loaded = lambda: sorted(m for m in heavy if m in sys.modules)
import llcount.cli
steps = [loaded()]
for argv in {calls!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = llcount.cli.main(argv)
    steps.append([argv, code, loaded()])
print(json.dumps(steps))
"""


def _src() -> str:
    return str(Path(llcount.__file__).resolve().parent.parent)


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
    env = dict(os.environ, PYTHONPATH=_src())
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(heavy=HEAVY, calls=calls)],
        capture_output=True, text=True, env=env, cwd=tmp_path, check=True)
    after_import, *steps = json.loads(proc.stdout)
    assert after_import == []
    assert [argv for argv, _, _ in steps] == calls
    for argv, code, loaded in steps:
        assert code == 0, (argv, proc.stderr)
        assert loaded == [], argv


def test_projector_commands_still_load_the_projector_stack(tmp_path):
    path = tmp_path / "p.spec"
    path.write_text("d 2\nqudits 2\nprojector\nsupport 0 1\nmatrix\n"
                    "1 0  0 0  0 0  0 0\n" + "0 0  0 0  0 0  0 0\n" * 3
                    + "end\n")
    env = dict(os.environ, PYTHONPATH=_src())
    calls = [["qsat-commuting", str(path)]]
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(heavy=HEAVY, calls=calls)],
        capture_output=True, text=True, env=env, cwd=tmp_path, check=True)
    (_, code, loaded), = json.loads(proc.stdout)[1:]
    assert code == 0
    assert loaded == sorted(HEAVY)


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
    assert llcount.cli.qsat is llcount.qsat
    assert llcount.cli.oracles is llcount.oracles
