"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here, from the criteria themselves.  Criterion 6's
T=4 leg is provably unattainable at the stated instance scale (see the
strict-xfail test, which carries the impossibility argument); the attainable
certified legs (T=1, T=2) and an uncertified empirical leg are verified.
"""

import cmath
import itertools
import json
import math
import random
import time

import pytest

from llcount.cli import main as cli_main
from llcount.clusters import (_SHAPE_TABLE, _sum_clusters,
                              convergence_bound, enumerate_clusters, ursell)
from llcount.cnf import count_satisfying
from llcount.formats import format_projector_spec, format_weights_spec
from llcount.graphs import (build_graph, greedy_coloring,
                            enumerate_connected_subgraphs,
                            strong_product_with_complete)
from llcount.oracles import (brute_force_polymer_z, brute_force_sat_count,
                             exact_detectability_trace,
                             exact_dimension_full_diagonalization,
                             exact_inclusion_exclusion_probability,
                             ursell_bruteforce)
from llcount.projectors import rank_normalized, support_dependency_graph
from llcount.qsat import (approx_dim_commuting, approx_dim_detectability, approx_dim_general,
                          detectability_weight, stability_check,
                          suggest_delta_general)

import gen


def _report(criterion, name, detail):
    print(f"ACCEPTANCE {criterion} ({name}): PASS - {detail}")


def _connected_graphs_up_to(max_order):
    for n in range(1, max_order + 1):
        all_edges = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(all_edges)):
            g = build_graph(n, [e for i, e in enumerate(all_edges)
                                if mask >> i & 1])
            seen = {0}
            stack = [0]
            while stack:
                u = stack.pop()
                for w in g.neighbors(u):
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == n:
                yield g


def test_acceptance_1_ursell_exactness():
    start = time.perf_counter()
    count = 0
    for g in _connected_graphs_up_to(5):
        assert ursell(g) == ursell_bruteforce(g)
        count += 1
    elapsed = time.perf_counter() - start
    assert count == 772  # 1 + 1 + 4 + 38 + 728 connected labeled graphs
    assert elapsed < 10.0
    _report(1, "ursell-exactness",
            f"{count} connected graphs on <= 5 vertices, exact rational "
            f"equality, {elapsed:.2f}s")


def test_acceptance_2_convergence_bound():
    start = time.perf_counter()
    rng = random.Random(22022)
    delta = 0.2
    models = 0
    worst_slack = math.inf
    while models < 50:
        g = gen.random_graph(rng, rng.randint(2, 8), 3)
        oracle = gen.table_oracle(gen.random_weight_table(rng, g, delta))
        logz = cmath.log(brute_force_polymer_z(g, oracle))
        clusters = list(enumerate_clusters(g, 6))
        for m in range(1, 7):
            tm = _sum_clusters([c for c in clusters if c.total_size <= m],
                               oracle)
            bound = convergence_bound(g.vertex_count, g.max_degree(), delta, m)
            err = abs(tm - logz)
            assert err <= bound + 1e-12, (models, m, err, bound)
            worst_slack = min(worst_slack, bound - err)
        models += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(2, "convergence-bound",
            f"50 random models, m=1..6, min slack {worst_slack:.3g}, "
            f"{elapsed:.2f}s")


def test_acceptance_3_classical_fptas():
    start = time.perf_counter()
    catalog = gen.cnf_catalog()
    assert len(catalog) >= 20
    exact_matches = 0
    for f in catalog:
        ie = exact_inclusion_exclusion_probability(f)
        exact_prob = float(ie)
        for eps in (0.1, 0.01):
            res = count_satisfying(f, eps, 0.1)
            assert abs(res.probability - exact_prob) <= eps * exact_prob, \
                (f.clause_count, eps)
        if f.variable_count <= 24:
            brute = brute_force_sat_count(f)
            assert ie * (1 << f.variable_count) == brute
            exact_matches += 1
    elapsed = time.perf_counter() - start
    assert exact_matches >= 3
    assert elapsed < 300.0
    _report(3, "classical-fptas",
            f"{len(catalog)} instances x eps in {{0.1, 0.01}} vs exact "
            f"inclusion-exclusion; {exact_matches} exact sat-count matches, "
            f"{elapsed:.2f}s")


def test_acceptance_4_commuting_fptas():
    start = time.perf_counter()
    eps = 0.05
    catalog = gen.commuting_catalog()
    assert len(catalog) >= 20
    worst = 0.0
    for i, ps in enumerate(catalog):
        exact = exact_dimension_full_diagonalization(ps)
        res = approx_dim_commuting(ps, eps, 0.05)
        rel = abs(res.normalized - exact.normalized_dim) / exact.normalized_dim
        assert rel <= eps, (i, rel)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(4, "commuting-fptas",
            f"{len(catalog)} commuting families <= 12 qubits, worst relative "
            f"error {worst:.3g} <= {eps}, {elapsed:.2f}s")


def test_acceptance_5_general_fptas():
    start = time.perf_counter()
    eps = 0.05
    rng = random.Random(515)
    disguised = [gen.overlapping_pair(rng, 9, 7, 1, conjugated=True),
                 gen.overlapping_pair(rng, 8, 7, 1),
                 gen.disjoint_family(rng, 4, 2, diagonal=False)]
    for ps in disguised:
        exact = exact_dimension_full_diagonalization(ps)
        com = approx_dim_commuting(ps, eps, 0.05)
        delta = suggest_delta_general(ps, eps)
        gen_res = approx_dim_general(ps, eps, delta)
        assert abs(gen_res.normalized - com.normalized) \
            <= 2 * eps * exact.normalized_dim
        assert abs(gen_res.normalized - exact.normalized_dim) \
            <= eps * exact.normalized_dim

    catalog = gen.noncommuting_catalog()
    assert len(catalog) >= 10
    worst = 0.0
    for i, ps in enumerate(catalog):
        delta = suggest_delta_general(ps, eps)
        stab = stability_check(ps, 2, delta)
        assert stab.passed, i
        res = approx_dim_general(ps, eps, delta)
        exact = exact_dimension_full_diagonalization(ps)
        rel = abs(res.normalized - exact.normalized_dim) / exact.normalized_dim
        assert rel <= eps, (i, rel)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _report(5, "general-fptas",
            f"{len(disguised)} commuting-disguised + {len(catalog)} mildly "
            f"non-commuting instances, worst relative error {worst:.3g} "
            f"<= {eps}, {elapsed:.2f}s")


def _affine_bound_holds(ps, t, eps, delta, force=False):
    exact = exact_dimension_full_diagonalization(ps)
    res = approx_dim_detectability(ps, eps, delta, t=t,
                                   lambda_star=exact.lambda_star, force=force)
    err = abs(res.z - exact.normalized_dim)
    allowed = eps * exact.normalized_dim + res.additive_part
    assert err <= allowed, (t, err, allowed)
    return err, allowed


def test_acceptance_6_detectability_affine_certified_t1_t2():
    start = time.perf_counter()
    eps = 0.05
    cat1 = gen.detectability_catalog_t1()
    cat2 = gen.detectability_catalog_t2()
    assert len(cat1) >= 10 and len(cat2) >= 10
    for ps in cat1:
        _affine_bound_holds(ps, 1, eps, 0.05)
    for ps in cat2:
        _affine_bound_holds(ps, 2, eps, 0.05)
    elapsed = time.perf_counter() - start
    _report(6, "detectability-affine-certified",
            f"T=1 on {len(cat1)} instances and T=2 on {len(cat2)} instances "
            f"meeting the T-dependent rank condition, {elapsed:.2f}s")


@pytest.mark.xfail(
    strict=True,
    reason="Criterion 6 at T=4 is unattainable at <= 8 qubits: the rank "
           "condition requires normalized rank <= (1/(e^(1+delta)(2T(D+1)-1)))"
           "^(T*chi) <= (1/(7e))^4 ~ 7.6e-6 even in the most favorable case "
           "(isolated projector, D=0, chi=1, delta->0), while any nonzero "
           "projector on a <= 2^8-dimensional space has normalized rank >= "
           "2^-8 ~ 3.9e-3.  No valid instance family exists; see the "
           "decisions ledger.")
def test_acceptance_6_detectability_certified_t4():
    t = 4
    # Most favorable parameters reachable at <= 8 qubits: isolated projector.
    best_threshold = (1.0 / (math.e * (2 * t * 1 - 1))) ** t
    min_nonzero_rank = 2.0 ** -8
    print(f"ACCEPTANCE 6 (detectability-certified-T4): UNATTAINABLE - "
          f"threshold <= {best_threshold:.3g} < minimum nonzero normalized "
          f"rank {min_nonzero_rank:.3g}")
    assert best_threshold < min_nonzero_rank  # the impossibility itself
    pytest.fail("no nonzero-projector instance on <= 8 qubits can satisfy "
                "the T=4 rank condition")


def test_acceptance_6_detectability_uncertified_t4_and_monotonicity():
    start = time.perf_counter()
    eps = 0.1
    rng = random.Random(646)
    instances = [gen.single_fat_projector(rng, qubits=7),
                 gen.overlapping_pair(rng, 8, 7, 1),
                 gen.overlapping_pair(rng, 8, 7, 1, conjugated=True)]
    for ps in instances:
        for t in (2, 4):
            # rank condition fails at T=4 (see the xfail above): forced run,
            # no certificate; the affine inequality itself still holds here
            _affine_bound_holds(ps, t, eps, 0.7, force=True)

    monotone = gen.detectability_monotone_catalog()
    for ps in monotone:
        exact = exact_dimension_full_diagonalization(ps)
        col = greedy_coloring(support_dependency_graph(ps))
        errors = [exact_detectability_trace(ps, col, t) - exact.normalized_dim
                  for t in (1, 2, 4)]
        assert all(e >= -1e-9 for e in errors)
        assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))
    elapsed = time.perf_counter() - start
    _report(6, "detectability-uncertified-T4+monotone",
            f"forced T in {{2,4}} runs satisfy the affine bound empirically; "
            f"exact trace error non-increasing in T on "
            f"{len(monotone)} non-commuting instances, {elapsed:.2f}s")


def test_acceptance_7_weight_decay_bounds():
    start = time.perf_counter()
    margins = []

    # classical: per-polymer |w|^(1/|gamma|) <= eta for the certified delta
    for f in gen.cnf_catalog()[:8]:
        res = count_satisfying(f, 0.1, 0.1)
        rep = res.approx.condition_report
        assert rep.passed
        margins.append(("cnf", rep.as_check().margin))

    # commuting: engine report from the pipeline run
    for ps in gen.commuting_catalog()[:8]:
        res = approx_dim_commuting(ps, 0.1, 0.05)
        rep = res.approx.condition_report
        assert rep.passed
        margins.append(("commuting", rep.as_check().margin))

    # general stability: connected sets up to the truncation order
    for ps in gen.noncommuting_catalog()[:4]:
        delta = suggest_delta_general(ps, 0.1)
        rep = stability_check(ps, 3, delta)
        assert rep.passed
        margins.append(("stability", rep.as_check().margin))

    # detectability: product-graph polymers against the T-dependent bound
    rng = random.Random(7007)
    for t, ps in ((1, gen.overlapping_pair(rng, 8, 7, 1)),
                  (2, gen.single_fat_projector(rng, qubits=7))):
        g = support_dependency_graph(ps)
        col = greedy_coloring(g)
        chi = max(col.num_colors, 1)
        eta = 1.0 / (math.e * (2 * t * (g.max_degree() + 1) - 1))
        assert max(rank_normalized(p, ps.d) for p in ps.projectors) \
            <= eta ** (t * chi)
        product = strong_product_with_complete(g, t)
        worst = math.inf
        for polymer in enumerate_connected_subgraphs(product, 2 * t):
            w = abs(detectability_weight(ps, col, t, polymer))
            worst = min(worst, eta ** len(polymer) - w)
            assert w <= eta ** len(polymer) * (1 + 1e-9)
        margins.append((f"detectability-T{t}", worst))

    elapsed = time.perf_counter() - start
    summary = "; ".join(f"{name} min margin {min(m for n, m in margins if n == name):.3g}"
                        for name in dict.fromkeys(n for n, _ in margins))
    _report(7, "weight-decay-bounds", f"{summary}, {elapsed:.2f}s")


def _cli_json(capsys, argv):
    code = cli_main(argv)
    out = capsys.readouterr().out
    assert code == 0, argv
    report = json.loads(out.strip().splitlines()[-1])
    report.pop("elapsed_s", None)
    return json.dumps(report, sort_keys=True)


def test_acceptance_8_determinism(tmp_path, capsys):
    start = time.perf_counter()
    rng = random.Random(88)

    f = gen.chain_cnf(rng, 5, share=6)
    lines = [f"p cnf {f.variable_count} {len(f.clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in f.clauses]
    cnf_path = tmp_path / "det.cnf"
    cnf_path.write_text("\n".join(lines) + "\n")

    pair = gen.overlapping_pair(rng, 9, 7, 1, conjugated=True)
    pair_path = tmp_path / "pair.spec"
    pair_path.write_text(format_projector_spec(pair))

    single = gen.single_fat_projector(rng, qubits=7)
    single_path = tmp_path / "single.spec"
    single_path.write_text(format_projector_spec(single))

    g = build_graph(3, [(0, 1), (1, 2)])
    table = {(0,): 0.01, (1,): 0.02, (2,): 0.01,
             (0, 1): 0.001, (1, 2): -0.001, (0, 1, 2): 5e-05}
    weights_path = tmp_path / "w.spec"
    weights_path.write_text(format_weights_spec(g, table, 3))

    events_path = tmp_path / "e.spec"
    events_path.write_text(
        "vertices 3\nedges 2\n0 1\n1 2\nmax-size 3\n"
        "prob 0 0.001\nprob 1 0.0008\nprob 2 0.0006\n"
        "prob 0,1 5e-05\nprob 1,2 4e-05\nprob 0,1,2 1e-06\n")

    pipelines = [
        ["count-sat", str(cnf_path), "--epsilon", "0.01"],
        ["prob-intersection", str(events_path), "--epsilon", "0.05"],
        ["qsat-commuting", str(pair_path), "--epsilon", "0.05"],
        ["qsat-general", str(single_path), "--delta", "1.0"],
        ["qsat-general", str(single_path), "--mode", "detectability",
         "--t", "2", "--delta", "0.05"],
        ["polymer-z", str(weights_path), "--delta", "0.5"],
    ]
    for argv in pipelines:
        argv = argv + ["--format", "jsonl"]
        reports = {_cli_json(capsys, argv), _cli_json(capsys, argv)}
        _SHAPE_TABLE.clear()
        reports.add(_cli_json(capsys, argv))
        assert len(reports) == 1, argv
    elapsed = time.perf_counter() - start
    _report(8, "determinism",
            f"{len(pipelines)} pipelines bit-identical across repeated runs "
            f"and a cleared shape table (timings excluded), {elapsed:.2f}s")
