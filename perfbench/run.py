"""llcount benchmark: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload cnf-chain --seed 1 --seconds 54 --trace 0

Builds the workload's inputs from the seed, timed afresh before each worker;
runs its calls through ``llcount.cli.main`` in fresh worker processes pinned
to one BLAS thread; then checks every answer against an exact reference.
Times are process CPU seconds (see worker.py).  It prints every metric by
name with its unit, and as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones, from
a traced worker, plus the tracing overhead measured against an untraced
worker run in the same invocation.  Per-call records, spans and the raw
worker output go to ``.perfbench_runs/`` under the repository root.
"""

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.worker import comparable, pin_threads  # noqa: E402

# Untraced runs split the window over this many fresh worker processes, so
# cold_pass_s, the build and import times and peak RSS are medians of several
# samples.
WORKERS = 3
# The whole invocation must end within 180 s; leave room for the references.
WORKER_DEADLINE_S = 150.0

# The metrics of the JSON line.  solve_s.tail, fail_frac and log_err.max are
# printed above it but not gated: see README.md.
END_TO_END_UNITS = {
    "setup_s": "s", "cold_pass_s": "s", "solve_s.p50": "s",
    "solves_per_s": "1/s", "peak_rss_mb": "MB",
}


def tail_percentile(samples) -> tuple[int, float]:
    """Highest integer percentile with at least ten samples beyond it.

    Uses the nearest-rank definition: percentile p is the sample of rank
    ceil(p/100 * N) in ascending order, and N - rank samples lie beyond it.
    Returns (p, value); when no percentile above 50 qualifies (about 20
    samples or fewer) it falls back to p50.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 50, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 50, ordered[math.ceil(n / 2) - 1]


def _require_program() -> None:
    if not (ROOT / "src" / "llcount" / "__init__.py").is_file():
        sys.exit(f"error: {ROOT / 'src' / 'llcount'} not found; run from a "
                 "checkout of the repository")


def _build(workload: str, seed: int, input_dir: Path):
    """Generate and write the inputs; return them and the seconds taken."""
    from perfbench import inputs
    if input_dir.exists():
        shutil.rmtree(input_dir)
    t0 = time.process_time()
    built = inputs.build(workload, seed)
    built.write(input_dir)
    return built, time.process_time() - t0


def _run_workers(args, input_dir: Path, run_dir: Path, deadline: float):
    """Build the inputs afresh before each worker and after the last one.

    The builds are timed between workers rather than back to back, so the
    median set-up time samples the host over the same window as the calls.
    Returns the inputs, the build times and the untraced and traced workers.
    """
    if args.trace:
        plan = [("worker-untraced", False), ("worker-traced", True)]
    else:
        plan = [(f"worker{i}", False) for i in range(WORKERS)]
    budget = args.seconds / len(plan)
    build_s, plain, traced = [], [], None
    for name, trace in plan:
        built, seconds = _build(args.workload, args.seed, input_dir)
        build_s.append(seconds)
        worker = _run_worker(input_dir, run_dir / f"{name}.json", budget,
                             trace, deadline)
        if trace:
            traced = worker
        else:
            plain.append(worker)
    build_s.append(_build(args.workload, args.seed, input_dir)[1])
    return built, build_s, plain, traced


def _run_worker(input_dir: Path, out: Path, seconds: float, trace: bool,
                deadline: float) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           str(input_dir), str(out), "--seconds", repr(seconds)]
    if trace:
        cmd.append("--trace")
    timeout = deadline - time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        sys.exit(f"error: worker exited {proc.returncode}\n{proc.stderr[-4000:]}")
    return json.loads(out.read_text())


def _judge(built, workers: list[dict]):
    """Verdict per call id, checked after the window.

    Answers come from the first worker's cold pass; every later pass of every
    worker must reproduce them exactly (``elapsed_s`` aside).
    """
    from perfbench.inputs import CnfInstance
    from perfbench.reference import References, cross_check_cnf
    refs = References(built)
    first = workers[0]["results"]
    changed = {cid for w in workers for cid in w["unstable"]}
    for w in workers[1:]:
        changed |= {cid for cid, res in w["results"].items()
                    if comparable(res) != comparable(first[cid])}
    verdicts = {}
    for call in built.calls:
        v = refs.verdict(call, first[call.id])
        if call.id in changed:
            v.ok = False
            v.note = (v.note + "; " if v.note else "") + "answer changed between passes"
        verdicts[call.id] = v
    cross = {input_id: cross_check_cnf(inst)
             for input_id, inst in built.instances.items()
             if isinstance(inst, CnfInstance) and len(inst.clauses) <= 20}
    return verdicts, cross


def _accounting(built, workers: list[dict], verdicts: dict):
    """attempted, failed, wrong answers and failure causes over all passes."""
    expect = {c.id: c.expect_exit for c in built.calls}
    attempted = failed = 0
    causes = Counter()
    for w in workers:
        for p in w["passes"]:
            for call_id, (_, exit_code, exception) in zip(w["call_ids"], p["calls"]):
                attempted += 1
                if exception is not None:
                    failed += 1
                    causes[f"{exception} on {call_id}"] += 1
                elif exit_code != expect[call_id] or not verdicts[call_id].ok:
                    failed += 1
                    causes[f"{verdicts[call_id].note or 'wrong exit'} on {call_id}"] += 1
    wrong = [cid for cid, v in verdicts.items()
             if not v.ok and workers[0]["results"][cid]["exception"] is None]
    return attempted, failed, wrong, causes


def _records(built, worker: dict, verdicts: dict) -> list[dict]:
    keys = ("m", "delta_used", "log_value_re", "log_value_im",
            "log_error_bound", "cluster_count", "value")
    out = []
    for call in built.calls:
        res = worker["results"][call.id]
        report = res["report"] or {}
        out.append({"id": call.id, "command": call.argv[0], "input": call.input,
                    "argv": call.argv, "exit": res["exit"],
                    "expected_exit": call.expect_exit,
                    "exception": res["exception"],
                    **{k: report.get(k) for k in keys},
                    "ref_ok": verdicts[call.id].ok,
                    "log_err": verdicts[call.id].log_err,
                    "note": verdicts[call.id].note})
    return out


def end_to_end(workers: list[dict], gen_s: float) -> tuple[dict, dict]:
    """End-to-end metrics over untraced workers, each a fresh process."""
    warm = [row[0] for w in workers for p in w["passes"][1:] for row in p["calls"]]
    warm_seconds = sum(p["seconds"] for w in workers for p in w["passes"][1:])
    pct, tail = tail_percentile(warm)
    import_s = statistics.median(w["import_s"] for w in workers)
    values = {
        "setup_s": gen_s + import_s,
        "cold_pass_s": statistics.median(w["passes"][0]["seconds"]
                                         for w in workers),
        "solve_s.p50": statistics.median(warm),
        "solves_per_s": len(warm) / warm_seconds,
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
    }
    info = {"samples": len(warm), "tail": tail, "tail_pct": pct,
            "import_s": import_s,
            "wall_per_cpu": sum(p["wall_s"] for w in workers
                                for p in w["passes"][1:]) / warm_seconds,
            "workers": len(workers),
            "warm_passes": sum(len(w["passes"]) - 1 for w in workers)}
    return values, info


def _median_warm_pass(worker: dict) -> float:
    return statistics.median(p["seconds"] for p in worker["passes"][1:])


def _print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:<34} {value:>14.6g} {unit:<6} {note}".rstrip())


def main(argv=None) -> int:
    pin_threads()
    from perfbench.inputs import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + WORKER_DEADLINE_S
    _require_program()

    run_dir = ROOT / ".perfbench_runs" / (
        f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else ""))
    run_dir.mkdir(parents=True, exist_ok=True)
    built, build_s, plain, traced = _run_workers(
        args, run_dir / "inputs", run_dir, deadline)
    workers = plain + ([traced] if traced else [])
    gen_s = statistics.median(build_s)

    sys.path.insert(0, str(ROOT / "src"))  # the references use llcount.oracles
    verdicts, cross = _judge(built, workers)
    attempted, failed, wrong, causes = _accounting(built, workers, verdicts)
    records = _records(built, workers[0], verdicts)
    (run_dir / "records.json").write_text(json.dumps(records, indent=1))
    correct = not wrong and all(v.ok for v in cross.values())

    env = workers[0]["env"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    print(f"env nproc={env['nproc']} affinity={env['affinity']} "
          f"python={env['python']} numpy={env['numpy']} "
          f"openblas={env['openblas']} blas_threads=1 calls/pass={len(built.calls)}")
    values, info = end_to_end(plain, gen_s)
    notes = {
        "setup_s": f"median of {len(build_s)} input builds {gen_s:.4f} s "
                   f"+ median llcount import {info['import_s']:.4f} s",
        "solve_s.p50": f"{info['samples']} warm calls in {info['warm_passes']} "
                       "warm passes",
        "solves_per_s": f"warm passes took {info['wall_per_cpu']:.3f} s of "
                        "wall time per CPU second",
        "cold_pass_s": f"median over {info['workers']} fresh worker(s)",
        "peak_rss_mb": f"median over {info['workers']} worker(s)",
    }
    for name, value in values.items():
        _print_metric(name, value, END_TO_END_UNITS[name], notes.get(name, ""))
    _print_metric("solve_s.tail", info["tail"], "s",
                  f"p{info['tail_pct']} of {info['samples']} warm calls")
    _print_metric("fail_frac", failed / attempted, "ratio",
                  f"{failed} of {attempted}: " + ", ".join(
                      f"{k} x{n}" for k, n in sorted(causes.items())))
    certified = [v.log_err for v in verdicts.values() if v.log_err is not None]
    _print_metric("log_err.max", max(certified, default=0.0), "nats",
                  f"over {len(certified)} calls with a multiplicative certificate")
    for input_id, v in sorted(cross.items()):
        print(f"reference cross-check {input_id}: "
              f"{'ok' if v.ok else 'MISMATCH ' + v.note}")
    for call_id in wrong:
        print(f"WRONG {call_id}: {verdicts[call_id].note}")

    if args.trace:
        from perfbench.tracing import layer_units
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = (_median_warm_pass(traced)
                                       - _median_warm_pass(plain[0]))
        units = layer_units()
        for name, value in metrics.items():
            _print_metric(name, value, units[name])
        print(f"trace: layer self times cover {traced['trace_coverage']:.4f} of "
              f"warm call time; {traced['spans']['count']} spans in "
              f"{run_dir.name}/{traced['spans']['file']}; overhead "
              f"{metrics['trace.overhead_s']:.4f} s per warm pass on "
              f"{_median_warm_pass(plain[0]):.4f} s untraced")
    else:
        metrics = values
        units = END_TO_END_UNITS
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
