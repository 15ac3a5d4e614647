"""Run one workload's passes in a fresh process and write the raw results.

    python3 perfbench/worker.py INPUT_DIR OUT_JSON --seconds S [--trace]

The first pass is cold: process-global memos (the Ursell memo) start empty.
Warm passes follow while the next one is expected to end within ``S``
seconds of the start of the cold pass, and there is always at least one.  A
pass is never cut, so every warm pass runs the same mix of calls.  Each call
goes through ``llcount.cli.main`` in-process with ``--format jsonl``; an
exception escaping it is recorded by type and the loop goes on.

Calls, passes and the import are timed in process CPU time, which leaves out
the time the host's hypervisor keeps the virtual CPU from running (steal).
Each call is single-threaded (``--threads 1``, one BLAS thread) and reads its
input from the page cache, so on an idle host its CPU time is its wall time.
The window itself is wall time, and each pass records its wall time too.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_threads() -> None:
    """Pin BLAS/OpenMP pools to one thread; call before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def comparable(outcome: dict) -> tuple:
    """What must repeat exactly between passes: all but ``elapsed_s``."""
    report = outcome["report"]
    if report is not None:
        report = {k: v for k, v in report.items() if k != "elapsed_s"}
    return outcome["exit"], outcome["exception"], report


def run_call(cli, argv: list[str]) -> dict:
    """Run one CLI call; return its exit code, exception type and report."""
    out, err = io.StringIO(), io.StringIO()
    exit_code = exception = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            exit_code = cli.main(argv)
    except SystemExit as exc:
        exit_code = exc.code
    except Exception as exc:  # a crash of the program under test
        exception = type(exc).__name__
    lines = out.getvalue().splitlines()
    report = json.loads(lines[-1]) if lines else None
    return {"exit": exit_code, "exception": exception, "report": report,
            "stderr": err.getvalue()[-2000:]}


def run_passes(cli, calls: list[dict], seconds: float, tracer=None) -> dict:
    """Cold pass plus whole warm passes filling about ``seconds``."""
    passes = []
    results = {}
    unstable = []
    window_start = time.perf_counter()
    clock = time.process_time

    def another_pass() -> bool:
        if len(passes) < 2:
            return True
        elapsed = time.perf_counter() - window_start
        return elapsed + elapsed / len(passes) <= seconds

    while another_pass():
        index = len(passes)
        reports = {}
        rows = []
        started, wall_started = clock(), time.perf_counter()
        for i, call in enumerate(calls):
            argv = list(call["argv"]) + ["--format", "jsonl"]
            if call.get("delta_from"):
                suggested = (reports.get(call["delta_from"]) or {}).get(
                    "suggested_delta")
                argv += ["--delta", repr(suggested)]
            if tracer is not None:
                tracer.call_id = index * len(calls) + i
            t0 = clock()
            outcome = run_call(cli, argv)
            elapsed = clock() - t0
            reports[call["id"]] = outcome["report"]
            rows.append([elapsed, outcome["exit"], outcome["exception"]])
            if index == 0:
                results[call["id"]] = outcome
            elif (comparable(outcome) != comparable(results[call["id"]])
                  and call["id"] not in unstable):
                unstable.append(call["id"])
        passes.append({"seconds": clock() - started,
                       "wall_s": time.perf_counter() - wall_started,
                       "calls": rows})
        if tracer is not None and index == 0:
            # per-layer counts cover the warm passes only
            tracer.counters.clear()
            tracer.maxima.clear()
    return {"passes": passes, "results": results, "unstable": unstable}


def _openblas_version(np) -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return str(deps["blas"].get("version", "unknown"))
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("input_dir", type=Path)
    ap.add_argument("out", type=Path)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    pin_threads()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.process_time()
    import llcount.cli
    import_s = time.process_time() - t0
    import llcount.clusters
    import numpy as np
    if not Path(llcount.__file__).resolve().is_relative_to(src):
        print(f"llcount imported from {llcount.__file__}, not from {src}",
              file=sys.stderr)
        return 3

    manifest = json.loads((args.input_dir / "manifest.json").read_text())
    calls = manifest["calls"]
    tracer = restore = None
    if args.trace:
        from perfbench import tracing
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
    os.chdir(args.input_dir)
    try:
        run = run_passes(llcount.cli, calls, args.seconds, tracer)
    finally:
        if restore is not None:
            restore()

    out = {
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {"nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "openblas": _openblas_version(np),
                "llcount": llcount.__file__},
        "call_ids": [c["id"] for c in calls],
        **run,
    }
    if tracer is not None:
        n = len(calls)
        warm = range(n, n * len(run["passes"]))
        warm_passes = len(run["passes"]) - 1
        layers = tracing.layer_metrics(
            tracer, warm, warm_passes, len(llcount.clusters._URSELL_MEMO))
        call_seconds = sum(row[0] for p in run["passes"][1:] for row in p["calls"])
        self_seconds = sum(tracer.self_times(warm).values())
        out["layers"] = layers
        out["trace_coverage"] = self_seconds / call_seconds if call_seconds else 0.0
        spans_path = args.out.with_name("spans.jsonl")
        with spans_path.open("w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        out["spans"] = {"file": spans_path.name, "count": len(tracer.spans)}
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
