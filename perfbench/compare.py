"""List the calls whose answers moved between two benchmark records.

    python3 perfbench/compare.py OLD/records.json NEW/records.json

A record is the ``records.json`` a run of ``perfbench/run.py`` writes.  A call
moved when its exit code, exception, truncation order or cluster count
changed, when it is missing from one record, or when its log value moved by
more than ``TOL`` times its ``log_error_bound``, which keeps a perf change's
answers far inside their certificates.  Exits 1 if any call
moved, 0 otherwise.
"""

import argparse
import json
import sys

EXACT_KEYS = ("command", "exit", "exception", "m", "cluster_count")
# Allowed log-value shift, as a share of the call's log_error_bound.
TOL = 1e-6


def moved(old: dict, new: dict) -> str | None:
    """Why ``new`` differs from ``old`` beyond tolerance, or None."""
    for key in EXACT_KEYS:
        if old.get(key) != new.get(key):
            return f"{key} {old.get(key)!r} -> {new.get(key)!r}"
    if old.get("log_value_re") is None or new.get("log_value_re") is None:
        return None
    shift = abs(complex(new["log_value_re"], new["log_value_im"])
                - complex(old["log_value_re"], old["log_value_im"]))
    allowed = TOL * (old.get("log_error_bound") or 0.0)
    if shift > allowed:
        return f"log value moved {shift:.3e} > {allowed:.3e}"
    return None


def compare(old: list[dict], new: list[dict]) -> list[str]:
    old_by_id = {r["id"]: r for r in old}
    new_by_id = {r["id"]: r for r in new}
    lines = []
    for call_id in sorted(old_by_id.keys() | new_by_id.keys()):
        if call_id not in new_by_id or call_id not in old_by_id:
            side = "new" if call_id not in new_by_id else "old"
            lines.append(f"{call_id}: missing from the {side} record")
            continue
        why = moved(old_by_id[call_id], new_by_id[call_id])
        if why:
            lines.append(f"{call_id}: {why}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    with open(args.old) as fh:
        old = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)
    lines = compare(old, new)
    for line in lines:
        print(line)
    print(f"{len(lines)} of {len(new)} calls moved")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
