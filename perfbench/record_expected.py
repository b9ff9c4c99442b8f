"""Record the expected output digests and work counts into expected.json.

Usage (from the repository root):

    python3 perfbench/record_expected.py

Runs every workload once untraced and once traced for seeds 0 .. SEEDS-1
at the full size and for seed 0 at the tiny size, and refuses to record a
run whose output fails the reference checks or differs between the two
runs.  Run it
only when a change to the program is meant to change its output, and say so
in the change.  For each workload it also names a holdout seed: the seed
whose work counts are closest to seed 0's, for checking a claim on inputs
that were not used while writing the change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

# NOTES.md and the recorded holdout seeds assume seeds 0 to 19.
SEEDS = 20
COUNT_KEYS = ("traces", "rows", "variants", "activities", "matches", "changes", "kernel_calls")


def record_one(workload, seed: int, size: str) -> dict:
    args = argparse.Namespace(workload=workload.name, seed=seed, seconds=0, trace=1, size=size)
    run.SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=run.SCRATCH))
    try:
        outcome = run.measure(args, workload, work, dict(os.environ), {}, expected=None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record, result = outcome["record"], outcome["result"]
    if not result["correct"]:
        raise SystemExit(f"{workload.name} seed {seed} {size}: {record['problems']}")
    counts = {k: record["counts"][k] for k in COUNT_KEYS if record["counts"].get(k) is not None}
    print(f"{workload.name:<11} {size:<5} seed {seed:>2}: {record['digest']} {counts}", flush=True)
    return {"digest": record["digest"], "counts": counts}


def distance(a: dict, b: dict) -> float:
    return sum(abs(a[k] - b[k]) / max(abs(a[k]), 1) for k in a if k in b)


def main() -> int:
    for name in run.CLEARED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(run.SRC))
    table: dict = {}
    for workload in workloads.WORKLOADS.values():
        seeds = [0] if workload.kind == "eval" else range(SEEDS)
        key = (lambda seed: "*") if workload.kind == "eval" else str
        full = {key(seed): record_one(workload, seed, "full") for seed in seeds}
        entry = {"tiny": {key(0): record_one(workload, 0, "tiny")}, "full": full}
        if workload.kind != "eval":
            main_counts = full["0"]["counts"]
            entry["holdout_seed"] = min(
                (s for s in range(1, SEEDS)), key=lambda s: distance(main_counts, full[str(s)]["counts"])
            )
        table[workload.name] = entry
    (HERE / "expected.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
