"""Seeded benchmark of the execbench pipeline, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload pair-60 --seed 0 --seconds 20 --trace 0

One client runs one workload run at a time (a closed loop), each in a fresh
worker process, until ``--seconds`` have passed; inputs are generated from
``--seed`` before the first worker starts.  ``--trace 0`` reports the
end-to-end metrics as medians over the runs, with wall and set-up times
scaled by a calibration task timed in the same worker (see NOTES.md).  ``--trace 1`` runs untraced
for the first half of the time and traced for the second, and reports the
per-layer metrics (medians over the traced runs) plus the tracing overhead.
Every run's output digest is checked against the recorded digest for that
workload and seed (``expected.json``) and against the other runs.  The
first run's output is also checked by plain reference code: a CLI report's
changes and a sample of its alignments are recomputed from the generated
logs; eval-slice pair records are range-checked.  The last line of
standard output is the JSON result; the line before it is the full record:
environment, work counts, digests and every run's figures.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench-tmp"
# Variables that switch the package's code paths; cleared for every worker.
CLEARED_ENV = ("EXECBENCH_THREADS", "EXECBENCH_KERNELS")
RUN_LIMIT_S = 170.0
# The host's speed swings by up to 2x within minutes, for all code alike.
# wall_s and setup_s are therefore scaled to a host on which the worker's
# calibration task takes this long; the raw seconds stay in the record.
REFERENCE_CALIBRATION_S = 0.2

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_rate": "ratio"}

PER_LAYER = {
    "eventlog.read_s": "s",
    "eventlog.rows": "count",
    "eventlog.rows_per_s": "1/s",
    "eventlog.variants_s": "s",
    "eventlog.variants": "count",
    "eventlog.traces": "count",
    "kernels.levenshtein_s": "s",
    "kernels.levenshtein_calls": "count",
    "kernels.levenshtein_call_us_p50": "us",
    "kernels.levenshtein_call_us_p99": "us",
    "kernels.dp_cells": "count",
    "kernels.dp_cells_per_s": "1/s",
    "kernels.order_stats_s": "s",
    "kernels.order_stats_cells": "count",
    "footprint.build_s": "s",
    "footprint.activities": "count",
    "footprint.pairs_classified": "count",
    "matching.match_s": "s",
    "matching.matches": "count",
    "matching.row_comparisons": "count",
    "compatibility.graph_s": "s",
    "compatibility.enumerate_s": "s",
    "compatibility.nodes": "count",
    "compatibility.edges": "count",
    "compatibility.changes": "count",
    "compatibility.truncations": "count",
    "scoring.score_s": "s",
    "scoring.rank_s": "s",
    "scoring.changes_scored": "count",
    "scoring.alignments": "count",
    "scoring.pools": "count",
    "scoring.kernel_calls_per_alignment": "ratio",
    "proctree.generate_s": "s",
    "proctree.simulate_s": "s",
    "proctree.events_simulated": "count",
    "experiment.pair_s_p50": "s",
    "experiment.pair_s_max": "s",
    "experiment.pairs_change_limit": "count",
    "experiment.pairs_failed": "count",
    "cli.report_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny: the self-test's inputs"
    )
    return parser.parse_args(argv)


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(execbench_env: dict) -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_sha": git_sha(),
        "execbench_env": execbench_env,
    }


def expected_entry(workload, size: str, seed: int) -> dict | None:
    path = HERE / "expected.json"
    if not path.is_file():
        return None
    table = json.loads(path.read_text(encoding="utf-8")).get(workload.name, {}).get(size, {})
    return table.get("*" if workload.kind == "eval" else str(seed))


class Runner:
    """Starts one worker at a time and keeps every run's figures."""

    def __init__(self, work: Path, base_spec: dict, env: dict, deadline: float):
        self.work = work
        self.base_spec = base_spec
        self.env = env
        self.deadline = deadline
        self.count = 0

    def run(self, trace: bool, keep_output: bool) -> dict:
        self.count += 1
        spec = dict(self.base_spec, trace=trace)
        if keep_output:
            spec["output"] = str(self.work / f"output-{self.count}.json")
        spec_path = self.work / f"spec-{self.count}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"trace": trace, "crash": f"worker still running after {timeout:.0f} s"}
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            return {"trace": trace, "crash": f"worker exit {done.returncode}: {done.stderr.strip()[-2000:]}"}
        result = json.loads(lines[-1])
        result["trace"] = trace
        if keep_output:
            result["output"] = spec["output"]
        return result

    def loop(self, trace: bool, until: float, keep_first_output: bool) -> list[dict]:
        runs: list[dict] = []
        while not runs or (time.monotonic() < until and time.monotonic() < self.deadline):
            runs.append(self.run(trace, keep_output=keep_first_output and not runs))
            if "crash" in runs[-1]:
                break
        return runs


def prepare_inputs(workload, seed: int, size: str, work: Path) -> tuple[dict, dict, tuple]:
    """The worker spec (inputs, warm-up) and the input counts."""
    import workloads

    spec: dict = {"src": str(SRC), "kind": workload.kind}
    if workload.kind == "eval":
        spec["args"] = workloads.eval_config(workload, size == "tiny")
        spec["warmup"] = {"n_pairs": 1, "n_traces": 20}
        return spec, {}, ()
    warm_dir, main_dir = work / "warmup", work / "inputs"
    warm_dir.mkdir()
    main_dir.mkdir()
    warm = workloads.write_inputs(workload, 0, "warmup", str(warm_dir))
    made = workloads.write_inputs(workload, seed, size, str(main_dir))
    spec["args"] = workloads.cli_argv(workload, made["paths"])
    spec["warmup"] = workloads.cli_argv(workload, warm["paths"])
    return spec, made["counts"], made["logs"]


def judge(runs: list[dict], reference: str | None, first_run_problems: list[str]) -> tuple[int, int, list[str]]:
    """Attempted and failed operations, and the problems found.

    ``first_run_problems`` are the reference checks' findings on the first
    run's output; they fail that run's operations.
    """
    attempted = failed = 0
    problems = list(first_run_problems)
    for number, run in enumerate(runs):
        if "crash" in run:
            attempted += 1
            failed += 1
            problems.append(f"run {number}: {run['crash']}")
            continue
        attempted += run["operations"]
        if run["exit_code"] != 0:
            failed += run["operations"]
            problems.append(f"run {number}: exit code {run['exit_code']}")
        elif reference is not None and run.get("digest") != reference:
            failed += run["operations"]
            problems.append(f"run {number}: digest {run.get('digest')} != {reference}")
        elif number == 0 and first_run_problems:
            failed += run["operations"]
        else:
            failed += run["pair_errors"]
            if run["pair_errors"]:
                problems.append(f"run {number}: {run['pair_errors']} pair(s) raised")
    return attempted, failed, problems


def check_output(workload, run: dict, logs: tuple, tiny: bool) -> list[str]:
    import workloads

    # A crashed or failed run has no output to check; judge() fails it.
    if "output" not in run or run["exit_code"] != 0:
        return []
    text = Path(run["output"]).read_text(encoding="utf-8")
    try:
        output = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"run 0: output is not JSON ({exc})"]
    if workload.kind == "eval":
        return workloads.check_eval_pairs(output, workloads.eval_config(workload, tiny))
    return workloads.check_cli_report(output, *logs)


def median_of(runs: list[dict], key: str) -> float:
    return statistics.median(run[key] for run in runs)


def scaled_median(runs: list[dict], key: str) -> float:
    """Median of ``key`` in seconds at the reference host speed."""
    return statistics.median(run[key] * REFERENCE_CALIBRATION_S / run["calibration_s"] for run in runs)


def measure(args, workload, work: Path, env: dict, execbench_env: dict, expected: dict | None) -> dict:
    """Generate the inputs, run the workers, check their outputs.

    ``expected`` is the recorded digest entry for this workload and seed, or
    None when there is none; then every run must match the first one.
    """
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    tiny = args.size == "tiny"
    spec, input_counts, logs = prepare_inputs(workload, args.seed, args.size, work)
    runner = Runner(work, spec, env, deadline)

    measure_start = time.monotonic()
    if args.trace:
        untraced = runner.loop(False, measure_start + args.seconds / 2, keep_first_output=True)
        traced = runner.loop(True, measure_start + args.seconds, keep_first_output=False)
    else:
        untraced = runner.loop(False, measure_start + args.seconds, keep_first_output=True)
        traced = []
    runs = untraced + traced

    first_digest = next((r.get("digest") for r in runs if r.get("digest")), None)
    reference = expected["digest"] if expected else first_digest
    check_problems = check_output(workload, untraced[0], logs, tiny)
    attempted, failed, problems = judge(runs, reference, check_problems)
    ok = [r for r in runs if "crash" not in r]
    ok_untraced = [r for r in untraced if "crash" not in r]
    ok_traced = [r for r in traced if "crash" not in r]

    metrics: dict[str, float] = {}
    if not args.trace and ok_untraced:
        metrics = {
            "wall_s": scaled_median(ok_untraced, "wall_s"),
            "setup_s": scaled_median(ok_untraced, "setup_s"),
            "peak_rss_mb": median_of(ok_untraced, "peak_rss_mb"),
            "ok_rate": (attempted - failed) / attempted,
        }
    elif args.trace and ok_traced and ok_untraced:
        metrics = {
            name: statistics.median(r["layers"].get(name, 0.0) for r in ok_traced)
            for name in PER_LAYER
            if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = scaled_median(ok_traced, "wall_s") - scaled_median(ok_untraced, "wall_s")
    units = PER_LAYER if args.trace else END_TO_END
    complete = set(metrics) == set(units)
    if not complete:
        problems.append("no metrics: every run failed")

    counts = dict(input_counts)
    if ok:
        counts["changes"] = ok[0].get("changes")
    if ok_traced:
        layers = ok_traced[0]["layers"]
        counts.update(
            matches=layers.get("matching.matches"),
            kernel_calls=layers.get("kernels.levenshtein_calls"),
            events_simulated=layers.get("proctree.events_simulated"),
        )
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seed_drives_inputs": workload.kind != "eval",
        "size": args.size,
        "trace": args.trace,
        "environment": dict(environment(execbench_env), kernel_path=ok[0]["kernel_path"] if ok else None),
        "counts": counts,
        "digest": first_digest,
        "expected": expected,
        "problems": problems,
        "absent": sorted({a for r in ok_traced for a in r.get("absent", [])}),
        "runs": [{k: v for k, v in r.items() if k not in ("layers", "output")} for r in runs],
        "elapsed_s": time.monotonic() - started,
    }
    result = {
        "correct": complete and not problems and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }
    return {"record": record, "result": result}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "execbench" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 0:
        print("error: --seconds must not be negative", file=sys.stderr)
        return 2
    execbench_env = {k: v for k, v in os.environ.items() if k.startswith("EXECBENCH_")}
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)

    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=SCRATCH))
    try:
        expected = expected_entry(workload, args.size, args.seed)
        outcome = measure(args, workload, work, env, execbench_env, expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(outcome["record"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
