"""One timed run of one workload, in a fresh process.

Usage: python3 worker.py SPEC.json

SPEC names the package source directory, the workload kind, its arguments,
a tiny warm-up input, whether to trace, and an optional path for the raw
output.  The worker imports the package, runs the warm-up (so lazy
first-call work is part of set-up, not of the timed run), times one run,
and prints one JSON line: wall and set-up seconds, the calibration task's
seconds right before and after the timed run, peak resident memory, the
output digest and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import contextlib  # noqa: E402 - set-up time counts from the first line
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402


def _run_cli(cli, argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and numpy work.

    The task shares no code with the package, so a change to the package
    cannot move it; it measures how fast the host runs right now.
    """
    import numpy as np

    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(600_000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    row = np.arange(200_000, dtype=np.int32)
    for _ in range(400):
        row = np.minimum(row[::-1], row + 1)
    return time.perf_counter() - start


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    import execbench
    from execbench import _kernels, cli
    from execbench.experiment import ExperimentConfig

    import workloads

    eval_kind = spec["kind"] == "eval"
    if eval_kind:
        execbench.run_experiment(ExperimentConfig(**spec["warmup"]))
    else:
        _run_cli(cli, spec["warmup"])
    setup_s = time.perf_counter() - _START

    recorder = None
    if spec["trace"]:
        import tracing

        recorder = tracing.SpanRecorder()
        tracing.install(recorder)

    calibration = calibrate()
    out: dict = {"setup_s": setup_s, "kernel_path": "numba" if getattr(_kernels, "USE_NUMBA", False) else "numpy"}
    start = time.perf_counter()
    if eval_kind:
        report = execbench.run_experiment(ExperimentConfig(**spec["args"]))
        out["wall_s"] = time.perf_counter() - start
        pairs = [asdict(p) for p in report.pairs]
        out["exit_code"] = 0
        out["pair_errors"] = sum(1 for p in pairs if p.get("error") is not None)
        out["operations"] = len(pairs)
        out["digest"] = workloads.eval_digest(pairs)
        out["changes"] = sum(p["n_changes_technique"] + p["n_changes_baseline"] for p in pairs)
        text = json.dumps(pairs)
    else:
        code, text = _run_cli(cli, spec["args"])
        out["wall_s"] = time.perf_counter() - start
        out["exit_code"] = code
        out["pair_errors"] = 0
        out["operations"] = 1
        if code == 0:
            report = json.loads(text)
            out["digest"] = workloads.cli_digest(report)
            out["changes"] = len(report["changes"])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["calibration_s"] = (calibration + calibrate()) / 2

    if recorder is not None:
        layers = tracing.layer_metrics(recorder)
        layers["cli.report_bytes"] = 0.0 if eval_kind else float(len(text.encode()))
        layers["experiment.pairs_change_limit"] = (
            float(sum(1 for p in pairs if p.get("feasibility_skipped") == "change-limit")) if eval_kind else 0.0
        )
        layers["experiment.pairs_failed"] = float(out["pair_errors"]) if eval_kind else 0.0
        out["layers"] = layers
        out["absent"] = recorder.absent
    if spec.get("output"):
        with open(spec["output"], "w", encoding="utf-8") as handle:
            handle.write(text)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
