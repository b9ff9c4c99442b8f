"""Self-test of the benchmark: every workload at a tiny size.

Run with ``python -m pytest perfbench/test_perfbench.py`` from the
repository root.  Each workload must produce a correct result with exactly
the metric names and units that BENCHMARK.json declares, and the digest
recorded for it in expected.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def run_tiny(workload: str, trace: int) -> tuple[dict, dict]:
    done = bench("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    record, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return record, result


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_traced_run(workload):
    record, result = run_tiny(workload, trace=1)
    assert result["correct"], record["problems"]
    assert result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert record["digest"] == EXPECTED[workload]["tiny"]["*" if workload == "eval-slice" else "0"]["digest"]
    assert record["absent"] == []


def test_tiny_end_to_end_run():
    record, result = run_tiny("pair-60", trace=0)
    assert result["correct"], record["problems"]
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["environment"]["cores"] >= 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "pair-60", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_missing_function_is_recorded_as_absent():
    module = types.ModuleType("fake")
    module.present = lambda x: x + 1
    recorder = tracing.SpanRecorder()
    recorder.wrap(module, "gone", "layer.gone")
    recorder.wrap(module, "present", "layer.present", lambda rec, fn, args, kwargs, result: rec.counts.update(n=result))
    assert module.present(1) == 2
    assert recorder.absent == ["fake.gone"]
    assert recorder.counts["n"] == 2
    assert recorder.self_times()["layer.present"] >= 0.0


def test_self_time_excludes_children():
    recorder = tracing.SpanRecorder()
    recorder.spans = [("outer", 0.0, 10.0, None), ("inner", 1.0, 4.0, 0), ("inner", 5.0, 6.0, 0)]
    assert recorder.self_times() == {"outer": 6.0, "inner": 4.0}


def test_reference_edit_distances():
    assert workloads.edit_distances("kitten", ["sitting", "kitten", "k", "xyz"]) == [3, 0, 5, 6]
    assert workloads.edit_distances("", ["abc"]) == [3]


def _log(*variants):
    return types.SimpleNamespace(traces={i: types.SimpleNamespace(variant=v) for i, v in enumerate(variants)})


def _report(target: str, matched: tuple) -> dict:
    alignment = {
        "original": ["a", "b"], "modified": [target, "b"], "matched": list(matched),
        "frequency": 2, "similarity": 1.0,
    }
    change = {
        "replacements": [{"own": "a", "benchmark": target}], "alignments": [alignment],
        "affected_traces": 2, "feasibility": 1.0, "performance_impact": None,
    }
    return {"changes": [change]}


def test_reference_check_reports_wrong_matches():
    own, bench = _log(("a", "b"), ("a", "b")), _log(("x", "b"), ("c",))
    assert workloads.check_cli_report(_report("x", ("x", "b")), own, bench) == []
    # A matched variant the benchmark log does not hold.
    problems = workloads.check_cli_report(_report("x", ("x", "c")), own, bench)
    assert any("not a benchmark candidate" in p for p in problems)
    # A target no benchmark variant contains: the candidate pool is empty.
    problems = workloads.check_cli_report(_report("z", ("z", "b")), own, bench)
    assert any("not a benchmark candidate" in p for p in problems)


def test_failed_cli_run_is_counted_not_raised(tmp_path):
    output = tmp_path / "output.json"
    output.write_text("", encoding="utf-8")
    failed_run = {"output": str(output), "exit_code": 2, "operations": 1, "pair_errors": 0}
    assert run.check_output(workloads.WORKLOADS["pair-60"], failed_run, (), tiny=True) == []
    attempted, failed, problems = run.judge([failed_run], "0123456789abcdef", [])
    assert (attempted, failed) == (1, 1)
    assert problems == ["run 0: exit code 2"]


class _Scorer:
    pass


def test_pools_are_counted_per_scorer():
    recorder = tracing.SpanRecorder()
    activities = frozenset({"x"})
    for _ in range(2):  # a freed scorer's id may be reused by the next one
        scorer = _Scorer()
        scored = types.SimpleNamespace(alignments=[])
        for _ in range(2):
            tracing._count_score(recorder, None, (scorer, types.SimpleNamespace(benchmark_activities=activities)), {}, scored)
        del scorer
    assert recorder.counts["scoring.pools"] == 2
