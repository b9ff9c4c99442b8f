"""The package's public surface."""

import execbench

PUBLIC_NAMES = {
    # pipeline
    "read_event_log", "parse_event_log", "write_event_log", "extract_variants",
    "ordering_counts", "build_footprint_matrix", "match_activities", "build_compatibility_graph",
    "count_changes", "enumerate_changes", "benchmark",
    # data and configs
    "Event", "Trace", "EventLog", "Variant", "VariantIndex", "SchemaConfig", "PerfConfig",
    "CooccurrenceStats", "FootprintMatrix", "Relation", "Match", "MatchSet", "CompatGraph",
    "ProcessChange", "Alignment", "ScoredChange", "ChangeScorer", "BenchmarkConfig",
    "BenchmarkResult",
    # synthetic lab and evaluation
    "ProcessTree", "Leaf", "Seq", "Xor", "And", "Loop", "GenConfig", "MutationConfig", "SimConfig",
    "GroundTruth", "generate_process_tree", "mutate_tree", "simulate_log", "tree_to_json",
    "tree_from_json", "ExperimentConfig", "ExperimentReport",
    "run_experiment", "precision_recall", "random_baseline",
    # errors and warnings
    "ExecbenchError", "ConfigError", "DataError", "SchemaError",
    "VacuousChangeError", "ExecbenchWarning",
}


def test_public_names_are_pinned():
    assert set(execbench.__all__) == PUBLIC_NAMES


def test_the_pipeline_never_imports_numpy_ma():
    """``np.unique``'s first call imports ``numpy.ma``, which takes 11-17 ms
    and 1.6 MB; neither ``benchmark`` nor a lab pair may pull it in."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = """
import sys, warnings
from execbench import BenchmarkConfig, PerfConfig, benchmark
from execbench.experiment import ExperimentConfig, run_pair
from execbench.eventlog import EventLog, Trace

def log(variants):
    return EventLog({f"c{i}": Trace(f"c{i}", v, tuple(range(len(v))), float(i)) for i, v in enumerate(variants)})

warnings.simplefilter("ignore")
own = log([("a", "b"), ("c", "b"), ("a", "b")])
changes = benchmark(own, own, BenchmarkConfig(performance=PerfConfig("column"))).changes
assert changes and all(s.alignments for s in changes)
run_pair(ExperimentConfig(n_pairs=1, n_traces=40), 0)
assert "numpy.ma" not in sys.modules, sorted(name for name in sys.modules if name.startswith("numpy.ma"))
"""
    src = str(Path(execbench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
