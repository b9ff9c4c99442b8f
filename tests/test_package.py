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
