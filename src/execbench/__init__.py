"""Execution benchmarking for event logs.

Compares an own event log against a benchmark log, identifies behaviorally
plausible activity replacements, groups compatible ones into candidate
process changes, and scores every change for feasibility and expected
performance impact.  A synthetic laboratory (random process trees with
tracked mutations) and an evaluation harness with a random baseline are
included.
"""

import types

from .compatibility import (
    CompatGraph,
    ProcessChange,
    build_compatibility_graph,
    count_changes,
    enumerate_changes,
)
from .errors import (
    ConfigError,
    DataError,
    ExecbenchError,
    ExecbenchWarning,
    SchemaError,
    VacuousChangeError,
)
from .eventlog import (
    Event,
    EventLog,
    PerfConfig,
    SchemaConfig,
    Trace,
    Variant,
    VariantIndex,
    extract_variants,
    parse_event_log,
    read_event_log,
    trace_performance,
    write_event_log,
)
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    precision_recall,
    random_baseline,
    run_experiment,
)
from .footprint import (
    CooccurrenceStats,
    FootprintMatrix,
    Relation,
    build_footprint_matrix,
    ordering_counts,
)
from .matching import Match, MatchSet, match_activities
from .proctree import (
    And,
    GenConfig,
    GroundTruth,
    Leaf,
    Loop,
    MutationConfig,
    ProcessTree,
    Seq,
    SimConfig,
    Xor,
    generate_process_tree,
    inject_noise,
    mutate_tree,
    simulate_log,
    tree_from_json,
    tree_to_json,
)
from .scoring import (
    Alignment,
    BenchmarkConfig,
    ChangeScorer,
    ScoredChange,
    benchmark,
)

__version__ = "0.1.0"

__all__ = [name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, types.ModuleType))]
