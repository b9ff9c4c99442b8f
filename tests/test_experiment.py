"""Synthetic evaluation harness: change counts and report determinism."""

import pytest

from execbench.compatibility import build_compatibility_graph, count_changes, enumerate_changes
from execbench.errors import ConfigError
from execbench.experiment import ExperimentConfig, run_experiment
from execbench.matching import Match


def _compatible_graph(n):
    # Distinct own activities, so every pair of replacements is compatible.
    return build_compatibility_graph(Match(f"o{i:02d}", f"b{i:02d}") for i in range(n))


def test_singleton_changes_pass_a_limit_above_their_count():
    graph = _compatible_graph(12)
    assert count_changes(graph, max_size=1) == 12
    changes = enumerate_changes(graph, max_size=1, warn_truncation=False)
    assert len(changes) == 12
    assert all(len(c.replacements) == 1 for c in changes)


def test_change_limit_still_applies_at_size_one():
    assert count_changes(_compatible_graph(12), max_size=1) > 11


def test_pairs_and_edges_count_toward_the_limit_above_size_one():
    # 12 nodes and 66 edges: 78 changes of size up to 2.
    graph = _compatible_graph(12)
    assert count_changes(graph, max_size=2) == 78
    assert len(enumerate_changes(graph, max_size=2, warn_truncation=False)) == 78


def test_pairs_run_in_index_order():
    report = run_experiment(ExperimentConfig(n_pairs=3, n_traces=40, leaves_range=(6, 8)))
    assert [p.index for p in report.pairs] == [0, 1, 2]
    assert report == run_experiment(ExperimentConfig(n_pairs=3, n_traces=40, leaves_range=(6, 8)))


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_pairs", -3),
        ("n_traces", 0),
        ("leaves_range", (30, 18)),
        ("leaves_range", (0, 4)),
        ("replacements_range", (-1, 2)),
        ("insertions_range", (2, 1)),
        ("deletions_range", (-2, -1)),
        ("noise_probability", 1.5),
        ("noise_probability", float("nan")),
        ("exc_threshold", -0.1),
        ("int_threshold", 1.01),
        ("max_change_size", 0),
        ("max_changes_per_pair", -1),
        ("max_loop_iterations", 0),
        ("max_children", 1),
        ("max_tree_depth", 1),
        ("operator_weights", (("seq", 1.0), ("xor", -0.5))),
        ("operator_weights", (("seq", float("nan")),)),
        ("operator_weights", (("loop", float("inf")),)),
        ("operator_weights", (("sequence", 1.0),)),
    ],
)
def test_invalid_experiment_config_rejected(field, value):
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig(**{field: value})


def test_boundary_experiment_config_accepted():
    ExperimentConfig(n_pairs=0, leaves_range=(1, 1), noise_probability=1.0, max_changes_per_pair=0, max_children=2)
    ExperimentConfig(leaves_range=(1, 1), max_tree_depth=1, operator_weights=(("seq", 0.0), ("loop", 1.0)))
