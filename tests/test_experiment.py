"""Synthetic evaluation harness: change counts and report determinism."""

from dataclasses import replace

import numpy as np
import pytest

from execbench import experiment
from execbench.compatibility import build_compatibility_graph, count_changes, enumerate_changes
from execbench.errors import ConfigError
from execbench.experiment import ExperimentConfig, generate_pair, precision_recall, run_experiment, run_pair
from execbench.matching import Match, MatchSet
from execbench.proctree import GroundTruth, generate_process_tree, leaves


def _compatible_graph(n):
    # Distinct own activities, so every pair of replacements is compatible.
    return build_compatibility_graph(MatchSet(tuple(Match(f"o{i:02d}", f"b{i:02d}") for i in range(n))))


def test_singleton_changes_pass_a_limit_above_their_count():
    graph = _compatible_graph(12)
    assert count_changes(graph, max_size=1) == 12
    changes = enumerate_changes(graph, max_size=1)
    assert len(changes) == 12
    assert all(len(c.replacements) == 1 for c in changes)


def test_change_limit_still_applies_at_size_one():
    assert count_changes(_compatible_graph(12), max_size=1) > 11


def test_pairs_and_edges_count_toward_the_limit_above_size_one():
    # 12 nodes and 66 edges: 78 changes of size up to 2.
    graph = _compatible_graph(12)
    assert count_changes(graph, max_size=2) == 78
    assert len(enumerate_changes(graph, max_size=2)) == 78


def _truth(replacements, insertions=(), deletions=()):
    return GroundTruth(frozenset(replacements), frozenset(insertions), frozenset(deletions))


def test_precision_recall_goldens():
    predicted = MatchSet((Match("a", "x"), Match("b", "y"), Match("c", "z")))
    assert precision_recall(predicted, _truth({("a", "x"), ("b", "w")})) == (1 / 3, 1 / 2)
    # an empty prediction has precision 1.0, an empty ground truth recall 1.0
    assert precision_recall(MatchSet(()), _truth({("a", "x")})) == (1.0, 0.0)
    assert precision_recall(predicted, _truth(())) == (0.0, 1.0)
    assert precision_recall(MatchSet(()), _truth(())) == (1.0, 1.0)


def test_insertions_and_deletions_never_count_in_precision_recall():
    predicted = MatchSet((Match("a", "x"), Match("b", "y")))
    truth = _truth({("a", "x")}, insertions={"y", "x"}, deletions={"b", "a"})
    assert precision_recall(predicted, truth) == precision_recall(predicted, _truth({("a", "x")})) == (0.5, 1.0)


SMALL_LAB = ExperimentConfig(n_pairs=1, n_traces=40, leaves_range=(6, 8))


def _assert_unscored(record, skipped):
    assert record.feasibility_skipped == skipped
    assert (record.technique_feasibility, record.technique_feasibility_median) == (None, None)
    assert (record.baseline_feasibility, record.baseline_feasibility_median) == (None, None)
    assert (record.n_changes_technique, record.n_changes_baseline) == (0, 0)
    assert record.error is None


def test_a_pair_without_matches_keeps_its_matching_scores(monkeypatch):
    monkeypatch.setattr(experiment, "match_activities", lambda own, bench: MatchSet(()))
    record = run_pair(SMALL_LAB, 0)
    truth = generate_pair(SMALL_LAB, 0).truth
    assert truth.replacements
    assert (record.index, record.precision, record.recall) == (0, 1.0, 0.0)
    assert (record.n_predicted, record.n_truth) == (0, len(truth.replacements))
    _assert_unscored(record, "no-matches")


def test_a_pair_over_the_change_limit_keeps_its_matching_scores():
    scored = run_pair(SMALL_LAB, 0)
    assert scored.n_predicted and scored.n_changes_technique
    record = run_pair(replace(SMALL_LAB, max_changes_per_pair=0), 0)
    matching = ("index", "precision", "recall", "n_predicted", "n_truth")
    assert [getattr(record, f) for f in matching] == [getattr(scored, f) for f in matching]
    assert record.precision is not None and record.recall is not None
    _assert_unscored(record, "change-limit")


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
        ("n_traces", 2.5),
        ("n_pairs", 2.0),
        ("leaves_range", (1.5, 4)),
        ("replacements_range", (1, "2")),
        ("max_change_size", 2.5),
        ("max_tree_depth", 4.5),
        ("max_children", None),
        ("master_seed", -1),
        ("master_seed", 1.5),
        ("master_seed", (1, -2)),
        ("noise_probability", "0.1"),
        ("exc_threshold", None),
        ("operator_weights", (("seq", "1"),)),
        ("n_pairs", True),
        ("operator_weights", (("seq",),)),
        ("operator_weights", "seq"),
        ("operator_weights", None),
        ("leaves_range", (1, 2, 3)),
        ("leaves_range", 5),
        ("replacements_range", None),
    ],
)
def test_invalid_experiment_config_rejected(field, value):
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig(**{field: value})


def test_boundary_experiment_config_accepted():
    ExperimentConfig(n_pairs=0, leaves_range=(1, 1), noise_probability=1.0, max_changes_per_pair=0, max_children=2)
    ExperimentConfig(leaves_range=(1, 1), max_tree_depth=1, operator_weights=(("seq", 0.0), ("loop", 1.0)))
    ExperimentConfig(n_traces=np.int64(40), max_change_size=np.int32(2), leaves_range=(np.int8(3), 4), master_seed=np.uint32(7))


def test_tuple_master_seed_prefixes_every_pair_seed():
    # The master seed passes the lab's seed rule, so a tuple of ints is a
    # master seed too; its parts come before the pair index in each pair seed.
    config = ExperimentConfig(n_pairs=2, n_traces=20, leaves_range=(6, 8), master_seed=(4, 2))
    assert [p.error for p in run_experiment(config).pairs] == [None, None]
    tree = generate_pair(config, 1).tree
    assert tree == generate_process_tree((4, 2, 1, 1), config.gen_config(len(leaves(tree))))
