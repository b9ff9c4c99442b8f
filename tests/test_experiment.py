"""Synthetic evaluation harness: change counts and report determinism."""

from dataclasses import replace

import numpy as np
import pytest

from execbench import experiment
from execbench.compatibility import build_compatibility_graph, count_changes, enumerate_changes
from execbench.errors import ConfigError, SamplingWarning
from execbench.experiment import (
    ExperimentConfig,
    PairRecord,
    generate_pair,
    precision_recall,
    random_baseline,
    run_experiment,
    run_pair,
)
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
        ("leaves_range", (4, 6)),
        ("replacements_range", (1, 17)),
        ("deletions_range", (0, 16)),
    ],
)
def test_invalid_experiment_config_rejected(field, value):
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig(**{field: value})


ONE_LEAF = dict(leaves_range=(1, 1), replacements_range=(0, 1), deletions_range=(0, 0))
NUMPY_VALUED = dict(
    n_pairs=np.int64(2), n_traces=np.int64(40), noise_probability=np.float32(0.1), max_change_size=np.int32(2),
    leaves_range=(np.int8(3), 4), replacements_range=(np.int64(1), 2), deletions_range=(0, np.int16(1)),
    master_seed=np.uint32(7), operator_weights={"seq": np.float32(0.75), "xor": np.float64(0.25)},
)


def test_boundary_experiment_config_accepted():
    ExperimentConfig(n_pairs=0, noise_probability=1.0, max_changes_per_pair=0, max_children=2, **ONE_LEAF)
    ExperimentConfig(max_tree_depth=1, operator_weights=(("seq", 0.0), ("loop", 1.0)), **ONE_LEAF)
    ExperimentConfig(**NUMPY_VALUED)


def test_a_numpy_valued_config_writes_the_report_of_its_plain_values():
    plain = dict(
        n_pairs=2, n_traces=40, noise_probability=float(np.float32(0.1)), max_change_size=2,
        leaves_range=(3, 4), replacements_range=(1, 2), deletions_range=(0, 1), master_seed=7,
        operator_weights=(("seq", 0.75), ("xor", 0.25)),
    )
    report = run_experiment(ExperimentConfig(**NUMPY_VALUED))
    assert report.to_json() == run_experiment(ExperimentConfig(**plain)).to_json()
    assert report.aggregates()["pairs_evaluated"] == 2


@pytest.mark.parametrize(
    "ranges, fits",
    [
        (dict(leaves_range=(2, 3), replacements_range=(2, 3), deletions_range=(1, 1)), False),
        (dict(leaves_range=(3, 3), replacements_range=(0, 0), deletions_range=(0, 3)), False),
        (dict(leaves_range=(3, 9), replacements_range=(0, 2), deletions_range=(0, 1)), True),
        (dict(leaves_range=(3, 9), replacements_range=(0, 0), deletions_range=(0, 2)), True),
    ],
    ids=["replace-and-delete", "delete-every-leaf", "touch-every-leaf", "delete-all-but-one"],
)
def test_mutation_ranges_must_fit_the_smallest_tree(ranges, fits):
    # mutate_tree refuses the largest draws on a tree of the fewest leaves.
    if fits:
        ExperimentConfig(**ranges)
    else:
        with pytest.raises(ConfigError, match="replacements_range and deletions_range must fit leaves_range"):
            ExperimentConfig(**ranges)


def test_a_pair_that_raises_is_recorded_and_the_next_pairs_still_run(monkeypatch):
    def fail_on_one(config, index):
        if index == 1:
            raise ValueError("pair 1 broke")
        return run_pair(config, index)

    monkeypatch.setattr(experiment, "run_pair", fail_on_one)
    report = run_experiment(replace(SMALL_LAB, n_pairs=3))
    assert report.pairs[1] == PairRecord(1, error="ValueError: pair 1 broke")
    assert [p.index for p in report.pairs] == [0, 1, 2]
    assert [p.error is None for p in report.pairs] == [True, False, True]
    assert report.pairs[2] == run_pair(SMALL_LAB, 2)
    assert report.aggregates()["pairs_failed"] == 1
    assert report.aggregates()["pairs_evaluated"] == 2


def test_random_baseline_caps_an_oversized_request_and_draws_nothing_for_zero():
    every = MatchSet(tuple(Match(a, b) for a in "ab" for b in "cd"))
    with pytest.warns(SamplingWarning, match="requested 5 baseline matches but only 4 pairs exist"):
        assert random_baseline("ab", "cd", 5, 0) == every
    assert random_baseline("ab", "cd", 0, 0) == MatchSet(())
    assert random_baseline("a", "a", 0, 0) == MatchSet(())  # an empty pool


def test_tuple_master_seed_prefixes_every_pair_seed():
    # The master seed passes the lab's seed rule, so a tuple of ints is a
    # master seed too; its parts come before the pair index in each pair seed.
    config = ExperimentConfig(n_pairs=2, n_traces=20, leaves_range=(6, 8), master_seed=(4, 2))
    assert [p.error for p in run_experiment(config).pairs] == [None, None]
    tree = generate_pair(config, 1).tree
    assert tree == generate_process_tree((4, 2, 1, 1), config.gen_config(len(leaves(tree))))
