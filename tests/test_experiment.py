"""Synthetic evaluation harness: change bounds and report determinism."""

from execbench.experiment import ExperimentConfig, _bounded_changes, run_experiment
from execbench.matching import Match, MatchSet


def _compatible_matches(n):
    # Distinct own activities, so every pair of replacements is compatible.
    return MatchSet(tuple(Match(f"o{i:02d}", f"b{i:02d}") for i in range(n)), frozenset())


def test_singleton_changes_pass_a_limit_above_their_count():
    changes = _bounded_changes(_compatible_matches(12), max_size=1, limit=20)
    assert changes is not None
    assert len(changes) == 12
    assert all(len(c.replacements) == 1 for c in changes)


def test_change_limit_still_applies_at_size_one():
    assert _bounded_changes(_compatible_matches(12), max_size=1, limit=11) is None


def test_pairs_and_edges_count_toward_the_limit_above_size_one():
    # 12 nodes and 66 edges: at least 78 changes of size up to 2.
    assert _bounded_changes(_compatible_matches(12), max_size=2, limit=77) is None
    assert len(_bounded_changes(_compatible_matches(12), max_size=2, limit=78)) == 78


def test_pairs_run_in_index_order():
    report = run_experiment(ExperimentConfig(n_pairs=3, n_traces=40, leaves_range=(6, 8)))
    assert [p.index for p in report.pairs] == [0, 1, 2]
    assert report == run_experiment(ExperimentConfig(n_pairs=3, n_traces=40, leaves_range=(6, 8)))
