"""Ordering counts, relation scores and matrix classification."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_log
from execbench.errors import ConfigError, DataError, UndefinedScoreError, UnknownActivityError
from execbench.eventlog import EventLog
from execbench.footprint import (
    Relation,
    build_footprint_matrix,
    classify_relation,
    exclusiveness_score,
    interleaving_score,
    ordering_counts,
)


@pytest.fixture
def own_stats(own_log):
    return ordering_counts(own_log)


def test_hand_counts_on_worked_example(own_stats):
    assert own_stats.count_with("a") == 2
    assert own_stats.count_only("a", "c") == 2
    assert own_stats.count_before("a", "d") == 2
    assert own_stats.n_traces == 4


def test_repeating_activity_counts_itself():
    stats = ordering_counts(make_log([("a", "b", "a")]))
    assert stats.count_before("a", "b") == 1
    assert stats.count_before("b", "a") == 1
    assert stats.count_before("a", "a") == 1
    assert stats.count_both("a", "a") == 1


def test_disjoint_traces_never_cooccur():
    stats = ordering_counts(make_log([("a",), ("b",)]))
    assert stats.count_both("a", "b") == 0


def test_exclusiveness_goldens(own_stats):
    assert exclusiveness_score(own_stats, "a", "c") == 1.0
    assert exclusiveness_score(own_stats, "d", "e") == 0.0
    # an activity against itself: the only-one-side sets are empty
    assert exclusiveness_score(own_stats, "a", "a") == 0.0


def test_interleaving_goldens(own_stats):
    assert interleaving_score(own_stats, "a", "d") == 0.0
    both = ordering_counts(make_log([("a", "b"), ("b", "a")]))
    assert interleaving_score(both, "a", "b") == 1.0
    always = ordering_counts(make_log([("a", "b")], freqs=[5]))
    assert interleaving_score(always, "a", "b") == 0.0


def test_interleaving_undefined_without_cooccurrence(own_stats):
    with pytest.raises(UndefinedScoreError):
        interleaving_score(own_stats, "a", "c")


def test_unknown_activity_raises_lookup_error(own_stats):
    with pytest.raises(UnknownActivityError):
        exclusiveness_score(own_stats, "a", "zz")
    with pytest.raises(KeyError):
        own_stats.count_with("zz")


def test_classification_goldens(own_stats):
    assert classify_relation(own_stats, "a", "c", 0.9, 0.9) is Relation.EXCLUSIVE
    assert classify_relation(own_stats, "a", "d", 0.9, 0.9) is Relation.STRICT_ORDER
    assert classify_relation(own_stats, "f", "e", 0.9, 0.9) is Relation.EXCLUSIVE
    assert classify_relation(own_stats, "d", "a", 0.9, 0.9) is Relation.REVERSE_ORDER


def test_threshold_bounds_checked(own_stats):
    with pytest.raises(ConfigError):
        classify_relation(own_stats, "a", "d", 1.5, 0.9)
    with pytest.raises(ConfigError):
        build_footprint_matrix(make_log([("a",)]), 0.9, -0.1)


def test_matrix_rows_of_worked_example(own_log, benchmark_log):
    own = build_footprint_matrix(own_log)
    bench = build_footprint_matrix(benchmark_log)
    shared = ["c", "d", "e", "g"]
    assert own.row("f", shared) == (
        Relation.REVERSE_ORDER,
        Relation.REVERSE_ORDER,
        Relation.EXCLUSIVE,
        Relation.STRICT_ORDER,
    )
    assert bench.row("b", shared) == (
        Relation.EXCLUSIVE,
        Relation.STRICT_ORDER,
        Relation.STRICT_ORDER,
        Relation.STRICT_ORDER,
    )
    assert bench.row("b", shared) == own.row("a", shared)


def test_single_trace_matrix():
    matrix = build_footprint_matrix(make_log([("a", "b")]))
    assert matrix.relation("a", "b") is Relation.STRICT_ORDER
    assert matrix.relation("b", "a") is Relation.REVERSE_ORDER
    assert matrix.relation("a", "a") is Relation.EXCLUSIVE
    assert matrix.relation("b", "b") is Relation.EXCLUSIVE


def test_repeating_activity_interleaves_with_itself():
    matrix = build_footprint_matrix(make_log([("a", "a", "b")]))
    assert matrix.relation("a", "a") is Relation.INTERLEAVING
    assert matrix.relation("b", "b") is Relation.EXCLUSIVE


def test_empty_log_rejected():
    with pytest.raises(DataError):
        build_footprint_matrix(EventLog({}))


def test_matrix_csv_layout(own_log):
    buffer = io.StringIO()
    build_footprint_matrix(own_log).to_csv(buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == ",a,c,d,e,f,g"
    assert lines[1].startswith("a,")
    cells = set(lines[1].split(",")[1:])
    assert cells <= {"->", "<-", "#", "||"}


random_logs = st.lists(
    st.lists(st.sampled_from("abcd"), min_size=1, max_size=6).map(tuple),
    min_size=1,
    max_size=8,
)


@given(variants=random_logs, thresholds=st.tuples(st.floats(0, 1), st.floats(0, 1)))
@settings(max_examples=150, deadline=None)
def test_matrix_symmetry_and_diagonal(variants, thresholds):
    log = make_log(variants)
    matrix = build_footprint_matrix(log, *thresholds)
    acts = matrix.activities
    for a in acts:
        assert matrix.relation(a, a) in (Relation.EXCLUSIVE, Relation.INTERLEAVING)
        for b in acts:
            r_ab, r_ba = matrix.relation(a, b), matrix.relation(b, a)
            assert r_ba is r_ab.mirrored


@given(variants=random_logs)
@settings(max_examples=150, deadline=None)
def test_scores_symmetric_and_bounded(variants):
    stats = ordering_counts(make_log(variants))
    for a in stats.activities:
        for b in stats.activities:
            s = exclusiveness_score(stats, a, b)
            assert 0.0 <= s <= 1.0
            assert s == exclusiveness_score(stats, b, a)
            if stats.count_both(a, b) > 0:
                i = interleaving_score(stats, a, b)
                assert 0.0 <= i <= 1.0
                assert i == interleaving_score(stats, b, a)


@given(variants=random_logs, exc=st.floats(0, 1), higher=st.floats(0, 1))
@settings(max_examples=100, deadline=None)
def test_raising_exc_never_creates_exclusive(variants, exc, higher):
    stats = ordering_counts(make_log(variants))
    high = max(exc, higher)
    for a in stats.activities:
        for b in stats.activities:
            low_rel = classify_relation(stats, a, b, exc, 0.9)
            high_rel = classify_relation(stats, a, b, high, 0.9)
            if low_rel is not Relation.EXCLUSIVE:
                assert high_rel is not Relation.EXCLUSIVE


def _definition_relation(variants, a, b):
    """Direct, unscored reading of the relation definitions: quantify the
    ordering pattern over all traces of the log."""
    forward = any(
        x == a and y == b for v in variants for i, x in enumerate(v) for y in v[i + 1 :]
    )
    backward = any(
        x == b and y == a for v in variants for i, x in enumerate(v) for y in v[i + 1 :]
    )
    if forward and backward:
        return Relation.INTERLEAVING
    if forward:
        return Relation.STRICT_ORDER
    if backward:
        return Relation.REVERSE_ORDER
    return Relation.EXCLUSIVE


@given(variants=st.lists(
    st.lists(st.sampled_from("abc"), min_size=1, max_size=5).map(tuple),
    min_size=1,
    max_size=5,
))
@settings(max_examples=200, deadline=None)
def test_extreme_thresholds_reduce_to_definitions(variants):
    """Exclusiveness threshold 1.0 (score-based exclusion never fires, only
    the zero-co-occurrence rule) and interleaving threshold 0.0 (a positive
    score means both orders were observed) collapse the scored
    classification to a plain reading of the relation definitions."""
    stats = ordering_counts(make_log(variants))
    for a in stats.activities:
        for b in stats.activities:
            got = classify_relation(stats, a, b, 1.0, 0.0)
            expected = _definition_relation(variants, a, b)
            assert got is expected, (a, b, variants)


def _scalar_relation(stats, a, b, exc_threshold, int_threshold):
    """The relation rule for one pair, written with the count accessors: the
    reference that the whole-matrix rule is checked against."""
    both = stats.count_both(a, b)
    if both == 0:
        return Relation.EXCLUSIVE
    exclusiveness = min(stats.count_only(a, b) / stats.count_with(a), stats.count_only(b, a) / stats.count_with(b))
    if exclusiveness > exc_threshold:
        return Relation.EXCLUSIVE
    forward, backward = stats.count_before(a, b), stats.count_before(b, a)
    if 1.0 - abs(forward - backward) / both > int_threshold:
        return Relation.INTERLEAVING
    if forward > backward:
        return Relation.STRICT_ORDER
    if forward < backward:
        return Relation.REVERSE_ORDER
    return Relation.INTERLEAVING


# Scores are ratios of small counts, so the listed values also hit the strict
# threshold comparisons exactly.
thresholds = st.floats(0, 1) | st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


@given(variants=random_logs, freqs=st.data(), exc=thresholds, inter=thresholds)
@settings(max_examples=200, deadline=None)
def test_matrix_and_scores_equal_the_scalar_rule(variants, freqs, exc, inter):
    counts = freqs.draw(st.lists(st.integers(1, 5), min_size=len(variants), max_size=len(variants)))
    log = make_log(variants, freqs=counts)
    stats = ordering_counts(log)
    matrix = build_footprint_matrix(log, exc, inter)
    for a in stats.activities:
        for b in stats.activities:
            expected = _scalar_relation(stats, a, b, exc, inter)
            assert matrix.relation(a, b) is expected, (a, b)
            assert classify_relation(stats, a, b, exc, inter) is expected, (a, b)
            assert exclusiveness_score(stats, a, b) == min(
                stats.count_only(a, b) / stats.count_with(a), stats.count_only(b, a) / stats.count_with(b)
            )
            both = stats.count_both(a, b)
            if both == 0:
                with pytest.raises(UndefinedScoreError):
                    interleaving_score(stats, a, b)
            else:
                skew = abs(stats.count_before(a, b) - stats.count_before(b, a))
                assert interleaving_score(stats, a, b) == 1.0 - skew / both
