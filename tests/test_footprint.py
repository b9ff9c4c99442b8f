"""Ordering counts, relation scores and matrix classification."""

import io
import math

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_index
from execbench.errors import ConfigError, DataError
from execbench.eventlog import EventLog, extract_variants
from execbench.footprint import _RELATIONS, FootprintMatrix, Relation, build_footprint_matrix, ordering_counts


@pytest.fixture
def own_stats(own_log):
    return ordering_counts(extract_variants(own_log))


def relation(matrix, a, b):
    return _RELATIONS[matrix.cells[matrix.activities.index(a), matrix.activities.index(b)]]


def cell(scores, stats, a, b):
    return float(scores[stats.activities.index(a), stats.activities.index(b)])


def test_hand_counts_on_worked_example(own_stats):
    assert count_with(own_stats, "a") == 2
    assert count_only(own_stats, "a", "c") == 2
    assert count_before(own_stats, "a", "d") == 2
    assert count_with(own_stats, "d") == 4  # d is in every trace


def test_repeating_activity_counts_itself():
    stats = ordering_counts(make_index([("a", "b", "a")]))
    assert count_before(stats, "a", "b") == 1
    assert count_before(stats, "b", "a") == 1
    assert count_before(stats, "a", "a") == 1
    assert count_both(stats, "a", "a") == 1


def test_disjoint_traces_never_cooccur():
    stats = ordering_counts(make_index([("a",), ("b",)]))
    assert count_both(stats, "a", "b") == 0


def test_exclusiveness_goldens(own_stats):
    assert cell(own_stats.exclusiveness, own_stats, "a", "c") == 1.0
    assert cell(own_stats.exclusiveness, own_stats, "d", "e") == 0.0
    # an activity against itself: the only-one-side sets are empty
    assert cell(own_stats.exclusiveness, own_stats, "a", "a") == 0.0


def test_interleaving_goldens(own_stats):
    assert cell(own_stats.interleaving, own_stats, "a", "d") == 0.0
    both = ordering_counts(make_index([("a", "b"), ("b", "a")]))
    assert cell(both.interleaving, both, "a", "b") == 1.0
    always = ordering_counts(make_index([("a", "b")], freqs=[5]))
    assert cell(always.interleaving, always, "a", "b") == 0.0


def test_interleaving_undefined_without_cooccurrence(own_stats):
    assert math.isnan(cell(own_stats.interleaving, own_stats, "a", "c"))


@pytest.mark.parametrize("activities", [("b", "a"), ("a", "a")])
def test_footprint_matrix_refuses_activities_out_of_sorted_order(activities):
    with pytest.raises(ConfigError, match="strictly ascend"):
        FootprintMatrix(activities, np.zeros((2, 2), dtype=np.int8))


def test_classification_goldens(own_stats):
    matrix = own_stats.footprint(0.9, 0.9)
    assert relation(matrix, "a", "c") is Relation.EXCLUSIVE
    assert relation(matrix, "a", "d") is Relation.STRICT_ORDER
    assert relation(matrix, "f", "e") is Relation.EXCLUSIVE
    assert relation(matrix, "d", "a") is Relation.REVERSE_ORDER


def test_threshold_bounds_checked(own_stats):
    with pytest.raises(ConfigError):
        own_stats.footprint(1.5, 0.9)
    with pytest.raises(ConfigError):
        build_footprint_matrix(make_index([("a",)]), 0.9, -0.1)
    with pytest.raises(ConfigError, match="exc_threshold"):
        build_footprint_matrix(make_index([("a",)]), "0.9")


def test_matrix_rows_of_worked_example(own_log, benchmark_log):
    own = build_footprint_matrix(extract_variants(own_log))
    bench = build_footprint_matrix(extract_variants(benchmark_log))
    shared = ["c", "d", "e", "g"]
    assert [relation(own, "f", c) for c in shared] == [
        Relation.REVERSE_ORDER,
        Relation.REVERSE_ORDER,
        Relation.EXCLUSIVE,
        Relation.STRICT_ORDER,
    ]
    assert [relation(bench, "b", c) for c in shared] == [
        Relation.EXCLUSIVE,
        Relation.STRICT_ORDER,
        Relation.STRICT_ORDER,
        Relation.STRICT_ORDER,
    ]
    assert [relation(bench, "b", c) for c in shared] == [relation(own, "a", c) for c in shared]


def test_single_trace_matrix():
    matrix = build_footprint_matrix(make_index([("a", "b")]))
    assert relation(matrix, "a", "b") is Relation.STRICT_ORDER
    assert relation(matrix, "b", "a") is Relation.REVERSE_ORDER
    assert relation(matrix, "a", "a") is Relation.EXCLUSIVE
    assert relation(matrix, "b", "b") is Relation.EXCLUSIVE


def test_repeating_activity_interleaves_with_itself():
    matrix = build_footprint_matrix(make_index([("a", "a", "b")]))
    assert relation(matrix, "a", "a") is Relation.INTERLEAVING
    assert relation(matrix, "b", "b") is Relation.EXCLUSIVE


def test_empty_log_rejected():
    with pytest.raises(DataError):
        build_footprint_matrix(extract_variants(EventLog({})))


def test_footprints_refuse_anything_but_a_variant_index(own_log):
    """Both builders read only a log's variant index; an event log or None
    is refused with a message that names the function that builds one."""
    for wrong in (own_log, None):
        with pytest.raises(ConfigError, match="extract_variants"):
            ordering_counts(wrong)
        with pytest.raises(ConfigError, match="extract_variants"):
            build_footprint_matrix(wrong)


def test_matrix_csv_layout(own_log):
    buffer = io.StringIO()
    build_footprint_matrix(extract_variants(own_log)).to_csv(buffer)
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


_MIRRORED = {Relation.STRICT_ORDER: Relation.REVERSE_ORDER, Relation.REVERSE_ORDER: Relation.STRICT_ORDER}


@given(variants=random_logs, thresholds=st.tuples(st.floats(0, 1), st.floats(0, 1)))
@settings(max_examples=150, deadline=None)
def test_matrix_symmetry_and_diagonal(variants, thresholds):
    matrix = build_footprint_matrix(make_index(variants), *thresholds)
    acts = matrix.activities
    for a in acts:
        assert relation(matrix, a, a) in (Relation.EXCLUSIVE, Relation.INTERLEAVING)
        for b in acts:
            r_ab, r_ba = relation(matrix, a, b), relation(matrix, b, a)
            assert r_ba is _MIRRORED.get(r_ab, r_ab)


@given(variants=random_logs)
@settings(max_examples=150, deadline=None)
def test_scores_symmetric_and_bounded(variants):
    stats = ordering_counts(make_index(variants))
    for a in stats.activities:
        for b in stats.activities:
            s = cell(stats.exclusiveness, stats, a, b)
            assert 0.0 <= s <= 1.0
            assert s == cell(stats.exclusiveness, stats, b, a)
            i = cell(stats.interleaving, stats, a, b)
            assert math.isnan(i) == (count_both(stats, a, b) == 0)
            if count_both(stats, a, b) > 0:
                assert 0.0 <= i <= 1.0
                assert i == cell(stats.interleaving, stats, b, a)


@given(variants=random_logs, exc=st.floats(0, 1), higher=st.floats(0, 1))
@settings(max_examples=100, deadline=None)
def test_raising_exc_never_creates_exclusive(variants, exc, higher):
    stats = ordering_counts(make_index(variants))
    high = max(exc, higher)
    low_matrix, high_matrix = stats.footprint(exc, 0.9), stats.footprint(high, 0.9)
    for a in stats.activities:
        for b in stats.activities:
            low_rel = relation(low_matrix, a, b)
            high_rel = relation(high_matrix, a, b)
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
    matrix = build_footprint_matrix(make_index(variants), 1.0, 0.0)
    for a in matrix.activities:
        for b in matrix.activities:
            got = relation(matrix, a, b)
            expected = _definition_relation(variants, a, b)
            assert got is expected, (a, b, variants)


# The count accessors and the relation rule for one pair, kept scalar as the
# reference for the whole-array scores and classification.


def count_with(stats, a):
    return int(stats.traces_with[stats.activities.index(a)])


def count_both(stats, a, b):
    return int(stats.cooccur[stats.activities.index(a), stats.activities.index(b)])


def count_only(stats, a, b):
    """Traces containing a but not b; zero for a pair of equal names."""
    return 0 if a == b else count_with(stats, a) - count_both(stats, a, b)


def count_before(stats, a, b):
    return int(stats.before[stats.activities.index(a), stats.activities.index(b)])


def _scalar_exclusiveness(stats, a, b):
    return min(count_only(stats, a, b) / count_with(stats, a), count_only(stats, b, a) / count_with(stats, b))


def _scalar_relation(stats, a, b, exc_threshold, int_threshold):
    """The relation rule for one pair, written with the count accessors: the
    reference that the whole-matrix rule is checked against."""
    both = count_both(stats, a, b)
    if both == 0:
        return Relation.EXCLUSIVE
    if _scalar_exclusiveness(stats, a, b) > exc_threshold:
        return Relation.EXCLUSIVE
    forward, backward = count_before(stats, a, b), count_before(stats, b, a)
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
    index = make_index(variants, freqs=counts)
    stats = ordering_counts(index)
    matrix = build_footprint_matrix(index, exc, inter)
    for a in stats.activities:
        for b in stats.activities:
            expected = _scalar_relation(stats, a, b, exc, inter)
            assert relation(matrix, a, b) is expected, (a, b)
            assert cell(stats.exclusiveness, stats, a, b) == _scalar_exclusiveness(stats, a, b)
            both = count_both(stats, a, b)
            if both == 0:
                assert math.isnan(cell(stats.interleaving, stats, a, b))
            else:
                skew = abs(count_before(stats, a, b) - count_before(stats, b, a))
                assert cell(stats.interleaving, stats, a, b) == 1.0 - skew / both
