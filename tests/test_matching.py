"""Partial-footprint matching over the shared alphabet."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_log
from execbench.errors import DataError
from execbench.footprint import _RELATIONS, build_footprint_matrix
from execbench.matching import Match, match_activities


def _pairs(result):
    return {(m.own, m.benchmark) for m in result.matches}


def test_worked_example_matches(own_log, benchmark_log):
    own = build_footprint_matrix(own_log)
    bench = build_footprint_matrix(benchmark_log)
    result = match_activities(own, bench)
    assert _pairs(result) == {("a", "b"), ("a", "c"), ("c", "b"), ("f", "e")}


def test_matches_sorted_lexicographically(own_log, benchmark_log):
    result = match_activities(build_footprint_matrix(own_log), build_footprint_matrix(benchmark_log))
    assert list(result.matches) == sorted(result.matches)


def test_identical_logs_self_match_before_trivial_removal(own_log):
    matrix = build_footprint_matrix(own_log)
    with_trivial = _all_pairs_matches(matrix, matrix, keep_trivial=True)
    for activity in matrix.activities:
        assert Match(activity, activity) in with_trivial
    without = match_activities(matrix, matrix)
    assert all(m.own != m.benchmark for m in without.matches)
    assert set(without.matches) == set(with_trivial) - {
        Match(a, a) for a in matrix.activities
    }


def test_unique_rows_give_empty_match_set():
    log = make_log([("a", "b", "c")])
    matrix = build_footprint_matrix(log)
    assert match_activities(matrix, matrix).matches == ()


def test_disjoint_alphabets_rejected():
    left = build_footprint_matrix(make_log([("a", "b")]))
    right = build_footprint_matrix(make_log([("x", "y")]))
    with pytest.raises(DataError, match="share no activities"):
        match_activities(left, right)


random_logs = st.lists(
    st.lists(st.sampled_from("abcd"), min_size=1, max_size=5).map(tuple),
    min_size=1,
    max_size=6,
)


def _share_activities(own, bench):
    return bool(
        {a for v in own for a in v} & {a for v in bench for a in v}
    )


@given(own=random_logs, bench=random_logs, positions=st.data())
@settings(max_examples=100, deadline=None)
def test_one_sided_activity_never_changes_matches(own, bench, positions):
    """Inserting a fresh activity into some own-log traces leaves the
    match set untouched: the newcomer is not shared, and the relative
    order of everything else is preserved."""
    assume(_share_activities(own, bench))
    own_matrix = build_footprint_matrix(make_log(own))
    bench_matrix = build_footprint_matrix(make_log(bench))
    baseline = _pairs(match_activities(own_matrix, bench_matrix))

    extended = []
    for variant in own:
        if positions.draw(st.booleans()):
            at = positions.draw(st.integers(0, len(variant)))
            variant = variant[:at] + ("zz",) + variant[at:]
        extended.append(variant)
    if not any("zz" in v for v in extended):
        extended[0] = ("zz",) + extended[0]
    extended_matrix = build_footprint_matrix(make_log(extended))
    got = _pairs(match_activities(extended_matrix, bench_matrix))
    assert {p for p in got if p[0] != "zz"} == baseline


@given(own=random_logs, bench=random_logs)
@settings(max_examples=100, deadline=None)
def test_output_independent_of_trace_order(own, bench):
    assume(_share_activities(own, bench))
    own_matrix = build_footprint_matrix(make_log(own))
    own_reversed = build_footprint_matrix(make_log(list(reversed(own))))
    bench_matrix = build_footprint_matrix(make_log(bench))
    assert (
        _pairs(match_activities(own_matrix, bench_matrix))
        == _pairs(match_activities(own_reversed, bench_matrix))
    )


def _all_pairs_matches(own, bench, keep_trivial=False):
    """Every own row compared with every benchmark row, name by name: the
    reference for the grouped matching, which leaves trivial pairs out."""
    shared = sorted(set(own.activities) & set(bench.activities))

    def row(matrix, activity):
        return [_RELATIONS[matrix.cells[matrix.index(activity), matrix.index(c)]] for c in shared]

    return sorted(
        Match(a, b)
        for a in own.activities
        for b in bench.activities
        if (keep_trivial or a != b) and row(own, a) == row(bench, b)
    )


@given(own=random_logs, bench=random_logs, thresholds=st.tuples(st.floats(0, 1), st.floats(0, 1)))
@settings(max_examples=200, deadline=None)
def test_matches_equal_the_all_pairs_comparison(own, bench, thresholds):
    assume(_share_activities(own, bench))
    own_matrix = build_footprint_matrix(make_log(own), *thresholds)
    bench_matrix = build_footprint_matrix(make_log(bench), *thresholds)
    got = match_activities(own_matrix, bench_matrix)
    assert list(got.matches) == _all_pairs_matches(own_matrix, bench_matrix)
