"""Change scoring: alignments, feasibility, performance impact, pipeline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_log, naive_levenshtein
from execbench.compatibility import ProcessChange
from execbench.errors import ConfigError, DataError, LogSimilarityWarning, TruncationWarning, VacuousChangeError
from execbench.eventlog import PerfConfig, extract_variants
from execbench.matching import Match
from execbench.scoring import (
    BenchmarkConfig,
    ChangeScorer,
    affected_variants,
    apply_change,
    benchmark,
    closest_match,
    edit_similarity,
    feasibility,
    performance_impact,
)

DELTA_1 = ProcessChange((Match("a", "b"), Match("f", "e")))
DELTA_2 = ProcessChange((Match("a", "b"),))


@pytest.fixture
def own_index(own_log):
    return extract_variants(own_log)


@pytest.fixture
def benchmark_index(benchmark_log):
    return extract_variants(benchmark_log)


def test_affected_variants_goldens(own_index):
    assert affected_variants(own_index, DELTA_1) == {
        ("a", "d", "e", "g"),
        ("a", "d", "f", "g"),
        ("c", "d", "f", "g"),
    }
    assert affected_variants(own_index, DELTA_2) == {
        ("a", "d", "e", "g"),
        ("a", "d", "f", "g"),
    }
    assert affected_variants(own_index, ProcessChange((Match("zz", "b"),))) == set()


def test_apply_change_goldens():
    assert apply_change(("a", "d", "f", "g"), DELTA_1) == ("b", "d", "e", "g")
    assert apply_change(("c", "d", "f", "g"), DELTA_1) == ("c", "d", "e", "g")
    assert apply_change(("c", "d", "e", "g"), DELTA_2) == ("c", "d", "e", "g")


def test_edit_similarity_goldens():
    assert edit_similarity(("b", "d", "f", "g"), ("b", "d", "e", "g")) == 0.75
    assert edit_similarity(("a", "b"), ("a", "b")) == 1.0
    assert edit_similarity(("a",), ("b", "c", "d", "e")) == 0.0
    with pytest.raises(ValueError):
        edit_similarity((), ("a",))


token_tuples = st.lists(st.sampled_from("abcdef"), min_size=1, max_size=10).map(tuple)


@given(v=token_tuples, w=token_tuples)
@settings(max_examples=300, deadline=None)
def test_edit_similarity_matches_naive_dp(v, w):
    expected = 1.0 - naive_levenshtein(v, w) / max(len(v), len(w))
    got = edit_similarity(v, w)
    assert got == expected
    assert 0.0 <= got <= 1.0
    assert got == edit_similarity(w, v)


def test_closest_match_goldens(benchmark_index):
    candidates = benchmark_index.frequencies()
    assert closest_match(("b", "d", "e", "g"), candidates) == (("b", "d", "e", "g"), 1.0)
    assert closest_match(("b", "d", "f", "g"), candidates) == (("b", "d", "e", "g"), 0.75)
    assert closest_match(("q",), {("x", "y"): 1}) == (("x", "y"), 0.0)
    with pytest.raises(DataError):
        closest_match(("q",), {})


def test_closest_match_tie_breaks_by_frequency_then_lexicographic():
    # both candidates are one substitution away
    candidates = {("a", "x"): 1, ("a", "y"): 5}
    assert closest_match(("a", "z"), candidates)[0] == ("a", "y")
    candidates = {("a", "x"): 2, ("a", "y"): 2}
    assert closest_match(("a", "z"), candidates)[0] == ("a", "x")


def test_feasibility_goldens(own_index, benchmark_index):
    assert feasibility(DELTA_1, own_index, benchmark_index) == 1.0
    assert feasibility(DELTA_2, own_index, benchmark_index) == 0.875


def test_feasibility_frequency_weighting():
    own = extract_variants(make_log(
        [("a", "d", "e", "g"), ("a", "d", "f", "g")], freqs=[3, 1]
    ))
    bench = extract_variants(make_log([("b", "d", "e", "g"), ("c", "d", "e", "g")]))
    assert feasibility(DELTA_2, own, bench) == (3 * 1.0 + 1 * 0.75) / 4


def test_vacuous_change_raises(own_index, benchmark_index):
    with pytest.raises(VacuousChangeError):
        feasibility(ProcessChange((Match("zz", "b"),)), own_index, benchmark_index)


def _perf_indexes(own_freqs=(1, 1)):
    own = extract_variants(
        make_log(
            [("a", "d", "e", "g"), ("a", "d", "f", "g")],
            freqs=list(own_freqs),
            performance=[10.0, 8.0],
        )
    )
    bench = extract_variants(make_log([("b", "d", "e", "g")], performance=[12.0]))
    return own, bench


def test_performance_impact_goldens():
    own, bench = _perf_indexes()
    assert performance_impact(DELTA_2, own, bench) == pytest.approx(3.0, abs=1e-12)
    own, bench = _perf_indexes(own_freqs=(3, 1))
    assert performance_impact(DELTA_2, own, bench) == pytest.approx(2.5, abs=1e-12)


def test_zero_impact_for_identical_performance():
    own = extract_variants(make_log([("a", "b")], performance=[5.0]))
    bench = extract_variants(make_log([("x", "b")], performance=[5.0]))
    change = ProcessChange((Match("a", "x"),))
    assert performance_impact(change, own, bench) == 0.0


def test_performance_required_on_both_logs(own_index):
    bench = extract_variants(make_log([("b", "d", "e", "g")], performance=[12.0]))
    with pytest.raises(DataError, match="performance measure required"):
        performance_impact(DELTA_2, own_index, bench)


def test_scored_change_details(own_index, benchmark_index):
    scored = ChangeScorer(own_index, benchmark_index).score(DELTA_2)
    assert scored.affected_trace_count == 2
    assert scored.closest_matches[("b", "d", "f", "g")] == (("b", "d", "e", "g"), 0.75)
    assert {a.original for a in scored.alignments} == affected_variants(own_index, DELTA_2)
    assert all(a.tie_count >= 1 for a in scored.alignments)


def brute_force_scores(own_variants, bench_variants, pairs):
    """Independent evaluator: no pooling, no caching, no pruning; scans
    every candidate variant for every affected variant with the naive DP.

    Returns feasibility, impact, and per affected variant its matched
    benchmark variant and the number of candidates tied at the best
    similarity."""
    mapping = dict(pairs)
    own_acts = set(mapping)
    bench_acts = set(mapping.values())
    affected = [v for v in own_variants if own_acts & set(v)]
    candidates = [w for w in bench_variants if bench_acts & set(w)]
    weight = sim_sum = perf_sum = 0
    matches = {}
    for v in affected:
        freq, v_perf = own_variants[v]
        modified = tuple(mapping.get(x, x) for x in v)
        scored = []
        for w in candidates:
            w_freq, w_perf = bench_variants[w]
            d = naive_levenshtein(modified, w)
            sim = 1.0 - d / max(len(modified), len(w))
            scored.append(((-sim, -w_freq, w), sim, w_perf))
        best = min(scored)
        matches[v] = (best[0][2], sum(1 for _, sim, _ in scored if sim == best[1]))
        weight += freq
        sim_sum += freq * best[1]
        if v_perf is not None and best[2] is not None:
            perf_sum += freq * (best[2] - v_perf)
    return sim_sum / weight, perf_sum / weight, matches


def _random_scoring_case(rng, min_length=1, max_length=8, max_variants=20):
    alphabet = [f"t{i}" for i in range(int(rng.integers(3, 8)))]
    def variants(n):
        out = {}
        for _ in range(n):
            length = int(rng.integers(min_length, max_length))
            v = tuple(alphabet[int(i)] for i in rng.integers(0, len(alphabet), size=length))
            out[v] = (int(rng.integers(1, 5)), float(rng.integers(-20, 20)))
        return out
    own = variants(int(rng.integers(1, max_variants)))
    bench = variants(int(rng.integers(1, max_variants)))
    own_acts = sorted({a for v in own for a in v})
    bench_acts = sorted({a for v in bench for a in v})
    n_pairs = int(rng.integers(1, 3))
    pairs = []
    used = set()
    for _ in range(n_pairs):
        a = own_acts[int(rng.integers(len(own_acts)))]
        b = bench_acts[int(rng.integers(len(bench_acts)))]
        if a in used or a == b:
            continue
        used.add(a)
        pairs.append((a, b))
    return own, bench, pairs


def _indexes_from(own, bench):
    own_idx = extract_variants(make_log(
        list(own), freqs=[f for f, _ in own.values()], performance=[p for _, p in own.values()]
    ))
    bench_idx = extract_variants(make_log(
        list(bench), freqs=[f for f, _ in bench.values()], performance=[p for _, p in bench.values()]
    ))
    return own_idx, bench_idx


def _check_oracle_equivalence(seed, cases, **shape):
    import numpy as np

    rng = np.random.default_rng(seed)
    checked = 0
    while checked < cases:
        own, bench, pairs = _random_scoring_case(rng, **shape)
        if not pairs:
            continue
        change = ProcessChange(tuple(Match(a, b) for a, b in pairs))
        own_idx, bench_idx = _indexes_from(own, bench)
        if not affected_variants(own_idx, change):
            continue
        expected_feas, expected_impact, expected_matches = brute_force_scores(own, bench, pairs)
        scored = ChangeScorer(own_idx, bench_idx, with_performance=True).score(change)
        assert scored.feasibility == pytest.approx(expected_feas, abs=1e-9)
        assert scored.performance_impact == pytest.approx(expected_impact, abs=1e-9)
        assert {a.original: (a.matched, a.tie_count) for a in scored.alignments} == expected_matches
        assert feasibility(change, own_idx, bench_idx) == scored.feasibility
        checked += 1


def test_oracle_equivalence_on_random_small_logs():
    _check_oracle_equivalence(20240817, cases=50)


def test_oracle_equivalence_on_variants_longer_than_a_word():
    _check_oracle_equivalence(64, cases=10, min_length=50, max_length=140, max_variants=8)


def test_scoring_order_does_not_change_results():
    """One scorer shares its distance cache across changes whose pools
    overlap; scoring them in reverse must give the same results."""
    import numpy as np

    rng = np.random.default_rng(11)
    t = [f"t{i}" for i in range(6)]

    def variants(n):
        # Each variant uses three of the activities, so pools differ.
        out = {}
        for _ in range(n):
            used = rng.choice(len(t), size=3, replace=False)
            v = tuple(t[int(i)] for i in rng.choice(used, size=int(rng.integers(20, 90))))
            out[v] = (int(rng.integers(1, 5)), float(rng.integers(-20, 20)))
        return out

    own_idx, bench_idx = _indexes_from(variants(12), variants(15))
    replacement_sets = [
        [(t[0], t[1])],
        [(t[2], t[3])],
        [(t[0], t[1]), (t[2], t[3])],
        [(t[0], t[3])],
        [(t[0], t[3]), (t[2], t[1])],
        [(t[2], t[1])],
    ]
    changes = [ProcessChange(tuple(Match(a, b) for a, b in pairs)) for pairs in replacement_sets]
    assert all(affected_variants(own_idx, c) for c in changes)
    fresh = [ChangeScorer(own_idx, bench_idx, True).score(c) for c in changes]
    forward = ChangeScorer(own_idx, bench_idx, True)
    assert [forward.score(c) for c in changes] == fresh
    reverse = ChangeScorer(own_idx, bench_idx, True)
    assert [reverse.score(c) for c in reversed(changes)] == fresh[::-1]


def test_frequency_scaling_invariance(own_log, benchmark_index):
    own_scaled = extract_variants(make_log(
        [("a", "d", "e", "g"), ("a", "d", "f", "g"), ("c", "d", "e", "g"), ("c", "d", "f", "g")],
        freqs=[7, 7, 7, 7],
    ))
    own_plain = extract_variants(own_log)
    for change in (DELTA_1, DELTA_2):
        assert feasibility(change, own_scaled, benchmark_index) == pytest.approx(
            feasibility(change, own_plain, benchmark_index), abs=1e-12
        )


def test_direction_negation_negates_impact():
    own, bench = _perf_indexes()
    base = performance_impact(DELTA_2, own, bench)
    own_neg = extract_variants(make_log(
        [("a", "d", "e", "g"), ("a", "d", "f", "g")], performance=[-10.0, -8.0]
    ))
    bench_neg = extract_variants(make_log([("b", "d", "e", "g")], performance=[-12.0]))
    assert performance_impact(DELTA_2, own_neg, bench_neg) == pytest.approx(-base, abs=1e-12)


def test_benchmark_pipeline_worked_example(own_log, benchmark_log):
    scored = benchmark(own_log, benchmark_log)
    assert len(scored) == 11
    by_change = {tuple((m.own, m.benchmark) for m in s.change.replacements): s for s in scored}
    assert by_change[(("a", "b"), ("f", "e"))].feasibility == 1.0
    assert by_change[(("a", "b"),)].feasibility == 0.875
    assert all(s.performance_impact is None for s in scored)
    feas = [s.feasibility for s in scored]
    assert feas == sorted(feas, reverse=True)


def test_benchmark_identical_logs(own_log):
    # four own activities have a match, one more than the default change size
    with pytest.warns(TruncationWarning):
        scored = benchmark(own_log, own_log)
    assert scored
    assert all(s.feasibility == 1.0 for s in scored)


def test_benchmark_identical_logs_with_performance():
    # constant performance: every alignment is an exact match with zero delta
    log = make_log([("a", "b"), ("c", "b")], performance=[5.0, 5.0])
    scored = benchmark(log, log, BenchmarkConfig(performance=PerfConfig("column")))
    assert scored
    assert all(s.performance_impact == 0.0 for s in scored)
    assert all(s.feasibility == 1.0 for s in scored)


def test_min_feasibility_one_keeps_only_exact_changes(own_log, benchmark_log):
    scored = benchmark(own_log, benchmark_log, BenchmarkConfig(min_feasibility=1.0))
    assert scored
    assert all(s.feasibility == 1.0 for s in scored)


@pytest.mark.parametrize(
    "field, value",
    [
        ("min_feasibility", 1.1),
        ("min_feasibility", -0.1),
        ("min_feasibility", float("nan")),
        ("exc_threshold", 1.5),
        ("int_threshold", -0.5),
        ("max_change_size", 0),
        ("top", -1),
    ],
)
def test_invalid_benchmark_config_rejected(field, value):
    with pytest.raises(ConfigError, match=field.split("_")[0]):
        BenchmarkConfig(**{field: value})


def test_top_zero_empties_report(own_log, benchmark_log):
    assert benchmark(own_log, benchmark_log, BenchmarkConfig(top=0)) == []


def test_top_limits_report(own_log, benchmark_log):
    assert len(benchmark(own_log, benchmark_log, BenchmarkConfig(top=3))) == 3


def test_dissimilar_logs_warn(own_log):
    other = make_log([("a", "z1", "z2", "z3")])
    with pytest.warns(LogSimilarityWarning):
        with pytest.warns(TruncationWarning):
            benchmark(own_log, other)
