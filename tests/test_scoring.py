"""Change scoring: alignments, feasibility, performance impact, pipeline."""

import warnings

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import BENCHMARK_VARIANTS, OWN_VARIANTS, make_log, naive_levenshtein
from execbench import footprint, scoring
from execbench.compatibility import ProcessChange
from execbench.errors import (
    ConfigError,
    DataError,
    ExecbenchWarning,
    LogSimilarityWarning,
    TruncationWarning,
    VacuousChangeError,
)
from execbench.eventlog import EventLog, PerfConfig, extract_variants
from execbench.matching import Match
from execbench.scoring import BenchmarkConfig, ChangeScorer, benchmark

DELTA_1 = ProcessChange((Match("a", "b"), Match("f", "e")))
DELTA_2 = ProcessChange((Match("a", "b"),))


@pytest.fixture
def own_index(own_log):
    return extract_variants(own_log)


@pytest.fixture
def benchmark_index(benchmark_log):
    return extract_variants(benchmark_log)


def affected_variants(index, change):
    """Own-log variants executing at least one replaced activity: the
    reference for the scorer's row mask."""
    own = change.own_activities
    return {v for v in index.entries if own.intersection(v)}


def apply_change(variant, change):
    """Every occurrence of each replaced activity substituted in place: the
    reference for the scorer's code map."""
    mapping = change.mapping()
    return tuple(mapping.get(a, a) for a in variant)


def test_affected_variants_goldens(own_index, benchmark_index):
    scorer = ChangeScorer(own_index, benchmark_index)
    assert [a.original for a in scorer.score(DELTA_1).alignments] == [
        ("a", "d", "e", "g"),
        ("a", "d", "f", "g"),
        ("c", "d", "f", "g"),
    ]
    assert [a.original for a in scorer.score(DELTA_2).alignments] == [
        ("a", "d", "e", "g"),
        ("a", "d", "f", "g"),
    ]
    with pytest.raises(VacuousChangeError):
        scorer.score(ProcessChange((Match("zz", "b"),)))


def test_apply_change_goldens(own_index, benchmark_index):
    scorer = ChangeScorer(own_index, benchmark_index)
    assert {a.original: a.modified for a in scorer.score(DELTA_1).alignments} == {
        ("a", "d", "e", "g"): ("b", "d", "e", "g"),
        ("a", "d", "f", "g"): ("b", "d", "e", "g"),
        ("c", "d", "f", "g"): ("c", "d", "e", "g"),
    }
    # Activities the change does not replace stay in place.
    assert {a.original: a.modified for a in scorer.score(DELTA_2).alignments} == {
        ("a", "d", "e", "g"): ("b", "d", "e", "g"),
        ("a", "d", "f", "g"): ("b", "d", "f", "g"),
    }


def closest_match(modified, candidates):
    """The candidate with maximal edit similarity to ``modified``, ties broken
    toward higher frequency, then the lexicographically smallest variant,
    with that similarity and the number of candidates tied at it: the
    reference for the scorer's best match, tie-break and tie count.
    ``candidates`` maps each variant to its frequency."""
    similarity = {w: 1.0 - naive_levenshtein(modified, w) / max(len(modified), len(w)) for w in candidates}
    best = min(candidates, key=lambda w: (-similarity[w], -candidates[w], w))
    return best, similarity[best], sum(1 for s in similarity.values() if s == similarity[best])


def _closest_matches(change, own, bench, bench_freqs=None):
    """{modified variant: (matched variant, similarity, tie count)} of one
    change scored on logs of the given variants."""
    own_index, bench_index = extract_variants(make_log(own)), extract_variants(make_log(bench, bench_freqs))
    scored = ChangeScorer(own_index, bench_index).score(change)
    return {a.modified: (a.matched, a.similarity, a.tie_count) for a in scored.alignments}


def test_closest_match_goldens(own_index, benchmark_index):
    assert _closest_matches(DELTA_1, OWN_VARIANTS, BENCHMARK_VARIANTS) == {
        ("b", "d", "e", "g"): (("b", "d", "e", "g"), 1.0, 1),
        ("c", "d", "e", "g"): (("c", "d", "e", "g"), 1.0, 1),
    }
    # no token in common: the only candidate, at similarity 0
    change = ProcessChange((Match("q", "x"), Match("r", "y")))
    assert _closest_matches(change, [("q", "z")], [("y", "w", "v")]) == {("x", "z"): (("y", "w", "v"), 0.0, 1)}
    # no benchmark variant executes the replacement activity
    with pytest.raises(DataError, match="no benchmark variant"):
        ChangeScorer(own_index, benchmark_index).score(ProcessChange((Match("a", "zz"),)))


def test_closest_match_tie_breaks_by_frequency_then_lexicographic():
    # both candidates are one substitution away from the modified ("a", "z")
    change = ProcessChange((Match("q", "a"),))
    bench = [("a", "x"), ("a", "y")]
    assert _closest_matches(change, [("q", "z")], bench, [1, 5]) == {("a", "z"): (("a", "y"), 0.5, 2)}
    assert _closest_matches(change, [("q", "z")], bench, [2, 2]) == {("a", "z"): (("a", "x"), 0.5, 2)}


def test_feasibility_goldens(own_index, benchmark_index):
    scorer = ChangeScorer(own_index, benchmark_index)
    assert scorer.score(DELTA_1).feasibility == 1.0
    assert scorer.score(DELTA_2).feasibility == 0.875


def test_feasibility_frequency_weighting():
    own = extract_variants(make_log(
        [("a", "d", "e", "g"), ("a", "d", "f", "g")], freqs=[3, 1]
    ))
    bench = extract_variants(make_log([("b", "d", "e", "g"), ("c", "d", "e", "g")]))
    assert ChangeScorer(own, bench).score(DELTA_2).feasibility == (3 * 1.0 + 1 * 0.75) / 4


def test_vacuous_change_raises(own_index, benchmark_index):
    with pytest.raises(VacuousChangeError):
        ChangeScorer(own_index, benchmark_index).score(ProcessChange((Match("zz", "b"),)))


COLUMN = PerfConfig("column")


def _impact(change, own, bench):
    return ChangeScorer(own, bench).score(change).performance_impact


def _perf_indexes(own_freqs=(1, 1), perf=COLUMN):
    own = extract_variants(
        make_log(
            [("a", "d", "e", "g"), ("a", "d", "f", "g")],
            freqs=list(own_freqs),
            performance=[10.0, 8.0],
        ),
        perf,
    )
    bench = extract_variants(make_log([("b", "d", "e", "g")], performance=[12.0]), perf)
    return own, bench


def test_performance_impact_goldens():
    own, bench = _perf_indexes()
    assert _impact(DELTA_2, own, bench) == pytest.approx(3.0, abs=1e-12)
    own, bench = _perf_indexes(own_freqs=(3, 1))
    assert _impact(DELTA_2, own, bench) == pytest.approx(2.5, abs=1e-12)


def test_zero_impact_for_identical_performance():
    own = extract_variants(make_log([("a", "b")], performance=[5.0]), COLUMN)
    bench = extract_variants(make_log([("x", "b")], performance=[5.0]), COLUMN)
    change = ProcessChange((Match("a", "x"),))
    assert _impact(change, own, bench) == 0.0


def test_performance_required_on_both_logs(own_index, benchmark_index):
    """A scorer built from one index with means and one without raises when
    it is built, whichever side lacks them."""
    bench = extract_variants(make_log([("b", "d", "e", "g")], performance=[12.0]), COLUMN)
    with pytest.raises(DataError, match="performance measure required on both logs"):
        ChangeScorer(own_index, bench)
    own, _ = _perf_indexes()
    with pytest.raises(DataError, match="performance measure required on both logs"):
        ChangeScorer(own, benchmark_index)


def test_scored_change_details(own_index, benchmark_index):
    scored = ChangeScorer(own_index, benchmark_index).score(DELTA_2)
    assert scored.affected_trace_count == 2
    assert [(a.modified, a.matched, a.similarity) for a in scored.alignments] == [
        (("b", "d", "e", "g"), ("b", "d", "e", "g"), 1.0),
        (("b", "d", "f", "g"), ("b", "d", "e", "g"), 0.75),
    ]
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
        matched, best_sim, ties = closest_match(modified, {w: bench_variants[w][0] for w in candidates})
        matches[v] = (matched, ties)
        weight += freq
        sim_sum += freq * best_sim
        w_perf = bench_variants[matched][1]
        if v_perf is not None and w_perf is not None:
            perf_sum += freq * (w_perf - v_perf)
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


def _indexes_from(own, bench, perf=COLUMN):
    own_idx = extract_variants(make_log(
        list(own), freqs=[f for f, _ in own.values()], performance=[p for _, p in own.values()]
    ), perf)
    bench_idx = extract_variants(make_log(
        list(bench), freqs=[f for f, _ in bench.values()], performance=[p for _, p in bench.values()]
    ), perf)
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
        scored = ChangeScorer(own_idx, bench_idx).score(change)
        assert scored.feasibility == pytest.approx(expected_feas, abs=1e-9)
        assert scored.performance_impact == pytest.approx(expected_impact, abs=1e-9)
        assert {a.original: (a.matched, a.tie_count) for a in scored.alignments} == expected_matches
        assert ChangeScorer(*_indexes_from(own, bench, None)).score(change).feasibility == scored.feasibility
        checked += 1


def test_oracle_equivalence_on_random_small_logs():
    _check_oracle_equivalence(20240817, cases=50)


def test_oracle_equivalence_on_variants_longer_than_a_word():
    _check_oracle_equivalence(64, cases=10, min_length=50, max_length=140, max_variants=8)


def _variant_table(letters):
    """{variant: (frequency, performance)} over the given activities."""
    variant = st.lists(st.sampled_from(letters), min_size=1, max_size=6).map(tuple)
    values = st.tuples(st.integers(1, 4), st.integers(-20, 20).map(float))
    return st.dictionaries(variant, values, min_size=1, max_size=8)


# Own activities a to f, benchmark activities c to h: the alphabets overlap
# but differ, and a target may be z, which neither log holds.
replacement_lists = st.lists(
    st.tuples(st.sampled_from("abcdef"), st.sampled_from("abcdefghz")),
    min_size=1,
    max_size=3,
    unique_by=lambda pair: pair[0],
)


@given(
    own=_variant_table("abcdef"),
    bench=_variant_table("cdefgh"),
    changes=st.lists(replacement_lists, min_size=1, max_size=3),
)
@example(own={("a", "c", "d"): (1, 0.0)}, bench={("g", "c", "d"): (1, 2.0)}, changes=[[("a", "g")]])
@example(  # a target neither log holds, and an own activity the benchmark lacks
    own={("a", "b", "c"): (2, 1.0), ("b", "d"): (1, 3.0)},
    bench={("c", "d"): (1, 0.0)},
    changes=[[("a", "z"), ("b", "d")], [("a", "z")]],
)
@example(  # two originals that map to one modified row
    own={("a", "d"): (1, 1.0), ("b", "d"): (3, 2.0)},
    bench={("c", "d"): (1, 0.0), ("d",): (2, 5.0)},
    changes=[[("a", "c"), ("b", "c")]],
)
@settings(max_examples=150, deadline=None)
def test_scorer_equals_the_oracles(own, bench, changes):
    """One scorer, shared by all the changes, against the row-mask and
    code-map oracles and the brute-force closest match."""
    own_idx, bench_idx = _indexes_from(own, bench)
    scorer = ChangeScorer(own_idx, bench_idx)
    for pairs in changes:
        change = ProcessChange(tuple(Match(a, b) for a, b in pairs))
        affected = sorted(affected_variants(own_idx, change))
        if not affected:
            with pytest.raises(VacuousChangeError):
                scorer.score(change)
        elif not any(change.benchmark_activities.intersection(w) for w in bench):
            with pytest.raises(DataError, match="no benchmark variant"):
                scorer.score(change)
        else:
            feasibility, impact, matches = brute_force_scores(own, bench, pairs)
            scored = scorer.score(change)
            assert [(a.original, a.modified, a.matched, a.tie_count) for a in scored.alignments] == [
                (v, apply_change(v, change), *matches[v]) for v in affected
            ]
            assert scored.feasibility == pytest.approx(feasibility, abs=1e-9)
            assert scored.performance_impact == pytest.approx(impact, abs=1e-9)


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
    fresh = [ChangeScorer(own_idx, bench_idx).score(c) for c in changes]
    forward = ChangeScorer(own_idx, bench_idx)
    assert [forward.score(c) for c in changes] == fresh
    reverse = ChangeScorer(own_idx, bench_idx)
    assert [reverse.score(c) for c in reversed(changes)] == fresh[::-1]
    assert ChangeScorer(own_idx, bench_idx).score_all(changes) == fresh
    assert ChangeScorer(own_idx, bench_idx).score_all(changes[::-1]) == fresh[::-1]


# ------------------------------------------------------------ batched scoring


def _outcome(scorer, change):
    """The scored change, or the type and message of what scoring it raises."""
    try:
        return scorer.score(change)
    except (VacuousChangeError, DataError) as exc:
        return type(exc), str(exc)


DEFAULT_BOUND = scoring.CHUNK_ROWS
QUEUE_BOUNDS = (1, 5, DEFAULT_BOUND)  # 1 and 5 cut a kernel call inside a change's pool


@given(
    own=_variant_table("abcdef"),
    bench=_variant_table("cdefgh"),
    changes=st.lists(replacement_lists, min_size=1, max_size=4),
)
@example(  # two originals that map to one modified row
    own={("a", "d"): (1, 1.0), ("b", "d"): (3, 2.0)},
    bench={("c", "d"): (1, 0.0), ("d",): (2, 5.0)},
    changes=[[("a", "c"), ("b", "c")], [("a", "c")]],
)
@example(  # overlapping pools: c and d share the benchmark variant (c, d)
    own={("a", "b", "e"): (2, 1.0), ("b", "f"): (1, 3.0), ("a", "f"): (1, 0.0)},
    bench={("c", "d"): (1, 0.0), ("d", "e"): (2, 4.0), ("c", "g"): (1, 1.0)},
    changes=[[("a", "c")], [("b", "d")], [("a", "d"), ("b", "c")], [("f", "c")]],
)
@example(  # the second change has no pool, after the first has claimed its pairs
    own={("a", "b"): (1, 1.0), ("c", "d"): (2, 2.0)},
    bench={("c", "d"): (1, 0.0), ("e", "f"): (1, 1.0)},
    changes=[[("a", "c")], [("b", "z")], [("c", "e")]],
)
@example(  # the second change is vacuous, after the first has claimed its pairs
    own={("a", "b"): (1, 1.0), ("c", "d"): (2, 2.0)},
    bench={("c", "d"): (1, 0.0), ("e", "f"): (1, 1.0)},
    changes=[[("a", "c")], [("f", "c")], [("c", "e")]],
)
@settings(max_examples=100, deadline=None)
def test_score_all_equals_a_fresh_scorer_per_change(own, bench, changes):
    """``score_all`` equals scoring each change with its own scorer, with a
    kernel call cut at any pair.  A list with a change that cannot be scored
    raises what ``score`` raises for the first such change, and leaves the
    scorer equal to a fresh one."""
    own_idx, bench_idx = _indexes_from(own, bench)
    changes = [ProcessChange(tuple(Match(a, b) for a, b in pairs)) for pairs in changes]
    expected = [_outcome(ChangeScorer(own_idx, bench_idx), c) for c in changes]
    failures = [e for e in expected if isinstance(e, tuple)]
    scorable = [(c, e) for c, e in zip(changes, expected) if not isinstance(e, tuple)]
    for bound in QUEUE_BOUNDS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scoring, "CHUNK_ROWS", bound)
            scorer = ChangeScorer(own_idx, bench_idx)
            if failures:
                with pytest.raises(failures[0][0]) as raised:
                    scorer.score_all(changes)
                assert str(raised.value) == failures[0][1]
                assert [_outcome(scorer, c) for c in changes] == expected
            assert scorer.score_all([c for c, _ in scorable]) == [e for _, e in scorable]


def _spy_on_the_kernel(monkeypatch):
    """Record, per call of the kernel, the (query bytes, candidate) pair of every row."""
    calls = []
    kernel = scoring.levenshtein_many

    def spy(queries, cands, qi, ci):
        calls.append([(queries[q].tobytes(), int(c)) for q, c in zip(qi, ci)])
        return kernel(queries, cands, qi, ci)

    monkeypatch.setattr(scoring, "levenshtein_many", spy)
    return calls


def test_score_all_of_no_changes_makes_no_kernel_call(own_index, benchmark_index, monkeypatch):
    calls = _spy_on_the_kernel(monkeypatch)
    assert ChangeScorer(own_index, benchmark_index).score_all([]) == []
    assert calls == []


def test_benchmark_aligns_in_one_kernel_call(monkeypatch):
    from execbench.experiment import ExperimentConfig, generate_pair

    pair = generate_pair(ExperimentConfig(n_traces=60), 0)
    calls = _spy_on_the_kernel(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExecbenchWarning)
        scored = benchmark(pair.own_log, pair.benchmark_log).changes
    assert len(scored) > 1
    assert len(calls) == 1


def test_run_pair_scores_technique_and_baseline_in_one_kernel_call(monkeypatch):
    from execbench.experiment import ExperimentConfig, run_pair

    calls = _spy_on_the_kernel(monkeypatch)
    record = run_pair(ExperimentConfig(n_pairs=1, n_traces=60), 0)
    assert record.n_changes_technique and record.n_changes_baseline
    assert len(calls) == 1


def _overlapping_pools():
    """Own and benchmark indexes with five changes whose pools overlap."""
    own_idx, bench_idx = _indexes_from(
        {("a", "b", "c"): (2, 1.0), ("b", "d"): (1, 2.0), ("a", "d", "d"): (1, 0.0), ("c",): (3, 1.0)},
        {("b", "c"): (1, 0.0), ("c", "d", "e"): (1, 3.0), ("e", "b"): (2, 1.0), ("d",): (1, 0.0)},
    )
    replacement_sets = [[("a", "c")], [("a", "e")], [("a", "c"), ("b", "e")], [("d", "c")], [("b", "e")]]
    return own_idx, bench_idx, [ProcessChange(tuple(Match(a, b) for a, b in pairs)) for pairs in replacement_sets]


@pytest.mark.parametrize("bound", QUEUE_BOUNDS)
def test_a_scorer_aligns_each_pair_once(monkeypatch, bound):
    """Across ``score_all`` and ``score`` calls with overlapping pools, no
    pair goes to the kernel twice.  Within one ``score_all``, every kernel
    call but the last holds exactly ``CHUNK_ROWS`` pairs and the last at
    most that; at the default, one batch of a few changes is one call."""
    own_idx, bench_idx, changes = _overlapping_pools()
    calls = _spy_on_the_kernel(monkeypatch)
    monkeypatch.setattr(scoring, "CHUNK_ROWS", bound)
    scorer = ChangeScorer(own_idx, bench_idx)
    first = scorer.score_all(changes[:3])
    batched = len(calls)
    assert [scorer.score(c) for c in changes[:3]] == first
    scorer.score_all(changes[2:])
    scorer.score(changes[3])
    aligned = [pair for call in calls for pair in call]
    assert len(set(aligned)) == len(aligned)
    for batch in (calls[:batched], calls[batched:]):
        assert [len(call) for call in batch[:-1]] == [bound] * (len(batch) - 1)
        assert all(0 < len(call) <= bound for call in batch)
    if bound == DEFAULT_BOUND:
        assert batched == 1


def test_a_kernel_error_leaves_no_pair_claimed(monkeypatch):
    """When the kernel raises part-way through ``score_all``, the error
    propagates, no cache cell stays claimed, and the scorer then scores as
    a fresh one does."""
    own_idx, bench_idx, changes = _overlapping_pools()
    calls = []
    kernel = scoring.levenshtein_many

    def failing(queries, cands, qi, ci):
        calls.append(len(qi))
        if len(calls) == 2:
            raise RuntimeError("kernel failed")
        return kernel(queries, cands, qi, ci)

    monkeypatch.setattr(scoring, "CHUNK_ROWS", 5)
    monkeypatch.setattr(scoring, "levenshtein_many", failing)
    scorer = ChangeScorer(own_idx, bench_idx)
    with pytest.raises(RuntimeError, match="kernel failed"):
        scorer.score_all(changes)
    assert len(calls) == 2
    assert not (scorer._distances == -2).any()
    assert (scorer._distances >= 0).sum() == calls[0]
    monkeypatch.setattr(scoring, "levenshtein_many", kernel)
    assert scorer.score_all(changes) == ChangeScorer(own_idx, bench_idx).score_all(changes)


def test_frequency_scaling_invariance(own_log, benchmark_index):
    own_scaled = extract_variants(make_log(
        [("a", "d", "e", "g"), ("a", "d", "f", "g"), ("c", "d", "e", "g"), ("c", "d", "f", "g")],
        freqs=[7, 7, 7, 7],
    ))
    own_plain = extract_variants(own_log)
    for change in (DELTA_1, DELTA_2):
        assert ChangeScorer(own_scaled, benchmark_index).score(change).feasibility == pytest.approx(
            ChangeScorer(own_plain, benchmark_index).score(change).feasibility, abs=1e-12
        )


def test_direction_negation_negates_impact():
    base = _impact(DELTA_2, *_perf_indexes())
    assert _impact(DELTA_2, *_perf_indexes(perf=PerfConfig("column", "lower"))) == pytest.approx(-base, abs=1e-12)


def test_benchmark_pipeline_worked_example(own_log, benchmark_log):
    scored = benchmark(own_log, benchmark_log).changes
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
        scored = benchmark(own_log, own_log).changes
    assert scored
    assert all(s.feasibility == 1.0 for s in scored)


def test_benchmark_identical_logs_with_performance():
    # constant performance: every alignment is an exact match with zero delta
    log = make_log([("a", "b"), ("c", "b")], performance=[5.0, 5.0])
    scored = benchmark(log, log, BenchmarkConfig(performance=PerfConfig("column"))).changes
    assert scored
    assert all(s.performance_impact == 0.0 for s in scored)
    assert all(s.feasibility == 1.0 for s in scored)


def test_benchmark_warns_when_more_own_activities_match_than_the_change_size(own_log):
    # four own activities have a match
    with pytest.warns(TruncationWarning, match="larger than 3") as record:
        benchmark(own_log, own_log, BenchmarkConfig(max_change_size=3))
    assert record[0].filename == __file__  # attributed to the caller of benchmark()
    benchmark(own_log, own_log, BenchmarkConfig(max_change_size=4))  # warnings are errors under pytest


def test_alignments_carry_no_performance_when_scored_without_it():
    log = make_log([("a", "b"), ("c", "b")], performance=[5.0, 7.0])
    scored = benchmark(log, log).changes
    assert scored
    assert {(a.own_performance, a.benchmark_performance) for s in scored for a in s.alignments} == {(None, None)}


def test_min_feasibility_one_keeps_only_exact_changes(own_log, benchmark_log):
    scored = benchmark(own_log, benchmark_log, BenchmarkConfig(min_feasibility=1.0)).changes
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
        ("max_change_size", 2.5),
        ("top", -1),
        ("top", 1.5),
        ("min_feasibility", "0.5"),
        ("int_threshold", None),
        ("max_change_size", True),
        ("min_feasibility", True),
        ("performance", "column"),
    ],
)
def test_invalid_benchmark_config_rejected(field, value):
    with pytest.raises(ConfigError, match=field.split("_")[0]):
        BenchmarkConfig(**{field: value})


def test_top_zero_empties_report(own_log, benchmark_log):
    assert benchmark(own_log, benchmark_log, BenchmarkConfig(top=0)).changes == ()


def test_top_limits_report(own_log, benchmark_log):
    assert len(benchmark(own_log, benchmark_log, BenchmarkConfig(top=3)).changes) == 3


def test_dissimilar_logs_warn(own_log):
    other = make_log([("a", "z1", "z2", "z3")])
    with pytest.warns(LogSimilarityWarning):
        with pytest.warns(TruncationWarning):
            benchmark(own_log, other)


def test_benchmark_groups_each_log_into_variants_once(own_log, benchmark_log, monkeypatch):
    calls = []

    def counting(log, perf=None):
        calls.append(log)
        return extract_variants(log, perf)

    monkeypatch.setattr(scoring, "extract_variants", counting)
    monkeypatch.setattr(footprint, "extract_variants", counting)
    assert benchmark(own_log, benchmark_log).changes
    assert calls == [own_log, benchmark_log]


@pytest.mark.parametrize("empty_side", [0, 1])
def test_empty_log_is_reported_before_missing_performance(empty_side):
    logs = [make_log([("a", "b")]), make_log([("a", "c")])]  # neither has performance values
    logs[empty_side] = EventLog({})
    with pytest.raises(DataError, match="empty event log"):
        benchmark(*logs, BenchmarkConfig(performance=PerfConfig("column")))


small_logs = st.lists(st.lists(st.sampled_from("abcde"), min_size=1, max_size=5).map(tuple), min_size=1, max_size=5)


@given(own=small_logs, bench=small_logs, with_performance=st.booleans(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_every_ranked_change_has_an_alignment(own, bench, with_performance, data):
    """A match's own activity comes from the own log's alphabet, so every
    change that ``benchmark`` enumerates affects some own variant: no
    change is vacuous and each ranked one carries its alignments."""
    values = st.lists(st.integers(-5, 5).map(float), min_size=len(own) + len(bench), max_size=len(own) + len(bench))
    performance = data.draw(values) if with_performance else [None] * (len(own) + len(bench))
    own_log = make_log(own, performance=performance[: len(own)])
    bench_log = make_log(bench, performance=performance[len(own) :])
    assume(own_log.alphabet & bench_log.alphabet)
    config = BenchmarkConfig(performance=PerfConfig("column") if with_performance else None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExecbenchWarning)
        scored = benchmark(own_log, bench_log, config).changes
    for s in scored:
        assert s.alignments
        assert s.affected_trace_count == sum(a.frequency for a in s.alignments)
        assert (s.performance_impact is not None) == with_performance


# ------------------------------------------------------------ lazy alignments


def _many_alignments_case(seed):
    """60 own variants holding ``a``, with mixed frequencies and performance,
    against 20 benchmark variants holding ``b``."""
    import numpy as np

    rng = np.random.default_rng(seed)

    def variants(n, first):
        out = {}
        while len(out) < n:
            tail = tuple(f"t{int(i)}" for i in rng.integers(0, 4, size=int(rng.integers(1, 7))))
            out[(first, *tail)] = (int(rng.integers(1, 40)), float(rng.normal(0.0, 1e3)))
        return out

    return _indexes_from(variants(60, "a"), variants(20, "b"))


def test_sums_equal_the_left_to_right_python_sums():
    """Feasibility and impact are exactly the left-to-right sums over the
    alignments; ``np.sum``, which adds pairwise, differs on some case."""
    import numpy as np

    np_sum_differs = False
    for seed in range(5):
        scored = ChangeScorer(*_many_alignments_case(seed)).score(DELTA_2)
        assert len(scored.alignments) >= 50
        weight, similarity_sum, impact_sum = 0, 0.0, 0.0
        for a in scored.alignments:
            weight += a.frequency
            similarity_sum += a.frequency * a.similarity
            impact_sum += a.frequency * (a.benchmark_performance - a.own_performance)
        assert scored.affected_trace_count == weight
        assert scored.feasibility == similarity_sum / weight
        assert scored.performance_impact == impact_sum / weight
        products = [a.frequency * (a.benchmark_performance - a.own_performance) for a in scored.alignments]
        np_sum_differs |= float(np.sum(products)) / weight != scored.performance_impact
    assert np_sum_differs


def test_equality_compares_the_matched_variant_and_the_tie_count():
    """Results that agree on every number but differ in one alignment's
    matched variant or tie count are unequal; equal content from other
    index objects is equal and hashes alike."""
    own = extract_variants(make_log([("a", "x")]))
    one = extract_variants(make_log([("b", "y")]))
    other = extract_variants(make_log([("b", "z")]))
    tied = extract_variants(make_log([("b", "y"), ("b", "z")], freqs=[2, 1]))
    scored = {name: ChangeScorer(own, index).score(DELTA_2) for name, index in [("one", one), ("other", other), ("tied", tied)]}
    numbers = {(s.feasibility, s.performance_impact, s.affected_trace_count) for s in scored.values()}
    assert numbers == {(0.5, None, 1)}
    assert [a.matched for a in scored["one"].alignments] == [("b", "y")]
    assert [a.matched for a in scored["other"].alignments] == [("b", "z")]
    assert [(a.matched, a.tie_count) for a in scored["tied"].alignments] == [(("b", "y"), 2)]
    assert scored["one"] != scored["other"]
    assert scored["one"] != scored["tied"]
    again = ChangeScorer(extract_variants(make_log([("a", "x")])), extract_variants(make_log([("b", "y")]))).score(DELTA_2)
    assert again == scored["one"] and hash(again) == hash(scored["one"])


def test_results_keep_no_reference_to_their_scorer():
    import gc
    import weakref

    own_idx, bench_idx = _many_alignments_case(0)
    changes = [DELTA_2, ProcessChange((Match("t0", "b"),))]
    scorer = ChangeScorer(own_idx, bench_idx)
    results = scorer.score_all(changes)
    alive = weakref.ref(scorer)
    del scorer
    gc.collect()
    assert alive() is None
    fresh = ChangeScorer(own_idx, bench_idx).score_all(changes)
    assert [s.alignments for s in results] == [s.alignments for s in fresh]


@given(
    own=_variant_table("abcdef"),
    bench=_variant_table("cdefgh"),
    changes=st.lists(replacement_lists, min_size=1, max_size=4),
)
@settings(max_examples=100, deadline=None)
def test_alignments_first_read_after_score_all_equal_the_oracle(own, bench, changes):
    """``score_all`` builds no alignment; read afterwards, each change's
    alignments equal the brute-force closest matches."""
    own_idx, bench_idx = _indexes_from(own, bench)
    scorable = []
    for pairs in changes:
        change = ProcessChange(tuple(Match(a, b) for a, b in pairs))
        if affected_variants(own_idx, change) and any(change.benchmark_activities.intersection(w) for w in bench):
            scorable.append((change, pairs))
    assume(scorable)
    results = ChangeScorer(own_idx, bench_idx).score_all([change for change, _ in scorable])
    assert not any("alignments" in vars(s) for s in results)
    for (change, pairs), scored in zip(scorable, results):
        feasibility, impact, matches = brute_force_scores(own, bench, pairs)
        assert [(a.original, a.modified, a.matched, a.tie_count) for a in scored.alignments] == [
            (v, apply_change(v, change), *matches[v]) for v in sorted(affected_variants(own_idx, change))
        ]
        assert scored.feasibility == pytest.approx(feasibility, abs=1e-9)
        assert scored.performance_impact == pytest.approx(impact, abs=1e-9)
