"""The whole pipeline against one reference composed of the stage oracles.

``reference_benchmark`` runs every stage of ``benchmark()`` through the
plain oracles of the other test modules, joined by plain loops: the naive
order statistics of each trace, the one-pair relation rule, the all-pairs
row comparison, the brute-force clique search, and the brute-force scores
with the naive edit distance.  It shares no code with the package apart
from the relation codes and the dataclasses that carry its inputs.

``reference_pair`` recomputes every field of ``run_pair``'s record the same
way from the generated pair, with the package's ``random_baseline`` for the
baseline matches.
"""

import math
import warnings
from dataclasses import replace
from datetime import datetime, timedelta
from itertools import accumulate
from types import SimpleNamespace

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import naive_levenshtein
from execbench.errors import ExecbenchWarning
from execbench.eventlog import EventLog, PerfConfig, Trace
from execbench.experiment import ExperimentConfig, PairRecord, generate_pair, random_baseline, run_pair
from execbench.footprint import _RELATIONS
from execbench.scoring import BenchmarkConfig, benchmark
from test_compatibility import _brute_force_cliques
from test_footprint import _scalar_relation
from test_kernels import _naive_order_stats
from test_matching import _all_pairs_matches
from test_scoring import brute_force_scores


def _reference_footprint(log: EventLog, exc_threshold: float, int_threshold: float) -> SimpleNamespace:
    """The log's relation codes, counted trace by trace and classified pair by pair."""
    activities = tuple(sorted({a for t in log.traces.values() for a in t.variant}))
    code = {a: i for i, a in enumerate(activities)}
    seqs = [[code[a] for a in t.variant] for t in log.traces.values()]
    traces_with, cooccur, before = _naive_order_stats(seqs, [1] * len(seqs), len(activities))
    stats = SimpleNamespace(activities=activities, traces_with=traces_with, cooccur=cooccur, before=before)
    cells = {
        (i, j): _RELATIONS.index(_scalar_relation(stats, a, b, exc_threshold, int_threshold))
        for i, a in enumerate(activities)
        for j, b in enumerate(activities)
    }
    return SimpleNamespace(activities=activities, cells=cells)


def _reference_variants(log: EventLog, perf: PerfConfig | None) -> dict:
    """{variant: (frequency, mean performance)} in ascending variant order.

    A case's value is its performance column or its last-minus-first time in
    seconds, negated when lower is better."""
    values: dict = {}
    for trace in log.traces.values():
        value = None
        if perf is not None:
            keys = trace.order_keys
            value = trace.performance if perf.mode == "column" else (keys[-1] - keys[0]).total_seconds()
            value = -value if perf.direction == "lower" else value
        values.setdefault(trace.variant, []).append(value)
    return {
        v: (len(vs), None if perf is None else math.fsum(vs) / len(vs)) for v, vs in sorted(values.items())
    }


def reference_benchmark(own_log: EventLog, bench_log: EventLog, config: BenchmarkConfig) -> list[dict]:
    """The ranked changes of ``benchmark()``, each as a dict of every field."""
    thresholds = config.exc_threshold, config.int_threshold
    matches = _all_pairs_matches(_reference_footprint(own_log, *thresholds), _reference_footprint(bench_log, *thresholds))
    adjacency = [{j for j, other in enumerate(matches) if other.own != m.own} for m in matches]
    changes = sorted(_brute_force_cliques(matches, adjacency, config.max_change_size), key=lambda c: (len(c), c))
    own = _reference_variants(own_log, config.performance)
    bench = _reference_variants(bench_log, config.performance)
    ranked = []
    for change in changes:
        pairs = [(m.own, m.benchmark) for m in change]
        mapping = dict(pairs)
        feasibility, impact, closest = brute_force_scores(own, bench, pairs)
        alignments = []
        for original, (matched, ties) in closest.items():
            modified = tuple(mapping.get(a, a) for a in original)
            similarity = 1.0 - naive_levenshtein(modified, matched) / max(len(modified), len(matched))
            frequency, own_mean = own[original]
            alignments.append((original, modified, matched, similarity, frequency, ties, own_mean, bench[matched][1]))
        ranked.append({
            "replacements": pairs,
            "feasibility": feasibility,
            "performance_impact": None if config.performance is None else impact,
            "affected_trace_count": sum(a[4] for a in alignments),
            "alignments": alignments,
        })
    ranked = [c for c in ranked if c["feasibility"] >= config.min_feasibility]
    if config.performance is None:
        ranked.sort(key=lambda c: -c["feasibility"])  # stable: canonical order within ties
    else:
        ranked.sort(key=lambda c: (-c["performance_impact"], -c["feasibility"]))
    return ranked if config.top is None else ranked[: config.top]


def reference_alphabets(own_log: EventLog, bench_log: EventLog) -> dict:
    """The alphabet fields of ``benchmark()``'s result, from the traces' variants."""
    own, bench = ({a for t in log.traces.values() for a in t.variant} for log in (own_log, bench_log))
    return {
        "own_alphabet": tuple(sorted(own)),
        "benchmark_alphabet": tuple(sorted(bench)),
        "shared_alphabet": tuple(sorted(own & bench)),
        "alphabet_jaccard": len(own & bench) / len(own | bench),
    }


def _fields(scored) -> dict:
    """A ``ScoredChange`` as the dict that ``reference_benchmark`` gives."""
    return {
        "replacements": [(m.own, m.benchmark) for m in scored.change.replacements],
        "feasibility": scored.feasibility,
        "performance_impact": scored.performance_impact,
        "affected_trace_count": scored.affected_trace_count,
        "alignments": [
            (a.original, a.modified, a.matched, a.similarity, a.frequency, a.tie_count,
             a.own_performance, a.benchmark_performance)
            for a in scored.alignments
        ],
    }


def _log(cases) -> EventLog:
    """One case per (variant, performance, gaps, copies) entry, written ``copies``
    times; event i is ``sum(gaps[:i + 1])`` seconds after the case's start."""
    traces = {}
    for variant, value, gaps, copies in cases:
        for _ in range(copies):
            case_id = f"c{len(traces)}"
            start = datetime(2024, 1, 1) + timedelta(hours=len(traces))
            keys = tuple(start + timedelta(seconds=s) for s in accumulate(gaps[: len(variant)]))
            traces[case_id] = Trace(case_id, variant, keys, value)
    return EventLog(traces)


# (performance value, gaps between events, copies) of one case
_details = st.tuples(
    st.integers(-20, 20).map(float) | st.floats(-1e3, 1e3, allow_nan=False),
    st.lists(st.integers(0, 90), min_size=5, max_size=5),
    st.integers(1, 3),
)


def _cases(letters: str, min_size: int = 1):
    variant = st.lists(st.sampled_from(letters), min_size=1, max_size=5).map(tuple)
    return st.lists(st.tuples(variant, _details).map(lambda c: (c[0], *c[1])), min_size=min_size, max_size=7)


@st.composite
def log_pairs(draw):
    """Own cases over a to e; benchmark cases that are the own variants with
    one to three activities renamed (to e, which the own log may hold, or to
    f to h), plus up to two cases over b to g.  The footprints then often
    agree on the shared activities, so that most pairs have changes to rank."""
    own = draw(_cases("abcde"))
    renaming = draw(st.dictionaries(st.sampled_from("abcde"), st.sampled_from("efgh"), min_size=1, max_size=3))
    bench = [(tuple(renaming.get(a, a) for a in v), *draw(_details)) for v, *_ in own]
    return own, bench + draw(_cases("bcdefg", min_size=0).map(lambda c: c[:2]))


# Scores are ratios of small counts, so the listed values also hit the strict
# threshold comparisons and the feasibility floor exactly.
_fractions = st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 0.8, 0.9, 1.0]) | st.floats(0, 1)
# (mode, direction) of the performance measure; None scores without one.
_perfs = st.sampled_from([None, ("column", "higher"), ("column", "lower"), ("throughput", None)])


def _case(variant, value=0.0, copies=1, gaps=(0, 0, 0, 0, 0)):
    return tuple(variant), value, list(gaps), copies


def _example(own, bench, **options):
    """An explicit example on the given cases, with both thresholds and the
    feasibility floor at 0, changes of one replacement and no ``top``."""
    defaults = dict(perf=None, exc=0.0, inter=0.0, min_feasibility=0.0, max_change_size=1, top=None)
    return example(logs=([_case(*c) for c in own], [_case(*c) for c in bench]), **{**defaults, **options})


# Each of these is the smallest input found to fail on one defect put into the package.
@_example([("a",), ("c",), ("ca",)], [("b",), ("c",), ("cb", 0.0, 2)])  # the frequency tie-break ignored
@_example([("ab",)], [("bb",)])  # >= for > in the exclusiveness or the interleaving threshold
@_example([("aba",)], [("bbb",)], min_feasibility=1.0)  # > for >= in the feasibility floor
@_example([("c",)], [("c",), ("b", 1.0)], perf=("column", "higher"))  # either sign of the impact flipped
@_example(  # changes of three replacements, and throughput's default direction
    [("abcd", 1.0, 1, (0, 1, 2, 3, 0))], [("fghd", 2.0, 1, (0, 5, 5, 5, 0))], perf=("throughput", None), max_change_size=3
)
@given(
    logs=log_pairs(),
    perf=_perfs,
    exc=_fractions,
    inter=_fractions,
    min_feasibility=st.just(0.0) | _fractions,
    max_change_size=st.integers(1, 3),
    top=st.none() | st.integers(0, 5),
)
@settings(max_examples=200, deadline=None)
def test_benchmark_equals_the_reference(logs, perf, exc, inter, min_feasibility, max_change_size, top):
    own_log, bench_log = map(_log, logs)
    assume(own_log.alphabet & bench_log.alphabet)
    if perf is not None:
        mode, direction = perf
        perf = PerfConfig(mode, direction)
        assert perf.direction == (direction or {"column": "higher", "throughput": "lower"}[mode])
    config = BenchmarkConfig(exc, inter, max_change_size, min_feasibility, top, perf)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExecbenchWarning)
        result = benchmark(own_log, bench_log, config)
    assert [_fields(s) for s in result.changes] == reference_benchmark(own_log, bench_log, config)
    alphabets = {name: value for name, value in vars(result).items() if name != "changes"}
    assert alphabets == reference_alphabets(own_log, bench_log)


def _reference_changes(matches, max_size: int) -> list[tuple]:
    """Every set of at most ``max_size`` matches with distinct own activities,
    by brute force, in canonical order: by size, then by the sorted matches."""
    adjacency = [{j for j, other in enumerate(matches) if other.own != m.own} for m in matches]
    return sorted(_brute_force_cliques(matches, adjacency, max_size), key=lambda c: (len(c), c))


def _reference_match_sets(config: ExperimentConfig, index: int, pair) -> tuple[list, list]:
    """The pair's predicted matches, from the reference footprints, and the
    random baseline of as many matches, drawn with the pair's seed."""
    thresholds = config.exc_threshold, config.int_threshold
    own_log, bench_log = pair.own_log, pair.benchmark_log
    predicted = _all_pairs_matches(_reference_footprint(own_log, *thresholds), _reference_footprint(bench_log, *thresholds))
    master = config.master_seed if isinstance(config.master_seed, tuple) else (config.master_seed,)
    seed = master + (index, 5)
    baseline = random_baseline(own_log.alphabet, bench_log.alphabet, len(predicted), seed).matches
    return predicted, sorted(baseline)


def _plain_median(values: list[float]) -> float:
    ordered = sorted(values)
    return (ordered[(len(ordered) - 1) // 2] + ordered[len(ordered) // 2]) / 2


def reference_pair(config: ExperimentConfig, index: int) -> PairRecord:
    """Every field of ``run_pair(config, index)``, recomputed from the
    generated pair by the stage oracles: the reference matches, a
    brute-force clique count for the change limit, and the brute-force
    feasibility of each change; means sum in canonical change order."""
    pair = generate_pair(config, index)
    predicted, baseline = _reference_match_sets(config, index, pair)
    truth = set(pair.truth.replacements)
    hits = len({(m.own, m.benchmark) for m in predicted} & truth)
    record = PairRecord(
        index,
        precision=hits / len(predicted) if predicted else 1.0,
        recall=hits / len(truth) if truth else 1.0,
        n_predicted=len(predicted),
        n_truth=len(truth),
    )
    if not predicted:
        return replace(record, feasibility_skipped="no-matches")
    changes = [_reference_changes(matches, config.max_change_size) for matches in (predicted, baseline)]
    if max(map(len, changes)) > config.max_changes_per_pair:
        return replace(record, feasibility_skipped="change-limit")
    own, bench = _reference_variants(pair.own_log, None), _reference_variants(pair.benchmark_log, None)
    technique, sampled = (
        [brute_force_scores(own, bench, [(m.own, m.benchmark) for m in change])[0] for change in side]
        for side in changes
    )
    return replace(
        record,
        technique_feasibility=sum(technique) / len(technique),
        technique_feasibility_median=_plain_median(technique),
        baseline_feasibility=sum(sampled) / len(sampled),
        baseline_feasibility_median=_plain_median(sampled),
        n_changes_technique=len(technique),
        n_changes_baseline=len(sampled),
    )


@st.composite
def small_experiments(draw):
    """A small lab config and a pair index.  The limit on changes is drawn
    next to the larger change count of the pair's two match sets, so that
    both sides of the limit are tried."""
    low = draw(st.integers(3, 7))
    config = ExperimentConfig(
        n_pairs=1,
        n_traces=draw(st.integers(5, 30)),
        noise_probability=draw(st.sampled_from([0.0, 0.1, 0.5])),
        leaves_range=(low, low + draw(st.integers(0, 2))),
        replacements_range=(draw(st.integers(0, 1)), 2),
        insertions_range=(0, draw(st.integers(0, 1))),
        deletions_range=(0, draw(st.integers(0, 1))),
        exc_threshold=draw(st.just(ExperimentConfig.exc_threshold) | _fractions),
        int_threshold=draw(st.just(ExperimentConfig.int_threshold) | _fractions),
        max_change_size=draw(st.integers(1, 3)),
        master_seed=draw(st.integers(0, 2**32)),
    )
    index = draw(st.integers(0, 3))
    pair = generate_pair(config, index)
    assume(pair.own_log.alphabet & pair.benchmark_log.alphabet)  # else run_pair raises DataError
    count = max(len(_reference_changes(m, config.max_change_size)) for m in _reference_match_sets(config, index, pair))
    # Past about 20 changes the brute-force scores get slow, so larger pairs go over the limit.
    limit = min(count, 20) + draw(st.integers(-1, 1))
    return replace(config, max_changes_per_pair=max(0, limit)), index


def _pair_example(index: int, **fields):
    """An explicit example: pair ``index`` of a lab of five noiseless traces
    per log on three leaves, with both thresholds at 0.9 and master seed 0,
    and the given fields."""
    defaults = dict(
        n_pairs=1, n_traces=5, noise_probability=0.0, leaves_range=(3, 3), replacements_range=(0, 2),
        insertions_range=(0, 0), deletions_range=(0, 0), exc_threshold=0.9, int_threshold=0.9, master_seed=0,
    )
    return example(experiment=(ExperimentConfig(**{**defaults, **fields}), index))


# Each of these is the smallest input found to fail on one defect put into run_pair.
@_pair_example(1, replacements_range=(1, 2), max_change_size=2, max_changes_per_pair=9)  # technique/baseline split
@_pair_example(0, max_change_size=1, max_changes_per_pair=4)  # >= for > in the change limit; median_low; pair seed
@_pair_example(2, leaves_range=(3, 4), max_change_size=1, max_changes_per_pair=0)  # empty prediction's precision 0
@given(experiment=small_experiments())
@settings(max_examples=150, deadline=None)
def test_run_pair_equals_the_reference(experiment):
    config, index = experiment
    assert run_pair(config, index) == reference_pair(config, index)
