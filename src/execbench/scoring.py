"""Feasibility and performance scoring of candidate process changes.

A change is applied to every own-log variant that executes one of the
replaced activities; each modified variant is aligned against the
benchmark variants that execute a replacement activity, and the
frequency-weighted edit similarity of those alignments is the change's
feasibility.  When both logs carry a performance measure, the same
alignments yield the expected per-case performance impact.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._kernels import encode_sequences, levenshtein_many
from .compatibility import (
    DEFAULT_MAX_CHANGE_SIZE,
    ProcessChange,
    build_compatibility_graph,
    enumerate_changes,
)
from .errors import DataError, LogSimilarityWarning, TruncationWarning, VacuousChangeError, check_fraction, check_int
from .eventlog import (
    EventLog,
    PerfConfig,
    Variant,
    VariantIndex,
    extract_variants,
    trace_performance,
)
from .footprint import (
    DEFAULT_EXCLUSIVENESS_THRESHOLD,
    DEFAULT_INTERLEAVING_THRESHOLD,
    build_footprint_matrix,
)
from .matching import match_activities

SIMILARITY_WARNING_BOUND = 0.5


@dataclass(frozen=True)
class Alignment:
    """One affected own-log variant with its closest benchmark variant.

    The two mean performances are set only when the change is scored with performance."""

    original: Variant
    modified: Variant
    matched: Variant
    similarity: float
    frequency: int
    tie_count: int
    own_performance: float | None = None
    benchmark_performance: float | None = None


@dataclass(frozen=True)
class ScoredChange:
    """``feasibility`` is the frequency-weighted mean edit similarity of the
    alignments.  ``performance_impact``, when scored with performance, is the
    frequency-weighted mean benchmark-minus-own performance difference:
    positive means the benchmark performs better under the higher-is-better
    normalization."""

    change: ProcessChange
    feasibility: float
    performance_impact: float | None
    affected_trace_count: int
    alignments: tuple[Alignment, ...]


@dataclass(frozen=True)
class BenchmarkConfig:
    exc_threshold: float = DEFAULT_EXCLUSIVENESS_THRESHOLD
    int_threshold: float = DEFAULT_INTERLEAVING_THRESHOLD
    max_change_size: int = DEFAULT_MAX_CHANGE_SIZE
    min_feasibility: float = 0.0
    top: int | None = None
    performance: PerfConfig | None = None

    def __post_init__(self) -> None:
        for name in ("exc_threshold", "int_threshold", "min_feasibility"):
            check_fraction(name, getattr(self, name))
        check_int("max_change_size", self.max_change_size, 1)
        if self.top is not None:
            check_int("top", self.top, 0)


def affected_variants(index: VariantIndex, change: ProcessChange) -> set[Variant]:
    """Own-log variants executing at least one replaced activity."""
    own = change.own_activities
    return {v for v in index.entries if own.intersection(v)}


def apply_change(variant: Variant, change: ProcessChange) -> Variant:
    """Substitute every occurrence of each replaced activity, in place.

    Replacements within one change rewrite pairwise distinct activities,
    so the substitution is order-independent and length-preserving.
    """
    mapping = change.mapping()
    return tuple(mapping.get(a, a) for a in variant)


def _best_matches(
    distances: np.ndarray, query_lens: np.ndarray, cand_lens: np.ndarray, cand_freqs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per query row: best candidate column, its similarity, and the tie count.

    Candidate columns are in ascending variant order, so among the most
    similar candidates the first of highest frequency is the tie-break
    winner ``(-frequency, variant)``.
    """
    similarities = 1.0 - distances / np.maximum(cand_lens, query_lens[:, None])
    best_sim = similarities.max(axis=1)
    tied = similarities == best_sim[:, None]
    best = np.argmax(np.where(tied, cand_freqs, -1), axis=1)
    return best, best_sim, tied.sum(axis=1)


class ChangeScorer:
    """Scores many changes against one pair of variant indexes.

    The benchmark variants are encoded once, in ascending variant order.
    Each set of replacement activities gets one candidate pool: the indices
    of the benchmark variants that execute one of them.  One distance cache
    serves every pool: for each modified variant, an int32 row of its edit
    distances to all benchmark variants, -1 where not yet computed.  A
    change sends all of its missing (modified variant, pool candidate)
    pairs to the kernel in one call and then scores whole pools, so tie
    counts are exact and the outcome does not depend on scoring order.
    """

    def __init__(self, own: VariantIndex, benchmark: VariantIndex, with_performance: bool = False):
        self.own = own
        self.benchmark = benchmark
        self.with_performance = with_performance
        self._variants = sorted(benchmark.entries)
        self._vocabulary: dict[str, int] = {}
        self._tokens, self._lengths = encode_sequences(self._variants, self._vocabulary)
        self._freqs = np.array([benchmark.entries[v].frequency for v in self._variants], dtype=np.int64)
        self._pools: dict[frozenset[str], np.ndarray] = {}
        self._distances: dict[Variant, np.ndarray] = {}

    def _pool(self, benchmark_activities: frozenset[str]) -> np.ndarray:
        pool = self._pools.get(benchmark_activities)
        if pool is None:
            pool = np.array(
                [i for i, v in enumerate(self._variants) if not benchmark_activities.isdisjoint(v)],
                dtype=np.intp,
            )
            if not len(pool):
                raise DataError("no benchmark variant executes any replacement activity")
            self._pools[benchmark_activities] = pool
        return pool

    def _pool_distances(self, modified: list[Variant], pool: np.ndarray) -> np.ndarray:
        """Distances (len(modified), len(pool)); the missing ones in one kernel call."""
        unique = list(dict.fromkeys(modified))
        for variant in unique:
            if variant not in self._distances:
                self._distances[variant] = np.full(len(self._variants), -1, dtype=np.int32)
        known = np.stack([self._distances[v][pool] for v in unique])
        qi, columns = np.nonzero(known < 0)
        if len(qi):
            queries, query_lens = encode_sequences(unique, self._vocabulary)
            known[qi, columns] = levenshtein_many(
                queries, self._tokens, query_lens, self._lengths, qi, pool[columns]
            )
            for variant, row in zip(unique, known):
                self._distances[variant][pool] = row
        position = {v: k for k, v in enumerate(unique)}
        return known[[position[v] for v in modified]]

    def score(self, change: ProcessChange) -> ScoredChange:
        affected = sorted(affected_variants(self.own, change))
        if not affected:
            raise VacuousChangeError(
                "no affected variants: none of the replaced activities occurs in the own log"
            )
        pool = self._pool(change.benchmark_activities)
        modified = [apply_change(original, change) for original in affected]
        best, similarities, ties = _best_matches(
            self._pool_distances(modified, pool),
            np.array([len(v) for v in modified]),
            self._lengths[pool],
            self._freqs[pool],
        )
        alignments = []
        weight_total = 0
        feasibility_sum = 0.0
        impact_sum = 0.0
        for k, original in enumerate(affected):
            entry = self.own.entries[original]
            matched = self._variants[int(pool[best[k]])]
            similarity = float(similarities[k])
            own_perf = bench_perf = None
            if self.with_performance:
                own_perf = entry.mean_performance
                bench_perf = self.benchmark.entries[matched].mean_performance
                if own_perf is None or bench_perf is None:
                    raise DataError("performance measure required on both logs")
                impact_sum += entry.frequency * (bench_perf - own_perf)
            weight_total += entry.frequency
            feasibility_sum += entry.frequency * similarity
            alignments.append(
                Alignment(
                    original=original,
                    modified=modified[k],
                    matched=matched,
                    similarity=similarity,
                    frequency=entry.frequency,
                    tie_count=int(ties[k]),
                    own_performance=own_perf,
                    benchmark_performance=bench_perf,
                )
            )
        return ScoredChange(
            change=change,
            feasibility=feasibility_sum / weight_total,
            performance_impact=(impact_sum / weight_total) if self.with_performance else None,
            affected_trace_count=weight_total,
            alignments=tuple(alignments),
        )


def benchmark(log_own: EventLog, log_benchmark: EventLog, config: BenchmarkConfig | None = None) -> list[ScoredChange]:
    """Run the full pipeline and return the ranked list of scored changes.

    Footprints, matching, compatible grouping, then scoring; the scored
    changes are filtered by minimum feasibility and sorted by performance
    impact (when available), feasibility, and canonical change order.

    Every change affects some own variant, since a match's own activity
    comes from the own log's alphabet, so no change here is vacuous.
    """
    config = config or BenchmarkConfig()
    if not (log_own.traces and log_benchmark.traces):
        # The footprint's own check, made before any performance value is read.
        raise DataError("cannot build a footprint matrix for an empty event log")
    shared = log_own.alphabet & log_benchmark.alphabet
    union = log_own.alphabet | log_benchmark.alphabet
    if len(shared) / len(union) < SIMILARITY_WARNING_BOUND:
        warnings.warn(
            f"logs share only {len(shared)} of {len(union)} activities; matches may be unreliable",
            LogSimilarityWarning,
            stacklevel=2,
        )

    with_performance = config.performance is not None
    own_values = trace_performance(log_own, config.performance) if with_performance else None
    bench_values = trace_performance(log_benchmark, config.performance) if with_performance else None
    own_index = extract_variants(log_own, own_values)
    bench_index = extract_variants(log_benchmark, bench_values)

    own_matrix = build_footprint_matrix(log_own, config.exc_threshold, config.int_threshold, own_index)
    bench_matrix = build_footprint_matrix(log_benchmark, config.exc_threshold, config.int_threshold, bench_index)
    graph = build_compatibility_graph(match_activities(own_matrix, bench_matrix))
    if len(graph.groups) > config.max_change_size:
        warnings.warn(
            f"compatible sets larger than {config.max_change_size} replacements exist and were not enumerated",
            TruncationWarning,
            stacklevel=2,
        )
    changes = enumerate_changes(graph, config.max_change_size)

    scorer = ChangeScorer(own_index, bench_index, with_performance)
    scored = [s for s in map(scorer.score, changes) if s.feasibility >= config.min_feasibility]
    if with_performance:
        scored.sort(key=lambda s: (-s.performance_impact, -s.feasibility, s.change.sort_key()))
    else:
        scored.sort(key=lambda s: (-s.feasibility, s.change.sort_key()))
    if config.top is not None:
        scored = scored[: config.top]
    return scored
