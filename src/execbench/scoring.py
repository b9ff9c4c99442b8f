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
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from ._kernels import CHUNK_ROWS, levenshtein_many
from .compatibility import (
    DEFAULT_MAX_CHANGE_SIZE,
    ProcessChange,
    build_compatibility_graph,
    enumerate_changes,
)
from .errors import ConfigError, DataError, LogSimilarityWarning, TruncationWarning, VacuousChangeError, check_fraction, check_int
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
        if not (self.performance is None or isinstance(self.performance, PerfConfig)):
            raise ConfigError(f"performance must be a PerfConfig or None, got {self.performance!r}")


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

    It reads both logs' :attr:`VariantIndex.codes`.  Presence masks, built
    once, pick a change's affected own rows and its pool of benchmark rows.
    The modified variants are one gather through a code map from own to
    benchmark codes; a name the benchmark log lacks goes to the spare code
    ``len(benchmark.activities)``, which no candidate holds.  One cache,
    keyed by the bytes of a modified code row, holds its int32 distances to
    all benchmark variants, -1 where not yet computed.  :meth:`score_all`
    queues the missing (modified row, candidate) pairs of all its changes,
    each pair once, and aligns the queue in one kernel call per
    ``CHUNK_ROWS`` pairs; :meth:`score` is its one-change case.  Whole pools
    are scored, so tie counts are exact and do not depend on scoring order.
    """

    def __init__(self, own: VariantIndex, benchmark: VariantIndex, with_performance: bool = False):
        self.own = own
        self.benchmark = benchmark
        self.with_performance = with_performance
        self._own_variants = list(own.entries)
        self._variants = list(benchmark.entries)
        self._own_tokens, self._own_lengths, _ = own.codes
        self._tokens, self._lengths, self._freqs = benchmark.codes
        self._spare = len(benchmark.activities)
        own_to_benchmark = [benchmark.code_of.get(a, self._spare) for a in own.activities]
        self._code_map = np.array(own_to_benchmark + [-1], dtype=np.int32)  # the last cell keeps padding at -1
        self._own_present = _presence(self._own_tokens, len(own.activities))
        self._present = _presence(self._tokens, self._spare)
        self._distances: dict[bytes, np.ndarray] = {}

    def _affected(self, change: ProcessChange) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The change's affected own rows, its pool of benchmark rows, and the modified code rows."""
        own_codes, codes = self.own.code_of, self.benchmark.code_of
        replaced = {own_codes[a]: b for a, b in change.mapping().items() if a in own_codes}
        rows = np.flatnonzero(self._own_present[:, list(replaced)].any(axis=1))
        if not len(rows):
            raise VacuousChangeError(
                "no affected variants: none of the replaced activities occurs in the own log"
            )
        targets = [codes[name] for name in change.benchmark_activities if name in codes]
        pool = np.flatnonzero(self._present[:, targets].any(axis=1))
        if not len(pool):
            raise DataError("no benchmark variant executes any replacement activity")
        code_map = self._code_map.copy()
        code_map[list(replaced)] = [codes.get(b, self._spare) for b in replaced.values()]
        return rows, pool, code_map[self._own_tokens[rows]]

    def _align(self, affected: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> None:
        """Cache the distance of every (modified row, pool column) pair of the affected sets.

        A pair the cache lacks is queued once and marked -2.  The queue is
        aligned in one kernel call before a row's pairs would take it past
        ``CHUNK_ROWS``, so that each call fills one kernel chunk, and at the
        end.  If a change raises first, its queued cells go back to -1.
        """
        queue: list[tuple[bytes, np.ndarray, int, np.ndarray]] = []
        try:
            queued = 0
            for rows, pool, modified in affected:
                for query, length in zip(modified, self._own_lengths[rows].tolist()):
                    key = query.tobytes()
                    cached = self._distances.get(key)
                    if cached is None:
                        cached = self._distances[key] = np.full(len(self._variants), -1, dtype=np.int32)
                    columns = pool[cached[pool] == -1]
                    if len(columns):
                        if queued + len(columns) > CHUNK_ROWS:
                            self._flush(queue)
                            queued = 0
                        cached[columns] = -2
                        queue.append((key, query, length, columns))
                        queued += len(columns)
            self._flush(queue)
        finally:
            for key, _, _, columns in queue:
                self._distances[key][columns] = -1

    def _flush(self, queue: list[tuple[bytes, np.ndarray, int, np.ndarray]]) -> None:
        """Align every queued pair in one kernel call, cache the distances and empty the queue."""
        if not queue:
            return
        keys, queries, lengths, pools = zip(*queue)
        counts = [len(columns) for columns in pools]
        distances = levenshtein_many(
            np.stack(queries),
            self._tokens,
            np.array(lengths),
            self._lengths,
            np.repeat(np.arange(len(queue)), counts),
            np.concatenate(pools),
        )
        for key, columns, part in zip(keys, pools, np.split(distances, np.cumsum(counts)[:-1])):
            self._distances[key][columns] = part
        queue.clear()

    def score_all(self, changes: Sequence[ProcessChange]) -> list[ScoredChange]:
        """Score the changes in order; equal to :meth:`score` on each.

        The missing pairs of all the changes are aligned first, so scoring
        each change then makes no kernel call.  A change that cannot be
        scored raises what :meth:`score` raises for it.
        """
        self._align(map(self._affected, changes))
        return [self.score(change) for change in changes]

    def score(self, change: ProcessChange) -> ScoredChange:
        """Score one change: the one-change case of :meth:`score_all`."""
        rows, pool, modified = affected = self._affected(change)
        self._align([affected])
        distances = np.stack([self._distances[query.tobytes()][pool] for query in modified])
        query_lens = self._own_lengths[rows]
        best, similarities, ties = _best_matches(distances, query_lens, self._lengths[pool], self._freqs[pool])
        mapping = change.mapping()
        alignments = []
        weight_total = 0
        feasibility_sum = 0.0
        impact_sum = 0.0
        for k, row in enumerate(rows.tolist()):
            original = self._own_variants[row]
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
                    modified=tuple(mapping.get(a, a) for a in original),
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


def _presence(tokens: np.ndarray, n_activities: int) -> np.ndarray:
    """``present[r, a]``: row r of ``tokens`` holds code a."""
    present = np.zeros((len(tokens), n_activities + 1), dtype=bool)
    present[np.arange(len(tokens))[:, None], tokens] = True  # padding marks the last column
    return present[:, :-1]


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
    scored = [s for s in scorer.score_all(changes) if s.feasibility >= config.min_feasibility]
    if with_performance:
        scored.sort(key=lambda s: (-s.performance_impact, -s.feasibility, s.change.sort_key()))
    else:
        scored.sort(key=lambda s: (-s.feasibility, s.change.sort_key()))
    if config.top is not None:
        scored = scored[: config.top]
    return scored
