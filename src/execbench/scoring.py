"""Feasibility and performance scoring of candidate process changes.

A change is applied to every own-log variant that executes one of the
replaced activities; each modified variant is aligned against the
benchmark variants that execute a replacement activity, and the
frequency-weighted edit similarity of those alignments is the change's
feasibility.  When both logs carry a performance measure, the same
alignments yield the expected per-case performance impact.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter

import numpy as np

from ._kernels import levenshtein_many
from .compatibility import DEFAULT_MAX_CHANGE_SIZE, ProcessChange, build_compatibility_graph, enumerate_changes
from .errors import ConfigError, DataError, LogSimilarityWarning, TruncationWarning, VacuousChangeError, check_fraction, check_int
from .eventlog import EventLog, PerfConfig, Variant, VariantIndex, extract_variants
from .footprint import DEFAULT_EXCLUSIVENESS_THRESHOLD, DEFAULT_INTERLEAVING_THRESHOLD, build_footprint_matrix
from .matching import match_activities

SIMILARITY_WARNING_BOUND = 0.5
CHUNK_ROWS = 1 << 13  # pairs per kernel call: bounds each call's match tables and DP state


@dataclass(frozen=True)
class Alignment:
    """One affected own-log variant with its closest benchmark variant.

    ``own_performance`` and ``benchmark_performance`` are the two variants'
    :attr:`VariantEntry.mean_performance`, ``None`` when the scorer's indexes
    carry no performance."""

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
    normalization.  ``alignments`` is built on first read from the two
    variant indexes and, per affected own row, its matched benchmark row,
    similarity and tie count; equality compares it too.
    """

    change: ProcessChange
    feasibility: float
    performance_impact: float | None
    affected_trace_count: int
    _matches: tuple = field(repr=False, compare=False)  # (own, benchmark, rows, matched, similarities, ties)

    @cached_property
    def alignments(self) -> tuple[Alignment, ...]:
        own, benchmark, *columns = self._matches
        mapping = self.change.mapping()
        alignments = []
        for row, match, similarity, ties in zip(*(column.tolist() for column in columns)):
            original, matched = own.variants[row], benchmark.variants[match]
            entry = own.entries[original]
            modified = tuple(map(mapping.get, original, original))
            bench_perf = benchmark.entries[matched].mean_performance
            alignments.append(
                Alignment(original, modified, matched, similarity, entry.frequency, ties, entry.mean_performance, bench_perf)
            )
        return tuple(alignments)

    def __eq__(self, other: object) -> bool:
        compared = attrgetter("change", "feasibility", "performance_impact", "affected_trace_count", "alignments")
        return compared(self) == compared(other) if other.__class__ is self.__class__ else NotImplemented


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


@dataclass(frozen=True)
class BenchmarkResult:
    """What :func:`benchmark` finds: each log's sorted alphabet, the sorted
    names both share, the Jaccard overlap of the two alphabets, and the
    ranked changes: the keys of the CLI's ``report.json`` after ``config``."""

    own_alphabet: tuple[str, ...]
    benchmark_alphabet: tuple[str, ...]
    shared_alphabet: tuple[str, ...]
    alphabet_jaccard: float
    changes: tuple[ScoredChange, ...]


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
    ``len(benchmark.activities)``, which no candidate holds.  Each distinct
    modified code row has a slot, found by its bytes, in one 2-D int32 cache
    of distances to all benchmark variants, -1 where not yet computed.
    :meth:`score_all` appends the missing (slot, candidate) pairs of all its
    changes, each once, to one buffer and aligns it in kernel calls of
    exactly ``CHUNK_ROWS`` pairs, the last call taking what is left; the
    kernel aligns each call in one pass, so this cut alone bounds its memory.
    :meth:`score` is its one-change case.  Whole pools are scored, so tie
    counts are exact and do not depend on scoring order.

    Changes are scored with performance exactly when every entry of both
    indexes has a mean performance (see :func:`extract_variants`); indexes
    where some entries have one and some do not raise :class:`DataError`.
    """

    def __init__(self, own: VariantIndex, benchmark: VariantIndex):
        self.own = own
        self.benchmark = benchmark
        with_means = {e.mean_performance is not None for i in (own, benchmark) for e in i.entries.values()}
        if len(with_means) > 1:
            raise DataError("performance measure required on both logs")
        self._with_performance = True in with_means
        means = (np.array([e.mean_performance for e in i.entries.values()], dtype=float) for i in (own, benchmark))
        self._own_means, self._means = means  # a None mean reads as NaN; used only when scored with performance
        self._own_tokens, self._own_lengths, self._own_freqs = own.codes
        self._tokens, self._lengths, self._freqs = benchmark.codes
        self._spare = len(benchmark.activities)
        own_to_benchmark = [benchmark.code_of.get(a, self._spare) for a in own.activities]
        self._code_map = np.array(own_to_benchmark + [-1], dtype=np.int32)  # the last cell keeps padding at -1
        self._own_present = _presence(self._own_tokens, len(own.activities))
        self._present = _presence(self._tokens, self._spare)
        self._slots: dict[bytes, int] = {}
        self._queries = np.empty((0, self._own_tokens.shape[1]), dtype=np.int32)
        self._distances = np.empty((0, len(self._tokens)), dtype=np.int32)

    def _affected(self, change: ProcessChange) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The change's affected own rows, its pool of benchmark rows, and the modified rows' slots."""
        own_codes, codes = self.own.code_of, self.benchmark.code_of
        replaced = {own_codes[a]: b for a, b in change.mapping().items() if a in own_codes}
        rows = np.flatnonzero(self._own_present[:, list(replaced)].any(axis=1))
        if not len(rows):
            raise VacuousChangeError("no affected variants: none of the replaced activities occurs in the own log")
        targets = [codes[name] for name in change.benchmark_activities if name in codes]
        pool = np.flatnonzero(self._present[:, targets].any(axis=1))
        if not len(pool):
            raise DataError("no benchmark variant executes any replacement activity")
        code_map = self._code_map.copy()
        code_map[list(replaced)] = [codes.get(b, self._spare) for b in replaced.values()]
        return rows, pool, self._slots_of(code_map[self._own_tokens[rows]])

    def _slots_of(self, modified: np.ndarray) -> np.ndarray:
        """Each modified code row's slot; a row not seen before gets the next one, and the cache grows."""
        data, width = modified.tobytes(), modified.shape[1] * modified.itemsize
        slots = np.array([self._slots.setdefault(data[i : i + width], len(self._slots)) for i in range(0, len(data), width)])
        if (extra := len(self._slots)) > len(self._distances):  # adding the slot count at least doubles the cache
            self._queries = np.concatenate([self._queries, np.empty((extra, self._queries.shape[1]), dtype=np.int32)])
            self._distances = np.concatenate([self._distances, np.full((extra, len(self._tokens)), -1, dtype=np.int32)])
        self._queries[slots] = modified
        return slots

    def _align(self, affected: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> None:
        """Cache the distance of every (slot, pool column) pair of the affected sets.

        A missing pair is claimed once (-2, so no later change claims it) and
        buffered.  Each full ``CHUNK_ROWS`` of the buffer is one kernel call, the
        rest one more; on an error, claimed pairs not yet aligned go back to -1.
        """
        slots = columns = np.empty(0, dtype=np.intp)
        try:
            for _, pool, modified in affected:
                modified = np.array(list(dict.fromkeys(modified.tolist())))
                missing = self._distances[modified[:, None], pool] == -1
                new_columns = pool[np.nonzero(missing)[1]]  # row-major, as the repeat below; no row array is kept
                slots, columns = np.concatenate([slots, modified.repeat(missing.sum(1))]), np.concatenate([columns, new_columns])
                self._distances[slots[len(slots) - len(new_columns) :], new_columns] = -2
                while len(slots) >= CHUNK_ROWS:
                    self._flush(slots[:CHUNK_ROWS], columns[:CHUNK_ROWS])
                    slots, columns = slots[CHUNK_ROWS:], columns[CHUNK_ROWS:]
            self._flush(slots, columns)
        except BaseException:
            self._distances[slots, columns] = -1
            raise

    def _flush(self, slots: np.ndarray, columns: np.ndarray) -> None:
        """Align the (slot, column) pairs in one kernel call and cache the distances."""
        if len(slots):
            first = np.diff(slots, prepend=-1) != 0  # a slot's pairs are adjacent: one query per run
            queries = self._queries[slots[first]]
            self._distances[slots, columns] = levenshtein_many(queries, self._tokens, np.cumsum(first) - 1, columns)

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
        rows, pool, slots = affected = self._affected(change)
        self._align([affected])
        distances = self._distances[slots[:, None], pool]
        best, similarities, ties = _best_matches(distances, self._own_lengths[rows], self._lengths[pool], self._freqs[pool])
        matched, frequencies = pool[best], self._own_freqs[rows]
        weight_total, impact = int(np.cumsum(frequencies)[-1]), None
        if self._with_performance:
            with np.errstate(over="ignore", invalid="ignore"):
                impact_sum = np.cumsum(frequencies * (self._means[matched] - self._own_means[rows]))[-1]
            impact = float(impact_sum) / weight_total
            if not math.isfinite(impact):
                raise DataError(f"change {change.mapping()}: performance impact overflows a float")
        # np.cumsum(...)[-1] adds left to right, as a Python loop does; np.sum adds pairwise.
        feasibility = float(np.cumsum(frequencies * similarities)[-1]) / weight_total
        matches = (self.own, self.benchmark, rows, matched, similarities, ties)
        return ScoredChange(change, feasibility, impact, weight_total, matches)


def _presence(tokens: np.ndarray, n_activities: int) -> np.ndarray:
    """``present[r, a]``: row r of ``tokens`` holds code a."""
    present = np.zeros((len(tokens), n_activities + 1), dtype=bool)
    present[np.arange(len(tokens))[:, None], tokens] = True  # padding marks the last column
    return present[:, :-1]


def benchmark(log_own: EventLog, log_benchmark: EventLog, config: BenchmarkConfig | None = None) -> BenchmarkResult:
    """Run the full pipeline and return the alphabets and the ranked changes.

    Footprints, matching, compatible grouping, then scoring; the scored
    changes are filtered by minimum feasibility and sorted by performance
    impact (0 for every change when scored without performance),
    feasibility, and canonical change order, and the first ``top`` are kept.

    Every change affects some own variant, since a match's own activity
    comes from the own log's alphabet, so no change here is vacuous.
    """
    config = config or BenchmarkConfig()
    if not (log_own.traces and log_benchmark.traces):
        # The footprint's own check, made before any performance value is read.
        raise DataError("cannot build a footprint matrix for an empty event log")
    shared = log_own.alphabet & log_benchmark.alphabet
    union = log_own.alphabet | log_benchmark.alphabet
    jaccard = len(shared) / len(union)
    if jaccard < SIMILARITY_WARNING_BOUND:
        warnings.warn(
            f"logs share only {len(shared)} of {len(union)} activities; matches may be unreliable",
            LogSimilarityWarning,
            stacklevel=2,
        )

    own_index = extract_variants(log_own, config.performance)
    bench_index = extract_variants(log_benchmark, config.performance)

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

    scorer = ChangeScorer(own_index, bench_index)
    scored = [s for s in scorer.score_all(changes) if s.feasibility >= config.min_feasibility]
    scored.sort(key=lambda s: (-(s.performance_impact or 0.0), -s.feasibility, s.change.sort_key()))
    alphabets = (tuple(sorted(names)) for names in (log_own.alphabet, log_benchmark.alphabet, shared))
    return BenchmarkResult(*alphabets, jaccard, tuple(scored[: config.top]))
