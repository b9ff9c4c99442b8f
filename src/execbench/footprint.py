"""Frequency-scored behavioral relations between the activities of one log.

Every ordered activity pair gets exactly one relation: strict order in
either direction, exclusiveness, or interleaving.  Relations are derived
from trace counts rather than trace existence so that a handful of noisy
traces cannot flip a relation; the exclusiveness and interleaving decisions
go through user-set thresholds that should sit close to 1.

The scores and the relations are computed as whole arrays over all
ordered pairs at once; the per-pair functions read one cell of them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import IO, Iterable

import numpy as np

from ._kernels import encode_sequences, order_stats
from .errors import ConfigError, DataError, UndefinedScoreError, UnknownActivityError
from .eventlog import EventLog, VariantIndex, extract_variants

DEFAULT_EXCLUSIVENESS_THRESHOLD = 0.9
DEFAULT_INTERLEAVING_THRESHOLD = 0.9


class Relation(Enum):
    STRICT_ORDER = "->"
    REVERSE_ORDER = "<-"
    EXCLUSIVE = "#"
    INTERLEAVING = "||"

    @property
    def mirrored(self) -> "Relation":
        if self is Relation.STRICT_ORDER:
            return Relation.REVERSE_ORDER
        if self is Relation.REVERSE_ORDER:
            return Relation.STRICT_ORDER
        return self


# The int8 cells of a FootprintMatrix: code i stands for _RELATIONS[i].
_RELATIONS = (Relation.EXCLUSIVE, Relation.STRICT_ORDER, Relation.REVERSE_ORDER, Relation.INTERLEAVING)


class _ActivityIndex:
    """Row and column lookup by activity name, through one dict built on first use."""

    activities: tuple[str, ...]

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.activities)}

    def index(self, activity: str) -> int:
        try:
            return self._positions[activity]
        except KeyError:
            raise UnknownActivityError(f"unknown activity {activity!r}") from None


@dataclass(frozen=True)
class CooccurrenceStats(_ActivityIndex):
    """Trace counts backing the relation scores.

    ``cooccur`` holds, off the diagonal, the number of traces containing
    both activities; on the diagonal it counts traces where the activity
    occurs at least twice (the only way an activity co-occurs with itself
    as two distinct events).  ``before[a, b]`` counts traces where some
    occurrence of a precedes some occurrence of b; any occurrence counts.
    """

    activities: tuple[str, ...]
    n_traces: int
    traces_with: np.ndarray
    cooccur: np.ndarray
    before: np.ndarray

    def count_with(self, a: str) -> int:
        return int(self.traces_with[self.index(a)])

    def count_both(self, a: str, b: str) -> int:
        return int(self.cooccur[self.index(a), self.index(b)])

    def count_only(self, a: str, b: str) -> int:
        """Traces containing a but not b; zero for a pair of equal names."""
        ia, ib = self.index(a), self.index(b)
        if ia == ib:
            return 0
        return int(self.traces_with[ia] - self.cooccur[ia, ib])

    def count_before(self, a: str, b: str) -> int:
        return int(self.before[self.index(a), self.index(b)])

    @cached_property
    def exclusiveness(self) -> np.ndarray:
        """min(|T_a without b| / |T_a|, |T_b without a| / |T_b|) for every pair (a, b)."""
        only = self.traces_with[:, None] - self.cooccur
        np.fill_diagonal(only, 0)
        share = only / self.traces_with[:, None]
        return np.minimum(share, share.T)

    @cached_property
    def interleaving(self) -> np.ndarray:
        """1 - |#(a before b) - #(b before a)| / #(a and b co-occur); NaN where they never do."""
        both = np.where(self.cooccur > 0, self.cooccur, np.nan)
        return 1.0 - np.abs(self.before - self.before.T) / both


def ordering_counts(log: EventLog, variants: VariantIndex | None = None) -> CooccurrenceStats:
    """Tally the ordering patterns of all activity pairs, per trace.

    Counts are accumulated over distinct variants weighted by frequency,
    which is equivalent to enumerating traces directly.
    """
    variants = variants or extract_variants(log)
    activities = tuple(sorted(log.alphabet))
    vocabulary = {name: i for i, name in enumerate(activities)}
    seqs = list(variants.entries.keys())
    freqs = np.array([variants.entries[v].frequency for v in seqs], dtype=np.int64)
    tokens, lengths = encode_sequences(seqs, vocabulary)
    traces_with, cooccur, before = order_stats(tokens, lengths, freqs, len(activities))
    return CooccurrenceStats(
        activities=activities,
        n_traces=variants.total_traces,
        traces_with=traces_with,
        cooccur=cooccur,
        before=before,
    )


def exclusiveness_score(stats: CooccurrenceStats, a: str, b: str) -> float:
    """min(|T_a without b| / |T_a|, |T_b without a| / |T_b|)."""
    return float(stats.exclusiveness[stats.index(a), stats.index(b)])


def interleaving_score(stats: CooccurrenceStats, a: str, b: str) -> float:
    """1 - |#(a before b) - #(b before a)| / #(a and b co-occur)."""
    score = float(stats.interleaving[stats.index(a), stats.index(b)])
    if np.isnan(score):
        raise UndefinedScoreError(
            f"activities {a!r} and {b!r} never co-occur; the interleaving score is undefined"
        )
    return score


def _relation_codes(stats: CooccurrenceStats, exc_threshold: float, int_threshold: float) -> np.ndarray:
    """The relation rule, applied to every ordered pair at once.

    Pairs that never co-occur are exclusive outright, which also covers an
    activity against itself when it never repeats.  Otherwise the scores
    are checked against the thresholds (strictly greater), and remaining
    pairs are sequential in the majority direction; an exact tie in
    direction counts, reachable only at an interleaving threshold of 1,
    falls back to interleaving.  The rule is symmetric in the pair, so
    exclusive and interleaving cells are symmetric and strict order flips
    direction across the diagonal.
    """
    _check_threshold("exc", exc_threshold)
    _check_threshold("int", int_threshold)
    exclusive = (stats.cooccur == 0) | (stats.exclusiveness > exc_threshold)
    interleaving = stats.interleaving > int_threshold
    direction = stats.before - stats.before.T
    # Codes index _RELATIONS: exclusive 0, interleaving 3, strict order 1, reverse order 2.
    return np.select([exclusive, interleaving, direction > 0, direction < 0], [0, 3, 1, 2], default=3).astype(np.int8)


def classify_relation(
    stats: CooccurrenceStats,
    a: str,
    b: str,
    exc_threshold: float = DEFAULT_EXCLUSIVENESS_THRESHOLD,
    int_threshold: float = DEFAULT_INTERLEAVING_THRESHOLD,
) -> Relation:
    """The relation of one ordered pair, read from the whole-matrix rule."""
    return _RELATIONS[_relation_codes(stats, exc_threshold, int_threshold)[stats.index(a), stats.index(b)]]


def _check_threshold(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} threshold must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class FootprintMatrix(_ActivityIndex):
    activities: tuple[str, ...]
    cells: np.ndarray  # int8 codes into _RELATIONS, indexed like activities

    def relation(self, a: str, b: str) -> Relation:
        return _RELATIONS[self.cells[self.index(a), self.index(b)]]

    def row(self, activity: str, columns: Iterable[str]) -> tuple[Relation, ...]:
        i = self.index(activity)
        return tuple(_RELATIONS[self.cells[i, self.index(c)]] for c in columns)

    def to_csv(self, stream: IO[str]) -> None:
        symbols = np.array([relation.value for relation in _RELATIONS])[self.cells]
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["", *self.activities])
        writer.writerows([a, *row] for a, row in zip(self.activities, symbols.tolist()))


def build_footprint_matrix(
    log: EventLog,
    exc_threshold: float = DEFAULT_EXCLUSIVENESS_THRESHOLD,
    int_threshold: float = DEFAULT_INTERLEAVING_THRESHOLD,
    variants: VariantIndex | None = None,
) -> FootprintMatrix:
    """Classify every ordered pair of one log, including the diagonal."""
    if not log.traces:
        raise DataError("cannot build a footprint matrix for an empty event log")
    stats = ordering_counts(log, variants)
    return FootprintMatrix(stats.activities, _relation_codes(stats, exc_threshold, int_threshold))
