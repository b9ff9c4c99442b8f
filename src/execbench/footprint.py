"""Frequency-scored behavioral relations between the activities of one log.

Every ordered activity pair gets exactly one relation: strict order in
either direction, exclusiveness, or interleaving.  Relations are derived
from trace counts rather than trace existence so that a handful of noisy
traces cannot flip a relation; the exclusiveness and interleaving decisions
go through user-set thresholds that should sit close to 1.

Both builders read only a log's variant index and compute whole arrays
over all ordered pairs at once.  Rows and columns follow the log's sorted
alphabet, ``VariantIndex.activities``: an activity's row is its variant code.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import IO, Sequence

import numpy as np

from ._kernels import order_stats
from .errors import ConfigError, DataError, check_fraction
from .eventlog import VariantIndex, check_index, extract_variants  # noqa: F401

DEFAULT_EXCLUSIVENESS_THRESHOLD = 0.9
DEFAULT_INTERLEAVING_THRESHOLD = 0.9


class Relation(Enum):
    STRICT_ORDER = "->"
    REVERSE_ORDER = "<-"
    EXCLUSIVE = "#"
    INTERLEAVING = "||"


# The int8 cells of a FootprintMatrix: code i stands for _RELATIONS[i].
_RELATIONS = (Relation.EXCLUSIVE, Relation.STRICT_ORDER, Relation.REVERSE_ORDER, Relation.INTERLEAVING)


@dataclass(frozen=True)
class CooccurrenceStats:
    """Trace counts backing the relation scores.

    ``cooccur`` holds, off the diagonal, the number of traces containing
    both activities; on the diagonal it counts traces where the activity
    occurs at least twice (the only way an activity co-occurs with itself
    as two distinct events).  ``before[a, b]`` counts traces where some
    occurrence of a precedes some occurrence of b; any occurrence counts.
    Every array is indexed like ``activities``, the log's sorted alphabet.
    """

    activities: tuple[str, ...]
    traces_with: np.ndarray
    cooccur: np.ndarray
    before: np.ndarray

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

    def footprint(
        self,
        exc_threshold: float = DEFAULT_EXCLUSIVENESS_THRESHOLD,
        int_threshold: float = DEFAULT_INTERLEAVING_THRESHOLD,
    ) -> "FootprintMatrix":
        """Classify every ordered pair, including the diagonal, all at once.

        Pairs that never co-occur are exclusive outright, which also covers
        an activity against itself when it never repeats.  Otherwise the
        scores are checked against the thresholds (strictly greater), and
        remaining pairs are sequential in the majority direction; an exact
        tie in direction counts, reachable only at an interleaving threshold
        of 1, falls back to interleaving.  The rule is symmetric in the pair,
        so exclusive and interleaving cells are symmetric and strict order
        flips direction across the diagonal.
        """
        if not self.activities:  # a trace has at least one event
            raise DataError("cannot build a footprint matrix for an empty event log")
        check_fraction("exc_threshold", exc_threshold)
        check_fraction("int_threshold", int_threshold)
        exclusive = (self.cooccur == 0) | (self.exclusiveness > exc_threshold)
        interleaving = self.interleaving > int_threshold
        direction = self.before - self.before.T
        # Codes index _RELATIONS: exclusive 0, interleaving 3, strict order 1, reverse order 2.
        codes = np.select([exclusive, interleaving, direction > 0, direction < 0], [0, 3, 1, 2], default=3)
        return FootprintMatrix(self.activities, codes.astype(np.int8))


def ordering_counts(variants: VariantIndex) -> CooccurrenceStats:
    """Tally the ordering patterns of all activity pairs, per trace.

    Counts are accumulated over distinct variants weighted by frequency,
    which is equivalent to enumerating traces directly.  Anything but a
    :class:`VariantIndex`, such as an event log, raises :class:`ConfigError`.
    """
    check_index(variants)
    tokens, _, frequencies = variants.codes
    traces_with, cooccur, before = order_stats(tokens, frequencies, n_symbols=len(variants.activities))
    return CooccurrenceStats(variants.activities, traces_with, cooccur, before)


@dataclass(frozen=True)
class FootprintMatrix:
    """One relation per ordered activity pair.

    Rows and columns follow ``activities``, which must strictly ascend as
    the log's sorted alphabet (``VariantIndex.activities``) does; matching
    relies on that order to align two matrices' shared columns.
    """

    activities: tuple[str, ...]
    cells: np.ndarray  # int8 codes into _RELATIONS, indexed like activities

    def __post_init__(self) -> None:
        if any(a >= b for a, b in zip(self.activities, self.activities[1:])):
            raise ConfigError(f"footprint activities must strictly ascend, got {self.activities!r}")

    def to_csv(self, stream: IO[str]) -> None:
        _write_matrix_csv(self.activities, np.array([relation.value for relation in _RELATIONS])[self.cells], stream)


def _write_matrix_csv(activities: Sequence[str], cells: np.ndarray, stream: IO[str]) -> None:
    """Write string ``cells`` as a CSV with the activities along the header row and down the first column."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["", *activities])
    writer.writerows([a, *row] for a, row in zip(activities, cells.tolist()))


def build_footprint_matrix(
    variants: VariantIndex,
    exc_threshold: float = DEFAULT_EXCLUSIVENESS_THRESHOLD,
    int_threshold: float = DEFAULT_INTERLEAVING_THRESHOLD,
) -> FootprintMatrix:
    """Classify every ordered pair of one log's variant index, including the diagonal."""
    return ordering_counts(variants).footprint(exc_threshold, int_threshold)
