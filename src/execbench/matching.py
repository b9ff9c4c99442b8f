"""Cross-log activity matching on footprint rows over the shared alphabet.

An own-log activity can plausibly be replaced by a benchmark activity when
the two have identical relations to every activity both logs share.
Relations to activities present in only one log are undefined across logs
and therefore ignored; shared self-columns participate like any other
column.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DataError
from .footprint import FootprintMatrix


@dataclass(frozen=True, order=True, slots=True)
class Match:
    own: str
    benchmark: str


@dataclass(frozen=True)
class MatchSet:
    matches: tuple[Match, ...]


def match_activities(own: FootprintMatrix, benchmark: FootprintMatrix) -> MatchSet:
    """All (own activity, benchmark activity) pairs with equal partial footprints.

    Same-name pairs are trivial replacements and are left out.  Both
    matrices' activities ascend (``FootprintMatrix`` checks it), so the
    shared columns, kept in each matrix's own order, line up name by name.
    """
    shared = set(own.activities) & set(benchmark.activities)
    if not shared:
        raise DataError("logs share no activities; benchmarking is not meaningful")
    own_rows = own.cells[:, [a in shared for a in own.activities]]
    benchmark_rows = benchmark.cells[:, [b in shared for b in benchmark.activities]]
    with_row: dict[bytes, list[str]] = {}
    for b, row in zip(benchmark.activities, benchmark_rows):
        with_row.setdefault(row.tobytes(), []).append(b)
    matches = [
        Match(a, b)
        for a, row in zip(own.activities, own_rows)
        for b in with_row.get(row.tobytes(), ())
        if a != b
    ]
    return MatchSet(tuple(sorted(matches)))
