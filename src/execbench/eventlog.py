"""Event log ingestion: CSV parsing, trace grouping, variants, performance.

Logs are case-grouped CSV files.  Events within a case are ordered by
timestamp when a timestamp column is available (ties broken by input row
order) and by row order otherwise.  Activity names are taken verbatim apart
from surrounding-whitespace trimming; equal names across logs denote the
same process step.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property
from typing import IO, Mapping

from .errors import ConfigError, DataError, SchemaError

Variant = tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Event:
    case_id: str
    activity: str
    order_key: datetime | int


@dataclass(frozen=True, slots=True)
class Trace:
    case_id: str
    events: tuple[Event, ...]
    performance: float | None = None

    @property
    def variant(self) -> Variant:
        return tuple(e.activity for e in self.events)


@dataclass(frozen=True)
class EventLog:
    traces: dict[str, Trace]

    @cached_property
    def alphabet(self) -> frozenset[str]:
        return frozenset(e.activity for t in self.traces.values() for e in t.events)

    def __len__(self) -> int:
        return len(self.traces)


@dataclass(frozen=True, slots=True)
class VariantEntry:
    frequency: int
    trace_ids: frozenset[str]
    mean_performance: float | None


@dataclass(frozen=True)
class VariantIndex:
    entries: dict[Variant, VariantEntry]

    @property
    def total_traces(self) -> int:
        return sum(e.frequency for e in self.entries.values())

    def frequencies(self) -> dict[Variant, int]:
        return {v: e.frequency for v, e in self.entries.items()}


@dataclass(frozen=True)
class SchemaConfig:
    """Column names; case and activity are mandatory, the rest are used
    when present in the header."""

    case_col: str = "case_id"
    activity_col: str = "activity"
    time_col: str = "timestamp"
    perf_col: str = "performance"


@dataclass(frozen=True)
class PerfConfig:
    """Where per-case performance comes from and which direction is better.

    ``column`` reads the performance column; ``throughput`` derives
    last-minus-first timestamp in seconds and defaults to lower-is-better.
    Values are normalized so that higher is always better downstream.
    """

    mode: str = "column"
    direction: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("column", "throughput"):
            raise ConfigError(f"performance mode must be 'column' or 'throughput', got {self.mode!r}")
        if self.direction not in (None, "higher", "lower"):
            raise ConfigError(f"performance direction must be 'higher' or 'lower', got {self.direction!r}")

    @property
    def resolved_direction(self) -> str:
        if self.direction is not None:
            return self.direction
        return "lower" if self.mode == "throughput" else "higher"


def _parse_timestamp(raw: str, row_number: int) -> datetime:
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        raise DataError(f"row {row_number}: unparseable timestamp {raw!r}") from None


def parse_event_log(source: IO[str], schema: SchemaConfig | None = None) -> EventLog:
    """Parse a CSV character stream into an :class:`EventLog`.

    Raises :class:`SchemaError` when the case or activity column is missing
    and :class:`DataError` for malformed rows or per-case inconsistencies.
    """
    reader = csv.reader(source)
    try:
        return _parse_rows(reader, schema or SchemaConfig())
    except csv.Error as err:  # only the reader raises it
        raise DataError(f"line {reader.line_num}: malformed CSV: {err}") from None


def _parse_rows(reader, schema: SchemaConfig) -> EventLog:
    header = next(reader, None)
    if header is None:
        raise SchemaError("input is empty: missing header row")
    header = [h.strip() for h in header]

    def column(name: str, mandatory: bool) -> int | None:
        if name in header:
            return header.index(name)
        if mandatory:
            raise SchemaError(f"missing required column {name!r}")
        return None

    case_idx = column(schema.case_col, mandatory=True)
    act_idx = column(schema.activity_col, mandatory=True)
    time_idx = column(schema.time_col, mandatory=False)
    perf_idx = column(schema.perf_col, mandatory=False)

    rows_by_case: dict[str, list[tuple[datetime | int, int, str]]] = {}
    perf_by_case: dict[str, float] = {}
    for row_number, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(f"row {row_number}: expected {len(header)} fields, got {len(row)}")
        case_id = row[case_idx].strip()
        activity = row[act_idx].strip()
        if not case_id:
            raise DataError(f"row {row_number}: empty case identifier")
        if not activity:
            raise DataError(f"row {row_number}: empty activity name")
        order_key: datetime | int = row_number
        if time_idx is not None:
            order_key = _parse_timestamp(row[time_idx], row_number)
        rows_by_case.setdefault(case_id, []).append((order_key, row_number, activity))
        if perf_idx is not None and row[perf_idx].strip():
            try:
                value = float(row[perf_idx])
            except ValueError:
                raise DataError(
                    f"row {row_number}: unparseable performance value {row[perf_idx]!r}"
                ) from None
            if not math.isfinite(value):
                raise DataError(f"row {row_number}: non-finite performance value {row[perf_idx]!r}")
            known = perf_by_case.get(case_id)
            if known is not None and known != value:
                raise DataError(
                    f"case {case_id!r}: conflicting performance values {known} and {value}"
                )
            perf_by_case[case_id] = value

    traces: dict[str, Trace] = {}
    for case_id, rows in rows_by_case.items():
        try:
            rows.sort(key=lambda r: (r[0], r[1]))
        except TypeError:
            raise DataError(
                f"case {case_id!r}: cannot order events, timestamps mix naive and offset-aware values"
            ) from None
        events = tuple(Event(case_id, activity, key) for key, _, activity in rows)
        traces[case_id] = Trace(case_id, events, perf_by_case.get(case_id))
    return EventLog(traces)


def read_event_log(path: str, schema: SchemaConfig | None = None) -> EventLog:
    with open(path, newline="", encoding="utf-8") as handle:
        return parse_event_log(handle, schema)


def write_event_log(log: EventLog, stream: IO[str], schema: SchemaConfig | None = None) -> None:
    """Serialize a log back to CSV; the timestamp column is emitted when all
    order keys are timestamps, the performance column when any trace has one.

    Raises :class:`DataError` when a case id or activity holds a carriage
    return, which CSV output with ``\\n`` line ends leaves unquoted and a
    reader would split, or surrounding whitespace, which the reader trims.
    """
    schema = schema or SchemaConfig()
    for trace in log.traces.values():
        for event in trace.events:
            if "\r" in event.case_id or "\r" in event.activity:
                raise DataError(
                    f"case {event.case_id!r}: a carriage return in a case id or activity cannot be written"
                )
            if event.case_id != event.case_id.strip() or event.activity != event.activity.strip():
                raise DataError(
                    f"case {event.case_id!r}: a case id or activity with surrounding whitespace cannot be written"
                )
    with_time = bool(log.traces) and all(
        isinstance(e.order_key, datetime) for t in log.traces.values() for e in t.events
    )
    with_perf = any(t.performance is not None for t in log.traces.values())
    writer = csv.writer(stream, lineterminator="\n")
    header = [schema.case_col, schema.activity_col]
    if with_time:
        header.append(schema.time_col)
    if with_perf:
        header.append(schema.perf_col)
    writer.writerow(header)
    for trace in log.traces.values():
        for event in trace.events:
            row = [event.case_id, event.activity]
            if with_time:
                row.append(event.order_key.isoformat())  # type: ignore[union-attr]
            if with_perf:
                row.append("" if trace.performance is None else repr(trace.performance))
            writer.writerow(row)


def extract_variants(log: EventLog, performance: Mapping[str, float] | None = None) -> VariantIndex:
    """Group traces by their activity sequence.

    ``performance`` optionally overrides per-trace performance values (e.g.
    with normalized ones from :func:`trace_performance`).  A variant's mean
    performance is present only when every one of its traces has a value.
    """
    grouped: dict[Variant, list[Trace]] = {}
    for trace in log.traces.values():
        grouped.setdefault(trace.variant, []).append(trace)
    entries: dict[Variant, VariantEntry] = {}
    for variant, traces in grouped.items():
        values = []
        for trace in traces:
            value = performance.get(trace.case_id) if performance is not None else trace.performance
            values.append(value)
        mean = sum(values) / len(values) if all(v is not None for v in values) else None
        entries[variant] = VariantEntry(
            frequency=len(traces),
            trace_ids=frozenset(t.case_id for t in traces),
            mean_performance=mean,
        )
    return VariantIndex(entries)


def trace_performance(log: EventLog, perf: PerfConfig | None = None) -> dict[str, float]:
    """Per-case performance, normalized so that higher is better."""
    perf = perf or PerfConfig()
    values: dict[str, float] = {}
    if perf.mode == "column":
        missing = [cid for cid, t in log.traces.items() if t.performance is None]
        if missing:
            raise DataError(
                "performance value missing for cases: " + ", ".join(sorted(missing))
            )
        values = {cid: float(t.performance) for cid, t in log.traces.items()}  # type: ignore[arg-type]
    else:
        for case_id, trace in log.traces.items():
            keys = [e.order_key for e in trace.events]
            if not all(isinstance(k, datetime) for k in keys):
                raise ConfigError("throughput performance requires a timestamp column")
            values[case_id] = (keys[-1] - keys[0]).total_seconds()  # type: ignore[operator]
    if perf.resolved_direction == "lower":
        values = {cid: -v for cid, v in values.items()}
    return values
