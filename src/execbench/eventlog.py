"""Event log ingestion: CSV parsing, trace grouping, variants, performance.

Logs are case-grouped CSV files.  Events within a case are ordered by
timestamp when a timestamp column is available (ties broken by input row
order) and by row order otherwise.  Activity names are taken verbatim apart
from surrounding-whitespace trimming; equal names across logs denote the
same process step.

A trace is stored column-wise: its variant (the tuple of activity names in
event order) and the matching tuple of order keys (timestamps, or row
numbers when the log has no timestamp column), plus an optional per-case
performance value.  No object is kept per event; :attr:`Trace.events`
builds :class:`Event` records on demand.

Within one log, equal activity names share one string object and equal
variants one tuple, so the memory names and variants take grows with the
distinct ones, not with rows and traces.  The row loop keys the name memo on
the raw activity cell and keeps, per run of one case's rows, the last
performance cell it accepted: a repeated cell is looked up, not stripped or
parsed again.  A cell that strips to empty enters neither memo: an empty
activity raises on every row, and a blank performance cell never matches.
The cyclic garbage collector is paused while a log is parsed and restored
afterwards, also when the parse raises; the parse makes no reference cycles,
so its collections would only rescan the per-case lists already built.

A :class:`VariantIndex` holds a log's distinct variants in ascending order
and their one encoding, read by the order statistics and the scorer:
``activities`` is the sorted alphabet, an activity's code is its position
there (``code_of`` maps each name to it), and ``codes`` is an int32 token
matrix (a row per entry, -1-padded, width at least 1), the int32 true
lengths and the int64 trace counts.
"""

from __future__ import annotations

import csv
import gc
import math
import numbers
import sys
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property
from itertools import chain
from typing import IO

import numpy as np

from .errors import ConfigError, DataError, SchemaError

Variant = tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Event:
    case_id: str
    activity: str
    order_key: datetime | int


@dataclass(frozen=True, slots=True)
class Trace:
    """One case: ``variant[i]`` is the activity of its i-th event and
    ``order_keys[i]`` that event's timestamp or row number.  ``performance``
    is ``None`` or a finite real number (not a bool), stored as a float."""

    case_id: str
    variant: Variant
    order_keys: tuple[datetime | int, ...]
    performance: float | None = None

    def __post_init__(self) -> None:
        if type(self.variant) is not tuple:
            object.__setattr__(self, "variant", tuple(self.variant))
        if type(self.order_keys) is not tuple:
            object.__setattr__(self, "order_keys", tuple(self.order_keys))
        if not self.variant:
            raise DataError(f"case {self.case_id!r} has no events")
        if len(self.variant) != len(self.order_keys):
            raise DataError(
                f"case {self.case_id!r}: {len(self.variant)} activities but {len(self.order_keys)} order keys"
            )
        value = self.performance
        if value is not None:
            # numpy scalars are numbers.Real; NaN fails the comparison.
            finite = isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
            if isinstance(value, bool) or not finite:
                raise DataError(f"case {self.case_id!r}: performance must be a finite number, got {value!r}")
            object.__setattr__(self, "performance", float(value))

    @property
    def events(self) -> tuple[Event, ...]:
        return tuple(Event(self.case_id, a, k) for a, k in zip(self.variant, self.order_keys))


@dataclass(frozen=True)
class EventLog:
    traces: dict[str, Trace]

    @cached_property
    def alphabet(self) -> frozenset[str]:
        return frozenset(chain.from_iterable({t.variant for t in self.traces.values()}))

    def __len__(self) -> int:
        return len(self.traces)


@dataclass(frozen=True, slots=True)
class VariantEntry:
    frequency: int
    mean_performance: float | None


@dataclass(frozen=True)
class VariantIndex:
    """Distinct variants in ascending order and their encoding (see the module docstring)."""

    entries: dict[Variant, VariantEntry]

    @cached_property
    def variants(self) -> tuple[Variant, ...]:
        return tuple(self.entries)

    @cached_property
    def activities(self) -> tuple[str, ...]:
        return tuple(sorted(set(chain.from_iterable(self.entries))))

    @cached_property
    def code_of(self) -> dict[str, int]:
        return {name: code for code, name in enumerate(self.activities)}

    @cached_property
    def codes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lengths = np.array([len(v) for v in self.entries], dtype=np.int32)
        tokens = np.full((len(lengths), max(lengths.max(initial=0), 1)), -1, dtype=np.int32)
        flat = [self.code_of[name] for variant in self.entries for name in variant]
        tokens[np.arange(tokens.shape[1]) < lengths[:, None]] = flat  # a mask assigns in row-major order
        frequencies = np.array([e.frequency for e in self.entries.values()], dtype=np.int64)
        return tokens, lengths, frequencies


@dataclass(frozen=True)
class SchemaConfig:
    """Column names; case and activity are mandatory, the rest are used
    when present in the header."""

    case_col: str = "case_id"
    activity_col: str = "activity"
    time_col: str = "timestamp"
    perf_col: str = "performance"

    def __post_init__(self) -> None:
        # Header cells are stripped, so a name with outer spaces never matches.
        names = vars(self)
        for field, name in names.items():
            if not (isinstance(name, str) and name and name == name.strip()):
                raise ConfigError(f"{field} must be a non-empty column name without outer spaces, got {name!r}")
        shared = [field for field, name in names.items() if list(names.values()).count(name) > 1]
        if shared:
            raise ConfigError("column names must be distinct, got " + ", ".join(f"{f}={names[f]!r}" for f in shared))


@dataclass(frozen=True)
class PerfConfig:
    """Where per-case performance comes from and which direction is better.

    ``column`` reads the performance column; ``throughput`` derives
    last-minus-first timestamp in seconds.  ``direction`` defaults to
    ``"lower"`` for throughput and ``"higher"`` otherwise, and is set to
    that default when the config is built.  Values are normalized so that
    higher is always better downstream.
    """

    mode: str = "column"
    direction: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("column", "throughput"):
            raise ConfigError(f"performance mode must be 'column' or 'throughput', got {self.mode!r}")
        if self.direction is None:
            object.__setattr__(self, "direction", "lower" if self.mode == "throughput" else "higher")
        elif self.direction not in ("higher", "lower"):
            raise ConfigError(f"performance direction must be 'higher' or 'lower', got {self.direction!r}")


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

    The cyclic garbage collector is paused for the whole process, not just
    the calling thread, until the parse returns or raises; it is then turned
    back on only if it was on at entry.  Do not call this while another
    thread turns the collector on or off: that thread's change may be undone.
    """
    reader = csv.reader(source)
    enabled = gc.isenabled()
    gc.disable()  # see the module docstring
    try:
        return _parse_rows(reader, schema or SchemaConfig())
    except csv.Error as err:  # only the reader raises it
        raise DataError(f"line {reader.line_num}: malformed CSV: {err}") from None
    finally:
        if enabled:
            gc.enable()


def _parse_rows(reader, schema: SchemaConfig) -> EventLog:
    header = next(reader, None)
    if header is None:
        raise SchemaError("input is empty: missing header row")
    header = [h.strip() for h in header]

    def column(name: str, mandatory: bool) -> int | None:
        if header.count(name) > 1:
            raise SchemaError(f"column {name!r} appears more than once in the header")
        if name in header:
            return header.index(name)
        if mandatory:
            raise SchemaError(f"missing required column {name!r}")
        return None

    case_idx = column(schema.case_col, mandatory=True)
    act_idx = column(schema.activity_col, mandatory=True)
    time_idx = column(schema.time_col, mandatory=False)
    perf_idx = column(schema.perf_col, mandatory=False)
    width = len(header)

    columns_by_case: dict[str, tuple[list[str], list[datetime | int]]] = {}
    perf_by_case: dict[str, float] = {}
    # Raw activity cell -> its stripped name's one shared string; a cell that
    # strips to empty is never stored, so each row holding one raises.
    names: dict[str, str] = {}
    fromisoformat = datetime.fromisoformat
    # The raw case cell of the previous row: a row that repeats it continues
    # the same run of the case, whose column appends are already bound.
    # raw_perf is the run's last accepted performance cell, whose value the
    # case holds; a blank cell is never accepted, so it never matches.
    raw_case = raw_perf = None
    for row_number, row in enumerate(reader, start=2):
        if len(row) != width:
            if not row:
                continue
            raise DataError(f"row {row_number}: expected {width} fields, got {len(row)}")
        if row[case_idx] != raw_case:
            raw_case, raw_perf = row[case_idx], None
            case_id = raw_case.strip()
            if not case_id:
                raise DataError(f"row {row_number}: empty case identifier")
            columns = columns_by_case.get(case_id)
            if columns is None:
                columns = columns_by_case[case_id] = ([], [])
            add_activity, add_key = columns[0].append, columns[1].append
        activity = names.get(row[act_idx])
        if activity is None:
            activity = row[act_idx].strip()
            if not activity:
                raise DataError(f"row {row_number}: empty activity name")
            activity = names[row[act_idx]] = names.setdefault(activity, activity)
        add_activity(activity)
        if time_idx is None:
            add_key(row_number)
        else:
            try:  # the common case: a bare ISO 8601 timestamp
                add_key(fromisoformat(row[time_idx]))
            except ValueError:
                add_key(_parse_timestamp(row[time_idx], row_number))
        if perf_idx is not None and row[perf_idx] != raw_perf and row[perf_idx].strip():
            try:
                value = float(row[perf_idx])
            except ValueError:
                raise DataError(f"row {row_number}: unparseable performance value {row[perf_idx]!r}") from None
            if not math.isfinite(value):
                raise DataError(f"row {row_number}: non-finite performance value {row[perf_idx]!r}")
            known = perf_by_case.get(case_id)
            if known is not None and known != value:
                raise DataError(f"case {case_id!r}: conflicting performance values {known} and {value}")
            perf_by_case[case_id], raw_perf = value, row[perf_idx]

    variants: dict[Variant, Variant] = {}
    traces: dict[str, Trace] = {}
    for case_id, (activities, keys) in columns_by_case.items():
        try:
            if keys != sorted(keys):
                # A stable sort of positions: equal keys keep their row order.
                order = sorted(range(len(keys)), key=keys.__getitem__)
                activities = [activities[i] for i in order]
                keys = [keys[i] for i in order]
        except TypeError:
            raise DataError(
                f"case {case_id!r}: cannot order events, timestamps mix naive and offset-aware values"
            ) from None
        variant = tuple(activities)
        variant = variants.setdefault(variant, variant)
        traces[case_id] = Trace(case_id, variant, tuple(keys), perf_by_case.get(case_id))
    return EventLog(traces)


def read_event_log(path: str, schema: SchemaConfig | None = None) -> EventLog:
    """:func:`parse_event_log` on a UTF-8 file; a byte that is not UTF-8
    raises :class:`DataError` naming the path and the byte's offset."""
    with open(path, newline="", encoding="utf-8-sig") as handle:  # skips a byte-order mark
        try:
            return parse_event_log(handle, schema)
        except UnicodeDecodeError as err:
            # The decoder raises on the bytes it was last given, which end
            # where the binary buffer stands.
            offset = handle.buffer.tell() - len(err.object) + err.start
            raise DataError(
                f"{path}: not UTF-8 at byte offset {offset} "
                f"(byte 0x{err.object[err.start]:02x}: {err.reason})"
            ) from None


def write_event_log(log: EventLog, stream: IO[str]) -> None:
    """Serialize a log to CSV under the default column names; the timestamp column is
    emitted when all order keys are timestamps, the performance column when any trace has one.

    Raises :class:`DataError` when a case id or activity is empty, which the
    reader refuses, holds a carriage return, which CSV output with ``\\n``
    line ends leaves unquoted and a reader would split, or has surrounding
    whitespace, which the reader trims.
    """
    schema = SchemaConfig()
    for trace in log.traces.values():
        case_id = trace.case_id
        for activity in trace.variant:
            if not case_id or not activity:
                raise DataError(f"case {case_id!r}: an empty case id or activity cannot be written")
            if "\r" in case_id or "\r" in activity:
                raise DataError(
                    f"case {case_id!r}: a carriage return in a case id or activity cannot be written"
                )
            if case_id != case_id.strip() or activity != activity.strip():
                raise DataError(
                    f"case {case_id!r}: a case id or activity with surrounding whitespace cannot be written"
                )
    with_time = bool(log.traces) and all(
        isinstance(k, datetime) for t in log.traces.values() for k in t.order_keys
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
        for activity, key in zip(trace.variant, trace.order_keys):
            row = [trace.case_id, activity]
            if with_time:
                row.append(key.isoformat())  # type: ignore[union-attr]
            if with_perf:
                row.append("" if trace.performance is None else repr(trace.performance))
            writer.writerow(row)


def extract_variants(log: EventLog, perf: PerfConfig | None = None) -> VariantIndex:
    """Group traces by their activity sequence, in ascending variant order.

    With ``perf``, each case's value is its performance column value, or
    under ``throughput`` the seconds from its first to its last event,
    negated per case when ``perf.direction`` is ``"lower"`` so that higher
    is better; a variant's mean performance is the ``math.fsum`` mean of its
    cases' values.  Without ``perf`` every mean is ``None``.  Cases without
    a column value raise :class:`DataError` (their count and first ids)
    before any mean, throughput without timestamps :class:`ConfigError`, and
    a mean that overflows a float :class:`DataError` naming the variant.
    """
    lower = perf is not None and perf.direction == "lower"
    values_by_variant: dict[Variant, list[float | None]] = {}
    missing: list[str] = []
    for case_id, trace in log.traces.items():
        if perf is None:
            value = None
        elif perf.mode == "throughput":
            keys = trace.order_keys
            if not all(isinstance(k, datetime) for k in keys):
                raise ConfigError("throughput performance requires a timestamp column")
            value = (keys[-1] - keys[0]).total_seconds()  # type: ignore[operator]
        elif trace.performance is None:
            missing.append(case_id)
            continue
        else:
            value = trace.performance
        # Negate the case, not the mean: the fsum of -0.0s is +0.0.
        values_by_variant.setdefault(trace.variant, []).append(-value if lower else value)
    if missing:
        missing.sort()
        shown = ", ".join(missing[:_MISSING_SHOWN]) + (", ..." if len(missing) > _MISSING_SHOWN else "")
        raise DataError(f"performance value missing for {len(missing)} case(s): {shown}")
    entries: dict[Variant, VariantEntry] = {}
    for variant, values in sorted(values_by_variant.items()):  # variants are distinct, so no list is compared
        try:  # fsum is exactly rounded, so the mean does not depend on the order of the cases.
            mean = None if perf is None else math.fsum(values) / len(values)
        except OverflowError:
            raise DataError(f"variant {variant!r}: mean performance overflows a float") from None
        entries[variant] = VariantEntry(frequency=len(values), mean_performance=mean)
    return VariantIndex(entries)


_MISSING_SHOWN = 5  # case ids named in the missing-performance error
