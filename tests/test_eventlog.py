"""Parsing, variant extraction and performance normalization."""

import csv
import gc
import io
import itertools
import math
import operator
import os
import re
import tempfile
from collections import Counter
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import BENCHMARK_CSV, OWN_CSV, make_log
from execbench.errors import ConfigError, DataError, ExecbenchError, SchemaError
from execbench.eventlog import (
    _parse_timestamp,
    Event,
    EventLog,
    PerfConfig,
    SchemaConfig,
    Trace,
    extract_variants,
    index_cases,
    parse_event_log,
    read_cases,
    read_event_log,
    write_event_log,
)


def parse(text: str, schema: SchemaConfig | None = None):
    return parse_event_log(io.StringIO(text), schema)


def test_single_case_ordered_by_timestamp():
    csv = (
        "case_id,activity,timestamp\n"
        "c1,d,2024-01-01T09:01:00\n"
        "c1,a,2024-01-01T09:00:00\n"
        "c1,e,2024-01-01T09:02:00\n"
        "c1,g,2024-01-01T09:03:00\n"
    )
    log = parse(csv)
    assert len(log) == 1
    assert log.traces["c1"].variant == ("a", "d", "e", "g")


def test_header_only_gives_empty_log():
    log = parse("case_id,activity,timestamp\n")
    assert len(log) == 0
    assert log.alphabet == frozenset()


def test_worked_example_alphabets():
    own = parse(OWN_CSV)
    bench = parse(BENCHMARK_CSV)
    assert own.alphabet == frozenset("acdefg")
    assert bench.alphabet == frozenset("bcdeg")
    assert len(own) == 4 and len(bench) == 2


def test_equal_timestamps_break_ties_by_row_order():
    csv = (
        "case_id,activity,timestamp\n"
        "c1,x,2024-01-01T09:00:00\n"
        "c1,y,2024-01-01T09:00:00\n"
    )
    assert parse(csv).traces["c1"].variant == ("x", "y")


def test_no_timestamp_column_uses_row_order():
    log = parse("case_id,activity\nc1,b\nc1,a\n")
    assert log.traces["c1"].variant == ("b", "a")


def test_activity_names_are_whitespace_trimmed():
    log = parse("case_id,activity\nc1,  a \nc1,b\n")
    assert log.traces["c1"].variant == ("a", "b")


def test_missing_mandatory_column_names_it():
    with pytest.raises(SchemaError, match="activity"):
        parse("case_id,timestamp\nc1,2024-01-01\n")
    with pytest.raises(SchemaError, match="case_id"):
        parse("activity\na\n")


def test_unparseable_timestamp_reports_row():
    with pytest.raises(DataError, match="row 3"):
        parse("case_id,activity,timestamp\nc1,a,2024-01-01T00:00:00\nc1,b,not-a-time\n")


def test_conflicting_case_performance_reports_case():
    csv = "case_id,activity,performance\nc1,a,10\nc1,b,12\n"
    with pytest.raises(DataError, match="c1"):
        parse(csv)


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "Infinity"])
def test_non_finite_performance_reports_row(value):
    csv = f"case_id,activity,performance\nc1,a,10\nc2,b,{value}\n"
    with pytest.raises(DataError, match="row 3: non-finite performance"):
        parse(csv)


def test_repeated_equal_performance_is_fine():
    log = parse("case_id,activity,performance\nc1,a,10\nc1,b,10\n")
    assert log.traces["c1"].performance == 10.0


@pytest.mark.parametrize("column", ["case_id", "activity", "timestamp", "performance"])
def test_a_used_column_named_twice_is_rejected(column):
    header = ["case_id", "activity", "timestamp", "performance", column]
    row = ["c1", "a", "2024-01-01T00:00:00", "1", "b"]
    with pytest.raises(SchemaError, match=repr(column)):
        parse(",".join(header) + "\n" + ",".join(row) + "\n")


def test_an_unused_column_named_twice_is_ignored():
    log = parse("case_id,note,activity,note\nc1,x,a,y\n")
    assert log.traces["c1"].variant == ("a",)


def test_custom_schema_names():
    csv = "Case,Step,When\n7,start,2024-05-05T01:00:00\n"
    schema = SchemaConfig(case_col="Case", activity_col="Step", time_col="When")
    log = parse(csv, schema)
    assert log.traces["7"].variant == ("start",)


@pytest.mark.parametrize(
    "fields, named",
    [
        ({"activity_col": "case_id"}, ["case_col", "activity_col"]),
        ({"case_col": "activity"}, ["case_col", "activity_col"]),
        ({"time_col": "performance"}, ["time_col", "perf_col"]),
        ({"case_col": "x", "activity_col": "x", "time_col": "y", "perf_col": "y"},
         ["case_col", "activity_col", "time_col", "perf_col"]),
    ],
)
def test_schema_column_names_must_be_distinct(fields, named):
    with pytest.raises(ConfigError, match="distinct") as raised:
        SchemaConfig(**fields)
    assert [f for f in ("case_col", "activity_col", "time_col", "perf_col") if f in str(raised.value)] == named


@pytest.mark.parametrize(
    "field, name",
    [
        ("time_col", " timestamp"),
        ("case_col", "case_id\t"),
        ("activity_col", ""),
        ("perf_col", " "),
        ("case_col", None),
        ("activity_col", 3),
        ("time_col", b"timestamp"),
    ],
)
def test_schema_column_names_must_be_stripped_nonempty_strings(field, name):
    with pytest.raises(ConfigError, match=field):
        SchemaConfig(**{field: name})


def test_schema_column_names_may_hold_inner_spaces():
    schema = SchemaConfig(case_col="case id", activity_col="Activity Name")
    log = parse("case id,Activity Name\nc1,a b\n", schema)
    assert log.traces["c1"].variant == ("a b",)


def test_extract_variants_worked_example():
    idx = extract_variants(parse(OWN_CSV))
    assert len(idx.entries) == 4
    assert all(e.frequency == 1 for e in idx.entries.values())


def test_extract_variants_groups_identical_traces():
    log = make_log([("a", "b")], freqs=[10])
    idx = extract_variants(log)
    assert len(idx.entries) == 1
    assert idx.entries[("a", "b")].frequency == 10


def test_extract_variants_counts():
    log = make_log([("a", "b"), ("b", "a")], freqs=[3, 2])
    idx = extract_variants(log)
    assert idx.entries[("a", "b")].frequency == 3
    assert idx.entries[("b", "a")].frequency == 2
    assert sum(e.frequency for e in idx.entries.values()) == 5


def test_mean_performance_does_not_depend_on_case_order():
    # A plain left-to-right sum gives 0.6000000000000001 one way and 0.6 the other.
    forward = make_log([("a",)] * 3, performance=[0.1, 0.2, 0.3])
    backward = make_log([("a",)] * 3, performance=[0.3, 0.2, 0.1])
    perf = PerfConfig("column")
    assert extract_variants(forward, perf).entries == extract_variants(backward, perf).entries
    assert extract_variants(forward, perf).entries[("a",)].mean_performance == 0.6 / 3


def test_mean_performance_comes_only_from_a_perf_config():
    log = make_log([("a", "b"), ("a", "b"), ("c",)], performance=[4.0, 6.0, 1.0])
    assert {e.mean_performance for e in extract_variants(log).entries.values()} == {None}
    higher = extract_variants(log, PerfConfig("column")).entries
    assert {v: e.mean_performance for v, e in higher.items()} == {("a", "b"): 5.0, ("c",): 1.0}
    lower = extract_variants(log, PerfConfig("column", "lower")).entries
    assert {v: e.mean_performance for v, e in lower.items()} == {("a", "b"): -5.0, ("c",): -1.0}


def test_variant_index_entries_come_in_ascending_order():
    log = make_log([("b", "a"), ("a", "c"), ("b",), ("a",)])
    assert list(extract_variants(log).entries) == [("a",), ("a", "c"), ("b",), ("b", "a")]


def test_variant_index_codes_are_positions_in_the_sorted_alphabet():
    index = extract_variants(make_log([("c", "a", "c"), ("b",), ("a", "b")], freqs=[2, 3, 1]))
    assert index.activities == ("a", "b", "c")
    tokens, lengths, freqs = index.codes
    assert (tokens.dtype, lengths.dtype, freqs.dtype) == (np.int32, np.int32, np.int64)
    # rows follow the entries: ("a", "b"), ("b",), ("c", "a", "c")
    assert tokens.tolist() == [[0, 1, -1], [1, -1, -1], [2, 0, 2]]
    assert lengths.tolist() == [2, 1, 3]
    assert freqs.tolist() == [1, 3, 2]


def test_one_event_variants_give_width_one():
    tokens, lengths, freqs = extract_variants(make_log([("b",), ("a",)], freqs=[1, 4])).codes
    assert tokens.tolist() == [[0], [1]]
    assert lengths.tolist() == [1, 1]
    assert freqs.tolist() == [4, 1]


def means(log, perf):
    return {v: e.mean_performance for v, e in extract_variants(log, perf).entries.items()}


def test_performance_column_identity_and_negation():
    log = parse("case_id,activity,performance\nc1,a,10\n")
    assert means(log, PerfConfig("column", "higher")) == {("a",): 10.0}
    assert means(log, PerfConfig("column", "lower")) == {("a",): -10.0}


def test_throughput_defaults_to_lower_is_better():
    csv = (
        "case_id,activity,timestamp\n"
        "c1,a,2024-01-01T09:00:00\n"
        "c1,b,2024-01-01T09:30:00\n"
    )
    log = parse(csv)
    assert means(log, PerfConfig("throughput")) == {("a", "b"): -1800.0}
    assert means(log, PerfConfig("throughput", "higher")) == {("a", "b"): 1800.0}


def test_throughput_without_timestamps_is_config_error():
    log = parse("case_id,activity\nc1,a\n")
    with pytest.raises(ConfigError):
        extract_variants(log, PerfConfig("throughput"))


def test_missing_performance_values_list_cases():
    log = parse("case_id,activity,performance\nc1,a,1\nc2,a,\n")
    with pytest.raises(DataError, match="c2"):
        extract_variants(log, PerfConfig("column"))


def test_missing_performance_error_names_the_count_and_the_first_cases():
    log = parse("case_id,activity\n" + "".join(f"c{i:03d},a\n" for i in range(99, -1, -1)))
    with pytest.raises(DataError) as caught:
        extract_variants(log, PerfConfig("column"))
    assert str(caught.value) == "performance value missing for 100 case(s): c000, c001, c002, c003, c004, ..."


def oracle_means(log, perf):
    """The per-case rule, kept plain: each case's column value or
    first-to-last seconds, negated per case for "lower", then fsum means."""
    by_variant = {}
    for trace in log.traces.values():
        if perf.mode == "column":
            value = trace.performance
        else:
            value = (trace.order_keys[-1] - trace.order_keys[0]).total_seconds()
        by_variant.setdefault(trace.variant, []).append(-value if perf.direction == "lower" else value)
    return {v: math.fsum(values) / len(values) for v, values in by_variant.items()}


@given(
    cases=st.lists(
        st.tuples(
            st.sampled_from([("a",), ("a", "b"), ("b", "a", "c")]),
            st.lists(st.integers(0, 3), min_size=2, max_size=2),  # seconds between events, 0 allowed
            st.floats(-1e6, 1e6),
        ),
        min_size=1,
        max_size=12,
    ),
    mode=st.sampled_from(["column", "throughput"]),
    direction=st.sampled_from(["higher", "lower"]),
)
@example(cases=[(("a",), [0, 0], 5.0)], mode="throughput", direction="lower")  # the mean is 0.0, not -0.0
@settings(max_examples=300, deadline=None)
def test_variant_means_equal_the_per_case_oracle(cases, mode, direction):
    start = datetime(2024, 1, 1)
    traces = {}
    for i, (variant, gaps, value) in enumerate(cases):
        seconds = [0, *itertools.accumulate(gaps)][: len(variant)]
        keys = tuple(start + timedelta(seconds=s) for s in seconds)
        traces[f"c{i}"] = Trace(f"c{i}", variant, keys, value)
    log = EventLog(traces)
    perf = PerfConfig(mode, direction)
    # repr tells -0.0 from 0.0, which == does not.
    assert [(v, repr(m)) for v, m in means(log, perf).items()] == [
        (v, repr(m)) for v, m in sorted(oracle_means(log, perf).items())
    ]


def test_perf_config_resolves_its_direction_when_built():
    assert PerfConfig().direction == "higher"
    assert PerfConfig("throughput").direction == "lower"
    assert PerfConfig("throughput", "higher").direction == "higher"
    assert PerfConfig("throughput") == PerfConfig("throughput", "lower")


def test_invalid_perf_config_rejected():
    with pytest.raises(ConfigError):
        PerfConfig("speed")
    with pytest.raises(ConfigError):
        PerfConfig("column", "sideways")


def test_round_trip_preserves_variants():
    log = parse(OWN_CSV)
    buffer = io.StringIO()
    write_event_log(log, buffer)
    again = parse(buffer.getvalue())
    assert extract_variants(again).entries == extract_variants(log).entries


def test_carriage_return_in_a_name_is_not_written():
    log = make_log([("0\r0",)])
    with pytest.raises(DataError, match="c1"):
        write_event_log(log, io.StringIO())


@pytest.mark.parametrize("case_id, activity", [("c1", " a"), ("c1", "a\t"), ("c1", "\na"), (" c1", "a")])
def test_name_with_surrounding_whitespace_is_not_written(case_id, activity):
    log = EventLog({case_id: Trace(case_id, (activity,), (0,), None)})
    with pytest.raises(DataError, match="c1.*whitespace"):
        write_event_log(log, io.StringIO())


@pytest.mark.parametrize("case_id, variant", [("", ("a",)), ("c1", ("a", ""))])
def test_empty_name_is_not_written(case_id, variant):
    # The reader refuses an empty case identifier or activity name.
    log = EventLog({case_id: Trace(case_id, variant, tuple(range(len(variant))), None)})
    with pytest.raises(DataError, match=f"case {case_id!r}: an empty case id or activity"):
        write_event_log(log, io.StringIO())


def test_events_are_built_from_the_columns():
    trace = parse("case_id,activity\nc1,a\nc1,b\n").traces["c1"]
    assert trace.order_keys == (2, 3)
    assert trace.events == (Event("c1", "a", 2), Event("c1", "b", 3))


class _TupleSubclass(tuple):
    pass


@pytest.mark.parametrize("container", [list, _TupleSubclass])
def test_trace_stores_plain_tuples(container):
    variant, keys = container(["a", "b"]), container([4, 5])
    trace = Trace("c1", variant, keys)
    assert type(trace.variant) is tuple and type(trace.order_keys) is tuple
    assert trace.variant == tuple(variant) and trace.order_keys == tuple(keys)


def test_trace_columns_of_different_lengths_are_rejected():
    with pytest.raises(DataError, match="c1.*2 activities but 1 order keys"):
        Trace("c1", ("a", "b"), (0,))


def test_malformed_csv_reports_line():
    with pytest.raises(DataError, match="line 4"):
        parse("case_id,activity\nc1,a\nc2,b\nc3,0\r0\n")


# Names may hold anything a CSV field can carry except a carriage return;
# surrounding whitespace is trimmed on parse, so generated names have none.
csv_names = st.text(
    st.sampled_from(',"\n') | st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"),
    min_size=1,
    max_size=5,
).filter(lambda name: name == name.strip())


@st.composite
def event_logs(draw):
    with_time = draw(st.booleans())
    traces = {}
    for case_id in draw(st.lists(csv_names, min_size=1, max_size=4, unique=True)):
        activities = draw(st.lists(csv_names, min_size=1, max_size=4))
        n = len(activities)
        keys = sorted(draw(st.lists(st.datetimes(), min_size=n, max_size=n))) if with_time else range(n)
        performance = draw(st.none() | st.floats(allow_nan=False, allow_infinity=False))
        traces[case_id] = Trace(case_id, tuple(activities), tuple(keys), performance)
    return EventLog(traces)


def _cases(log):
    return {cid: (t.variant, t.performance) for cid, t in log.traces.items()}


@given(log=event_logs())
@settings(max_examples=200, deadline=None)
def test_csv_round_trip_keeps_variants_and_performance(log):
    buffer = io.StringIO()
    write_event_log(log, buffer)
    assert _cases(parse(buffer.getvalue())) == _cases(log)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "log.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            write_event_log(log, handle)
        assert _cases(read_event_log(path)) == _cases(log)


fuzz_cells = st.sampled_from(
    ["\0", '"', "\r", "nan", "1e999", "2024-01-01T09:00:00", "2024-01-01T09:00:00+02:00", "1.5", ""]
) | st.text(max_size=6)
fuzz_headers = st.sampled_from(
    ["case_id,activity", "case_id,activity,timestamp", "case_id,activity,performance",
     "case_id,activity,timestamp,performance"]
)


@st.composite
def fuzz_texts(draw):
    if draw(st.booleans()):
        return draw(st.text())
    header = draw(fuzz_headers)
    width = header.count(",") + 1
    rows = draw(st.lists(st.lists(fuzz_cells, min_size=width - 1, max_size=width + 1), max_size=6))
    return draw(st.sampled_from(["\n", "\r\n"])).join([header, *(",".join(row) for row in rows)])


@given(text=fuzz_texts())
@settings(max_examples=400, deadline=None)
def test_arbitrary_text_parses_or_raises_a_package_error(text):
    try:
        log = parse(text)
    except ExecbenchError:
        return
    assert isinstance(log, EventLog)


variant_lists = st.lists(
    st.lists(st.sampled_from("abcde"), min_size=1, max_size=6).map(tuple),
    min_size=1,
    max_size=8,
)


@given(variants=variant_lists, freqs=st.data())
@settings(max_examples=100, deadline=None)
def test_frequencies_sum_to_case_count(variants, freqs):
    counts = freqs.draw(
        st.lists(st.integers(1, 4), min_size=len(variants), max_size=len(variants))
    )
    log = make_log(variants, freqs=counts)
    idx = extract_variants(log)
    assert sum(e.frequency for e in idx.entries.values()) == len(log)
    assert {v: e.frequency for v, e in idx.entries.items()} == Counter(t.variant for t in log.traces.values())


@given(variants=variant_lists)
@settings(max_examples=50, deadline=None)
def test_direction_flag_negates_exactly(variants):
    log = make_log(variants, performance=[float(len(v)) for v in variants])
    higher = means(log, PerfConfig("column", "higher"))
    lower = means(log, PerfConfig("column", "lower"))
    assert {k: -v for k, v in higher.items()} == lower


def oracle_parse(text):
    """The row-tuple parser, kept plain: each case's (order key, row number,
    activity) rows sorted as tuples.  Returns {case: (variant, order keys)},
    or the id of the first case whose keys mix naive and offset-aware values."""
    header, *rows = csv.reader(io.StringIO(text))
    by_case = {}
    for row_number, row in enumerate(rows, start=2):
        key = row_number
        if "timestamp" in header:
            raw = row[2].strip()
            if raw.endswith(("Z", "z")):
                raw = raw[:-1] + "+00:00"
            key = datetime.fromisoformat(raw)
        by_case.setdefault(row[0], []).append((key, row_number, row[1]))
    cases = {}
    for case_id, case_rows in by_case.items():
        try:
            case_rows.sort(key=lambda r: (r[0], r[1]))
        except TypeError:
            return case_id
        cases[case_id] = (tuple(a for _, _, a in case_rows), tuple(k for k, _, _ in case_rows))
    return cases


# Few distinct instants, so equal keys are common; each written in one of
# the spellings the reader accepts.
instants = st.sampled_from(
    ["2024-01-01T09:00:00", "2024-01-01T09:00:30", "2024-01-01T10:00:00", "2024-01-02", "20240102T093000"]
)
naive = ["{}", " {} ", "{}.250000", "{}.5"]
aware = ["{}Z", "{}z", "{}+02:00", "{}Z ", "{}+0200"]


@st.composite
def interleaved_logs(draw):
    with_time = draw(st.booleans())
    # Mostly one kind of key per log; a mix of both raises for any case that holds both.
    spellings = st.sampled_from(draw(st.sampled_from([naive, aware, naive + aware])))
    lines = ["case_id,activity,timestamp" if with_time else "case_id,activity"]
    for _ in range(draw(st.integers(0, 12))):
        cells = [draw(st.sampled_from(["c1", "c2", "c3"])), draw(st.sampled_from("abcd"))]
        if with_time:
            instant, spelling = draw(instants), draw(spellings)
            if "T" not in instant and spelling != "{}":
                instant += "T00:00:00"  # a date alone takes no offset or fraction
            cells.append(spelling.format(instant))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _strict(keys):
    return tuple(repr(k) for k in keys)  # tells UTC from other offsets of the same instant


@given(text=interleaved_logs())
@settings(max_examples=400, deadline=None)
def test_parser_equals_the_row_sort_oracle(text):
    expected = oracle_parse(text)
    if isinstance(expected, str):
        with pytest.raises(DataError, match=f"case {expected!r}: cannot order events"):
            parse(text)
        return
    log = parse(text)
    assert list(log.traces) == list(expected)
    for case_id, (variant, keys) in expected.items():
        assert log.traces[case_id].variant == variant
        assert _strict(log.traces[case_id].order_keys) == _strict(keys)


def oracle_row_loop(text, schema=None):
    """The parser's former row loop, kept plain: every row looks its case up
    and runs every check, with the collector left alone and no name or
    variant shared.  The reference for the parser's traces, order keys and
    performance, and for which error a faulty log reports first."""
    schema = schema or SchemaConfig()
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
        if header is None:
            raise SchemaError("input is empty: missing header row")
        header = [h.strip() for h in header]

        def column(name, mandatory):
            if name in header:
                return header.index(name)
            if mandatory:
                raise SchemaError(f"missing required column {name!r}")
            return None

        case_idx = column(schema.case_col, mandatory=True)
        act_idx = column(schema.activity_col, mandatory=True)
        time_idx = column(schema.time_col, mandatory=False)
        perf_idx = column(schema.perf_col, mandatory=False)
        columns_by_case, perf_by_case = {}, {}
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
            order_key = row_number
            if time_idx is not None:
                try:
                    order_key = datetime.fromisoformat(row[time_idx])
                except ValueError:
                    order_key = _parse_timestamp(row[time_idx], row_number)
            columns = columns_by_case.setdefault(case_id, ([], []))
            columns[0].append(activity)
            columns[1].append(order_key)
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
                    raise DataError(f"case {case_id!r}: conflicting performance values {known} and {value}")
                perf_by_case[case_id] = value
    except csv.Error as err:
        raise DataError(f"line {reader.line_num}: malformed CSV: {err}") from None
    traces = {}
    for case_id, (activities, keys) in columns_by_case.items():
        try:
            if not all(map(operator.le, keys, keys[1:])):
                order = sorted(range(len(keys)), key=keys.__getitem__)
                activities = [activities[i] for i in order]
                keys = [keys[i] for i in order]
        except TypeError:
            raise DataError(
                f"case {case_id!r}: cannot order events, timestamps mix naive and offset-aware values"
            ) from None
        traces[case_id] = Trace(case_id, tuple(activities), tuple(keys), perf_by_case.get(case_id))
    return EventLog(traces)


def _outcome(parser, text):
    """A parse's traces in order, or its error's type and message."""
    try:
        log = parser(text)
    except ExecbenchError as err:
        return type(err), str(err)
    return [(cid, t.variant, _strict(t.order_keys), t.performance) for cid, t in log.traces.items()]


@st.composite
def run_logs(draw):
    """Rows in runs of one case, as logs usually come: a case may recur after
    others, under a padded id, and a performance cell may repeat, change or
    turn bad within a run."""
    with_time, with_perf = draw(st.booleans()), draw(st.booleans())
    lines = [",".join(["case_id", "activity"] + ["timestamp"] * with_time + ["performance"] * with_perf)]
    perf_cells = st.sampled_from(["", "1", "1.0", " 1", "1.0 ", "2", "2.0", "nan", "x"])
    for _ in range(draw(st.integers(0, 5))):
        case, perf = draw(st.sampled_from(["c1", " c1", "c2", "c3 ", " "])), draw(perf_cells)
        for _ in range(draw(st.integers(1, 4))):
            if draw(st.integers(0, 5)) == 0:
                perf = draw(perf_cells)
            cells = [case, draw(st.sampled_from(["review", " review", "approve", ""]))]
            cells += [draw(instants)] * with_time + [perf] * with_perf
            lines.append(",".join(cells))
            if draw(st.integers(0, 7)) == 0:
                lines.append("")
    return "\n".join(lines) + "\n"


@given(text=fuzz_texts() | interleaved_logs() | run_logs())
@settings(max_examples=600, deadline=None)
def test_parser_equals_the_former_row_loop(text):
    assert _outcome(parse, text) == _outcome(oracle_row_loop, text)


PERF_HEADER = "case_id,activity,performance\n"


@pytest.mark.parametrize(
    "rows, expected",
    [
        # One run: a cell repeats, is re-spelt, repeats again, then conflicts.
        ("c1,a,2\nc1,b,2\nc1,c,2.0\nc1,d, 2\nc1,e, 2\nc1,f,3\n",
         "case 'c1': conflicting performance values 2.0 and 3.0"),
        ("c1,a,2\nc1,b,2\nc1,c,2.0\nc1,d, 2\nc1,e, 2\n", [2.0]),
        # The case comes back after another case, under another spelling.
        ("c1,a,2\nc1,b,2\nc2,a,5\nc1,c,2.0\nc1,d,2.0\n", [2.0, 5.0]),
        ("c1,a,2\nc1,b,2\nc2,a,5\nc1,c,2.5\n", "case 'c1': conflicting performance values 2.0 and 2.5"),
        # The next case's run starts with no memo, also for the same cell.
        ("c1,a,2\nc2,a,2\nc2,b,2\n", [2.0, 2.0]),
        # A blank row inside a run, then a changed cell.
        ("c1,a,2\n\nc1,b,2\nc1,c,4\n", "case 'c1': conflicting performance values 2.0 and 4.0"),
        # A blank cell inside a run matches no memo, and the next cell is checked.
        ("c1,a,2\nc1,b,\nc1,c,\nc1,d,x\n", "row 5: unparseable performance value 'x'"),
        ("c1,a,\nc1,b,\nc1,c,7\n", [7.0]),
        # An all-space activity cell raises at its first row.
        ("c1,a,1\nc1,  ,1\nc2,  ,1\n", "row 3: empty activity name"),
    ],
)
def test_the_row_memos_equal_the_former_row_loop(rows, expected):
    outcome = _outcome(parse, PERF_HEADER + rows)
    assert outcome == _outcome(oracle_row_loop, PERF_HEADER + rows)
    if isinstance(expected, str):
        assert outcome == (DataError, expected)
    else:
        assert [performance for *_, performance in outcome] == expected


def test_the_last_accepted_spelling_of_a_performance_value_is_kept():
    # 0 and -0.0 are equal, so neither conflicts; the last one parsed is stored.
    for cells, sign in ((["0", "-0.0"], -1.0), (["0", "-0.0", "0"], 1.0), (["-0.0", "-0.0", "0", "0"], 1.0)):
        text = PERF_HEADER + "".join(f"c1,a,{cell}\n" for cell in cells)
        for parser in (parse, oracle_row_loop):
            assert math.copysign(1.0, parser(text).traces["c1"].performance) == sign, (cells, parser)


def test_spellings_of_one_activity_share_one_name():
    log = parse("case_id,activity\nc1,review\nc1, review\nc2,review \nc2,review\nc1,review \n")
    names = [name for trace in log.traces.values() for name in trace.variant]
    assert names == ["review"] * 5
    assert all(name is names[0] for name in names)


def test_equal_names_and_variants_in_one_log_are_shared():
    log = parse("case_id,activity\nc1,review\nc1,approve\nc2,review\nc2,approve\nc3, approve\n")
    first, second, third = (log.traces[c].variant for c in ("c1", "c2", "c3"))
    assert first == second and first is second
    assert third == ("approve",) and third[0] is first[1]


def _lines_seen_by(text, states):
    """``text``'s lines, noting whether the collector runs as each is read."""
    for line in io.StringIO(text):
        states.append(gc.isenabled())
        yield line


faulty_texts = [
    pytest.param("case_id,timestamp\nc1,2024-01-01\n", SchemaError, id="schema"),
    pytest.param("case_id,activity\nc1, \n", DataError, id="data"),
    pytest.param("case_id,activity\nc1,a\nc3,0\r0\n", DataError, id="malformed-csv"),
]


@pytest.mark.parametrize("text, error", [pytest.param(OWN_CSV, None, id="valid"), *faulty_texts])
def test_the_collector_is_paused_for_the_parse_and_then_restored(text, error):
    assert gc.isenabled()
    states = []
    if error is None:
        parse_event_log(_lines_seen_by(text, states))
    else:
        with pytest.raises(error):
            parse_event_log(_lines_seen_by(text, states))
    assert states and not any(states)
    assert gc.isenabled()


def test_the_collector_is_restored_after_a_log_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("case_id,activity\nc1,café\n".encode("latin-1"))
    with pytest.raises(DataError):
        read_event_log(str(path))
    assert gc.isenabled()


@pytest.mark.parametrize("text, error", [pytest.param(OWN_CSV, None, id="valid"), *faulty_texts])
def test_a_collector_the_caller_disabled_stays_disabled(text, error):
    gc.disable()
    try:
        if error is None:
            parse(text)
        else:
            with pytest.raises(error):
                parse(text)
        assert not gc.isenabled()
    finally:
        gc.enable()


@given(
    rows=st.integers(0, 1500),
    mark=st.booleans(),
    bad=st.sampled_from([b"\xe9", b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"]),
    tail=st.sampled_from([b",x\n", b""]),
)
@settings(max_examples=40, deadline=None)
def test_a_log_that_is_not_utf8_names_the_path_and_the_byte_offset(rows, mark, bad, tail):
    # Two-byte names shift where the decoder's chunks end; the bad bytes may
    # sit anywhere from the first chunk to the end of the file.
    data = b"\xef\xbb\xbf" * mark + "case_id,activity\n".encode()
    data += "".join(f"c{i},café\n" for i in range(rows)).encode() + b"c0," + bad + tail
    try:
        data.decode("utf-8")  # a byte-order mark is valid UTF-8, so offsets stay file offsets
    except UnicodeDecodeError as err:
        offset, byte = err.start, data[err.start]
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "log.csv")
        with open(path, "wb") as handle:
            handle.write(data)
        message = f"{path}: not UTF-8 at byte offset {offset} (byte 0x{byte:02x}: "
        with pytest.raises(DataError, match=re.escape(message)):
            read_event_log(path)


def test_trace_without_events_is_rejected():
    with pytest.raises(DataError, match="'c7' has no events"):
        Trace("c7", (), ())


def test_numpy_performance_is_stored_as_a_float_and_round_trips():
    traces = [Trace("c1", ("a",), (0,), np.float64(1.5)), Trace("c2", ("b",), (1,), np.int64(2))]
    log = EventLog({t.case_id: t for t in traces})
    assert [type(t.performance) for t in log.traces.values()] == [float, float]
    buffer = io.StringIO()
    write_event_log(log, buffer)
    assert {cid: t.performance for cid, t in parse(buffer.getvalue()).traces.items()} == {"c1": 1.5, "c2": 2.0}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400, "1.5", True, np.bool_(True)])
def test_trace_performance_must_be_a_finite_number(value):
    with pytest.raises(DataError, match="'c7': performance must be a finite number"):
        Trace("c7", ("a",), (0,), value)


def test_byte_order_mark_is_skipped(tmp_path):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(OWN_CSV, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + OWN_CSV.encode("utf-8"))
    log = read_event_log(str(marked))
    assert list(log.traces.items()) == list(read_event_log(str(plain)).traces.items())
    assert log.alphabet == {"a", "c", "d", "e", "f", "g"}


@given(variants=variant_lists, freqs=st.data())
@settings(max_examples=100, deadline=None)
def test_variant_codes_decode_to_the_entries(variants, freqs):
    counts = freqs.draw(st.lists(st.integers(1, 4), min_size=len(variants), max_size=len(variants)))
    index = extract_variants(make_log(variants, freqs=counts))
    assert list(index.entries) == sorted(index.entries)
    assert index.activities == tuple(sorted({a for v in variants for a in v}))
    tokens, lengths, freqs = index.codes
    assert tokens.shape == (len(index.entries), max(len(v) for v in index.entries))
    decoded = [tuple(index.activities[c] for c in row[:n]) for row, n in zip(tokens.tolist(), lengths.tolist())]
    assert decoded == list(index.entries)
    assert all(c == -1 for row, n in zip(tokens.tolist(), lengths.tolist()) for c in row[n:])
    assert freqs.tolist() == [e.frequency for e in index.entries.values()]


# ------------------------------------------------ case summaries


@st.composite
def valued_logs(draw):
    """Interleaved cases, each with one performance value that its rows
    repeat, leave blank or now and then contradict, with or without a
    timestamp column."""
    with_time = draw(st.booleans())
    spellings = st.sampled_from(draw(st.sampled_from([naive, aware])))
    values = {case: draw(st.sampled_from(["", "1", "2.5", "-0.0", "1e308", "x"])) for case in ("c1", "c2", "c3")}
    lines = ["case_id,activity,performance,timestamp" if with_time else "case_id,activity,performance"]
    for _ in range(draw(st.integers(0, 12))):
        case = draw(st.sampled_from(["c1", "c2", "c3"]))
        cell = draw(st.sampled_from([values[case], values[case], "", "3"]))
        cells = [case, draw(st.sampled_from("abc")), cell]
        if with_time:
            instant, spelling = draw(instants), draw(spellings)
            if "T" not in instant and spelling != "{}":
                instant += "T00:00:00"
            cells.append(spelling.format(instant))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


PERF_CONFIGS = [None, PerfConfig("column", "higher"), PerfConfig("column", "lower"), PerfConfig("throughput")]


def _index_outcome(build):
    """The index's entries with exact means, or the error's type and message."""
    try:
        index = build()
    except ExecbenchError as err:
        return type(err), str(err)
    return [(v, e.frequency, repr(e.mean_performance)) for v, e in index.entries.items()]


@given(text=valued_logs() | run_logs() | interleaved_logs(), mark=st.booleans())
@settings(max_examples=300, deadline=None)
@example(text="case_id,activity,performance\nc1,a,1e308\nc2,a,1e308\n", mark=False)
@example(text="case_id,activity\nc1,a\n", mark=True)
def test_the_case_summary_reader_indexes_what_the_event_log_reader_indexes(text, mark):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "log.csv")
        with open(path, "wb") as handle:
            handle.write(b"\xef\xbb\xbf" * mark + text.encode("utf-8"))
        for perf in PERF_CONFIGS:
            expected = _index_outcome(lambda: extract_variants(read_event_log(path), perf))
            assert _index_outcome(lambda: index_cases(read_cases(path), perf)) == expected


def test_a_case_summary_holds_the_variant_the_value_and_the_seconds(tmp_path):
    timed, untimed = tmp_path / "timed.csv", tmp_path / "untimed.csv"
    timed.write_text(
        "case_id,activity,timestamp,performance\n"
        "c2,b,2024-01-01T09:01:30,\nc1,a,2024-01-01T09:00:00,4\nc2,a,2024-01-01T09:00:00,\n",
        encoding="utf-8",
    )
    untimed.write_text("case_id,activity\nc1,b\nc1,a\n", encoding="utf-8")
    assert read_cases(str(timed)) == [("c2", ("a", "b"), None, 90.0), ("c1", ("a",), 4.0, 0.0)]
    assert read_cases(str(untimed)) == [("c1", ("b", "a"), None, None)]
