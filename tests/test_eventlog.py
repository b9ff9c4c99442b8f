"""Parsing, variant extraction and performance normalization."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BENCHMARK_CSV, OWN_CSV, make_log
from execbench.errors import ConfigError, DataError, SchemaError
from execbench.eventlog import (
    PerfConfig,
    SchemaConfig,
    extract_variants,
    parse_event_log,
    trace_performance,
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


def test_custom_schema_names():
    csv = "Case,Step,When\n7,start,2024-05-05T01:00:00\n"
    schema = SchemaConfig(case_col="Case", activity_col="Step", time_col="When")
    log = parse(csv, schema)
    assert log.traces["7"].variant == ("start",)


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
    assert idx.total_traces == 5


def test_mean_performance_requires_all_traces():
    log = make_log([("a",), ("a",)])
    values = {"c1": 4.0}  # c2 missing
    idx = extract_variants(log, values)
    assert idx.entries[("a",)].mean_performance is None
    idx = extract_variants(log, {"c1": 4.0, "c2": 6.0})
    assert idx.entries[("a",)].mean_performance == 5.0


def test_performance_column_identity_and_negation():
    log = parse("case_id,activity,performance\nc1,a,10\n")
    assert trace_performance(log, PerfConfig("column", "higher")) == {"c1": 10.0}
    assert trace_performance(log, PerfConfig("column", "lower")) == {"c1": -10.0}


def test_throughput_defaults_to_lower_is_better():
    csv = (
        "case_id,activity,timestamp\n"
        "c1,a,2024-01-01T09:00:00\n"
        "c1,b,2024-01-01T09:30:00\n"
    )
    log = parse(csv)
    assert trace_performance(log, PerfConfig("throughput")) == {"c1": -1800.0}
    assert trace_performance(log, PerfConfig("throughput", "higher")) == {"c1": 1800.0}


def test_throughput_without_timestamps_is_config_error():
    log = parse("case_id,activity\nc1,a\n")
    with pytest.raises(ConfigError):
        trace_performance(log, PerfConfig("throughput"))


def test_missing_performance_values_list_cases():
    log = parse("case_id,activity,performance\nc1,a,1\nc2,a,\n")
    with pytest.raises(DataError, match="c2"):
        trace_performance(log, PerfConfig("column"))


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
    assert idx.total_traces == len(log)
    seen = [cid for e in idx.entries.values() for cid in e.trace_ids]
    assert sorted(seen) == sorted(log.traces)


@given(variants=variant_lists)
@settings(max_examples=50, deadline=None)
def test_direction_flag_negates_exactly(variants):
    log = make_log(variants, performance=[float(len(v)) for v in variants])
    higher = trace_performance(log, PerfConfig("column", "higher"))
    lower = trace_performance(log, PerfConfig("column", "lower"))
    assert {k: -v for k, v in higher.items()} == lower
