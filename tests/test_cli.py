"""Command-line entry point: option defaults, early option checks and the files each command writes."""

import contextlib
import csv
import enum
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from collections import OrderedDict
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import BENCHMARK_CSV, OWN_CSV
import execbench
from execbench import cli, eventlog, footprint, proctree
from execbench.cli import _change_payload, _experiment_config, _resolve_performance, build_parser, main
from execbench.errors import ExecbenchWarning, LogSimilarityWarning, TruncationWarning
from execbench.eventlog import EventLog, Trace, write_event_log
from execbench.experiment import ExperimentConfig, generate_pair
from execbench.scoring import BenchmarkConfig, benchmark


def test_eval_defaults_are_the_package_defaults():
    assert _experiment_config(build_parser().parse_args(["eval"])) == ExperimentConfig()


@pytest.mark.parametrize(
    "argv", [[], ["nonsense"], ["benchmark"], ["benchmark", "a.csv", "b.csv", "--format", "xml"]]
)
def test_a_usage_error_exits_with_1(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")


def test_invalid_eval_options_exit_with_config_error(capsys):
    assert main(["eval", "--pairs", "2", "--traces", "30", "--leaves-min", "30", "--leaves-max", "18"]) == 2
    assert "leaves_range" in capsys.readouterr().err
    assert main(["eval", "--pairs", "2", "--traces", "30", "--seed", "-1"]) == 2
    assert "master_seed" in capsys.readouterr().err


def test_eval_refuses_more_traces_than_one_stream_word_before_any_play_out(capsys, monkeypatch):
    def no_play_out(*args):
        raise AssertionError("a play-out started")

    monkeypatch.setattr(proctree, "_stream_states", no_play_out)
    assert main(["eval", "--pairs", "1", "--traces", "5000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n_traces" in captured.err and "2**32" in captured.err


def test_eval_refuses_mutation_ranges_that_its_smallest_tree_cannot_take(capsys):
    options = ["--leaves-min", "2", "--leaves-max", "2", "--replacements-min", "3", "--replacements-max", "3"]
    assert main(["eval", "--pairs", "2", "--traces", "20", *options]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "replacements_range" in captured.err and "leaves_range" in captured.err


def test_benchmark_options_are_checked_before_reading_logs(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    assert main(["benchmark", missing, missing, "--top", "-1"]) == 2
    assert "top" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["benchmark", "footprint"])
def test_clashing_or_padded_column_options_exit_with_config_error(tmp_path, capsys, command):
    own, bench = _worked_example_logs(tmp_path)
    logs = [own, bench] if command == "benchmark" else [own]
    assert main([command, *logs, "--case-col", "activity", "--activity-col", "activity"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "case_col" in err and "activity_col" in err
    assert main([command, *logs, "--time-col", " timestamp"]) == 2
    assert "time_col" in capsys.readouterr().err


def test_footprint_thresholds_are_checked_before_reading_the_log(tmp_path, capsys):
    assert main(["footprint", str(tmp_path / "missing.csv"), "--exc", "2"]) == 2
    assert "exc_threshold" in capsys.readouterr().err


def test_footprint_writes_the_three_matrices(tmp_path):
    log = tmp_path / "own.csv"
    log.write_text(OWN_CSV, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["footprint", str(log), "--out", str(out)]) == 0
    header = ",a,c,d,e,f,g\n"
    assert (out / "relations.csv").read_text(encoding="utf-8") == header + (
        "a,#,#,->,->,->,->\n"
        "c,#,#,->,->,->,->\n"
        "d,<-,<-,#,->,->,->\n"
        "e,<-,<-,<-,#,#,->\n"
        "f,<-,<-,<-,#,#,->\n"
        "g,<-,<-,<-,<-,<-,#\n"
    )
    assert (out / "exclusiveness.csv").read_text(encoding="utf-8") == header + (
        "a,0.000000,1.000000,0.000000,0.500000,0.500000,0.000000\n"
        "c,1.000000,0.000000,0.000000,0.500000,0.500000,0.000000\n"
        "d,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000\n"
        "e,0.500000,0.500000,0.000000,0.000000,1.000000,0.000000\n"
        "f,0.500000,0.500000,0.000000,1.000000,0.000000,0.000000\n"
        "g,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000\n"
    )
    # Blank where a pair never co-occurs (a/c, e/f, and every activity that never repeats).
    assert (out / "interleaving.csv").read_text(encoding="utf-8") == header + (
        "a,,,0.000000,0.000000,0.000000,0.000000\n"
        "c,,,0.000000,0.000000,0.000000,0.000000\n"
        "d,0.000000,0.000000,,0.000000,0.000000,0.000000\n"
        "e,0.000000,0.000000,0.000000,,,0.000000\n"
        "f,0.000000,0.000000,0.000000,,,0.000000\n"
        "g,0.000000,0.000000,0.000000,0.000000,0.000000,\n"
    )


def test_footprint_counts_order_statistics_once(tmp_path, monkeypatch, capsys):
    log = tmp_path / "own.csv"
    log.write_text(OWN_CSV, encoding="utf-8")
    calls = []
    original = footprint.order_stats
    monkeypatch.setattr(
        footprint, "order_stats", lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs)
    )
    assert main(["footprint", str(log)]) == 0
    assert len(calls) == 1
    assert "# relations" in capsys.readouterr().out


def test_footprint_reads_a_log_with_a_byte_order_mark(tmp_path, capsys):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(OWN_CSV, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + OWN_CSV.encode("utf-8"))
    assert main(["footprint", str(plain)]) == 0
    expected = capsys.readouterr().out
    assert main(["footprint", str(marked)]) == 0
    assert capsys.readouterr().out == expected


def _worked_example_logs(tmp_path):
    own, bench = tmp_path / "own.csv", tmp_path / "benchmark.csv"
    own.write_text(OWN_CSV, encoding="utf-8")
    bench.write_text(BENCHMARK_CSV, encoding="utf-8")
    return str(own), str(bench)


def test_benchmark_out_writes_the_json_report_and_the_csv(tmp_path, capsys):
    own, bench = _worked_example_logs(tmp_path)
    out = tmp_path / "out"
    assert main(["benchmark", own, bench, "--format", "json", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == ["report.csv", "report.json"]
    assert (out / "report.json").read_text(encoding="utf-8") == stdout
    assert len(json.loads(stdout)["changes"]) == 11
    assert main(["benchmark", own, bench, "--format", "csv"]) == 0
    assert (out / "report.csv").read_text(encoding="utf-8") == capsys.readouterr().out


REPORT_KEYS = ["config", "own_alphabet", "benchmark_alphabet", "shared_alphabet", "alphabet_jaccard", "changes"]
CHANGE_KEYS = ["replacements", "feasibility", "performance_impact", "affected_traces", "transitive", "alignments"]
ALIGNMENT_KEYS = [
    "original", "modified", "matched", "similarity", "frequency", "tie_count",
    "own_performance", "benchmark_performance",
]


CONFIG_KEYS = [
    "own", "benchmark", "exc_threshold", "int_threshold", "max_change_size", "min_feasibility", "top", "performance",
]


def test_benchmark_report_keys_are_pinned_in_order(tmp_path, capsys):
    own, bench = _worked_example_logs(tmp_path)
    assert main(["benchmark", own, bench, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == REPORT_KEYS
    assert list(report["config"]) == CONFIG_KEYS
    assert [list(c) for c in report["changes"]] == [CHANGE_KEYS] * len(report["changes"])
    alignments = [a for c in report["changes"] for a in c["alignments"]]
    assert alignments and [list(a) for a in alignments] == [ALIGNMENT_KEYS] * len(alignments)


def test_benchmark_encodes_the_json_report_once(tmp_path, monkeypatch, capsys):
    own, bench = _worked_example_logs(tmp_path)
    calls = []
    dump = cli._dump_json

    def counted(obj):
        calls.append(obj)
        return dump(obj)

    monkeypatch.setattr(cli, "_dump_json", counted)
    assert main(["benchmark", own, bench, "--format", "json", "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1
    assert (tmp_path / "out" / "report.json").read_text(encoding="utf-8") == capsys.readouterr().out


class _Text(str):
    pass


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


_json_text = st.text() | st.text(st.sampled_from("a\"\\/\x00\x1f\x7f\n\u00e9\u2028\ud800\U0001f600"))
_json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers() | st.integers(min_value=-(2**100), max_value=2**100),
    st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    _json_text,
    _json_text.map(_Text),
    st.sampled_from(_Level),
)
_string_lists = st.lists(_json_text | st.sampled_from([None, True]), max_size=4)
_json_values = st.recursive(
    _json_leaves | _string_lists | _string_lists.map(tuple),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_json_text, inner, max_size=4),
        st.dictionaries(_json_text, inner, max_size=4).map(OrderedDict),
    ),
    max_leaves=20,
)
# One object twice at one depth and once at another, as the report shares
# its variant tuples between alignments.
_shared_values = st.builds(
    lambda shared, other: [shared, other, shared, {"deeper": [shared]}], _json_values, _json_values
)


@given(value=_json_values | _shared_values)
@example(value=([],))
@example(value=["a", None, "b", True])
@example(value=(("x", "y"),) * 2 + ([("x", "y")],))
@settings(max_examples=300, deadline=None)
def test_dump_json_writes_what_json_dumps_writes(value):
    """The report writer equals ``json.dumps(value, indent=2)`` on any JSON
    value whose dict keys are ``str``; ``json`` coerces other keys, the
    writer refuses them."""
    assert cli._dump_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [{"a", "b"}, ["a", {"b"}], {1: "a"}, {"a": [{None: 1}]}])
def test_dump_json_refuses_a_set_and_a_key_that_is_not_str(value):
    with pytest.raises(TypeError):
        cli._dump_json(value)


@pytest.mark.parametrize("command", ["benchmark", "footprint"])
def test_a_log_that_is_not_utf8_exits_with_a_data_error(tmp_path, capsys, command):
    log = tmp_path / "latin1.csv"
    log.write_bytes("case_id,activity\nc1,café\n".encode("latin-1"))
    paths = [str(log)] * (2 if command == "benchmark" else 1)
    assert main([command, *paths]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {log}: not UTF-8 at byte offset 23 (byte 0xe9: invalid continuation byte)\n"
    )


def test_benchmark_csv_and_table_formats(tmp_path, capsys):
    own, bench = _worked_example_logs(tmp_path)
    assert main(["benchmark", own, bench, "--format", "csv", "--top", "2"]) == 0
    assert capsys.readouterr().out == (
        "rank,replacements,feasibility,performance_impact,affected_traces,transitive\n"
        "1,a -> b; f -> e,1.0,,3,False\n"
        "2,a -> c; f -> e,1.0,,3,False\n"
    )
    assert main(["benchmark", own, bench, "--format", "table", "--top", "2"]) == 0
    assert capsys.readouterr().out == (
        "Replacements    Feasibility        Impact  Traces\n"
        "-------------------------------------------------\n"
        "a -> b; f -> e       1.0000             -       3\n"
        "a -> c; f -> e       1.0000             -       3\n"
    )


def test_benchmark_table_says_when_no_change_is_left(tmp_path, capsys):
    own, bench = _worked_example_logs(tmp_path)
    assert main(["benchmark", own, bench, "--format", "table", "--top", "0"]) == 0
    assert capsys.readouterr().out == "no changes found\n"


@pytest.mark.parametrize(
    "options, echoed",
    [
        ((), None),
        (("--perf-mode", "throughput"), {"mode": "throughput", "direction": "lower"}),
        (("--perf-mode", "throughput", "--perf-direction", "higher"), {"mode": "throughput", "direction": "higher"}),
    ],
)
def test_benchmark_report_echoes_the_resolved_performance_config(tmp_path, capsys, options, echoed):
    own, bench = _worked_example_logs(tmp_path)
    assert main(["benchmark", own, bench, "--format", "json", *options]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["performance"] == echoed
    assert ({c["performance_impact"] is None for c in report["changes"]} == {True}) == (echoed is None)


@pytest.mark.parametrize(
    "options, mode",
    [(("--perf-mode", "none", "--perf-direction", "lower"), "none"), (("--perf-direction", "higher"), "auto")],
)
def test_a_direction_without_a_performance_source_exits_with_config_error(tmp_path, capsys, options, mode):
    # The worked example has no performance column, so auto resolves to none.
    own, bench = _worked_example_logs(tmp_path)
    assert main(["benchmark", own, bench, "--format", "json", *options]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --perf-direction") and f"--perf-mode is {mode}" in captured.err


def test_synth_out_writes_one_directory_per_pair(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["synth", "--pairs", "1", "--traces", "30", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 1 pair(s) under {out}\n"
    assert [p.name for p in out.iterdir()] == ["pair_0000"]
    assert sorted(p.name for p in (out / "pair_0000").iterdir()) == [
        "benchmark_log.csv", "benchmark_tree.json", "ground_truth.json", "own_log.csv", "own_tree.json",
    ]
    truth = json.loads((out / "pair_0000" / "ground_truth.json").read_text(encoding="utf-8"))
    assert sorted(truth) == ["deletions", "insertions", "replacements"]


def test_eval_out_writes_the_report_and_the_summary(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["eval", "--pairs", "1", "--traces", "30", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == ["report.json", "summary.txt"]
    assert (out / "summary.txt").read_text(encoding="utf-8") == stdout
    assert len(json.loads((out / "report.json").read_text(encoding="utf-8"))["pairs"]) == 1


def test_help_describes_the_program(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    text = capsys.readouterr().out
    assert execbench.__doc__.splitlines()[0] in text
    assert "entry point" not in text


def test_a_reader_that_closes_stdout_early_ends_the_run_quietly(tmp_path):
    """The JSON report is larger than a pipe holds, so printing it fails once the reader is gone."""
    _write_logs(tmp_path, *_lab_pair())
    src = str(Path(execbench.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    command = [sys.executable, "-m", "execbench.cli", "benchmark", "own.csv", "benchmark.csv", "--format", "json"]
    with subprocess.Popen(command, cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as run:
        assert run.stdout.readline() == b"{\n"
        run.stdout.close()
        stderr = run.stderr.read().decode()
        assert run.wait(timeout=120) == 0, stderr
    assert "error:" not in stderr
    assert "Error" not in stderr


# ---------------------------------------------------------- whole-run outputs


def _write_logs(directory, own: EventLog, bench: EventLog) -> None:
    for name, log in (("own.csv", own), ("benchmark.csv", bench)):
        with open(Path(directory) / name, "w", encoding="utf-8", newline="") as handle:
            write_event_log(log, handle)


def _lab_pair():
    pair = generate_pair(ExperimentConfig(n_traces=60), 0)
    return pair.own_log, pair.benchmark_log


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# sha256 of the whole output of each command on the lab pair, run with
# relative paths from the directory that holds the logs.
LAB_PAIR_DIGESTS = {
    "benchmark.json": "ee686745068a995f70617008a2a8b4d925b50695318626cff507293c5e40f399",
    "relations.csv": "a9db7f6f1f94a769025cd1e38fd93207b9752c9feac942da966a3c18df78e1f0",
    "exclusiveness.csv": "d337f6a6d87e3c913d55ff3f10c5cbfe84706be6be2161662e4e503bda030f99",
    "interleaving.csv": "dc096a6d810793eba11d106f4cf96dae111592f3341f016c0ee0762370542698",
}


def _footprint_digests(log, out: Path) -> dict[str, str]:
    """sha256 of each matrix that ``execbench footprint log --out out`` writes."""
    assert main(["footprint", str(log), "--out", str(out)]) == 0
    return {name: _sha256((out / name).read_text(encoding="utf-8")) for name in sorted(os.listdir(out))}


def test_lab_pair_outputs_are_pinned(tmp_path, monkeypatch, capsys):
    _write_logs(tmp_path, *_lab_pair())
    monkeypatch.chdir(tmp_path)
    with pytest.warns(TruncationWarning):
        assert main(["benchmark", "own.csv", "benchmark.csv", "--format", "json"]) == 0
    digests = {"benchmark.json": _sha256(capsys.readouterr().out)}
    assert digests | _footprint_digests("own.csv", tmp_path / "matrices") == LAB_PAIR_DIGESTS


def test_the_commands_build_no_trace(tmp_path, monkeypatch, capsys):
    """``benchmark`` and ``footprint`` read each CSV into case summaries and a
    variant index, and give the pinned outputs without a single :class:`Trace`."""
    _write_logs(tmp_path, *_lab_pair())
    monkeypatch.chdir(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("a Trace was built")

    monkeypatch.setattr(eventlog, "Trace", refuse)
    with pytest.warns(TruncationWarning):
        assert main(["benchmark", "own.csv", "benchmark.csv", "--format", "json"]) == 0
    digests = {"benchmark.json": _sha256(capsys.readouterr().out)}
    assert digests | _footprint_digests("own.csv", tmp_path / "matrices") == LAB_PAIR_DIGESTS


def _csv_text(log: EventLog) -> str:
    stream = io.StringIO()
    write_event_log(log, stream)
    return stream.getvalue()


def _run_benchmark(own: EventLog, bench: EventLog, *options: str) -> tuple[int, list | str]:
    """Exit code and ``report["changes"]`` (or stderr) of ``execbench benchmark``
    on the two logs, written as CSV files to a fresh directory."""
    return _run_benchmark_csv(_csv_text(own), _csv_text(bench), *options)


def _run_benchmark_csv(own: str, bench: str, *options: str) -> tuple[int, list | str]:
    """``_run_benchmark`` on two logs given as CSV texts."""
    with tempfile.TemporaryDirectory() as directory:
        for name, text in (("own.csv", own), ("benchmark.csv", bench)):
            (Path(directory) / name).write_text(text, encoding="utf-8", newline="")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore", ExecbenchWarning)
            code = main([
                "benchmark", str(Path(directory) / "own.csv"), str(Path(directory) / "benchmark.csv"),
                "--format", "json", *options,
            ])
    return code, json.loads(out.getvalue())["changes"] if code == 0 else err.getvalue()


def _recased(log: EventLog, order, copies: int = 1) -> EventLog:
    """The log's cases in the given order, each written ``copies`` times under fresh ids."""
    cases = list(log.traces.values())
    traces = {}
    for k in order:
        for _ in range(copies):
            case_id = f"r{len(traces)}"
            traces[case_id] = Trace(case_id, cases[k].variant, cases[k].order_keys, cases[k].performance)
    return EventLog(traces)


def _check_renamed_and_reordered(own: EventLog, bench: EventLog, own_order, bench_order, *options: str) -> None:
    again = _run_benchmark(_recased(own, own_order), _recased(bench, bench_order), *options)
    assert json.dumps(again) == json.dumps(_run_benchmark(own, bench, *options))


UNSCALED = ("original", "modified", "matched", "similarity", "tie_count")


def _check_copied(own: EventLog, bench: EventLog, copies: int, *options: str) -> None:
    """Every case written ``copies`` times scales frequencies and trace counts
    by that factor; nothing a change is ranked or aligned by moves."""
    code, changes = _run_benchmark(own, bench, *options)
    copied_code, copied = _run_benchmark(
        _recased(own, range(len(own)), copies), _recased(bench, range(len(bench)), copies), *options
    )
    assert copied_code == code
    if code:
        return
    by_change = {json.dumps(c["replacements"]): c for c in copied}
    assert len(by_change) == len(copied) == len(changes)
    for change in changes:
        scaled = by_change[json.dumps(change["replacements"])]
        assert scaled["affected_traces"] == copies * change["affected_traces"]
        assert scaled["feasibility"] == pytest.approx(change["feasibility"], rel=1e-12, abs=1e-12)
        if change["performance_impact"] is None:
            assert scaled["performance_impact"] is None
        else:
            assert scaled["performance_impact"] == pytest.approx(change["performance_impact"], rel=1e-9, abs=1e-9)
        assert len(scaled["alignments"]) == len(change["alignments"])
        for a, b in zip(change["alignments"], scaled["alignments"]):
            assert b["frequency"] == copies * a["frequency"]
            assert [b[k] for k in UNSCALED] == [a[k] for k in UNSCALED]


@pytest.mark.parametrize("options", [(), ("--perf-mode", "throughput")])
def test_lab_pair_changes_ignore_case_ids_and_case_order(options):
    own, bench = _lab_pair()
    rng = np.random.default_rng(5)
    _check_renamed_and_reordered(own, bench, rng.permutation(len(own)), rng.permutation(len(bench)), *options)


@pytest.mark.parametrize("options", [(), ("--perf-mode", "throughput")])
def test_lab_pair_changes_scale_with_copied_cases(options):
    _check_copied(*_lab_pair(), 3, *options)


def _log_of(cases, timed: bool = False) -> EventLog:
    """Row-number order keys, or with ``timed`` timestamps that strictly increase
    within each case and put the log in time order when its cases interleave."""

    def keys(k, variant):
        if not timed:
            return tuple(range(len(variant)))
        return tuple(datetime(2024, 1, 1) + timedelta(seconds=i * len(cases) + k) for i in range(len(variant)))

    return EventLog({
        f"c{k}": Trace(f"c{k}", variant, keys(k, variant), value) for k, (variant, value) in enumerate(cases)
    })


_variants = st.lists(st.sampled_from("abcde"), min_size=1, max_size=5).map(tuple)
_values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
# (variant, performance value) per case
case_lists = st.lists(st.tuples(_variants, st.one_of(st.none(), _values)), min_size=1, max_size=6)
# Every case with a value, so that the CLI reads the performance column.
valued_case_lists = st.lists(st.tuples(_variants, _values), min_size=1, max_size=6)


def test_changes_ignore_the_order_of_fractional_performance_values():
    # Summed left to right, the variant's mean is 0.6000000000000001 / 3 one way and 0.6 / 3 the other.
    own = _log_of([(("a", "c"), 0.1), (("a", "c"), 0.2), (("a", "c"), 0.3)])
    bench = _log_of([(("b", "c"), 0.0)])
    _check_renamed_and_reordered(own, bench, [2, 1, 0], [0])


@given(own=case_lists, bench=case_lists, data=st.data())
@settings(max_examples=60, deadline=None)
def test_changes_ignore_case_ids_and_case_order(own, bench, data):
    own_log, bench_log = _log_of(own), _log_of(bench)
    assume(own_log.alphabet & bench_log.alphabet)
    _check_renamed_and_reordered(
        own_log, bench_log, data.draw(st.permutations(range(len(own)))), data.draw(st.permutations(range(len(bench))))
    )


@given(own=case_lists, bench=case_lists)
@settings(max_examples=60, deadline=None)
def test_changes_scale_with_copied_cases(own, bench):
    own_log, bench_log = _log_of(own), _log_of(bench)
    assume(own_log.alphabet & bench_log.alphabet)
    _check_copied(own_log, bench_log, 3)


def _renamed(log: EventLog, prefix: str) -> EventLog:
    """Every activity of the log renamed to ``prefix + name``, which keeps their sort order."""
    return EventLog({
        case_id: Trace(case_id, tuple(prefix + a for a in t.variant), t.order_keys, t.performance)
        for case_id, t in log.traces.items()
    })


def _rename_report(value, prefix: str):
    """``report["changes"]`` with every activity name in it renamed to ``prefix + name``."""
    if isinstance(value, list):
        return [_rename_report(v, prefix) for v in value]
    if not isinstance(value, dict):
        return value
    renamed = {}
    for key, v in value.items():
        if key in ("own", "benchmark"):
            renamed[key] = prefix + v
        elif key in ("original", "modified", "matched"):
            renamed[key] = [prefix + a for a in v]
        else:
            renamed[key] = _rename_report(v, prefix)
    return renamed


def _check_activities_renamed(own: EventLog, bench: EventLog, *options: str, prefix: str = "x_") -> None:
    code, changes = _run_benchmark(own, bench, *options)
    renamed_code, renamed = _run_benchmark(_renamed(own, prefix), _renamed(bench, prefix), *options)
    assert renamed_code == code
    if not code:
        assert json.dumps(renamed) == json.dumps(_rename_report(changes, prefix))


@pytest.mark.parametrize("options", [(), ("--perf-mode", "throughput")])
def test_lab_pair_changes_follow_an_order_keeping_activity_renaming(options):
    _check_activities_renamed(*_lab_pair(), *options)


@given(own=case_lists, bench=case_lists)
@settings(max_examples=60, deadline=None)
def test_changes_follow_an_order_keeping_activity_renaming(own, bench):
    own_log, bench_log = _log_of(own), _log_of(bench)
    assume(own_log.alphabet & bench_log.alphabet)
    _check_activities_renamed(own_log, bench_log)


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _csv_of_rows(rows) -> str:
    stream = io.StringIO()
    csv.writer(stream, lineterminator="\n").writerows(rows)
    return stream.getvalue()


def _without_time(text: str) -> str:
    """The CSV log with its timestamp column dropped."""
    header, *rows = _csv_rows(text)
    keep = [i for i, name in enumerate(header) if name != "timestamp"]
    assert len(keep) == len(header) - 1
    return _csv_of_rows([[row[i] for i in keep] for row in (header, *rows)])


def _interleaved(text: str) -> str:
    """The CSV log's rows with its cases taken round-robin, one row of each in turn."""
    header, *rows = _csv_rows(text)
    cases: dict[str, list[list[str]]] = {}
    for row in rows:
        cases.setdefault(row[0], []).append(row)
    longest = max(map(len, cases.values()))
    return _csv_of_rows([header] + [case[i] for i in range(longest) for case in cases.values() if i < len(case)])


def _check_csv_rewrite(rewrite, own: EventLog, bench: EventLog, *options: str) -> None:
    own_text, bench_text = _csv_text(own), _csv_text(bench)
    again = _run_benchmark_csv(rewrite(own_text), rewrite(bench_text), *options)
    assert json.dumps(again) == json.dumps(_run_benchmark_csv(own_text, bench_text, *options))


def _check_round_trip(own: EventLog, bench: EventLog, *options: str) -> None:
    """``benchmark()`` on the logs in memory gives the changes that the CLI
    reports on them after ``write_event_log`` and ``read_event_log``."""
    code, changes = _run_benchmark(own, bench, *options)
    assert code == 0, changes
    args = build_parser().parse_args(["benchmark", "own.csv", "benchmark.csv", *options])
    own_cases, bench_cases = ([(c, t.variant, t.performance, None) for c, t in log.traces.items()] for log in (own, bench))
    config = BenchmarkConfig(performance=_resolve_performance(args, own_cases, bench_cases))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExecbenchWarning)
        direct = [_change_payload(c) for c in benchmark(own, bench, config).changes]
    assert json.dumps(direct) == json.dumps(changes)


def _strictly_timed(log: EventLog) -> bool:
    return all(
        isinstance(t.order_keys[0], datetime) and all(a < b for a, b in zip(t.order_keys, t.order_keys[1:]))
        for t in log.traces.values()
    )


def test_lab_pair_changes_ignore_a_dropped_time_column():
    own, bench = _lab_pair()
    assert _strictly_timed(own) and _strictly_timed(bench)
    _check_csv_rewrite(_without_time, own, bench)


@pytest.mark.parametrize("options", [(), ("--perf-mode", "throughput")])
def test_lab_pair_changes_ignore_interleaved_cases(options):
    own, bench = _lab_pair()
    assert _strictly_timed(own) and _strictly_timed(bench)
    _check_csv_rewrite(_interleaved, own, bench, *options)


@pytest.mark.parametrize("rewrite", [str, _without_time, _interleaved], ids=["as-written", "without-time", "interleaved"])
def test_lab_pair_footprint_ignores_the_row_layout(tmp_path, rewrite):
    """``execbench footprint`` writes the pinned matrices of the lab pair's own
    log whether its cases come grouped, without timestamps or interleaved."""
    own, _ = _lab_pair()
    log = tmp_path / "own.csv"
    log.write_text(rewrite(_csv_text(own)), encoding="utf-8")
    matrices = {name: LAB_PAIR_DIGESTS[name] for name in ("exclusiveness.csv", "interleaving.csv", "relations.csv")}
    assert _footprint_digests(log, tmp_path / "matrices") == matrices


@pytest.mark.parametrize("options", [(), ("--perf-mode", "throughput")])
def test_lab_pair_changes_survive_a_write_and_read(options):
    _check_round_trip(*_lab_pair(), *options)


@given(own=case_lists, bench=case_lists)
@settings(max_examples=60, deadline=None)
def test_changes_ignore_a_dropped_time_column(own, bench):
    own_log, bench_log = _log_of(own, timed=True), _log_of(bench, timed=True)
    assume(own_log.alphabet & bench_log.alphabet)
    _check_csv_rewrite(_without_time, own_log, bench_log)


@given(own=case_lists, bench=case_lists)
@settings(max_examples=60, deadline=None)
def test_changes_ignore_interleaved_cases(own, bench):
    own_log, bench_log = _log_of(own, timed=True), _log_of(bench, timed=True)
    assume(own_log.alphabet & bench_log.alphabet)
    _check_csv_rewrite(_interleaved, own_log, bench_log)


@given(lists=st.sampled_from([case_lists, valued_case_lists]), data=st.data())
@settings(max_examples=60, deadline=None)
def test_changes_survive_a_write_and_read(lists, data):
    own_log, bench_log = _log_of(data.draw(lists)), _log_of(data.draw(lists))
    assume(own_log.alphabet & bench_log.alphabet)
    _check_round_trip(own_log, bench_log)


def _valued(log: EventLog, seed: int) -> EventLog:
    """The log with one seeded performance value per case."""
    values = np.random.default_rng(seed).integers(-50, 50, size=len(log)).tolist()
    return EventLog({
        case_id: Trace(case_id, t.variant, t.order_keys, float(v)) for (case_id, t), v in zip(log.traces.items(), values)
    })


def test_perf_mode_none_ignores_a_performance_column():
    own, bench = _lab_pair()
    valued = _valued(own, 1), _valued(bench, 2)
    code, changes = _run_benchmark(*valued, "--perf-mode", "none")
    assert code == 0 and changes
    assert {c["performance_impact"] for c in changes} == {None}
    assert json.dumps(changes) == json.dumps(_run_benchmark(own, bench)[1])
    code, scored = _run_benchmark(*valued)  # auto reads the column
    assert code == 0 and None not in {c["performance_impact"] for c in scored}


def test_a_mean_performance_that_overflows_is_a_data_error():
    own = "case_id,activity,performance\nc1,a,1e308\nc1,b,1e308\nc2,a,1e308\nc2,b,1e308\n"
    bench = "case_id,activity,performance\nd1,a,1\nd1,c,1\n"
    assert _run_benchmark_csv(own, bench) == (2, "error: variant ('a', 'b'): mean performance overflows a float\n")


def test_a_performance_impact_that_overflows_is_a_data_error(tmp_path):
    own = "case_id,activity,performance\nc1,a,1.7e308\nc1,b,1.7e308\nc3,a,1\nc3,c,1\n"
    bench = "case_id,activity,performance\nd2,a,-1.7e308\nd2,c,-1.7e308\nd3,a,5\nd3,b,5\n"
    assert _run_benchmark_csv(own, bench) == (2, "error: change {'b': 'c'}: performance impact overflows a float\n")
    (tmp_path / "own.csv").write_text(own, encoding="utf-8")
    (tmp_path / "benchmark.csv").write_text(bench, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["benchmark", str(tmp_path / "own.csv"), str(tmp_path / "benchmark.csv"), "--out", str(out)]) == 2
    assert not out.exists()  # no report with an infinite impact is written


# ------------------------------------------------ errors and their order


def test_column_mode_names_the_cases_without_a_value():
    own = "case_id,activity,performance\nc1,a,1\nc1,b,1\nc2,a,\nc2,b,\nc3,a,\n"
    bench = "case_id,activity,performance\nd1,a,1\nd1,b,1\n"
    assert _run_benchmark_csv(own, bench, "--perf-mode", "column") == (
        2, "error: performance value missing for 2 case(s): c2, c3\n"
    )


def test_throughput_without_a_time_column_is_a_config_error(tmp_path, capsys):
    own, bench = tmp_path / "own.csv", tmp_path / "benchmark.csv"
    own.write_text("case_id,activity\nc1,c\nc1,d\nc1,e\nc1,g\n", encoding="utf-8")
    bench.write_text(BENCHMARK_CSV, encoding="utf-8")
    assert main(["benchmark", str(own), str(bench), "--perf-mode", "throughput"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: throughput performance requires a timestamp column\n")


def test_an_empty_own_log_is_reported_before_missing_performance():
    bench = "case_id,activity,performance\nd1,a,\nd1,b,\n"
    assert _run_benchmark_csv("case_id,activity,performance\n", bench, "--perf-mode", "column") == (
        2, "error: cannot build a footprint matrix for an empty event log\n"
    )


def test_low_overlap_warns_before_missing_performance_is_reported(tmp_path, capsys):
    own, bench = tmp_path / "own.csv", tmp_path / "benchmark.csv"
    own.write_text("case_id,activity,performance\nc1,a,\nc1,b,\n", encoding="utf-8")
    bench.write_text("case_id,activity,performance\nd1,a,1\nd1,x,1\nd1,y,1\n", encoding="utf-8")
    with pytest.warns(LogSimilarityWarning):
        assert main(["benchmark", str(own), str(bench), "--perf-mode", "column"]) == 2
    assert capsys.readouterr().err == "error: performance value missing for 1 case(s): c1\n"


def test_missing_performance_is_reported_before_truncation(tmp_path, capsys):
    """The lab pair warns of truncation when it is scored (see the pinned
    outputs); warnings are errors under pytest, so none may come first."""
    _write_logs(tmp_path, *_lab_pair())
    own, bench = str(tmp_path / "own.csv"), str(tmp_path / "benchmark.csv")
    assert main(["benchmark", own, bench, "--perf-mode", "column"]) == 2
    assert capsys.readouterr().err.startswith("error: performance value missing for 60 case(s): ")
