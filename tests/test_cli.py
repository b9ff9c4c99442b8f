"""Command-line entry point: option defaults, early option checks and the files each command writes."""

import json

import pytest

from conftest import BENCHMARK_CSV, OWN_CSV
from execbench import footprint
from execbench.cli import _experiment_config, build_parser, main
from execbench.experiment import ExperimentConfig


def test_eval_defaults_are_the_package_defaults():
    assert _experiment_config(build_parser().parse_args(["eval"]), 100) == ExperimentConfig()


def test_invalid_eval_options_exit_with_config_error(capsys):
    assert main(["eval", "--pairs", "2", "--traces", "30", "--leaves-min", "30", "--leaves-max", "18"]) == 2
    assert "leaves_range" in capsys.readouterr().err
    assert main(["eval", "--pairs", "2", "--traces", "30", "--seed", "-1"]) == 2
    assert "master_seed" in capsys.readouterr().err


def test_benchmark_options_are_checked_before_reading_logs(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    assert main(["benchmark", missing, missing, "--top", "-1"]) == 2
    assert "top" in capsys.readouterr().err


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
    monkeypatch.setattr(footprint, "order_stats", lambda *args: calls.append(args) or original(*args))
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


def test_benchmark_encodes_the_json_report_once(tmp_path, monkeypatch, capsys):
    own, bench = _worked_example_logs(tmp_path)
    calls = []
    encode = json.JSONEncoder.iterencode  # json.dump and json.dumps both call it

    def counted(*args, **kwargs):
        calls.append(args)
        return encode(*args, **kwargs)

    monkeypatch.setattr(json.JSONEncoder, "iterencode", counted)
    assert main(["benchmark", own, bench, "--format", "json", "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1
    assert (tmp_path / "out" / "report.json").read_text(encoding="utf-8") == capsys.readouterr().out


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
