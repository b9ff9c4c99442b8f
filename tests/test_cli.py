"""Command-line entry point: option defaults, early option checks and the matrix dump."""

from conftest import OWN_CSV
from execbench.cli import _experiment_config, build_parser, main
from execbench.experiment import ExperimentConfig


def test_eval_defaults_are_the_package_defaults():
    assert _experiment_config(build_parser().parse_args(["eval"]), 100) == ExperimentConfig()


def test_invalid_eval_options_exit_with_config_error(capsys):
    assert main(["eval", "--pairs", "2", "--traces", "30", "--leaves-min", "30", "--leaves-max", "18"]) == 2
    assert "leaves_range" in capsys.readouterr().err


def test_benchmark_options_are_checked_before_reading_logs(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    assert main(["benchmark", missing, missing, "--top", "-1"]) == 2
    assert "top" in capsys.readouterr().err


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
