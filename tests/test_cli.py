"""Command-line entry point: option defaults and early option checks."""

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
