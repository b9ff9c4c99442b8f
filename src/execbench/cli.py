"""Command-line entry point.

Subcommands: ``benchmark`` runs the full pipeline on two CSV logs,
``footprint`` dumps relation and score matrices for one log, ``synth``
writes generated tree/log pairs with ground truth, ``eval`` runs the
synthetic experiment.  Exit codes: 0 success (also when the reader closes
standard output early), 1 usage error, 2 data or configuration error.
Warnings go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import IO, Callable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, ExecbenchError
from .eventlog import (
    EventLog,
    PerfConfig,
    SchemaConfig,
    read_event_log,
    write_event_log,
)
from .experiment import ExperimentConfig, generate_pair, run_experiment
from .footprint import _write_matrix_csv, ordering_counts
from .proctree import tree_to_json
from .scoring import BenchmarkConfig, ScoredChange, benchmark


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _add_schema_options(parser: argparse.ArgumentParser) -> None:
    schema = SchemaConfig()
    parser.add_argument("--case-col", default=schema.case_col, help="case identifier column")
    parser.add_argument("--activity-col", default=schema.activity_col, help="activity name column")
    parser.add_argument("--time-col", default=schema.time_col, help="ISO-8601 timestamp column; row order is used when absent")
    parser.add_argument("--perf-col", default=schema.perf_col, help="case-level performance column")


def _add_threshold_options(parser: argparse.ArgumentParser, defaults: BenchmarkConfig | ExperimentConfig) -> None:
    parser.add_argument(
        "--exc", type=float, default=defaults.exc_threshold, metavar="T", help="exclusiveness threshold in [0,1]"
    )
    parser.add_argument(
        "--int", type=float, default=defaults.int_threshold, metavar="T", dest="int_",
        help="interleaving threshold in [0,1]",
    )


def _add_pair_generation_options(parser: argparse.ArgumentParser, defaults: ExperimentConfig) -> None:
    parser.add_argument("--traces", type=int, default=defaults.n_traces, help="traces per simulated log")
    parser.add_argument("--noise", type=float, default=defaults.noise_probability, help="per-trace perturbation probability")
    parser.add_argument("--seed", type=int, default=defaults.master_seed, help="master seed; fixes all randomness")
    parser.add_argument("--leaves-min", type=int, default=defaults.leaves_range[0])
    parser.add_argument("--leaves-max", type=int, default=defaults.leaves_range[1])
    parser.add_argument("--replacements-min", type=int, default=defaults.replacements_range[0])
    parser.add_argument("--replacements-max", type=int, default=defaults.replacements_range[1])
    parser.add_argument("--insertions-min", type=int, default=defaults.insertions_range[0])
    parser.add_argument("--insertions-max", type=int, default=defaults.insertions_range[1])
    parser.add_argument("--deletions-min", type=int, default=defaults.deletions_range[0])
    parser.add_argument("--deletions-max", type=int, default=defaults.deletions_range[1])
    parser.add_argument("--max-loop-iterations", type=int, default=defaults.max_loop_iterations)


def build_parser() -> _Parser:
    bench_defaults, eval_defaults = BenchmarkConfig(), ExperimentConfig()
    parser = _Parser(prog="execbench", description=sys.modules[__package__].__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_bench = sub.add_parser("benchmark", help="score activity replacements of OWN against BENCHMARK")
    p_bench.add_argument("own", help="own event log CSV")
    p_bench.add_argument("benchmark", help="benchmark event log CSV")
    _add_schema_options(p_bench)
    _add_threshold_options(p_bench, bench_defaults)
    p_bench.add_argument("--max-change-size", type=int, default=bench_defaults.max_change_size, metavar="K")
    p_bench.add_argument("--min-feasibility", type=float, default=bench_defaults.min_feasibility, metavar="F")
    p_bench.add_argument("--top", type=int, default=bench_defaults.top, metavar="N", help="keep only the N best changes")
    p_bench.add_argument(
        "--perf-mode",
        choices=["auto", "none", "column", "throughput"],
        default="auto",
        help="performance source; auto uses the column when both logs carry it",
    )
    p_bench.add_argument("--perf-direction", choices=["higher", "lower"], default=None)
    p_bench.add_argument("--format", choices=["json", "csv", "table"], default="table")
    p_bench.add_argument("--out", default=None, metavar="DIR", help="write report.json and report.csv here")
    p_bench.set_defaults(func=_cmd_benchmark)

    p_foot = sub.add_parser("footprint", help="dump relation and score matrices for one log")
    p_foot.add_argument("log", help="event log CSV")
    _add_schema_options(p_foot)
    _add_threshold_options(p_foot, bench_defaults)
    p_foot.add_argument("--out", default=None, metavar="DIR", help="write the three CSV matrices here")
    p_foot.set_defaults(func=_cmd_footprint)

    p_synth = sub.add_parser("synth", help="generate tree/log pairs with ground truth")
    p_synth.add_argument("--pairs", type=int, default=1)
    _add_pair_generation_options(p_synth, eval_defaults)
    p_synth.add_argument("--out", required=True, metavar="DIR")
    p_synth.set_defaults(func=_cmd_synth)

    p_eval = sub.add_parser("eval", help="run the synthetic experiment with a random baseline")
    p_eval.add_argument("--pairs", type=int, default=eval_defaults.n_pairs)
    _add_pair_generation_options(p_eval, eval_defaults)
    _add_threshold_options(p_eval, eval_defaults)
    p_eval.add_argument("--max-change-size", type=int, default=eval_defaults.max_change_size, metavar="K")
    p_eval.add_argument("--out", default=None, metavar="DIR", help="write report.json and summary.txt here")
    p_eval.set_defaults(func=_cmd_eval)
    return parser


def _write_files(directory: str, files: Mapping[str, str]) -> None:
    """Write each ``{name: text}`` under ``directory``; every text ends its lines with ``\\n``."""
    os.makedirs(directory, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _render(write: Callable[[IO[str]], None]) -> str:
    buffer = io.StringIO()
    write(buffer)
    return buffer.getvalue()


def _schema(args) -> SchemaConfig:
    return SchemaConfig(
        case_col=args.case_col,
        activity_col=args.activity_col,
        time_col=args.time_col,
        perf_col=args.perf_col,
    )


def _resolve_performance(args, own: EventLog, bench: EventLog) -> PerfConfig | None:
    mode = args.perf_mode
    if mode == "auto":
        have_column = all(t.performance is not None for log in (own, bench) for t in log.traces.values())
        mode = "column" if have_column else "none"
    if mode == "none":
        if args.perf_direction is not None:
            why = "none" if args.perf_mode == "none" else "auto and not every case of both logs has a performance value"
            raise ConfigError(f"--perf-direction needs a performance source, but --perf-mode is {why}")
        return None
    return PerfConfig(mode=mode, direction=args.perf_direction)


def _change_payload(scored: ScoredChange) -> dict:
    return {
        "replacements": [
            {"own": m.own, "benchmark": m.benchmark} for m in scored.change.replacements
        ],
        "feasibility": scored.feasibility,
        "performance_impact": scored.performance_impact,
        "affected_traces": scored.affected_trace_count,
        "transitive": scored.change.is_transitive,
        "alignments": [vars(a) for a in scored.alignments],
    }


def _replacements_label(scored: ScoredChange) -> str:
    return "; ".join(f"{m.own} -> {m.benchmark}" for m in scored.change.replacements)


def _benchmark_csv(changes: Sequence[ScoredChange], stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(
        ["rank", "replacements", "feasibility", "performance_impact", "affected_traces", "transitive"]
    )
    for rank, scored in enumerate(changes, start=1):
        writer.writerow(
            [
                rank,
                _replacements_label(scored),
                repr(scored.feasibility),
                "" if scored.performance_impact is None else repr(scored.performance_impact),
                scored.affected_trace_count,
                scored.change.is_transitive,
            ]
        )


def _benchmark_table(changes: Sequence[ScoredChange]) -> str:
    if not changes:
        return "no changes found"
    width = max(len(_replacements_label(c)) for c in changes)
    width = max(width, len("Replacements"))
    header = f"{'Replacements':<{width}}  {'Feasibility':>11}  {'Impact':>12}  {'Traces':>6}"
    lines = [header, "-" * len(header)]
    for scored in changes:
        impact = "-" if scored.performance_impact is None else f"{scored.performance_impact:+.4f}"
        lines.append(
            f"{_replacements_label(scored):<{width}}  {scored.feasibility:>11.4f}"
            f"  {impact:>12}  {scored.affected_trace_count:>6}"
        )
    return "\n".join(lines)


def _dump_json(obj) -> str:
    """Return ``json.dumps(obj, indent=2)``.

    Python's ``json`` encodes in pure Python whenever ``indent`` is set.
    Here each list or tuple of strings goes to the C string encoder in one
    join, and one such list met again at the same depth is written from its
    first text.  Dict keys must be ``str``: where ``json`` would coerce a
    number, bool or ``None`` key, the string encoder raises ``TypeError``,
    as both do on a value that is not JSON.
    """
    parts: list[str] = []
    # (id, indent) -> (the list, which keeps its id taken; its text)
    memo: dict[tuple[int, str], tuple[object, str]] = {}

    def write(value, indent: str) -> None:
        if isinstance(value, str):
            parts.append(encode_basestring_ascii(value))
        elif value is None:
            parts.append("null")
        elif value is True:
            parts.append("true")
        elif value is False:
            parts.append("false")
        elif isinstance(value, int):
            parts.append(int.__repr__(value))
        elif isinstance(value, float):
            parts.append(float.__repr__(value) if math.isfinite(value) else json.dumps(value))
        elif isinstance(value, (list, tuple)):
            if not value:
                parts.append("[]")
                return
            key = (id(value), indent)
            seen = memo.get(key)
            if seen is not None:
                parts.append(seen[1])
                return
            inner = indent + "  "
            between = ",\n" + inner
            try:
                text = f"[\n{inner}{between.join(map(encode_basestring_ascii, value))}\n{indent}]"
            except TypeError:  # not all strings
                sep = "[\n" + inner
                for item in value:
                    parts.append(sep)
                    write(item, inner)
                    sep = between
                parts.append(f"\n{indent}]")
            else:
                memo[key] = (value, text)
                parts.append(text)
        elif isinstance(value, dict):
            if not value:
                parts.append("{}")
                return
            inner = indent + "  "
            between = ",\n" + inner
            sep = "{\n" + inner
            for name, item in value.items():
                parts.extend((sep, encode_basestring_ascii(name), ": "))
                write(item, inner)
                sep = between
            parts.append(f"\n{indent}}}")
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    write(obj, "")
    return "".join(parts)


def _cmd_benchmark(args) -> int:
    config = BenchmarkConfig(
        exc_threshold=args.exc,
        int_threshold=args.int_,
        max_change_size=args.max_change_size,
        min_feasibility=args.min_feasibility,
        top=args.top,
    )
    schema = _schema(args)
    own = read_event_log(args.own, schema)
    bench = read_event_log(args.benchmark, schema)
    perf = _resolve_performance(args, own, bench)
    config = dataclasses.replace(config, performance=perf)
    result = benchmark(own, bench, config)
    changes = result.changes
    report = {
        "config": {
            "own": args.own,
            "benchmark": args.benchmark,
            **vars(config),
            "performance": None if perf is None else vars(perf),
        },
        **vars(result),
        "changes": [_change_payload(c) for c in changes],
    }
    text = _dump_json(report) if args.out or args.format == "json" else None
    csv_text = _render(lambda s: _benchmark_csv(changes, s)) if args.out or args.format == "csv" else None
    if args.out:
        _write_files(args.out, {"report.json": text + "\n", "report.csv": csv_text})
    if args.format == "json":
        print(text)
    elif args.format == "csv":
        print(csv_text, end="")
    else:
        print(_benchmark_table(changes))
    return 0


def _score_csv(activities: Sequence[str], scores: np.ndarray, stream: IO[str]) -> None:
    _write_matrix_csv(activities, np.where(np.isnan(scores), "", np.char.mod("%.6f", scores)), stream)


def _cmd_footprint(args) -> int:
    config = BenchmarkConfig(args.exc, args.int_)  # checks the thresholds before the read
    log = read_event_log(args.log, _schema(args))
    stats = ordering_counts(log)
    matrix = stats.footprint(config.exc_threshold, config.int_threshold)
    files = {
        "relations.csv": _render(matrix.to_csv),
        "exclusiveness.csv": _render(lambda s: _score_csv(stats.activities, stats.exclusiveness, s)),
        "interleaving.csv": _render(lambda s: _score_csv(stats.activities, stats.interleaving, s)),
    }
    if args.out:
        _write_files(args.out, files)
    else:
        for name, text in files.items():
            print(f"# {name[:-4]}")
            print(text, end="")
    return 0


def _experiment_config(args) -> ExperimentConfig:
    return ExperimentConfig(
        n_pairs=args.pairs,
        n_traces=args.traces,
        noise_probability=args.noise,
        leaves_range=(args.leaves_min, args.leaves_max),
        replacements_range=(args.replacements_min, args.replacements_max),
        insertions_range=(args.insertions_min, args.insertions_max),
        deletions_range=(args.deletions_min, args.deletions_max),
        exc_threshold=getattr(args, "exc", ExperimentConfig.exc_threshold),
        int_threshold=getattr(args, "int_", ExperimentConfig.int_threshold),
        max_change_size=getattr(args, "max_change_size", ExperimentConfig.max_change_size),
        max_loop_iterations=args.max_loop_iterations,
        master_seed=args.seed,
    )


def _cmd_synth(args) -> int:
    config = _experiment_config(args)
    for index in range(args.pairs):
        pair = generate_pair(config, index)
        truth = {
            "replacements": sorted([old, new] for old, new in pair.truth.replacements),
            "insertions": sorted(pair.truth.insertions),
            "deletions": sorted(pair.truth.deletions),
        }
        _write_files(
            os.path.join(args.out, f"pair_{index:04d}"),
            {
                "own_tree.json": json.dumps(tree_to_json(pair.tree), indent=2) + "\n",
                "benchmark_tree.json": json.dumps(tree_to_json(pair.mutated), indent=2) + "\n",
                "ground_truth.json": json.dumps(truth, indent=2) + "\n",
                "own_log.csv": _render(lambda s: write_event_log(pair.own_log, s)),
                "benchmark_log.csv": _render(lambda s: write_event_log(pair.benchmark_log, s)),
            },
        )
    print(f"wrote {args.pairs} pair(s) under {args.out}")
    return 0


def _cmd_eval(args) -> int:
    config = _experiment_config(args)
    report = run_experiment(config)
    summary = report.summary_table()
    if args.out:
        _write_files(args.out, {"report.json": report.to_json() + "\n", "summary.txt": summary + "\n"})
    print(summary)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader closed stdout early: not an error.  Point stdout at
        # devnull so that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ExecbenchError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
