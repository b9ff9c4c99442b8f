"""Command-line entry point.

Subcommands: ``benchmark`` runs the full pipeline on two CSV logs,
``footprint`` dumps relation and score matrices for one log, ``synth``
writes generated tree/log pairs with ground truth, ``eval`` runs the
synthetic experiment.  Exit codes: 0 success, 1 usage error, 2 data or
configuration error.  Warnings go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
from typing import IO, Sequence

import numpy as np

from .compatibility import DEFAULT_MAX_CHANGE_SIZE
from .errors import ExecbenchError
from .eventlog import (
    EventLog,
    PerfConfig,
    SchemaConfig,
    read_event_log,
    write_event_log,
)
from .experiment import ExperimentConfig, generate_pair, run_experiment
from .footprint import (
    DEFAULT_EXCLUSIVENESS_THRESHOLD,
    DEFAULT_INTERLEAVING_THRESHOLD,
    build_footprint_matrix,
    ordering_counts,
)
from .proctree import tree_to_json
from .scoring import BenchmarkConfig, ScoredChange, benchmark


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _add_schema_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--case-col", default="case_id", help="case identifier column")
    parser.add_argument("--activity-col", default="activity", help="activity name column")
    parser.add_argument("--time-col", default="timestamp", help="ISO-8601 timestamp column; row order is used when absent")
    parser.add_argument("--perf-col", default="performance", help="case-level performance column")


def _add_threshold_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--exc", type=float, default=DEFAULT_EXCLUSIVENESS_THRESHOLD, metavar="T", help="exclusiveness threshold in [0,1]"
    )
    parser.add_argument(
        "--int", type=float, default=DEFAULT_INTERLEAVING_THRESHOLD, metavar="T", dest="int_",
        help="interleaving threshold in [0,1]",
    )


def _add_pair_generation_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--traces", type=int, default=500, help="traces per simulated log")
    parser.add_argument("--noise", type=float, default=0.05, help="per-trace perturbation probability")
    parser.add_argument("--seed", type=int, default=42, help="master seed; fixes all randomness")
    parser.add_argument("--leaves-min", type=int, default=18)
    parser.add_argument("--leaves-max", type=int, default=30)
    parser.add_argument("--replacements-min", type=int, default=1)
    parser.add_argument("--replacements-max", type=int, default=3)
    parser.add_argument("--insertions-min", type=int, default=0)
    parser.add_argument("--insertions-max", type=int, default=2)
    parser.add_argument("--deletions-min", type=int, default=0)
    parser.add_argument("--deletions-max", type=int, default=2)
    parser.add_argument("--max-loop-iterations", type=int, default=3)


def build_parser() -> _Parser:
    parser = _Parser(prog="execbench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_bench = sub.add_parser("benchmark", help="score activity replacements of OWN against BENCHMARK")
    p_bench.add_argument("own", help="own event log CSV")
    p_bench.add_argument("benchmark", help="benchmark event log CSV")
    _add_schema_options(p_bench)
    _add_threshold_options(p_bench)
    p_bench.add_argument("--max-change-size", type=int, default=DEFAULT_MAX_CHANGE_SIZE, metavar="K")
    p_bench.add_argument("--min-feasibility", type=float, default=0.0, metavar="F")
    p_bench.add_argument("--top", type=int, default=None, metavar="N", help="keep only the N best changes")
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
    _add_threshold_options(p_foot)
    p_foot.add_argument("--out", default=None, metavar="DIR", help="write the three CSV matrices here")
    p_foot.set_defaults(func=_cmd_footprint)

    p_synth = sub.add_parser("synth", help="generate tree/log pairs with ground truth")
    p_synth.add_argument("--pairs", type=int, default=1)
    _add_pair_generation_options(p_synth)
    p_synth.add_argument("--out", required=True, metavar="DIR")
    p_synth.set_defaults(func=_cmd_synth)

    p_eval = sub.add_parser("eval", help="run the synthetic experiment with a random baseline")
    p_eval.add_argument("--pairs", type=int, default=100)
    _add_pair_generation_options(p_eval)
    _add_threshold_options(p_eval)
    p_eval.add_argument("--max-change-size", type=int, default=DEFAULT_MAX_CHANGE_SIZE, metavar="K")
    p_eval.add_argument("--out", default=None, metavar="DIR", help="write report.json and summary.txt here")
    p_eval.set_defaults(func=_cmd_eval)
    return parser


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
        have_column = all(
            t.performance is not None for log in (own, bench) for t in log.traces.values()
        ) and bool(own.traces)
        mode = "column" if have_column else "none"
    if mode == "none":
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
        "alignments": [
            {
                "original": list(a.original),
                "modified": list(a.modified),
                "matched": list(a.matched),
                "similarity": a.similarity,
                "frequency": a.frequency,
                "tie_count": a.tie_count,
                "own_performance": a.own_performance,
                "benchmark_performance": a.benchmark_performance,
            }
            for a in scored.alignments
        ],
    }


def _replacements_label(scored: ScoredChange) -> str:
    return "; ".join(f"{m.own} -> {m.benchmark}" for m in scored.change.replacements)


def _benchmark_csv(changes: list[ScoredChange], stream: IO[str]) -> None:
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


def _benchmark_table(changes: list[ScoredChange]) -> str:
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
    changes = benchmark(own, bench, config)
    shared = own.alphabet & bench.alphabet
    union = own.alphabet | bench.alphabet
    report = {
        "config": {
            "own": args.own,
            "benchmark": args.benchmark,
            "exc_threshold": config.exc_threshold,
            "int_threshold": config.int_threshold,
            "max_change_size": config.max_change_size,
            "min_feasibility": config.min_feasibility,
            "top": config.top,
            "performance": None
            if perf is None
            else {"mode": perf.mode, "direction": perf.resolved_direction},
        },
        "own_alphabet": sorted(own.alphabet),
        "benchmark_alphabet": sorted(bench.alphabet),
        "shared_alphabet": sorted(shared),
        "alphabet_jaccard": len(shared) / len(union) if union else 1.0,
        "changes": [_change_payload(c) for c in changes],
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        with open(os.path.join(args.out, "report.csv"), "w", encoding="utf-8") as handle:
            _benchmark_csv(changes, handle)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    elif args.format == "csv":
        buffer = io.StringIO()
        _benchmark_csv(changes, buffer)
        print(buffer.getvalue(), end="")
    else:
        print(_benchmark_table(changes))
    return 0


def _score_csv(activities: Sequence[str], scores: np.ndarray, stream: IO[str]) -> None:
    cells = np.where(np.isnan(scores), "", np.char.mod("%.6f", scores))
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["", *activities])
    writer.writerows([a, *row] for a, row in zip(activities, cells.tolist()))


def _cmd_footprint(args) -> int:
    log = read_event_log(args.log, _schema(args))
    matrix = build_footprint_matrix(log, args.exc, args.int_)
    stats = ordering_counts(log)
    sections = [
        ("relations.csv", lambda s: matrix.to_csv(s)),
        ("exclusiveness.csv", lambda s: _score_csv(stats.activities, stats.exclusiveness, s)),
        ("interleaving.csv", lambda s: _score_csv(stats.activities, stats.interleaving, s)),
    ]
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for name, render in sections:
            with open(os.path.join(args.out, name), "w", encoding="utf-8") as handle:
                render(handle)
    else:
        for name, render in sections:
            print(f"# {name[:-4]}")
            buffer = io.StringIO()
            render(buffer)
            print(buffer.getvalue(), end="")
    return 0


def _experiment_config(args, n_pairs: int) -> ExperimentConfig:
    return ExperimentConfig(
        n_pairs=n_pairs,
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
    config = _experiment_config(args, args.pairs)
    for index in range(args.pairs):
        pair = generate_pair(config, index)
        directory = os.path.join(args.out, f"pair_{index:04d}")
        os.makedirs(directory, exist_ok=True)
        for name, tree in (("own_tree.json", pair.tree), ("benchmark_tree.json", pair.mutated)):
            with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
                json.dump(tree_to_json(tree), handle, indent=2)
                handle.write("\n")
        truth = {
            "replacements": sorted([old, new] for old, new in pair.truth.replacements),
            "insertions": sorted(pair.truth.insertions),
            "deletions": sorted(pair.truth.deletions),
        }
        with open(os.path.join(directory, "ground_truth.json"), "w", encoding="utf-8") as handle:
            json.dump(truth, handle, indent=2)
            handle.write("\n")
        for name, log in (("own_log.csv", pair.own_log), ("benchmark_log.csv", pair.benchmark_log)):
            with open(os.path.join(directory, name), "w", encoding="utf-8", newline="") as handle:
                write_event_log(log, handle)
    print(f"wrote {args.pairs} pair(s) under {args.out}")
    return 0


def _cmd_eval(args) -> int:
    config = _experiment_config(args, args.pairs)
    report = run_experiment(config)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
            handle.write("\n")
        with open(os.path.join(args.out, "summary.txt"), "w", encoding="utf-8") as handle:
            handle.write(report.summary_table())
            handle.write("\n")
    print(report.summary_table())
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
    except ExecbenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
