"""Span recording around the package's public functions, for the traced run.

Each layer function is replaced, under the name its caller imported it by,
with a wrapper that records a span (layer, start, end, parent) and feeds
counters from the call's arguments and result.  A layer's self time is its
span durations minus the time its direct child spans cover.  A function
that no longer exists is reported as absent instead of failing the run, and
a counter whose inputs changed shape is dropped the same way.
"""

from __future__ import annotations

import inspect
import statistics
import time
import weakref
from collections import defaultdict

US_PER_S = 1e6


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        # Benchmark-activity sets seen per live scorer.  Keyed on the scorer
        # itself, not its id(): a freed scorer's id can be reused.
        self._pools: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def wrap(self, owner, attr: str, layer: str, count=None) -> None:
        original = getattr(owner, attr, None)
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        if original is None:
            self.absent.append(label)
            return
        recorder = self

        def wrapper(*args, **kwargs):
            parent = recorder._stack[-1] if recorder._stack else None
            index = len(recorder.spans)
            recorder.spans.append((layer, 0.0, 0.0, parent))
            recorder._stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                recorder._stack.pop()
                recorder.spans[index] = (layer, start, end, parent)
            if count is not None:
                try:
                    count(recorder, original, args, kwargs, result)
                except Exception as exc:  # noqa: BLE001 - a renamed field must not stop the run
                    recorder.absent.append(f"{label} counter ({type(exc).__name__}: {exc})")
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (layer, start, end, _), child_time in zip(self.spans, covered):
            totals[layer] += end - start - child_time
        return totals

    def durations(self, layer: str) -> list[float]:
        return [end - start for name, start, end, _ in self.spans if name == layer]


# ------------------------------------------------------------------ counters


def _count_read(rec, original, args, kwargs, log):
    rec.counts["eventlog.traces"] += len(log.traces)
    rec.counts["eventlog.rows"] += sum(len(t.events) for t in log.traces.values())


def _count_variants(rec, original, args, kwargs, index):
    rec.counts["eventlog.variants"] += len(index.entries)


def _count_order_stats(rec, original, args, kwargs, result):
    tokens, n_symbols = args[0], args[3] if len(args) > 3 else kwargs["n_symbols"]
    rec.counts["kernels.order_stats_cells"] += tokens.shape[0] * n_symbols * n_symbols


def _count_footprint(rec, original, args, kwargs, matrix):
    n = len(matrix.activities)
    rec.counts["footprint.activities"] += n
    rec.counts["footprint.pairs_classified"] += n * (n + 1) // 2


def _count_matching(rec, original, args, kwargs, matches):
    own, bench = args[0], args[1]
    rec.counts["matching.matches"] += len(matches.matches)
    rec.counts["matching.row_comparisons"] += len(own.activities) * len(bench.activities)


def _count_graph(rec, original, args, kwargs, graph):
    rec.counts["compatibility.nodes"] += len(graph.nodes)
    rec.counts["compatibility.edges"] += len(graph.edges)


def _count_enumerate(rec, original, args, kwargs, changes):
    bound = inspect.signature(original).bind(*args, **kwargs)
    bound.apply_defaults()
    graph, max_size = bound.arguments["graph"], bound.arguments["max_size"]
    rec.counts["compatibility.changes"] += len(changes)
    index = {node: i for i, node in enumerate(graph.nodes)}
    for change in changes:
        if len(change.replacements) != max_size:
            continue
        members = [index[m] for m in change.replacements]
        common = set.intersection(*(set(graph.adjacency[i]) for i in members)) - set(members)
        if common:  # a larger compatible set exists and was cut off
            rec.counts["compatibility.truncations"] += 1
            return


def _count_score(rec, original, args, kwargs, scored):
    scorer, change = args[0], args[1]
    rec.counts["scoring.changes_scored"] += 1
    rec.counts["scoring.alignments"] += len(scored.alignments)
    pools = rec._pools.setdefault(scorer, set())
    if change.benchmark_activities not in pools:
        pools.add(change.benchmark_activities)
        rec.counts["scoring.pools"] += 1


def _count_levenshtein(rec, original, args, kwargs, distances):
    query, pool = args[0], args[1]
    rec.counts["kernels.levenshtein_calls"] += 1
    rec.counts["kernels.dp_cells"] += query.shape[0] * pool.shape[0] * pool.shape[1]


def _count_simulate(rec, original, args, kwargs, log):
    rec.counts["proctree.events_simulated"] += sum(len(t.events) for t in log.traces.values())


def install(recorder: SpanRecorder) -> None:
    """Wrap every traced layer function of the imported package."""
    from execbench import cli, experiment, footprint, scoring

    r = recorder
    r.wrap(cli, "main", "cli")
    r.wrap(cli, "read_event_log", "eventlog.read", _count_read)
    r.wrap(cli, "benchmark", "scoring.rank")
    # Each log's variants are counted once, where its footprint indexes them.
    r.wrap(footprint, "extract_variants", "eventlog.variants", _count_variants)
    for module in (scoring, experiment):
        r.wrap(module, "extract_variants", "eventlog.variants")
        r.wrap(module, "build_footprint_matrix", "footprint.build", _count_footprint)
        r.wrap(module, "match_activities", "matching.match", _count_matching)
        r.wrap(module, "build_compatibility_graph", "compatibility.graph", _count_graph)
        r.wrap(module, "enumerate_changes", "compatibility.enumerate", _count_enumerate)
    r.wrap(footprint, "order_stats", "kernels.order_stats", _count_order_stats)
    r.wrap(scoring, "levenshtein_many", "kernels.levenshtein", _count_levenshtein)
    r.wrap(scoring.ChangeScorer, "score", "scoring.score", _count_score)
    r.wrap(experiment, "generate_process_tree", "proctree.generate")
    r.wrap(experiment, "mutate_tree", "proctree.generate")
    r.wrap(experiment, "simulate_log", "proctree.simulate", _count_simulate)
    r.wrap(experiment, "run_pair", "experiment.pair")


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """Per-layer metric values, keyed like BENCHMARK.json's per_layer names."""
    self_s = recorder.self_times()
    counts = recorder.counts
    kernel_calls = recorder.durations("kernels.levenshtein")
    pair_times = recorder.durations("experiment.pair")
    read_s = self_s.get("eventlog.read", 0.0)
    lev_s = self_s.get("kernels.levenshtein", 0.0)
    alignments = counts.get("scoring.alignments", 0.0)
    metrics = {
        "eventlog.read_s": read_s,
        "eventlog.rows_per_s": counts.get("eventlog.rows", 0.0) / read_s if read_s else 0.0,
        "eventlog.variants_s": self_s.get("eventlog.variants", 0.0),
        "kernels.levenshtein_s": lev_s,
        "kernels.levenshtein_call_us_p50": statistics.median(kernel_calls) * US_PER_S if kernel_calls else 0.0,
        "kernels.levenshtein_call_us_p99": _quantile(kernel_calls, 0.99) * US_PER_S,
        "kernels.dp_cells_per_s": counts.get("kernels.dp_cells", 0.0) / lev_s if lev_s else 0.0,
        "kernels.order_stats_s": self_s.get("kernels.order_stats", 0.0),
        "footprint.build_s": self_s.get("footprint.build", 0.0),
        "matching.match_s": self_s.get("matching.match", 0.0),
        "compatibility.graph_s": self_s.get("compatibility.graph", 0.0),
        "compatibility.enumerate_s": self_s.get("compatibility.enumerate", 0.0),
        "scoring.score_s": self_s.get("scoring.score", 0.0),
        "scoring.rank_s": self_s.get("scoring.rank", 0.0),
        "scoring.kernel_calls_per_alignment": counts.get("kernels.levenshtein_calls", 0.0) / alignments if alignments else 0.0,
        "proctree.generate_s": self_s.get("proctree.generate", 0.0),
        "proctree.simulate_s": self_s.get("proctree.simulate", 0.0),
        "experiment.pair_s_p50": statistics.median(pair_times) if pair_times else 0.0,
        "experiment.pair_s_max": max(pair_times, default=0.0),
        "cli.report_s": self_s.get("cli", 0.0),
    }
    for name in COUNTERS:
        metrics[name] = counts.get(name, 0.0)
    return metrics


COUNTERS = (
    "eventlog.rows",
    "eventlog.variants",
    "eventlog.traces",
    "kernels.levenshtein_calls",
    "kernels.dp_cells",
    "kernels.order_stats_cells",
    "footprint.activities",
    "footprint.pairs_classified",
    "matching.matches",
    "matching.row_comparisons",
    "compatibility.nodes",
    "compatibility.edges",
    "compatibility.changes",
    "compatibility.truncations",
    "scoring.changes_scored",
    "scoring.alignments",
    "scoring.pools",
    "proctree.events_simulated",
)
