"""End-to-end synthetic evaluation with a random-matching baseline.

For each pair, a random tree yields the own log and a mutated copy the
benchmark log.  Matching quality is measured as precision and recall of
the predicted replacements against the mutation ground truth; feasibility
of the technique's grouped changes is compared against changes built from
uniformly sampled activity pairs of the same cardinality.
"""

from __future__ import annotations

import json
import statistics
import warnings
from dataclasses import asdict, dataclass, fields, replace
from typing import Iterable

import numpy as np

from .compatibility import DEFAULT_MAX_CHANGE_SIZE, build_compatibility_graph, count_changes, enumerate_changes
from .errors import ConfigError, SamplingWarning, check_int
# Not called here: it stays bound because perfbench/tracing.py wraps it
# under this name and reports a name it cannot find as absent.
from .eventlog import extract_variants  # noqa: F401
from .footprint import DEFAULT_EXCLUSIVENESS_THRESHOLD, DEFAULT_INTERLEAVING_THRESHOLD, build_footprint_matrix
from .matching import Match, MatchSet, match_activities
from .proctree import (
    GenConfig,
    GroundTruth,
    MutationConfig,
    Node,
    SeedLike,
    SimConfig,
    _derive,
    _seed_words,
    generate_process_tree,
    mutate_tree,
    simulate_log,
    simulate_variants,
)
from .scoring import BenchmarkConfig, ChangeScorer

# The lab's tree shape: sequence-dominant models with at most 3 branches
# mirror standardized enterprise processes, long step chains with occasional
# choices, concurrency and rework.  Flat bushy models make mutation sites
# behaviorally interchangeable and say little about matching quality.
_LAB_OPERATOR_WEIGHTS = {"seq": 0.75, "xor": 0.15, "and": 0.07, "loop": 0.03}
_LAB_MAX_CHILDREN = 3


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of the synthetic evaluation, echoed into every report."""

    n_pairs: int = 100
    n_traces: int = 500
    noise_probability: float = 0.05
    leaves_range: tuple[int, int] = (18, 30)
    replacements_range: tuple[int, int] = (1, 3)
    insertions_range: tuple[int, int] = (0, 2)
    deletions_range: tuple[int, int] = (0, 2)
    max_tree_depth: int = 5
    exc_threshold: float = DEFAULT_EXCLUSIVENESS_THRESHOLD
    int_threshold: float = DEFAULT_INTERLEAVING_THRESHOLD
    max_change_size: int = DEFAULT_MAX_CHANGE_SIZE
    max_changes_per_pair: int = 200
    max_loop_iterations: int = 3
    master_seed: SeedLike = 42

    def __post_init__(self) -> None:
        for name, least in (("n_pairs", 0), ("n_traces", 1), ("max_changes_per_pair", 0)):
            check_int(name, getattr(self, name), least)
        check_int("max_tree_depth", self.max_tree_depth, 1)
        _seed_words(self.master_seed, "master_seed")
        for name, least in (
            ("leaves_range", 1),
            ("replacements_range", 0),
            ("insertions_range", 0),
            ("deletions_range", 0),
        ):
            try:
                low, high = getattr(self, name)
            except (TypeError, ValueError):
                raise ConfigError(f"{name} must be a (min, max) pair, got {getattr(self, name)!r}") from None
            check_int(name, low)
            check_int(name, high)
            if not least <= low <= high:
                raise ConfigError(f"{name} must satisfy {least} <= min <= max, got ({low}, {high})")
        if self.max_tree_depth < 2 and self.leaves_range[1] >= 2:
            raise ConfigError(
                f"max_tree_depth {self.max_tree_depth} cannot hold {self.leaves_range[1]} leaves; it must be at least 2"
            )
        # Every other field is checked by the config it is passed on to.
        self.gen_config(self.leaves_range[1])
        self.sim_config(0)
        BenchmarkConfig(self.exc_threshold, self.int_threshold, self.max_change_size)
        # The check mutate_tree makes, on the largest draws and the smallest tree.
        leaves, replaced, deleted = self.leaves_range[0], self.replacements_range[1], self.deletions_range[1]
        if replaced + deleted > leaves or deleted >= leaves:
            raise ConfigError(
                f"replacements_range and deletions_range must fit leaves_range: a tree of {leaves} "
                f"leaves cannot replace {replaced} and delete {deleted}"
            )
        # Plain numbers, so that the run and its echo in the report do not
        # depend on the numpy scalars the config was built from.
        for f in fields(self):
            object.__setattr__(self, f.name, _plain(getattr(self, f.name)))

    def gen_config(self, target_leaves: int) -> GenConfig:
        return GenConfig(
            target_leaves=target_leaves,
            operator_weights=dict(_LAB_OPERATOR_WEIGHTS),
            max_depth=self.max_tree_depth,
            max_children=_LAB_MAX_CHILDREN,
        )

    def sim_config(self, seed: SeedLike) -> SimConfig:
        return SimConfig(
            n_traces=self.n_traces,
            noise_probability=self.noise_probability,
            max_loop_iterations=self.max_loop_iterations,
            seed=seed,
        )


def _plain(value):
    """``value`` with each numpy scalar, also inside tuples and lists, made a Python scalar."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (tuple, list)):
        return tuple(map(_plain, value))
    return value


@dataclass(frozen=True)
class PairRecord:
    index: int
    precision: float | None = None
    recall: float | None = None
    n_predicted: int = 0
    n_truth: int = 0
    technique_feasibility: float | None = None
    technique_feasibility_median: float | None = None
    baseline_feasibility: float | None = None
    baseline_feasibility_median: float | None = None
    n_changes_technique: int = 0
    n_changes_baseline: int = 0
    feasibility_skipped: str | None = None
    error: str | None = None


@dataclass(frozen=True)
class ExperimentReport:
    config: dict
    pairs: tuple[PairRecord, ...]

    def aggregates(self) -> dict:
        ok = [p for p in self.pairs if p.error is None]
        feasible = [p for p in ok if p.technique_feasibility is not None]
        return {
            "pairs_requested": len(self.pairs),
            "pairs_evaluated": len(ok),
            "pairs_failed": len(self.pairs) - len(ok),
            "pairs_without_matches": sum(1 for p in ok if p.feasibility_skipped == "no-matches"),
            "pairs_over_change_limit": sum(1 for p in ok if p.feasibility_skipped == "change-limit"),
            "mean_precision": _mean(p.precision for p in ok),
            "mean_recall": _mean(p.recall for p in ok),
            "mean_technique_feasibility": _mean(p.technique_feasibility for p in feasible),
            "median_technique_feasibility": _median(p.technique_feasibility for p in feasible),
            "mean_baseline_feasibility": _mean(p.baseline_feasibility for p in feasible),
            "median_baseline_feasibility": _median(p.baseline_feasibility for p in feasible),
        }

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "aggregates": self.aggregates(),
            "pairs": [asdict(p) for p in self.pairs],
        }
        return json.dumps(payload, indent=2)

    def summary_table(self) -> str:
        agg = self.aggregates()
        rows = [
            ("Precision", agg["mean_precision"], None),
            ("Recall", agg["mean_recall"], None),
            ("Feasibility score", agg["mean_technique_feasibility"], agg["mean_baseline_feasibility"]),
        ]
        lines = [f"{'Metric':<20}{'Technique':>12}{'Baseline':>12}"]
        for name, technique, baseline in rows:
            t = "-" if technique is None else f"{technique:.3f}"
            b = "-" if baseline is None else f"{baseline:.3f}"
            lines.append(f"{name:<20}{t:>12}{b:>12}")
        lines.append("")
        lines.append(
            f"pairs evaluated: {agg['pairs_evaluated']}"
            f" (failed: {agg['pairs_failed']},"
            f" without matches: {agg['pairs_without_matches']},"
            f" over change limit: {agg['pairs_over_change_limit']})"
        )
        return "\n".join(lines)


def _mean(values: Iterable[float | None]) -> float | None:
    collected = [v for v in values if v is not None]
    return sum(collected) / len(collected) if collected else None


def _median(values: Iterable[float | None]) -> float | None:
    collected = [v for v in values if v is not None]
    return statistics.median(collected) if collected else None


def precision_recall(predicted: MatchSet, truth: GroundTruth) -> tuple[float, float]:
    """Precision and recall of predicted matches against true replacements.

    An empty prediction set has precision 1.0 by convention; an empty
    ground truth yields recall 1.0.  Insertions and deletions are not
    replacements and never count.
    """
    pairs = {(m.own, m.benchmark) for m in predicted.matches}
    true_pairs = set(truth.replacements)
    tp = len(pairs & true_pairs)
    precision = tp / len(pairs) if pairs else 1.0
    recall = tp / len(true_pairs) if true_pairs else 1.0
    return precision, recall


def random_baseline(
    own_activities: Iterable[str],
    benchmark_activities: Iterable[str],
    n: int,
    seed: SeedLike,
) -> MatchSet:
    """Uniform sample of n distinct non-trivial cross-log activity pairs."""
    check_int("n", n, 0)
    _seed_words(seed)  # raises ConfigError on a bad seed
    own = sorted(set(own_activities))
    bench = sorted(set(benchmark_activities))
    pool = [(a, b) for a in own for b in bench if a != b]
    if n > len(pool):
        warnings.warn(
            f"requested {n} baseline matches but only {len(pool)} pairs exist; capping",
            SamplingWarning,
            stacklevel=2,
        )
        n = len(pool)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(pool), size=n, replace=False)
    matches = tuple(sorted(Match(*pool[int(i)]) for i in chosen))
    return MatchSet(matches)


@dataclass(frozen=True)
class PairData:
    """One generated own/benchmark pair with its mutation ground truth."""

    tree: object
    mutated: object
    truth: GroundTruth
    own_log: object
    benchmark_log: object


def _draw_models(config: ExperimentConfig, index: int) -> tuple[tuple[int, ...], Node, Node, GroundTruth]:
    """The pair seed, the tree, its mutated copy and the mutation ground truth of one pair index.

    All randomness derives from (master_seed, pair index), the master seed's
    parts followed by the index, so any single pair can be regenerated
    without replaying the others.  The pair seed followed by 3 seeds the
    own play-out, by 4 the benchmark play-out and by 5 the baseline.
    """
    seed = _derive(config.master_seed, index)
    knobs = np.random.default_rng(seed + (0,))
    target_leaves = int(knobs.integers(config.leaves_range[0], config.leaves_range[1] + 1))
    mutation = MutationConfig(
        n_replacements=int(knobs.integers(config.replacements_range[0], config.replacements_range[1] + 1)),
        n_insertions=int(knobs.integers(config.insertions_range[0], config.insertions_range[1] + 1)),
        n_deletions=int(knobs.integers(config.deletions_range[0], config.deletions_range[1] + 1)),
    )
    tree = generate_process_tree(seed + (1,), config.gen_config(target_leaves))
    mutated, truth = mutate_tree(tree, seed + (2,), mutation)
    return seed, tree, mutated, truth


def generate_pair(config: ExperimentConfig, index: int) -> PairData:
    """Tree, mutated tree and the two simulated logs for one pair index.

    The logs are what ``execbench synth`` writes.  :func:`run_pair` scores
    the same play-outs from their variants and builds neither log.
    """
    seed, tree, mutated, truth = _draw_models(config, index)
    own_log = simulate_log(tree, config.sim_config(seed + (3,)))
    bench_log = simulate_log(mutated, config.sim_config(seed + (4,)))
    return PairData(tree, mutated, truth, own_log, bench_log)


def run_pair(config: ExperimentConfig, index: int) -> PairRecord:
    """Generate, mutate, simulate and evaluate one log pair.

    The pair is :func:`generate_pair`'s, but each log is played out
    straight into its variant index (:func:`simulate_variants`), because
    the evaluation reads a log only through its variants and their counts.
    """
    seed, tree, mutated, truth = _draw_models(config, index)
    own_index = simulate_variants(tree, config.sim_config(seed + (3,)))
    bench_index = simulate_variants(mutated, config.sim_config(seed + (4,)))
    own_matrix = build_footprint_matrix(None, config.exc_threshold, config.int_threshold, own_index)
    bench_matrix = build_footprint_matrix(None, config.exc_threshold, config.int_threshold, bench_index)
    predicted = match_activities(own_matrix, bench_matrix)
    precision, recall = precision_recall(predicted, truth)

    record = PairRecord(index, precision, recall, len(predicted.matches), len(truth.replacements))
    if not predicted.matches:
        return replace(record, feasibility_skipped="no-matches")
    sampled = random_baseline(own_index.activities, bench_index.activities, len(predicted.matches), seed + (5,))
    graphs = [build_compatibility_graph(predicted), build_compatibility_graph(sampled)]
    if any(count_changes(g, config.max_change_size) > config.max_changes_per_pair for g in graphs):
        return replace(record, feasibility_skipped="change-limit")
    technique_changes, baseline_changes = (enumerate_changes(g, config.max_change_size) for g in graphs)
    scorer = ChangeScorer(own_index, bench_index)
    scores = [s.feasibility for s in scorer.score_all(technique_changes + baseline_changes)]
    technique_scores = scores[: len(technique_changes)]
    baseline_scores = scores[len(technique_changes) :]
    return replace(
        record,
        technique_feasibility=_mean(technique_scores),
        technique_feasibility_median=_median(technique_scores),
        baseline_feasibility=_mean(baseline_scores),
        baseline_feasibility_median=_median(baseline_scores),
        n_changes_technique=len(technique_scores),
        n_changes_baseline=len(baseline_scores),
    )


def run_experiment(config: ExperimentConfig | None = None) -> ExperimentReport:
    """Evaluate all pairs in index order; failures are recorded per pair, never fatal."""
    config = config or ExperimentConfig()
    records = []
    for index in range(config.n_pairs):
        try:
            records.append(run_pair(config, index))
        except Exception as exc:  # noqa: BLE001 - per-pair isolation is the contract
            records.append(PairRecord(index=index, error=f"{type(exc).__name__}: {exc}"))
    return ExperimentReport(config=asdict(config), pairs=tuple(records))
