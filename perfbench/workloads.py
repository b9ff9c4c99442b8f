"""Workload definitions: seeded inputs, output digests and output checks.

Every CSV workload fixes a process model (tree seed and mutation) and lets
the benchmark seed drive the play-out of both logs.  The models were picked
so that the footprints, and so the set of scored changes, come out the same
for every play-out seed: the run time then depends on the seed only through
the sampled traces, not through a different number of changes (with other
tree seeds the change count swings from 0 to hundreds between play-outs).
See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

# Everything the lab generates is imported lazily, so that this module can be
# imported (for the digest and check helpers) without the package on the path.


@dataclass(frozen=True)
class CsvWorkload:
    """`execbench benchmark` on two generated CSV logs."""

    name: str
    leaves: int
    tree_seed: int
    traces: int
    shape: str  # "default": GenConfig defaults; "lab": ExperimentConfig weights
    max_depth: int
    noise: float
    performance: bool
    tiny_leaves: int
    tiny_traces: int

    kind = "cli"


@dataclass(frozen=True)
class EvalWorkload:
    """`run_experiment` on a slice of the synthetic lab."""

    name: str
    config: dict
    tiny_config: dict

    kind = "eval"


WORKLOADS = {
    w.name: w
    for w in (
        EvalWorkload(
            "eval-slice",
            config={"n_pairs": 7, "n_traces": 500},
            tiny_config={"n_pairs": 2, "n_traces": 40},
        ),
        CsvWorkload(
            "pair-60", leaves=60, tree_seed=44, traces=150, shape="default", max_depth=6,
            noise=0.0, performance=True, tiny_leaves=60, tiny_traces=20,
        ),
        CsvWorkload(
            "wide-300", leaves=300, tree_seed=17, traces=70, shape="lab", max_depth=8,
            noise=0.05, performance=False, tiny_leaves=40, tiny_traces=20,
        ),
        CsvWorkload(
            "ingest-20k", leaves=60, tree_seed=13, traces=20_000, shape="lab", max_depth=5,
            noise=0.05, performance=False, tiny_leaves=60, tiny_traces=200,
        ),
    )
}

MUTATION = (3, 1, 1)  # replacements, insertions, deletions
# Leaves and traces of the warm-up input, which only has to reach every code path.
WARMUP_SIZE = (12, 10)


def size_of(workload: CsvWorkload, size: str) -> tuple[int, int]:
    """Leaves and traces per log for "full", "tiny" or "warmup"."""
    if size == "warmup":
        return WARMUP_SIZE
    if size == "tiny":
        return workload.tiny_leaves, workload.tiny_traces
    return workload.leaves, workload.traces


def _gen_config(workload: CsvWorkload, leaves: int):
    from execbench import GenConfig
    from execbench.experiment import ExperimentConfig

    if workload.shape == "default":
        return GenConfig(target_leaves=leaves, max_depth=workload.max_depth)
    return ExperimentConfig(max_tree_depth=workload.max_depth).gen_config(leaves)


def generate_logs(workload: CsvWorkload, seed: int, size: str):
    """The own and benchmark logs for one play-out seed."""
    from execbench import MutationConfig, SimConfig, generate_process_tree, mutate_tree, simulate_log

    leaves, traces = size_of(workload, size)
    tree = generate_process_tree(workload.tree_seed, _gen_config(workload, leaves))
    mutated, _ = mutate_tree(tree, (workload.tree_seed, 1), MutationConfig(*MUTATION))
    logs = []
    for side, model in enumerate((tree, mutated)):
        sim = SimConfig(
            n_traces=traces,
            noise_probability=workload.noise,
            seed=(seed, side),
            with_performance=workload.performance,
        )
        logs.append(simulate_log(model, sim))
    return logs


def write_inputs(workload: CsvWorkload, seed: int, size: str, directory: str) -> dict:
    """Write own.csv and benchmark.csv; return their paths and input counts."""
    from execbench import write_event_log

    own, bench = generate_logs(workload, seed, size)
    paths = {}
    for label, log in (("own", own), ("benchmark", bench)):
        path = os.path.join(directory, f"{label}.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            write_event_log(log, handle)
        paths[label] = path
    counts = input_counts(own, bench)
    return {"paths": paths, "counts": counts, "logs": (own, bench)}


def input_counts(own, bench) -> dict:
    variants = [{t.variant for t in log.traces.values()} for log in (own, bench)]
    return {
        "traces": len(own) + len(bench),
        "rows": sum(len(t.events) for log in (own, bench) for t in log.traces.values()),
        "variants": len(variants[0]) + len(variants[1]),
        "activities": len(own.alphabet) + len(bench.alphabet),
    }


def cli_argv(workload: CsvWorkload, paths: dict) -> list[str]:
    # --format json on every CSV workload: the digest needs the changes array,
    # and the JSON report is what a caller consumes.
    return ["benchmark", paths["own"], paths["benchmark"], "--format", "json"]


def eval_config(workload: EvalWorkload, tiny: bool) -> dict:
    return dict(workload.tiny_config if tiny else workload.config)


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cli_digest(report: dict) -> str:
    """Digest of the ranked changes only; config and diagnostics are left out."""
    return _sha(report["changes"])


EVAL_DIGEST_FIELDS = (
    "index",
    "precision",
    "recall",
    "technique_feasibility",
    "technique_feasibility_median",
    "baseline_feasibility",
    "baseline_feasibility_median",
    "n_changes_technique",
    "n_changes_baseline",
    "feasibility_skipped",
)


def eval_digest(pairs: list[dict]) -> str:
    return _sha([[pair.get(key) for key in EVAL_DIGEST_FIELDS] for pair in pairs])


# ---------------------------------------------------------------- output checks


# Alignments per report whose similarity and optimality are recomputed.
CHECKED_ALIGNMENTS = 30


def edit_distances(query, candidates) -> list[int]:
    """Token edit distance from ``query`` to each candidate.

    The textbook cell-by-cell DP, vectorized across candidates only; it
    shares no code or trick with the package's kernels.
    """
    import numpy as np

    codes: dict = {}
    width = max((len(c) for c in candidates), default=0)
    table = np.full((len(candidates), width), -1)
    for row, candidate in enumerate(candidates):
        table[row, : len(candidate)] = [codes.setdefault(t, len(codes)) for t in candidate]
    previous = np.tile(np.arange(width + 1), (len(candidates), 1))
    for i, token in enumerate(query, start=1):
        code = codes.get(token, -2)
        current = np.empty_like(previous)
        current[:, 0] = i
        for j in range(1, width + 1):
            current[:, j] = np.minimum(
                np.minimum(previous[:, j], current[:, j - 1]) + 1,
                previous[:, j - 1] + (table[:, j - 1] != code),
            )
        previous = current
    lengths = [len(c) for c in candidates]
    return [int(previous[row, length]) for row, length in enumerate(lengths)]


def check_cli_report(report: dict, own, bench) -> list[str]:
    """Recompute what the report claims from the generated logs.

    Checks every change's affected variants, frequencies, feasibility sum
    and the ranking order.  For up to CHECKED_ALIGNMENTS alignments spread
    over the report, it recomputes the edit similarity and checks that no
    benchmark candidate has a strictly higher one.  Returns the problems.
    """
    problems: list[str] = []
    own_freq: dict[tuple, int] = {}
    for trace in own.traces.values():
        own_freq[trace.variant] = own_freq.get(trace.variant, 0) + 1
    bench_variants = sorted({t.variant for t in bench.traces.values()})
    bench_set = set(bench_variants)
    changes = report["changes"]
    sampled = []
    for rank, change in enumerate(changes):
        where = f"change {rank}"
        mapping = {r["own"]: r["benchmark"] for r in change["replacements"]}
        if len(mapping) != len(change["replacements"]):
            problems.append(f"{where}: an own activity is replaced twice")
        targets = set(mapping.values())
        affected = {v for v in own_freq if set(v) & set(mapping)}
        alignments = change["alignments"]
        if {tuple(a["original"]) for a in alignments} != affected or len(alignments) != len(affected):
            problems.append(f"{where}: alignments do not cover exactly the affected variants")
            continue
        weight = sum(a["frequency"] for a in alignments)
        if weight != change["affected_traces"]:
            problems.append(f"{where}: affected_traces {change['affected_traces']} != {weight}")
        feasibility = sum(a["frequency"] * a["similarity"] for a in alignments) / weight
        if abs(feasibility - change["feasibility"]) > 1e-9:
            problems.append(f"{where}: feasibility {change['feasibility']} != {feasibility}")
        for a in alignments:
            original, modified, matched = (tuple(a[key]) for key in ("original", "modified", "matched"))
            if a["frequency"] != own_freq[original]:
                problems.append(f"{where}: wrong frequency for an alignment")
            if modified != tuple(mapping.get(x, x) for x in original):
                problems.append(f"{where}: modified variant is not the mapped original")
            if not targets & set(matched) or matched not in bench_set:
                problems.append(f"{where}: matched variant is not a benchmark candidate")
                continue  # no similarity to recompute against its pool
            sampled.append((where, targets, a))
    stride = max(1, -(-len(sampled) // CHECKED_ALIGNMENTS))
    for where, targets, a in sampled[::stride]:
        modified, matched = tuple(a["modified"]), tuple(a["matched"])
        pool = [v for v in bench_variants if targets & set(v)]  # holds matched, checked above
        distances = edit_distances(modified, pool)
        d_best = distances[pool.index(matched)]
        m_best = max(len(modified), len(matched))
        if abs(1.0 - d_best / m_best - a["similarity"]) > 1e-12:
            problems.append(f"{where}: similarity {a['similarity']} != {1.0 - d_best / m_best}")
        # A strictly closer candidate has d / M < d_best / M_best (in integers).
        if any(d * m_best < d_best * max(len(modified), len(v)) for d, v in zip(distances, pool)):
            problems.append(f"{where}: a closer benchmark variant exists")
    keys = [
        (
            -(c["performance_impact"] if c["performance_impact"] is not None else 0.0),
            -c["feasibility"],
        )
        for c in changes
    ]
    if keys != sorted(keys):
        problems.append("changes are not ranked by impact, then feasibility")
    return problems


def check_eval_pairs(pairs: list[dict], config: dict) -> list[str]:
    problems = []
    limit = config.get("max_changes_per_pair", 200)
    for pair in pairs:
        where = f"pair {pair['index']}"
        for key in ("precision", "recall", "technique_feasibility", "baseline_feasibility"):
            value = pair.get(key)
            if value is not None and not 0.0 <= value <= 1.0:
                problems.append(f"{where}: {key} {value} outside [0, 1]")
        for key in ("n_changes_technique", "n_changes_baseline"):
            if not 0 <= pair.get(key, 0) <= limit:
                problems.append(f"{where}: {key} outside [0, {limit}]")
    return problems
