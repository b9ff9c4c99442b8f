"""Synthetic process trees: generation, tracked mutation, and log play-out.

Trees are block-structured with sequence, exclusive choice, parallel and
loop operators over uniquely named leaves.  They serve as the data factory
for the evaluation harness: a random tree yields the own log, a mutated
copy (with replacements recorded as ground truth) yields the benchmark
log, and ``tree_accepts`` provides an exact membership oracle for tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Sequence, Union

import numpy as np

from .errors import ConfigError
from .eventlog import Event, EventLog, Trace

SeedLike = Union[int, tuple[int, ...]]


@dataclass(frozen=True, slots=True)
class Leaf:
    name: str


@dataclass(frozen=True, slots=True)
class Seq:
    children: tuple["Node", ...]


@dataclass(frozen=True, slots=True)
class Xor:
    children: tuple["Node", ...]


@dataclass(frozen=True, slots=True)
class And:
    children: tuple["Node", ...]


@dataclass(frozen=True, slots=True)
class Loop:
    body: "Node"
    redo: "Node"

    @property
    def children(self) -> tuple["Node", "Node"]:
        return (self.body, self.redo)


Node = Union[Leaf, Seq, Xor, And, Loop]
ProcessTree = Node

_OP_NAMES = {Seq: "seq", Xor: "xor", And: "and", Loop: "loop"}


def leaves(tree: Node) -> tuple[str, ...]:
    """Leaf names in depth-first order."""
    if isinstance(tree, Leaf):
        return (tree.name,)
    out: list[str] = []
    for child in tree.children:
        out.extend(leaves(child))
    return tuple(out)


def tree_to_json(tree: Node) -> dict:
    if isinstance(tree, Leaf):
        return {"leaf": tree.name}
    return {"op": _OP_NAMES[type(tree)], "children": [tree_to_json(c) for c in tree.children]}


def tree_from_json(data: dict) -> Node:
    if "leaf" in data:
        return Leaf(str(data["leaf"]))
    children = tuple(tree_from_json(c) for c in data["children"])
    op = data["op"]
    if op == "seq":
        return Seq(children)
    if op == "xor":
        return Xor(children)
    if op == "and":
        return And(children)
    if op == "loop":
        if len(children) != 2:
            raise ConfigError("loop nodes need exactly a body and a redo child")
        return Loop(children[0], children[1])
    raise ConfigError(f"unknown tree operator {op!r}")


@dataclass(frozen=True)
class GenConfig:
    """Shape knobs for random tree construction.

    ``min_branch_leaves`` forces the children of choice, parallel and loop
    operators to be multi-activity blocks, which keeps alternative
    branches distinguishable by their behavior; with bare single-activity
    alternatives the branches are behaviorally interchangeable and every
    analysis of the resulting logs conflates them.
    """

    target_leaves: int = 10
    operator_weights: dict[str, float] = field(
        default_factory=lambda: {"seq": 0.5, "xor": 0.25, "and": 0.15, "loop": 0.1}
    )
    max_depth: int = 6
    max_children: int = 4
    min_branch_leaves: int = 2


def generate_process_tree(seed: SeedLike, config: GenConfig | None = None) -> Node:
    """Random block-structured tree with ``target_leaves`` leaves.

    Construction is top-down: pick an operator among those feasible for
    the remaining leaf budget and depth, split the budget across the
    children, recurse.  Leaves are labeled a1, a2, ... in creation order,
    so a fixed seed yields an identical tree.
    """
    config = config or GenConfig()
    if config.target_leaves < 1:
        raise ConfigError(f"target_leaves must be at least 1, got {config.target_leaves}")
    if config.max_children < 2:
        raise ConfigError(f"max_children must be at least 2, got {config.max_children}")
    if config.target_leaves >= 2 and config.max_depth < 2:
        raise ConfigError(
            f"max_depth {config.max_depth} cannot hold {config.target_leaves} leaves"
        )
    rng = np.random.default_rng(seed)
    counter = [0]

    def next_leaf() -> Leaf:
        counter[0] += 1
        return Leaf(f"a{counter[0]}")

    def split(budget: int, parts: int, minimum: int) -> list[int]:
        extra = budget - parts * minimum
        return list(minimum + rng.multinomial(extra, [1.0 / parts] * parts))

    def build(budget: int, depth_left: int) -> Node:
        if budget == 1:
            return next_leaf()
        composite_ok = depth_left >= 3 and budget >= 2 * config.min_branch_leaves
        names = ["seq"] + (["xor", "and", "loop"] if composite_ok else [])
        weights = np.array([config.operator_weights.get(n, 0.0) for n in names])
        if weights.sum() <= 0:
            weights = np.ones(len(names))
        op = names[int(rng.choice(len(names), p=weights / weights.sum()))]
        if op == "loop":
            body_budget, redo_budget = split(budget, 2, config.min_branch_leaves)
            return Loop(build(body_budget, depth_left - 1), build(redo_budget, depth_left - 1))
        if op in ("xor", "and"):
            k = int(rng.integers(2, min(config.max_children, budget // config.min_branch_leaves) + 1))
            parts = split(budget, k, config.min_branch_leaves)
            children = tuple(build(p, depth_left - 1) for p in parts)
            return Xor(children) if op == "xor" else And(children)
        if depth_left == 2:
            parts = [1] * budget
        else:
            k = int(rng.integers(2, min(config.max_children, budget) + 1))
            parts = split(budget, k, 1)
        return Seq(tuple(build(p, depth_left - 1) for p in parts))

    return build(config.target_leaves, config.max_depth)


@dataclass(frozen=True)
class GroundTruth:
    replacements: frozenset[tuple[str, str]]
    insertions: frozenset[str]
    deletions: frozenset[str]


@dataclass(frozen=True)
class MutationConfig:
    n_replacements: int = 1
    n_insertions: int = 0
    n_deletions: int = 0


def mutate_tree(tree: Node, seed: SeedLike, config: MutationConfig | None = None) -> tuple[Node, GroundTruth]:
    """Apply tracked leaf replacements, insertions and deletions.

    Replacements rename a uniformly chosen leaf to a fresh name; deletions
    remove a (different) leaf and collapse operators left with a single
    child; insertions splice a fresh leaf into a uniformly chosen sequence
    gap, wrapping the root in a sequence when the tree has none.
    """
    config = config or MutationConfig()
    for name, value in (
        ("n_replacements", config.n_replacements),
        ("n_insertions", config.n_insertions),
        ("n_deletions", config.n_deletions),
    ):
        if value < 0:
            raise ConfigError(f"{name} must be non-negative, got {value}")
    rng = np.random.default_rng(seed)
    original = leaves(tree)
    taken = config.n_replacements + config.n_deletions
    if taken > len(original) or config.n_deletions > len(original) - 1:
        raise ConfigError(
            f"tree has {len(original)} leaves; cannot replace {config.n_replacements} "
            f"and delete {config.n_deletions}"
        )
    existing = set(original)
    fresh_counter = [0]

    def fresh_name() -> str:
        while True:
            fresh_counter[0] += 1
            candidate = f"x{fresh_counter[0]}"
            if candidate not in existing:
                existing.add(candidate)
                return candidate

    picked = rng.choice(len(original), size=taken, replace=False)
    replaced = [original[int(i)] for i in picked[: config.n_replacements]]
    deleted = [original[int(i)] for i in picked[config.n_replacements:]]

    renames = {old: fresh_name() for old in replaced}
    mutated: Node | None = _rename_leaves(tree, renames)
    for name in deleted:
        mutated = _delete_leaf(mutated, name)
        assert mutated is not None  # guarded by the leaf-count check above
    inserted = []
    for _ in range(config.n_insertions):
        name = fresh_name()
        inserted.append(name)
        mutated = _insert_into_gap(mutated, name, rng)
    truth = GroundTruth(
        replacements=frozenset(renames.items()),
        insertions=frozenset(inserted),
        deletions=frozenset(deleted),
    )
    return mutated, truth


def _rename_leaves(node: Node, renames: dict[str, str]) -> Node:
    if isinstance(node, Leaf):
        return Leaf(renames.get(node.name, node.name))
    if isinstance(node, Loop):
        return Loop(_rename_leaves(node.body, renames), _rename_leaves(node.redo, renames))
    children = tuple(_rename_leaves(c, renames) for c in node.children)
    return type(node)(children)


def _delete_leaf(node: Node, name: str) -> Node | None:
    if isinstance(node, Leaf):
        return None if node.name == name else node
    if isinstance(node, Loop):
        body = _delete_leaf(node.body, name)
        redo = _delete_leaf(node.redo, name)
        if body is None:
            return redo
        if redo is None:
            return body
        return Loop(body, redo)
    kept = [c for c in (_delete_leaf(c, name) for c in node.children) if c is not None]
    if not kept:
        return None
    if len(kept) == 1:
        return kept[0]
    return type(node)(tuple(kept))


def _count_gaps(node: Node) -> int:
    if isinstance(node, Leaf):
        return 0
    total = len(node.children) + 1 if isinstance(node, Seq) else 0
    return total + sum(_count_gaps(c) for c in node.children)


def _insert_into_gap(node: Node, name: str, rng: np.random.Generator) -> Node:
    total = _count_gaps(node)
    if total == 0:
        pair = (Leaf(name), node) if rng.integers(2) == 0 else (node, Leaf(name))
        return Seq(pair)
    box = [int(rng.integers(total))]

    def rebuild(current: Node) -> Node:
        if isinstance(current, Leaf):
            return current
        if isinstance(current, Loop):
            return Loop(rebuild(current.body), rebuild(current.redo))
        if not isinstance(current, Seq):
            return type(current)(tuple(rebuild(c) for c in current.children))
        out: list[Node] = []
        for child in current.children:
            if box[0] == 0:
                out.append(Leaf(name))
            box[0] -= 1
            out.append(rebuild(child))
        if box[0] == 0:
            out.append(Leaf(name))
        box[0] -= 1
        return Seq(tuple(out))

    return rebuild(node)


@dataclass(frozen=True)
class SimConfig:
    n_traces: int = 1000
    noise_probability: float = 0.05
    max_loop_iterations: int = 3
    seed: SeedLike = 0
    with_performance: bool = False

    def __post_init__(self) -> None:
        if self.max_loop_iterations < 1:
            raise ConfigError("max_loop_iterations must be at least 1")
        if not 0.0 <= self.noise_probability <= 1.0:
            raise ConfigError("noise_probability must lie in [0, 1]")


_EPOCH = datetime(2024, 1, 1)


def _derive(seed: SeedLike, *extra: int) -> tuple[int, ...]:
    base = (seed,) if isinstance(seed, int) else tuple(seed)
    return base + extra


def _play_out(node: Node, rng: np.random.Generator, max_loop: int) -> list[str]:
    if isinstance(node, Leaf):
        return [node.name]
    if isinstance(node, Seq):
        out: list[str] = []
        for child in node.children:
            out.extend(_play_out(child, rng, max_loop))
        return out
    if isinstance(node, Xor):
        return _play_out(node.children[int(rng.integers(len(node.children)))], rng, max_loop)
    if isinstance(node, And):
        parts = [_play_out(c, rng, max_loop) for c in node.children]
        return _random_merge(parts, rng)
    out = _play_out(node.body, rng, max_loop)
    runs = 1
    while runs < max_loop and rng.random() < 0.5:
        out.extend(_play_out(node.redo, rng, max_loop))
        out.extend(_play_out(node.body, rng, max_loop))
        runs += 1
    return out


def _random_merge(parts: list[list[str]], rng: np.random.Generator) -> list[str]:
    """Uniformly random interleaving: each step draws the next source with
    probability proportional to its remaining length."""
    positions = [0] * len(parts)
    remaining = [len(p) for p in parts]
    total = sum(remaining)
    out: list[str] = []
    while total:
        r = int(rng.integers(total))
        for i, count in enumerate(remaining):
            if r < count:
                out.append(parts[i][positions[i]])
                positions[i] += 1
                remaining[i] -= 1
                total -= 1
                break
            r -= count
    return out


def simulate_log(tree: Node, sim: SimConfig) -> EventLog:
    """Independent play-outs with synthetic strictly increasing timestamps.

    Each trace gets its own random stream derived from (seed, trace
    index), so simulation is reproducible and scheduling-independent.
    Control-flow noise is applied afterwards when configured.
    """
    traces: dict[str, Trace] = {}
    for i in range(sim.n_traces):
        rng = np.random.default_rng(_derive(sim.seed, i))
        sequence = _play_out(tree, rng, sim.max_loop_iterations)
        case_id = f"c{i + 1}"
        start = _EPOCH + timedelta(minutes=i)
        events = tuple(
            Event(case_id, name, start + timedelta(seconds=j)) for j, name in enumerate(sequence)
        )
        performance = float(-(len(events) - 1)) if sim.with_performance else None
        traces[case_id] = Trace(case_id, events, performance)
    log = EventLog(traces)
    if sim.noise_probability > 0:
        # derived stream index n_traces cannot collide with any per-trace stream
        log = inject_noise(log, _derive(sim.seed, sim.n_traces), sim.noise_probability)
    return log


def inject_noise(log: EventLog, seed: SeedLike, probability: float) -> EventLog:
    """With the given probability per trace, apply exactly one perturbation:
    swap two adjacent events, delete one event, or duplicate one in place.

    Perturbations that cannot apply to a trace (swapping or deleting on a
    single event) are excluded from the uniform draw.  Timestamps are
    re-spaced from the trace's original start.
    """
    if not 0.0 <= probability <= 1.0:
        raise ConfigError("noise probability must lie in [0, 1]")
    traces: dict[str, Trace] = {}
    for index, (case_id, trace) in enumerate(log.traces.items()):
        rng = np.random.default_rng(_derive(seed, index))
        if rng.random() >= probability:
            traces[case_id] = trace
            continue
        names = list(t.activity for t in trace.events)
        kinds = ["duplicate"] + (["swap", "delete"] if len(names) >= 2 else [])
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "swap":
            j = int(rng.integers(len(names) - 1))
            names[j], names[j + 1] = names[j + 1], names[j]
        elif kind == "delete":
            del names[int(rng.integers(len(names)))]
        else:
            j = int(rng.integers(len(names)))
            names.insert(j + 1, names[j])
        first_key = trace.events[0].order_key
        if isinstance(first_key, datetime):
            keys = [first_key + timedelta(seconds=j) for j in range(len(names))]
        else:
            keys = list(range(len(names)))
        events = tuple(Event(case_id, name, key) for name, key in zip(names, keys))
        traces[case_id] = Trace(case_id, events, trace.performance)
    return EventLog(traces)


def tree_accepts(tree: Node, variant: Sequence[str], max_loop_iterations: int | None = None) -> bool:
    """Exact play-out language membership.

    Leaf names are unique within a tree, so every symbol of the variant
    belongs to at most one child of any operator node; projecting the
    variant onto the children decides membership without search.
    """
    alphabets: dict[int, frozenset[str]] = {}

    def alphabet(node: Node) -> frozenset[str]:
        known = alphabets.get(id(node))
        if known is None:
            if isinstance(node, Leaf):
                known = frozenset((node.name,))
            else:
                known = frozenset().union(*(alphabet(c) for c in node.children))
            alphabets[id(node)] = known
        return known

    def accepts(node: Node, seq: tuple[str, ...]) -> bool:
        if not seq:
            return False
        if isinstance(node, Leaf):
            return seq == (node.name,)
        owner: dict[str, int] = {}
        for i, child in enumerate(node.children):
            for symbol in alphabet(child):
                owner[symbol] = i
        assigned = []
        for symbol in seq:
            child_index = owner.get(symbol)
            if child_index is None:
                return False
            assigned.append(child_index)
        if isinstance(node, Xor):
            target = assigned[0]
            if any(i != target for i in assigned):
                return False
            return accepts(node.children[target], seq)
        if isinstance(node, Seq):
            if any(b < a for a, b in zip(assigned, assigned[1:])):
                return False
            blocks = _blocks(seq, assigned)
            if [i for i, _ in blocks] != list(range(len(node.children))):
                return False
            return all(accepts(node.children[i], block) for i, block in blocks)
        if isinstance(node, And):
            projections: list[list[str]] = [[] for _ in node.children]
            for symbol, child_index in zip(seq, assigned):
                projections[child_index].append(symbol)
            return all(accepts(child, tuple(p)) for child, p in zip(node.children, projections))
        runs = _blocks(seq, assigned)
        expected = [i % 2 for i in range(len(runs))]
        if len(runs) % 2 == 0 or [i for i, _ in runs] != expected:
            return False
        body_runs = (len(runs) + 1) // 2
        if max_loop_iterations is not None and body_runs > max_loop_iterations:
            return False
        return all(
            accepts(node.body if i == 0 else node.redo, block) for i, block in runs
        )

    return accepts(tree, tuple(variant))


def _blocks(seq: tuple[str, ...], assigned: list[int]) -> list[tuple[int, tuple[str, ...]]]:
    """Split a sequence into maximal runs of equal child assignment."""
    out: list[tuple[int, tuple[str, ...]]] = []
    start = 0
    for i in range(1, len(seq) + 1):
        if i == len(seq) or assigned[i] != assigned[start]:
            out.append((assigned[start], seq[start:i]))
            start = i
    return out
