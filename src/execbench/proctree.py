"""Synthetic process trees: generation, tracked mutation, and log play-out.

Trees are block-structured with sequence, exclusive choice, parallel and
loop operators over uniquely named leaves.  They serve as the data factory
for the evaluation harness: a random tree yields the own log, a mutated
copy (with replacements recorded as ground truth) yields the benchmark
log.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Callable, Sequence, Union

import numpy as np

from .errors import ConfigError, check_fraction, check_int
from .eventlog import EventLog, Trace

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

_OPERATORS = {"seq": Seq, "xor": Xor, "and": And, "loop": Loop}
_OP_NAMES = {cls: name for name, cls in _OPERATORS.items()}


def leaves(tree: Node) -> tuple[str, ...]:
    """Leaf names in depth-first order."""
    if isinstance(tree, Leaf):
        return (tree.name,)
    return tuple(name for child in tree.children for name in leaves(child))


def tree_to_json(tree: Node) -> dict:
    if isinstance(tree, Leaf):
        return {"leaf": tree.name}
    return {"op": _OP_NAMES[type(tree)], "children": [tree_to_json(c) for c in tree.children]}


def tree_from_json(data: dict) -> Node:
    """The tree :func:`tree_to_json` wrote; a :class:`ConfigError` says what a
    malformed node lacks, or names a leaf that is blank, padded or repeated."""
    tree = _node_from_json(data)
    _check_unique(leaves(tree))
    return tree


def _check_unique(names: Sequence[str]) -> None:
    repeated = [name for name, count in Counter(names).items() if count > 1]
    if repeated:
        raise ConfigError(f"leaf name {repeated[0]!r} appears more than once in the tree")


def _node_from_json(data: dict) -> Node:
    if not isinstance(data, dict) or not ("leaf" in data or "op" in data):
        raise ConfigError(f"a tree node must be an object with a 'leaf' or an 'op' key, got {data!r}")
    if "leaf" in data:
        name = data["leaf"]
        if not (isinstance(name, str) and name and name == name.strip()):
            raise ConfigError(f"a leaf name must be a non-empty string without surrounding whitespace, got {name!r}")
        return Leaf(name)
    op, children = data["op"], data.get("children")
    if not (isinstance(op, str) and op in _OPERATORS):
        raise ConfigError(f"unknown tree operator {op!r}")
    if not (isinstance(children, list) and children):
        raise ConfigError(f"{op} node needs a non-empty list of children, got {children!r}")
    nodes = tuple(_node_from_json(c) for c in children)
    if op != "loop":
        return _OPERATORS[op](nodes)
    if len(nodes) != 2:
        raise ConfigError("loop nodes need exactly a body and a redo child")
    return Loop(*nodes)


# Choice, parallel and loop operators get children of at least this many
# leaves, which keeps alternative branches distinguishable by their behavior;
# with bare single-activity alternatives the branches are behaviorally
# interchangeable and every analysis of the resulting logs conflates them.
_MIN_BRANCH_LEAVES = 2


@dataclass(frozen=True)
class GenConfig:
    """Shape knobs for random tree construction."""

    target_leaves: int = 10
    operator_weights: dict[str, float] = field(
        default_factory=lambda: {"seq": 0.5, "xor": 0.25, "and": 0.15, "loop": 0.1}
    )
    max_depth: int = 6
    max_children: int = 4

    def __post_init__(self) -> None:
        check_int("target_leaves", self.target_leaves, 1)
        check_int("max_children", self.max_children, 2)
        check_int("max_depth", self.max_depth, 1)
        if self.target_leaves >= 2 and self.max_depth < 2:
            raise ConfigError(f"max_depth {self.max_depth} cannot hold {self.target_leaves} leaves")
        for operator, weight in self.operator_weights.items():
            if operator not in _OPERATORS:
                raise ConfigError(f"operator_weights: unknown operator {operator!r}, expected seq, xor, and or loop")
            if not (isinstance(weight, numbers.Real) and math.isfinite(weight) and weight >= 0.0):
                raise ConfigError(f"operator_weights: {operator!r} needs a finite weight of at least 0, got {weight!r}")


def generate_process_tree(seed: SeedLike, config: GenConfig | None = None) -> Node:
    """Random block-structured tree with ``target_leaves`` leaves.

    Construction is top-down: pick an operator among those feasible for
    the remaining leaf budget and depth, split the budget across the
    children, recurse.  Leaves are labeled a1, a2, ... in creation order,
    so a fixed seed yields an identical tree.
    """
    config = config or GenConfig()
    _seed_words(seed)  # raises ConfigError on a bad seed
    rng = np.random.default_rng(seed)
    labels = map("a{}".format, itertools.count(1))

    def split(budget: int, parts: int, minimum: int) -> list[int]:
        extra = budget - parts * minimum
        return list(minimum + rng.multinomial(extra, [1.0 / parts] * parts))

    def build(budget: int, depth_left: int) -> Node:
        if budget == 1:
            return Leaf(next(labels))
        composite_ok = depth_left >= 3 and budget >= 2 * _MIN_BRANCH_LEAVES
        names = ["seq"] + (["xor", "and", "loop"] if composite_ok else [])
        weights = np.array([config.operator_weights.get(n, 0.0) for n in names])
        if weights.sum() <= 0:
            weights = np.ones(len(names))
        op = names[int(rng.choice(len(names), p=weights / weights.sum()))]
        if op == "loop":
            body_budget, redo_budget = split(budget, 2, _MIN_BRANCH_LEAVES)
            return Loop(build(body_budget, depth_left - 1), build(redo_budget, depth_left - 1))
        if op in ("xor", "and"):
            k = int(rng.integers(2, min(config.max_children, budget // _MIN_BRANCH_LEAVES) + 1))
            parts = split(budget, k, _MIN_BRANCH_LEAVES)
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

    def __post_init__(self) -> None:
        for name in ("n_replacements", "n_insertions", "n_deletions"):
            check_int(name, getattr(self, name), 0)


def mutate_tree(tree: Node, seed: SeedLike, config: MutationConfig | None = None) -> tuple[Node, GroundTruth]:
    """Apply tracked leaf replacements, insertions and deletions.

    Replacements rename a uniformly chosen leaf to a fresh name; deletions
    remove a (different) leaf and collapse operators left with a single
    child; insertions splice a fresh leaf into a uniformly chosen sequence
    gap, wrapping the root in a sequence when the tree has none.  A tree
    whose leaf names repeat raises :class:`ConfigError` naming the leaf.
    """
    config = config or MutationConfig()
    _seed_words(seed)  # raises ConfigError on a bad seed
    rng = np.random.default_rng(seed)
    original = leaves(tree)
    _check_unique(original)  # leaves are picked and mapped by name
    taken = config.n_replacements + config.n_deletions
    if taken > len(original) or config.n_deletions > len(original) - 1:
        raise ConfigError(
            f"tree has {len(original)} leaves; cannot replace {config.n_replacements} "
            f"and delete {config.n_deletions}"
        )
    existing = set(original)
    fresh_names = (name for name in map("x{}".format, itertools.count(1)) if name not in existing)
    picked = rng.choice(len(original), size=taken, replace=False)
    replaced = [original[int(i)] for i in picked[: config.n_replacements]]
    deleted = [original[int(i)] for i in picked[config.n_replacements:]]

    renames = {old: next(fresh_names) for old in replaced}
    mapping = {**dict.fromkeys(deleted), **renames}  # a deleted leaf maps to None
    mutated = _map_leaves(tree, lambda name: mapping.get(name, name))
    assert mutated is not None  # guarded by the leaf-count check above
    inserted = []
    for _ in range(config.n_insertions):
        name = next(fresh_names)
        inserted.append(name)
        mutated = _insert_into_gap(mutated, name, rng)
    truth = GroundTruth(
        replacements=frozenset(renames.items()),
        insertions=frozenset(inserted),
        deletions=frozenset(deleted),
    )
    return mutated, truth


def _like(node: Node, children: Sequence[Node]) -> Node:
    """An operator of ``node``'s kind over ``children``."""
    return Loop(*children) if isinstance(node, Loop) else type(node)(tuple(children))


def _map_leaves(node: Node, f: Callable[[str], str | None]) -> Node | None:
    """``node`` with each leaf replaced by ``f(name)``, dropped where that is
    None.  An operator left with one child collapses into that child, and
    one left with none disappears."""
    if isinstance(node, Leaf):
        name = f(node.name)
        return None if name is None else Leaf(name)
    kept = [c for c in (_map_leaves(c, f) for c in node.children) if c is not None]
    if len(kept) < 2:
        return kept[0] if kept else None
    return _like(node, kept)


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
    gap = int(rng.integers(total))

    def rebuild(current: Node) -> Node:
        nonlocal gap
        if isinstance(current, Leaf):
            return current
        if not isinstance(current, Seq):
            return _like(current, [rebuild(c) for c in current.children])
        out: list[Node] = []
        for child in current.children:
            if gap == 0:
                out.append(Leaf(name))
            gap -= 1
            out.append(rebuild(child))
        if gap == 0:
            out.append(Leaf(name))
        gap -= 1
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
        check_int("n_traces", self.n_traces, 0)
        check_int("max_loop_iterations", self.max_loop_iterations, 1)
        check_fraction("noise_probability", self.noise_probability)
        _seed_words(self.seed)  # raises ConfigError on a bad seed


_EPOCH = datetime(2024, 1, 1)


def _derive(seed: SeedLike, *extra: int) -> tuple[int, ...]:
    return (seed if isinstance(seed, tuple) else (seed,)) + extra


# numpy's SeedSequence (pool of four 32-bit words) and PCG64 seeding constants.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: SeedLike, name: str = "seed") -> list[int]:
    """The 32-bit entropy words numpy's ``SeedSequence`` assembles from
    ``seed``: for each part, its words from least significant up, at least one.

    This is the package's one seed rule: a :class:`ConfigError` naming
    ``name`` unless ``seed`` is a non-negative int or a tuple of them
    (numpy integers count, bools do not)."""
    parts = seed if isinstance(seed, tuple) else (seed,)
    words: list[int] = []
    for part in parts:
        if not isinstance(part, (int, np.integer)) or isinstance(part, bool) or part < 0:
            raise ConfigError(f"{name} must be a non-negative int or a tuple of them, got {seed!r}")
        part = int(part)
        words.append(part & _MASK32)
        while part > _MASK32:
            part >>= 32
            words.append(part & _MASK32)
    return words


def _hasher(hash_const: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """numpy's SeedSequence hash step on uint32 arrays.  Its constant starts
    at ``hash_const`` and is multiplied by ``mult`` on every call, whatever
    the data, so every row sees the same constants."""

    def hash_step(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * mult) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    return hash_step


def _stream_states(seed: SeedLike, n: int) -> list[dict]:
    """``default_rng(_derive(seed, i)).bit_generator.state`` for each i < n.

    Runs numpy's SeedSequence hashing over all n entropy rows at once as
    uint32 column arithmetic; the rows differ only in their last word, i.
    The PCG64 seeding step then runs per row on Python ints.
    """
    if n > 1 << 32:
        raise ConfigError(f"at most 2**32 streams per seed, got {n}")
    columns = [np.full(n, w, dtype=np.uint32) for w in _seed_words(seed)]
    columns.append(np.arange(n, dtype=np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zeros = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(columns[i] if i < len(columns) else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(columns)):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(columns[src]))

    # generate_state(4, uint64): eight words cycling over the pool, paired
    # little-endian into 64-bit words.
    output_hash = _hasher(_INIT_B, _MULT_B)
    halves = [output_hash(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    words = [(halves[2 * k] | (halves[2 * k + 1] << np.uint64(32))).tolist() for k in range(4)]

    states = []
    for high_state, low_state, high_seq, low_seq in zip(*words):
        inc = ((((high_seq << 64) | low_seq) << 1) | 1) & _MASK128
        state = ((inc + ((high_state << 64) | low_state)) * _PCG64_MULT + inc) & _MASK128
        states.append(
            {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
        )
    return states


def _compile(node: Node, rng: np.random.Generator, max_loop: int) -> Callable[[list[str]], None]:
    """A play-out of ``node`` that appends its events to a list.

    Draws from ``rng`` in depth-first order: ``Xor`` draws its branch,
    ``And`` plays its children in order and then draws their interleaving,
    and ``Loop`` draws ``random() < 0.5`` before each further run, up to
    ``max_loop`` runs.
    """
    if isinstance(node, Leaf):
        name = node.name
        return lambda out: out.append(name)
    if isinstance(node, Seq) and all(isinstance(c, Leaf) for c in node.children):
        names = tuple(c.name for c in node.children)
        return lambda out: out.extend(names)
    parts = tuple(_compile(c, rng, max_loop) for c in node.children)
    if isinstance(node, Seq):

        def sequence(out: list[str]) -> None:
            for part in parts:
                part(out)

        return sequence
    integers = rng.integers
    if isinstance(node, Xor):
        k = len(parts)
        return lambda out: parts[integers(k)](out)
    if isinstance(node, And):

        def parallel(out: list[str]) -> None:
            played = []
            for part in parts:
                branch: list[str] = []
                part(branch)
                played.append(branch)
            _random_merge(played, integers, out)

        return parallel
    body, redo = parts
    random = rng.random

    def loop(out: list[str]) -> None:
        body(out)
        runs = 1
        while runs < max_loop and random() < 0.5:
            redo(out)
            body(out)
            runs += 1

    return loop


def _random_merge(parts: list[list[str]], integers: Callable, out: list[str]) -> None:
    """Append a uniformly random interleaving of ``parts`` to ``out``: each
    step draws the next source with probability proportional to its
    remaining length.  The per-step bounds are known in advance (the total
    shrinks by one each step), so all draws come from one ``integers`` call,
    which yields the same values as one call per step."""
    positions = [0] * len(parts)
    remaining = [len(p) for p in parts]
    for r in integers(np.arange(sum(remaining), 0, -1)).tolist():
        for i, count in enumerate(remaining):
            if r < count:
                out.append(parts[i][positions[i]])
                positions[i] += 1
                remaining[i] -= 1
                break
            r -= count


def _spacer() -> Callable[[datetime, int], tuple[datetime, ...]]:
    """``spaced(start, n)``: n timestamps one second apart from ``start``,
    added from one tuple of offsets that grows as needed."""
    offsets: tuple[timedelta, ...] = ()

    def spaced(start: datetime, n: int) -> tuple[datetime, ...]:
        nonlocal offsets
        if n > len(offsets):
            offsets = tuple(timedelta(seconds=j) for j in range(max(n, 2 * len(offsets))))
        return tuple(start + d for d in offsets[:n])

    return spaced


def simulate_log(tree: Node, sim: SimConfig) -> EventLog:
    """Independent play-outs with synthetic strictly increasing timestamps.

    Stream contract: trace i (case ``c{i+1}``) draws its play-out from
    ``default_rng(seed + (i,))``, and control-flow noise, when configured,
    uses ``inject_noise`` with seed ``seed + (n_traces,)``, an index no
    trace stream takes.  So simulation is reproducible and any trace can be
    replayed alone.  The streams are not built by ``default_rng``: one
    vectorized pass computes every trace's starting generator state, and
    one generator is re-seeded per trace.  A test checks those states, and
    the logs, against ``default_rng`` and a recursive play-out.
    """
    rng = np.random.Generator(np.random.PCG64())
    bit_generator = rng.bit_generator
    play = _compile(tree, rng, sim.max_loop_iterations)
    spaced = _spacer()
    traces: dict[str, Trace] = {}
    for i, state in enumerate(_stream_states(sim.seed, sim.n_traces)):
        bit_generator.state = state
        sequence: list[str] = []
        play(sequence)
        case_id = f"c{i + 1}"
        keys = spaced(_EPOCH + timedelta(minutes=i), len(sequence))
        performance = float(-(len(sequence) - 1)) if sim.with_performance else None
        traces[case_id] = Trace(case_id, tuple(sequence), keys, performance)
    log = EventLog(traces)
    if sim.noise_probability > 0:
        log = inject_noise(log, _derive(sim.seed, sim.n_traces), sim.noise_probability)
    return log


def inject_noise(log: EventLog, seed: SeedLike, probability: float) -> EventLog:
    """With the given probability per trace, apply exactly one perturbation:
    swap two adjacent events, delete one event, or duplicate one in place.

    Stream contract: the trace at position i of ``log.traces`` draws from
    ``default_rng(seed + (i,))``, first a uniform that decides whether it
    is perturbed.  The streams come from the same vectorized seeding as
    :func:`simulate_log`.  Perturbations that cannot apply to a trace
    (swapping or deleting on a single event) are excluded from the uniform
    draw.  Timestamps are re-spaced from the trace's original start.
    """
    check_fraction("probability", probability)
    rng = np.random.Generator(np.random.PCG64())
    bit_generator = rng.bit_generator
    spaced = _spacer()
    traces: dict[str, Trace] = {}
    states = _stream_states(seed, len(log.traces))
    for state, (case_id, trace) in zip(states, log.traces.items()):
        bit_generator.state = state
        if rng.random() >= probability:
            traces[case_id] = trace
            continue
        names = list(trace.variant)
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
        first_key = trace.order_keys[0]
        if isinstance(first_key, datetime):
            keys = spaced(first_key, len(names))
        else:
            keys = tuple(range(len(names)))
        traces[case_id] = Trace(case_id, tuple(names), keys, trace.performance)
    return EventLog(traces)

