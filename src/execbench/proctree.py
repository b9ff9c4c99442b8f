"""Synthetic process trees: generation, tracked mutation, and log play-out.

Trees are block-structured with sequence, exclusive choice, parallel and
loop operators over uniquely named leaves.  They serve as the data factory
for the evaluation harness: a random tree yields the own log, a mutated
copy (with replacements recorded as ground truth) yields the benchmark
log.  Play-out includes the noise step: a trace may get one perturbation.

One play-out loop serves two outputs.  :func:`simulate_log` turns each
trace into a timestamped case of an :class:`EventLog`, as ``execbench
synth`` writes it.  :func:`simulate_variants` counts the same traces into a
:class:`VariantIndex` and builds no case, which is all the evaluation
reads, so it equals ``extract_variants(simulate_log(tree, sim))``.

Random draws follow numpy's ``default_rng``: tree generation and mutation
use it directly, and play-out uses one seeded stream per trace for its
events and one for its noise (the contract is on :func:`simulate_log`;
both outputs keep it).  Play-out computes those streams' PCG64 states in
one vectorized pass and makes numpy's ``random()`` and ``integers(k)``
draws on Python ints (``_Stream``), which skips a numpy call per draw and a
state dict per trace.  The tests check the states, each draw and whole logs
against the installed numpy's ``default_rng``.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from .errors import ConfigError, check_fraction, check_int
from .eventlog import EventLog, Trace, VariantIndex

SeedLike = Union[int, tuple[int, ...]]


@dataclass(frozen=True, slots=True)
class Leaf:
    name: str


def _refuse_no_children(node: "Seq | Xor | And") -> None:
    """A :class:`ConfigError` unless ``node`` has a child, so that no play-out is empty."""
    if not node.children:
        raise ConfigError(f"{_OP_NAMES[type(node)]} node needs at least one child, got {node.children!r}")


@dataclass(frozen=True, slots=True)
class Seq:
    children: tuple["Node", ...]

    __post_init__ = _refuse_no_children


@dataclass(frozen=True, slots=True)
class Xor:
    children: tuple["Node", ...]

    __post_init__ = _refuse_no_children


@dataclass(frozen=True, slots=True)
class And:
    children: tuple["Node", ...]

    __post_init__ = _refuse_no_children


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
        if not isinstance(self.operator_weights, Mapping):
            raise ConfigError(f"operator_weights must map operators to weights, got {self.operator_weights!r}")
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
    """How :func:`simulate_log` and :func:`simulate_variants` play out a
    tree: ``n_traces`` cases; loops run at most ``max_loop_iterations``
    times, each further run with probability 1/2; ``seed`` is a
    non-negative int or a tuple of them.
    With ``noise_probability`` a trace gets one perturbation: an adjacent
    swap, a deletion, or a duplication in place (the only one a single
    event allows).  ``with_performance``, a bool (numpy's counts), gives
    each trace the synthetic performance ``-(events - 1)``, counted before
    the perturbation.

    ``seed`` fixes every draw: trace i plays out from
    ``default_rng(seed + (i,))`` and draws its noise from
    ``default_rng(seed + (n_traces, i))``, so a seed fixes the log and any
    trace can be replayed alone.  The draws are made on Python ints, not by
    a numpy generator, and the tests check them against the installed
    numpy's ``default_rng``."""

    n_traces: int = 1000
    noise_probability: float = 0.05
    max_loop_iterations: int = 3
    seed: SeedLike = 0
    with_performance: bool = False

    def __post_init__(self) -> None:
        check_int("n_traces", self.n_traces, 0)
        if self.n_traces > 1 << 32:  # trace i's stream takes i as one 32-bit seed word
            raise ConfigError(f"n_traces must be at most 2**32, got {self.n_traces}")
        check_int("max_loop_iterations", self.max_loop_iterations, 1)
        check_fraction("noise_probability", self.noise_probability)
        _seed_words(self.seed)  # raises ConfigError on a bad seed
        if not isinstance(self.with_performance, (bool, np.bool_)):
            raise ConfigError(f"with_performance must be a bool, got {self.with_performance!r}")


_EPOCH = datetime(2024, 1, 1)


def _derive(seed: SeedLike, *extra: int) -> tuple[int, ...]:
    return (seed if isinstance(seed, tuple) else (seed,)) + extra


# numpy's SeedSequence (pool of four 32-bit words) and PCG64 constants.
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
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


def _stream_states(seed: SeedLike, n: int) -> Iterator[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` of ``default_rng(_derive(seed, i))`` for
    each i < n, as in its ``bit_generator.state["state"]``.

    Runs numpy's SeedSequence hashing over all n entropy rows at once as
    uint32 column arithmetic; the rows differ only in their last word, i,
    which fits one word because :class:`SimConfig` keeps n at most 2**32.
    The PCG64 seeding step then runs per row on Python ints, as each pair
    is taken, so the pairs are never all held at once.
    """
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

    def pcg64_seed(high_state: int, low_state: int, high_seq: int, low_seq: int) -> tuple[int, int]:
        inc = ((((high_seq << 64) | low_seq) << 1) | 1) & _MASK128
        return ((inc + ((high_state << 64) | low_state)) * _PCG64_MULT + inc) & _MASK128, inc

    return map(pcg64_seed, *words)


class _Stream:
    """The draws of ``numpy.random.Generator(PCG64)`` that the lab uses, on
    Python ints, from a PCG64 ``(state, inc)`` pair.

    Each step is ``state = state * mult + inc`` modulo 2**128, and its
    64-bit output is the XSL-RR permutation of the new state (O'Neill 2014).
    ``random()`` takes the top 53 bits of one output.  32-bit draws take an
    output's low half and keep its high half for the next 32-bit draw;
    ``random()`` neither reads nor clears that kept half.  ``integers(k)``
    for 1 <= k <= 2**32 is Lemire's (2019) bounded draw on 32-bit draws, and
    draws nothing when k is 1.  A stream draws once :meth:`seed` has set
    its pair.
    """

    __slots__ = ("state", "inc", "half")

    def seed(self, state: int, inc: int) -> None:
        self.state, self.inc, self.half = state, inc, None

    def next64(self) -> int:
        state = self.state = (self.state * _PCG64_MULT + self.inc) & _MASK128
        high = state >> 64
        word, rotation = (high ^ state) & _MASK64, high >> 58
        return ((word >> rotation) | (word << (64 - rotation))) & _MASK64

    def random(self) -> float:
        return (self.next64() >> 11) * 2.0**-53

    def next_uint32(self) -> int:
        half = self.half
        if half is not None:
            self.half = None
            return half
        word = self.next64()
        self.half = word >> 32
        return word & _MASK32

    def integers(self, k: int) -> int:
        if k == 1:
            return 0
        m = self.next_uint32() * k
        if m & _MASK32 < k:
            threshold = ((1 << 32) - k) % k
            while m & _MASK32 < threshold:
                m = self.next_uint32() * k
        return m >> 32


def _compile(node: Node, stream: _Stream, max_loop: int) -> Callable[[list[str]], None]:
    """A play-out of ``node`` that appends its events to a list.

    Draws from ``stream`` in depth-first order: ``Xor`` draws its branch,
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
    parts = tuple(_compile(c, stream, max_loop) for c in node.children)
    if isinstance(node, Seq):

        def sequence(out: list[str]) -> None:
            for part in parts:
                part(out)

        return sequence
    integers = stream.integers
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
    random = stream.random

    def loop(out: list[str]) -> None:
        body(out)
        runs = 1
        while runs < max_loop and random() < 0.5:
            redo(out)
            body(out)
            runs += 1

    return loop


def _random_merge(parts: list[list[str]], integers: Callable[[int], int], out: list[str]) -> None:
    """Append a uniformly random interleaving of ``parts`` to ``out``.

    ``owners`` holds one source index per event left, grouped by source in
    order.  Each step pops the entry at ``integers(total)`` and takes the
    next event of that source, so a source is drawn with probability
    proportional to its remaining length."""
    sources = [iter(p) for p in parts]
    owners = [i for i, p in enumerate(parts) for _ in p]
    for total in range(len(owners), 0, -1):
        out.append(next(sources[owners.pop(integers(total))]))


def _play_out(tree: Node, sim: SimConfig) -> Iterator[tuple[list[str], int]]:
    """Each trace's events, noise applied, and its clean length, in case order.

    No numpy generator is built.  One vectorized pass computes every
    stream's starting PCG64 state, and one play stream and one noise stream
    are re-seeded per trace; they make numpy's draws on Python ints.  The
    yielded list is the caller's to keep.
    """
    play_stream, noise_stream = _Stream(), _Stream()
    play = _compile(tree, play_stream, sim.max_loop_iterations)
    noise_states = _stream_states(_derive(sim.seed, sim.n_traces), sim.n_traces)
    for play_state, noise_state in zip(_stream_states(sim.seed, sim.n_traces), noise_states):
        play_stream.seed(*play_state)
        sequence: list[str] = []
        play(sequence)
        clean_length = len(sequence)
        noise_stream.seed(*noise_state)
        if noise_stream.random() < sim.noise_probability:
            _perturb(sequence, noise_stream)
        yield sequence, clean_length


def simulate_log(tree: Node, sim: SimConfig) -> EventLog:
    """Independent play-outs with synthetic strictly increasing timestamps.

    Stream contract: trace i (case ``c{i+1}``) draws its play-out from
    ``default_rng(seed + (i,))`` and its noise from
    ``default_rng(seed + (n_traces, i))``: first the uniform that decides
    whether it is perturbed, then the kind, then the position.  Every trace
    draws that uniform, and none is perturbed at probability 0.  So
    simulation is reproducible and any trace can be replayed alone.  Trace
    i's events are one second apart from minute i.  The tests check the
    states, the draws and the logs against the installed numpy's
    ``default_rng`` and a recursive play-out.
    """
    offsets: tuple[timedelta, ...] = ()
    start, minute = _EPOCH, timedelta(minutes=1)
    traces: dict[str, Trace] = {}
    for i, (sequence, clean_length) in enumerate(_play_out(tree, sim)):
        performance = float(-(clean_length - 1)) if sim.with_performance else None
        if len(sequence) > len(offsets):
            offsets = tuple(timedelta(seconds=j) for j in range(max(len(sequence), 2 * len(offsets))))
        case_id = f"c{i + 1}"
        keys = tuple(map(start.__add__, offsets[: len(sequence)]))
        traces[case_id] = Trace(case_id, tuple(sequence), keys, performance)
        start += minute
    return EventLog(traces)


def simulate_variants(tree: Node, sim: SimConfig) -> VariantIndex:
    """The variant index of :func:`simulate_log`'s log, without the log.

    The same play-out under the same stream contract, counted per variant
    instead of built into cases, so it equals
    ``extract_variants(simulate_log(tree, sim))``: the variants in ascending
    order, their trace counts, and no mean performance.
    """
    return VariantIndex.from_variants(tuple(sequence) for sequence, _ in _play_out(tree, sim))


def _perturb(names: list[str], stream: _Stream) -> None:
    """Swap two adjacent events of ``names``, delete one, or duplicate one in
    place.  ``stream`` draws the kind uniformly among those that apply (a
    single event can only be duplicated), then the position."""
    kinds = ["duplicate"] + (["swap", "delete"] if len(names) >= 2 else [])
    kind = kinds[stream.integers(len(kinds))]
    if kind == "swap":
        j = stream.integers(len(names) - 1)
        names[j], names[j + 1] = names[j + 1], names[j]
    elif kind == "delete":
        del names[stream.integers(len(names))]
    else:
        j = stream.integers(len(names))
        names.insert(j + 1, names[j])
