"""Tree generation, mutation tracking, play-out, noise, and membership."""

import hashlib
import io
import json
import re
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import naive_levenshtein
from execbench.errors import ConfigError
from execbench.eventlog import EventLog, PerfConfig, Trace, extract_variants, write_event_log
from execbench.experiment import ExperimentConfig, random_baseline
from execbench.proctree import (
    _EPOCH,
    _derive,
    _map_leaves,
    _stream_states,
    _Stream,
    And,
    GenConfig,
    Leaf,
    Loop,
    MutationConfig,
    Seq,
    SimConfig,
    Xor,
    generate_process_tree,
    leaves,
    mutate_tree,
    simulate_log,
    tree_from_json,
    tree_to_json,
)


def _check_structure(node, seen):
    if isinstance(node, Leaf):
        assert node.name not in seen
        seen.add(node.name)
        return
    children = node.children
    assert len(children) >= 2
    if isinstance(node, Loop):
        assert len(children) == 2
    for child in children:
        _check_structure(child, seen)


def test_single_leaf_budget_degenerates():
    assert generate_process_tree(0, GenConfig(target_leaves=1)) == Leaf("a1")


def test_generation_is_deterministic():
    config = GenConfig(target_leaves=12)
    assert generate_process_tree(99, config) == generate_process_tree(99, config)
    assert generate_process_tree(99, config) != generate_process_tree(100, config)


def test_unsatisfiable_config_rejected():
    with pytest.raises(ConfigError):
        generate_process_tree(0, GenConfig(target_leaves=5, max_depth=1))
    with pytest.raises(ConfigError):
        generate_process_tree(0, GenConfig(target_leaves=0))


@pytest.mark.parametrize(
    "weights",
    [{"seq": 1.0, "xor": -0.5}, {"seq": float("nan")}, {"loop": float("inf")}, {"sequence": 1.0}],
)
def test_invalid_operator_weights_rejected(weights):
    with pytest.raises(ConfigError, match="operator_weights"):
        GenConfig(target_leaves=20, operator_weights=weights)


def test_thousand_random_trees_have_sound_structure():
    for seed in range(1000):
        target = 8 + seed % 8  # spans [8, 15]
        tree = generate_process_tree(seed, GenConfig(target_leaves=target))
        seen: set[str] = set()
        _check_structure(tree, seen)
        assert len(leaves(tree)) == target


def test_mutation_on_two_leaf_sequence():
    tree = Seq((Leaf("a"), Leaf("b")))
    mutated, truth = mutate_tree(tree, 5, MutationConfig(n_replacements=1))
    (old, new) = next(iter(truth.replacements))
    assert old in ("a", "b") and new not in ("a", "b")
    assert set(leaves(mutated)) == ({"a", "b"} - {old}) | {new}


def test_empty_mutation_is_identity():
    tree = generate_process_tree(3, GenConfig(target_leaves=9))
    mutated, truth = mutate_tree(tree, 1, MutationConfig(0, 0, 0))
    assert mutated == tree
    assert not truth.replacements and not truth.insertions and not truth.deletions


def test_mutation_counts_and_disjointness():
    for seed in range(200):
        tree = generate_process_tree(seed, GenConfig(target_leaves=10))
        config = MutationConfig(
            n_replacements=1 + seed % 3,
            n_insertions=seed % 3,
            n_deletions=seed % 3,
        )
        mutated, truth = mutate_tree(tree, seed, config)
        assert len(truth.replacements) == config.n_replacements
        assert len(truth.insertions) == config.n_insertions
        assert len(truth.deletions) == config.n_deletions
        olds = {old for old, _ in truth.replacements}
        news = {new for _, new in truth.replacements}
        original = set(leaves(tree))
        assert news.isdisjoint(original)
        assert truth.insertions.isdisjoint(original)
        assert olds <= original and truth.deletions <= original
        assert olds.isdisjoint(truth.deletions)
        assert news.isdisjoint(truth.insertions)
        mutated_leaves = set(leaves(mutated))
        assert olds.isdisjoint(mutated_leaves)
        assert truth.deletions.isdisjoint(mutated_leaves)
        assert news <= mutated_leaves and truth.insertions <= mutated_leaves
        seen: set[str] = set()
        _check_structure(mutated, seen)


def test_mutation_insufficient_leaves_rejected():
    tree = Seq((Leaf("a"), Leaf("b")))
    with pytest.raises(ConfigError):
        mutate_tree(tree, 0, MutationConfig(n_replacements=2, n_deletions=1))
    with pytest.raises(ConfigError):
        mutate_tree(Leaf("a"), 0, MutationConfig(n_replacements=0, n_deletions=1))


@pytest.mark.parametrize(
    "tree, config",
    [
        (Seq((Leaf("a"), Leaf("a"))), MutationConfig(0, 0, 1)),  # both leaves would go
        (Seq((Leaf("a"), Leaf("a"), Leaf("b"))), MutationConfig(2, 0, 0)),  # one rename for two
    ],
)
def test_mutation_refuses_repeated_leaf_names(tree, config):
    with pytest.raises(ConfigError, match="leaf name 'a' appears more than once in the tree"):
        mutate_tree(tree, 0, config)


# Recorded with a rename pass followed by one pass per deleted leaf (the
# oracle_* functions below), so a one-pass leaf map that differs shows.
MUTATION_GOLDEN_SHA256 = "91e6e04b022a4a2d30c75298d915deb21983073e2c3c3af8fd6b2a247dee3452"


def test_golden_mutations():
    shapes = [GenConfig(), ExperimentConfig().gen_config(25)]
    mutations = [MutationConfig(1, 0, 0), MutationConfig(2, 1, 1), MutationConfig(1, 2, 3), MutationConfig(0, 3, 5)]
    digest = hashlib.sha256()
    for shape_index, shape in enumerate(shapes):
        for seed in range(60):
            tree = generate_process_tree((shape_index, seed), shape)
            for mutation_index, mutation in enumerate(mutations):
                mutated, truth = mutate_tree(tree, (seed, mutation_index), mutation)
                record = {
                    "tree": tree_to_json(tree),
                    "mutated": tree_to_json(mutated),
                    "replacements": sorted(truth.replacements),
                    "insertions": sorted(truth.insertions),
                    "deletions": sorted(truth.deletions),
                }
                digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == MUTATION_GOLDEN_SHA256


def test_insertion_wraps_root_when_tree_has_no_sequence():
    mutated, truth = mutate_tree(Xor((Leaf("a"), Leaf("b"))), 2, MutationConfig(0, 1, 0))
    (fresh,) = truth.insertions
    assert isinstance(mutated, Seq)
    assert set(leaves(mutated)) == {"a", "b", fresh}


def test_playout_language_of_choice():
    tree = Seq((Leaf("a"), Xor((Leaf("b"), Leaf("c")))))
    log = simulate_log(tree, SimConfig(n_traces=200, noise_probability=0.0, seed=1))
    variants = {t.variant for t in log.traces.values()}
    assert variants == {("a", "b"), ("a", "c")}


def test_parallel_playout_reaches_both_orders():
    tree = And((Leaf("a"), Leaf("b")))
    log = simulate_log(tree, SimConfig(n_traces=1000, noise_probability=0.0, seed=2))
    variants = {t.variant for t in log.traces.values()}
    assert variants == {("a", "b"), ("b", "a")}


def test_noise_free_playout_conforms():
    for seed in range(30):
        tree = generate_process_tree(seed, GenConfig(target_leaves=9))
        log = simulate_log(tree, SimConfig(n_traces=40, noise_probability=0.0, seed=seed))
        for trace in log.traces.values():
            assert tree_accepts(tree, trace.variant, max_loop_iterations=3)


def test_simulation_is_deterministic_and_timestamped():
    tree = generate_process_tree(11, GenConfig(target_leaves=8))
    sim = SimConfig(n_traces=50, noise_probability=0.3, seed=77)
    first, second = simulate_log(tree, sim), simulate_log(tree, sim)
    assert {c: t.variant for c, t in first.traces.items()} == {
        c: t.variant for c, t in second.traces.items()
    }
    for trace in first.traces.values():
        keys = [e.order_key for e in trace.events]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_full_noise_perturbs_within_edit_distance_two():
    tree = generate_process_tree(8, GenConfig(target_leaves=10))
    clean = simulate_log(tree, SimConfig(n_traces=100, noise_probability=0.0, seed=9))
    noisy = simulate_log(tree, SimConfig(n_traces=100, noise_probability=1.0, seed=9))
    changed = 0
    for case_id in clean.traces:
        before = clean.traces[case_id].variant
        after = noisy.traces[case_id].variant
        distance = naive_levenshtein(before, after)
        assert distance <= 2
        changed += int(before != after)
    assert changed > 80  # an adjacent swap of equal activities can be a no-op


def test_noise_rate_is_binomial():
    tree = Seq((Leaf("a"), Leaf("b"), Leaf("c")))
    clean = simulate_log(tree, SimConfig(n_traces=1000, noise_probability=0.0, seed=3))
    noisy = simulate_log(tree, SimConfig(n_traces=1000, noise_probability=0.25, seed=3))
    changed = sum(
        clean.traces[c].variant != noisy.traces[c].variant for c in clean.traces
    )
    # 3 sigma around np = 250 with sigma ~ 13.7
    assert 209 <= changed <= 291


def test_single_event_traces_only_duplicate():
    clean = simulate_log(Leaf("a"), SimConfig(n_traces=50, noise_probability=0.0, seed=6))
    noisy = simulate_log(Leaf("a"), SimConfig(n_traces=50, noise_probability=1.0, seed=6))
    assert {t.variant for t in clean.traces.values()} == {("a",)}
    assert {t.variant for t in noisy.traces.values()} == {("a", "a")}


def test_noise_keeps_the_clean_performance_and_spaces_each_trace_from_its_minute():
    tree = generate_process_tree(8, GenConfig(target_leaves=10))
    clean, noisy = (
        simulate_log(tree, SimConfig(n_traces=100, noise_probability=p, seed=9, with_performance=True))
        for p in (0.0, 1.0)
    )
    assert any(len(noisy.traces[c].variant) != len(clean.traces[c].variant) for c in clean.traces)
    for i, (case_id, trace) in enumerate(noisy.traces.items()):
        assert case_id == f"c{i + 1}"
        assert trace.performance == -(len(clean.traces[case_id].variant) - 1)
        start = _EPOCH + timedelta(minutes=i)
        assert trace.order_keys == tuple(start + timedelta(seconds=j) for j in range(len(trace.variant)))


def test_tree_accepts_goldens():
    assert tree_accepts(Seq((Leaf("a"), Leaf("b"))), ("a", "b"))
    assert not tree_accepts(Seq((Leaf("a"), Leaf("b"))), ("b", "a"))
    both = And((Leaf("a"), Leaf("b")))
    assert tree_accepts(both, ("a", "b")) and tree_accepts(both, ("b", "a"))
    assert not tree_accepts(both, ("a",))
    assert not tree_accepts(both, ("a", "b", "b"))


def test_tree_accepts_worked_example_language():
    tree = Seq((Xor((Leaf("a"), Leaf("c"))), Leaf("d"), Xor((Leaf("e"), Leaf("f"))), Leaf("g")))
    from itertools import product

    accepted = {
        v
        for v in product("acdefg", repeat=4)
        if tree_accepts(tree, v)
    }
    assert accepted == {
        ("a", "d", "e", "g"),
        ("a", "d", "f", "g"),
        ("c", "d", "e", "g"),
        ("c", "d", "f", "g"),
    }


def test_tree_accepts_loop_semantics():
    loop = Loop(Leaf("a"), Leaf("r"))
    assert tree_accepts(loop, ("a",))
    assert tree_accepts(loop, ("a", "r", "a"))
    assert not tree_accepts(loop, ("a", "r"))
    assert not tree_accepts(loop, ("r", "a"))
    assert not tree_accepts(loop, ("a", "r", "a"), max_loop_iterations=1)
    assert tree_accepts(loop, ("a", "r", "a"), max_loop_iterations=2)


def test_loop_iterations_respect_cap():
    loop = Loop(Leaf("a"), Leaf("r"))
    log = simulate_log(loop, SimConfig(n_traces=500, noise_probability=0.0, seed=12, max_loop_iterations=2))
    variants = {t.variant for t in log.traces.values()}
    assert variants == {("a",), ("a", "r", "a")}


def test_json_round_trip():
    tree = generate_process_tree(21, GenConfig(target_leaves=11))
    assert tree_from_json(tree_to_json(tree)) == tree


@pytest.mark.parametrize(
    "data, problem",
    [
        ({"op": "seq"}, "seq node needs a non-empty list of children, got None"),
        ({"op": "xor", "children": []}, "xor node needs a non-empty list of children"),
        (["a"], "a tree node must be an object with a 'leaf' or an 'op' key"),
        ({}, "a tree node must be an object with a 'leaf' or an 'op' key"),
        ({"op": "and", "children": ["a"]}, "a tree node must be an object"),
        (
            {"op": "seq", "children": [{"leaf": "a"}, {"leaf": "b"}, {"leaf": "a"}]},
            "leaf name 'a' appears more than once in the tree",
        ),
        ({"leaf": None}, "a leaf name must be a non-empty string without surrounding whitespace, got None"),
        ({"leaf": ""}, "a leaf name must be a non-empty string without surrounding whitespace, got ''"),
        ({"op": "xor", "children": [{"leaf": "a"}, {"leaf": " b"}]}, "surrounding whitespace, got ' b'"),
        ({"leaf": 7}, "a leaf name must be a non-empty string without surrounding whitespace, got 7"),
        ({"op": "par", "children": [{"leaf": "a"}]}, "unknown tree operator 'par'"),
        ({"op": "loop", "children": [{"leaf": "a"}]}, "loop nodes need exactly a body and a redo child"),
        ({"op": "loop", "children": [{"leaf": "a"}, {"leaf": "b"}, {"leaf": "c"}]}, "loop nodes need exactly"),
    ],
    ids=[
        "no-children", "empty-children", "list", "empty-object", "child-not-an-object",
        "repeated-leaf", "null-leaf", "empty-leaf", "padded-leaf", "number-leaf",
        "unknown-operator", "loop-of-one", "loop-of-three",
    ],
)
def test_malformed_tree_json_rejected(data, problem):
    with pytest.raises(ConfigError, match=re.escape(problem)):
        tree_from_json(data)


def test_all_zero_operator_weights_fall_back_to_uniform():
    config = GenConfig(target_leaves=12, operator_weights={"seq": 0.0})
    trees = [generate_process_tree(seed, config) for seed in range(20)]
    assert all(len(leaves(tree)) == 12 for tree in trees)
    # Zero weight on seq does not leave seq alone: the fallback draws every operator.
    assert any(not isinstance(tree, Seq) for tree in trees)


def test_json_schema_shape():
    tree = Loop(Leaf("x"), Seq((Leaf("y"), Leaf("z"))))
    data = tree_to_json(tree)
    assert data == {
        "op": "loop",
        "children": [
            {"leaf": "x"},
            {"op": "seq", "children": [{"leaf": "y"}, {"leaf": "z"}]},
        ],
    }


def test_synthetic_performance_optional():
    tree = Seq((Leaf("a"), Leaf("b")))
    plain = simulate_log(tree, SimConfig(n_traces=5, noise_probability=0.0, seed=1))
    assert all(t.performance is None for t in plain.traces.values())
    with_perf = simulate_log(
        tree, SimConfig(n_traces=5, noise_probability=0.0, seed=1, with_performance=True)
    )
    assert all(t.performance == -1.0 for t in with_perf.traces.values())
    idx = extract_variants(with_perf, PerfConfig("column"))
    assert idx.entries[("a", "b")].mean_performance == -1.0
    numpy_flag = SimConfig(n_traces=5, noise_probability=0.0, seed=1, with_performance=np.bool_(True))
    assert simulate_log(tree, numpy_flag) == with_perf


# Oracles: exact play-out language membership, the leaf rename and the
# per-leaf deletion that mutation once ran one after the other, and the
# recursive play-out and per-trace ``default_rng`` loops that define the
# lab's stream contract.  The package must give equal trees and logs.


def tree_accepts(tree, variant, max_loop_iterations=None):
    """Exact play-out language membership.

    Leaf names are unique within a tree, so every symbol of the variant
    belongs to at most one child of any operator node; projecting the
    variant onto the children decides membership without search.
    """
    alphabets = {}

    def alphabet(node):
        known = alphabets.get(id(node))
        if known is None:
            if isinstance(node, Leaf):
                known = frozenset((node.name,))
            else:
                known = frozenset().union(*(alphabet(c) for c in node.children))
            alphabets[id(node)] = known
        return known

    def accepts(node, seq):
        if not seq:
            return False
        if isinstance(node, Leaf):
            return seq == (node.name,)
        owner = {}
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
            projections = [[] for _ in node.children]
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


def _blocks(seq, assigned):
    """Split a sequence into maximal runs of equal child assignment."""
    out = []
    start = 0
    for i in range(1, len(seq) + 1):
        if i == len(seq) or assigned[i] != assigned[start]:
            out.append((assigned[start], seq[start:i]))
            start = i
    return out


def oracle_rename_leaves(node, renames):
    if isinstance(node, Leaf):
        return Leaf(renames.get(node.name, node.name))
    if isinstance(node, Loop):
        return Loop(oracle_rename_leaves(node.body, renames), oracle_rename_leaves(node.redo, renames))
    children = tuple(oracle_rename_leaves(c, renames) for c in node.children)
    return type(node)(children)


def oracle_delete_leaf(node, name):
    if isinstance(node, Leaf):
        return None if node.name == name else node
    if isinstance(node, Loop):
        body = oracle_delete_leaf(node.body, name)
        redo = oracle_delete_leaf(node.redo, name)
        if body is None:
            return redo
        if redo is None:
            return body
        return Loop(body, redo)
    kept = [c for c in (oracle_delete_leaf(c, name) for c in node.children) if c is not None]
    if not kept:
        return None
    if len(kept) == 1:
        return kept[0]
    return type(node)(tuple(kept))


def oracle_play_out(node, rng, max_loop):
    if isinstance(node, Leaf):
        return [node.name]
    if isinstance(node, Seq):
        out = []
        for child in node.children:
            out.extend(oracle_play_out(child, rng, max_loop))
        return out
    if isinstance(node, Xor):
        return oracle_play_out(node.children[int(rng.integers(len(node.children)))], rng, max_loop)
    if isinstance(node, And):
        parts = [oracle_play_out(c, rng, max_loop) for c in node.children]
        return oracle_random_merge(parts, rng)
    out = oracle_play_out(node.body, rng, max_loop)
    runs = 1
    while runs < max_loop and rng.random() < 0.5:
        out.extend(oracle_play_out(node.redo, rng, max_loop))
        out.extend(oracle_play_out(node.body, rng, max_loop))
        runs += 1
    return out


def oracle_random_merge(parts, rng):
    positions = [0] * len(parts)
    remaining = [len(p) for p in parts]
    total = sum(remaining)
    out = []
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


def oracle_simulate_log(tree, sim):
    traces = {}
    for i in range(sim.n_traces):
        rng = np.random.default_rng(_derive(sim.seed, i))
        sequence = oracle_play_out(tree, rng, sim.max_loop_iterations)
        case_id = f"c{i + 1}"
        start = _EPOCH + timedelta(minutes=i)
        keys = tuple(start + timedelta(seconds=j) for j in range(len(sequence)))
        performance = float(-(len(sequence) - 1)) if sim.with_performance else None
        traces[case_id] = Trace(case_id, tuple(sequence), keys, performance)
    log = EventLog(traces)
    if sim.noise_probability > 0:
        log = oracle_inject_noise(log, _derive(sim.seed, sim.n_traces), sim.noise_probability)
    return log


def oracle_inject_noise(log, seed, probability):
    traces = {}
    for index, (case_id, trace) in enumerate(log.traces.items()):
        rng = np.random.default_rng(_derive(seed, index))
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
            keys = tuple(first_key + timedelta(seconds=j) for j in range(len(names)))
        else:
            keys = tuple(range(len(names)))
        traces[case_id] = Trace(case_id, tuple(names), keys, trace.performance)
    return EventLog(traces)


seed_parts = st.integers(0, 2**70)
seeds = seed_parts | st.tuples() | st.lists(seed_parts, min_size=1, max_size=6).map(tuple)


@given(seed=seeds, n=st.integers(0, 5))
@settings(max_examples=300, deadline=None)
def test_stream_states_equal_default_rng(seed, n):
    expected = [np.random.default_rng(_derive(seed, i)).bit_generator.state["state"] for i in range(n)]
    assert [{"state": state, "inc": inc} for state, inc in _stream_states(seed, n)] == expected


class CountingStream(_Stream):
    """A stream that counts its 32-bit draws, rejected ones included."""

    draws32 = 0

    def next_uint32(self):
        self.draws32 += 1
        return super().next_uint32()


def play_both(seed, i, ops):
    """Make the draws ``ops`` (None for ``random()``, k for ``integers(k)``)
    from ``default_rng(_derive(seed, i))`` and from the stream of the same
    state; check every draw and the final generator state equal, and
    return the stream."""
    rng = np.random.default_rng(_derive(seed, i))
    stream = CountingStream()
    stream.seed(*list(_stream_states(seed, i + 1))[i])
    for k in ops:
        if k is None:
            assert stream.random() == rng.random()
        else:
            drawn = stream.integers(k)
            assert type(drawn) is int and drawn == rng.integers(k)
    state = rng.bit_generator.state
    assert {"state": stream.state, "inc": stream.inc} == state["state"]
    # numpy keeps a used half-word in "uinteger"; only "has_uint32" says it is spent.
    assert stream.half == (state["uinteger"] if state["has_uint32"] else None)
    return stream


BOUNDS = [1, 2, 3, 7, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32]


@given(seed=seeds, i=st.integers(0, 4), ops=st.lists(st.none() | st.sampled_from(BOUNDS), max_size=40))
@example(seed=0, i=0, ops=[3, None, 3])  # random() between the two halves of one word
@example(seed=(7, 1), i=2, ops=[2**31 + 1] * 8 + [None, 1, 2**32])
@settings(max_examples=300, deadline=None)
def test_stream_draws_equal_default_rng(seed, i, ops):
    play_both(seed, i, ops)


@pytest.mark.parametrize("k", [2**31 + 1, 3 * 2**30])
def test_stream_rejection_loop_is_reached(k):
    # About a half (2**31 + 1) and a quarter (3 * 2**30) of the 32-bit draws
    # fall below the rejection threshold, so 32 draws redraw some.
    stream = play_both(5, 0, [k] * 32)
    assert stream.draws32 > 32


def trees():
    leaf = st.sampled_from("abcdefgh").map(Leaf)

    def composite(children):
        blocks = st.lists(children, min_size=2, max_size=4).map(tuple)
        return (
            blocks.map(Seq)
            | blocks.map(Xor)
            | blocks.map(And)
            | st.tuples(children, children).map(lambda pair: Loop(*pair))
        )

    return st.recursive(leaf, composite, max_leaves=14)


@given(
    tree=trees(),
    seed=seeds,
    n_traces=st.integers(0, 25),
    max_loop=st.integers(1, 4),
    noise=st.sampled_from([0.0, 0.05, 1.0]),
    performance=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_simulate_log_equals_recursive_oracle(tree, seed, n_traces, max_loop, noise, performance):
    sim = SimConfig(
        n_traces=n_traces,
        noise_probability=noise,
        max_loop_iterations=max_loop,
        seed=seed,
        with_performance=performance,
    )
    assert list(simulate_log(tree, sim).traces.items()) == list(oracle_simulate_log(tree, sim).traces.items())


@given(
    tree=trees(),
    renames=st.dictionaries(st.sampled_from("abcdefgh"), st.sampled_from("abcdefghxyz")),
    deleted=st.lists(st.sampled_from("abcdefghxyz"), unique=True),
)
@settings(max_examples=300, deadline=None)
def test_one_pass_leaf_map_equals_rename_then_each_deletion(tree, renames, deleted):
    expected = oracle_rename_leaves(tree, renames)
    for name in deleted:
        if expected is not None:
            expected = oracle_delete_leaf(expected, name)

    def rename_or_drop(name):
        name = renames.get(name, name)
        return None if name in deleted else name

    assert _map_leaves(tree, rename_or_drop) == expected


# Recorded from the recursive play-out with one default_rng per trace.  The
# loop body and the nodes after the loop draw, so a moved loop draw shows.
GOLDEN_SHA256 = "49e5af8778b5986aaffd43a7abd6fe91aae406255a5359bafcdcb395a20a48b3"


def test_golden_log_bytes():
    tree = Seq((
        Leaf("a"),
        Loop(Xor((Leaf("b"), Leaf("c"))), Seq((Leaf("d"), Leaf("e")))),
        And((Leaf("f"), Seq((Leaf("g"), Leaf("h"))))),
        Xor((Leaf("i"), Seq((Leaf("j"), Leaf("k"))))),
    ))
    sim = SimConfig(n_traces=300, noise_probability=0.3, seed=(7, 1), with_performance=True)
    buffer = io.StringIO()
    write_event_log(simulate_log(tree, sim), buffer)
    assert hashlib.sha256(buffer.getvalue().encode()).hexdigest() == GOLDEN_SHA256


@pytest.mark.parametrize("seed", [-1, 1.5, (1, -2), (1, 2.0), [1, 2], "7", None, True, (1, False)])
def test_bad_seed_rejected(seed):
    with pytest.raises(ConfigError, match="seed"):
        SimConfig(seed=seed)
    with pytest.raises(ConfigError, match="seed"):
        generate_process_tree(seed)
    with pytest.raises(ConfigError, match="seed"):
        mutate_tree(Seq((Leaf("a"), Leaf("b"))), seed)
    with pytest.raises(ConfigError, match="seed"):
        random_baseline(["a"], ["b"], 1, seed)


@pytest.mark.parametrize("n", [-1, 1.5, "2", None])
def test_bad_baseline_size_rejected(n):
    with pytest.raises(ConfigError, match="^n must"):
        random_baseline("ab", "cd", n, 0)


@pytest.mark.parametrize(
    "config, field, value",
    [
        (GenConfig, "target_leaves", 0),
        (GenConfig, "target_leaves", 2.5),
        (GenConfig, "max_children", 1),
        (GenConfig, "max_children", 3.0),
        (GenConfig, "max_depth", 1),
        (GenConfig, "max_depth", 4.5),
        (MutationConfig, "n_replacements", -1),
        (MutationConfig, "n_insertions", 1.5),
        (MutationConfig, "n_deletions", "1"),
        (SimConfig, "n_traces", 2.5),
        (SimConfig, "max_loop_iterations", 0),
        (SimConfig, "max_loop_iterations", 2.0),
        (SimConfig, "noise_probability", None),
        (GenConfig, "operator_weights", {"seq": "1"}),
        (SimConfig, "n_traces", False),
        (GenConfig, "operator_weights", [("seq", 1.0)]),
        (GenConfig, "operator_weights", None),
        (SimConfig, "with_performance", "no"),
        (SimConfig, "with_performance", 1),
        (SimConfig, "with_performance", None),
    ],
)
def test_invalid_lab_config_rejected_when_built(config, field, value):
    with pytest.raises(ConfigError, match=field):
        config(**{field: value})


@pytest.mark.parametrize("depth", [0, -7])
def test_depth_below_one_rejected_for_a_one_leaf_tree(depth):
    # A single leaf is a tree of depth 1; the two-leaf depth rule does not reach it.
    with pytest.raises(ConfigError, match="max_depth"):
        GenConfig(target_leaves=1, max_depth=depth)
    with pytest.raises(ConfigError, match="max_tree_depth"):
        ExperimentConfig(leaves_range=(1, 1), max_tree_depth=depth)


def test_negative_trace_count_rejected():
    with pytest.raises(ConfigError, match="n_traces"):
        SimConfig(n_traces=-1)


def test_stream_count_beyond_one_index_word_rejected():
    with pytest.raises(ConfigError, match=r"2\*\*32"):
        _stream_states(0, 2**32 + 1)
