"""Tree generation, mutation tracking, play-out, noise, and membership."""

import pytest

from conftest import naive_levenshtein
from execbench.errors import ConfigError
from execbench.eventlog import extract_variants
from execbench.proctree import (
    And,
    GenConfig,
    Leaf,
    Loop,
    MutationConfig,
    Seq,
    SimConfig,
    Xor,
    generate_process_tree,
    inject_noise,
    leaves,
    mutate_tree,
    simulate_log,
    tree_accepts,
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


def test_zero_noise_is_identity():
    tree = generate_process_tree(4, GenConfig(target_leaves=8))
    log = simulate_log(tree, SimConfig(n_traces=30, noise_probability=0.0, seed=5))
    assert inject_noise(log, 123, 0.0) is not log
    assert {t.variant for t in inject_noise(log, 123, 0.0).traces.values()} == {
        t.variant for t in log.traces.values()
    }


def test_full_noise_perturbs_within_edit_distance_two():
    tree = generate_process_tree(8, GenConfig(target_leaves=10))
    clean = simulate_log(tree, SimConfig(n_traces=100, noise_probability=0.0, seed=9))
    noisy = inject_noise(clean, 10, 1.0)
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
    noisy = inject_noise(clean, 4, 0.25)
    changed = sum(
        clean.traces[c].variant != noisy.traces[c].variant for c in clean.traces
    )
    # 3 sigma around np = 250 with sigma ~ 13.7
    assert 209 <= changed <= 291


def test_single_event_traces_only_duplicate():
    log = simulate_log(Leaf("a"), SimConfig(n_traces=50, noise_probability=0.0, seed=6))
    noisy = inject_noise(log, 7, 1.0)
    assert {t.variant for t in noisy.traces.values()} == {("a", "a")}


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
    idx = extract_variants(with_perf)
    assert idx.entries[("a", "b")].mean_performance == -1.0
