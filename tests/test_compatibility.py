"""Compatibility graph construction and clique enumeration."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from execbench.compatibility import (
    CompatGraph,
    ProcessChange,
    build_compatibility_graph,
    count_changes,
    enumerate_changes,
)
from execbench.errors import ConfigError, DataError
from execbench.matching import Match, MatchSet


WORKED_MATCHES = [Match("a", "b"), Match("a", "c"), Match("c", "b"), Match("f", "e")]


def _graph(matches):
    return build_compatibility_graph(MatchSet(tuple(sorted(matches))))


def _pairs(change: ProcessChange):
    return tuple((m.own, m.benchmark) for m in change.replacements)


def test_worked_example_graph_structure():
    graph = _graph(WORKED_MATCHES)
    assert len(graph.nodes) == 4
    assert len(graph.edges) == 5
    conflict = {graph.nodes.index(Match("a", "b")), graph.nodes.index(Match("a", "c"))}
    assert all(set(edge) != conflict for edge in graph.edges)


def test_single_match_graph():
    graph = _graph([Match("a", "b")])
    assert len(graph.nodes) == 1 and not graph.edges


def test_same_own_activity_conflicts():
    graph = _graph([Match("a", "b"), Match("a", "c")])
    assert len(graph.edges) == 0


def test_worked_example_enumeration_and_maximal():
    graph = _graph(WORKED_MATCHES)
    changes = enumerate_changes(graph, 3)
    assert len(changes) == 11
    sizes = sorted(len(c.replacements) for c in changes)
    assert sizes == [1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3]
    # the largest changes, one match per own activity, are the maximal ones
    assert [_pairs(c) for c in changes if len(c.replacements) == 3] == [
        (("a", "b"), ("c", "b"), ("f", "e")),
        (("a", "c"), ("c", "b"), ("f", "e")),
    ]


def test_empty_graph_enumerates_nothing():
    graph = _graph([])
    assert enumerate_changes(graph, 3) == []
    assert count_changes(graph, 3) == 0


def test_truncation_warning_when_larger_cliques_exist():
    matches = [Match("a", "x"), Match("b", "x"), Match("c", "x")]
    graph = _graph(matches)
    changes = enumerate_changes(graph, 2)
    assert all(len(c.replacements) <= 2 for c in changes)
    full = enumerate_changes(graph, 3)
    assert {tuple(c.replacements) for c in changes} == {
        tuple(c.replacements) for c in full if len(c.replacements) <= 2
    }


def test_graph_sorts_its_nodes_into_one_group_per_own_activity():
    graph = CompatGraph((Match("b", "x"), Match("a", "y"), Match("b", "w")))
    assert graph.nodes == (Match("a", "y"), Match("b", "w"), Match("b", "x"))
    assert graph.groups == ((0,), (1, 2))
    assert graph.adjacency == (frozenset({1, 2}), frozenset({0}), frozenset({0}))


def test_max_size_above_the_group_count_changes_nothing():
    graph = _graph(WORKED_MATCHES)
    assert count_changes(graph, 10**9) == count_changes(graph, 3) == 11
    assert enumerate_changes(graph, 10**9) == enumerate_changes(graph, 3)


def test_max_size_validated():
    with pytest.raises(ConfigError):
        enumerate_changes(_graph(WORKED_MATCHES), 0)


def test_transitive_tag():
    assert ProcessChange((Match("a", "c"), Match("c", "b"))).is_transitive
    assert not ProcessChange((Match("a", "b"), Match("f", "e"))).is_transitive


@pytest.mark.parametrize(
    "replacements",
    [
        (Match("a", "x"), Match("a", "y")),
        (Match("a", "y"), Match("b", "z"), Match("a", "x")),
        (Match("a", "x"), Match("a", "x")),
    ],
)
def test_change_refuses_two_replacements_of_one_own_activity(replacements):
    # mapping() would keep only one of them, while the pool held both targets' variants.
    with pytest.raises(DataError, match="own activity 'a' more than once"):
        ProcessChange(replacements)


def test_canonical_order_by_size_then_pairs():
    graph = _graph(WORKED_MATCHES)
    changes = enumerate_changes(graph, 3)
    keys = [c.sort_key() for c in changes]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def _brute_force_cliques(nodes, adjacency, max_size):
    out = []
    for size in range(1, max_size + 1):
        for subset in combinations(range(len(nodes)), size):
            if all(b in adjacency[a] for a, b in combinations(subset, 2)):
                out.append(subset)
    return {tuple(nodes[i] for i in subset) for subset in out}


@st.composite
def random_match_graphs(draw):
    n_own = draw(st.integers(1, 4))
    n_bench = draw(st.integers(1, 4))
    pool = [Match(f"o{i}", f"b{j}") for i in range(n_own) for j in range(n_bench)]
    subset = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12, unique=True))
    return subset


@given(matches=random_match_graphs(), max_size=st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_enumeration_matches_brute_force(matches, max_size):
    graph = _graph(matches)
    changes = enumerate_changes(graph, max_size)
    got = {tuple(c.replacements) for c in changes}
    expected = _brute_force_cliques(graph.nodes, graph.adjacency, max_size)
    assert got == expected
    # every enumerated change is a clique with pairwise distinct own activities
    for change in changes:
        owns = [m.own for m in change.replacements]
        assert len(set(owns)) == len(owns)


@given(matches=random_match_graphs(), max_size=st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_count_matches_enumeration_and_brute_force(matches, max_size):
    graph = _graph(matches)
    count = count_changes(graph, max_size)
    assert count == len(enumerate_changes(graph, max_size))
    assert count == len(_brute_force_cliques(graph.nodes, graph.adjacency, max_size))


@given(matches=random_match_graphs(), k=st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_size_cap_is_a_filter(matches, k):
    graph = _graph(matches)
    capped = {tuple(c.replacements) for c in enumerate_changes(graph, k)}
    everything = enumerate_changes(graph, len(graph.nodes))
    assert capped == {tuple(c.replacements) for c in everything if len(c.replacements) <= k}

