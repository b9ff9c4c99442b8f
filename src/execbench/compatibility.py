"""Compatibility graph over matches and change enumeration.

Two replacements conflict exactly when they would rewrite the same own-log
activity; sharing a benchmark-side activity is fine.  Sets of pairwise
compatible replacements (cliques of the graph, single nodes included) are
the candidate process changes.

Because conflict is "same own activity", the graph is complete
multipartite: its parts are the groups of matches that share an own
activity, nodes in one group are never adjacent, and nodes in different
groups always are.  A clique therefore picks some own activities and one
match for each, so changes are enumerated as products over combinations of
groups and counted in closed form, with no general clique search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, groupby, product

from .errors import DataError, check_int
from .matching import Match, MatchSet

DEFAULT_MAX_CHANGE_SIZE = 3


@dataclass(frozen=True)
class ProcessChange:
    replacements: tuple[Match, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "replacements", tuple(sorted(self.replacements)))
        # Sorted, the replacements of one own activity are adjacent.
        for m, n in zip(self.replacements, self.replacements[1:]):
            if m.own == n.own:
                raise DataError(f"a process change replaces own activity {m.own!r} more than once")

    @property
    def own_activities(self) -> frozenset[str]:
        return frozenset(m.own for m in self.replacements)

    @property
    def benchmark_activities(self) -> frozenset[str]:
        return frozenset(m.benchmark for m in self.replacements)

    @property
    def is_transitive(self) -> bool:
        """True when some replacement's target is itself replaced away."""
        own = self.own_activities
        return any(m.benchmark in own for m in self.replacements)

    def mapping(self) -> dict[str, str]:
        return {m.own: m.benchmark for m in self.replacements}

    def sort_key(self) -> tuple:
        return (len(self.replacements), self.replacements)


@dataclass(frozen=True)
class CompatGraph:
    nodes: tuple[Match, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes)))

    @cached_property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        """Node indices per own activity; the nodes are sorted, so each group is a run."""
        runs = groupby(range(len(self.nodes)), key=lambda i: self.nodes[i].own)
        return tuple(tuple(run) for _, run in runs)

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        everything = frozenset(range(len(self.nodes)))
        return tuple(everything.difference(group) for group in self.groups for _ in group)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, j) for a, b in combinations(self.groups, 2) for i in a for j in b)


def build_compatibility_graph(matches: MatchSet) -> CompatGraph:
    return CompatGraph(matches.matches)


def count_changes(graph: CompatGraph, max_size: int = DEFAULT_MAX_CHANGE_SIZE) -> int:
    """Number of changes that ``enumerate_changes`` would return, without building them.

    A change of size k picks k groups and one node in each, so there are
    e_k(group sizes) of them, the k-th elementary symmetric sum; e_1..e_k
    follow from one pass over the groups.
    """
    sums = [1] + [0] * _largest_size(graph, max_size)
    for group in graph.groups:
        for k in range(len(sums) - 1, 0, -1):
            sums[k] += sums[k - 1] * len(group)
    return sum(sums[1:])


def enumerate_changes(graph: CompatGraph, max_size: int = DEFAULT_MAX_CHANGE_SIZE) -> list[ProcessChange]:
    """All cliques of size 1..max_size in canonical order.

    Canonical order is by size, then lexicographically by the sorted
    replacement pairs.  Larger cliques exist exactly when more than
    ``max_size`` own activities have a match, that is when
    ``len(graph.groups) > max_size``.
    """
    largest = _largest_size(graph, max_size)
    changes = [
        ProcessChange(tuple(graph.nodes[i] for i in clique))
        for size in range(1, largest + 1)
        for chosen in combinations(graph.groups, size)
        for clique in product(*chosen)
    ]
    changes.sort(key=ProcessChange.sort_key)
    return changes


def _largest_size(graph: CompatGraph, max_size: int) -> int:
    """``max_size`` checked, and capped at the number of groups: no larger change exists."""
    check_int("max change size", max_size, 1)
    return min(max_size, len(graph.groups))

