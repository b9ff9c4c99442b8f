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

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, groupby, product
from typing import Iterable

from .errors import ConfigError, TruncationWarning
from .matching import Match, MatchSet

DEFAULT_MAX_CHANGE_SIZE = 3


@dataclass(frozen=True)
class ProcessChange:
    replacements: tuple[Match, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "replacements", tuple(sorted(self.replacements)))

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

    def __len__(self) -> int:
        return len(self.nodes)


def build_compatibility_graph(matches: MatchSet | Iterable[Match]) -> CompatGraph:
    return CompatGraph(tuple(matches.matches if isinstance(matches, MatchSet) else matches))


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


def enumerate_changes(
    graph: CompatGraph,
    max_size: int = DEFAULT_MAX_CHANGE_SIZE,
    warn_truncation: bool = True,
) -> list[ProcessChange]:
    """All cliques of size 1..max_size in canonical order.

    Canonical order is by size, then lexicographically by the sorted
    replacement pairs.  When cliques beyond ``max_size`` exist, that is when
    more than ``max_size`` own activities have a match, a
    :class:`TruncationWarning` notes that larger combined changes were cut
    off.
    """
    largest = _largest_size(graph, max_size)
    if len(graph.groups) > max_size and warn_truncation:
        warnings.warn(
            f"compatible sets larger than {max_size} replacements exist and were not enumerated",
            TruncationWarning,
            stacklevel=2,
        )
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
    if max_size < 1:
        raise ConfigError(f"max change size must be at least 1, got {max_size}")
    return min(max_size, len(graph.groups))


def maximal_changes(graph: CompatGraph) -> list[ProcessChange]:
    """Inclusion-maximal cliques, one node from every group, in canonical order."""
    if not graph.nodes:
        return []
    return [ProcessChange(tuple(graph.nodes[i] for i in clique)) for clique in product(*graph.groups)]
