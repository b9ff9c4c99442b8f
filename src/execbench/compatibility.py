"""Compatibility graph over matches and clique-based change enumeration.

Two replacements conflict exactly when they would rewrite the same own-log
activity; sharing a benchmark-side activity is fine.  Sets of pairwise
compatible replacements (cliques of the graph, single nodes included) are
the candidate process changes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
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
    adjacency: tuple[frozenset[int], ...]

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (i, j) for i, nbrs in enumerate(self.adjacency) for j in nbrs if i < j
        )

    def __len__(self) -> int:
        return len(self.nodes)


def build_compatibility_graph(matches: MatchSet | Iterable[Match]) -> CompatGraph:
    nodes = tuple(sorted(matches.matches if isinstance(matches, MatchSet) else matches))
    adjacency = tuple(
        frozenset(j for j, other in enumerate(nodes) if j != i and other.own != node.own)
        for i, node in enumerate(nodes)
    )
    return CompatGraph(nodes, adjacency)


def enumerate_changes(
    graph: CompatGraph,
    max_size: int = DEFAULT_MAX_CHANGE_SIZE,
    warn_truncation: bool = True,
) -> list[ProcessChange]:
    """All cliques of size 1..max_size in canonical order.

    Canonical order is by size, then lexicographically by the sorted
    replacement pairs.  When cliques beyond ``max_size`` exist, a
    :class:`TruncationWarning` notes that larger combined changes were cut
    off.
    """
    if max_size < 1:
        raise ConfigError(f"max change size must be at least 1, got {max_size}")
    cliques: list[tuple[int, ...]] = []
    truncated = False

    def extend(clique: tuple[int, ...], candidates: frozenset[int]) -> None:
        nonlocal truncated
        if len(clique) == max_size:
            if candidates:
                truncated = True
            return
        for v in sorted(candidates):
            grown = clique + (v,)
            cliques.append(grown)
            extend(grown, candidates & graph.adjacency[v] & _above(v, len(graph)))
    for v in range(len(graph)):
        clique = (v,)
        cliques.append(clique)
        extend(clique, graph.adjacency[v] & _above(v, len(graph)))
    if truncated and warn_truncation:
        warnings.warn(
            f"compatible sets larger than {max_size} replacements exist and were not enumerated",
            TruncationWarning,
            stacklevel=2,
        )
    changes = [ProcessChange(tuple(graph.nodes[i] for i in clique)) for clique in cliques]
    changes.sort(key=ProcessChange.sort_key)
    return changes


def _above(v: int, n: int) -> frozenset[int]:
    return frozenset(range(v + 1, n))


def maximal_changes(graph: CompatGraph) -> list[ProcessChange]:
    """Inclusion-maximal cliques via branch and bound with pivoting."""
    found: list[frozenset[int]] = []

    def expand(clique: frozenset[int], candidates: set[int], excluded: set[int]) -> None:
        if not candidates and not excluded:
            found.append(clique)
            return
        pivot = max(candidates | excluded, key=lambda u: len(graph.adjacency[u] & candidates))
        for v in sorted(candidates - graph.adjacency[pivot]):
            expand(
                clique | {v},
                candidates & graph.adjacency[v],
                excluded & graph.adjacency[v],
            )
            candidates.discard(v)
            excluded.add(v)

    if len(graph):
        expand(frozenset(), set(range(len(graph))), set())
    changes = [ProcessChange(tuple(graph.nodes[i] for i in clique)) for clique in found]
    changes.sort(key=ProcessChange.sort_key)
    return changes
