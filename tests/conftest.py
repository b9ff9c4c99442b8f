"""Shared fixtures: the worked purchasing example and independent oracles."""

from __future__ import annotations

import pytest

from execbench.eventlog import EventLog, Trace, VariantIndex, extract_variants


def make_log(variants, freqs=None, performance=None) -> EventLog:
    """Build an in-memory log from activity sequences.

    ``variants`` is a list of sequences; ``freqs`` repeats each sequence as
    that many traces; ``performance`` assigns one value per variant (each
    of its traces gets the value).
    """
    freqs = freqs or [1] * len(variants)
    performance = performance or [None] * len(variants)
    traces = {}
    counter = 0
    for variant, freq, perf in zip(variants, freqs, performance):
        for _ in range(freq):
            counter += 1
            case_id = f"c{counter}"
            traces[case_id] = Trace(case_id, tuple(variant), tuple(range(len(variant))), perf)
    return EventLog(traces)


def make_index(variants, freqs=None) -> VariantIndex:
    """The variant index of ``make_log(variants, freqs)``: what the footprint builders read."""
    return extract_variants(make_log(variants, freqs))


def naive_levenshtein(a, b) -> int:
    """Full-matrix token DP, kept deliberately plain as a test oracle."""
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[m][n]


OWN_VARIANTS = [
    ("a", "d", "e", "g"),
    ("a", "d", "f", "g"),
    ("c", "d", "e", "g"),
    ("c", "d", "f", "g"),
]
BENCHMARK_VARIANTS = [
    ("b", "d", "e", "g"),
    ("c", "d", "e", "g"),
]


@pytest.fixture
def own_log() -> EventLog:
    return make_log(OWN_VARIANTS)


@pytest.fixture
def benchmark_log() -> EventLog:
    return make_log(BENCHMARK_VARIANTS)


OWN_CSV = "\n".join(
    ["case_id,activity,timestamp"]
    + [
        f"p{i + 1},{a},2024-01-01T09:0{i}:{j:02d}"
        for i, variant in enumerate(OWN_VARIANTS)
        for j, a in enumerate(variant)
    ]
) + "\n"

BENCHMARK_CSV = "\n".join(
    ["case_id,activity,timestamp"]
    + [
        f"q{i + 1},{a},2024-01-01T09:0{i}:{j:02d}"
        for i, variant in enumerate(BENCHMARK_VARIANTS)
        for j, a in enumerate(variant)
    ]
) + "\n"
