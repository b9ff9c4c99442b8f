"""The batched bit-parallel edit distance and the order counts must agree
with plain oracles, on short and long (multi-word) sequences alike."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_levenshtein
from execbench import _kernels
from execbench._kernels import levenshtein_many, order_stats
from execbench.scoring import CHUNK_ROWS


def _pad(seqs, extra=0):
    """The sequences as rows of a -1-padded matrix, ``extra`` columns wider than the longest."""
    width = max([len(s) for s in seqs] + [1]) + extra
    pool = np.full((len(seqs), width), -1, dtype=np.int32)
    for i, s in enumerate(seqs):
        pool[i, : len(s)] = s
    return pool


def _distances(queries, cands, qi, ci, extra=(0, 0)):
    return list(levenshtein_many(_pad(queries, extra[0]), _pad(cands, extra[1]), qi, ci))


token_lists = st.lists(st.integers(0, 6), min_size=1, max_size=12)


@given(query=token_lists, pool_seqs=st.lists(token_lists, min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_levenshtein_matches_naive_dp(query, pool_seqs):
    got = _distances([query], pool_seqs, [0] * len(pool_seqs), range(len(pool_seqs)))
    assert got == [naive_levenshtein(query, s) for s in pool_seqs]


WORD_BOUNDARY_LENGTHS = [0, 1, 63, 64, 65, 127, 128, 129]


@pytest.mark.parametrize("query_len", WORD_BOUNDARY_LENGTHS)
def test_word_boundary_lengths_match_naive_dp(query_len):
    rng = np.random.default_rng(query_len)
    for alphabet in (1, 3, 12):
        query = list(rng.integers(0, alphabet, size=query_len))
        cands = [list(rng.integers(0, alphabet, size=n)) for n in WORD_BOUNDARY_LENGTHS]
        got = _distances([query], cands, [0] * len(cands), range(len(cands)))
        assert got == [naive_levenshtein(query, c) for c in cands]


@st.composite
def batches(draw):
    """Queries, candidates and (query, candidate) rows: repeated, unsorted,
    possibly none, with empty queries and candidates."""
    symbols = draw(st.integers(1, 5))
    length = st.one_of(st.integers(0, 10), st.sampled_from([63, 64, 65, 130]))

    def sequence():
        n = draw(length)
        return draw(st.lists(st.integers(0, symbols - 1), min_size=n, max_size=n))

    queries = [sequence() for _ in range(draw(st.integers(1, 4)))]
    cands = [sequence() for _ in range(draw(st.integers(1, 4)))]
    rows = draw(
        st.lists(st.tuples(st.integers(0, len(queries) - 1), st.integers(0, len(cands) - 1)), max_size=24)
    )
    return queries, cands, rows


@given(batch=batches(), extra=st.tuples(st.integers(0, 70), st.integers(0, 70)))
@settings(max_examples=150, deadline=None)
def test_batched_rows_match_naive_dp(batch, extra):
    """Padding wider than the longest row changes no distance: lengths come from the padding."""
    queries, cands, rows = batch
    got = _distances(queries, cands, [q for q, _ in rows], [c for _, c in rows], extra)
    expected = {(q, c): naive_levenshtein(queries[q], cands[c]) for q, c in set(rows)}
    assert got == [expected[row] for row in rows]


def test_batch_larger_than_scorer_bound_is_one_pass():
    """The scorer cuts its calls at ``CHUNK_ROWS`` pairs; the kernel itself
    aligns a larger batch in one pass and equals the naive DP on every row."""
    rng = np.random.default_rng(7)
    queries = [list(rng.integers(0, 4, size=n)) for n in (3, 40, 70)]
    cands = [list(rng.integers(0, 4, size=int(rng.integers(0, 90)))) for _ in range(50)]
    n_rows = CHUNK_ROWS + 123
    qi = rng.integers(0, len(queries), size=n_rows)
    ci = rng.integers(0, len(cands), size=n_rows)
    expected = {(q, c): naive_levenshtein(queries[q], cands[c]) for q in range(3) for c in range(50)}
    assert _distances(queries, cands, qi, ci) == [expected[q, c] for q, c in zip(qi, ci)]


def test_empty_query_distance_is_pool_length():
    assert _distances([[]], [[1, 2, 3], [4]], [0, 0], [0, 1]) == [3, 1]


def test_empty_batch_returns_no_distances():
    got = levenshtein_many(_pad([[1, 2]]), _pad([[3], [1, 2, 4]]), [], [])
    assert got.dtype == np.int32 and got.shape == (0,)


def _naive_order_stats(seqs, freqs, n_symbols):
    traces_with = np.zeros(n_symbols, dtype=np.int64)
    cooccur = np.zeros((n_symbols, n_symbols), dtype=np.int64)
    before = np.zeros((n_symbols, n_symbols), dtype=np.int64)
    for seq, f in zip(seqs, freqs):
        present = set(seq)
        for x in present:
            traces_with[x] += f
        for x in present:
            for y in present:
                if x != y:
                    cooccur[x, y] += f
        # some x occurrence strictly before some y occurrence
        for x, y in {(a, b) for i, a in enumerate(seq) for b in seq[i + 1 :]}:
            before[x, y] += f
    for x in range(n_symbols):
        cooccur[x, x] = before[x, x]
    return traces_with, cooccur, before


def _assert_same_counts(got, expected):
    for g, e in zip(got, expected, strict=True):
        assert g.dtype == np.int64  # array_equal ignores dtype
        assert np.array_equal(g, e)


# Variants over 5 symbols with their frequencies; small frequencies sum in int32, large ones in int64.
weighted_variants = st.lists(
    st.tuples(st.lists(st.integers(0, 4), min_size=1, max_size=7), st.one_of(st.integers(1, 9), st.integers(1, 2**40))),
    min_size=1,
    max_size=6,
)


def _check_order_stats(weighted):
    seqs = [seq for seq, _ in weighted]
    freqs = np.array([f for _, f in weighted], dtype=np.int64)
    pool = _pad(seqs)
    got = order_stats(pool, freqs, n_symbols=5)
    _assert_same_counts(got, _naive_order_stats(seqs, freqs, 5))


@given(weighted=weighted_variants)
@settings(max_examples=150, deadline=None)
def test_order_stats_matches_naive_count(weighted):
    _check_order_stats(weighted)


# 1 cell puts each variant in its own block; 60 cells hold two variants of
# 5 × 5 cells, so an odd batch ends with a shorter block.
@pytest.mark.parametrize("cells", [1, 60])
@given(weighted=weighted_variants)
@settings(max_examples=100, deadline=None)
def test_order_stats_in_blocks_matches_naive_count(cells, weighted):
    with mock.patch.object(_kernels, "BLOCK_CELLS", cells):
        _check_order_stats(weighted)


def test_wide_order_stats_match_naive_count():
    rng = np.random.default_rng(5)
    n_symbols = 300
    used = rng.permutation(n_symbols)[:250]  # the other 50 symbols occur in no variant
    seqs = [list(rng.choice(used, size=n)) for n in (60, 63, 64, 65, 97, 130)]
    freqs = rng.integers(1, 2**40, size=len(seqs))
    pool = _pad(seqs)
    got = order_stats(pool, freqs, n_symbols=n_symbols)
    _assert_same_counts(got, _naive_order_stats(seqs, freqs, n_symbols))


def test_empty_order_stats_batch():
    empty = np.empty(0, dtype=np.int64)
    got = order_stats(np.empty((0, 0), dtype=np.int32), empty, n_symbols=0)
    assert [(a.dtype, a.shape) for a in got] == [(np.int64, (0,)), (np.int64, (0, 0)), (np.int64, (0, 0))]


@pytest.mark.parametrize("width", [127, 128, 32_767, 32_768])
def test_order_stats_at_position_type_bounds(width):
    """Positions are stored in the narrowest type that holds -1 through the
    width, the first position of an absent symbol.  Symbol 2 occurs nowhere,
    so a type one too narrow would count it or fail to hold it."""
    seqs = [[0] * (width - 1) + [1], [1] + [0] * (width - 1)]
    got = order_stats(_pad(seqs), np.array([3, 5], dtype=np.int64), n_symbols=3)
    traces_with = [8, 8, 0]
    cooccur = [[8, 8, 0], [8, 0, 0], [0, 0, 0]]
    before = [[8, 3, 0], [5, 0, 0], [0, 0, 0]]
    _assert_same_counts(got, [np.array(a, dtype=np.int64) for a in (traces_with, cooccur, before)])


@pytest.mark.parametrize("total", [2**31 - 1, 2**31])
def test_order_stats_at_int32_total(total):
    """``before`` sums in int32 only while the total frequency fits; here
    ``before[0, 1]`` reaches the total."""
    seqs = [[0, 1, 0], [0, 1]]
    got = order_stats(_pad(seqs), np.array([total - 1, 1], dtype=np.int64), n_symbols=2)
    traces_with = [total, total]
    cooccur = [[total - 1, total], [total, 0]]
    before = [[total - 1, total], [total - 1, 0]]
    _assert_same_counts(got, [np.array(a, dtype=np.int64) for a in (traces_with, cooccur, before)])


def test_order_stats_memory_stays_within_the_block_budget():
    """400 variants over 200 symbols make 16 M comparisons; the bool blocks
    hold at most ``BLOCK_CELLS`` of them, beside a few V × S int64 arrays."""
    rng = np.random.default_rng(3)
    n_variants, n_symbols = 400, 200
    seqs = [list(rng.integers(0, n_symbols, size=n)) for n in rng.integers(1, 80, size=n_variants)]
    pool, freqs = _pad(seqs), rng.integers(1, 1000, size=n_variants)
    tracemalloc.start()
    try:
        order_stats(pool, freqs, n_symbols=n_symbols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _kernels.BLOCK_CELLS + 4 * n_variants * n_symbols * 8


def test_order_stats_diagonal_counts_repeats():
    seqs = [[0, 1, 0], [1], [0]]
    pool = _pad(seqs)
    traces_with, cooccur, before = order_stats(pool, np.array([1, 1, 1], dtype=np.int64), n_symbols=2)
    assert traces_with[0] == 2 and traces_with[1] == 2
    assert cooccur[0, 0] == 1  # only the repeating trace
    assert cooccur[1, 1] == 0
    assert cooccur[0, 1] == cooccur[1, 0] == 1
    assert before[0, 1] == 1 and before[1, 0] == 1 and before[0, 0] == 1

