"""The batched bit-parallel edit distance and the order counts must agree
with plain oracles, on short and long (multi-word) sequences alike."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_levenshtein
from execbench._kernels import CHUNK_ROWS, levenshtein_many, order_stats


def _pad(seqs):
    width = max([len(s) for s in seqs] + [1])
    pool = np.full((len(seqs), width), -1, dtype=np.int32)
    lens = np.zeros(len(seqs), dtype=np.int32)
    for i, s in enumerate(seqs):
        pool[i, : len(s)] = s
        lens[i] = len(s)
    return pool, lens


def _distances(queries, cands, qi, ci):
    q, q_lens = _pad(queries)
    c, c_lens = _pad(cands)
    return list(levenshtein_many(q, c, q_lens, c_lens, qi, ci))


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


@given(batch=batches())
@settings(max_examples=150, deadline=None)
def test_batched_rows_match_naive_dp(batch):
    queries, cands, rows = batch
    got = _distances(queries, cands, [q for q, _ in rows], [c for _, c in rows])
    expected = {(q, c): naive_levenshtein(queries[q], cands[c]) for q, c in set(rows)}
    assert got == [expected[row] for row in rows]


def test_batch_larger_than_one_chunk():
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
                if any(a == x and b == y for i, a in enumerate(seq) for b in seq[i + 1 :]):
                    before[x, y] += f
    for x in range(n_symbols):
        cooccur[x, x] = before[x, x]
    return traces_with, cooccur, before


@given(seqs=st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=7), min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_order_stats_matches_naive_count(seqs):
    freqs = np.ones(len(seqs), dtype=np.int64)
    pool, lens = _pad(seqs)
    got = order_stats(pool, lens.astype(np.int64), freqs, 5)
    expected = _naive_order_stats(seqs, freqs, 5)
    for g, e in zip(got, expected):
        assert np.array_equal(g, e)


def test_order_stats_diagonal_counts_repeats():
    seqs = [[0, 1, 0], [1], [0]]
    pool, lens = _pad(seqs)
    traces_with, cooccur, before = order_stats(
        pool, lens.astype(np.int64), np.array([1, 1, 1], dtype=np.int64), 2
    )
    assert traces_with[0] == 2 and traces_with[1] == 2
    assert cooccur[0, 0] == 1  # only the repeating trace
    assert cooccur[1, 1] == 0
    assert cooccur[0, 1] == cooccur[1, 0] == 1
    assert before[0, 1] == 1 and before[1, 0] == 1 and before[0, 0] == 1

