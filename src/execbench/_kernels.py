"""Hot numeric kernels: batched token-level edit distance and order counts.

``levenshtein_many`` computes one edit distance per row of a batch.  Row
``r`` pairs query ``qi[r]`` with candidate ``ci[r]``; queries and
candidates are -1-padded int32 matrices, and a row's length is its count of
codes that are not padding.  So one call can align a whole batch:
``ChangeScorer`` queues the missing (modified variant, candidate) pairs of
all the changes it scores and sends them in one call per ``CHUNK_ROWS``
pairs.  It runs Myers' bit-vector recurrence (Myers 1999, J. ACM 46(3))
vectorized across rows: each query's DP column is a bit vector of 64-bit
words, and queries longer than 64 tokens add and shift across words with
carries (Hyyrö 2003).  Rows are sorted by candidate length, longest first,
so candidate column ``j`` only updates a prefix of the rows, and are
processed in chunks of at most ``CHUNK_ROWS`` so memory stays bounded.

``order_stats`` counts per-activity and per-pair occurrences over a batch
of V encoded variants of A symbols.  Beside int64 V × A arrays (first and
last positions, weighted presence), it allocates one bool V × A × A array,
``first[x] < last[y]``, which ``einsum`` sums in buffered chunks: no int64
copy of it is made.

``perfbench/`` at the repository root times both kernels inside the whole
pipeline (see ``perfbench/NOTES.md``).

Encoding contract: activity tokens are non-negative int32 codes, padding
cells are -1.  :attr:`execbench.eventlog.VariantIndex.codes` produces them:
a code is the activity's position in its log's sorted alphabet.
"""

from __future__ import annotations

import numpy as np

CHUNK_ROWS = 1 << 13
_WORD_BITS = 64
_ONE = np.uint64(1)
_TOP = np.uint64(_WORD_BITS - 1)
_ALL = ~np.uint64(0)


def _peq_tables(queries: np.ndarray, n_symbols: int, n_words: int) -> np.ndarray:
    """Each query's match masks, stored as ``peq[word, query * n_symbols + symbol]``.

    Bit ``i % 64`` of word ``i // 64`` is set when the query's token ``i``
    equals the symbol.  Symbols are tokens shifted up by one, so the padding
    code -1 becomes symbol 0, which matches nothing.
    """
    peq = np.zeros((n_words, queries.shape[0] * n_symbols), dtype=np.uint64)
    rows, positions = np.nonzero(queries >= 0)
    symbols = rows * n_symbols + queries[rows, positions] + 1
    bits = np.left_shift(_ONE, (positions % _WORD_BITS).astype(np.uint64))
    np.bitwise_or.at(peq, (positions // _WORD_BITS, symbols), bits)
    return peq


def _popcount(x: np.ndarray) -> np.ndarray:
    x = x - ((x >> _ONE) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return (x * np.uint64(0x0101010101010101)) >> np.uint64(56)


def _myers_chunk(peq, offsets, query_lens, cand_columns, cand_ids, cand_lens):
    """Distances for one chunk of rows sorted by candidate length, longest first.

    ``offsets[r]`` is row r's query base column in ``peq``, and
    ``cand_columns[j, cand_ids[r]]`` its candidate's token j.  Pv and Mv
    hold the vertical +1 and -1 deltas of each row's current DP column.  A
    row stops changing once its candidate is consumed, so at the end its
    distance is the top-row value, its candidate length, plus the sum of the
    deltas over its query's bits: none for an empty query.
    """
    n_words, rows = peq.shape[0], len(offsets)
    pv = np.full((n_words, rows), _ALL, dtype=np.uint64)
    mv = np.zeros((n_words, rows), dtype=np.uint64)
    active = np.searchsorted(-cand_lens, -np.arange(cand_lens[0]), side="left")
    for j, n in enumerate(active):
        eqs = peq.take(cand_columns[j].take(cand_ids[:n]) + offsets[:n], axis=1)
        carry = mh_in = None
        ph_in = _ONE  # the top DP row grows by one per column
        for w in range(n_words):
            eq, p, m = eqs[w], pv[w, :n], mv[w, :n]
            more = w + 1 < n_words
            xv = eq | m
            # (eq & p) + p over all words: a word whose sum wrapped below an
            # addend carries one into the next word.
            total = (eq & p) + p
            if more:
                wrapped = total < p
            if carry is not None:
                total += carry
                if more:
                    wrapped |= total < carry
            xh = (total ^ p) | eq
            ph = m | ~(xh | p)
            mh = p & xh
            if more:
                carry = wrapped.astype(np.uint64)
                ph_out, mh_out = ph >> _TOP, mh >> _TOP
            ph <<= _ONE
            ph |= ph_in
            mh <<= _ONE
            if mh_in is not None:
                mh |= mh_in
            if more:
                ph_in, mh_in = ph_out, mh_out
            pv[w, :n] = mh | ~(xv | ph)
            mv[w, :n] = ph & xv
    bits = np.clip(query_lens - _WORD_BITS * np.arange(n_words)[:, None], 0, _WORD_BITS)
    mask = np.where(bits == _WORD_BITS, _ALL, (_ONE << (bits % _WORD_BITS).astype(np.uint64)) - _ONE)
    deltas = _popcount(pv & mask).sum(axis=0) - _popcount(mv & mask).sum(axis=0)
    return cand_lens + deltas.astype(np.int64)


def levenshtein_many(queries: np.ndarray, cands: np.ndarray, qi: np.ndarray, ci: np.ndarray) -> np.ndarray:
    """Edit distance between ``queries[qi[r]]`` and ``cands[ci[r]]`` for every r.

    ``queries`` (Q, wq) and ``cands`` (C, wc) are int32 codes padded at the
    end with -1, so a row's length is its count of codes >= 0; extra padding
    columns change no distance.  Rows may repeat and come in any order.
    Returns one int32 distance per row; an empty query's distance is its
    candidate's length.
    """
    qi = np.asarray(qi, dtype=np.intp)
    ci = np.asarray(ci, dtype=np.intp)
    query_lens = (queries >= 0).sum(axis=1)
    m, n = query_lens[qi], (cands >= 0).sum(axis=1)[ci]
    out = np.empty(len(qi), dtype=np.int32)
    rows = np.argsort(-n, kind="stable")
    n_symbols = int(max(queries.max(initial=-1), cands.max(initial=-1))) + 2
    peq = _peq_tables(queries, n_symbols, -(-int(query_lens.max(initial=0)) // _WORD_BITS))
    cand_columns = np.ascontiguousarray(cands.T)
    for start in range(0, len(rows), CHUNK_ROWS):
        chunk = rows[start : start + CHUNK_ROWS]
        out[chunk] = _myers_chunk(peq, qi[chunk] * n_symbols + 1, m[chunk], cand_columns, ci[chunk], n[chunk])
    return out


def order_stats(tokens: np.ndarray, freqs: np.ndarray, *, n_symbols: int):
    """Trace-weighted per-activity and per-pair occurrence counts.

    Returns ``(traces_with, cooccur, before)`` where ``traces_with[x]``
    counts traces containing symbol x, ``before[x, y]`` counts traces where
    some x occurrence precedes some y occurrence, and ``cooccur[x, y]``
    counts traces containing both.  The diagonal of ``cooccur`` counts
    traces where the symbol occurs at least twice, i.e. co-occurs with
    itself as two distinct events.
    """
    n_variants, width = tokens.shape
    first = np.full((n_variants, n_symbols), width, dtype=np.int64)
    last = np.full((n_variants, n_symbols), -1, dtype=np.int64)
    rows, positions = np.nonzero(tokens >= 0)
    symbols = tokens[rows, positions]
    np.minimum.at(first, (rows, symbols), positions)
    np.maximum.at(last, (rows, symbols), positions)
    present = last >= 0
    weights = freqs.astype(np.int64)
    # first[x] < last[y] implies both occur: an absent one has first = width, last = -1.
    before = np.einsum("v,vxy->xy", weights, first[:, :, None] < last[:, None, :])
    # A contiguous left operand halves numpy's integer product, which has no BLAS path.
    cooccur = np.ascontiguousarray((present * weights[:, None]).T) @ present.astype(np.int64)
    traces_with = np.diagonal(cooccur).copy()
    np.fill_diagonal(cooccur, np.diagonal(before))
    return traces_with, cooccur, before
