"""Fuzzy (edit-distance) self-join — approximate string matching as a
first-class curation operator: find all pairs of rows whose short text
fields are within a bounded Levenshtein distance, using equality blocking
to avoid the quadratic all-pairs scan.

Scale shape: ONE bucketed shuffle on ``hash(block_key) % buckets`` (the
shared rwcf routing hash) co-locates every block; inside a bucket a single
lexsort groups blocks and the candidate pairs of each block are verified by
a Levenshtein kernel VECTORIZED ACROSS THE PAIR AXIS — the DP recurrence
runs as ``L x L`` numpy vector ops over all pairs at once, never a Python
loop over pairs.  A length pre-filter (``|len(a)-len(b)| > max_dist`` can
never match) prunes before the DP.  Blocks are whole-key co-located, so a
pathological block (every row sharing one key) degrades to that block's
quadratic pair count — callers pick block keys with bounded selectivity,
the same contract as the reference's dictionary page bound
(src/lib.rs:25-48 keeps pages bounded for the same reason).

Semantics (pinned by the DuckDB oracle in __ray_entry__.py): emit
``(a_key, b_key, dist)`` for every pair in the same block with
``a_key < b_key`` and ``levenshtein(a_text, b_text) <= max_dist``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa



def _pad_matrix(arr: pa.Array):
    """(matrix uint8 (n, Lmax), lengths int64) from a string Array —
    zero-copy read of the Arrow data buffer, no per-row Python."""
    arr = arr.cast(pa.large_string())
    off = np.frombuffer(arr.buffers()[1], dtype=np.int64,
                        count=len(arr) + 1 + arr.offset)[arr.offset:]
    flat = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    lens = np.diff(off)
    n = len(arr)
    L = int(lens.max()) if n else 0
    if L == 0:
        return np.zeros((n, 0), dtype=np.uint8), lens.astype(np.int64)
    idx = off[:-1, None] + np.arange(L)[None, :]
    valid = np.arange(L)[None, :] < lens[:, None]
    m = np.where(valid, flat[np.minimum(idx, max(flat.size - 1, 0))], 0)
    return m.astype(np.uint8), lens.astype(np.int64)


def levenshtein_pairs(m: np.ndarray, lens: np.ndarray,
                      ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """Exact Levenshtein distance for each pair ``(ia[p], ib[p])`` of rows
    of the padded matrix ``m`` — the classic DP, vectorized across the
    pair axis: O(Lmax^2) numpy ops of width P instead of a per-pair loop.
    Row ``i``'s DP line is harvested into the result exactly when
    ``len(a) == i``, so padding never contaminates the answer."""
    A, B = m[ia], m[ib]
    la, lb = lens[ia], lens[ib]
    P, L = ia.size, m.shape[1]
    res = np.where(la == 0, lb, -1).astype(np.int64)
    prev = np.broadcast_to(np.arange(L + 1, dtype=np.int64),
                           (P, L + 1)).copy()
    done0 = la == 0
    for i in range(1, L + 1):
        cur = np.empty_like(prev)
        cur[:, 0] = i
        ai = A[:, i - 1]
        for j in range(1, L + 1):
            sub = prev[:, j - 1] + (ai != B[:, j - 1])
            np.minimum(prev[:, j] + 1, cur[:, j - 1] + 1, out=cur[:, j])
            np.minimum(cur[:, j], sub, out=cur[:, j])
        hit = la == i
        if hit.any():
            res[hit] = cur[hit, lb[hit]]
        prev = cur
    res[done0] = lb[done0]
    return res


def _block_pairs(seg_starts: np.ndarray, n: int):
    """All within-segment index pairs (i < j) for contiguous segments of a
    sorted array; loops only over SEGMENTS (block-value count), the pairs
    themselves are generated vectorized per segment."""
    ia, ib = [], []
    ends = np.append(seg_starts[1:], n)
    for s, e in zip(seg_starts, ends):
        k = e - s
        if k < 2:
            continue
        i, j = np.triu_indices(k, 1)
        ia.append(i + s)
        ib.append(j + s)
    if not ia:
        z = np.empty(0, dtype=np.int64)
        return z, z
    return np.concatenate(ia), np.concatenate(ib)


def fuzzy_pairs(ds, id_col: str = "p_partkey", text_col: str = "p_name",
                block_col: str = "p_size", max_dist: int = 2,
                buckets: int = 32):
    """All same-block row pairs with edit distance <= ``max_dist``
    (``a_key < b_key``).  One bucketed exchange; vectorized DP verify."""

    from .joins import exchange
    empty = pa.table({"a_key": pa.array([], pa.int64()),
                      "b_key": pa.array([], pa.int64()),
                      "dist": pa.array([], pa.int64())})

    def verify(g: pa.Table) -> pa.Table:
        if g.num_rows < 2:
            return empty
        bv = g.column(block_col).combine_chunks().to_numpy(
            zero_copy_only=False)
        order = np.argsort(bv, kind="stable")
        g = g.take(pa.array(order))
        bv = bv[order]
        seg = np.flatnonzero(np.concatenate(
            ([True], bv[1:] != bv[:-1])))
        ia, ib = _block_pairs(seg, g.num_rows)
        if not ia.size:
            return empty
        m, lens = _pad_matrix(g.column(text_col).combine_chunks())
        keep = np.abs(lens[ia] - lens[ib]) <= max_dist
        ia, ib = ia[keep], ib[keep]
        if not ia.size:
            return empty
        d = levenshtein_pairs(m, lens, ia, ib)
        ok = d <= max_dist
        ia, ib, d = ia[ok], ib[ok], d[ok]
        ids = g.column(id_col).combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        a, b = ids[ia], ids[ib]
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        return pa.table({"a_key": pa.array(lo), "b_key": pa.array(hi),
                         "dist": pa.array(d.astype(np.int64))})

    return exchange(ds.select_columns([id_col, text_col, block_col]), verify,
                    buckets=buckets, keys=[block_col], schema=empty.schema)
