"""Distributed corpus analytics: heavy hitters, grouped top-k, exact
quantiles, distinct counts, deterministic sampling.

Reference scope note: the reference engine has no aggregation operators
beyond the compressed-domain sum pattern (SURVEY.md §2.2, src/test_rle.rs:8-17);
these are the training-data-pipeline extensions the brief mandates. Every
operator here follows the same scale shape: a vectorized per-batch PARTIAL
aggregate (Arrow / numpy kernels, no row loops) so only reduced rows reach
the shuffle, then one small groupby for the final combine. Nothing
corpus-sized is ever collected to the driver; the one documented exception
is :func:`exact_quantiles`, whose driver-side final is HISTOGRAM-sized
(one row per distinct value), not corpus-sized.

Word tokenization everywhere in this module is regex ``\\s+`` splitting via
``pyarrow.compute.split_pattern_regex`` (RE2), which matches DuckDB's
``regexp_extract_all(text, '\\S+')`` token-for-token (probed incl. unicode
and \\x0b/\\x0c edge cases) — that equivalence is what makes the SQL
oracles for these operators exact.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import rayenv
from .joins import (collect, exchange, hash_bucket, int64_fields,
                    output_schema)

__all__ = ["top_tokens", "cms_top_tokens", "grouped_topk",
           "exact_quantiles", "exact_quantiles_float", "grouped_quantiles",
           "distinct_token_count", "distinct_token_count_approx",
           "hash_sample", "stratified_sample", "sample_hash_ok",
           "tfidf_scores"]


def _flat_words(text: pa.ChunkedArray | pa.Array) -> pa.Array:
    """All whitespace-separated words of a text column, flattened.
    ``split_pattern_regex`` emits empty strings for leading/trailing
    whitespace; drop them to match ``regexp_extract_all('\\S+')``."""
    words = pc.split_pattern_regex(text, r"\s+")
    if isinstance(words, pa.ChunkedArray):
        words = words.combine_chunks()
    flat = words.flatten()
    return flat.filter(pc.not_equal(flat, ""))


def top_tokens(ds, text_col: str = "text", k: int = 50):
    """Global heavy hitters: the ``k`` most frequent whitespace tokens,
    ties broken by token ascending (deterministic cut boundary).

    Scale shape: per-batch ``value_counts`` partials (vocabulary-sized
    rows, never the corpus) -> one ``groupby(token).sum`` shuffle -> a
    per-block top-k cut (each block keeps only its own k best, so the
    final sort sees at most blocks x k rows) -> global sort + limit."""

    def partial(t: pa.Table) -> pa.Table:
        vc = pc.value_counts(_flat_words(t.column(text_col)))
        return pa.table({"token": vc.field("values"),
                         "n": pc.cast(vc.field("counts"), pa.int64())})

    # repartition before the groupby: Ray's sort shuffle fans out to the
    # number of INPUT blocks (joins.py rationale) — cap it
    summed = (ds.map_batches(partial, batch_format="pyarrow",
                             **rayenv.remote_args())
              .repartition(32).groupby("token").sum("n"))

    def local_cut(t: pa.Table) -> pa.Table:
        t = pa.table({"token": t.column("token"),
                      "n": pc.cast(t.column("sum(n)"), pa.int64())})
        idx = pc.sort_indices(t, sort_keys=[("n", "descending"),
                                            ("token", "ascending")])
        return t.take(idx[:k])

    cut = summed.map_batches(local_cut, batch_format="pyarrow",
                             **rayenv.remote_args())
    return cut.sort(key=["n", "token"], descending=[True, False]).limit(k)


def _topk_per_key(t: pa.Table, key_col: str, order_col: str, id_col: str,
                  k: int, with_rank: bool = False) -> pa.Table:
    """Vectorized per-key top-k cut over ONE table: order by (key asc,
    order desc, id asc), keep each key's first k rows. No per-key loop —
    one lexsort + segmented rank. Used as both the per-batch partial and
    the per-group final (idempotent: topk(topk(x)) == topk(x))."""
    if t.num_rows == 0:
        return t.append_column("rank", pa.array([], pa.int64())) \
            if with_rank else t
    kv = t.column(key_col).to_numpy(zero_copy_only=False)
    ov = t.column(order_col).to_numpy(zero_copy_only=False)
    iv = t.column(id_col).to_numpy(zero_copy_only=False)
    # np.lexsort: last key is primary; -ov gives order descending
    perm = np.lexsort((iv, -ov, kv))
    ks = kv[perm]
    new = np.ones(ks.size, dtype=bool)
    new[1:] = ks[1:] != ks[:-1]
    seg_start = np.flatnonzero(new)
    seg_len = np.diff(np.append(seg_start, ks.size))
    rank = np.arange(ks.size, dtype=np.int64) - np.repeat(seg_start, seg_len)
    keep = rank < k
    out = t.take(pa.array(perm[keep]))
    if with_rank:
        out = out.append_column("rank", pa.array(rank[keep] + 1))
    return out


def grouped_topk(ds, key_col: str, order_col: str, id_col: str, k: int = 5,
                 buckets: int = 32):
    """Top-k rows per group (e.g. the k longest documents per source),
    ordered by ``order_col`` descending with ``id_col`` ascending as the
    deterministic tie-break; output carries a 1-based ``rank`` column.

    Scale shape: a per-batch partial top-k cut first (only <= k rows per
    key PER BATCH survive — the shuffle moves k x keys rows, not the
    corpus), then ONE bucketed shuffle on hash(key): the in-bucket final
    is the same vectorized multi-key cut, so a million-key corpus costs
    ``buckets`` Ray groups, not a million dispatches (the round-2
    lesson). Assumes k x (keys per batch) fits a block, which holds for
    any k << batch_size."""

    def partial(t: pa.Table) -> pa.Table:
        return _topk_per_key(t, key_col, order_col, id_col, k)

    def final(g: pa.Table) -> pa.Table:
        return _topk_per_key(g.drop_columns(["_b"]), key_col, order_col,
                             id_col, k, with_rank=True)

    return exchange(ds.map_batches(partial, batch_format="pyarrow",
                                   **rayenv.remote_args()),
                    final, buckets=buckets, keys=[key_col],
                    schema=output_schema(ds, None, int64_fields("rank")))


def exact_quantiles(ds, col: str, qs=(0.25, 0.5, 0.9, 0.99)) -> pd.DataFrame:
    """EXACT order statistics over an integer column via a distributed
    value histogram: per-batch ``value_counts`` partials -> one
    ``groupby(v).sum`` shuffle -> driver-side cumulative walk over the
    HISTOGRAM (one row per distinct value — the documented partitioning
    assumption: distinct cardinality must fit the driver, which holds for
    any bounded-domain column like token counts / byte lengths; an
    unbounded float column needs a t-digest instead).

    Semantics: quantile q = the value at 1-based rank ``max(1,
    ceil(q * N))`` of the sorted column (discrete, no interpolation) —
    pinned to SQL ``row_number`` semantics so the oracle is exact."""

    def partial(t: pa.Table) -> pa.Table:
        # drop_null BEFORE counting: pc.value_counts emits a null bucket,
        # which would shift ranks vs SQL (quantiles exclude NULLs)
        vc = pc.value_counts(pc.cast(
            t.column(col).combine_chunks().drop_null(), pa.int64()))
        return pa.table({"v": vc.field("values"),
                         "n": pc.cast(vc.field("counts"), pa.int64())})

    hist = (ds.map_batches(partial, batch_format="pyarrow",
                           **rayenv.remote_args())
            .repartition(32)  # cap the sort fan-out (joins.py rationale)
            .groupby("v").sum("n").to_pandas())
    if hist.empty:  # all-null/empty input (0-row to_pandas drops columns)
        return pd.DataFrame({"q": pd.Series(dtype="float64"),
                             "v": pd.Series(dtype="int64")})
    hist = hist.sort_values("v").reset_index(drop=True)
    cum = hist["sum(n)"].to_numpy().cumsum()
    total = int(cum[-1])
    rows = []
    for q in qs:
        r = max(1, math.ceil(q * total))
        i = int(np.searchsorted(cum, r, side="left"))
        rows.append({"q": float(q), "v": int(hist["v"].iloc[i])})
    return pd.DataFrame(rows)


def grouped_quantiles(ds, key_col: str, col: str,
                      qs=(0.25, 0.5, 0.9), buckets: int = 32,
                      max_distinct_per_key: int = 1 << 20,
                      sample_k: int = 4096):
    """EXACT per-group order statistics (e.g. median document length per
    source) over an integer column. Scale shape: per-batch ``(key, v,
    count)`` histogram partials (distinct values per key per batch, never
    rows) -> ONE bucketed shuffle on ``hash(key)`` -> a vectorized
    in-bucket walk resolves every key's quantiles at once (sort by
    (key, v), per-key cumsum, first row at or past each target rank — no
    per-key dispatch, the round-2 lesson).

    PER-KEY DISTINCT-VALUE BOUND (the partitioning assumption, stated):
    a key's exact answer needs its merged distinct-value histogram in one
    worker. Keys within ``max_distinct_per_key`` distinct values (every
    bounded-domain column — token counts, byte lengths, ratings) are
    EXACT; a key whose histogram exceeds the cap (an unbounded/continuous
    domain) routes to its per-key bottom-``sample_k`` uniform sample
    (same mergeable sketch as :func:`bottomk_sample_quantiles`, ~1/sqrt(k)
    rank error) instead of a worker-sized histogram — the sample rows are
    capped at ``sample_k`` per key per batch (and only emitted for keys
    already wide within the batch), so bounded-domain keys pay zero
    extra shuffle volume. On the sample path the rank is taken within
    the merged sample (rank ceil(q*k_sample) estimates the population
    quantile, :func:`bottomk_sample_quantiles` semantics).

    Quantile q = value at 1-based rank ``max(1, ceil(q*N_key))`` of the
    key's sorted column — SQL row_number semantics, exact oracle (on the
    exact path)."""
    qs = tuple(float(q) for q in qs)

    def partial(t: pa.Table) -> pa.Table:
        k = t.column(key_col).to_numpy(zero_copy_only=False)
        v = pc.cast(t.column(col).combine_chunks(),
                    pa.int64()).to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"k": k, "v": v})
        g = df.groupby(["k", "v"], as_index=False).size()
        g["h"] = np.int64(-1)  # histogram rows
        # per-key bottom-sample_k rows: the fallback sample for keys whose
        # merged histogram will exceed the cap — emitted ONLY for keys
        # already wide WITHIN this batch (> sample_k distinct values), so
        # bounded-domain keys pay zero extra shuffle volume. Row identity
        # for the sample hash = (value, occurrence# within batch),
        # deterministic for a given block layout and near-uniform over
        # the multiset.
        bdist = g.groupby("k").size()
        wide = set(bdist[bdist > sample_k].index)
        cols = ["k", "v", "size", "h"]
        if wide:
            mask = pd.Series(k).isin(wide).to_numpy()
            kw, vw = k[mask], v[mask]
            order = np.lexsort((vw, kw))
            ks, vs = kw[order], vw[order]
            new = np.ones(ks.size, dtype=bool)
            if ks.size > 1:
                new[1:] = (ks[1:] != ks[:-1]) | (vs[1:] != vs[:-1])
            seg = np.flatnonzero(new)
            occ = np.arange(ks.size, dtype=np.int64) \
                - seg[np.cumsum(new) - 1]
            h = (vs * np.int64(1_000_003) + occ * _SAMPLE_A + _SAMPLE_C) \
                % _SAMPLE_M
            sdf = pd.DataFrame({"k": ks, "v": vs, "h": h})
            sdf = (sdf.sort_values(["k", "h"], kind="mergesort")
                   .groupby("k", as_index=False).head(sample_k))
            sdf["size"] = np.int64(0)  # sample rows carry no count mass
            out = pd.concat([g[cols], sdf[cols]], ignore_index=True)
        else:
            out = g[cols]
        return pa.Table.from_pandas(out, preserve_index=False)

    def final(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        hist = df[df["h"] == -1]
        # merge cross-batch partials, then one ordered cumulative walk
        hist = (hist.groupby(["k", "v"], as_index=False)["size"].sum()
                .sort_values(["k", "v"], kind="mergesort"))
        totals = hist.groupby("k")["size"].sum()
        ndist = hist.groupby("k").size()
        over = set(ndist[ndist > max_distinct_per_key].index)
        # over-cap keys route to their merged bottom-k sample; an over-cap
        # key WITHOUT sample rows (merged wide from narrow batches — its
        # histogram demonstrably fit the worker to get here) stays exact
        over &= set(df.loc[df["h"] != -1, "k"].unique())
        exact_keys = set(ndist.index) - over
        hist = hist[hist["k"].isin(exact_keys)].copy()
        hist["cum"] = hist.groupby("k")["size"].cumsum()
        # over-cap keys: merge (union + re-cut) their bottom-k samples
        samp = df[(df["h"] != -1) & df["k"].isin(over)]
        if len(samp):
            samp = (samp.sort_values(["k", "h", "v"], kind="mergesort")
                    .groupby("k", as_index=False).head(sample_k)
                    .sort_values(["k", "v"], kind="mergesort"))
            samp_sizes = samp.groupby("k").size()
        outs = []
        for q in qs:
            r = np.maximum(1, np.ceil(q * totals)).astype(np.int64)
            need = hist.assign(_r=hist["k"].map(r))
            hit = need[need["cum"] >= need["_r"]].groupby("k").first()
            outs.append(pd.DataFrame({
                key_col: hit.index, "q": q,
                "v": hit["v"].to_numpy(np.int64)}))
            if len(samp):
                # rank within each key's sorted sample, vectorized:
                # sample-start offset per key + in-sample rank - 1
                rs = np.maximum(1, np.ceil(q * samp_sizes)).astype(np.int64)
                starts = (samp.groupby("k").cumcount() == 0).to_numpy()
                base = np.flatnonzero(starts)
                kidx = samp["k"].to_numpy()[base]
                pick = base + rs.loc[kidx].to_numpy() - 1
                sel = samp.iloc[pick]
                outs.append(pd.DataFrame({
                    key_col: sel["k"].to_numpy(), "q": q,
                    "v": sel["v"].to_numpy(np.int64)}))
        out = pd.concat(outs, ignore_index=True)
        return pa.Table.from_pandas(out, preserve_index=False)

    return exchange(ds.map_batches(partial, batch_format="pyarrow",
                                   **rayenv.remote_args()),
                    final, buckets=buckets, keys=["k"],
                    schema=output_schema(ds, [key_col],
                                         [("q", pa.float64()),
                                          ("v", pa.int64())]))


def _ordered_bits(vals: np.ndarray) -> np.ndarray:
    """Order-preserving float64 -> uint64 mapping (IEEE total order for
    finite values: flip all bits of negatives, set the sign bit of
    non-negatives). NaNs must be dropped by the caller."""
    b = vals.astype(np.float64).view(np.uint64)
    neg = (b >> np.uint64(63)).astype(bool)
    return np.where(neg, ~b, b | np.uint64(1 << 63))


def exact_quantiles_float(ds, col: str, qs=(0.25, 0.5, 0.9, 0.99),
                          coarse_bits: int = 16) -> pd.DataFrame:
    """EXACT order statistics over an UNBOUNDED float column — the scale
    path :func:`exact_quantiles` documents it cannot cover (its driver
    histogram is one row per distinct value). Two streaming passes:

    1. coarse histogram: each value maps to the top ``coarse_bits`` of
       its order-preserving IEEE bit pattern (monotone, so bin order ==
       value order); per-batch bincounts -> one tiny ``groupby(bin).sum``
       -> a <=2^coarse_bits-row histogram locates, for every quantile,
       the bin holding its rank and the residual in-bin rank;
    2. refine: one FILTERED pass collects only the values in the (<=
       len(qs)) target bins to the driver — ~N/2^coarse_bits values per
       bin for any non-adversarial distribution (the documented
       partitioning assumption: a single 64-bit-bin hotspot means the
       data has at most a few distinct values there, which bounds the
       collect by the duplicate count of one value neighborhood).

    Quantile q = value at 1-based rank ``max(1, ceil(q*N))`` of the
    sorted column (discrete, no interpolation) — identical to
    :func:`exact_quantiles` and SQL row_number semantics. Nulls/NaNs are
    excluded (SQL semantics)."""

    def partial(t: pa.Table) -> pa.Table:
        v = t.column(col).combine_chunks().drop_null().to_numpy(
            zero_copy_only=False).astype(np.float64, copy=False)
        v = v[~np.isnan(v)]
        bins = (_ordered_bits(v) >> np.uint64(64 - coarse_bits)) \
            .astype(np.int64)
        u, n = np.unique(bins, return_counts=True)
        return pa.table({"bin": pa.array(u), "n": pa.array(n, pa.int64())})

    hist = (ds.map_batches(partial, batch_format="pyarrow",
                           **rayenv.remote_args())
            .repartition(16)  # cap the sort fan-out (joins.py rationale)
            .groupby("bin").sum("n").to_pandas())
    if hist.empty:  # all-null/empty input (0-row to_pandas drops columns)
        return pd.DataFrame({"q": pd.Series(dtype="float64"),
                             "v": pd.Series(dtype="float64")})
    hist = hist.sort_values("bin").reset_index(drop=True)
    cum = hist["sum(n)"].to_numpy().cumsum()
    total = int(cum[-1])

    # rank -> (target bin, residual rank inside the bin)
    targets = []
    for q in qs:
        r = max(1, math.ceil(q * total))
        i = int(np.searchsorted(cum, r, side="left"))
        before = int(cum[i - 1]) if i else 0
        targets.append((float(q), int(hist["bin"].iloc[i]), r - before))
    need = sorted({b for _, b, _ in targets})

    def in_targets(t: pa.Table) -> pa.Table:
        v = t.column(col).combine_chunks().drop_null().to_numpy(
            zero_copy_only=False).astype(np.float64, copy=False)
        v = v[~np.isnan(v)]
        bins = (_ordered_bits(v) >> np.uint64(64 - coarse_bits)) \
            .astype(np.int64)
        keep = np.isin(bins, need)
        return pa.table({"v": pa.array(v[keep], pa.float64()),
                         "bin": pa.array(bins[keep])})

    picked = ds.map_batches(in_targets, batch_format="pyarrow",
                            **rayenv.remote_args()).to_pandas()
    rows = []
    for q, b, rank in targets:
        vals = np.sort(picked.loc[picked["bin"] == b, "v"].to_numpy())
        rows.append({"q": q, "v": float(vals[rank - 1])})
    return pd.DataFrame(rows)


def distinct_token_count(ds, text_col: str = "text",
                         buckets: int = 64) -> pd.DataFrame:
    """Exact global COUNT(DISTINCT word): per-batch unique words (Zipf
    shrinks each batch several-fold before the exchange) -> bucketed by
    token hash -> per-bucket unique count -> tiny partial sum. One
    all-to-all of unique-per-batch tokens; disjoint buckets make the
    per-bucket counts additive."""

    def partial(t: pa.Table) -> pa.Table:
        return pa.table({"token": pc.unique(_flat_words(t.column(text_col)))})

    def count_bucket(g: pa.Table) -> pa.Table:
        nd = len(pc.unique(g.column("token")))
        return pa.table({"nd": pa.array([nd], pa.int64())})

    parts = exchange(ds.map_batches(partial, batch_format="pyarrow",
                                    **rayenv.remote_args()),
                     count_bucket, buckets=buckets, keys=["token"],
                     schema=pa.schema([("nd", pa.int64())]))
    total = parts.sum("nd")  # None on a fully empty corpus
    return pd.DataFrame([{"n_distinct": int(total or 0)}])


_HLL_P = 12                      # 2^12 = 4096 registers, ~1.6% std error
_HLL_M = 1 << _HLL_P


def _hll_hash_ranks(values: np.ndarray):
    """Shared HLL hash->(register index, rank) arithmetic — ONE
    implementation for the global and grouped sketches (hash_bucket
    single-implementation rule: a drift between copies would silently
    break merge parity between them)."""
    h = pd.util.hash_array(values.astype(object))
    idx = (h >> np.uint64(64 - _HLL_P)).astype(np.int64)
    rest = (h << np.uint64(_HLL_P)) | np.uint64((1 << _HLL_P) - 1)
    # leading zeros of `rest` via bit_length: 64 - floor(log2(rest)) - 1;
    # the OR above guarantees rest != 0 so log2 is safe
    lz = 63 - np.floor(np.log2(rest.astype(np.float64))).astype(np.int64)
    # float64 log2 is exact for the top 52 bits; rank caps at 64-p+1
    rank = np.minimum(lz + 1, 64 - _HLL_P + 1).astype(np.int64)
    return idx, rank


def _hll_registers(tokens: pa.Array) -> np.ndarray:
    """HyperLogLog register vector for one batch of tokens: hash each
    DISTINCT token to 64 bits; register index = top p bits, register
    value = 1 + leading-zero count of the remaining 64-p bits (capped);
    per-register max. Pure numpy — one pass, no Python loop."""
    u = pc.unique(tokens)
    idx, rank = _hll_hash_ranks(u.to_numpy(zero_copy_only=False))
    regs = np.zeros(_HLL_M, dtype=np.int64)
    np.maximum.at(regs, idx, rank)
    return regs


def _hll_estimate(regs: np.ndarray) -> float:
    """Standard HLL estimator with the small-range linear-counting
    correction (Flajolet et al. 2007)."""
    m = float(_HLL_M)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.power(2.0, -regs.astype(np.float64)))
    zeros = int(np.count_nonzero(regs == 0))
    if est <= 2.5 * m and zeros:
        est = m * math.log(m / zeros)
    return est


def distinct_token_count_approx(ds, text_col: str = "text") -> pd.DataFrame:
    """Approximate global COUNT(DISTINCT word) via a HyperLogLog sketch —
    the scale path when the vocabulary itself is too large to shuffle
    (the exact :func:`distinct_token_count` moves unique-per-batch tokens
    through an all-to-all; this moves 4096-row register partials and
    nothing else). Mergeable by construction: registers combine by
    elementwise max, so the tiny ``groupby(reg).max`` shuffle IS the
    sketch union. Standard error ~1.04/sqrt(4096) = 1.6%; accuracy is
    pinned against the exact count in tests."""

    def partial(t: pa.Table) -> pa.Table:
        regs = _hll_registers(_flat_words(t.column(text_col)))
        nz = np.flatnonzero(regs)          # ship only touched registers
        return pa.table({"reg": pa.array(nz, pa.int64()),
                         "rank": pa.array(regs[nz], pa.int64())})

    merged = collect(ds.map_batches(partial, batch_format="pyarrow",
                                    **rayenv.remote_args())
                     .repartition(8)  # cap the sort fan-out (exchange)
                     .groupby("reg").max("rank"),
                     pa.schema([("reg", pa.int64()),
                                ("max(rank)", pa.int64())]))
    regs = np.zeros(_HLL_M, dtype=np.int64)
    regs[merged["reg"].to_numpy()] = merged["max(rank)"].to_numpy()
    return pd.DataFrame([{"n_distinct_approx": int(round(
        _hll_estimate(regs)))}])


_CMS_D = 4                       # sketch depth (hash rows)


def _cms_rows(tokens: np.ndarray, width: int) -> np.ndarray:
    """(d, n) CMS column indices for a token array — one splitmix64
    chain per row, salted by the row number."""
    from .joins import _splitmix64
    h = pd.util.hash_array(tokens.astype(object))
    out = np.empty((_CMS_D, h.size), dtype=np.int64)
    for r in range(_CMS_D):
        salt = np.uint64((0xA076_1D64_78BD_642F * (r + 1)) & (2**64 - 1))
        out[r] = (_splitmix64(h ^ salt)
                  % np.uint64(width)).astype(np.int64)
    return out


def cms_top_tokens(ds, text_col: str = "text", k: int = 50,
                   width: int = 1 << 14) -> pd.DataFrame:
    """Heavy hitters over an UNBOUNDED vocabulary via a Count-Min sketch —
    the scale path where :func:`top_tokens`' exact vocabulary groupby
    cannot go (its shuffle is vocabulary-sized; this one is sketch-sized:
    d x width counters + a bounded candidate list). CMS counters are
    ADDITIVE, so per-batch partials merge through one tiny
    ``groupby((row, col)).sum`` — the shuffle IS the sketch union.

    Candidates: each batch nominates its local top 4k tokens (a global
    heavy hitter is necessarily heavy in some batch of any non-adversarial
    sharding — documented heuristic); the driver estimates each distinct
    candidate's count from the merged sketch (min over rows, the classic
    never-underestimates bound) and keeps the top k, ties broken by token
    ascending. Rows-only: approximate by design; on Zipf corpora the
    result matches the exact operator (pinned in tests)."""

    def partial(t: pa.Table) -> pa.Table:
        vc = pc.value_counts(_flat_words(t.column(text_col)))
        toks = vc.field("values").to_numpy(zero_copy_only=False)
        cnts = vc.field("counts").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        rows = _cms_rows(toks, width)
        sk_r, sk_c, sk_n = [], [], []
        for r in range(_CMS_D):
            cells = np.zeros(width, dtype=np.int64)
            np.add.at(cells, rows[r], cnts)
            nz = np.flatnonzero(cells)
            sk_r.append(np.full(nz.size, r, dtype=np.int64))
            sk_c.append(nz)
            sk_n.append(cells[nz])
        order = np.argsort(-cnts, kind="stable")[:4 * k]
        cand = toks[order]
        pad = np.full(cand.size, -1, dtype=np.int64)
        return pa.table({
            "r": pa.array(np.concatenate(sk_r + [pad])),
            "c": pa.array(np.concatenate(sk_c + [pad])),
            "n": pa.array(np.concatenate(sk_n + [pad])),
            "token": pa.array(
                np.concatenate([np.full(sum(x.size for x in sk_r), None,
                                        dtype=object), cand]),
                pa.string())})

    # sketch + candidate rows are bounded (d*width + 4k per batch) — the
    # materialize holds only sketch-sized data, never the corpus
    parts = ds.map_batches(partial, batch_format="pyarrow",
                           **rayenv.remote_args()).materialize()
    sk = collect(parts.filter(expr="r >= 0").groupby(["r", "c"]).sum("n"),
                 pa.schema([("r", pa.int64()), ("c", pa.int64()),
                            ("sum(n)", pa.int64())]))
    cms = np.zeros((_CMS_D, width), dtype=np.int64)
    cms[sk["r"].to_numpy(), sk["c"].to_numpy()] = sk["sum(n)"].to_numpy()
    cand = collect(parts.filter(expr="r < 0").select_columns(["token"]),
                   pa.schema([("token", pa.string())]))["token"] \
        .dropna().unique()
    if cand.size == 0:
        return pd.DataFrame({"token": pd.Series(dtype="object"),
                             "n_est": pd.Series(dtype="int64")})
    rows = _cms_rows(cand.astype(object), width)
    est = np.min(np.stack([cms[r, rows[r]] for r in range(_CMS_D)]), axis=0)
    order = np.lexsort((cand.astype(object), -est))[:k]
    return pd.DataFrame({"token": cand[order],
                         "n_est": est[order].astype(np.int64)})


def _doc_token_pairs(t: pa.Table, id_col: str, text_col: str) -> pd.DataFrame:
    """(doc, token) rows for one batch, exploded vectorized: split each
    text, repeat the doc id by its word count, drop empties."""
    words = pc.split_pattern_regex(t.column(text_col), r"\s+")
    if isinstance(words, pa.ChunkedArray):
        words = words.combine_chunks()
    lens = pc.list_value_length(words).to_numpy(zero_copy_only=False)
    ids = t.column(id_col).to_numpy(zero_copy_only=False)
    flat = words.flatten()
    df = pd.DataFrame({"doc": np.repeat(ids, lens),
                       "token": flat.to_pandas()})
    return df[df["token"] != ""]


def tfidf_scores(ds, id_col: str = "doc_id", text_col: str = "text",
                 n_docs: int | None = None):
    """Per-document TF-IDF relevance score: ``sum over the doc's distinct
    terms of tf * ln(N / df)`` (raw term counts, natural log, no
    smoothing), plus the distinct-term count. A standard quality /
    relevance signal for training-data curation.

    Scale shape — two streaming passes, ZERO corpus-sized shuffles:

    1. document frequencies: per-batch distinct (doc, token) pairs reduce
       to per-batch (token, partial_df) counts (vocabulary-sized, Heaps'
       law), then one ``groupby(token).sum`` over vocab rows only;
    2. the (token, df) table is broadcast once via ``ray.put`` (documented
       assumption: the VOCABULARY fits a worker's heap — tokens the corpus
       shares, not the corpus), and each batch computes its docs' scores
       locally: a doc's terms all live in its own row, so the per-doc
       final sum never crosses a batch boundary.

    ``n_docs`` skips the count pass when the caller already knows N.
    Scores are rounded to 4 decimals: the per-doc sum is order-sensitive
    in the last float ulps across engines, and 4dp is ~8 orders coarser
    than the noise."""
    import ray

    if n_docs is None:
        n_docs = ds.count()

    def partial_df(t: pa.Table) -> pa.Table:
        pairs = _doc_token_pairs(t, id_col, text_col).drop_duplicates()
        vc = pairs["token"].value_counts()
        return pa.table({"token": pa.array(vc.index.to_numpy(dtype=object),
                                           pa.string()),
                         "n": pa.array(vc.to_numpy(), pa.int64())})

    dfreq = (ds.map_batches(partial_df, batch_format="pyarrow",
                            **rayenv.remote_args())
             .repartition(32)  # cap the sort fan-out (joins.py rationale)
             .groupby("token").sum("n").to_pandas())
    idf = pd.DataFrame({
        "token": dfreq["token"],
        "idf": np.log(float(n_docs) / dfreq["sum(n)"].to_numpy())})
    ref = ray.put(idf)

    def score(t: pa.Table) -> pa.Table:
        pairs = _doc_token_pairs(t, id_col, text_col)
        tf = pairs.groupby(["doc", "token"], as_index=False).size()
        tf = tf.merge(ray.get(ref), on="token")
        tf["w"] = tf["size"].to_numpy() * tf["idf"].to_numpy()
        agg = tf.groupby("doc").agg(n_terms=("token", "size"),
                                    tfidf=("w", "sum")).reset_index()
        return pa.table({
            id_col: pa.array(agg["doc"].to_numpy()),
            "n_terms": pa.array(agg["n_terms"].to_numpy(), pa.int64()),
            "tfidf": pa.array(np.round(agg["tfidf"].to_numpy(), 4))})

    return ds.map_batches(score, batch_format="pyarrow",
                          **rayenv.remote_args())


# Deterministic-sample hash: a 31-bit LCG step, closed under int64 for any
# id < 2**33 (documented domain bound — beyond that, route ids through a
# modmul). The SAME arithmetic is expressible in ANSI SQL, which is the
# whole point: sampling must be reproducible across engines and runs, not
# "BERNOULLI at some seed".
_SAMPLE_A = 1103515245
_SAMPLE_C = 12345
_SAMPLE_M = 2 ** 31


def sample_hash_ok(ids: np.ndarray, pct: int) -> np.ndarray:
    """Boolean keep-mask: ((id * A + C) mod 2^31) mod 100 < pct."""
    h = (ids.astype(np.int64) * _SAMPLE_A + _SAMPLE_C) % _SAMPLE_M
    return (h % 100) < pct


def stratified_sample(ds, id_col: str, key_col: str, pct_by_key: dict,
                      default_pct: int = 0,
                      columns: list[str] | None = None):
    """Deterministic PER-GROUP sampling — the dataset-balancing primitive
    (downsample overrepresented sources, keep rare ones whole). Each
    row's keep/drop is the same LCG id-hash as :func:`hash_sample`, with
    the threshold looked up from its group's rate: reproducible across
    engines, runs and cluster sizes, zero shuffle, streaming. Keys not
    in ``pct_by_key`` use ``default_pct``."""
    items = sorted(pct_by_key.items())
    keys = np.array([k for k, _ in items], dtype=object)
    rates = np.array([int(v) for _, v in items], dtype=np.int64)

    def filt(t: pa.Table) -> pa.Table:
        if columns is not None:
            t = t.select(columns)
        ids = pc.cast(t.column(id_col), pa.int64()).to_numpy(
            zero_copy_only=False)
        kv = t.column(key_col).to_numpy(zero_copy_only=False)
        if keys.size:
            pos = np.clip(np.searchsorted(keys, kv), 0, keys.size - 1)
            pct = np.where(keys[pos] == kv, rates[pos], default_pct)
        else:
            pct = np.full(len(kv), default_pct, dtype=np.int64)
        h = (ids * _SAMPLE_A + _SAMPLE_C) % _SAMPLE_M
        return t.filter(pa.array((h % 100) < pct))

    return ds.map_batches(filt, batch_format="pyarrow",
                          **rayenv.remote_args())


def hash_sample(ds, id_col: str, pct: int, columns: list[str] | None = None):
    """Deterministic ~pct% sample by id hash — a pure streaming filter
    (no shuffle, no state, resumable by construction: the same row is
    kept or dropped in every run on every cluster size)."""

    def filt(t: pa.Table) -> pa.Table:
        if columns is not None:
            t = t.select(columns)
        ids = pc.cast(t.column(id_col), pa.int64()).to_numpy(
            zero_copy_only=False)
        return t.filter(pa.array(sample_hash_ok(ids, pct)))

    return ds.map_batches(filt, batch_format="pyarrow",
                          **rayenv.remote_args())


def deterministic_shuffle(ds, id_col: str = "doc_id",
                          columns: list[str] | None = None):
    """Deterministic global shuffle — the standard last step of
    training-data prep (decorrelate document order before sequence
    packing). Rows are ordered by the same LCG id-hash the sampling
    operators use (reproducible across engines, runs and cluster sizes
    — unlike ``ds.random_shuffle``), with the id as tie-break. One
    distributed range-partitioned sort; downstream consumers stream the
    shuffled order block by block."""

    def key(t: pa.Table) -> pa.Table:
        if columns is not None:
            t = t.select(columns)
        ids = pc.cast(t.column(id_col), pa.int64()).to_numpy(
            zero_copy_only=False)
        h = (ids * _SAMPLE_A + _SAMPLE_C) % _SAMPLE_M
        return t.append_column("shuffle_key", pa.array(h.astype(np.int64)))

    return ds.map_batches(key, batch_format="pyarrow",
                          **rayenv.remote_args()) \
        .sort(["shuffle_key", id_col])


def shuffle_head(ds, k: int, id_col: str = "doc_id",
                 columns: list[str] | None = None):
    """First ``k`` rows of the deterministic shuffle order (sort +
    streaming limit — Ray stops pulling blocks once k rows are
    emitted)."""
    return deterministic_shuffle(ds, id_col=id_col,
                                 columns=columns).limit(k)


def unigram_logprob_scores(ds, id_col: str = "doc_id",
                           text_col: str = "text"):
    """Per-document mean unigram log-probability — the cheap "perplexity
    filter" of training-data pipelines (docs whose tokens are atypical
    for the corpus score low; gibberish and boilerplate both fall out).

    Same scale shape as :func:`tfidf_scores`: one vocabulary-sized
    ``groupby(token).sum`` over per-batch count partials, the
    ``(token, ln(c/total))`` table broadcast once via ``ray.put``, then
    each batch scores its own docs locally (a doc's tokens never cross a
    batch boundary). Scores round to 4 decimals for cross-engine float
    stability (tfidf_scores rationale)."""
    import ray

    def partial_tf(t: pa.Table) -> pa.Table:
        pairs = _doc_token_pairs(t, id_col, text_col)
        vc = pairs["token"].value_counts()
        return pa.table({"token": pa.array(vc.index.to_numpy(dtype=object),
                                           pa.string()),
                         "n": pa.array(vc.to_numpy(), pa.int64())})

    tf = (ds.map_batches(partial_tf, batch_format="pyarrow",
                         **rayenv.remote_args())
          .repartition(32)
          .groupby("token").sum("n").to_pandas())
    total = float(tf["sum(n)"].sum())
    lp = pd.DataFrame({
        "token": tf["token"],
        "lp": np.log(tf["sum(n)"].to_numpy() / total)})
    ref = ray.put(lp)

    def score(t: pa.Table) -> pa.Table:
        pairs = _doc_token_pairs(t, id_col, text_col)
        pairs = pairs.merge(ray.get(ref), on="token")
        agg = pairs.groupby("doc").agg(
            n_tokens=("lp", "size"), s=("lp", "sum")).reset_index()
        return pa.table({
            id_col: pa.array(agg["doc"].to_numpy()),
            "n_tokens": pa.array(agg["n_tokens"].to_numpy(), pa.int64()),
            "avg_logprob": pa.array(
                np.round(agg["s"].to_numpy() / agg["n_tokens"].to_numpy(),
                         4))})

    return ds.map_batches(score, batch_format="pyarrow",
                          **rayenv.remote_args())


def zscore_by_group(ds, key: str = "source", val_col: str = "n_chars",
                    id_col: str = "doc_id"):
    """Per-group z-score normalization of an integer column — the feature
    scaler a quality-filter pipeline runs before thresholding (length
    outliers per source, score standardization per domain).

    Cross-engine exactness by construction: the z-score is computed as

        z = (n*x - s) / sqrt(n*ssq - s^2)

    where n, s (sum) and ssq (sum of squares) are EXACT integers, so both
    engine and oracle do one identical float division + sqrt — no Welford
    vs two-pass variance drift, no float summation order. (Equivalent to
    (x - mean)/stddev_pop up to the shared positive factor sqrt(n), folded
    in on both sides.) 4dp rounding on top. Integer domain bound: the
    int64 moments require n*ssq < 2^63 — holds to ~1e6 rows x 1e3 values
    per group; beyond that route the moments through Python ints in the
    final (driver-side, group-count-sized) reduction.

    Scale shape: pass 1 pre-aggregates (key, n, s, ssq) per batch so only
    group-count-sized partials reach the one tiny groupby; the final
    stats table (groups x 4) broadcasts via ray.put; pass 2 is a
    stateless vectorized map. Zero corpus-sized shuffles.
    """
    import ray

    def part_stats(t: pa.Table) -> pa.Table:
        kv = t.column(key).to_numpy(zero_copy_only=False)
        x = t.column(val_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ug, inv = np.unique(kv, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        # int64 np.add.at, NOT float64 bincount weights: the exactness
        # guarantee must hold to 2^63, not float64's 2^53
        s = np.zeros(ug.size, dtype=np.int64)
        ssq = np.zeros(ug.size, dtype=np.int64)
        np.add.at(s, inv, x)
        np.add.at(ssq, inv, x * x)
        return pa.table({key: pa.array(ug.astype(object), pa.string()),
                         "n": pa.array(n), "s": pa.array(s),
                         "ssq": pa.array(ssq)})

    from ray.data.aggregate import Sum
    stats = (ds.map_batches(part_stats, batch_format="pyarrow",
                            **rayenv.remote_args())
             .groupby(key)
             .aggregate(Sum("n", alias_name="n"),
                        Sum("s", alias_name="s"),
                        Sum("ssq", alias_name="ssq"))
             .to_pandas())
    lut = {r[key]: (int(r["n"]), int(r["s"]), int(r["ssq"]))
           for _, r in stats.iterrows()}
    lut_ref = ray.put(lut)

    def score(t: pa.Table, _ref=lut_ref) -> pa.Table:
        lut = ray.get(_ref)
        kv = t.column(key).to_numpy(zero_copy_only=False)
        x = t.column(val_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ug, inv = np.unique(kv, return_inverse=True)
        trip = np.array([lut[g] for g in ug], dtype=np.int64)
        n, s, ssq = trip[inv, 0], trip[inv, 1], trip[inv, 2]
        num = (n * x - s).astype(np.float64)
        den2 = (n * ssq - s * s).astype(np.float64)
        z = np.where(den2 > 0, num / np.sqrt(np.maximum(den2, 1.0)), 0.0)
        return pa.table({id_col: t.column(id_col),
                         key: t.column(key),
                         "zscore": pa.array(np.round(z, 4))})

    return ds.map_batches(score, batch_format="pyarrow",
                          **rayenv.remote_args())


def _batch_bigrams(t: pa.Table, id_col: str, text_col: str) -> pd.DataFrame:
    """(doc, bigram) rows for one batch: split on single spaces (matching
    the oracle's string_split), pair consecutive words within a doc via
    one shifted-equality mask — no per-row loop."""
    words = pc.split_pattern(t.column(text_col), " ")
    if isinstance(words, pa.ChunkedArray):
        words = words.combine_chunks()
    lens = pc.list_value_length(words).to_numpy(zero_copy_only=False)
    ids = t.column(id_col).to_numpy(zero_copy_only=False)
    flat = words.flatten()
    n = len(flat)
    if n < 2:
        return pd.DataFrame({"doc": np.array([], dtype=np.int64),
                             "bigram": np.array([], dtype=object)})
    doc_of = np.repeat(ids, lens)
    same = doc_of[1:] == doc_of[:-1]
    w1 = flat.slice(0, n - 1).filter(pa.array(same))
    w2 = flat.slice(1, n - 1).filter(pa.array(same))
    big = pc.binary_join_element_wise(w1, w2, " ")
    return pd.DataFrame({"doc": doc_of[:-1][same],
                         "bigram": big.to_pandas()})


def _corpus_bigram_counts(ds, id_col: str, text_col: str) -> pd.DataFrame:
    """Corpus-wide bigram counts (the shared first phase of the bigram LM
    and PMI operators): per-batch count partials -> one bigram-vocab
    shuffle -> driver-resident (bigram, n) table. Returns an EMPTY frame
    (not a column-less one) when the corpus has no bigrams — the 0-row
    to_pandas drops-columns gotcha."""

    def partial_counts(t: pa.Table) -> pa.Table:
        pairs = _batch_bigrams(t, id_col, text_col)
        vc = pairs["bigram"].value_counts()
        return pa.table({"bigram": pa.array(vc.index.to_numpy(dtype=object),
                                            pa.string()),
                         "n": pa.array(vc.to_numpy(), pa.int64())})

    bc = (ds.map_batches(partial_counts, batch_format="pyarrow",
                         **rayenv.remote_args())
          .repartition(32)
          .groupby("bigram").sum("n").to_pandas())
    if bc.empty:
        return pd.DataFrame({"bigram": pd.Series(dtype=object),
                             "n": pd.Series(dtype="int64")})
    return pd.DataFrame({"bigram": bc["bigram"],
                         "n": bc["sum(n)"].astype(np.int64)})


def bigram_logprob_scores(ds, id_col: str = "doc_id",
                          text_col: str = "text"):
    """Per-document mean bigram conditional log-probability — the
    second-order LM filter (mean of ln(c(w1,w2)/c(w1,*)) over a doc's
    consecutive word pairs). Completes the n-gram LM scoring family next
    to :func:`unigram_logprob_scores`; docs whose word TRANSITIONS are
    atypical score low even when their unigram mix looks normal
    (shuffled/templated text).

    Scale shape: per-batch bigram-count partials -> ONE bigram-vocabulary-
    sized groupby; the (bigram, lp) table broadcasts once via ray.put and
    every batch scores its own docs locally. The bigram vocabulary is the
    Zipf tail's square-root-law superset of the unigram one — at open-web
    scale cap it with the Count-Min top-K nomination
    (:func:`cms_heavy_hitters`) and a floor probability for the tail;
    exact here, where the driver-resident table is MBs. Docs with fewer
    than two words have no bigrams and emit no row (matches the oracle's
    join semantics). 4dp rounding (tfidf_scores rationale)."""
    import ray

    bc = _corpus_bigram_counts(ds, id_col, text_col)
    c12 = bc["n"].to_numpy()
    w1 = bc["bigram"].str.split(" ", n=1).str[0]
    c1 = pd.Series(c12).groupby(w1.to_numpy()).transform("sum") \
        .to_numpy(dtype=np.int64) if len(bc) else c12
    lp = pd.DataFrame({"bigram": bc["bigram"],
                       "lp": np.log(c12 / c1) if len(bc) else
                       pd.Series(dtype="float64")})
    ref = ray.put(lp)

    def score(t: pa.Table) -> pa.Table:
        pairs = _batch_bigrams(t, id_col, text_col)
        pairs = pairs.merge(ray.get(ref), on="bigram")
        agg = pairs.groupby("doc").agg(
            n_bigrams=("lp", "size"), s=("lp", "sum")).reset_index()
        return pa.table({
            id_col: pa.array(agg["doc"].to_numpy()),
            "n_bigrams": pa.array(agg["n_bigrams"].to_numpy(), pa.int64()),
            "avg_bigram_logprob": pa.array(
                np.round(agg["s"].to_numpy() / agg["n_bigrams"].to_numpy(),
                         4))})

    return ds.map_batches(score, batch_format="pyarrow",
                          **rayenv.remote_args())


def sample_k_per_group(ds, key_col: str = "source", id_col: str = "doc_id",
                       k: int = 20, buckets: int = 32):
    """EXACT-k deterministic sample per group — the fixed-quota companion
    to :func:`stratified_sample` (which is rate-based): every group
    contributes exactly min(k, group size) rows, chosen as the k SMALLEST
    shared-LCG id-hashes. Reproducible across engines, runs and cluster
    sizes, and stable under appends in the reservoir sense (a new row
    only displaces the current max-hash member, never reshuffles the
    whole sample) — which a seeded RANDOM() sample cannot promise.

    Scale shape: rides :func:`grouped_topk` (order = negated hash), so a
    per-batch partial cut runs first and only k x keys rows reach the one
    bucketed shuffle. Output carries ``sample_rank`` (1-based position in
    the group's hash order) so downstream can sub-slice without
    re-hashing."""

    def add_hash(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        h = (ids * _SAMPLE_A + _SAMPLE_C) % _SAMPLE_M
        # negate: grouped_topk keeps the LARGEST order values, we want
        # the smallest hashes
        return t.append_column("_negh", pa.array(-h))

    cut = grouped_topk(
        ds.map_batches(add_hash, batch_format="pyarrow",
                       **rayenv.remote_args()),
        key_col=key_col, order_col="_negh", id_col=id_col, k=k,
        buckets=buckets)

    def finish(t: pa.Table) -> pa.Table:
        t = t.drop_columns(["_negh"])
        cols = {c: t.column(c) for c in t.column_names if c != "rank"}
        cols["sample_rank"] = pc.cast(t.column("rank"), pa.int64())
        return pa.table(cols)

    return cut.map_batches(finish, batch_format="pyarrow",
                           **rayenv.remote_args())


def bottomk_sample_quantiles(ds, col: str = "value",
                             id_col: str = "event_id",
                             qs=(0.25, 0.5, 0.9, 0.99),
                             k: int = 4096) -> pd.DataFrame:
    """APPROXIMATE quantiles in ONE pass via a bottom-k uniform sample —
    the third mergeable sketch next to HyperLogLog (distinct) and
    Count-Min (frequency): keep the k rows with the smallest shared-LCG
    id-hashes, then take exact order statistics of the sample. The
    bottom-k set is a deterministic uniform k-sample, mergeable by
    construction (merge = union + re-cut, which is exactly what the
    per-batch partial -> final reduction does), reproducible across
    engines/runs/cluster sizes, and size-bounded at k rows regardless of
    input scale — where :func:`exact_quantiles_float` needs two passes,
    this needs one, at ~1/sqrt(k) rank error (pinned in tests).

    Quantile ranks are taken within the sample (rank ceil(q*k) of the
    sorted sample estimates the q-quantile); the exact input row count
    rides along as int64 partials and is reported as ``n_total`` —
    the exact NON-NULL row count (NaNs are excluded on both the sample
    and the count, matching SQL quantile semantics) — so callers can
    size the +-1/sqrt(k) rank error against the population actually
    sampled.
    Scale shape: per-batch bottom-k cut (k rows max leave any batch) ->
    driver final cut over blocks x k rows — bounded,
    corpus-size-independent."""
    import ray

    qs = tuple(float(q) for q in qs)

    def partial(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        v = pc.cast(t.column(col).combine_chunks(), pa.float64()) \
            .to_numpy(zero_copy_only=False)
        ok = ~np.isnan(v)
        ids, v = ids[ok], v[ok]
        h = (ids * _SAMPLE_A + _SAMPLE_C) % _SAMPLE_M
        cut = np.argsort(h, kind="stable")[:k]
        # the batch's exact row count rides in the first slot so the
        # final can total N without a second pass
        n = np.zeros(cut.size, dtype=np.int64)
        if cut.size:
            n[0] = ids.size
        return pa.table({"h": pa.array(h[cut]), "v": pa.array(v[cut]),
                         "n": pa.array(n)})

    parts = collect(ds.map_batches(partial, batch_format="pyarrow",
                                   **rayenv.remote_args()),
                    pa.schema([("h", pa.int64()), ("v", pa.float64()),
                               ("n", pa.int64())]))
    total = int(parts["n"].sum())
    if total == 0:
        return pd.DataFrame({"q": pd.Series(dtype="float64"),
                             "v": pd.Series(dtype="float64"),
                             "n_total": pd.Series(dtype="int64")})
    top = parts.sort_values(["h", "v"], kind="mergesort").head(k)
    sample = np.sort(top["v"].to_numpy())
    rows = []
    for q in qs:
        r = max(1, math.ceil(q * sample.size))
        rows.append({"q": q, "v": float(sample[r - 1]), "n_total": total})
    return pd.DataFrame(rows)


def grouped_distinct_count(ds, key_col: str = "source",
                           text_col: str = "text",
                           buckets: int = 64) -> "pd.DataFrame | object":
    """Exact COUNT(DISTINCT word) PER GROUP — the vocabulary-breadth
    signal per source/domain (template farms have tiny vocabularies at
    huge volume). Same shape as :func:`distinct_token_count` with the
    group key riding along: per-batch unique (key, word) pairs (Zipf
    shrinks each batch before any exchange) -> ONE bucketed shuffle on
    hash(key, word) (disjoint buckets, so per-bucket per-key counts are
    additive) -> in-bucket vectorized distinct + per-key partial counts
    -> a final key-sized groupby sum. Returns a Dataset of
    ``(key, n_distinct)``."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        kv = t.column(key_col).to_numpy(zero_copy_only=False)
        words = pc.split_pattern_regex(t.column(text_col), r"\s+")
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        lens = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        flat = words.flatten()
        keys = np.repeat(kv, lens)
        ok = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        pairs = pa.table({"k": pa.array(keys[ok]),
                          "w": flat.filter(pa.array(ok))})
        # per-batch distinct (hash group_by, no aggregates)
        u = pairs.group_by(["k", "w"]).aggregate([])
        return u

    def count_bucket(g: pa.Table) -> pa.Table:
        u = g.select(["k", "w"]).group_by(["k", "w"]).aggregate([])
        agg = u.group_by("k").aggregate([("w", "count")])
        return pa.table({key_col: agg.column("k"),
                         "nd": pc.cast(agg.column("w_count"), pa.int64())})

    out = (exchange(ds.map_batches(partial, batch_format="pyarrow",
                                   **rayenv.remote_args()),
                    count_bucket, buckets=buckets, keys=["k", "w"],
                    schema=output_schema(ds, [key_col], int64_fields("nd")))
           .groupby(key_col)
           .aggregate(Sum("nd", alias_name="n_distinct")))

    def cast(t: pa.Table) -> pa.Table:
        return pa.table({key_col: t.column(key_col),
                         "n_distinct": pc.cast(t.column("n_distinct"),
                                               pa.int64())})
    return out.map_batches(cast, batch_format="pyarrow",
                           **rayenv.remote_args())


def top_pmi_bigrams(ds, k: int = 50, min_count: int = 5,
                    id_col: str = "doc_id", text_col: str = "text"):
    """Collocation mining: the k consecutive-word pairs with the highest
    pointwise mutual information, PMI = ln(c12 * T / (c1 * c2)) over
    left/right context counts — the phrase detector (multi-word entities,
    boilerplate stock phrases) that feeds tokenizer merges and phrase
    blocklists. ``min_count`` floors c12 (PMI is noise at singleton
    counts — standard practice).

    Scale shape: the same per-batch bigram partials -> one bigram-vocab
    shuffle as :func:`bigram_logprob_scores`; context counts and the
    final top-k are computed on the driver over the VOCABULARY-sized
    table (documented bound, tfidf rationale — cap with CMS nomination
    at open-web scale). Ties break on bigram ascending; PMI rounds to
    4dp on both sides."""

    bc = _corpus_bigram_counts(ds, id_col, text_col)
    if bc.empty:
        return pd.DataFrame({"bigram": pd.Series(dtype=object),
                             "c12": pd.Series(dtype="int64"),
                             "pmi": pd.Series(dtype="float64")})
    c12 = bc["n"].to_numpy()
    total = int(c12.sum())
    sides = bc["bigram"].str.split(" ", n=1)
    w1 = sides.str[0].to_numpy()
    w2 = sides.str[1].to_numpy()
    c1 = pd.Series(c12).groupby(w1).transform("sum").to_numpy(np.int64)
    c2 = pd.Series(c12).groupby(w2).transform("sum").to_numpy(np.int64)
    pmi = np.round(np.log(c12.astype(np.float64) * total
                          / (c1.astype(np.float64) * c2)), 4)
    out = pd.DataFrame({"bigram": bc["bigram"], "c12": c12,
                        "pmi": pmi})[c12 >= min_count]
    out = out.sort_values(["pmi", "bigram"], ascending=[False, True],
                          kind="mergesort").head(k).reset_index(drop=True)
    return out


def grouped_distinct_count_approx(ds, key_col: str = "source",
                                  text_col: str = "text",
                                  buckets: int = 32):
    """Approximate COUNT(DISTINCT word) PER GROUP via per-key HyperLogLog
    — the scale path :func:`grouped_distinct_count` documents: where the
    exact operator shuffles every unique (key, word) pair, this ships
    only SPARSE register partials ``(key, reg_idx, rank)`` (nonzero
    registers of each batch's per-key HLL — bounded by 4096/key/batch
    and typically far fewer), merges them with one bucketed max-groupby,
    and evaluates the Flajolet estimator per key in-bucket. ~1.6% std
    error at 4096 registers (same sketch as
    :func:`distinct_token_count_approx`; parity vs exact pinned in
    tests). Returns a Dataset of ``(key, n_distinct_est)``."""

    def partial(t: pa.Table) -> pa.Table:
        kv = t.column(key_col).to_numpy(zero_copy_only=False)
        words = pc.split_pattern_regex(t.column(text_col), r"\s+")
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        lens = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        flat = words.flatten()
        keys = np.repeat(kv, lens)
        ok = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        keys = keys[ok]
        wnp = flat.filter(pa.array(ok)).to_numpy(zero_copy_only=False)
        ktype = t.schema.field(key_col).type
        if wnp.size == 0:
            return pa.table({key_col: pa.array([], ktype),
                             "ri": pa.array([], pa.int64()),
                             "rank": pa.array([], pa.int64())})
        # distinct (key, word) inside the batch, then per-key registers
        # via one flattened maximum.at (key_idx * M + reg_idx)
        dk, dw = _distinct_rows_str(keys, wnp)
        ug, inv = np.unique(dk, return_inverse=True)
        idx, rank = _hll_hash_ranks(dw)
        regs = np.zeros(ug.size * _HLL_M, dtype=np.int64)
        np.maximum.at(regs, inv * _HLL_M + idx, rank)
        nz = np.flatnonzero(regs)
        return pa.table({
            key_col: pa.array(ug[(nz // _HLL_M)], ktype),
            "ri": pa.array(nz % _HLL_M),
            "rank": pa.array(regs[nz])})

    def estimate(g: pa.Table) -> pa.Table:
        kv = g.column(key_col).to_numpy(zero_copy_only=False)
        ri = g.column("ri").to_numpy(zero_copy_only=False)
        rk = g.column("rank").to_numpy(zero_copy_only=False)
        ug, inv = np.unique(kv, return_inverse=True)
        regs = np.zeros(ug.size * _HLL_M, dtype=np.int64)
        np.maximum.at(regs, inv * _HLL_M + ri, rk)
        est = np.array([_hll_estimate(regs[i * _HLL_M:(i + 1) * _HLL_M])
                        for i in range(ug.size)])
        return pa.table({key_col: pa.array(ug,
                                           g.schema.field(key_col).type),
                         "n_distinct_est": pa.array(
                             np.round(est).astype(np.int64))})

    return exchange(ds.map_batches(partial, batch_format="pyarrow",
                                   **rayenv.remote_args()),
                    estimate, buckets=buckets, keys=[key_col],
                    schema=output_schema(ds, [key_col],
                                         int64_fields("n_distinct_est")))


def _distinct_rows_str(keys: np.ndarray, words: np.ndarray):
    """Distinct (key, word) pairs of one batch — lexsort + neighbor
    comparison, no pandas."""
    order = np.lexsort((words, keys))
    sk, sw = keys[order], words[order]
    first = np.ones(sk.size, dtype=bool)
    first[1:] = (sk[1:] != sk[:-1]) | (sw[1:] != sw[:-1])
    return sk[first], sw[first]


def value_histogram(ds, col: str = "value", width: float = 25.0):
    """Equi-width histogram of a numeric column: ``(bin_start, n)`` with
    bin = floor(v / width) — the one-glance distribution profile before
    choosing quantile targets or clip thresholds. Bin ids are computed
    per batch (floor toward -inf matching SQL; NULL and NaN both treated
    as missing — note SQL keeps a literal float NaN where only NULL is
    excluded, the quantile-family convention documented there), counts
    pre-aggregate per batch, and the one shuffle moves bin-count rows
    only. Width is applied as the SAME double division on both sides."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        v = pc.cast(t.column(col).combine_chunks(), pa.float64()) \
            .to_numpy(zero_copy_only=False)
        v = v[~np.isnan(v)]
        b = np.floor(v / float(width)).astype(np.int64)
        ub, cnt = np.unique(b, return_counts=True)
        return pa.table({"bin": pa.array(ub),
                         "n": pa.array(cnt.astype(np.int64))})

    out = (ds.map_batches(partial, batch_format="pyarrow",
                          **rayenv.remote_args())
           .repartition(16)
           .groupby("bin")
           .aggregate(Sum("n", alias_name="n")))

    def cast(t: pa.Table) -> pa.Table:
        b = pc.cast(t.column("bin"), pa.int64())
        return pa.table({
            "bin_start": pa.array(b.to_numpy(zero_copy_only=False)
                                  * float(width)),
            "n": pc.cast(t.column("n"), pa.int64())})
    return out.map_batches(cast, batch_format="pyarrow",
                           **rayenv.remote_args())


def mix_sources(ds, weights: dict, target_rows: int,
                key_col: str = "source", id_col: str = "doc_id",
                default_weight: int = 1):
    """Deterministic dataset mixing — downsample each source toward a
    target mixture (the "books 2x, web 1x" recipe of every training-data
    run): source s gets quota ``target_rows * w_s / sum(w)`` rows,
    realized as a per-mille LCG id-hash threshold

        p_s = min(1000, (1000 * target_rows * w_s) // (sum_w * n_s))

    computed in EXACT integer arithmetic from the exact per-source
    counts, so engine and SQL agree bit-for-bit and the selection is
    reproducible across runs/engines/cluster sizes (and reservoir-stable
    per source, like every LCG sampler here). Sources with fewer rows
    than their quota are kept whole (p_s caps at 1000) — mixing can
    only downsample; upweighting by repetition is the packer's job.

    Scale shape: one tiny groupby for the counts, a broadcast dict, one
    stateless filter pass. NOTE: ``ds`` is consumed twice (counts, then
    filter) — feed it a cheap re-executable source (a column-pruned
    read), or pass a pre-materialized Dataset when upstream is an
    expensive pipeline; materializing inside here would force the
    100-TB corpus into the object store for every caller. Realized size
    concentrates near the quota (hash is uniform); exact-k per source
    is :func:`sample_k_per_group`.
    """
    import ray

    counts = (ds.groupby(key_col).count().to_pandas())
    cname = [c for c in counts.columns if c != key_col][0]
    sum_w = sum(weights.get(s, default_weight)
                for s in counts[key_col])
    rate = {}
    for _, r in counts.iterrows():
        s, ns = r[key_col], int(r[cname])
        w = weights.get(s, default_weight)
        rate[s] = min(1000, (1000 * int(target_rows) * w) // (sum_w * ns))
    ref = ray.put(rate)

    def keep(t: pa.Table) -> pa.Table:
        rates = ray.get(ref)
        kv = t.column(key_col).to_numpy(zero_copy_only=False)
        ids = t.column(id_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        thresh = pd.Series(kv).map(rates).fillna(0) \
            .to_numpy(dtype=np.int64)
        h = ((ids * _SAMPLE_A + _SAMPLE_C) % _SAMPLE_M) % 1000
        return t.filter(pa.array(h < thresh))

    return ds.map_batches(keep, batch_format="pyarrow",
                          **rayenv.remote_args())


def top_words_per_group(ds, key_col: str = "source",
                        text_col: str = "text", k: int = 5,
                        buckets: int = 32):
    """Grouped heavy hitters: the k most frequent words PER GROUP (tie
    on word ascending) with a 1-based rank — the per-domain vocabulary
    profile (navigation boilerplate shows up as a domain's top words
    long before a human reads a sample).

    Scale shape: per-batch (key, word) count partials -> ONE bucketed
    shuffle on hash(key) (whole keys co-locate) -> in-bucket merge of
    cross-batch partials + the same vectorized segmented top-k cut
    grouped_topk uses. EXACT, unlike a count-min variant — the
    in-bucket state is each key's vocabulary histogram, the same
    driver-free bound grouped_quantiles documents per key."""

    def partial(t: pa.Table) -> pa.Table:
        kv = t.column(key_col).to_numpy(zero_copy_only=False)
        words = pc.split_pattern_regex(t.column(text_col), r"\s+")
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        lens = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        flat = words.flatten()
        keys = np.repeat(kv, lens)
        ok = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"k": keys[ok],
                           "w": flat.filter(pa.array(ok)).to_pandas()})
        g = df.groupby(["k", "w"], as_index=False).size()
        return pa.Table.from_pandas(g.rename(columns={"size": "n"}),
                                    preserve_index=False)

    def final(g: pa.Table) -> pa.Table:
        df = g.to_pandas().groupby(["k", "w"], as_index=False)["n"].sum()
        df = df.sort_values(["k", "n", "w"],
                            ascending=[True, False, True],
                            kind="mergesort")
        df["rank"] = df.groupby("k").cumcount() + 1
        df = df[df["rank"] <= k]
        return pa.table({key_col: pa.array(df["k"].to_numpy()),
                         "word": pa.array(df["w"].to_numpy()),
                         "n": pa.array(df["n"].to_numpy(np.int64)),
                         "rank": pa.array(df["rank"].to_numpy(np.int64))})

    return exchange(ds.map_batches(partial, batch_format="pyarrow",
                                   **rayenv.remote_args()),
                    final, buckets=buckets, keys=["k"],
                    schema=output_schema(ds, [key_col],
                                         [("word", pa.string())]
                                         + int64_fields("n", "rank")))


def grouped_ntile(ds, key_col: str = "source", order_col: str = "n_chars",
                  id_col: str = "doc_id", n: int = 4, buckets: int = 32):
    """Per-group NTILE(n) bucketing — SQL's
    ``NTILE(n) OVER (PARTITION BY key ORDER BY order_col, id)``: each
    group's rows, in (order_col, id) order, are split into ``n`` tiles as
    evenly as possible, with the first ``count % n`` tiles one row larger
    (the standard NTILE fill rule). The quantile-bucketing primitive of
    curriculum construction (length tiers per source, difficulty quartiles)
    — downstream mixers select "tile 1 of source X" without a quantile
    recompute. The id tiebreak makes the assignment deterministic across
    engines and batch orders.

    Scale shape: ONE bucketed shuffle on ``hash(key)`` (whole groups
    co-locate); inside each bucket a single sort + segmented arithmetic
    assigns every group's tiles at once — the tile index is a closed-form
    function of (row rank in group, group size, n), so there is no
    per-group dispatch and no second pass. Same whole-group-per-bucket
    skew bound as the other grouped operators.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    def assign(g: pa.Table) -> pa.Table:
        g = g.take(pc.sort_indices(g, sort_keys=[(key_col, "ascending"),
                                                 (order_col, "ascending"),
                                                 (id_col, "ascending")]))
        m = g.num_rows
        kn = g.column(key_col).combine_chunks() \
            .to_numpy(zero_copy_only=False)
        new_key = np.concatenate(([True], kn[1:] != kn[:-1]))
        seg = np.flatnonzero(new_key)             # segment starts
        seg_of = np.cumsum(new_key) - 1           # segment id per row
        sizes = np.diff(np.concatenate([seg, [m]]))  # rows per group
        r = np.arange(m, dtype=np.int64) - seg[seg_of]  # 0-based rank
        gsz = sizes[seg_of]
        big = gsz % n                             # tiles with +1 rows
        small = gsz // n
        cut = big * (small + 1)                   # rows in the big tiles
        # rows past the big region divide by `small`; guard small==0
        # (group smaller than n: every row IS in the big region, the
        # else-branch value is never selected but must not divide by 0)
        safe_small = np.maximum(small, 1)
        tile = np.where(r < cut, r // (small + 1),
                        big + (r - cut) // safe_small) + 1
        return pa.table({id_col: g.column(id_col),
                         key_col: g.column(key_col),
                         "tile": pa.array(tile.astype(np.int64))})

    return exchange(ds, assign, buckets=buckets, keys=[key_col],
                    schema=output_schema(ds, [id_col, key_col],
                                         int64_fields("tile")))


def grouped_rank(ds, key_col: str = "source", order_col: str = "n_chars",
                 id_col: str = "doc_id", buckets: int = 32):
    """Per-group RANK() and DENSE_RANK() over ``order_col`` ascending —
    SQL's ``RANK()/DENSE_RANK() OVER (PARTITION BY key ORDER BY v)``:
    ties share a rank; RANK leaves gaps after ties, DENSE_RANK does not.
    Rank depends only on the VALUE, so no tie-break column is needed for
    the ranks themselves to be deterministic. The ordinal-position
    primitive (percentile tiers, leaderboards, length ordering) that
    :func:`grouped_ntile` buckets and :func:`grouped_topk` truncates.

    Scale shape: ONE bucketed shuffle on ``hash(key)``; in-bucket sort by
    (key, value) + two segmented cumulative passes (first-row-of-value
    index for RANK, distinct-value count for DENSE_RANK) resolve every
    group at once with no per-group dispatch. Same whole-group-per-bucket
    skew bound as the other grouped operators.
    """

    def ranks(g: pa.Table) -> pa.Table:
        g = g.take(pc.sort_indices(g, sort_keys=[(key_col, "ascending"),
                                                 (order_col, "ascending"),
                                                 (id_col, "ascending")]))
        m = g.num_rows
        kn = g.column(key_col).combine_chunks() \
            .to_numpy(zero_copy_only=False)
        vn = g.column(order_col).combine_chunks() \
            .to_numpy(zero_copy_only=False)
        new_key = np.concatenate(([True], kn[1:] != kn[:-1]))
        new_val = np.concatenate(([True],
                                  (kn[1:] != kn[:-1]) | (vn[1:] != vn[:-1])))
        seg = np.flatnonzero(new_key)
        seg_of = np.cumsum(new_key) - 1
        idx = np.arange(m, dtype=np.int64)
        # RANK: 1 + offset-in-group of the FIRST row carrying this value
        first_of_val = idx[new_val][np.cumsum(new_val) - 1]
        rnk = first_of_val - seg[seg_of] + 1
        # DENSE_RANK: distinct values seen so far within the group
        vals_before_seg = np.cumsum(new_val)[seg] - 1  # distinct before grp
        dense = np.cumsum(new_val) - 1 - vals_before_seg[seg_of] + 1
        return pa.table({id_col: g.column(id_col),
                         key_col: g.column(key_col),
                         "rnk": pa.array(rnk.astype(np.int64)),
                         "dense_rnk": pa.array(dense.astype(np.int64))})

    return exchange(ds, ranks, buckets=buckets, keys=[key_col],
                    schema=output_schema(ds, [id_col, key_col],
                                         int64_fields("rnk", "dense_rnk")))


def grouped_corr(ds, key_col: str = "source", x_col: str = "n_chars",
                 y_col: str = "n_words"):
    """Per-group Pearson correlation of two integer columns via EXACT
    integer moments — the feature-collinearity probe a quality-filter
    pipeline runs before combining signals (is length just a proxy for
    word count in this source?):

        corr = (n*sxy - sx*sy) / sqrt((n*sxx - sx^2) * (n*syy - sy^2))

    with n, sx, sy, sxx, syy, sxy exact int64 partials, so both engine
    and oracle do ONE identical float expression at the end (4dp) — the
    same no-drift construction as :func:`zscore_by_group`. Degenerate
    groups (either column constant, or n == 1) emit NULL, matching SQL's
    ``corr()``. Cross-products route through Python ints in the final
    (group-count-sized) reduce, so n*sxy cannot overflow int64 for large
    groups — only the per-batch partials are int64-bounded (documented
    like zscore: holds to ~1e6 rows x 1e3 values per batch-group).

    Scale shape: per-batch (key, n, sx, sy, sxx, syy, sxy) partials, one
    group-count-sized groupby, group-count-sized final. Zero corpus
    shuffles.
    """

    def part(t: pa.Table) -> pa.Table:
        if (t.column(key_col).null_count or t.column(x_col).null_count
                or t.column(y_col).null_count):
            raise ValueError("grouped_corr: NULL keys/values unsupported "
                             "(exact integer moments need dense int64)")
        kv = t.column(key_col).to_numpy(zero_copy_only=False)
        x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
        y = t.column(y_col).to_numpy(zero_copy_only=False).astype(np.int64)
        ug, inv = np.unique(kv, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        out = {}
        for name, arr in (("sx", x), ("sy", y), ("sxx", x * x),
                          ("syy", y * y), ("sxy", x * y)):
            acc = np.zeros(ug.size, dtype=np.int64)
            np.add.at(acc, inv, arr)
            out[name] = acc
        return pa.table({key_col: pa.array(ug.astype(object), pa.string()),
                         "n": pa.array(n), **{k: pa.array(v)
                                              for k, v in out.items()}})

    from ray.data.aggregate import Sum
    agg = (ds.map_batches(part, batch_format="pyarrow",
                          **rayenv.remote_args())
           .groupby(key_col)
           .aggregate(Sum("n", alias_name="n"),
                      Sum("sx", alias_name="sx"),
                      Sum("sy", alias_name="sy"),
                      Sum("sxx", alias_name="sxx"),
                      Sum("syy", alias_name="syy"),
                      Sum("sxy", alias_name="sxy")))

    def final(t: pa.Table) -> pa.Table:
        # group-count-sized: exact Python-int cross products, one float
        # division + sqrt (identical to the SQL replay), 4dp
        keys, corrs, ns = [], [], []
        for i in range(t.num_rows):
            n = int(t.column("n")[i].as_py())
            sx = int(t.column("sx")[i].as_py())
            sy = int(t.column("sy")[i].as_py())
            sxx = int(t.column("sxx")[i].as_py())
            syy = int(t.column("syy")[i].as_py())
            sxy = int(t.column("sxy")[i].as_py())
            vx = n * sxx - sx * sx
            vy = n * syy - sy * sy
            if n < 2 or vx <= 0 or vy <= 0:
                c = None
            else:
                c = round((n * sxy - sx * sy) / float(vx * vy) ** 0.5, 4)
            keys.append(t.column(key_col)[i].as_py())
            ns.append(n)
            corrs.append(c)
        return pa.table({key_col: pa.array(keys, pa.string()),
                         "n": pa.array(ns, pa.int64()),
                         "corr": pa.array(corrs, pa.float64())})

    return agg.map_batches(final, batch_format="pyarrow",
                           **rayenv.remote_args())


def grouped_percent_rank(ds, key_col: str = "source",
                         order_col: str = "n_chars",
                         id_col: str = "doc_id", buckets: int = 32):
    """Per-group PERCENT_RANK and CUME_DIST in exact integer BASIS POINTS
    — ``(rank-1)*10000 // (n-1)`` and ``rows_le_value*10000 // n`` — so
    engine and oracle compare exact int64s with zero float rounding
    anywhere (a ROUND(percent_rank(), 4) oracle would diverge on
    binary-representable half-boundaries like 1/32, where numpy rounds
    half-to-even and SQL half-away). The normalized-position primitive
    (relative length percentile per source) on top of
    :func:`grouped_rank`.

    Single-row groups emit 0 for pct_rank_bp (SQL's percent_rank() = 0.0
    when n == 1) and 10000 for cume_bp. Same one-bucketed-shuffle scale
    shape as the other grouped operators.
    """

    def ranks(g: pa.Table) -> pa.Table:
        g = g.take(pc.sort_indices(g, sort_keys=[(key_col, "ascending"),
                                                 (order_col, "ascending"),
                                                 (id_col, "ascending")]))
        m = g.num_rows
        kn = g.column(key_col).combine_chunks() \
            .to_numpy(zero_copy_only=False)
        vn = g.column(order_col).combine_chunks() \
            .to_numpy(zero_copy_only=False)
        new_key = np.concatenate(([True], kn[1:] != kn[:-1]))
        new_val = np.concatenate(([True],
                                  (kn[1:] != kn[:-1]) | (vn[1:] != vn[:-1])))
        seg = np.flatnonzero(new_key)
        seg_of = np.cumsum(new_key) - 1
        sizes = np.diff(np.concatenate([seg, [m]]))
        gsz = sizes[seg_of]
        idx = np.arange(m, dtype=np.int64)
        first_of_val = idx[new_val][np.cumsum(new_val) - 1]
        rnk = first_of_val - seg[seg_of] + 1
        # last row index of each value-run (runs never cross groups
        # because new_val includes the group boundary)
        starts = np.flatnonzero(new_val)
        ends = np.concatenate([starts[1:], [m]]) - 1
        run_of = np.cumsum(new_val) - 1
        le = ends[run_of] - seg[seg_of] + 1      # rows <= value in group
        pct = np.where(gsz > 1, (rnk - 1) * 10000 // np.maximum(gsz - 1, 1),
                       np.int64(0))
        cume = le * 10000 // gsz
        return pa.table({id_col: g.column(id_col),
                         key_col: g.column(key_col),
                         "pct_rank_bp": pa.array(pct.astype(np.int64)),
                         "cume_bp": pa.array(cume.astype(np.int64))})

    return exchange(ds, ranks, buckets=buckets, keys=[key_col],
                    schema=output_schema(ds, [id_col, key_col],
                                         int64_fields("pct_rank_bp",
                                                      "cume_bp")))


def grouped_mode(ds, key_col: str = "source", val_col: str = "n_chars",
                 buckets: int = 32):
    """Per-group MODE with deterministic ties (highest count, then
    SMALLEST value): the dominant-value probe (template detection — one
    length dominating a source means boilerplate). Emits
    ``(key, mode_<val>, n_mode)``.

    Scale shape: per-batch (key, value, count) partials collapse inside
    ``map_batches`` first, so the one ``groupby(key, value)`` exchange
    moves distinct-pair-sized partials, never rows; the argmax-per-key
    second exchange moves one row per distinct (key, value) — both
    bounded by the value domain, not the corpus.
    """

    def part(t: pa.Table) -> pa.Table:
        # numpy-native pair counting (hot path: runs on corpus rows):
        # factorize key and value independently, count the combined codes
        if t.column(key_col).null_count or t.column(val_col).null_count:
            raise ValueError("grouped_mode: NULL keys/values unsupported "
                             "(np.unique factorization cannot order None)")
        kv = t.column(key_col).to_numpy(zero_copy_only=False)
        vv = t.column(val_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ku, ki = np.unique(kv, return_inverse=True)
        vu, vi = np.unique(vv, return_inverse=True)
        code = ki.astype(np.int64) * np.int64(len(vu)) + vi
        cu, cnt = np.unique(code, return_counts=True)
        return pa.table({key_col: pa.array(
                             ku[cu // len(vu)].astype(object), pa.string()),
                         val_col: pa.array(vu[cu % len(vu)]
                                           .astype(np.int64)),
                         "n": pa.array(cnt.astype(np.int64))})

    from ray.data.aggregate import Sum
    counts = (ds.map_batches(part, batch_format="pyarrow",
                             **rayenv.remote_args())
              .groupby([key_col, val_col])
              .aggregate(Sum("n", alias_name="n")))

    def argmax(g: pa.Table) -> pa.Table:
        # sort (key, -n, value): first row per key is the mode
        kn = g.column(key_col).combine_chunks() \
            .to_numpy(zero_copy_only=False)
        nn = g.column("n").combine_chunks().to_numpy(zero_copy_only=False)
        vv = g.column(val_col).combine_chunks() \
            .to_numpy(zero_copy_only=False)
        order = np.lexsort((vv, -nn, kn))
        kk, nn, vv = kn[order], nn[order], vv[order]
        first = np.concatenate(([True], kk[1:] != kk[:-1]))
        return pa.table({key_col: pa.array(kk[first].astype(object),
                                           pa.string()),
                         f"mode_{val_col}": pa.array(
                             vv[first].astype(np.int64)),
                         "n_mode": pa.array(nn[first].astype(np.int64))})

    return exchange(counts, argmax, buckets=max(2, buckets // 4),
                    keys=[key_col],
                    schema=pa.schema([(key_col, pa.string()),
                                      (f"mode_{val_col}", pa.int64()),
                                      ("n_mode", pa.int64())]))


def rollup_counts(ds, key1: str = "source", key2: str = "lang",
                  val_col: str = "n_chars", cube: bool = False):
    """GROUP BY ROLLUP(key1, key2) — leaf rows per (key1, key2), subtotal
    rows per key1 (key2 NULL) and one grand-total row (both NULL), each
    with exact row count + int64 value sum. With ``cube=True`` (see
    :func:`cube_counts`) the per-key2 subtotal level (key1 NULL) is
    emitted too. The hierarchy-report primitive
    (per-source-per-language corpus inventory with margins).

    Scale shape: one corpus pass of per-batch (key1, key2, n, sum)
    partials into a domain-sized groupby; the subtotal and grand-total
    levels are then derived FROM that aggregate (repartition(1) over a
    |key1|x|key2|-bounded table), so the corpus is read exactly once and
    no second shuffle touches raw rows.
    """

    def part(t: pa.Table) -> pa.Table:
        if t.column(key1).null_count or t.column(key2).null_count:
            # a NULL leaf key would be indistinguishable from the derived
            # NULL-marked margin rows (SQL disambiguates with GROUPING();
            # this operator declares non-null keys instead)
            raise ValueError("rollup_counts: NULL group keys unsupported")
        k1 = t.column(key1).to_numpy(zero_copy_only=False)
        k2 = t.column(key2).to_numpy(zero_copy_only=False)
        v = t.column(val_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        u1, i1 = np.unique(k1, return_inverse=True)
        u2, i2 = np.unique(k2, return_inverse=True)
        code = i1.astype(np.int64) * np.int64(len(u2)) + i2
        cu, inv = np.unique(code, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        s = np.zeros(len(cu), dtype=np.int64)
        np.add.at(s, inv, v)
        return pa.table({key1: pa.array(u1[cu // len(u2)].astype(object),
                                        pa.string()),
                         key2: pa.array(u2[cu % len(u2)].astype(object),
                                        pa.string()),
                         "n_rows": pa.array(n),
                         "val_sum": pa.array(s)})

    from ray.data.aggregate import Sum
    leaf = (ds.map_batches(part, batch_format="pyarrow",
                           **rayenv.remote_args())
            .groupby([key1, key2])
            .aggregate(Sum("n_rows", alias_name="n_rows"),
                       Sum("val_sum", alias_name="val_sum")))

    def add_margins(t: pa.Table) -> pa.Table:
        # domain-sized input: emit leaves + key1 subtotals (+ key2
        # subtotals when cube) + grand total
        df = t.to_pandas()
        parts = [df]
        sub1 = df.groupby(key1, as_index=False)[["n_rows",
                                                 "val_sum"]].sum()
        sub1[key2] = None
        parts.append(sub1[[key1, key2, "n_rows", "val_sum"]])
        if cube:
            sub2 = df.groupby(key2, as_index=False)[["n_rows",
                                                     "val_sum"]].sum()
            sub2[key1] = None
            parts.append(sub2[[key1, key2, "n_rows", "val_sum"]])
        parts.append(pd.DataFrame({key1: [None], key2: [None],
                                   "n_rows": [df["n_rows"].sum()],
                                   "val_sum": [df["val_sum"].sum()]}))
        out = pd.concat(parts, ignore_index=True)
        return pa.table({key1: pa.array(out[key1].to_numpy(object),
                                        pa.string()),
                         key2: pa.array(out[key2].to_numpy(object),
                                        pa.string()),
                         "n_rows": pa.array(out["n_rows"]
                                            .to_numpy(np.int64)),
                         "val_sum": pa.array(out["val_sum"]
                                             .to_numpy(np.int64))})

    return (leaf.repartition(1)
            .map_batches(add_margins, batch_format="pyarrow",
                         **rayenv.remote_args()))


def cube_counts(ds, key1: str = "source", key2: str = "lang",
                val_col: str = "n_chars"):
    """GROUP BY CUBE(key1, key2) — everything :func:`rollup_counts`
    emits PLUS the per-key2 subtotal rows (key1 NULL), i.e. the full
    cross-margin report (per-source, per-language, and joint corpus
    inventory in one result). Same one-corpus-pass scale shape: the
    extra margin level is derived from the SAME domain-sized leaf
    aggregate, so CUBE costs nothing over ROLLUP beyond
    |key2| extra output rows."""
    return rollup_counts(ds, key1=key1, key2=key2, val_col=val_col,
                         cube=True)


def ratio_to_group_total(ds, key_col: str = "source",
                         val_col: str = "n_chars",
                         id_col: str = "doc_id"):
    """Each row's share of its group's total in exact integer basis
    points — SQL's RATIO_TO_REPORT, ``v * 10000 // sum(v) OVER
    (PARTITION BY key)`` — the mix-share probe (how much of a source one
    document is; flags single-doc-dominated sources). Exact int64 on
    both sides: no float division anywhere, so no rounding-mode
    divergence by construction.

    Scale shape: same zero-corpus-shuffle pattern as
    :func:`zscore_by_group` — per-batch (key, sum) partials into a
    group-count-sized groupby, the totals map broadcasts via ``ray.put``,
    pass 2 is a stateless vectorized map. Int64 bound: group totals must
    stay under 2^63 / 10000 (~9e14), documented like the zscore moments.
    """
    import ray

    def part(t: pa.Table) -> pa.Table:
        kv = t.column(key_col).to_numpy(zero_copy_only=False)
        v = t.column(val_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ug, inv = np.unique(kv, return_inverse=True)
        s = np.zeros(ug.size, dtype=np.int64)
        np.add.at(s, inv, v)
        return pa.table({key_col: pa.array(ug.astype(object), pa.string()),
                         "s": pa.array(s)})

    from ray.data.aggregate import Sum
    stats = (ds.map_batches(part, batch_format="pyarrow",
                            **rayenv.remote_args())
             .groupby(key_col).aggregate(Sum("s", alias_name="s")))
    sp = stats.to_pandas()
    totals_ref = ray.put(dict(zip(sp[key_col], sp["s"].astype(np.int64))))

    def share(t: pa.Table) -> pa.Table:
        tot = ray.get(totals_ref)
        kv = t.column(key_col).to_numpy(zero_copy_only=False)
        v = t.column(val_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        u, inv = np.unique(kv, return_inverse=True)
        tv = np.array([tot[k] for k in u], dtype=np.int64)[inv]
        bp = np.where(tv > 0, v * 10000 // np.maximum(tv, 1), np.int64(0))
        return pa.table({id_col: t.column(id_col),
                         key_col: t.column(key_col),
                         "share_bp": pa.array(bp.astype(np.int64))})

    return ds.map_batches(share, batch_format="pyarrow",
                          **rayenv.remote_args())


def pivot_counts(ds, key_col: str = "source", pivot_col: str = "lang",
                 domain: tuple = ("de", "en", "es", "fr", "zh")):
    """Conditional-aggregation pivot — SQL's ``count(*) FILTER
    (pivot = v)`` per declared domain value, one output column per
    value (``n_{v}``) plus a row-count total: the wide-format corpus
    composition report (documents per language per source, one row per
    source). The pivot domain is DECLARED, not discovered — stable
    output schema regardless of which values a given shard happens to
    contain; an out-of-domain value raises rather than silently
    vanishing (engine and oracle can never disagree on coverage).

    Scale shape: each batch collapses to a |keys_in_batch| x |domain|
    integer count matrix (np.add.at on a 2-D grid — no per-value pass),
    so the single groupby exchanges group-count-sized partial rows with
    |domain|+1 int columns; the final is a domain-width column sum. Zero
    corpus-row shuffles; pivot width is a declared constant, so the
    partial row stays O(|domain|) forever."""
    dom = list(domain)
    idx = {v: i for i, v in enumerate(dom)}
    cols = [f"n_{v}" for v in dom]

    def part(t: pa.Table) -> pa.Table:
        if t.column(key_col).null_count or t.column(pivot_col).null_count:
            # a clean raise: np.unique on a None-bearing object array
            # would die in a confusing numpy sort TypeError instead
            raise ValueError("pivot_counts: NULL key/pivot values "
                             "unsupported (out-of-domain rule)")
        kv = t.column(key_col).to_numpy(zero_copy_only=False)
        pv = t.column(pivot_col).to_numpy(zero_copy_only=False)
        up, pinv = np.unique(pv, return_inverse=True)
        bad = [v for v in up if v not in idx]
        if bad:
            raise ValueError(
                f"pivot_counts: values {bad!r} outside declared domain")
        code = np.array([idx[v] for v in up], dtype=np.int64)[pinv]
        uk, kinv = np.unique(kv, return_inverse=True)
        mat = np.zeros((uk.size, len(dom)), dtype=np.int64)
        np.add.at(mat, (kinv, code), 1)
        out = {key_col: pa.array(uk.astype(object), pa.string())}
        for j, c in enumerate(cols):
            out[c] = pa.array(mat[:, j])
        out["n_rows"] = pa.array(mat.sum(axis=1))
        return pa.table(out)

    from ray.data.aggregate import Sum
    aggs = [Sum(c, alias_name=c) for c in cols]
    aggs.append(Sum("n_rows", alias_name="n_rows"))
    return (ds.map_batches(part, batch_format="pyarrow",
                           **rayenv.remote_args())
            .groupby(key_col).aggregate(*aggs))


def iqr_outliers(ds, key_col: str = "source", val_col: str = "n_chars",
                 id_col: str = "doc_id", fence_half: int = 3):
    """Per-group Tukey-fence outlier filter — rows outside
    ``[q1 - k*IQR, q3 + k*IQR]`` with ``k = fence_half/2`` of their OWN
    group's distribution (the per-source length-anomaly probe: truncated
    fragments and concatenation blobs surface per source, not against a
    global threshold that a long-form source would saturate). The
    default ``fence_half=3`` is the classic k=1.5; a curation pass that
    flags aggressively for review uses ``fence_half=1`` (k=0.5).
    Quantiles are the exact discrete order statistics of
    :func:`grouped_quantiles` (rank ``ceil(q*N_key)``), and the fence
    comparison is kept in integers —
    ``2*v < 2*q1 - fence_half*(q3-q1)`` /
    ``2*v > 2*q3 + fence_half*(q3-q1)`` — so no fractional multiplier
    exists on either side.

    Scale shape: pass 1 is :func:`grouped_quantiles` (histogram
    partials, one bucketed exchange, group-count-sized result); the
    (key -> q1, q3) map broadcasts via ``ray.put``; pass 2 is a
    stateless vectorized filter — zero corpus-row shuffles."""
    import ray

    qt = grouped_quantiles(ds.select_columns([key_col, val_col]),
                           key_col, val_col, qs=(0.25, 0.75)).to_pandas()
    fences = {}
    for k, sub in qt.groupby(key_col):
        m = dict(zip(sub["q"], sub["v"].astype(np.int64)))
        q1, q3 = np.int64(m[0.25]), np.int64(m[0.75])
        fences[k] = (2 * q1 - fence_half * (q3 - q1),
                     2 * q3 + fence_half * (q3 - q1))
    f_ref = ray.put(fences)

    def keep_outliers(t: pa.Table) -> pa.Table:
        fen = ray.get(f_ref)
        kv = t.column(key_col).to_numpy(zero_copy_only=False)
        v = t.column(val_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        u, inv = np.unique(kv, return_inverse=True)
        lo = np.array([fen[k][0] for k in u], dtype=np.int64)[inv]
        hi = np.array([fen[k][1] for k in u], dtype=np.int64)[inv]
        mask = pa.array((2 * v < lo) | (2 * v > hi))
        return pa.table({id_col: t.column(id_col).filter(mask),
                         key_col: t.column(key_col).filter(mask),
                         val_col: pc.cast(
                             t.column(val_col).filter(mask), pa.int64())})

    return ds.map_batches(keep_outliers, batch_format="pyarrow",
                          **rayenv.remote_args())


def vocab_except(ds, source_a: str, source_b: str,
                 key_col: str = "source", text_col: str = "text",
                 ngram: int = 1, buckets: int = 64,
                 op: str = "except"):
    """Vocabulary set-difference — word ``ngram``-grams that appear in
    ``source_a``'s documents but in NONE of ``source_b``'s (SQL
    ``EXCEPT`` over the two distinct-ngram sets): the domain-shift probe
    between two slices of a corpus (what one crawl source says that
    another never does — at ``ngram>=2`` this is the collocation-level
    diff, the sharper signal when slices share a base vocabulary).
    Tokenization matches :func:`grouped_distinct_count` (whitespace
    split, empties dropped); n-grams are space-joined within a document
    (never across documents).

    Scale shape: rows of either source tokenize in-batch to unique
    ``(gram, in_a, in_b)`` flag partials (Zipf collapses each batch
    before any exchange; other sources are filtered out before
    tokenizing) -> ONE bucketed shuffle on hash(gram) -> in-bucket
    flag-OR per gram keeps ``in_a AND NOT in_b``. Only unique grams
    ship, never text.

    With ``op="intersect"`` the in-bucket keep rule flips to
    ``in_a AND in_b`` (SQL ``INTERSECT``) — the shared-collocation
    overlap between two slices; everything else is identical.
    """
    if ngram < 1:
        raise ValueError("ngram must be >= 1")
    if op not in ("except", "intersect"):
        raise ValueError(f"op must be 'except' or 'intersect', got {op!r}")

    def partial(t: pa.Table) -> pa.Table:
        kv = t.column(key_col).to_numpy(zero_copy_only=False)
        sel = (kv == source_a) | (kv == source_b)
        empty = pa.table({"w": pa.array([], pa.string()),
                          "a": pa.array([], pa.int64()),
                          "b": pa.array([], pa.int64())})
        if not sel.any():
            return empty
        t = t.filter(pa.array(sel))
        kv = kv[sel]
        words = pc.split_pattern_regex(t.column(text_col), r"\s+")
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        lens = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        flat = words.flatten()
        ok = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        toks = flat.filter(pa.array(ok)).to_numpy(zero_copy_only=False)
        # per-document token counts after empty-drop
        dlen = np.zeros(len(lens), dtype=np.int64)
        np.add.at(dlen, np.repeat(np.arange(len(lens)), lens), ok)
        if ngram == 1:
            grams, srcs = toks, np.repeat(kv, dlen)
        else:
            # windowed join WITHIN each doc: gram i = toks[i..i+n-1]
            # where i+n-1 stays inside the doc's segment
            starts = np.cumsum(dlen) - dlen
            glen = np.maximum(dlen - (ngram - 1), 0)
            if int(glen.sum()) == 0:
                return empty
            gstart = np.repeat(starts, glen)
            off = np.arange(int(glen.sum()), dtype=np.int64) \
                - np.repeat(np.cumsum(glen) - glen, glen)
            base = gstart + off
            parts = [toks[base + j].astype(str) for j in range(ngram)]
            grams = parts[0]
            for p in parts[1:]:
                grams = np.char.add(np.char.add(grams, " "), p)
            srcs = np.repeat(kv, glen)
        is_a = (srcs == source_a).astype(np.int64)
        pairs = pa.table({"w": pa.array(grams.astype(object), pa.string()),
                          "a": pa.array(is_a),
                          "b": pa.array(1 - is_a)})
        u = pairs.group_by("w").aggregate([("a", "max"), ("b", "max")])
        return pa.table({"w": u.column("w"),
                         "a": pc.cast(u.column("a_max"), pa.int64()),
                         "b": pc.cast(u.column("b_max"), pa.int64())})

    def diff_bucket(g: pa.Table) -> pa.Table:
        m = g.group_by("w").aggregate([("a", "max"), ("b", "max")])
        want_b = 1 if op == "intersect" else 0
        keep = pc.and_(pc.equal(m.column("a_max"), 1),
                       pc.equal(m.column("b_max"), want_b))
        return pa.table({"word": m.column("w").filter(keep)})

    return exchange(ds.map_batches(partial, batch_format="pyarrow",
                                   **rayenv.remote_args()),
                    diff_bucket, buckets=buckets, keys=["w"],
                    schema=pa.schema([("word", pa.string())]))


def id_islands(ds, key_col: str = "source", id_col: str = "doc_id",
               buckets: int = 32):
    """Gaps-and-islands per group — maximal runs of CONSECUTIVE ids
    within each key (``island_start``, ``island_end``, ``n_docs``): the
    shard-completeness probe (a missing id range inside a source shows
    up as an island boundary, pointing at the lost upstream partition).
    Matches SQL's row_number-difference idiom exactly for unique ids.

    Scale shape: each batch collapses its ids to maximal in-batch run
    INTERVALS first (lexsort + boundary diff — thousands of ids become a
    handful of (key, start, end) rows), so the one ``hash(key)``
    bucketed exchange ships intervals, not ids; the in-bucket final
    sorts each key's intervals once and merges the adjacent ones
    vectorized (ids are unique, so intervals never overlap and
    ``start == prev_end + 1`` is the only merge case)."""

    def part(t: pa.Table) -> pa.Table:
        k = t.column(key_col).to_numpy(zero_copy_only=False)
        i = t.column(id_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        order = np.lexsort((i, k))
        ks, si = k[order], i[order]
        new = np.ones(ks.size, dtype=bool)
        if ks.size > 1:
            new[1:] = (ks[1:] != ks[:-1]) | (si[1:] != si[:-1] + 1)
        starts = np.flatnonzero(new)
        ends = np.concatenate([starts[1:] - 1, [ks.size - 1]]) \
            if ks.size else np.empty(0, np.int64)
        out = pa.table({key_col: pa.array(ks[starts].astype(object),
                                          pa.string()),
                        "s": pa.array(si[starts]),
                        "e": pa.array(si[ends])})
        b = hash_bucket(ks[starts], buckets=buckets)
        return out.append_column("_b", pa.array(b))

    def merge(g: pa.Table) -> pa.Table:
        k = g.column(key_col).to_numpy(zero_copy_only=False)
        s = g.column("s").to_numpy(zero_copy_only=False)
        e = g.column("e").to_numpy(zero_copy_only=False)
        order = np.lexsort((s, k))
        ks, ss, es = k[order], s[order], e[order]
        new = np.ones(ks.size, dtype=bool)
        if ks.size > 1:
            new[1:] = (ks[1:] != ks[:-1]) | (ss[1:] != es[:-1] + 1)
        first = np.flatnonzero(new)
        # members of one island are consecutive after the sort, so each
        # island's end is simply its last member's end
        last = np.concatenate([new[1:], [True]]) if ks.size \
            else np.empty(0, bool)
        i_end = es[last]
        return pa.table({key_col: pa.array(ks[first].astype(object),
                                           pa.string()),
                         "island_start": pa.array(ss[first]),
                         "island_end": pa.array(i_end),
                         "n_docs": pa.array(i_end - ss[first] + 1)})

    return exchange(ds.map_batches(part, batch_format="pyarrow",
                                   **rayenv.remote_args()),
                    merge, buckets=buckets,
                    schema=pa.schema([(key_col, pa.string())] + int64_fields(
                        "island_start", "island_end", "n_docs")))


def mad_by_group(ds, key_col: str = "source", val_col: str = "n_chars"):
    """Per-group exact median and median absolute deviation (MAD) of an
    integer column — the robust spread statistic (outlier-resistant
    where stddev is not; the scale parameter curation thresholds hang
    off). Both medians are the discrete rank-``ceil(0.5*N)`` order
    statistic of :func:`grouped_quantiles`, so every value in the result
    is an integer that occurs in the data.

    Scale shape: two :func:`grouped_quantiles` passes (histogram
    partials, one bucketed exchange each, group-count-sized results)
    with the (key -> median) map broadcast between them; the absolute
    deviations are derived in a stateless vectorized map, never
    materialized beyond their per-batch histograms."""
    import ray

    base = ds.select_columns([key_col, val_col])
    med_df = grouped_quantiles(base, key_col, val_col,
                               qs=(0.5,)).to_pandas()
    med = dict(zip(med_df[key_col], med_df["v"].astype(np.int64)))
    med_ref = ray.put(med)

    def absdev(t: pa.Table) -> pa.Table:
        m = ray.get(med_ref)
        kv = t.column(key_col).to_numpy(zero_copy_only=False)
        v = t.column(val_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        u, inv = np.unique(kv, return_inverse=True)
        mv = np.array([m[k] for k in u], dtype=np.int64)[inv]
        return pa.table({key_col: t.column(key_col),
                         "av": pa.array(np.abs(v - mv))})

    dev = base.map_batches(absdev, batch_format="pyarrow",
                           **rayenv.remote_args())
    mad_df = grouped_quantiles(dev, key_col, "av", qs=(0.5,)).to_pandas()
    out = mad_df[[key_col, "v"]].rename(columns={"v": "mad"})
    out["med"] = out[key_col].map(med).astype(np.int64)
    out["mad"] = out["mad"].astype(np.int64)
    return out[[key_col, "med", "mad"]].reset_index(drop=True)


def skyline_2d(ds, x_col: str = "ts", y_col: str = "value",
               id_col: str = "event_id"):
    """2-D skyline (Pareto frontier, maximize both axes) — rows not
    strictly dominated by any other row (s dominates r iff s.x >= r.x,
    s.y >= r.y and at least one is strict); equal points are mutually
    non-dominating and all survive. The "best trade-offs" operator of
    the retrieved skyline literature (e.g. the SIGMOD'21 top-k/skyline
    marriage): most-recent-AND-most-valuable events with no preference
    weights. Dominance is evaluated on the same integer derivations the
    oracle sees — floored epoch seconds and floor(v*1000) — with
    NULL/NaN values excluded (declared, mirrored by the oracle's
    ``value IS NOT NULL``).

    Scale shape: the skyline is distributive — every batch collapses to
    its LOCAL frontier first (one sort + per-x-group max + a strict
    suffix-cummax cut, all vectorized; random 2-D frontiers are ~log n
    of the input), so the single ``repartition(1)`` final runs the same
    kernel over a union of tiny frontiers, never raw rows. No hash
    exchange at all — the only data movement is frontier-sized."""
    from .windows import _epoch_seconds_floor

    def frontier(t: pa.Table) -> pa.Table:
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "x": pa.array([], pa.int64()),
                          "y": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        if "x" in t.column_names:  # final pass: already derived
            x = t.column("x").to_numpy(zero_copy_only=False)
            y = t.column("y").to_numpy(zero_copy_only=False)
            ids = t.column(id_col)
        else:
            xs = t.column(x_col)
            x = (_epoch_seconds_floor(xs.combine_chunks())
                 if getattr(xs.type, "unit", None) is not None
                 else pc.cast(xs.combine_chunks(), pa.int64())
                 .to_numpy(zero_copy_only=False))
            v = np.asarray(t.column(y_col).combine_chunks()
                           .to_numpy(zero_copy_only=False),
                           dtype=np.float64)
            ok = ~np.isnan(v)
            if not ok.any():
                return empty
            x = x[ok]
            y = np.floor(v[ok] * 1000).astype(np.int64)
            ids = t.column(id_col).filter(pa.array(ok))
        # per-distinct-x maximum y (only those rows can be undominated)
        ux, inv = np.unique(x, return_inverse=True)
        ymax = np.full(ux.size, np.iinfo(np.int64).min, dtype=np.int64)
        np.maximum.at(ymax, inv, y)
        # strict suffix cummax over higher x: x asc -> reversed cummax
        # shifted by one gives max y among STRICTLY greater x
        higher = np.concatenate(
            [np.maximum.accumulate(ymax[::-1])[-2::-1],
             [np.iinfo(np.int64).min]])
        keep_x = ymax > higher
        # a row survives iff its x-group is kept and it attains the max
        row_keep = keep_x[inv] & (y == ymax[inv])
        kp = pa.array(row_keep)
        return pa.table({id_col: ids.filter(kp),
                         "x": pa.array(x[row_keep]),
                         "y": pa.array(y[row_keep])})

    return (ds.map_batches(frontier, batch_format="pyarrow",
                           **rayenv.remote_args())
            .repartition(1)
            .map_batches(frontier, batch_format="pyarrow",
                         **rayenv.remote_args()))


def grouped_topk_ties(ds, key_col: str, order_col: str, id_col: str,
                      k: int = 3, buckets: int = 32):
    """Top-k rows per group WITH TIES — SQL's ``rank() OVER (... ORDER
    BY v DESC) <= k``: every row tying the k-th value survives, so the
    boundary is value-determined, not row-determined (the fair-cut
    variant of :func:`grouped_topk`; no id tie-break exists because ties
    are kept, not broken). Output carries the gap-style ``rank``.

    Scale shape: same partial-cut-then-one-exchange as grouped_topk —
    a row can be dropped locally iff >= k batch-local rows of its key
    are STRICTLY greater (a superset of the global condition, so local
    cuts never lose a survivor); per-batch survivors are <= k distinct
    values' runs per key. Pathological inputs where one value ties
    corpus-wide make the k-th run corpus-sized — the documented bound:
    per-key survivors must fit a bucket."""

    def cut(t: pa.Table, with_rank: bool) -> pa.Table:
        kv = t.column(key_col).to_numpy(zero_copy_only=False)
        v = t.column(order_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        order = np.lexsort((-v, kv))
        ks, vs = kv[order], v[order]
        n = ks.size
        if n == 0:
            out = pa.table({key_col: t.column(key_col),
                            id_col: t.column(id_col),
                            order_col: pc.cast(t.column(order_col),
                                               pa.int64())})
            return out.append_column("rank", pa.array([], pa.int64())) \
                if with_rank else out
        new_key = np.ones(n, dtype=bool)
        new_key[1:] = ks[1:] != ks[:-1]
        seg = np.flatnonzero(new_key)[np.cumsum(new_key) - 1]
        new_run = new_key.copy()
        new_run[1:] |= vs[1:] != vs[:-1]
        # strictly-greater count = segment-relative offset of the
        # value-run start
        run_start = np.flatnonzero(new_run)[np.cumsum(new_run) - 1]
        greater = run_start - seg
        keepm = greater < k
        sel = order[keepm]
        out = pa.table({key_col: t.column(key_col).take(pa.array(sel)),
                        id_col: t.column(id_col).take(pa.array(sel)),
                        order_col: pc.cast(
                            t.column(order_col).take(pa.array(sel)),
                            pa.int64())})
        if with_rank:
            out = out.append_column(
                "rank", pa.array((greater[keepm] + 1).astype(np.int64)))
        return out

    def partial(t: pa.Table) -> pa.Table:
        return cut(t, with_rank=False)

    def final(g: pa.Table) -> pa.Table:
        return cut(g.drop_columns(["_b"]), with_rank=True)

    return exchange(ds.map_batches(partial, batch_format="pyarrow",
                                   **rayenv.remote_args()),
                    final, buckets=buckets, keys=[key_col],
                    schema=output_schema(ds, [key_col, id_col],
                                         int64_fields(order_col, "rank")))


def grouped_distinct_pairs(ds, key_col: str, val_col: str,
                           buckets: int = 64):
    """Exact COUNT(DISTINCT val) per group over ARBITRARY columns (the
    generic sibling of :func:`grouped_distinct_count`, which tokenizes
    text) — e.g. distinct users per event type. Same shape: per-batch
    unique (key, val) pairs, ONE bucketed shuffle on hash(key, val)
    (disjoint buckets keep per-key counts additive), in-bucket distinct
    + per-key partials, final key-sized groupby sum."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        u = t.select([key_col, val_col]) \
            .group_by([key_col, val_col]).aggregate([])
        return u

    def count_bucket(g: pa.Table) -> pa.Table:
        u = g.select([key_col, val_col]) \
            .group_by([key_col, val_col]).aggregate([])
        agg = u.group_by(key_col).aggregate([(val_col, "count")])
        return pa.table({key_col: agg.column(key_col),
                         "nd": pc.cast(agg.column(f"{val_col}_count"),
                                       pa.int64())})

    return (exchange(ds.map_batches(partial, batch_format="pyarrow",
                                    **rayenv.remote_args()),
                     count_bucket, buckets=buckets, keys=[key_col, val_col],
                     schema=output_schema(ds, [key_col], int64_fields("nd")))
            .groupby(key_col)
            .aggregate(Sum("nd", alias_name="n_distinct")))


def melt_counts(ds, key_col: str = "source", pivot_col: str = "lang",
                domain: tuple = ("de", "en", "es", "fr", "zh")):
    """Unpivot — the inverse of :func:`pivot_counts`: run the wide pivot
    and melt it back to long ``(key, pivot, n)`` rows, dropping empty
    cells (SQL GROUP BY emits only existing combinations). Closure
    property: melt(pivot(ds)) == GROUP BY key, pivot — which is exactly
    what the oracle checks. The melt is a stateless per-batch reshape of
    the already group-sized pivot result; no extra exchange."""
    wide = pivot_counts(ds, key_col=key_col, pivot_col=pivot_col,
                        domain=domain)
    dom = list(domain)

    def melt(t: pa.Table) -> pa.Table:
        kv = t.column(key_col).to_numpy(zero_copy_only=False)
        mats = np.stack([t.column(f"n_{v}").to_numpy(zero_copy_only=False)
                         for v in dom], axis=1)
        keys = np.repeat(kv, len(dom))
        pv = np.tile(np.array(dom, dtype=object), kv.size)
        n = mats.reshape(-1)
        keep = n > 0
        return pa.table({key_col: pa.array(keys[keep].astype(object),
                                           pa.string()),
                         pivot_col: pa.array(pv[keep], pa.string()),
                         "n": pa.array(n[keep].astype(np.int64))})

    return wide.map_batches(melt, batch_format="pyarrow",
                            **rayenv.remote_args())


def _group_domain(ds, group_col: str, max_groups: int) -> list:
    """Distinct values of a SMALL categorical column (per-batch unique
    partials, tiny driver collect). Raises if the domain exceeds
    ``max_groups`` — the pairwise-overlap kernels below use G bits of
    an int64 mask and emit O(G^2) pairs; histograms hold only OBSERVED
    masks, so the bound protects the pair fan-out, not memory."""

    def part(t: pa.Table) -> pa.Table:
        return t.select([group_col]).group_by([group_col]).aggregate([])

    df = ds.map_batches(part, batch_format="pyarrow",
                        **rayenv.remote_args()).to_pandas()
    vals = sorted(df[group_col].unique().tolist()) \
        if group_col in df.columns else []
    if len(vals) > max_groups:
        raise ValueError(
            f"pairwise overlap needs a small group domain; got "
            f"{len(vals)} distinct {group_col!r} values (max "
            f"{max_groups}). Pre-bucket the groups or use the sketch "
            f"family for wide domains.")
    return vals


def _pair_overlap(pairs, groups: list, buckets: int):
    """Shared tail of the pairwise-overlap kernels: ``pairs`` is a
    Dataset of ``(g, i)`` rows (batch-level distinct already applied).
    ONE hash(item) exchange co-locates each item's rows; per bucket the
    item's group-bit mask ORs together and the bucket emits its
    ``(mask, n_items)`` histogram (<= 2^G rows); the final stage turns
    the global histogram into per-pair intersection/union counts.
    Nothing larger than the distinct (group, item) pair stream ever
    moves, and the reduce side is 2^G-bounded."""
    import ray

    from ray.data.aggregate import Sum

    bit_of = {g: 1 << i for i, g in enumerate(groups)}
    bit_ref = ray.put(bit_of)

    def bucket_masks(g: pa.Table) -> pa.Table:
        bits = ray.get(bit_ref)
        gv = g.column("g").combine_chunks()
        iv = g.column("i").combine_chunks()
        # dictionary-encode the bucket-local items: integer codes for a
        # vectorized OR-scatter regardless of the item's type
        codes = iv.dictionary_encode().indices \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        # group bits via a domain-sized LUT — Python touches only the
        # <= max_groups dictionary, never the rows
        genc = gv.dictionary_encode()
        lut = np.array([bits[x] for x in genc.dictionary.to_pylist()],
                       dtype=np.int64) if len(g) else np.empty(0, np.int64)
        gb = lut[genc.indices.to_numpy(zero_copy_only=False)
                 .astype(np.int64)] if len(g) else np.empty(0, np.int64)
        n_items = int(codes.max()) + 1 if codes.size else 0
        masks = np.zeros(n_items, dtype=np.int64)
        np.bitwise_or.at(masks, codes, gb)
        u, cnt = np.unique(masks, return_counts=True)
        return pa.table({"mask": pa.array(u),
                         "n": pa.array(cnt.astype(np.int64))})

    hist = (exchange(pairs, bucket_masks, buckets=buckets, keys=["i"],
                     schema=pa.schema([("mask", pa.int64()),
                                       ("n", pa.int64())]))
            .groupby("mask").aggregate(Sum("n", alias_name="n")))

    glist = list(groups)

    def finish(t: pa.Table) -> pa.Table:
        mask = t.column("mask").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64) \
            if "mask" in t.column_names else np.empty(0, np.int64)
        n = t.column("n").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64) \
            if "n" in t.column_names else np.empty(0, np.int64)
        a_out, b_out, common, union = [], [], [], []
        cnt = [int(n[(mask & (1 << i)) != 0].sum())
               for i in range(len(glist))]
        for i in range(len(glist)):
            for j in range(i + 1, len(glist)):
                both = int(n[((mask & (1 << i)) != 0)
                             & ((mask & (1 << j)) != 0)].sum())
                if both == 0:
                    continue  # inner-join semantics: no-overlap pairs
                a_out.append(glist[i])
                b_out.append(glist[j])
                common.append(both)
                union.append(cnt[i] + cnt[j] - both)
        return pa.table({
            "group_a": pa.array(a_out),
            "group_b": pa.array(b_out),
            "n_common": pa.array(common, pa.int64()),
            "n_union": pa.array(union, pa.int64())})

    return hist.repartition(1).map_batches(
        finish, batch_format="pyarrow", **rayenv.remote_args())


def cooccurrence_pairs(ds, group_col: str, item_col: str,
                       buckets: int = 64, max_groups: int = 32):
    """Pairwise group overlap over an item column — e.g. how many USERS
    touched both event types A and B (audience overlap), for every
    unordered type pair. Output ``(group_a, group_b, n_common,
    n_union)`` with ``n_common > 0`` (inner semantics); group_a <
    group_b in the sorted domain order.

    Scale shape: per-batch distinct (group, item) pairs, ONE
    hash(item) exchange (each item's rows co-locate, so its group
    bitmask is exact), per-bucket 2^G-bounded mask histograms, one
    tiny final. The group domain must be small (<= ``max_groups``) —
    that is what makes the mask trick exact and cheap."""
    groups = _group_domain(ds, group_col, max_groups)

    def partial(t: pa.Table) -> pa.Table:
        u = t.select([group_col, item_col]) \
            .group_by([group_col, item_col]).aggregate([])
        u = u.rename_columns(["g", "i"])
        return u

    pairs = ds.map_batches(partial, batch_format="pyarrow",
                           **rayenv.remote_args())
    return _pair_overlap(pairs, groups, buckets)


def vocab_overlap(ds, key_col: str = "source", text_col: str = "text",
                  buckets: int = 64, max_groups: int = 32):
    """Pairwise VOCABULARY overlap between sources — shared distinct
    words and union vocabulary size per source pair (the corpus-mixing
    redundancy signal: near-identical vocabularies suggest mirrored or
    templated sources). Tokenization is the package-standard
    whitespace split (RE2 ``\\s+``, empties dropped), matching
    ``regexp_extract_all(text, '\\S+')`` in SQL. Output
    ``(group_a, group_b, n_common, n_union)``.

    Scale shape: identical to :func:`cooccurrence_pairs` — Zipf
    collapses each batch's (source, word) pairs before the ONE
    hash(word) exchange; reduce side is 2^G-bounded."""
    groups = _group_domain(ds, key_col, max_groups)

    def partial(t: pa.Table) -> pa.Table:
        kv = t.column(key_col).to_numpy(zero_copy_only=False)
        words = pc.split_pattern_regex(t.column(text_col), r"\s+")
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        lens = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        flat = words.flatten()
        keys = np.repeat(kv, lens)
        ok = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        u = pa.table({"g": pa.array(keys[ok]),
                      "i": flat.filter(pa.array(ok))}) \
            .group_by(["g", "i"]).aggregate([])
        return u

    pairs = ds.map_batches(partial, batch_format="pyarrow",
                           **rayenv.remote_args())
    return _pair_overlap(pairs, groups, buckets)


def hourly_activity(ds, ts_col: str = "ts", type_col: str = "event_type",
                    val_col: str = "value"):
    """Diurnal activity profile: events and integer-scaled value totals
    per (hour-of-day, event type). Output ``(hr, event_type, n_events,
    value_sum1000)`` — value is ``floor(v*1000)`` int64 with NaN adding
    0 (SQL SUM-skips-NULL semantics), the package exactness rule.

    Scale shape: per-batch collapse to <= 24 x |types| partial rows
    (Arrow group_by), one domain-sized groupby — the stream never
    reshuffles."""
    from ray.data.aggregate import Sum

    def part(t: pa.Table) -> pa.Table:
        hr = pc.cast(pc.hour(t.column(ts_col)), pa.int64())
        v = t.column(val_col).combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.float64)
        v1000 = np.where(np.isnan(v), np.int64(0),
                         np.floor(v * 1000)).astype(np.int64)
        g = pa.table({
            "hr": hr, type_col: t.column(type_col),
            "n_events": pa.array(np.ones(t.num_rows, np.int64)),
            "value_sum1000": pa.array(v1000),
        }).group_by(["hr", type_col]).aggregate(
            [("n_events", "sum"), ("value_sum1000", "sum")])
        return pa.table({"hr": g.column("hr"),
                         type_col: g.column(type_col),
                         "n_events": g.column("n_events_sum"),
                         "value_sum1000": g.column("value_sum1000_sum")})

    return (ds.map_batches(part, batch_format="pyarrow",
                           **rayenv.remote_args())
            .groupby(["hr", type_col])
            .aggregate(Sum("n_events", alias_name="n_events"),
                       Sum("value_sum1000", alias_name="value_sum1000")))


def inter_event_gap_histogram(ds, key: str = "user_id",
                              ts_col: str = "ts", buckets: int = 32):
    """Log2 histogram of the gaps between consecutive same-user events
    (floor-epoch-seconds deltas): bucket = bit_length(gap), with gap 0
    in its own bucket 0 — the burstiness/periodicity fingerprint of an
    event stream, exactly reproducible in SQL via
    ``strlen(bin(gap))`` (no float log2 at bucket boundaries). Output
    ``(gap_bucket, n)``.

    Scale shape: ONE hash(key) bucketed exchange; per bucket one
    (key, ts) sort + vectorized diff (equal-ts ties cannot change the
    sorted delta multiset, so no id tie-break is needed); per-bucket
    <= 64-row histograms, tiny final groupby."""
    from ray.data.aggregate import Sum

    from .windows import _epoch_seconds_floor

    def hist(g: pa.Table) -> pa.Table:
        g = g.take(pc.sort_indices(g, sort_keys=[(key, "ascending"),
                                                 (ts_col, "ascending")]))
        ts = _epoch_seconds_floor(g.column(ts_col).combine_chunks())
        if ts.size < 2:
            return pa.table({"gap_bucket": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        kn = g.column(key).combine_chunks() \
            .to_numpy(zero_copy_only=False)
        same = kn[1:] == kn[:-1]
        gaps = np.diff(ts)[same]
        # exact bit_length: frexp exponents are exact for ints < 2^53
        # (gap seconds are far below), 0 stays bucket 0
        bits = np.frexp(gaps.astype(np.float64))[1].astype(np.int64)
        u, cnt = np.unique(bits, return_counts=True)
        return pa.table({"gap_bucket": pa.array(u),
                         "n": pa.array(cnt.astype(np.int64))})

    return (exchange(ds, hist, buckets=buckets, keys=[key],
                     schema=pa.schema(int64_fields("gap_bucket", "n")))
            .groupby("gap_bucket")
            .aggregate(Sum("n", alias_name="n")))


def global_ntile(ds, val_col: str = "n_chars", id_col: str = "doc_id",
                 k: int = 10, buckets: int = 64, keep_val: bool = False):
    """Global NTILE(k) over (value, id) order WITHOUT a global sort —
    every row's exact tile in the corpus-wide ordering (the
    length-decile label a curation pipeline stratifies on). Output
    ``(id, tile)`` with SQL's ntile fill rule (first ``n % k`` tiles
    get the extra row).

    Scale shape: phase 1 builds the VALUE histogram (per-batch value
    counts, one domain-sized groupby) and broadcasts the cumulative
    offsets — the bounded-domain assumption of the exact-quantile
    family (distinct values fit a worker; the sketch family covers
    unbounded domains). Phase 2 is ONE hash(value) exchange: each
    bucket holds whole value-groups, sorts them by id, and adds the
    broadcast offset to the within-value rank — a distributed rank
    with no all-to-all sort."""
    import ray

    from ray.data.aggregate import Sum

    def vpart(t: pa.Table) -> pa.Table:
        v = t.column(val_col).combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        u, cnt = np.unique(v, return_counts=True)
        return pa.table({"v": pa.array(u),
                         "c": pa.array(cnt.astype(np.int64))})

    hist = (ds.map_batches(vpart, batch_format="pyarrow",
                           **rayenv.remote_args())
            .groupby("v").aggregate(Sum("c", alias_name="c"))
            .to_pandas().sort_values("v", ignore_index=True))
    vals = hist["v"].to_numpy(dtype=np.int64)
    cnts = hist["c"].to_numpy(dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(cnts)[:-1]))
    total = int(cnts.sum())
    off_ref = ray.put((vals, offsets))

    q, r0 = divmod(total, k)

    def tile_of(rank: np.ndarray) -> np.ndarray:
        # SQL ntile fill: first r0 tiles hold q+1 rows, the rest q
        head = r0 * (q + 1)
        big = rank < head
        out = np.empty(rank.size, dtype=np.int64)
        if q + 1 > 0:
            out[big] = rank[big] // (q + 1) + 1
        if q > 0:
            out[~big] = r0 + (rank[~big] - head) // q + 1
        return out

    def project(t: pa.Table) -> pa.Table:
        v = t.column(val_col).combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"v": pa.array(v),
                         "i": pc.cast(t.column(id_col), pa.int64())})

    def rank_bucket(g: pa.Table) -> pa.Table:
        vals_b, offs_b = ray.get(off_ref)
        v = g.column("v").combine_chunks().to_numpy(zero_copy_only=False)
        i = g.column("i").combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((i, v))
        v, i = v[order], i[order]
        new = np.ones(v.size, dtype=bool)
        if v.size > 1:
            new[1:] = v[1:] != v[:-1]
        seg = np.flatnonzero(new)
        within = np.arange(v.size, dtype=np.int64) \
            - seg[np.cumsum(new) - 1]
        rank = offs_b[np.searchsorted(vals_b, v)] + within
        out = {id_col: pa.array(i), "tile": pa.array(tile_of(rank))}
        if keep_val:
            out[val_col] = pa.array(v)
        return pa.table(out)

    return exchange(ds.map_batches(project, batch_format="pyarrow",
                                   **rayenv.remote_args()),
                    rank_bucket, buckets=buckets, keys=["v"],
                    schema=pa.schema(int64_fields(
                        id_col, "tile", *([val_col] if keep_val else []))))


def robust_outliers(ds, key_col: str = "source",
                    val_col: str = "n_chars", id_col: str = "doc_id",
                    factor: int = 3):
    """Robust per-group outliers: rows whose value deviates from their
    group's median by more than ``factor`` x MAD — the
    outlier-resistant sibling of the IQR filter (a single extreme doc
    cannot move the threshold). Integer-exact: median and MAD are the
    discrete order statistics of :func:`mad_by_group`, the comparison
    is pure int64. Output ``(id, key, val)`` for the outliers.

    Scale shape: :func:`mad_by_group` (two histogram-partial exchanges)
    produces the group-domain-sized (median, MAD) map, which broadcasts;
    the filter itself is a stateless vectorized map — the corpus
    streams through once, nothing reshuffles."""
    import ray

    stats = mad_by_group(ds.select_columns([key_col, val_col]),
                         key_col, val_col)
    smap = {k: (int(m), int(d)) for k, m, d in
            zip(stats[key_col], stats["med"], stats["mad"])}
    smap_ref = ray.put(smap)

    def flt(t: pa.Table) -> pa.Table:
        m = ray.get(smap_ref)
        kv = t.column(key_col).to_numpy(zero_copy_only=False)
        v = t.column(val_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        u, inv = np.unique(kv, return_inverse=True)
        med = np.array([m[k][0] for k in u], dtype=np.int64)[inv] \
            if u.size else np.empty(0, np.int64)
        mad = np.array([m[k][1] for k in u], dtype=np.int64)[inv] \
            if u.size else np.empty(0, np.int64)
        keep = pa.array(np.abs(v - med) > factor * mad)
        return pa.table({id_col: t.column(id_col).filter(keep),
                         key_col: t.column(key_col).filter(keep),
                         val_col: t.column(val_col).filter(keep)})

    return ds.map_batches(flt, batch_format="pyarrow",
                          **rayenv.remote_args())


def decile_stats(ds, val_col: str = "n_chars", id_col: str = "doc_id",
                 k: int = 10, buckets: int = 64):
    """Per-decile population stats — :func:`global_ntile` composed with
    a grouped rollup: for each tile of the corpus-wide (value, id)
    ordering, the row count, min/max and exact value total (the
    stratification report a curation budget is allocated against).
    Output ``(tile, n_rows, min_val, max_val, sum_val)``.

    Scale shape: the ntile phases (broadcast offsets + one hash(value)
    exchange), then per-batch <=k-row partials into a k-sized final
    groupby — composing operators adds no corpus-sized exchange."""
    from ray.data.aggregate import Max, Min, Sum

    tiled = global_ntile(ds, val_col, id_col, k=k, buckets=buckets,
                         keep_val=True)

    def part(t: pa.Table) -> pa.Table:
        g = pa.table({
            "tile": t.column("tile"),
            "n_rows": pa.array(np.ones(t.num_rows, np.int64)),
            "v": t.column(val_col),
        }).group_by("tile").aggregate(
            [("n_rows", "sum"), ("v", "min"), ("v", "max"), ("v", "sum")])
        return pa.table({"tile": g.column("tile"),
                         "n_rows": g.column("n_rows_sum"),
                         "min_val": g.column("v_min"),
                         "max_val": g.column("v_max"),
                         "sum_val": g.column("v_sum")})

    return (tiled.map_batches(part, batch_format="pyarrow",
                              **rayenv.remote_args())
            .groupby("tile")
            .aggregate(Sum("n_rows", alias_name="n_rows"),
                       Min("min_val", alias_name="min_val"),
                       Max("max_val", alias_name="max_val"),
                       Sum("sum_val", alias_name="sum_val")))


def mass_quantiles(ds, val_col: str = "n_chars",
                   qs_pct: tuple = (25, 50, 75, 90)):
    """Mass-weighted quantiles: for each percentage q, the smallest
    value v such that rows with value <= v hold at least q% of the
    TOTAL value mass (e.g. "half the corpus' characters live in docs
    of <= v chars" — the skew signal row-count quantiles miss when a
    few huge docs dominate). The threshold test is exact integer
    cross-multiplication (``cum * 100 >= q * total``), no float
    division. Output ``(q_pct, v, cum_mass)``.

    Scale shape: per-batch (value, mass) histogram partials, one
    domain-sized groupby, and a driver-side cumsum over the bounded
    value domain (the exact-quantile family's documented assumption;
    the bottom-k sketch is the unbounded-domain path)."""
    import pandas as pd

    from ray.data.aggregate import Sum

    def part(t: pa.Table) -> pa.Table:
        v = t.column(val_col).combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(v, kind="stable")
        vs = v[order]
        new = np.ones(vs.size, dtype=bool)
        if vs.size > 1:
            new[1:] = vs[1:] != vs[:-1]
        seg = np.flatnonzero(new)
        cs = np.cumsum(vs)
        m = np.diff(np.concatenate([cs[seg] - vs[seg], cs[-1:]])) \
            if vs.size else np.empty(0, np.int64)
        return pa.table({"v": pa.array(vs[seg]),
                         "m": pa.array(m.astype(np.int64))})

    hist = (ds.map_batches(part, batch_format="pyarrow",
                           **rayenv.remote_args())
            .groupby("v").aggregate(Sum("m", alias_name="m"))
            .to_pandas().sort_values("v", ignore_index=True))
    v = hist["v"].to_numpy(dtype=np.int64)
    cum = np.cumsum(hist["m"].to_numpy(dtype=np.int64))
    total = int(cum[-1]) if cum.size else 0
    rows = []
    for q in qs_pct:
        if total == 0:
            continue
        k = int(np.searchsorted(cum * 100, q * total))
        rows.append((int(q), int(v[k]), int(cum[k])))
    return pd.DataFrame(rows, columns=["q_pct", "v", "cum_mass"]) \
        .astype("int64")


def grouped_string_agg(ds, key_col: str = "source",
                       val_col: str = "lang", sep: str = ",",
                       buckets: int = 64):
    """Grouped DISTINCT string aggregation — the sorted roll-up label
    (``string_agg(DISTINCT v, ',' ORDER BY v)``): e.g. which languages
    each source contains, as one deterministic comma-joined string per
    group. Output ``(key, vals, n_vals)``.

    Scale shape: per-batch unique (key, val) pairs (the categorical
    domain collapses each batch), ONE hash(key) exchange so a bucket
    holds whole keys, in-bucket sort + segmented join — the joined
    strings are domain-sized, never row-sized."""

    def partial(t: pa.Table) -> pa.Table:
        u = t.select([key_col, val_col]) \
            .group_by([key_col, val_col]).aggregate([])
        return u

    def join_bucket(g: pa.Table) -> pa.Table:
        u = g.select([key_col, val_col]) \
            .group_by([key_col, val_col]).aggregate([])
        u = u.take(pc.sort_indices(
            u, sort_keys=[(key_col, "ascending"),
                          (val_col, "ascending")]))
        kn = u.column(key_col).to_numpy(zero_copy_only=False)
        vn = u.column(val_col).to_numpy(zero_copy_only=False)
        new = np.concatenate(([True], kn[1:] != kn[:-1]))
        seg = np.flatnonzero(new)
        counts = np.diff(np.append(seg, kn.size))
        # python join only over the (domain-sized) distinct pairs
        joined = [sep.join(vn[s:s + c])
                  for s, c in zip(seg, counts)]
        return pa.table({key_col: pa.array(kn[seg]),
                         "vals": pa.array(joined, pa.string()),
                         "n_vals": pa.array(counts.astype(np.int64))})

    return exchange(ds.map_batches(partial, batch_format="pyarrow",
                                   **rayenv.remote_args()),
                    join_bucket, buckets=buckets, keys=[key_col],
                    schema=output_schema(ds, [key_col],
                                         [("vals", pa.string()),
                                          ("n_vals", pa.int64())]))


def hapax_per_source(ds, key_col: str = "source",
                     text_col: str = "text", buckets: int = 64):
    """Hapax legomena per source — words occurring EXACTLY ONCE within
    their source (the classic vocabulary-freshness statistic: template
    farms have few hapaxes, organic text is hapax-rich). Output
    ``(source, n_hapax, n_distinct, hapax_bp)`` with the rate in exact
    floor basis points.

    Scale shape: per-batch (source, word, count) partials (Zipf
    collapses batches), ONE hash(source, word) exchange (disjoint
    buckets keep per-word counts exact), in-bucket total-count filter
    to count==1, source-sized final."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        kv = t.column(key_col).to_numpy(zero_copy_only=False)
        words = pc.split_pattern_regex(t.column(text_col), r"\s+")
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        lens = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        flat = words.flatten()
        keys = np.repeat(kv, lens)
        ok = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        pairs = pa.table({"k": pa.array(keys[ok]),
                          "w": flat.filter(pa.array(ok)),
                          "c": pa.array(np.ones(int(ok.sum()),
                                                np.int64))})
        u = pairs.group_by(["k", "w"]).aggregate([("c", "sum")])
        return pa.table({"k": u.column("k"), "w": u.column("w"),
                         "c": u.column("c_sum")})

    def count_bucket(g: pa.Table) -> pa.Table:
        m = g.select(["k", "w", "c"]).group_by(["k", "w"]) \
            .aggregate([("c", "sum")])
        ones = pc.cast(pc.equal(m.column("c_sum"), 1), pa.int64())
        agg = pa.table({"k": m.column("k"), "hap": ones,
                        "nd": pa.array(np.ones(len(m), np.int64))}) \
            .group_by("k").aggregate([("hap", "sum"), ("nd", "sum")])
        return pa.table({key_col: agg.column("k"),
                         "n_hapax": pc.cast(agg.column("hap_sum"),
                                            pa.int64()),
                         "n_distinct": pc.cast(agg.column("nd_sum"),
                                               pa.int64())})

    agg = (exchange(ds.map_batches(partial, batch_format="pyarrow",
                                   **rayenv.remote_args()),
                    count_bucket, buckets=buckets, keys=["k", "w"],
                    schema=output_schema(ds, [key_col], int64_fields(
                        "n_hapax", "n_distinct")))
           .groupby(key_col)
           .aggregate(Sum("n_hapax", alias_name="n_hapax"),
                      Sum("n_distinct", alias_name="n_distinct")))

    def rate(t: pa.Table) -> pa.Table:
        h = t.column("n_hapax").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        nd = t.column("n_distinct").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({key_col: t.column(key_col),
                         "n_hapax": pa.array(h),
                         "n_distinct": pa.array(nd),
                         "hapax_bp": pa.array(
                             np.where(nd > 0, (h * 10000) // np.maximum(
                                 nd, 1), 0))})

    return agg.map_batches(rate, batch_format="pyarrow",
                           **rayenv.remote_args())


def daily_new_vs_returning(ds, key: str = "user_id",
                           ts_col: str = "ts", buckets: int = 64):
    """Per-day NEW vs RETURNING active users — the growth-vs-retention
    split every activity dashboard opens with. A user is NEW on their
    first active day (by floor-epoch day), RETURNING on every later
    active day. Output ``(day, n_new, n_returning)`` with day =
    epoch_days (exact integer).

    Scale shape: per-batch distinct (user, day) pairs, ONE hash(user)
    exchange (a bucket holds whole users, so each user's first day is
    bucket-local), in-bucket per-user min-day + per-day partial
    counts, day-domain-sized final groupby."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        kv = t.column(key).combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        from .windows import _epoch_seconds_floor
        day = _epoch_seconds_floor(
            t.column(ts_col).combine_chunks()) // np.int64(86400)
        u = pa.table({"k": pa.array(kv), "d": pa.array(day)}) \
            .group_by(["k", "d"]).aggregate([])
        return u

    def split_bucket(g: pa.Table) -> pa.Table:
        m = g.select(["k", "d"]).group_by(["k", "d"]).aggregate([])
        k = m.column("k").to_numpy(zero_copy_only=False)
        d = m.column("d").to_numpy(zero_copy_only=False)
        order = np.lexsort((d, k))
        k, d = k[order], d[order]
        new_user = np.concatenate(([True], k[1:] != k[:-1])) \
            if k.size else np.empty(0, bool)
        out = pa.table({
            "day": pa.array(d),
            "n_new": pa.array(new_user.astype(np.int64)),
            "n_returning": pa.array((~new_user).astype(np.int64))}) \
            .group_by("day").aggregate([("n_new", "sum"),
                                        ("n_returning", "sum")])
        return pa.table({"day": out.column("day"),
                         "n_new": out.column("n_new_sum"),
                         "n_returning": out.column("n_returning_sum")})

    return (exchange(ds.map_batches(partial, batch_format="pyarrow",
                                    **rayenv.remote_args()),
                     split_bucket, buckets=buckets, keys=["k"],
                     schema=pa.schema(int64_fields("day", "n_new",
                                                   "n_returning")))
            .groupby("day")
            .aggregate(Sum("n_new", alias_name="n_new"),
                       Sum("n_returning", alias_name="n_returning")))


def grouped_gini(ds, key_col: str = "source", val_col: str = "n_chars",
                 buckets: int = 32):
    """Per-group Gini concentration of a non-negative integer measure —
    how unevenly doc length (or token mass) is distributed within each
    source, as an EXACT rational: ``gini = gini_num / gini_den`` with
    ``gini_num = sum((2*rank - n - 1) * v)`` over the group's values in
    ascending order and ``gini_den = n * sum(v)``. Tied values make the
    rank assignment ambiguous but not the sum (equal v multiply the
    tied ranks), so engine and SQL agree exactly with NO float at any
    point. Output ``(key, n_rows, gini_num, gini_den)``.

    Scale shape: ONE hash(key) exchange of (key, value) rows; each
    bucket sorts its whole keys once and resolves every group's rank
    sum with a segmented vectorized pass. Values ride the exchange
    unreduced (ranks need the full multiset) — for corpora where even
    one group's values exceed a worker, the bounded-domain histogram
    variant (value counts per key, rank runs from cumulative counts)
    drops in; at document-table cardinalities the direct form is
    cheaper."""

    def project(t: pa.Table) -> pa.Table:
        return pa.table({"k": t.column(key_col),
                         "v": pc.cast(t.column(val_col), pa.int64())})

    def gini_bucket(g: pa.Table) -> pa.Table:
        k = g.column("k").to_numpy(zero_copy_only=False)
        v = g.column("v").to_numpy(zero_copy_only=False)
        order = np.lexsort((v, k))
        k, v = k[order], v[order]
        new = np.concatenate(([True], k[1:] != k[:-1]))
        seg = np.flatnonzero(new)
        counts = np.diff(np.append(seg, k.size))
        seg_of = np.cumsum(new) - 1
        rank = np.arange(k.size, dtype=np.int64) - seg[seg_of] + 1
        n_of = counts[seg_of]
        term = (2 * rank - n_of - 1) * v
        _, num = _ssum(seg, term)
        _, tot = _ssum(seg, v)
        return pa.table({
            key_col: pa.array(k[seg]),
            "n_rows": pa.array(counts.astype(np.int64)),
            "gini_num": pa.array(num),
            "gini_den": pa.array(counts.astype(np.int64) * tot)})

    return exchange(ds.map_batches(project, batch_format="pyarrow",
                                   **rayenv.remote_args()),
                    gini_bucket, buckets=buckets, keys=["k"],
                    schema=output_schema(ds, [key_col], int64_fields(
                        "n_rows", "gini_num", "gini_den")))


def _ssum(seg_starts: np.ndarray, v: np.ndarray):
    """Segment sums given precomputed segment start indices over an
    already-sorted array."""
    cs = np.cumsum(v)
    ends = np.append(seg_starts[1:], v.size) - 1
    out = cs[ends] - np.concatenate(([0], cs[ends[:-1]])) \
        if seg_starts.size else np.empty(0, np.int64)
    return seg_starts, out.astype(np.int64)


def _batch_words(t: pa.Table, text_col: str = "text"):
    """Whitespace-tokenize a batch: returns (flat_words ChunkedArray-free
    StringArray, per_row_lengths int64 ndarray) with empty tokens
    dropped per row. Shared kernel of the vocabulary-curve family;
    matches the ``regexp_extract_all(text, '\\S+')`` oracle convention."""
    words = pc.split_pattern_regex(t.column(text_col), r"\s+")
    if isinstance(words, pa.ChunkedArray):
        words = words.combine_chunks()
    flat = words.flatten()
    lens = pc.list_value_length(words).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    # recompute per-row lengths after dropping in-row empties
    row_id = np.repeat(np.arange(lens.size), lens)
    kept_lens = np.bincount(row_id[keep], minlength=lens.size) \
        .astype(np.int64)
    return flat.filter(pa.array(keep)), kept_lens


def vocab_growth(ds, id_col: str = "doc_id", text_col: str = "text",
                 deciles: int = 10, buckets: int = 64):
    """Heaps-law vocabulary-growth curve: cumulative distinct-word count
    after ingesting all documents with ``doc_id <= max_id * i //
    deciles``, for i = 1..deciles (the dataset-curation curve that says
    whether more crawl still buys new vocabulary). Output
    ``(decile, threshold_id, n_distinct)`` — exact integers.

    Scale shape: a word's contribution to the curve is fully described
    by its FIRST doc_id, so per-batch partials collapse to
    (word, min_id); ONE hash(word) exchange re-mins across batches
    (disjoint buckets keep words whole); each bucket histograms its
    words' first-ids over the deciles-sized threshold grid and the
    final is a deciles-sized additive groupby + cumsum. The max id
    rides a column-pruned metadata pass, never a full scan."""
    from ray.data.aggregate import Sum

    mx = int(ds.select_columns([id_col]).max(id_col))
    thr = np.array([(mx * i) // deciles for i in range(1, deciles + 1)],
                   dtype=np.int64)

    def partial(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        flat, lens = _batch_words(t, text_col)
        rep = np.repeat(ids, lens)
        g = pa.table({"w": flat, "fid": pa.array(rep)}) \
            .group_by("w").aggregate([("fid", "min")])
        return pa.table({"w": g.column("w"), "fid": g.column("fid_min")})

    def bucket_hist(g: pa.Table) -> pa.Table:
        m = g.select(["w", "fid"]).group_by("w") \
            .aggregate([("fid", "min")])
        fid = m.column("fid_min").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        # n words whose first id <= each threshold (cumulative by design)
        counts = np.searchsorted(np.sort(fid), thr, side="right") \
            .astype(np.int64)
        return pa.table({
            "decile": pa.array(np.arange(1, deciles + 1, dtype=np.int64)),
            "threshold_id": pa.array(thr),
            "n_distinct": pa.array(counts)})

    return (exchange(ds.map_batches(partial, batch_format="pyarrow",
                                    **rayenv.remote_args()),
                     bucket_hist, buckets=buckets, keys=["w"],
                     schema=pa.schema(int64_fields("decile", "threshold_id",
                                                   "n_distinct")))
            .groupby(["decile", "threshold_id"])
            .aggregate(Sum("n_distinct", alias_name="n_distinct")))


def max_tf_per_source(ds, key_col: str = "source",
                      id_col: str = "doc_id", text_col: str = "text"):
    """Burstiness / self-repetition rollup: each document's MAX term
    frequency (count of its most-repeated word; 0 for wordless docs),
    aggregated per source as (n_docs, max over docs, sum over docs) —
    the cheap template-spam detector that needs no shuffle at all.
    Output ``(source, n_docs, max_mtf, sum_mtf)``.

    Scale shape: a document lives wholly inside its row, so the
    per-doc max-TF computes in-batch (segmented word sort per doc);
    batches collapse to per-source partials and the only exchange is
    the source-domain-sized final groupby."""
    from ray.data.aggregate import Max, Sum

    def partial(t: pa.Table) -> pa.Table:
        src = t.column(key_col).to_numpy(zero_copy_only=False)
        flat, lens = _batch_words(t, text_col)
        n_rows = lens.size
        row_id = np.repeat(np.arange(n_rows), lens)
        w = flat.to_numpy(zero_copy_only=False)
        # per (row, word) counts via lexsort; then per-row max
        order = np.lexsort((w, row_id))
        r, ww = row_id[order], w[order]
        new = np.ones(r.size, dtype=bool)
        if r.size > 1:
            new[1:] = (r[1:] != r[:-1]) | (ww[1:] != ww[:-1])
        seg = np.flatnonzero(new)
        counts = np.diff(np.append(seg, r.size)).astype(np.int64)
        mtf = np.zeros(n_rows, np.int64)
        if seg.size:
            np.maximum.at(mtf, r[seg], counts)
        g = pa.table({key_col: pa.array(src, pa.string()),
                      "n_docs": pa.array(np.ones(n_rows, np.int64)),
                      "max_mtf": pa.array(mtf),
                      "sum_mtf": pa.array(mtf)}) \
            .group_by(key_col) \
            .aggregate([("n_docs", "sum"), ("max_mtf", "max"),
                        ("sum_mtf", "sum")])
        return pa.table({key_col: g.column(key_col),
                         "n_docs": g.column("n_docs_sum"),
                         "max_mtf": g.column("max_mtf_max"),
                         "sum_mtf": g.column("sum_mtf_sum")})

    return (ds.map_batches(partial, batch_format="pyarrow",
                           **rayenv.remote_args())
            .groupby(key_col)
            .aggregate(Sum("n_docs", alias_name="n_docs"),
                       Max("max_mtf", alias_name="max_mtf"),
                       Sum("sum_mtf", alias_name="sum_mtf")))


def distinct_words_histogram(ds, text_col: str = "text"):
    """Per-document vocabulary-richness histogram: distinct-word count
    per document (0 for wordless docs), histogrammed over the corpus.
    Output ``(n_distinct_words, n_docs)``.

    Scale shape: the per-doc distinct count is in-batch (documents are
    row-local); batches collapse to histogram partials keyed by the
    count value, and the only exchange is the value-domain-sized final
    groupby (bounded by the longest document, not the corpus)."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        flat, lens = _batch_words(t, text_col)
        n_rows = lens.size
        row_id = np.repeat(np.arange(n_rows), lens)
        w = flat.to_numpy(zero_copy_only=False)
        order = np.lexsort((w, row_id))
        r, ww = row_id[order], w[order]
        new = np.ones(r.size, dtype=bool)
        if r.size > 1:
            new[1:] = (r[1:] != r[:-1]) | (ww[1:] != ww[:-1])
        distinct = np.zeros(n_rows, np.int64)
        if r.size:
            np.add.at(distinct, r[new], 1)
        keys, counts = np.unique(distinct, return_counts=True)
        return pa.table({"n_distinct_words": pa.array(keys),
                         "n_docs": pa.array(counts.astype(np.int64))})

    return (ds.map_batches(partial, batch_format="pyarrow",
                           **rayenv.remote_args())
            .groupby("n_distinct_words")
            .aggregate(Sum("n_docs", alias_name="n_docs")))


def winsorized_stats(ds, key_col: str = "source", val_col: str = "n_chars",
                     q_lo: float = 0.1, q_hi: float = 0.9,
                     buckets: int = 32):
    """Per-group winsorized mean — clamp each value to the group's exact
    [q_lo, q_hi] order statistics (SQL row_number semantics, rank
    ``max(1, ceil(q*N))``) and report the clamped sum and integer-exact
    scaled mean ``mean1000 = (1000*sum_w) // n``.  The robust-statistics
    companion of :func:`mad_by_group` for heavy-tailed length columns.

    Scale shape: a SINGLE exchange does everything — per-batch ``(key, v,
    count)`` distinct-value histogram partials (never rows) shuffle once
    on ``hash(key)``; in-bucket, one sort by (key, v) + segmented cumsum
    yields each key's quantile thresholds AND the winsorized sum directly
    from the histogram (``sum(clamp(v)*count)``), so no second data pass.
    Same per-key distinct-value bound as :func:`grouped_quantiles`
    (bounded-domain integer columns; stated contract).

    Output: (key, lo, hi, n, sum_w, mean1000) — all int64, bit-exact.
    """

    def partial(t: pa.Table) -> pa.Table:
        k = t.column(key_col).to_numpy(zero_copy_only=False)
        v = pc.cast(t.column(val_col).combine_chunks(),
                    pa.int64()).to_numpy(zero_copy_only=False)
        g = (pd.DataFrame({"k": k, "v": v})
             .groupby(["k", "v"], as_index=False).size())
        return pa.table({"k": pa.array(g["k"].to_numpy()),
                         "v": pa.array(g["v"].to_numpy()),
                         "cnt": pa.array(g["size"].to_numpy()
                                         .astype(np.int64))})

    def finish(g: pa.Table) -> pa.Table:
        k = g.column("k").combine_chunks().to_numpy(zero_copy_only=False)
        v = g.column("v").combine_chunks().to_numpy(zero_copy_only=False)
        c = g.column("cnt").combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((v, k))
        k, v, c = k[order], v[order], c[order]
        # merge duplicate (k, v) histogram rows from different batches
        same = np.concatenate(([False], (k[1:] == k[:-1]) &
                               (v[1:] == v[:-1])))
        grp = np.cumsum(~same) - 1
        uk = k[~same]
        uv = v[~same]
        uc = np.bincount(grp, weights=c).astype(np.int64)
        new_key = np.concatenate(([True], uk[1:] != uk[:-1]))
        seg = np.flatnonzero(new_key)
        seg_of = np.cumsum(new_key) - 1
        cs = np.cumsum(uc)
        base = cs[seg] - uc[seg]
        cum_in_key = cs - base[seg_of]          # inclusive per-key cumsum
        n_key = np.add.reduceat(uc, seg)
        out_lo = np.empty(seg.size, dtype=np.int64)
        out_hi = np.empty(seg.size, dtype=np.int64)
        for q, out in ((q_lo, out_lo), (q_hi, out_hi)):
            rank = np.maximum(1, np.ceil(q * n_key).astype(np.int64))
            # first histogram row of each key whose cumsum >= rank
            hit = cum_in_key >= rank[seg_of]
            first = np.zeros(uk.size, dtype=bool)
            # leftmost hit per key: hit AND (prev not hit or new key)
            prev_hit = np.concatenate(([False], hit[:-1]))
            prev_hit[seg] = False
            first = hit & ~prev_hit
            out[:] = uv[first]
        lo_of = out_lo[seg_of]
        hi_of = out_hi[seg_of]
        w = np.minimum(np.maximum(uv, lo_of), hi_of)
        sum_w = np.add.reduceat(w * uc, seg).astype(np.int64)
        mean1000 = (1000 * sum_w) // n_key
        return pa.table({key_col: pa.array(uk[seg]),
                         "lo": pa.array(out_lo),
                         "hi": pa.array(out_hi),
                         "n": pa.array(n_key),
                         "sum_w": pa.array(sum_w),
                         "mean1000": pa.array(mean1000)})

    return exchange(ds.map_batches(partial, batch_format="pyarrow",
                                   **rayenv.remote_args()),
                    finish, buckets=buckets, keys=["k"],
                    schema=output_schema(ds, [key_col], int64_fields(
                        "lo", "hi", "n", "sum_w", "mean1000")))


def posting_lists(ds, text_col: str = "text", id_col: str = "doc_id",
                  min_df: int = 20, cap: int = 20, buckets: int = 32):
    """Inverted index (token -> document frequency + capped posting list):
    for every token present in at least ``min_df`` documents, its exact
    df and the first ``cap`` containing doc_ids ascending, comma-joined —
    the retrieval-index build step of a training-data pipeline.

    Scale shape: per-batch distinct (token, doc_id) pairs (in-doc repeats
    collapse BEFORE the exchange) -> ONE bucketed shuffle on
    ``hash(token)``; in-bucket a single lexsort by (token, doc_id) yields
    df (segment length) and the capped posting string per token with no
    per-token dispatch.  Posting lists are CAPPED so no output row is
    unbounded; df stays exact.  The min_df filter bounds the emitted
    vocabulary to frequent terms (the long tail stays worker-local).
    """

    def pairs(t: pa.Table) -> pa.Table:
        flat, lens = _batch_words(t, text_col)
        ids = np.repeat(t.column(id_col).to_numpy(zero_copy_only=False),
                        lens)
        w = flat.to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"token": w, "doc": ids}).drop_duplicates()
        return pa.table({"token": pa.array(df["token"].to_numpy(),
                                           pa.string()),
                         "doc": pa.array(df["doc"].to_numpy()
                                         .astype(np.int64))})

    def build(g: pa.Table) -> pa.Table:
        tok = g.column("token").combine_chunks().to_numpy(
            zero_copy_only=False)
        doc = g.column("doc").combine_chunks().to_numpy(
            zero_copy_only=False)
        order = np.lexsort((doc, tok))
        tok, doc = tok[order], doc[order]
        # cross-batch duplicate (token, doc) pairs collapse here
        dup = np.concatenate(([False], (tok[1:] == tok[:-1]) &
                              (doc[1:] == doc[:-1])))
        tok, doc = tok[~dup], doc[~dup]
        new = np.concatenate(([True], tok[1:] != tok[:-1]))
        seg = np.flatnonzero(new)
        dfreq = np.diff(np.append(seg, tok.size)).astype(np.int64)
        keep = dfreq >= min_df
        if not keep.any():
            return schema.empty_table()
        segk, dfk = seg[keep], dfreq[keep]
        posts = [",".join(map(str, doc[s:s + min(int(d), cap)]))
                 for s, d in zip(segk, dfk)]
        return pa.table({"token": pa.array(tok[segk], pa.string()),
                         "df": pa.array(dfk),
                         "postings": pa.array(posts, pa.string())})

    schema = pa.schema([("token", pa.string()), ("df", pa.int64()),
                        ("postings", pa.string())])
    return exchange(ds.map_batches(pairs, batch_format="pyarrow",
                                   **rayenv.remote_args()),
                    build, buckets=buckets, keys=["token"],
                    schema=schema)


def column_profile(ds, int_cols=("doc_id", "n_chars"),
                   str_cols=("lang", "source")):
    """Per-column data-profiling summary — (column, n_nulls, n_distinct,
    min_v, max_v) with min/max rendered as strings so heterogeneous
    columns share one output schema.  The schema-audit step that fronts
    a long-running ingest.

    Scale shape: nulls/min/max come from ONE pass of per-batch partials
    (one tiny row per column per batch) + a column-domain-sized groupby;
    exact distinct counts run one count-shuffle per column
    (``groupby(col).count().count_rows()``) — at open-web scale the
    distinct pass for a key-like column is the expensive exact path, and
    the HLL sketch (:func:`distinct_hll`) is the documented cheap
    substitute; the profile keeps exact semantics so the oracle can pin
    it."""
    cols = list(int_cols) + list(str_cols)
    base = ds.select_columns(cols)

    def partial(t: pa.Table) -> pa.Table:
        rows = {"column": [], "n_nulls": [], "min_i": [], "max_i": [],
                "min_s": [], "max_s": []}
        for c in cols:
            arr = t.column(c)
            rows["column"].append(c)
            rows["n_nulls"].append(arr.null_count)
            valid = arr.drop_null()
            if c in int_cols:
                mn = pc.min(valid).as_py() if len(valid) else None
                mx = pc.max(valid).as_py() if len(valid) else None
                rows["min_i"].append(mn)
                rows["max_i"].append(mx)
                rows["min_s"].append(None)
                rows["max_s"].append(None)
            else:
                mn = pc.min(valid).as_py() if len(valid) else None
                mx = pc.max(valid).as_py() if len(valid) else None
                rows["min_i"].append(None)
                rows["max_i"].append(None)
                rows["min_s"].append(mn)
                rows["max_s"].append(mx)
        return pa.table({"column": pa.array(rows["column"], pa.string()),
                         "n_nulls": pa.array(rows["n_nulls"], pa.int64()),
                         "min_i": pa.array(rows["min_i"], pa.int64()),
                         "max_i": pa.array(rows["max_i"], pa.int64()),
                         "min_s": pa.array(rows["min_s"], pa.string()),
                         "max_s": pa.array(rows["max_s"], pa.string())})

    from ray.data.aggregate import Max, Min, Sum
    stats = (base.map_batches(partial, batch_format="pyarrow",
                              **rayenv.remote_args())
             .groupby("column")
             .aggregate(Sum("n_nulls", alias_name="n_nulls"),
                        Min("min_i", alias_name="min_i"),
                        Max("max_i", alias_name="max_i"),
                        Min("min_s", alias_name="min_s"),
                        Max("max_s", alias_name="max_s"))
             .to_pandas())
    distinct = {c: base.select_columns([c]).groupby(c).count()
                .count() for c in cols}
    out = []
    for _, r in stats.iterrows():
        c = r["column"]
        if c in int_cols:
            mn, mx = r["min_i"], r["max_i"]
            mn_v = str(int(mn)) if pd.notna(mn) else None
            mx_v = str(int(mx)) if pd.notna(mx) else None
        else:
            mn_v = r["min_s"]
            mx_v = r["max_s"]
        out.append({"column": c, "n_nulls": int(r["n_nulls"]),
                    "n_distinct": int(distinct[c]),
                    "min_v": mn_v, "max_v": mx_v})
    return pd.DataFrame(out).sort_values("column").reset_index(drop=True)


def higher_moments(ds, key_col: str = "source", val_col: str = "n_chars"):
    """Exact per-group raw-moment numerators up to order 4 — (n, sum_v,
    sum_v2, sum_v3, sum_v4) as int64 — the distributive sufficient
    statistics for skewness/kurtosis, left unnormalized so the result is
    bit-exact and engine-agnostic (the same contract as
    :func:`moments_per_source`'s order-2 pair; callers divide).

    Overflow contract (stated): ``sum(v^4) < 2^63`` requires
    ``n * max(v)^4 < 9.2e18`` — document lengths (v <= ~10^3, v^4 <=
    1e12) hold to ~9e6 rows PER GROUP PER BATCH partial and to any group
    total below that bound after the groupby; wider domains need the
    float or Python-int variant. Partials are one row per (key, batch).
    """
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        k = t.column(key_col).to_numpy(zero_copy_only=False)
        v = pc.cast(t.column(val_col).combine_chunks(),
                    pa.int64()).to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"k": k, "v": v, "v2": v * v})
        df["v3"] = df["v2"] * df["v"]
        df["v4"] = df["v2"] * df["v2"]
        g = df.groupby("k", as_index=False).agg(
            n=("v", "size"), sum_v=("v", "sum"), sum_v2=("v2", "sum"),
            sum_v3=("v3", "sum"), sum_v4=("v4", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    return (ds.map_batches(partial, batch_format="pyarrow",
                           **rayenv.remote_args())
            .groupby("k")
            .aggregate(Sum("n", alias_name="n"),
                       Sum("sum_v", alias_name="sum_v"),
                       Sum("sum_v2", alias_name="sum_v2"),
                       Sum("sum_v3", alias_name="sum_v3"),
                       Sum("sum_v4", alias_name="sum_v4"))
            .map_batches(lambda t: t.rename_columns(
                [key_col] + list(t.column_names[1:])),
                batch_format="pyarrow"))


def group_regression_stats(ds, key_col: str = "p_brand",
                           x_col: str = "p_size",
                           y_col: str = "p_retailprice",
                           y_scale: int = 1000):
    """Exact per-group simple-linear-regression sufficient statistics:
    (n, sum_x, sum_y, sum_xy, sum_x2) with y integer-scaled
    (``floor(y*scale)``) so every number is bit-exact int64 — slope and
    intercept derive as ``(n*sum_xy - sum_x*sum_y) / (n*sum_x2 -
    sum_x^2)`` on the caller's side.  The distributive regression
    pattern: one partial row per (key, batch), domain-sized final
    groupby, raw rows never shuffle."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        k = t.column(key_col).combine_chunks().to_numpy(
            zero_copy_only=False)
        x = pc.cast(t.column(x_col).combine_chunks(),
                    pa.int64()).to_numpy(zero_copy_only=False)
        y = t.column(y_col).combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.float64)
        y1000 = np.floor(y * y_scale).astype(np.int64)
        df = pd.DataFrame({"k": k, "x": x, "y": y1000,
                           "xy": x * y1000, "x2": x * x})
        g = df.groupby("k", as_index=False).agg(
            n=("x", "size"), sum_x=("x", "sum"), sum_y=("y", "sum"),
            sum_xy=("xy", "sum"), sum_x2=("x2", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (ds.map_batches(partial, batch_format="pyarrow",
                          **rayenv.remote_args())
           .groupby("k")
           .aggregate(Sum("n", alias_name="n"),
                      Sum("sum_x", alias_name="sum_x"),
                      Sum("sum_y", alias_name="sum_y"),
                      Sum("sum_xy", alias_name="sum_xy"),
                      Sum("sum_x2", alias_name="sum_x2")))
    return out.map_batches(
        lambda t: t.rename_columns([key_col] + list(t.column_names[1:])),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# persisted HLL sketch sidecars (round 5): metadata-only distinct counts
# ---------------------------------------------------------------------------

def build_distinct_sketches(out_dir: str, column: str,
                            concurrency: int | None = None) -> dict:
    """Materialize one HyperLogLog register sidecar PER PARTITION for
    ``column`` (``out_dir/sketches/<column>/<pid>.json``) — the sketch
    analogue of the zone-map stats: pay one column-pruned decode per
    partition ONCE, then every later ``COUNT(DISTINCT column)`` is a
    driver-side register merge with ZERO partition-file IO
    (:func:`approx_distinct_from_sketches`). The pattern Iceberg calls
    theta-sketch puffin files; at 10^12 rows a distinct-count dashboard
    cannot re-scan the corpus per refresh.

    Incremental + idempotent: an existing sidecar for a live pid is
    skipped, so after appending new partitions only THEIR sketches
    build. Each sidecar records the partition's delete-count at build
    time; later tombstones flag it stale (distinct counts may shrink)
    and a rebuild recomputes just that partition. Nulls never enter the
    registers (SQL COUNT DISTINCT ignores them)."""
    import json as _json
    import os as _os

    from . import pipeline

    sdir = _os.path.join(out_dir, "sketches", column)
    _os.makedirs(sdir, exist_ok=True)
    rows = pipeline.load_manifest(out_dir)
    todo = []
    for r in rows:
        path = _os.path.join(sdir, f"{r['pid']}.json")
        n_del = len(r.get("deleted_rows") or ())
        if _os.path.exists(path):
            with open(path) as f:
                side = _json.load(f)
            if side.get("n_deleted") == n_del:
                continue  # fresh
        todo.append(r)
    if not todo:
        return {"column": column, "partitions": len(rows), "built": 0}

    def build(batch: pa.Table) -> pa.Table:
        from . import pipeline as _p
        pids, counts = [], []
        for row in _p.manifest_table_to_rows(batch):
            t = _p.decode_partition(row, columns=[column])
            arr = t.column(column).combine_chunks().drop_null()
            vals = arr.to_numpy(zero_copy_only=False)
            regs = np.zeros(_HLL_M, dtype=np.int64)
            if vals.size:
                idx, rank = _hll_hash_ranks(vals)
                np.maximum.at(regs, idx, rank)
            nz = np.flatnonzero(regs)
            side = {"column": column, "p": _HLL_P,
                    "n_deleted": len(row.get("deleted_rows") or ()),
                    "nz": [[int(i), int(regs[i])] for i in nz]}
            path = _os.path.join(sdir, f"{row['pid']}.json")
            tmp = path + f".tmp{_os.getpid()}"
            with open(tmp, "w") as f:
                _json.dump(side, f)
            _os.replace(tmp, path)
            pids.append(row["pid"])
            counts.append(int(nz.size))
        return pa.table({"pid": pa.array(pids, pa.string()),
                         "nz_registers": pa.array(counts, pa.int64())})

    from . import pipeline as _p
    n = concurrency or _p._default_concurrency()
    ds = _p._sliced_blocks(_p.manifest_rows_to_table(todo),
                           min(len(todo), n * 2))
    built = ds.map_batches(build, batch_size=1, batch_format="pyarrow",
                           num_cpus=1, **rayenv.remote_args()).to_pandas()
    return {"column": column, "partitions": len(rows),
            "built": int(len(built))}


#: merge mode cutover: below this many partitions the driver reads the
#: sidecars itself (one pass, tiny); above it the reads fan out to Ray
#: tasks that return ONE register-max partial per block, so the driver
#: sees O(blocks x 32 KiB), not O(partitions) file reads — at 1e6
#: partitions the driver-side loop would be GBs of sequential JSON IO
_SKETCH_MERGE_DISTRIBUTED_MIN = 2048


def _merge_sidecar(regs: np.ndarray, path: str, n_del: int) -> bool:
    """Fold one sidecar into ``regs``; False = missing/stale."""
    import json as _json
    import os as _os
    if not _os.path.exists(path):
        return False
    with open(path) as f:
        side = _json.load(f)
    if side.get("n_deleted") != n_del:
        return False
    nz = side["nz"]
    if nz:
        idx = np.fromiter((p[0] for p in nz), np.int64, len(nz))
        rk = np.fromiter((p[1] for p in nz), np.int64, len(nz))
        np.maximum.at(regs, idx, rk)
    return True


def approx_distinct_from_sketches(out_dir: str, column: str,
                                  concurrency: int | None = None) -> dict:
    """COUNT(DISTINCT column) from the committed sidecars alone — a
    max-merge of per-partition registers (4 KiB/partition of METADATA;
    no partition file is ever opened). Small stores merge on the
    driver; past ``_SKETCH_MERGE_DISTRIBUTED_MIN`` partitions the
    sidecar reads fan out to Ray tasks that ship one register partial
    per block. Raises if any live partition lacks a fresh sidecar: a
    silent partial merge would undercount — run
    :func:`build_distinct_sketches` first (it only builds the
    missing/stale ones)."""
    import os as _os

    from . import pipeline

    sdir = _os.path.join(out_dir, "sketches", column)
    rows = pipeline.load_manifest(out_dir)
    regs = np.zeros(_HLL_M, dtype=np.int64)
    stale: list[str] = []
    sidecar_bytes = 0
    if len(rows) < _SKETCH_MERGE_DISTRIBUTED_MIN:
        for r in rows:
            path = _os.path.join(sdir, f"{r['pid']}.json")
            if _merge_sidecar(regs, path,
                              len(r.get("deleted_rows") or ())):
                sidecar_bytes += _os.path.getsize(path)
            else:
                stale.append(r["pid"])
    else:
        def partial(batch: pa.Table) -> pa.Table:
            pregs = np.zeros(_HLL_M, dtype=np.int64)
            bad, nbytes = [], 0
            for row in pipeline.manifest_table_to_rows(batch):
                path = _os.path.join(sdir, f"{row['pid']}.json")
                if _merge_sidecar(pregs, path,
                                  len(row.get("deleted_rows") or ())):
                    nbytes += _os.path.getsize(path)
                else:
                    bad.append(row["pid"])
            return pa.table({
                "regs": pa.array([pregs.tolist()],
                                 pa.list_(pa.int64())),
                "stale": pa.array([bad], pa.list_(pa.string())),
                "nbytes": pa.array([nbytes], pa.int64())})

        n = concurrency or pipeline._default_concurrency()
        ds = pipeline._sliced_blocks(pipeline.manifest_rows_to_table(rows),
                                     n * 2)
        parts = ds.map_batches(partial, batch_format="pyarrow",
                               **rayenv.remote_args()).to_pandas()
        for rl in parts["regs"]:
            np.maximum(regs, np.asarray(rl, np.int64), out=regs)
        for b in parts["stale"]:
            stale.extend(b)
        sidecar_bytes = int(parts["nbytes"].sum())
    if stale:
        raise ValueError(
            f"{len(stale)} partitions lack a fresh sketch sidecar for "
            f"{column!r} (e.g. {sorted(stale)[:3]}) — run "
            "build_distinct_sketches(out_dir, column) first")
    return {"column": column, "n_distinct_est": int(round(
        _hll_estimate(regs))), "partitions": len(rows),
        "sidecar_bytes": int(sidecar_bytes)}
