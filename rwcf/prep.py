"""Composed corpus-preparation pipeline: the end-to-end curation flow a
training-data user runs before encoding — language gate, quality window,
exact deduplication — expressed as ONE streaming Ray Data pipeline.

Scale shape: the filters are pure ``map_batches`` stages (prune EARLY —
rejected rows never reach the shuffle); the only all-to-all is the exact
dedup's content-hash bucket routing, and only surviving rows' metadata
columns leave the group (text is dropped at the output projection). Every
predicate is integer/equality arithmetic so the whole pipeline has an
exact ANSI-SQL oracle (``prep_corpus`` query).

Reference scope note: the reference engine has no filter/dedup operators
(SURVEY.md §2.2); this composition is the brief's training-data-pipeline
extension, built from the same primitives as dedup.py / textops.py.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import rayenv, textops
from .dedup import _BUCKETS
from .joins import exchange, hash_bucket, output_schema

__all__ = ["prep_corpus", "chunk_dedup_stats"]


def prep_corpus(ds, text_col: str = "text", id_col: str = "doc_id",
                langs: tuple[str, ...] = ("en", "es"),
                min_words: int = 20, max_words: int = 2000,
                keep_cols: tuple[str, ...] = ("source", "lang")):
    """Curate a document corpus: keep docs whose ``lang`` is allowed and
    whose whitespace word count lies in ``[min_words, max_words]``, then
    exact-deduplicate by text (min-``id_col`` row survives). Returns a
    Dataset of ``(id_col, *keep_cols, n_words)`` — curated metadata, no
    text payload.

    Stage order is the 100-TB design: cheap vectorized predicates first
    (each batch shrinks before anything moves), then one bucketed shuffle
    keyed on the text fingerprint for the dedup. Grouping inside a bucket
    is by the REAL text (the hash only routes), so fingerprint collisions
    cannot merge distinct documents."""
    langs = tuple(langs)
    buckets = _BUCKETS

    def filt(t: pa.Table) -> pa.Table:
        text = t.column(text_col)
        n_words = pc.cast(
            pc.count_substring_regex(text, textops.WORD_PATTERN), pa.int64())
        t = t.append_column("n_words", n_words)
        keep = pc.and_(
            pc.and_(pc.greater_equal(n_words, min_words),
                    pc.less_equal(n_words, max_words)),
            pc.is_in(t.column("lang"), value_set=pa.array(langs)))
        t = t.filter(keep)
        fp = textops.fingerprint_batch(t, text_col)
        b = hash_bucket(fp.column("fingerprint").to_numpy(), buckets=buckets)
        return t.append_column("_b", pa.array(b))

    out_cols = [id_col, *keep_cols, "n_words"]

    def survivors(g: pa.Table) -> pa.Table:
        # min-id row per distinct text, Arrow/numpy end to end: dictionary
        # codes group identical texts, one lexsort (code, id) puts each
        # group's min-id row first
        codes_arr = pc.dictionary_encode(g.column(text_col).combine_chunks())
        codes = np.asarray(codes_arr.indices, dtype=np.int64)
        ids = g.column(id_col).to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, codes))
        first = np.ones(order.size, dtype=bool)
        first[1:] = codes[order][1:] != codes[order][:-1]
        return g.select(out_cols).take(pa.array(order[first]))

    return exchange(ds.map_batches(filt, batch_format="pyarrow",
                                   **rayenv.remote_args()),
                    survivors, buckets=buckets,
                    schema=output_schema(ds, out_cols[:-1],
                                         [("n_words", pa.int64())]))


def chunk_dedup_stats(ds, width: int = 64, stride: int = 48,
                      text_col: str = "text", id_col: str = "doc_id",
                      buckets: int | None = None):
    """Chunk-level exact dedup — how production pipelines dedup LONG
    documents: split every doc into width/stride chunks
    (:func:`rwcf.textops.chunk_docs_ds`), dedup the chunks corpus-wide
    (survivor = lexicographic-min (doc_id, chunk_id) per distinct chunk
    text), and report per-doc survival ``(doc_id, n_chunks,
    n_surviving)`` — the boilerplate-share signal a curation pass
    thresholds on (docs whose chunks mostly live elsewhere are templated
    or syndicated copies).

    Scale shape: chunking is a stateless map (zero shuffles); dedup
    routes on ``hash(chunk_text) % buckets`` so identical chunks
    co-locate and Ray group count stays O(buckets); inside each bucket
    one dictionary-encode + lexsort resolves every content group's min
    surrogate at once (no per-group dispatch, no pandas). Only per-doc
    COUNT partials leave the bucket, so the second shuffle is
    doc-count-sized. Surrogate = doc_id * 2^20 + chunk_id (documented
    bound: < 2^20 chunks per doc — 64 GiB of text per doc at these
    defaults — and doc_id < 2^43)."""
    from ray.data.aggregate import Sum

    if buckets is None:
        buckets = _BUCKETS
    chunks = textops.chunk_docs_ds(ds, width=width, stride=stride,
                                   text_col=text_col, id_col=id_col)
    K = np.int64(1 << 20)

    def route(t: pa.Table) -> pa.Table:
        lengths, payload = textops._text_chunks(t, "chunk_text")
        fp = textops.segment_poly_hash(lengths, payload)
        b = hash_bucket(fp.view(np.int64), buckets=buckets)
        return t.append_column("_b", pa.array(b))

    def partial(g: pa.Table) -> pa.Table:
        txt = g.column("chunk_text").combine_chunks()
        enc = txt.dictionary_encode()
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        code = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        doc = g.column(id_col).combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        ck = g.column("chunk_id").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        surr = doc * K + ck
        order = np.lexsort((surr, code))
        sc, ss = code[order], surr[order]
        first = np.ones(sc.size, dtype=bool)
        first[1:] = sc[1:] != sc[:-1]
        mins = np.zeros(int(code.max()) + 1, dtype=np.int64)
        mins[sc[first]] = ss[first]   # min surrogate per content code
        surv = surr == mins[code]
        ud, inv = np.unique(doc, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        ns = np.bincount(inv, weights=surv).astype(np.int64)
        return pa.table({id_col: pa.array(ud),
                         "n_chunks": pa.array(n),
                         "n_surviving": pa.array(ns)})

    out = (exchange(chunks.map_batches(route, batch_format="pyarrow",
                                       **rayenv.remote_args()),
                    partial, buckets=buckets,
                    schema=pa.schema([(id_col, pa.int64()),
                                      ("n_chunks", pa.int64()),
                                      ("n_surviving", pa.int64())]))
           .groupby(id_col)
           .aggregate(Sum("n_chunks", alias_name="n_chunks"),
                      Sum("n_surviving", alias_name="n_surviving")))

    def cast(t: pa.Table) -> pa.Table:
        return pa.table({id_col: pc.cast(t.column(id_col), pa.int64()),
                         "n_chunks": pc.cast(t.column("n_chunks"),
                                             pa.int64()),
                         "n_surviving": pc.cast(t.column("n_surviving"),
                                                pa.int64())})
    return out.map_batches(cast, batch_format="pyarrow",
                           **rayenv.remote_args())
