"""Corpus-curation operators for large-scale training-data pipelines:
PII/blocklist redaction, Gopher-style repetition quality stats, benchmark
decontamination, per-group token-budget selection, and fixed-length
sequence packing.

Scale notes (the part that matters at 100 TB):

- ``redact_batch`` / ``repetition_stats_batch`` are stateless vectorized
  ``map_batches`` kernels — RE2 replaces and dictionary-encode + segmented
  numpy reductions; zero shuffles, zero Python-per-row loops.
- ``decontaminate`` broadcasts the benchmark probe set ONCE via
  ``ray.put`` (benchmark suites are MBs; the corpus is the 100-TB side),
  then streams the corpus through a vectorized substring-match stage —
  the textbook broadcast-small-side shape, no shuffle at all.
- ``budget_select`` shuffles only ``(doc_id, group, size)`` triples —
  never document payloads — then selects inside each group with one
  vectorized sort+cumsum. Selected ids can be semi-joined back to the
  full table with :func:`rwcf.joins.hash_join` (``how="semi"``).
- ``pack_sequences_ds`` co-locates each ``doc_id % n_buckets`` slice with
  one groupby shuffle and packs it into fixed-length rows in one
  vectorized scatter; packing is deterministic per bucket, so a resumed
  job reproduces identical sequences (same property the encode manifest
  relies on).

These are new-engine operators (no counterpart in the 336-line reference,
whose scope is the storage format itself — wills-columnar-format.org:1-60);
they extend SURVEY.md §2's training-data-pipeline mandate.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import format as fmt
from . import rayenv

# ---------------------------------------------------------------------------
# PII / blocklist redaction
# ---------------------------------------------------------------------------

#: Public-knowledge PII shapes (simplified to what RE2 supports — both
#: pyarrow and DuckDB run RE2, so one pattern string serves engine + oracle).
EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
IPV4_RE = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"
PHONE_RE = r"\b\d{3}[-. ]\d{3}[-. ]\d{4}\b"


def redact_batch(t: pa.Table, patterns: tuple[str, ...] = (EMAIL_RE,),
                 replacement: str = "[REDACTED]",
                 text_col: str = "text") -> pa.Table:
    """Vectorized redaction: one RE2 alternation pass to count hits, one
    ``replace_substring_regex`` per pattern to scrub. Patterns are applied
    in order against the progressively-redacted text (so an earlier rule
    cannot re-expose a later rule's match)."""
    text = t.column(text_col)
    alternation = "|".join(f"(?:{p})" for p in patterns)
    n_hits = pc.cast(pc.count_substring_regex(text, alternation), pa.int64())
    red = text
    for p in patterns:
        red = pc.replace_substring_regex(red, p, replacement)
    return pa.table({
        "doc_id": t.column("doc_id"),
        "text_red": red,
        "n_hits": n_hits,
    })


# ---------------------------------------------------------------------------
# Gopher-style repetition quality stats
# ---------------------------------------------------------------------------


def repetition_stats_batch(t: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-document repetition counters (the Gopher / MassiveText quality
    rules family): duplicate-word fraction, top-word fraction, top-bigram
    fraction. Exact — words are dictionary-encoded per batch and reduced
    with segmented numpy, no hashing, no row loop.

    Documents with zero bigrams (single-word docs) are dropped, matching
    the SQL oracle's inner join of word stats against bigram stats."""
    text = t.column(text_col)
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    doc_ids = t.column("doc_id").to_numpy(zero_copy_only=False)
    n = len(doc_ids)
    if n == 0:
        return pa.table({
            "doc_id": pa.array([], pa.int64()),
            "n_words": pa.array([], pa.int64()),
            "n_distinct_words": pa.array([], pa.int64()),
            "dup_word_frac": pa.array([], pa.float64()),
            "top_word_frac": pa.array([], pa.float64()),
            "top_bigram_frac": pa.array([], pa.float64())})

    words_list = pc.split_pattern(text, " ")  # keeps empties, like SQL
    flat = words_list.flatten()
    lengths = np.asarray(words_list.value_lengths(), dtype=np.int64)
    dict_arr = pc.dictionary_encode(flat)
    if isinstance(dict_arr, pa.ChunkedArray):
        dict_arr = dict_arr.combine_chunks()
    codes = np.asarray(dict_arr.indices, dtype=np.int64)
    vocab = len(dict_arr.dictionary)
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), lengths)

    # exact positional keying needs doc*K^2 + c1*K + c2 < 2^63
    if n and vocab and n * vocab * vocab >= 2**62:
        raise ValueError(
            f"batch too large for exact positional keys "
            f"({n} docs x vocab {vocab}); lower batch_size")

    # per-(doc, word) counts -> distinct + max count per doc
    wkeys = doc_idx * vocab + codes
    uw, wc = np.unique(wkeys, return_counts=True)
    uw_doc = uw // vocab
    n_distinct = np.bincount(uw_doc, minlength=n).astype(np.int64)
    max_wc = np.zeros(n, dtype=np.int64)
    np.maximum.at(max_wc, uw_doc, wc)

    # per-(doc, bigram) counts over adjacent same-doc word pairs
    adj = doc_idx[:-1] == doc_idx[1:] if codes.size > 1 \
        else np.empty(0, dtype=bool)
    c1, c2 = codes[:-1][adj], codes[1:][adj]
    bdoc = doc_idx[:-1][adj]
    bkeys = (bdoc * vocab + c1) * vocab + c2
    ub, bc = np.unique(bkeys, return_counts=True)
    ub_doc = ub // (vocab * vocab)
    max_bc = np.zeros(n, dtype=np.int64)
    np.maximum.at(max_bc, ub_doc, bc)
    n_bigrams = np.maximum(lengths - 1, 0)

    keep = n_bigrams > 0
    n_words = lengths[keep].astype(np.float64)
    nb = n_bigrams[keep].astype(np.float64)
    return pa.table({
        "doc_id": pa.array(doc_ids[keep]),
        "n_words": pa.array(lengths[keep]),
        "n_distinct_words": pa.array(n_distinct[keep]),
        "dup_word_frac": pa.array(1.0 - n_distinct[keep] / n_words),
        "top_word_frac": pa.array(max_wc[keep] / n_words),
        "top_bigram_frac": pa.array(max_bc[keep] / nb),
    })


# ---------------------------------------------------------------------------
# benchmark decontamination (broadcast small side)
# ---------------------------------------------------------------------------


def _contaminate_batch(t: pa.Table, probes_ref, text_col: str) -> pa.Table:
    import ray
    probes = ray.get(probes_ref) if not isinstance(probes_ref, list) \
        else probes_ref
    text = t.column(text_col)
    hit = np.zeros(len(t), dtype=bool)
    for p in probes:  # per-PROBE vectorized pass; probe sets are small
        if p:
            m = pc.match_substring(text, p)
            hit |= m.combine_chunks().to_numpy(zero_copy_only=False)
    return pa.table({
        "doc_id": t.column("doc_id"),
        "contaminated": pa.array(hit.astype(np.int64)),
    })


def decontaminate(ds, probes: list[str], text_col: str = "text"):
    """Flag documents containing any benchmark probe string. The probe set
    (a benchmark suite — MBs, never corpus-scale) is broadcast once with
    ``ray.put``; every task reads it from the local object store. The
    corpus streams through one vectorized match stage — no shuffle.

    Empty probe strings are DROPPED here, not matched: SQL's
    ``contains(text, '')`` is true for every row, so an accidental empty
    probe would flag the whole corpus. Oracles must mirror this with
    ``WHERE p <> ''`` on the probe side."""
    import ray
    ref = ray.put([p for p in probes if p])
    fn = functools.partial(_contaminate_batch, probes_ref=ref,
                           text_col=text_col)
    return ds.map_batches(fn, batch_format="pyarrow",
                          **rayenv.remote_args())


def _contamination_score_batch(t: pa.Table, probes_ref,
                               text_col: str) -> pa.Table:
    import ray
    probes = ray.get(probes_ref) if not isinstance(probes_ref, list) \
        else probes_ref
    text = t.column(text_col)
    hits = np.zeros(len(t), dtype=np.int64)
    for p in probes:  # per-PROBE vectorized pass; probe sets are small
        m = pc.match_substring(text, p)
        hits += m.combine_chunks().to_numpy(zero_copy_only=False) \
            .astype(np.int64)
    n = max(len(probes), 1)
    return pa.table({
        "doc_id": t.column("doc_id"),
        "n_hit": pa.array(hits),
        # integer permille avoids float-hash flakiness in oracles
        "score1000": pa.array(hits * 1000 // n),
    })


def contamination_scores(ds, probes: list[str], text_col: str = "text"):
    """SCORED decontamination (the ranking complement of
    :func:`decontaminate`'s binary flag): per document, how many of the
    broadcast probe strings occur in it (``n_hit``) and the permille
    fraction of the probe set (``score1000``) — the triage signal a
    curation pipeline thresholds instead of hard-dropping every touch.
    Same scale shape as decontaminate: probe set ``ray.put`` once,
    corpus streams through one vectorized per-probe match stage, zero
    shuffles; empty probes dropped (SQL contains(text,'') is
    vacuously true)."""
    import ray
    kept = [p for p in probes if p]
    ref = ray.put(kept)
    fn = functools.partial(_contamination_score_batch, probes_ref=ref,
                          text_col=text_col)
    return ds.map_batches(fn, batch_format="pyarrow",
                          **rayenv.remote_args())


def probe_strings(ds, every: int = 97, head_chars: int = 60,
                  text_col: str = "text") -> list[str]:
    """Deterministic probe derivation for tests/queries: the first
    ``head_chars`` chars of every ``every``-th document. The filter +
    slice run distributed; only the tiny probe list is collected."""
    def pick(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        sel = t.filter(pa.array(ids % every == 0))
        return pa.table({
            "p": pc.utf8_slice_codeunits(sel.column(text_col), 0,
                                         head_chars)})
    rows = ds.map_batches(pick, batch_format="pyarrow",
                          **rayenv.remote_args()).take_all()
    return [r["p"] for r in rows]


# ---------------------------------------------------------------------------
# per-group token-budget selection
# ---------------------------------------------------------------------------


def budget_select(ds, budget: int, group_col: str = "source",
                  size_col: str = "n_chars", id_col: str = "doc_id"):
    """Largest-first selection under a per-group size budget: within each
    group, order by (size DESC, id ASC) and keep rows while the running
    size total stays <= budget. Only ``(id, group, size)`` triples
    shuffle — select the payload back afterwards with a semi-join.

    Partitioning assumption: one group's triples (24 B/doc) fit one
    worker. At a scale where a single group outgrows that, swap the
    in-group cumsum for the two-phase histogram-threshold pattern of
    ``analytics.grouped_quantiles``: a size-histogram pass finds
    the cut size s* per group, a second streaming pass keeps rows above
    s* and allocates the boundary ties by id — no per-group
    materialization at all."""
    slim = ds.select_columns([id_col, group_col, size_col])

    def pick(g: pa.Table) -> pa.Table:
        ids = g.column(id_col).to_numpy(zero_copy_only=False)
        sz = g.column(size_col).to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -sz))
        ids, sz = ids[order], sz[order]
        cum = np.cumsum(sz.astype(np.int64))
        keep = cum <= budget
        cum_name = "cum_" + (size_col[2:] if size_col.startswith("n_")
                             else size_col)
        return pa.table({
            id_col: pa.array(ids[keep]),
            group_col: pa.array(
                [g.column(group_col)[0].as_py()] * int(keep.sum()),
                type=g.schema.field(group_col).type),
            size_col: pa.array(sz[keep]),
            cum_name: pa.array(cum[keep]),
        })

    return slim.groupby(group_col).map_groups(
        pick, batch_format="pyarrow", **rayenv.remote_args())


# ---------------------------------------------------------------------------
# fixed-length sequence packing
# ---------------------------------------------------------------------------

EOS_TOKEN = -1
PAD_TOKEN = -2


def _pack_group(g: pa.Table, seq_len: int, text_col: str) -> pa.Table:
    """Pack one bucket's documents (doc_id order, byte tokens + one EOS per
    doc) into seq_len rows; pad the tail. One vectorized scatter."""
    order = pc.sort_indices(g, sort_keys=[("doc_id", "ascending")])
    g = g.take(order)
    part = int(g.column("part")[0].as_py())
    lengths, payload = fmt.chunk_from_arrow(g.column(text_col))
    lengths = lengths.astype(np.int64)
    ndocs = lengths.size
    total = int(payload.size) + ndocs  # one EOS per doc
    n_seq = (total + seq_len - 1) // seq_len
    out = np.full(n_seq * seq_len, PAD_TOKEN, dtype=np.int32)
    pos = np.arange(payload.size, dtype=np.int64) + \
        np.repeat(np.arange(ndocs, dtype=np.int64), lengths)
    out[pos] = payload.astype(np.int32)
    eos_pos = np.cumsum(lengths + 1) - 1
    out[eos_pos] = EOS_TOKEN
    n_real = np.full(n_seq, seq_len, dtype=np.int64)
    if n_seq:
        n_real[-1] = total - (n_seq - 1) * seq_len
    n_eos = np.bincount(eos_pos // seq_len, minlength=n_seq) \
        .astype(np.int64)
    return pa.table({
        "part": pa.array(np.full(n_seq, part, dtype=np.int64)),
        "seq_idx": pa.array(np.arange(n_seq, dtype=np.int64)),
        "n_real": pa.array(n_real),
        "n_eos": pa.array(n_eos),
        "tokens": pa.FixedSizeListArray.from_arrays(pa.array(out), seq_len),
    })


def pack_sequences_ds(ds, seq_len: int = 512, n_buckets: int = 8,
                      text_col: str = "text"):
    """Documents -> fixed-length training sequences. Bucket by
    ``doc_id % n_buckets`` (ONE groupby shuffle, deterministic), then pack
    each bucket independently in doc_id order: the document's byte tokens
    (the engine's tokenized view, __ray_entry__ docstring) followed by one
    EOS; the final sequence is PAD-filled. ``n_buckets`` bounds per-group
    payload at corpus/n_buckets — size it so a bucket fits a worker; the
    packing itself is one vectorized scatter, no row loop."""
    def tag(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({"part": pa.array(ids % n_buckets),
                         "doc_id": t.column("doc_id"),
                         text_col: t.column(text_col)})

    fn = functools.partial(_pack_group, seq_len=seq_len, text_col=text_col)
    return (ds.map_batches(tag, batch_format="pyarrow",
                           **rayenv.remote_args())
            .groupby("part")
            .map_groups(fn, batch_format="pyarrow",
                        **rayenv.remote_args()))


def pack_stats_ds(ds, seq_len: int = 512, n_buckets: int = 8,
                  text_col: str = "text"):
    """Per-bucket packing stats AGGREGATED FROM the real packed sequences
    (not recomputed from the input), so the SQL oracle transitively checks
    the packing arithmetic: n_docs = EOS count, n_tokens = real (non-pad)
    token count, n_sequences = packed row count."""
    seqs = pack_sequences_ds(ds, seq_len=seq_len, n_buckets=n_buckets,
                             text_col=text_col)

    def drop_payload(t: pa.Table) -> pa.Table:
        return t.select(["part", "n_real", "n_eos"])

    slim = seqs.map_batches(drop_payload, batch_format="pyarrow",
                            **rayenv.remote_args())
    from ray.data.aggregate import Count, Sum
    out = slim.groupby("part").aggregate(
        Sum("n_eos", alias_name="n_docs"),
        Sum("n_real", alias_name="n_tokens"),
        Count(alias_name="n_sequences"))

    def cast(t: pa.Table) -> pa.Table:
        return pa.table({
            "part": pc.cast(t.column("part"), pa.int64()),
            "n_docs": pc.cast(t.column("n_docs"), pa.int64()),
            "n_tokens": pc.cast(t.column("n_tokens"), pa.int64()),
            "n_sequences": pc.cast(t.column("n_sequences"), pa.int64())})
    return out.map_batches(cast, batch_format="pyarrow",
                           **rayenv.remote_args())


def probe_ngram_contamination(ds, ngram: int = 2, probe_mod: int = 97,
                              id_col: str = "doc_id",
                              text_col: str = "text"):
    """Per-document n-gram contamination score against a probe set (the
    GRADED sibling of :func:`decontaminate`'s boolean substring flag):
    of a document's word ``ngram``-grams, how many — counting repeats —
    also occur in any probe document, as a count and exact floor basis
    points (``hits * 10000 // total``). Probe documents are the
    deterministic ``doc_id % probe_mod == 0`` slice (the same rule the
    decontaminate fixture uses), and are themselves scored like any
    other row. Documents with fewer than ``ngram`` words have no
    n-grams and are absent (inner semantics). Output
    ``(doc_id, n_ngrams, n_contaminated, contaminated_bp)``.

    Scale shape: the probe slice tokenizes to a DISTINCT n-gram set
    that is benchmark-suite-sized by construction (1/probe_mod of the
    corpus; MBs, like decontaminate's probe list) — it broadcasts once
    via ``ray.put``; scoring is then a stateless vectorized scan
    (Arrow ``is_in`` membership + one scatter-add per batch) with NO
    exchange at all."""
    import ray

    def grams_of(t: pa.Table, with_ids: bool):
        # package-standard whitespace split (matches
        # regexp_extract_all(text, '\S+') in SQL, empties dropped)
        words = pc.split_pattern_regex(t.column(text_col), r"\s+")
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        lens = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        flat = words.flatten()
        ok = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        toks = flat.filter(pa.array(ok)).to_numpy(zero_copy_only=False)
        dlen = np.zeros(len(lens), dtype=np.int64)
        np.add.at(dlen, np.repeat(np.arange(len(lens)), lens), ok)
        starts = np.cumsum(dlen) - dlen
        glen = np.maximum(dlen - (ngram - 1), 0)
        total = int(glen.sum())
        if total == 0:
            return np.empty(0, object), glen, np.empty(0, np.int64)
        gstart = np.repeat(starts, glen)
        off = np.arange(total, dtype=np.int64) \
            - np.repeat(np.cumsum(glen) - glen, glen)
        base = gstart + off
        parts = [toks[base + j].astype(str) for j in range(ngram)]
        grams = parts[0]
        for p in parts[1:]:
            grams = np.char.add(np.char.add(grams, " "), p)
        doc_of = np.repeat(np.arange(len(lens), dtype=np.int64), glen)
        return grams.astype(object), glen, doc_of

    def probe_partial(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).combine_chunks() \
            .to_numpy(zero_copy_only=False)
        sel = pa.array(ids % probe_mod == 0)
        grams, _, _ = grams_of(t.filter(sel), with_ids=False)
        u = np.unique(grams) if grams.size else grams
        return pa.table({"g": pa.array(u, pa.string())})

    # distinct probe n-grams: probe-suite-sized by construction, the
    # one (documented) driver materialization — same contract as
    # decontaminate's probe list
    pdf = ds.map_batches(probe_partial, batch_format="pyarrow",
                         **rayenv.remote_args()).to_pandas()
    probe_list = sorted(set(pdf["g"].tolist())) \
        if "g" in pdf.columns else []
    probes_ref = ray.put(probe_list)

    def score(t: pa.Table) -> pa.Table:
        plist = ray.get(probes_ref)
        pset = pa.array(plist, pa.string())
        grams, glen, doc_of = grams_of(t, with_ids=True)
        n_docs = len(t)
        hits = np.zeros(n_docs, dtype=np.int64)
        if grams.size and len(plist):
            memb = pc.is_in(pa.array(grams, pa.string()),
                            value_set=pset) \
                .to_numpy(zero_copy_only=False)
            np.add.at(hits, doc_of, memb.astype(np.int64))
        keep = glen > 0
        ids = t.column(id_col).combine_chunks() \
            .to_numpy(zero_copy_only=False)[keep]
        n = glen[keep]
        h = hits[keep]
        return pa.table({
            id_col: pa.array(ids.astype(np.int64)),
            "n_ngrams": pa.array(n),
            "n_contaminated": pa.array(h),
            "contaminated_bp": pa.array((h * 10000) // n)})

    return ds.map_batches(score, batch_format="pyarrow",
                          **rayenv.remote_args())


def leakage_safe_split_counts(ds, id_col: str = "doc_id",
                              text_col: str = "text",
                              group_col: str = "source",
                              bounds: tuple[int, int] = (80, 90)):
    """Train/val/test split with a duplicate-leakage guard: every member
    of an exact-duplicate cluster lands in the SAME split, because split
    membership is the LCG hash of the cluster REPRESENTATIVE (min id per
    distinct content) rather than of the row's own id. Plain id-hash
    splits leak — a test document whose duplicate sits in train inflates
    eval; benchmark-grade corpora route duplicates together first.

    Pipeline = dedup_exact's shape fused with split_assign_counts' rollup:
    ONE content-hash bucket shuffle co-locates identical texts (hash is
    routing only — grouping is by real content, collision-safe); inside
    each bucket the representative is a vectorized dictionary-encode +
    ``np.minimum.at`` group-min (no per-row loop, no pandas), each row
    hashes its rep through the same SQL-replayable LCG as
    :func:`split_assign_counts`, and only (group, split, count) partials
    leave the bucket for the final domain-sized groupby. Payload text
    ships exactly once — the unavoidable cost of content grouping, same
    as exact dedup."""
    from ray.data.aggregate import Sum

    from .dedup import _BUCKETS, _bucket_of
    from .joins import exchange, output_schema
    from . import textops

    buckets = _BUCKETS
    lo, mid = bounds
    names = np.array(["train", "val", "test"])

    def route(t: pa.Table) -> pa.Table:
        fp = textops.fingerprint_batch(t, text_col)
        b = _bucket_of(fp.column("fingerprint").to_numpy(), buckets=buckets)
        return t.select([id_col, text_col, group_col]) \
            .append_column("_b", pa.array(b))

    def counts_in_bucket(g: pa.Table) -> pa.Table:
        codes = pc.dictionary_encode(g.column(text_col).combine_chunks()) \
            .indices.to_numpy(zero_copy_only=False).astype(np.int64)
        ids = g.column(id_col).combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        rep = np.full(int(codes.max()) + 1 if codes.size else 1,
                      np.iinfo(np.int64).max, np.int64)
        np.minimum.at(rep, codes, ids)
        h = ((rep[codes] * 1103515245 + 12345) % 2147483648) % 100
        split = names[np.where(h < lo, 0, np.where(h < mid, 1, 2))]
        part = pa.table({
            group_col: g.column(group_col),
            "split": pa.array(split, pa.string()),
            "n_docs": pa.array(np.ones(codes.size, np.int64)),
        }).group_by([group_col, "split"]).aggregate([("n_docs", "sum")])
        return pa.table({group_col: part.column(group_col),
                         "split": part.column("split"),
                         "n_docs": part.column("n_docs_sum")})

    return (exchange(ds.map_batches(route, batch_format="pyarrow",
                                    **rayenv.remote_args()),
                     counts_in_bucket, buckets=buckets,
                     schema=output_schema(ds, [group_col], [
                         ("split", pa.string()), ("n_docs", pa.int64())]))
            .groupby([group_col, "split"])
            .aggregate(Sum("n_docs", alias_name="n_docs")))


def leakage_safe_split_counts_clustered(ds, clusters_ds,
                                        id_col: str = "doc_id",
                                        group_col: str = "source",
                                        bounds: tuple[int, int] = (80, 90)):
    """Near-dup-aware variant of :func:`leakage_safe_split_counts`: split
    membership is the LCG hash of each NEAR-duplicate cluster's min-id
    representative, with clusters supplied by any upstream clustering —
    canonically MinHash-LSH verified pairs through
    :func:`rwcf.dedup.cluster_pairs_ds`, whose ``cluster_id`` IS the
    component-min doc_id, so no second reduction is needed. Documents
    absent from ``clusters_ds`` are singletons (rep = own id). One
    bucketed distributed left join attaches labels (ids only — payloads
    never ship), then the same domain-sized count rollup. Rows-only by
    nature (MinHash is not SQL-expressible); the leakage guard — a
    near-dup pair that is NOT byte-identical still lands in one split —
    is pytest-pinned, as is equivalence with the exact variant when the
    clusters come from exact-duplicate pairs."""
    from ray.data.aggregate import Sum

    from . import joins

    lo, mid = bounds
    names = np.array(["train", "val", "test"])
    joined = joins.hash_join(
        ds.select_columns([id_col, group_col]),
        clusters_ds, on=id_col, how="left")

    def partial(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        lab = t.column("cluster_id").combine_chunks()
        rep = np.where(lab.is_valid().to_numpy(zero_copy_only=False),
                       lab.fill_null(0).to_numpy(zero_copy_only=False)
                       .astype(np.int64),
                       ids)
        h = ((rep * 1103515245 + 12345) % 2147483648) % 100
        split = names[np.where(h < lo, 0, np.where(h < mid, 1, 2))]
        g = pa.table({
            group_col: t.column(group_col),
            "split": pa.array(split, pa.string()),
            "n_docs": pa.array(np.ones(ids.size, np.int64)),
        }).group_by([group_col, "split"]).aggregate([("n_docs", "sum")])
        return pa.table({group_col: g.column(group_col),
                         "split": g.column("split"),
                         "n_docs": g.column("n_docs_sum")})

    return (joined.map_batches(partial, batch_format="pyarrow",
                               **rayenv.remote_args())
            .groupby([group_col, "split"])
            .aggregate(Sum("n_docs", alias_name="n_docs")))


def split_assign_counts(ds, id_col: str = "doc_id",
                        group_col: str = "source",
                        bounds: tuple[int, int] = (80, 90)):
    """Deterministic train/val/test assignment rollup: split membership is
    a pure function of the id (the LCG hash analytics.hash_sample pins:
    ((id * 1103515245 + 12345) mod 2^31) mod 100, thresholds
    bounds=(train<80, val<90, test otherwise)), so the split is stable
    across runs, shards and engines — the property a reproducible
    training-data pipeline needs. One (group, split)-domain-sized groupby
    after per-batch partials; no row ever ships."""
    from ray.data.aggregate import Sum

    lo, mid = bounds
    names = np.array(["train", "val", "test"])

    def partial(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        h = ((ids * 1103515245 + 12345) % 2147483648) % 100
        split = names[np.where(h < lo, 0, np.where(h < mid, 1, 2))]
        g = pa.table({
            group_col: t.column(group_col),
            "split": pa.array(split, pa.string()),
            "n_docs": pa.array(np.ones(ids.size, np.int64)),
        }).group_by([group_col, "split"]).aggregate([("n_docs", "sum")])
        return pa.table({group_col: g.column(group_col),
                         "split": g.column("split"),
                         "n_docs": g.column("n_docs_sum")})

    return (ds.map_batches(partial, batch_format="pyarrow",
                           **rayenv.remote_args())
            .groupby([group_col, "split"])
            .aggregate(Sum("n_docs", alias_name="n_docs")))
