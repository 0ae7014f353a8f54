"""Grouped encode: explicit groupby-on-source shuffle with salted keys.

The north_star calls for "groupby-on-source shuffles with salting to flatten
skew from long-token-array rows". The F1 source distribution is Zipf-skewed
(one source ≈ 55% of rows), so a bare ``groupby("source")`` would funnel
half the corpus through one reducer. This pipeline:

1. pre-aggregates per-source token counts inside ``map_batches`` (partial
   combine) and reduces the tiny partials with ``groupby().aggregate`` —
   the only rows crossing the wire are (source, sum) pairs per block;
2. derives a per-source salt fan-out ``k = ceil(source_tokens / budget)``
   and salts each row with a *deterministic* content hash
   (``pandas.util.hash_array(doc_id) % k`` — stable across processes, so
   resume sees identical groups);
3. shuffles once via ``groupby(["source", "salt"]).map_groups`` and encodes
   each group into one partition whose lineage records (source, salt).

Compare with ``pipeline.encode_job``: the fragment path moves no data at
all; this path buys source-aligned partition files (per-source manifest
aggregation without decode) for one all-to-all exchange.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import pipeline, rayenv
from .pipeline import EncodeConfig, manifest_rows_to_table


def encode_grouped_by_source(input_paths, cfg: EncodeConfig,
                             group_token_budget: int | None = None,
                             resume: bool = True):
    """Returns the manifest Dataset; partitions are per (source, salt)."""
    import ray.data as rd

    budget = group_token_budget or cfg.partition_token_budget

    ds = rd.read_parquet(input_paths, columns=pipeline.TOKEN_COLUMNS)
    # the counting pass prunes to (source, n_tok) — no token bytes move
    count_ds = rd.read_parquet(input_paths, columns=["source", "n_tok"])

    # 1. partial aggregation inside map_batches, then a tiny shuffle
    def partial_counts(t: pa.Table) -> pa.Table:
        g = t.group_by("source").aggregate([("n_tok", "sum")])
        return g.rename_columns(["source", "toks"])

    from ray.data.aggregate import Sum
    totals = (count_ds.map_batches(partial_counts, batch_format="pyarrow",
                                   **rayenv.remote_args())
              .groupby("source").aggregate(Sum("toks", alias_name="toks"))
              .to_pandas())
    salt_k = {r["source"]: max(1, math.ceil(r["toks"] / budget))
              for _, r in totals.iterrows()}

    # 2. deterministic salting (vectorized; no Python per-row loop)
    def add_salt(t: pa.Table) -> pa.Table:
        src = np.asarray(t.column("source")).astype(object)
        k = np.array([salt_k.get(s, 1) for s in src], dtype=np.uint64)
        h = pd.util.hash_array(np.asarray(t.column("doc_id")).astype(object))
        salt = (h % np.maximum(k, 1)).astype(np.int32)
        return t.append_column("salt", pa.array(salt, type=pa.int32()))

    salted = ds.map_batches(add_salt, batch_format="pyarrow",
                            **rayenv.remote_args())

    # 3. one explicit shuffle; each group encodes independently
    def encode_group(g: pa.Table) -> pa.Table:
        import re
        import zlib as _zlib
        source = g.column("source")[0].as_py()
        salt = g.column("salt")[0].as_py()
        safe = re.sub(r"[^A-Za-z0-9._-]", "_", source)
        if safe != source:  # keep pids collision-free after sanitizing
            safe += f"-{_zlib.crc32(source.encode()) & 0xFFFF:04x}"
        pid = f"src-{safe}-s{salt:04d}"
        mpath = os.path.join(cfg.manifest_dir, f"{pid}.json")
        if resume and os.path.exists(mpath):
            return manifest_rows_to_table([pipeline.read_manifest_row(mpath)])
        body = g.drop_columns(["salt"])
        # keep a deterministic in-partition order for stable checksums
        order = pc.sort_indices(body.column("doc_id"))
        body = body.take(order)
        row = pipeline.encode_partition(
            body, pid, cfg, lineage={"source": source, "salt": int(salt),
                                     "grouped": True})
        return manifest_rows_to_table([row])

    return salted.groupby(["source", "salt"]).map_groups(
        encode_group, batch_format="pyarrow", **rayenv.remote_args())


def verify_grouped_job(out_dir: str, input_paths):
    """Bit-exact verification for grouped-encode outputs, whose lineage has
    no source-fragment reference: a bucketed hash-join on doc_id between the
    decoded rows and the source rows. Both sides shuffle once through
    the shared exchange on ``hash(doc_id)``; each bucket compares its
    pairs vectorized. No
    driver-side collect of data rows — only (bucket, n_rows, n_equal)
    summaries return."""
    import ray.data as rd

    from . import pipeline
    from .joins import exchange

    def tag(side):
        def fn(t: pa.Table) -> pa.Table:
            return t.append_column(
                "side", pa.array([side] * t.num_rows, pa.string()))
        return fn

    src = rd.read_parquet(input_paths, columns=pipeline.TOKEN_COLUMNS) \
        .map_batches(tag("src"), batch_format="pyarrow",
                     **rayenv.remote_args())
    dec = pipeline.decode_job(out_dir) \
        .map_batches(tag("dec"), batch_format="pyarrow",
                     **rayenv.remote_args())

    cols = list(pipeline.TOKEN_COLUMNS)

    def compare(g: pa.Table) -> pa.Table:
        # Arrow-native: sort each side by doc_id and compare the sub-tables
        # with Table.equals — logical (chunk-layout-independent) deep value
        # equality, including the list<int32> tokens column, all in C++
        import pyarrow.compute as pc
        side = g.column("side")
        a = g.filter(pc.equal(side, "src"))
        b = g.filter(pc.equal(side, "dec"))
        a = a.take(pc.sort_indices(a, sort_keys=[("doc_id", "ascending")]))
        b = b.take(pc.sort_indices(b, sort_keys=[("doc_id", "ascending")]))
        n = max(a.num_rows, b.num_rows)  # phantom/extra rows count
        ok = (a.num_rows == b.num_rows
              and a.select(cols).combine_chunks()
              .equals(b.select(cols).combine_chunks()))
        return pa.table({"bucket": pa.array([g.column("_b")[0].as_py()],
                                            pa.int32()),
                         "n_rows": pa.array([n], pa.int64()),
                         "n_equal": pa.array([n if ok else 0], pa.int64())})

    return exchange(src.union(dec), compare, buckets=32, keys=["doc_id"],
                    schema=pa.schema([("bucket", pa.int32()),
                                      ("n_rows", pa.int64()),
                                      ("n_equal", pa.int64())]))


def per_source_manifest_stats(out_dir: str) -> pd.DataFrame:
    """Per-source rows/tokens/bytes from lineage alone — compressed-domain
    aggregation (no payload decoded; cf. src/test_rle.rs:8-17 pattern)."""
    rows = pipeline.load_manifest(out_dir)
    df = pd.DataFrame([{
        "source": r["lineage"].get("source"),
        "n_rows": r["n_rows"],
        "n_tokens": r["n_tokens"],
        "encoded_bytes": r["encoded_bytes"],
        "decoded_bytes": r["decoded_bytes"],
    } for r in rows])
    return (df.groupby("source", as_index=False)
              .agg(n_rows=("n_rows", "sum"), n_tokens=("n_tokens", "sum"),
                   encoded_bytes=("encoded_bytes", "sum"),
                   decoded_bytes=("decoded_bytes", "sum")))
