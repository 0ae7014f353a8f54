"""Cost-based scan planning over the encoded store's manifest.

Three surfaces:

- :func:`partition_stats` — the STATISTICS VIEW: one row per visible
  partition with its size, codec, zone-map, bloom, tombstone and schema
  state, computed entirely from manifest metadata (zero partition-file
  IO) as a distributed Dataset. The raw material for every cost-based
  decision (compaction picking, clustering checks, pruning estimates).
- :func:`plan_scan` — given a single-column predicate, choose the
  cheapest access path the store can offer from METADATA ONLY and report
  exactly what it would read: zone-map partition pruning, then (for
  equality on a bloom-indexed column) bloom-sidecar probes — each probe
  reads only the partition's tiny bloom section — then the persistent
  inverted token index for token containment, else full scan. The plan
  carries partitions_total/partitions_read/est rows+bytes, so "how
  selective is this predicate" is answerable before any data IO.
- :func:`planned_scan` — execute the chosen plan through the store's
  existing readers (pruned decode + exact row filter), so the plan's
  claimed pruning is the pruning that actually happens.

Scale notes (per the custom-operator rule): plan_scan is O(partitions)
driver-side metadata work plus, for the bloom path, one sidecar-sized
read per zone-map-admitted partition — at 10^12-sequence scale the
manifest is compacted parquet (rwcf.pipeline.compact_manifest) and this
stays a metadata-sized job; the execute side fans out only admitted
partitions. The reference plans nothing (single file, full decode —
src/lib.rs:25-48); planning belongs to the mandated scale extension,
playing the role of Iceberg's ScanPlanning / DuckDB's zone-map planner.
"""

from __future__ import annotations

import pyarrow as pa

from . import pipeline, rayenv

_OPS = ("eq", "between", "contains_tokens", "isnull")


def partition_stats(out_dir: str, snapshot: str | None = None):
    """Per-partition statistics view as a Ray Dataset (manifest-only)."""
    ds = pipeline.manifest_dataset(
        out_dir, n_blocks=pipeline._default_concurrency(), snapshot=snapshot)

    def part(t: pa.Table) -> pa.Table:
        rows = pipeline.manifest_table_to_rows(t)
        def stat(r, col, end):
            s = (r.get("stats") or {}).get(col)
            return None if s is None else str(s[end])
        return pa.table({
            "pid": pa.array([r["pid"] for r in rows], pa.string()),
            "n_rows": pa.array([r["n_rows"] for r in rows], pa.int64()),
            "n_deletes": pa.array(
                [len(r.get("deleted_rows") or ()) for r in rows],
                pa.int64()),
            "live_rows": pa.array(
                [r["n_rows"] - len(r.get("deleted_rows") or ())
                 for r in rows], pa.int64()),
            "n_tokens": pa.array([r["n_tokens"] for r in rows], pa.int64()),
            "encoded_bytes": pa.array(
                [r["encoded_bytes"] for r in rows], pa.int64()),
            "decoded_bytes": pa.array(
                [r["decoded_bytes"] for r in rows], pa.int64()),
            "codecs": pa.array(
                [",".join(f"{c}={v}" for c, v in
                          sorted((r.get("codec_by_column") or {}).items()))
                 for r in rows], pa.string()),
            "has_bloom": pa.array(
                [bool(r.get("bloom")) for r in rows], pa.bool_()),
            "schema_version": pa.array(
                [int(r.get("schema_version") or 0) for r in rows],
                pa.int64()),
            "doc_id_min": pa.array(
                [stat(r, "doc_id", "min") for r in rows], pa.string()),
            "doc_id_max": pa.array(
                [stat(r, "doc_id", "max") for r in rows], pa.string()),
            "source_min": pa.array(
                [stat(r, "source", "min") for r in rows], pa.string()),
            "source_max": pa.array(
                [stat(r, "source", "max") for r in rows], pa.string()),
            "n_tok_min": pa.array(
                [stat(r, "n_tok", "min") for r in rows], pa.string()),
            "n_tok_max": pa.array(
                [stat(r, "n_tok", "max") for r in rows], pa.string()),
        })

    return ds.map_batches(part, batch_format="pyarrow",
                          **rayenv.remote_args())


def plan_scan(out_dir: str, column: str, op: str, value=None,
              value2=None, snapshot: str | None = None) -> dict:
    """Choose the cheapest access path for one predicate, metadata-only.

    ``op``: "eq" (column == value), "between" (value <= column <= value2,
    inclusive), "isnull" (value True = IS NULL, False = IS NOT NULL),
    "contains_tokens" (value = list of token ids that must appear
    contiguously; column must be "tokens").

    Runs in the driver. Partitions are admitted by the manifest zone
    maps' rule every point plan shares (pipeline._zone_admits: an
    all-NULL partition is admitted only by IS NULL), then for "eq" by
    each partition's Bloom sidecar on the column when it has one
    (pipeline._bloom_admits, one sidecar read per zone-admitted
    partition).
    """
    if op not in _OPS:
        raise ValueError(f"op must be one of {_OPS}, got {op!r}")
    rows = pipeline.load_manifest(out_dir, snapshot=snapshot)
    total = len(rows)
    plan = {"column": column, "op": op, "partitions_total": total}

    if op == "contains_tokens":
        if column != "tokens":
            raise ValueError("contains_tokens plans over the tokens column")
        from . import invindex
        import os
        if os.path.isdir(invindex._index_dir(out_dir)):
            pids = set(invindex.token_partitions(
                out_dir, [int(t) for t in value]))
            strategy = "token_index"
        else:
            pids = {r["pid"] for r in rows}
            strategy = "full"
        admitted = [r for r in rows if r["pid"] in pids]
    else:
        # isnull: the null-count zone map (v2 validity footers); value
        # is the bool (True = IS NULL, False = IS NOT NULL)
        probe = ({"isnull": bool(value)} if op == "isnull" else
                 {"vals": [value]} if op == "eq" else
                 {"lo": value, "hi": value2})
        admitted = [r for r in rows if pipeline._zone_admits(
            (r.get("stats") or {}).get(column), **probe)]
        strategy = ("full" if len(admitted) == total else
                    "nullmap" if op == "isnull" else "zonemap")
        if op == "eq" and any((r.get("bloom") or {}).get(column)
                              for r in admitted):
            admitted = [r for r in admitted
                        if pipeline._bloom_admits(r, column, [value])]
            strategy = ("zonemap+bloom" if strategy == "zonemap"
                        else "bloom")

    plan.update({
        "strategy": strategy,
        "partitions_read": len(admitted),
        "est_live_rows": int(sum(
            r["n_rows"] - len(r.get("deleted_rows") or ())
            for r in admitted)),
        "est_encoded_bytes": int(sum(r["encoded_bytes"]
                                     for r in admitted)),
        "prune_ratio": round(1.0 - (len(admitted) / total), 4)
        if total else 0.0,
        "pids": sorted(r["pid"] for r in admitted),
    })
    return plan


def plan_scan_multi(out_dir: str, preds: list[tuple],
                    snapshot: str | None = None) -> dict:
    """Conjunctive (AND) plan: intersect each predicate's admitted
    partition set — metadata-only, so a scan with two half-selective
    predicates reads only the intersection. ``preds`` is a list of
    ``(column, op, value[, value2])`` tuples (ops as in plan_scan,
    contains_tokens included when the token index exists)."""
    plans = []
    for p in preds:
        col, op, *vals = p
        plans.append(plan_scan(out_dir, col, op, *vals,
                               snapshot=snapshot))
    pids = set(plans[0]["pids"])
    for pl in plans[1:]:
        pids &= set(pl["pids"])
    rows = {r["pid"]: r for r in pipeline.load_manifest(
        out_dir, snapshot=snapshot)}
    admitted = [rows[p] for p in sorted(pids)]
    return {
        "preds": [pl["column"] + ":" + pl["op"] for pl in plans],
        "strategy": "+".join(pl["strategy"] for pl in plans),
        "partitions_total": plans[0]["partitions_total"],
        "partitions_read": len(admitted),
        "est_live_rows": int(sum(
            r["n_rows"] - len(r.get("deleted_rows") or ())
            for r in admitted)),
        "prune_ratio": round(
            1.0 - len(admitted) / plans[0]["partitions_total"], 4)
        if plans[0]["partitions_total"] else 0.0,
        "pids": sorted(pids),
        "per_pred": [{k: pl[k] for k in
                      ("column", "op", "strategy", "partitions_read")}
                     for pl in plans],
    }


def ordered_limit_scan(out_dir: str, column: str, k: int,
                       columns: list[str] | None = None,
                       descending: bool = False,
                       concurrency: int | None = None,
                       snapshot: str | None = None):
    """ORDER BY <column> LIMIT k WITHOUT a global sort shuffle: order
    partitions by their zone-map min (max when descending), take the
    shortest prefix whose live rows cover k, and admit only partitions
    whose range can still beat the prefix's worst admitted value — on a
    clustered store (non-overlapping ranges) that is O(k) partitions
    regardless of corpus size; on an unclustered store it degrades
    gracefully toward a full scan, never returning a wrong answer
    (admission is conservative). Each admitted partition then yields its
    LOCAL top-k vectorized, and one tiny final sort over <= k * admitted
    rows produces the answer — the all-to-all Ray Sort never sees the
    corpus, only k-sized locals.

    NULLs never rank: like Arrow's ``select_k_unstable`` the answer is
    the k smallest (largest) non-NULL values, fewer when the store holds
    fewer. A partition's non-NULL live rows count toward the prefix as
    ``n_rows - len(deleted_rows) - null_count`` (a lower bound: a
    tombstoned row may be NULL), and an all-NULL partition holds no
    candidate, so it is pruned.

    Returns ``(dataset, plan)``; the dataset rows are globally sorted.
    Partitioning assumption (custom-operator rule): k * admitted
    partitions fits one final task — use a pre-filter for huge k."""
    import pyarrow.compute as pc
    rows = pipeline.load_manifest(out_dir, snapshot=snapshot)
    total = len(rows)
    zoned = [(r, (r.get("stats") or {}).get(column)) for r in rows]
    zoned = [z for z in zoned if pipeline._zone_admits(z[1], isnull=False)]
    # stat-less partitions may hold anything: they go FIRST (always in
    # the admitted prefix), count no row toward k and never prune
    srt = [z for z in zoned if z[1] is None] + sorted(
        (z for z in zoned if z[1] is not None),
        key=lambda z: z[1]["max" if descending else "min"],
        reverse=descending)
    cum = 0
    prefix = 0
    for r, st in srt:
        if st is not None:
            cum += (r["n_rows"] - len(r.get("deleted_rows") or ())
                    - st.get("null_count", 0))
        prefix += 1
        if cum >= k:
            break
    # bound: the k-th best value is no worse than the prefix's worst
    # possible value; only partitions whose best can beat it matter
    worst = [st["min" if descending else "max"]
             for _r, st in srt[:prefix] if st is not None]
    bound = (min if descending else max)(worst, default=None)
    admitted = [r for r, st in srt if pipeline._zone_admits(
        st, **{"lo" if descending else "hi": bound})]
    plan = {"column": column, "k": k, "descending": descending,
            "strategy": "ordered-zonemap",
            "partitions_total": total,
            "partitions_read": len(admitted),
            "prune_ratio": round(1.0 - len(admitted) / total, 4)
            if total else 0.0,
            "pids": sorted(r["pid"] for r in admitted)}

    want = set(plan["pids"])
    need = list(dict.fromkeys((columns or ["doc_id", "n_tok"]) + [column]))
    dec = pipeline.decode_job(out_dir, columns=need,
                              concurrency=concurrency,
                              where=lambda r: r["pid"] in want,
                              snapshot=snapshot)

    def local_topk(t: pa.Table) -> pa.Table:
        idx = pc.select_k_unstable(
            t, k=min(k, t.num_rows),
            sort_keys=[(column, "descending" if descending
                        else "ascending")])
        return t.take(idx).select(columns or need)

    ds = dec.map_batches(local_topk, batch_format="pyarrow",
                         **rayenv.remote_args())
    ds = ds.sort(column, descending=descending).limit(k)
    return ds, plan


def planned_scan(out_dir: str, column: str, op: str, value=None,
                 value2=None, columns: list[str] | None = None,
                 concurrency: int | None = None,
                 snapshot: str | None = None):
    """Plan, then execute: decode ONLY the plan's admitted partitions and
    apply the exact row predicate vectorized per batch. Returns
    ``(dataset, plan)``."""
    import pyarrow.compute as pc
    plan = plan_scan(out_dir, column, op, value, value2, snapshot=snapshot)

    if plan["strategy"] == "token_index":
        from . import invindex
        ds = invindex.scan_docs_with_tokens(
            out_dir, [int(t) for t in value], concurrency=concurrency)
        return ds, plan

    want = set(plan["pids"])
    need = list(dict.fromkeys((columns or ["doc_id", "n_tok", "source"])
                              + [column]))
    dec = pipeline.decode_job(out_dir, columns=need,
                              concurrency=concurrency,
                              where=lambda r: r["pid"] in want,
                              snapshot=snapshot)

    if op == "eq":
        def filt(t: pa.Table) -> pa.Table:
            c = t.column(column)
            v = pa.scalar(value, c.type) if not pa.types.is_string(c.type) \
                else pa.scalar(str(value))
            return t.filter(pc.fill_null(pc.equal(c, v), False)) \
                .select(columns or need)
    elif op == "isnull":
        def filt(t: pa.Table) -> pa.Table:
            c = t.column(column)
            m = pc.is_null(c) if value else pc.is_valid(c)
            return t.filter(m).select(columns or need)
    else:
        def filt(t: pa.Table) -> pa.Table:
            c = t.column(column)
            cast = (str if pa.types.is_string(c.type) else
                    (lambda x: pa.scalar(x, c.type)))
            m = pc.and_(pc.greater_equal(c, cast(value)),
                        pc.less_equal(c, cast(value2)))
            return t.filter(pc.fill_null(m, False)).select(columns or need)

    return dec.map_batches(filt, batch_format="pyarrow",
                           **rayenv.remote_args()), plan


# ---------------------------------------------------------------------------
# join planning
# ---------------------------------------------------------------------------

def plan_join(left_dir: str, right_dir: str, on: str = "doc_id",
              how: str = "inner",
              broadcast_row_limit: int = 200_000) -> dict:
    """Cost-based join strategy from manifest METADATA only (zero data
    IO) — the join-side complement of :func:`plan_scan`:

    1. ``spj``: both stores commit identical bucketspecs on ``on`` —
       zero-exchange storage-partitioned join (rwcf.spj).
    2. ``broadcast``: the right side's live rows fit
       ``broadcast_row_limit`` — one ``ray.put`` of the small side,
       left side never moves (rwcf.joins.hash_join(broadcast=True);
       right/outer joins can't broadcast and fall through).
    3. ``hash``: two-sided bucketed exchange (the general case).

    The EXPLAIN record carries per-side live rows / decoded bytes and
    the estimated bytes each strategy would move, so the choice is
    auditable."""
    import json as _json
    import os as _os

    def side(d):
        rows = pipeline.load_manifest(d)
        live = sum(r["n_rows"] - len(r.get("deleted_rows") or ())
                   for r in rows)
        dec = sum(r["decoded_bytes"] for r in rows)
        spec = None
        p = _os.path.join(d, "bucketspec.json")
        if _os.path.exists(p):
            with open(p) as f:
                spec = _json.load(f)
        spans = []
        for r in rows:
            st = (r.get("stats") or {}).get(on)
            if st and st.get("min") is not None:
                spans.append((st["min"], st["max"]))
        return {"rows": live, "decoded_bytes": dec, "bucketspec": spec,
                "partitions": len(rows),
                "spans": spans if len(spans) == len(rows) else None}

    ls, rs = side(left_dir), side(right_dir)

    # metadata fanout of a hypothetical range-merge join: overlapping
    # b-partitions per a-partition (rwcf.spj.range_merge_join cost model)
    merge_fanout = None
    if ls["spans"] and rs["spans"]:
        n_pairs = sum(1 for lo, hi in ls["spans"]
                      for blo, bhi in rs["spans"]
                      if not (bhi < lo or blo > hi))
        merge_fanout = n_pairs / max(len(ls["spans"]), 1)

    est = {
        "spj": 0,
        "merge": 0,
        "broadcast": rs["decoded_bytes"],
        "hash": ls["decoded_bytes"] + rs["decoded_bytes"],
    }
    from . import spj as _spj
    if (ls["bucketspec"] is not None
            and ls["bucketspec"] == rs["bucketspec"]
            and ls["bucketspec"]["key"] == on
            and how in _spj._JOIN_TYPES):
        # co-bucketed AND the operator can execute this join type;
        # e.g. how='right' is not in storage_partitioned_join's set —
        # fall through to broadcast/hash (joins.hash_join supports it)
        strategy = "spj"
    elif (merge_fanout is not None and merge_fanout <= 4.0
          and how in ("inner", "left", "semi", "anti")
          and rs["rows"] > broadcast_row_limit):
        # both sides key-clustered (near-1 fanout): join at read
        # bandwidth without moving either side
        strategy = "merge"
    elif rs["rows"] <= broadcast_row_limit and how not in ("right",
                                                           "outer"):
        strategy = "broadcast"
    else:
        strategy = "hash"
    return {"strategy": strategy, "on": on, "how": how,
            "left": {k: v for k, v in ls.items() if k != "spans"},
            "right": {k: v for k, v in rs.items() if k != "spans"},
            "merge_fanout": merge_fanout,
            "est_bytes_exchanged": est[strategy],
            "est_bytes_by_strategy": est,
            "broadcast_row_limit": broadcast_row_limit}


def planned_join(left_dir: str, right_dir: str, on: str = "doc_id",
                 columns_l: list[str] | None = None,
                 columns_r: list[str] | None = None,
                 how: str = "inner", suffix: str = "_r",
                 broadcast_row_limit: int = 200_000,
                 concurrency: int | None = None,
                 where_l: dict | None = None,
                 where_r: dict | None = None):
    """Plan, then execute the chosen join. Returns ``(dataset, plan)``.

    ``where_l``/``where_r`` (same declarative form as the spj pushdown)
    apply on EVERY strategy: the zero-shuffle paths push them through
    the join (zone-map partition prune + in-task filter); the
    hash/broadcast paths prune partitions at decode via the manifest
    ``where`` hook and filter rows before the exchange — predicates
    always cut bytes moved, never just the final result."""
    from . import joins, spj
    from .spj import _row_filter, _with_pred_col, prune_rows

    plan = plan_join(left_dir, right_dir, on, how, broadcast_row_limit)
    if plan["strategy"] == "spj":
        ds = spj.storage_partitioned_join(
            left_dir, right_dir, columns_a=columns_l, columns_b=columns_r,
            how=how, suffix=suffix, concurrency=concurrency,
            where_a=where_l, where_b=where_r)
        return ds, plan
    if plan["strategy"] == "merge":
        ds = spj.range_merge_join(
            left_dir, right_dir, on=on, columns_a=columns_l,
            columns_b=columns_r, how=how, suffix=suffix,
            concurrency=concurrency, where_a=where_l, where_b=where_r)
        return ds, plan
    if how == "outer" and (where_l or where_r):
        raise ValueError("predicate pushdown cannot preserve outer-join "
                         "semantics (filter after the join instead)")
    if how in ("left", "anti") and where_l:
        raise ValueError(f"where_l would drop preserved-side rows of a "
                         f"{how} join — filter after the join instead")

    def dec(d, columns, where):
        kept = {r["pid"] for r in
                prune_rows(pipeline.load_manifest(d), where)}
        ds = pipeline.decode_job(
            d, columns=_with_pred_col(columns, where),
            concurrency=concurrency,
            where=(lambda r: r["pid"] in kept) if where else None)
        if where:
            def filt(t, _w=where, _c=columns):
                t = _row_filter(t, _w)
                return t.select(_c) if _c is not None else t
            ds = ds.map_batches(filt, batch_format="pyarrow",
                                **rayenv.remote_args())
        return ds

    left = dec(left_dir, columns_l, where_l)
    right = dec(right_dir, columns_r, where_r)
    ds = joins.hash_join(left, right, on=on, how=how, suffix=suffix,
                         broadcast=(plan["strategy"] == "broadcast"))
    return ds, plan
