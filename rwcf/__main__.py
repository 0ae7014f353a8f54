"""rwcf CLI: ``python -m rwcf <encode|decode|verify|stats|resume-status> ...``

The operational entry points a user of the reference format would need to
switch: encode a parquet tokens table into rwcf partitions, decode them back
to parquet, verify bit-exactness against the source, and inspect lineage.
Owns its Ray session (scripts may init; the driver contract never does).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _init_ray(num_cpus: int | None):
    from . import rayenv
    rayenv.export_pythonpath()
    import ray
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    return ray


def _input_files(path: str) -> list[str]:
    if os.path.isdir(path):
        return sorted(os.path.join(path, f) for f in os.listdir(path)
                      if f.endswith(".parquet"))
    return [path]


def cmd_encode(args) -> int:
    from . import pipeline
    ray = _init_ray(args.num_cpus)
    cfg = pipeline.EncodeConfig(
        out_dir=args.out, partition_token_budget=args.token_budget,
        codecs=args.codecs.split(",") if args.codecs else None,
        transport=None if args.no_transport else "zstd")
    man = pipeline.encode_job(_input_files(args.input), cfg,
                              resume=not args.no_resume).to_pandas()
    print(json.dumps({
        "partitions": len(man),
        "rows": int(man["n_rows"].sum()),
        "tokens": int(man["n_tokens"].sum()),
        "encoded_bytes": int(man["encoded_bytes"].sum()),
        "bytes_per_token": round(float(man["encoded_bytes"].sum())
                                 / max(1, int(man["n_tokens"].sum())), 4),
        "out_dir": args.out,
    }))
    ray.shutdown()
    return 0


def cmd_decode(args) -> int:
    from . import pipeline
    ray = _init_ray(args.num_cpus)
    cols = args.columns.split(",") if args.columns else None
    ds = pipeline.decode_job(args.input, columns=cols)
    ds.write_parquet(args.out)
    n_rows = sum(r["n_rows"] for r in pipeline.load_manifest(args.input))
    print(json.dumps({"rows": n_rows, "out_dir": args.out}))
    ray.shutdown()
    return 0


def cmd_verify(args) -> int:
    from . import pipeline
    ray = _init_ray(args.num_cpus)
    ver = pipeline.verify_job(args.input).to_pandas()
    ok = bool(ver["equal"].all())
    print(json.dumps({"partitions": len(ver), "rows": int(ver["n_rows"].sum()),
                      "tokens": int(ver["n_tokens"].sum()),
                      "bit_identical": ok}))
    ray.shutdown()
    return 0 if ok else 1


def cmd_stats(args) -> int:
    from . import pipeline
    rows = pipeline.load_manifest(args.input)
    by_codec: dict[str, int] = {}
    # why each codec was chosen: per column, the choices, the selector's
    # byte estimate against the stored section bytes, and time choosing
    sel: dict[str, dict] = {}
    enc = dec = toks = 0
    for r in rows:
        enc += r["encoded_bytes"]
        dec += r["decoded_bytes"]
        toks += r["n_tokens"]
        for c in r["columns"]:
            key = f"{c['column']}:{c['codec']}"
            by_codec[key] = by_codec.get(key, 0) + c["length"]
            s = sel.setdefault(c["column"], {
                "codecs": {}, "estimate_bytes": 0, "stored_bytes": 0,
                "select_ms": 0.0})
            s["codecs"][c["codec"]] = s["codecs"].get(c["codec"], 0) + 1
            if c.get("estimate", -1) >= 0:  # -1: no finite estimate
                s["estimate_bytes"] += c["estimate"]
                s["stored_bytes"] += c["length"]
            s["select_ms"] += c.get("select_ms", 0.0)
    for s in sel.values():
        s["estimate_error"] = round(
            s["estimate_bytes"] / max(1, s["stored_bytes"]) - 1, 4)
        s["select_ms"] = round(s["select_ms"], 3)
    print(json.dumps({
        "partitions": len(rows), "tokens": toks,
        "encoded_bytes": enc, "decoded_bytes": dec,
        "compression_ratio": round(dec / max(1, enc), 3),
        "bytes_per_token": round(enc / max(1, toks), 4),
        "bytes_by_column_codec": dict(sorted(by_codec.items())),
        "selector": dict(sorted(sel.items())),
    }))
    return 0


def cmd_compact_manifest(args) -> int:
    from . import pipeline
    print(json.dumps(pipeline.compact_manifest(args.input)))
    return 0


def cmd_resume_status(args) -> int:
    from . import pipeline
    frags = pipeline.plan_fragments(_input_files(args.input))
    # a fragment is committed only when its sub-partitions cover every row
    # (a crash mid-fragment leaves a partial pid set — count rows, not pids)
    rows_by_frag: dict[str, int] = {}
    for r in pipeline.load_manifest(args.out):
        fid = r["pid"].rsplit("-p", 1)[0]
        rc = r.get("lineage", {}).get("row_count", r["n_rows"])
        rows_by_frag[fid] = rows_by_frag.get(fid, 0) + rc
    done = [fr["fragment_id"] for fr in frags
            if rows_by_frag.get(fr["fragment_id"], 0) >= fr["num_rows"]]
    pending = [fr["fragment_id"] for fr in frags
               if fr["fragment_id"] not in set(done)]
    print(json.dumps({"fragments": len(frags), "committed": len(done),
                      "pending": pending[:50],
                      "pending_count": len(pending)}))
    return 0


def cmd_fsck(args) -> int:
    from . import pipeline
    ray = _init_ray(args.num_cpus)
    rep = pipeline.fsck_store(args.input, deep=args.deep).to_pandas()
    roll = rep.groupby("check")["ok"].agg(["count", "sum"])
    out = {c: {"checked": int(r["count"]),
               "violations": int(r["count"] - r["sum"])}
           for c, r in roll.iterrows()}
    ok = all(v["violations"] == 0 for v in out.values())
    print(json.dumps({"ok": ok, "checks": out}))
    ray.shutdown()
    return 0 if ok else 1


def cmd_vacuum(args) -> int:
    from . import maintenance
    ray = _init_ray(args.num_cpus)
    if args.plan_only:
        print(json.dumps(maintenance.maintenance_plan(
            args.input, target_tokens=args.target_tokens,
            retention_keep_last=args.keep_last)))
    else:
        print(json.dumps(maintenance.vacuum(
            args.input, target_tokens=args.target_tokens,
            retention_keep_last=args.keep_last)))
    ray.shutdown()
    return 0


def cmd_bucket(args) -> int:
    from . import pipeline, spj
    ray = _init_ray(args.num_cpus)
    cfg = pipeline.EncodeConfig(
        out_dir=args.out, partition_token_budget=args.token_budget,
        columns=args.columns.split(",") if args.columns
        else list(pipeline.TOKEN_COLUMNS))
    man = spj.bucket_store(_input_files(args.input), cfg, key=args.key,
                           n_buckets=args.buckets).to_pandas()
    print(json.dumps({"partitions": len(man),
                      "rows": int(man["n_rows"].sum()),
                      "buckets": args.buckets, "key": args.key,
                      "out_dir": args.out}))
    ray.shutdown()
    return 0


def cmd_join(args) -> int:
    from . import planner
    ray = _init_ray(args.num_cpus)
    ds, plan = planner.planned_join(
        args.left, args.right, on=args.on, how=args.how,
        columns_l=args.columns_l.split(",") if args.columns_l else None,
        columns_r=args.columns_r.split(",") if args.columns_r else None)
    ds.write_parquet(args.out)
    print(json.dumps({"strategy": plan["strategy"],
                      "est_bytes_exchanged": plan["est_bytes_exchanged"],
                      "out_dir": args.out}))
    ray.shutdown()
    return 0


def _argv_coercer(out_dir: str):
    """argv strings against numeric stored columns: Arrow has no
    equal(int64, string) kernel and pa.scalar('7') won't cast to an
    int column.  Resolve each target column's dtype from the manifest
    and cast the argv value accordingly (string columns keep the raw
    string, so '123' stays '123' for a string column)."""
    from . import format as fmt
    from . import pipeline
    dtypes: dict[str, str] = {}
    for row in pipeline.load_manifest(out_dir):
        for cm in row["columns"]:
            dtypes.setdefault(cm["column"], cm["dtype"])

    def coerce(col: str, s: str):
        dt = dtypes.get(col)
        if dt is None or fmt.is_string(dt):
            return s
        np_t = fmt.DTYPES[dt][2]
        try:
            import numpy as _np
            return (float(s) if _np.issubdtype(np_t, _np.floating)
                    else int(s))
        except ValueError:
            return s
    return coerce


def cmd_update(args) -> int:
    from . import update
    ray = _init_ray(args.num_cpus)
    coerce = _argv_coercer(args.input)
    kw = {}
    if args.eq is not None:
        kw["eq"] = coerce(args.pred_col, args.eq)
    if args.between:
        lo, hi = args.between
        kw["between"] = (coerce(args.pred_col, lo),
                         coerce(args.pred_col, hi))
    if args.isnull:
        kw["isnull"] = True
    if args.notnull:
        kw["isnull"] = False
    if args.set_null == (args.value is not None):
        raise SystemExit("exactly one of --value / --set-null required")
    value = None if args.set_null else coerce(args.set_col, args.value)
    res = update.update_where(args.input, args.set_col, value,
                              pred_col=args.pred_col, **kw)
    print(json.dumps(res))
    ray.shutdown()
    return 0


def cmd_cluster(args) -> int:
    from . import pipeline
    ray = _init_ray(args.num_cpus)
    by = args.by.split(",") if "," in args.by else args.by
    if args.incremental:
        if args.order != "linear":
            raise SystemExit("--incremental supports linear order only")
        res = pipeline.cluster_store_incremental(
            args.input, by=by, target_tokens=args.token_budget)
    else:
        res = pipeline.cluster_store(args.input, by=by,
                                     target_tokens=args.token_budget,
                                     order=args.order)
    print(json.dumps(res))
    ray.shutdown()
    return 0


def cmd_ann_build(args) -> int:
    import ray.data as rd

    from . import annstore
    ray = _init_ray(args.num_cpus)
    ds = rd.read_parquet(_input_files(args.input),
                         columns=[args.id_col, args.vec_col])
    if args.append_tag:
        man = annstore.append_ivf_store(
            ds, args.out, run_tag=args.append_tag,
            partition_row_budget=args.row_budget).to_pandas()
    else:
        man = annstore.build_ivf_store(
            ds, args.out, n_clusters=args.clusters,
            id_col=args.id_col, vec_col=args.vec_col,
            partition_row_budget=args.row_budget).to_pandas()
    print(json.dumps({"partitions": len(man),
                      "rows": int(man["n_rows"].sum()),
                      "out_dir": args.out}))
    ray.shutdown()
    return 0


def cmd_ann_query(args) -> int:
    from . import annstore
    ray = _init_ray(args.num_cpus)
    qids = [int(x) for x in args.query_ids.split(",")]
    ids, qm = annstore.query_vectors_from_parquet(
        args.queries, qids, id_col=args.id_col, vec_col=args.vec_col)
    df, stats = annstore.query_ivf_store(args.input, qm, ids, k=args.k,
                                         nprobe=args.nprobe)
    print(json.dumps({"results": df.to_dict(orient="records"),
                      "io": stats}))
    ray.shutdown()
    return 0


def cmd_sketch(args) -> int:
    from . import analytics
    ray = _init_ray(args.num_cpus)
    built = analytics.build_distinct_sketches(args.input, args.column)
    out = dict(built)
    if args.query:
        out.update(analytics.approx_distinct_from_sketches(
            args.input, args.column))
    print(json.dumps(out))
    ray.shutdown()
    return 0


def cmd_rebuild_index(args) -> int:
    from . import documents, state
    ray = _init_ray(args.num_cpus)
    n = state.rebuild_shard(args.input, args.run_id,
                            documents.parquet_files(args.source),
                            text_col=args.text_col)
    print(json.dumps({"run_id": args.run_id, "keys": n,
                      "index_dir": args.input}))
    ray.shutdown()
    return 0


def cmd_view_status(args) -> int:
    from . import spj
    res = spj.view_freshness(args.input)
    print(json.dumps(res))
    return 0 if res["stale"] == 0 else 1


def cmd_view_refresh(args) -> int:
    from . import spj
    ray = _init_ray(args.num_cpus)
    print(json.dumps(spj.refresh_view(args.input)))
    ray.shutdown()
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="rwcf")
    sub = p.add_subparsers(dest="cmd", required=True)

    e = sub.add_parser("encode", help="parquet tokens table -> rwcf partitions")
    e.add_argument("input")
    e.add_argument("--out", required=True)
    e.add_argument("--token-budget", type=int, default=2_000_000)
    e.add_argument("--codecs", default=None,
                   help="comma list restricting codec candidates")
    e.add_argument("--no-transport", action="store_true")
    e.add_argument("--no-resume", action="store_true")
    e.add_argument("--num-cpus", type=int, default=None)
    e.set_defaults(fn=cmd_encode)

    d = sub.add_parser("decode", help="rwcf partitions -> parquet")
    d.add_argument("input")
    d.add_argument("--out", required=True)
    d.add_argument("--columns", default=None)
    d.add_argument("--num-cpus", type=int, default=None)
    d.set_defaults(fn=cmd_decode)

    v = sub.add_parser("verify", help="bit-exact check vs source fragments")
    v.add_argument("input")
    v.add_argument("--num-cpus", type=int, default=None)
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("stats", help="lineage roll-up (no Ray, no decode)")
    s.add_argument("input")
    s.set_defaults(fn=cmd_stats)

    cm = sub.add_parser("compact-manifest",
                        help="merge loose JSON lineage rows into a parquet shard")
    cm.add_argument("input", help="encode out_dir")
    cm.set_defaults(fn=cmd_compact_manifest)

    rs = sub.add_parser("resume-status",
                        help="which input fragments are committed vs pending")
    rs.add_argument("input", help="input parquet file/dir")
    rs.add_argument("--out", required=True, help="encode out_dir")
    rs.set_defaults(fn=cmd_resume_status)

    fk = sub.add_parser("fsck", help="distributed store integrity audit")
    fk.add_argument("input", help="encode out_dir")
    fk.add_argument("--deep", action="store_true",
                    help="also crc-scrub every column section")
    fk.add_argument("--num-cpus", type=int, default=None)
    fk.set_defaults(fn=cmd_fsck)

    vc = sub.add_parser("vacuum", help="retention -> compaction -> gc -> "
                                       "index upkeep autopilot")
    vc.add_argument("input", help="encode out_dir")
    vc.add_argument("--target-tokens", type=int, default=8_000_000)
    vc.add_argument("--keep-last", type=int, default=2)
    vc.add_argument("--plan-only", action="store_true",
                    help="print the manifest-only plan, touch nothing")
    vc.add_argument("--num-cpus", type=int, default=None)
    vc.set_defaults(fn=cmd_vacuum)

    bk = sub.add_parser("bucket", help="encode into a bucket-partitioned "
                                       "store (storage-partitioned joins)")
    bk.add_argument("input")
    bk.add_argument("--out", required=True)
    bk.add_argument("--key", default="doc_id")
    bk.add_argument("--buckets", type=int, default=32)
    bk.add_argument("--columns", default=None)
    bk.add_argument("--token-budget", type=int, default=2_000_000)
    bk.add_argument("--num-cpus", type=int, default=None)
    bk.set_defaults(fn=cmd_bucket)

    jn = sub.add_parser("join", help="cost-planned join of two stores "
                                     "(spj / broadcast / hash) -> parquet")
    jn.add_argument("left")
    jn.add_argument("right")
    jn.add_argument("--out", required=True)
    jn.add_argument("--on", default="doc_id")
    jn.add_argument("--how", default="inner")
    jn.add_argument("--columns-l", default=None)
    jn.add_argument("--columns-r", default=None)
    jn.add_argument("--num-cpus", type=int, default=None)
    jn.set_defaults(fn=cmd_join)

    up = sub.add_parser("update", help="partial-column UPDATE "
                                       "(section-granular rewrite)")
    up.add_argument("input", help="encode out_dir")
    up.add_argument("--set-col", required=True)
    up.add_argument("--value", default=None)
    up.add_argument("--set-null", action="store_true",
                    help="SET col = NULL (v2 validity footer)")
    up.add_argument("--pred-col", required=True)
    up.add_argument("--eq", default=None)
    up.add_argument("--between", nargs=2, default=None,
                    metavar=("LO", "HI"))
    nulls = up.add_mutually_exclusive_group()
    nulls.add_argument("--isnull", action="store_true",
                       help="WHERE pred_col IS NULL")
    nulls.add_argument("--notnull", action="store_true",
                       help="WHERE pred_col IS NOT NULL")
    up.add_argument("--num-cpus", type=int, default=None)
    up.set_defaults(fn=cmd_update)

    vs = sub.add_parser("view-status", help="materialized-view staleness "
                                            "probe (zero IO; exit 1 if stale)")
    vs.add_argument("input", help="view dir")
    vs.set_defaults(fn=cmd_view_status)

    vr = sub.add_parser("view-refresh", help="incremental join-view refresh "
                                             "from the committed viewspec")
    vr.add_argument("input", help="view dir")
    vr.add_argument("--num-cpus", type=int, default=None)
    vr.set_defaults(fn=cmd_view_refresh)

    cl = sub.add_parser("cluster", help="sort-order clustering epoch "
                                        "(full, z-order, or incremental)")
    cl.add_argument("input", help="encode out_dir")
    cl.add_argument("--by", default="source",
                    help="column, or comma list for --order zorder")
    cl.add_argument("--order", default="linear",
                    choices=["linear", "zorder"])
    cl.add_argument("--incremental", action="store_true",
                    help="rewrite only strictly-overlapping partitions")
    cl.add_argument("--token-budget", type=int, default=8_000_000)
    cl.add_argument("--num-cpus", type=int, default=None)
    cl.set_defaults(fn=cmd_cluster)

    ab = sub.add_parser("ann-build", help="build or append the persistent "
                                          "IVF ANN store")
    ab.add_argument("input", help="embeddings parquet file/dir")
    ab.add_argument("--out", required=True)
    ab.add_argument("--clusters", type=int, default=64)
    ab.add_argument("--id-col", default="vec_id")
    ab.add_argument("--vec-col", default="embedding")
    ab.add_argument("--row-budget", type=int, default=65_536)
    ab.add_argument("--append-tag", default=None,
                    help="append this batch against committed centroids")
    ab.add_argument("--num-cpus", type=int, default=None)
    ab.set_defaults(fn=cmd_ann_build)

    aq = sub.add_parser("ann-query", help="top-k cosine over the IVF "
                                          "store (manifest probe prune)")
    aq.add_argument("input", help="ann store dir")
    aq.add_argument("--queries", required=True,
                    help="parquet with query vectors")
    aq.add_argument("--query-ids", required=True, help="comma ids")
    aq.add_argument("--k", type=int, default=10)
    aq.add_argument("--nprobe", type=int, default=4)
    aq.add_argument("--id-col", default="vec_id")
    aq.add_argument("--vec-col", default="embedding")
    aq.add_argument("--num-cpus", type=int, default=None)
    aq.set_defaults(fn=cmd_ann_query)

    sk = sub.add_parser("sketch", help="build per-partition HLL sidecars "
                                       "(+ --query: metadata-only "
                                       "approx COUNT DISTINCT)")
    sk.add_argument("input", help="encode out_dir")
    sk.add_argument("--column", required=True)
    sk.add_argument("--query", action="store_true")
    sk.add_argument("--num-cpus", type=int, default=None)
    sk.set_defaults(fn=cmd_sketch)

    ri = sub.add_parser(
        "rebuild-index",
        help="recompute a dedup-index shard's content keys from its "
             "source rows under the current hash bases (migrates "
             "pre-2026-08-18 even-base shards); atomic replace")
    ri.add_argument("input", help="index dir")
    ri.add_argument("--run-id", required=True)
    ri.add_argument("--source", required=True,
                    help="parquet file/dir of the run's source rows")
    ri.add_argument("--text-col", default="text")
    ri.add_argument("--num-cpus", type=int, default=None)
    ri.set_defaults(fn=cmd_rebuild_index)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
