"""Storage-partitioned join: pay the shuffle once at WRITE time, then join
with ZERO exchanges forever after (the Spark storage-partitioned-join /
Iceberg bucket-transform role, re-expressed over the rwcf encoded store).

``bucket_store`` encodes an input into a store whose partitions each hold
exactly one bucket of ``hash(key) % n_buckets`` — the one all-to-all this
layout ever pays.  The routing hash is :func:`rwcf.joins.hash_bucket` (the
single shared bucketing hash of the whole engine, stable across processes),
the bucket id is committed in every partition's lineage row, and the store
root carries an atomic ``bucketspec.json`` so readers can VALIDATE
compatibility instead of trusting the caller.

``storage_partitioned_join`` joins two stores with identical bucket specs:
the Ray Data plan is manifest-metadata fan-out -> per-bucket map task
(decode both sides' partitions for that bucket locally, Arrow/Acero hash
join in-task) — no AllToAllOperator anywhere.  At 100 TB the cost model is
the whole point: ``rwcf.joins.hash_join`` moves BOTH payload sides through
one bucketed exchange per join, while co-bucketed stores join at disk read
bandwidth every time; skew is bounded at write time by the in-bucket
token-budget sub-split, and a missing bucket on either side is resolved
from manifest metadata alone (schema reconstructed from lineage dtypes —
no IO).

The reference has no joins; this extends its single-column paged format
(src/lib.rs:25-48) the same way the store's other relational entry points
do, with the partitioning assumption stated explicitly: both inputs
bucketed by the SAME key with the SAME n_buckets and the SAME hash.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import pipeline, rayenv
from .joins import hash_bucket
from .pipeline import EncodeConfig, decoded_schema, manifest_rows_to_table

BUCKETSPEC = "bucketspec.json"

#: pa.Table.join join_type per public ``how`` (left-relative, as usual)
_JOIN_TYPES = {
    "inner": "inner",
    "left": "left outer",
    "outer": "full outer",
    "semi": "left semi",
    "anti": "left anti",
}


def write_bucketspec(out_dir: str, key: str, n_buckets: int) -> dict:
    """Commit the store's bucket layout contract (atomic rename, idempotent
    re-commit of an identical spec; a DIFFERENT spec for an existing store
    raises — rebucketing must go through a fresh out_dir)."""
    os.makedirs(out_dir, exist_ok=True)
    spec = {"key": key, "n_buckets": int(n_buckets), "hash": "rwcf-fnv1a"}
    path = os.path.join(out_dir, BUCKETSPEC)
    prev = read_bucketspec(out_dir)
    if prev is not None:
        if prev != spec:
            raise ValueError(f"store {out_dir} already bucketed {prev}, "
                             f"refusing to overwrite with {spec}")
        return spec
    tmp = path + f".tmp-{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(spec, f)
    os.replace(tmp, path)
    return spec


def read_bucketspec(out_dir: str) -> dict | None:
    path = os.path.join(out_dir, BUCKETSPEC)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def _add_bucket(t: pa.Table, key: str, n_buckets: int) -> pa.Table:
    vals = np.asarray(t.column(key).combine_chunks())
    b = hash_bucket(vals, buckets=n_buckets)
    return t.append_column("_bucket", pa.array(b, type=pa.int32()))


def bucket_store(input_paths, cfg: EncodeConfig, key: str = "doc_id",
                 n_buckets: int = 32, resume: bool = True,
                 run_tag: str | None = None):
    """Encode ``input_paths`` (parquet) into a bucket-partitioned store.

    One ``groupby(_bucket).map_groups`` exchange routes rows; each bucket
    encodes independently (rows sorted by ``key`` for deterministic
    checksums, then sub-split by ``cfg.partition_token_budget`` so a hot
    bucket still yields worker-sized partitions — the write-time skew
    bound).  Returns the manifest Dataset; lineage rows carry
    ``{bucket_key, bucket, n_buckets}`` and the store root gets a
    committed ``bucketspec.json``.

    Partition ids embed a tag of the INPUT file list, so re-running the
    same input resumes (manifest rows resolve from disk, no re-encode)
    while a NEW batch of files appends fresh per-bucket partitions into
    the same buckets — incremental bucketed ingest; joins read every
    batch's partitions for a bucket.

    ``input_paths`` may also be a ray.data.Dataset (bucket the output of
    an upstream transform without staging parquet); a Dataset has no
    stable identity, so pass ``run_tag`` to name the batch — required
    for resume/append correctness across runs."""
    import ray.data as rd
    import zlib

    write_bucketspec(cfg.out_dir, key, n_buckets)
    if isinstance(input_paths, rd.Dataset):
        if run_tag is None:
            raise ValueError("bucket_store(Dataset) needs run_tag= (a "
                             "Dataset has no stable identity for "
                             "resume/append pids)")
        tag = f"{zlib.crc32(str(run_tag).encode()) & 0xFFFFFFFF:08x}"
        src = input_paths.select_columns(list(cfg.columns)) \
            if cfg.columns else input_paths
    else:
        if isinstance(input_paths, str):
            input_paths = [input_paths]
        tag = run_tag or "|".join(os.path.abspath(p)
                                  for p in sorted(input_paths))
        tag = f"{zlib.crc32(str(tag).encode()) & 0xFFFFFFFF:08x}"
        src = rd.read_parquet(input_paths, columns=cfg.columns)
    ds = src.map_batches(lambda t: _add_bucket(t, key, n_buckets),
                         batch_format="pyarrow", **rayenv.remote_args())

    budget = cfg.partition_token_budget

    def encode_bucket(g: pa.Table) -> pa.Table:
        b = g.column("_bucket")[0].as_py()
        body = g.drop_columns(["_bucket"])
        body = body.take(pc.sort_indices(body.column(key)))
        if "n_tok" in body.column_names:
            w = np.asarray(body.column("n_tok").combine_chunks(),
                           dtype=np.int64)
        else:  # no token weights: bound partitions by row count instead
            w = np.ones(body.num_rows, dtype=np.int64)
        spans = pipeline.split_by_token_budget(w, budget)
        rows = []
        for j, (s, e) in enumerate(spans):
            pid = f"bkt{b:05d}-{tag}-p{j:03d}"
            mpath = os.path.join(cfg.manifest_dir, f"{pid}.json")
            if resume and os.path.exists(mpath):
                rows.append(pipeline.read_manifest_row(mpath))
                continue
            rows.append(pipeline.encode_partition(
                body.slice(s, e - s), pid, cfg,
                lineage={"bucket_key": key, "bucket": int(b),
                         "n_buckets": int(n_buckets), "sub": j}))
        return manifest_rows_to_table(rows)

    return ds.groupby("_bucket").map_groups(
        encode_bucket, batch_format="pyarrow", **rayenv.remote_args())


def _decode_bucket(rows: list[dict], columns: list[str] | None) -> pa.Table:
    parts = [pipeline.decode_partition(r, columns=columns) for r in rows]
    return pa.concat_tables(parts, promote_options="default")


_LIDX, _RIDX = "__spj_lidx", "__spj_ridx"


def _local_join(ta: pa.Table, tb: pa.Table, key: str, jt: str,
                suffix: str) -> pa.Table:
    """Bucket-local Arrow join. Acero rejects nested (list/struct) payload
    columns ("not supported in join non-key field"), so nested columns are
    stripped to SLIM sides carrying a row index and gathered back by that
    index after the join — pc.take maps a null index (unmatched outer row)
    to a null value, matching join null-fill semantics (same device as
    rwcf.joins.hash_join's merge)."""
    ta, tb = ta.combine_chunks(), tb.combine_chunks()
    nest_a = [n for n in ta.column_names
              if n != key and pa.types.is_nested(ta.schema.field(n).type)]
    nest_b = [n for n in tb.column_names
              if n != key and pa.types.is_nested(tb.schema.field(n).type)]
    if not nest_a and not nest_b:
        return ta.join(tb, keys=key, join_type=jt, right_suffix=suffix,
                       coalesce_keys=True)
    if jt in ("left semi", "left anti"):
        # key-only membership: nested payloads never enter the kernel.
        # drop_null on the set + fill_null(False) on the probe pin SQL
        # null-key semantics (null never matches; see joins.hash_join)
        import pyarrow.compute as _pc
        memb = _pc.fill_null(
            _pc.is_in(ta.column(key),
                      value_set=tb.column(key).unique().drop_null()),
            False)
        return ta.filter(memb if jt == "left semi" else _pc.invert(memb))
    sa = ta.drop_columns(nest_a).append_column(
        _LIDX, pa.array(np.arange(ta.num_rows, dtype=np.int64)))
    sb = tb.drop_columns(nest_b).append_column(
        _RIDX, pa.array(np.arange(tb.num_rows, dtype=np.int64)))
    # Acero-parity naming: a nested left column stripped from sa cannot
    # trigger Acero's right-side collision suffix inside the slim join,
    # so pre-suffix right-side scalars that collide with it — otherwise
    # re-appending the nested left column would duplicate the name.
    clash = [n for n in sb.column_names if n != key and n in nest_a]
    if clash:
        sb = sb.rename_columns(
            [n + suffix if n in clash else n for n in sb.column_names])
    m = sa.join(sb, keys=key, join_type=jt, right_suffix=suffix,
                coalesce_keys=True)
    taken = set(m.column_names)
    for n in nest_a:
        m = m.append_column(n, pc.take(ta.column(n), m.column(_LIDX)))
    for n in nest_b:
        out = n if n not in taken and n not in nest_a else n + suffix
        m = m.append_column(out, pc.take(tb.column(n), m.column(_RIDX)))
    return m.drop_columns([_LIDX, _RIDX])


def storage_partitioned_join(dir_a: str, dir_b: str,
                             columns_a: list[str] | None = None,
                             columns_b: list[str] | None = None,
                             how: str = "inner", suffix: str = "_r",
                             concurrency: int | None = None,
                             task_cpus: int = 1,
                             snapshot_a: str | None = None,
                             snapshot_b: str | None = None,
                             where_a: dict | None = None,
                             where_b: dict | None = None):
    """Join two bucket-encoded stores on their shared bucket key with NO
    shuffle: one map task per bucket decodes both sides' partitions and
    joins them with the Arrow hash-join kernel.  Raises unless both
    stores commit the SAME (key, n_buckets, hash) bucketspec — the
    partitioning assumption this operator's correctness rides on.

    ``how``: inner | left | outer | semi | anti (left-relative).
    ``snapshot_a``/``snapshot_b`` join either side AS OF a committed
    snapshot / tag / branch (manifest-level time travel — partition
    immutability makes old bucket layouts readable for free).

    ``where_a``/``where_b`` push a declarative predicate
    ``{"col": name, "eq"|"between"|"isin": ...}`` THROUGH the join:
    zone maps prune whole partitions before any decode, the exact row
    filter applies in-task right after decode (before the join kernel).
    Pruning the preserved side of left/anti (where_a) or either side of
    outer is rejected — dropped partitions would drop result rows that
    the predicate alone cannot justify (their rows appear null-padded,
    not filtered)."""
    import ray
    import ray.data as rd

    if how not in _JOIN_TYPES:
        raise ValueError(f"how={how!r} not in {sorted(_JOIN_TYPES)}")
    spec_a, spec_b = read_bucketspec(dir_a), read_bucketspec(dir_b)
    if spec_a is None or spec_b is None:
        raise ValueError("both inputs must be bucket_store outputs "
                         f"(bucketspec missing: a={spec_a} b={spec_b})")
    if spec_a != spec_b:
        raise ValueError(f"incompatible bucket specs: {spec_a} vs {spec_b}")
    key = spec_a["key"]

    if how == "outer" and (where_a or where_b):
        raise ValueError("predicate pushdown cannot preserve outer-join "
                         "semantics (filter after the join instead)")
    if how in ("left", "anti") and where_a:
        raise ValueError(f"where_a would drop preserved-side rows of a "
                         f"{how} join — filter after the join instead")

    def by_bucket(out_dir: str, snapshot: str | None,
                  where: dict | None) -> dict[int, list[dict]]:
        m: dict[int, list[dict]] = {}
        for r in prune_rows(pipeline.load_manifest(out_dir,
                                                   snapshot=snapshot),
                            where):
            lin = r.get("lineage") or {}
            if "bucket" not in lin:
                raise ValueError(f"partition {r['pid']} in {out_dir} has no "
                                 "bucket lineage (store not bucket-encoded?)")
            m.setdefault(int(lin["bucket"]), []).append(r)
        return m

    by_a = by_bucket(dir_a, snapshot_a, where_a)
    by_b = by_bucket(dir_b, snapshot_b, where_b)
    if how == "inner":
        buckets = sorted(set(by_a) & set(by_b))
    elif how == "outer":
        buckets = sorted(set(by_a) | set(by_b))
    elif how == "semi":  # a-rows with a match: b-missing buckets emit nothing
        buckets = sorted(set(by_a) & set(by_b))
    else:  # left / anti keep every a bucket
        buckets = sorted(by_a)
    # empty-side schemas come from any manifest row's column metadata
    schema_a = decoded_schema(next(iter(by_a.values()))[0], columns_a) \
        if by_a else None
    schema_b = decoded_schema(next(iter(by_b.values()))[0], columns_b) \
        if by_b else None
    if schema_a is None or (schema_b is None and how in ("left", "outer")):
        raise ValueError("cannot join: a side has no partitions" if
                         schema_a is None else
                         "left/outer join needs at least one b partition "
                         "to establish the right-side schema")

    # broadcast the (tiny) manifest maps once; payloads never leave workers
    ref = ray.put((by_a, by_b))
    jt = _JOIN_TYPES[how]

    def join_bucket(t: pa.Table) -> pa.Table:
        a_map, b_map = ray.get(ref)
        outs = []
        need_a = _with_pred_col(columns_a, where_a)
        need_b = _with_pred_col(columns_b, where_b)
        for b in t.column("bucket").to_pylist():
            ra, rb = a_map.get(b, []), b_map.get(b, [])
            ta = _row_filter(_decode_bucket(ra, need_a), where_a) \
                if ra else schema_a.empty_table()
            if ra and need_a != columns_a and columns_a is not None:
                ta = ta.select(columns_a)
            tb = (_row_filter(_decode_bucket(rb, need_b), where_b)
                  if rb else (schema_b.empty_table()
                              if schema_b is not None else None))
            if rb and need_b != columns_b and columns_b is not None:
                tb = tb.select(columns_b)
            if not rb and how == "anti":
                outs.append(ta)  # no right side: every a row survives
                continue
            if not rb and how in ("inner", "semi"):
                continue
            # an absent side joins as its (metadata-derived) empty table —
            # full outer then yields null-padded rows from the present side
            outs.append(_local_join(ta, tb, key, jt, suffix))
        if not outs:
            return _empty_join_schema(schema_a, schema_b, key, jt, suffix)
        return pa.concat_tables(outs, promote_options="default")

    items = pa.table({"bucket": pa.array(buckets, pa.int32())})
    n = concurrency or pipeline._default_concurrency()
    ds = pipeline._sliced_blocks(items, min(len(buckets) or 1, n * 2))
    cap = pipeline._stage_cap(concurrency, task_cpus)
    return ds.map_batches(join_bucket, batch_size=1, batch_format="pyarrow",
                          num_cpus=task_cpus, concurrency=cap,
                          **rayenv.remote_args())


def storage_partitioned_join_multi(dirs: list[str],
                                   columns: list[list[str] | None]
                                   | None = None,
                                   suffix: str = "_r",
                                   concurrency: int | None = None,
                                   task_cpus: int = 1):
    """N-way INNER join of co-bucketed stores in ONE per-bucket task —
    the star-schema case (fact + several dimensions sharing the bucket
    key) pays zero exchanges and decodes each bucket's partitions exactly
    once, folding local Arrow joins left-to-right.  All stores must
    commit the identical bucketspec (validated)."""
    import ray
    import ray.data as rd

    if len(dirs) < 2:
        raise ValueError("need at least two stores")
    cols = columns or [None] * len(dirs)
    if len(cols) != len(dirs):
        raise ValueError("columns list must match dirs")
    specs = [read_bucketspec(d) for d in dirs]
    if any(s is None for s in specs):
        raise ValueError(f"bucketspec missing: {dirs}")
    if any(s != specs[0] for s in specs):
        raise ValueError(f"incompatible bucket specs: {specs}")
    key = specs[0]["key"]

    maps = []
    for d in dirs:
        m: dict[int, list[dict]] = {}
        for r in pipeline.load_manifest(d):
            lin = r.get("lineage") or {}
            if "bucket" not in lin:
                raise ValueError(f"partition {r['pid']} in {d} has no "
                                 "bucket lineage")
            m.setdefault(int(lin["bucket"]), []).append(r)
        maps.append(m)
    buckets = sorted(set.intersection(*(set(m) for m in maps)))
    schemas = [decoded_schema(next(iter(m.values()))[0], c) if m else None
               for m, c in zip(maps, cols)]
    if any(s is None for s in schemas):
        return rd.from_arrow(_fold_empty(schemas, key, suffix))
    ref = ray.put(maps)

    def join_bucket(t: pa.Table) -> pa.Table:
        ms = ray.get(ref)
        outs = []
        for b in t.column("bucket").to_pylist():
            acc = _decode_bucket(ms[0][b], cols[0])
            for i in range(1, len(ms)):
                ti = _decode_bucket(ms[i][b], cols[i])
                acc = _local_join(acc, ti, key, "inner",
                                  f"{suffix}{i}" if i > 1 else suffix)
                if acc.num_rows == 0:
                    break
            outs.append(acc)
        if not outs:
            return _fold_empty(schemas, key, suffix)
        return pa.concat_tables(outs, promote_options="default")

    items = pa.table({"bucket": pa.array(buckets, pa.int32())})
    n = concurrency or pipeline._default_concurrency()
    ds = pipeline._sliced_blocks(items, min(len(buckets) or 1, n * 2))
    cap = pipeline._stage_cap(concurrency, task_cpus)
    return ds.map_batches(join_bucket, batch_size=1, batch_format="pyarrow",
                          num_cpus=task_cpus, concurrency=cap,
                          **rayenv.remote_args())


def _fold_empty(schemas: list[pa.Schema | None], key: str,
                suffix: str) -> pa.Table:
    acc = (schemas[0] or pa.schema([pa.field(key, pa.string())])) \
        .empty_table()
    for i, s in enumerate(schemas[1:], start=1):
        if s is None:
            continue
        acc = _local_join(acc, s.empty_table(), key, "inner",
                          f"{suffix}{i}" if i > 1 else suffix)
    return acc


def _empty_join_schema(schema_a: pa.Schema, schema_b: pa.Schema | None,
                       key: str, jt: str, suffix: str) -> pa.Table:
    """Zero-row table with the join's output schema (a batch whose buckets
    all skipped must still return a schema-stable block)."""
    a = schema_a.empty_table()
    if jt in ("left semi", "left anti") or schema_b is None:
        return a
    return _local_join(a, schema_b.empty_table(), key, jt, suffix)


# ---------------------------------------------------------------------------
# materialized join views (incremental, bucket-granular maintenance)
# ---------------------------------------------------------------------------

def _bucket_fingerprint(rows_a: list[dict], rows_b: list[dict]) -> str:
    """Deterministic content tag of one bucket's INPUT state: the pid set
    plus each partition's tombstone positions — exactly the inputs the
    bucket's join output depends on. Any append / compaction / update /
    delete on either side changes it."""
    import zlib as _zlib
    key = json.dumps([
        sorted((r["pid"], tuple(r.get("deleted_rows") or ()))
               for r in rows_a),
        sorted((r["pid"], tuple(r.get("deleted_rows") or ()))
               for r in rows_b),
    ], default=list)
    return f"{_zlib.crc32(key.encode()) & 0xFFFFFFFF:08x}"


def materialize_join_view(view_dir: str, dir_a: str, dir_b: str,
                          columns_a: list[str] | None = None,
                          columns_b: list[str] | None = None,
                          how: str = "inner", suffix: str = "_r",
                          cfg: EncodeConfig | None = None,
                          concurrency: int | None = None) -> dict:
    """Create OR incrementally refresh a materialized JOIN VIEW store.

    The view is itself a bucket-encoded store (same bucketspec as its
    inputs, so it chains into further storage-partitioned joins).  Each
    view partition's lineage records the fingerprint of the input
    partitions it was built from; a refresh re-joins ONLY buckets whose
    fingerprint changed — an append/update/delete touching one bucket
    re-materializes one bucket, O(delta), while compaction that rewrites
    bytes without changing content still refreshes just its buckets.
    Commit is the store's standard atomic manifest flip with
    ``replaces`` naming the bucket's previous view partitions, so a
    crashed refresh leaves the old view fully readable and a re-run
    converges (fingerprint pids are deterministic).

    The aggregate analogue is pipeline.incremental_source_stats (CDC
    delta applied to a rollup); this is the JOIN-shaped sibling, the
    missing piece for star-schema views at 10^12-row scale.

    ``columns_a/b`` must name every column the view carries (include
    ``n_tok`` when carrying ``tokens``)."""
    spec_a, spec_b = read_bucketspec(dir_a), read_bucketspec(dir_b)
    if spec_a is None or spec_b is None or spec_a != spec_b:
        raise ValueError(f"inputs must share a bucketspec: {spec_a} vs "
                         f"{spec_b}")
    if how not in _JOIN_TYPES:
        raise ValueError(f"how={how!r} not in {sorted(_JOIN_TYPES)}")
    key = spec_a["key"]
    if cfg is None:
        cfg = EncodeConfig(out_dir=view_dir)
    elif cfg.out_dir != view_dir:
        raise ValueError("cfg.out_dir must equal view_dir")
    write_bucketspec(view_dir, key, spec_a["n_buckets"])
    _write_viewspec(view_dir, {"dir_a": os.path.abspath(dir_a),
                               "dir_b": os.path.abspath(dir_b),
                               "columns_a": columns_a,
                               "columns_b": columns_b,
                               "how": how, "suffix": suffix})

    def by_bucket(d):
        m: dict[int, list[dict]] = {}
        for r in pipeline.load_manifest(d):
            m.setdefault(int((r.get("lineage") or {})["bucket"]),
                         []).append(r)
        return m

    by_a, by_b = by_bucket(dir_a), by_bucket(dir_b)
    buckets = sorted(set(by_a) | set(by_b)) if how == "outer" else (
        sorted(by_a) if how in ("left", "anti") else
        sorted(set(by_a) & set(by_b)))
    view_rows = by_bucket(view_dir) if os.path.isdir(
        os.path.join(view_dir, "manifest")) else {}
    schema_a = decoded_schema(next(iter(by_a.values()))[0], columns_a) \
        if by_a else None
    schema_b = decoded_schema(next(iter(by_b.values()))[0], columns_b) \
        if by_b else None

    work = []
    fresh = 0
    for b in buckets:
        tag = _bucket_fingerprint(by_a.get(b, []), by_b.get(b, []))
        pid = f"bkt{b:05d}-v{tag}"
        have = [r for r in view_rows.get(b, [])]
        if any(r["pid"] == pid for r in have):
            fresh += 1
            continue
        work.append({"bucket": b, "pid": pid,
                     "stale": [r["pid"] for r in have]})
    if work:
        import ray
        import ray.data as rd
        ref = ray.put((by_a, by_b))
        jt = _JOIN_TYPES[how]

        def build(batch: pa.Table) -> pa.Table:
            a_map, b_map = ray.get(ref)
            out = []
            for d in batch.to_pylist():
                b = int(d["bucket"])
                mpath = os.path.join(cfg.manifest_dir,
                                     f"{d['pid']}.json")
                if os.path.exists(mpath):  # resume
                    out.append(pipeline.read_manifest_row(mpath))
                    continue
                stale = json.loads(d["stale"])
                ra, rb = a_map.get(b, []), b_map.get(b, [])
                ta = _decode_bucket(ra, columns_a) if ra \
                    else schema_a.empty_table()
                if not rb and how == "anti":
                    j = ta
                elif not rb and how in ("inner", "semi"):
                    j = _empty_join_schema(schema_a, schema_b, key, jt,
                                           suffix)
                else:
                    tb = _decode_bucket(rb, columns_b) if rb \
                        else schema_b.empty_table()
                    j = _local_join(ta, tb, key, jt, suffix)
                j = j.take(pc.sort_indices(j.column(key)))
                out.append(pipeline.encode_partition(
                    j, d["pid"], cfg,
                    lineage={"bucket_key": key, "bucket": b,
                             "n_buckets": spec_a["n_buckets"],
                             "view_of": [dir_a, dir_b], "how": how},
                    extra={"replaces": stale} if stale else None))
            return manifest_rows_to_table(out)

        items = pa.table({
            "bucket": pa.array([w["bucket"] for w in work], pa.int32()),
            "pid": pa.array([w["pid"] for w in work], pa.string()),
            "stale": pa.array([json.dumps(w["stale"]) for w in work],
                              pa.string())})
        n = concurrency or pipeline._default_concurrency()
        ds = pipeline._sliced_blocks(items, min(len(work), n * 2))
        cap = pipeline._stage_cap(concurrency, 1)
        ds.map_batches(build, batch_size=1, batch_format="pyarrow",
                       num_cpus=1, concurrency=min(cap, len(work)),
                       **rayenv.remote_args()).materialize()
    return {"buckets": len(buckets), "refreshed": len(work),
            "fresh": fresh}


# ---------------------------------------------------------------------------
# range-merge join over key-clustered stores
# ---------------------------------------------------------------------------

def range_merge_join(dir_a: str, dir_b: str, on: str = "doc_id",
                     columns_a: list[str] | None = None,
                     columns_b: list[str] | None = None,
                     how: str = "inner", suffix: str = "_r",
                     max_avg_fanout: float = 4.0,
                     concurrency: int | None = None,
                     task_cpus: int = 1,
                     where_a: dict | None = None,
                     where_b: dict | None = None):
    """Zero-shuffle join for RANGE-partitioned layouts — the sorted
    sibling of :func:`storage_partitioned_join` for stores maintained by
    ``pipeline.cluster_store(by=key)`` (Iceberg range distribution /
    sort-merge-join role).

    Pairing is pure metadata: each a-partition joins the b-partitions
    whose ``stats[on]`` [min,max] interval OVERLAPS its own — correct
    regardless of overlap degree (every b row lives in exactly one
    partition, so a matching row is found exactly once), but only
    EFFICIENT when both sides are clustered, which keeps the average
    fanout near 1. If the metadata shows average fanout above
    ``max_avg_fanout`` (an unclustered side degenerates toward
    all-pairs), this raises and the caller should hash-join or cluster
    first — stated cost model, not silent quadratic work.

    ``how``: inner | left | semi | anti (left-relative; full outer would
    need cross-task dedup of unmatched b rows — use hash_join).

    ``where_a``/``where_b`` push predicates through the join exactly as
    in :func:`storage_partitioned_join` (zone-map partition prune, then
    the exact in-task row filter); pruning the preserved side of
    left/anti is refused."""
    import ray
    import ray.data as rd

    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(f"how={how!r} not supported by range_merge_join")
    if how in ("left", "anti") and where_a:
        raise ValueError(f"where_a would drop preserved-side rows of a "
                         f"{how} join — filter after the join instead")

    def side(d, where):
        rows = prune_rows(pipeline.load_manifest(d), where)
        spans = []
        for r in rows:
            st = (r.get("stats") or {}).get(on)
            if not st or st.get("min") is None:
                raise ValueError(f"partition {r['pid']} in {d} has no "
                                 f"zone stats for {on!r}")
            spans.append((st["min"], st["max"], r))
        return rows, spans

    rows_a, spans_a = side(dir_a, where_a)
    rows_b, spans_b = side(dir_b, where_b)
    spans_b.sort(key=lambda s: (s[0], s[1]))
    pairs = []
    n_pairs = 0
    for lo, hi, ra in spans_a:
        bs = [rb for blo, bhi, rb in spans_b
              if not (bhi < lo or blo > hi)]
        pairs.append((ra, bs))
        n_pairs += len(bs)
    if pairs and n_pairs / max(len(pairs), 1) > max_avg_fanout:
        raise ValueError(
            f"avg partition fanout {n_pairs / len(pairs):.1f} exceeds "
            f"{max_avg_fanout} — inputs not clustered on {on!r}; run "
            "pipeline.cluster_store first or use joins.hash_join")

    schema_b = decoded_schema(rows_b[0], columns_b) if rows_b else None
    if schema_b is None and how == "left":
        raise ValueError("left join needs at least one b partition")
    jt = _JOIN_TYPES[how]
    amap = {r["pid"]: r for r in rows_a}
    bmap = {r["pid"]: r for r in rows_b}
    ref = ray.put((amap, bmap))

    def join_span(batch: pa.Table) -> pa.Table:
        a_by, b_by = ray.get(ref)
        outs = []
        need_a = _with_pred_col(columns_a, where_a)
        need_b = _with_pred_col(columns_b, where_b)
        for d in batch.to_pylist():
            ra = a_by[d["a_pid"]]
            rbs = [b_by[p] for p in json.loads(d["b_pids"])]
            ta = _row_filter(_decode_bucket([ra], need_a), where_a)
            if need_a != columns_a and columns_a is not None:
                ta = ta.select(columns_a)
            if not rbs:
                if how == "anti":
                    outs.append(ta)
                elif how == "left":
                    outs.append(_local_join(
                        ta, schema_b.empty_table(), on, jt, suffix))
                continue
            # no range-restriction needed for correctness: a (a-row,
            # b-row) match materializes only in the one task holding the
            # a-row's partition, so no pair can appear twice
            tb = _row_filter(_decode_bucket(rbs, need_b), where_b)
            if need_b != columns_b and columns_b is not None:
                tb = tb.select(columns_b)
            outs.append(_local_join(ta, tb, on, jt, suffix))
        if not outs:
            return _empty_join_schema(
                decoded_schema(rows_a[0], columns_a), schema_b, on, jt,
                suffix)
        return pa.concat_tables(outs, promote_options="default")

    items = pa.table({
        "a_pid": pa.array([ra["pid"] for ra, _ in pairs], pa.string()),
        "b_pids": pa.array([json.dumps([r["pid"] for r in bs])
                            for _, bs in pairs], pa.string())})
    n = concurrency or pipeline._default_concurrency()
    ds = pipeline._sliced_blocks(items, min(len(pairs) or 1, n * 2))
    cap = pipeline._stage_cap(concurrency, task_cpus)
    return ds.map_batches(join_span, batch_size=1, batch_format="pyarrow",
                          num_cpus=task_cpus, concurrency=cap,
                          **rayenv.remote_args())


# ---------------------------------------------------------------------------
# predicate pushdown through the join
# ---------------------------------------------------------------------------

def prune_rows(rows: list[dict], where: dict | None) -> list[dict]:
    """Zone-map partition prune for a declarative predicate
    ``{"col": name, "eq": v, "between": (lo,hi), "isin": [...],
    "isnull": bool}``, run in the driver by the rule every manifest-
    planned read shares (pipeline._zone_admits) — conservative (keeps
    any partition whose stats admit a match; ``isnull`` prunes on the
    manifest null_count from the v2 validity footers, and an all-NULL
    partition is kept only by IS NULL), exactness restored by the
    in-task row filter. No Bloom sidecar is probed here."""
    if not where:
        return rows
    from .update import _zone_probe
    probe = _zone_probe(where.get("eq"), where.get("between"),
                        where.get("isin"), where.get("isnull"))
    return [r for r in rows if pipeline._zone_admits(
        (r.get("stats") or {}).get(where["col"]), **probe)]


def _row_filter(t: pa.Table, where: dict | None) -> pa.Table:
    if not where:
        return t
    if where["col"] not in t.column_names:
        raise ValueError(f"pushdown column {where['col']!r} not decoded "
                         f"(have {t.column_names})")
    from .update import _pred_mask
    m = _pred_mask(t.column(where["col"]).combine_chunks(),
                   where.get("eq"), where.get("between"),
                   where.get("isin"), where.get("isnull"))
    return t.filter(pc.fill_null(m, False))


def _with_pred_col(columns: list[str] | None,
                   where: dict | None) -> list[str] | None:
    """Decode set = requested columns + the pushdown predicate column
    (dropped again after filtering when not requested)."""
    if columns is None or not where or where["col"] in columns:
        return columns
    return list(columns) + [where["col"]]


def _write_viewspec(view_dir: str, spec: dict) -> None:
    """Commit the view's definition (atomic; identical re-commit is a
    no-op, a DIFFERENT definition for an existing view raises — a view
    dir holds exactly one query)."""
    path = os.path.join(view_dir, "viewspec.json")
    if os.path.exists(path):
        with open(path) as f:
            prev = json.load(f)
        if prev != spec:
            raise ValueError(f"view {view_dir} already defined as {prev}, "
                             f"refusing {spec}")
        return
    tmp = path + f".tmp-{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(spec, f)
    os.replace(tmp, path)


def read_viewspec(view_dir: str) -> dict | None:
    path = os.path.join(view_dir, "viewspec.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def refresh_view(view_dir: str, concurrency: int | None = None) -> dict:
    """One-call incremental refresh from the view's committed definition
    (the autopilot entry point: cron/vacuum can walk view dirs and call
    this; fingerprint-fresh buckets cost zero IO)."""
    spec = read_viewspec(view_dir)
    if spec is None:
        raise ValueError(f"{view_dir} has no viewspec.json "
                         "(not a materialized join view)")
    return materialize_join_view(
        view_dir, spec["dir_a"], spec["dir_b"],
        columns_a=spec["columns_a"], columns_b=spec["columns_b"],
        how=spec["how"], suffix=spec["suffix"], concurrency=concurrency)


def view_freshness(view_dir: str) -> dict:
    """Dry-run staleness probe (pure metadata, zero data IO, nothing
    written): which buckets' input fingerprints have drifted since the
    view last materialized — the monitoring half of refresh_view."""
    spec = read_viewspec(view_dir)
    if spec is None:
        raise ValueError(f"{view_dir} has no viewspec.json")

    def by_bucket(d):
        m: dict[int, list[dict]] = {}
        for r in pipeline.load_manifest(d):
            m.setdefault(int((r.get("lineage") or {})["bucket"]),
                         []).append(r)
        return m

    by_a = by_bucket(spec["dir_a"])
    by_b = by_bucket(spec["dir_b"])
    how = spec["how"]
    buckets = sorted(set(by_a) | set(by_b)) if how == "outer" else (
        sorted(by_a) if how in ("left", "anti") else
        sorted(set(by_a) & set(by_b)))
    view_rows = by_bucket(view_dir)
    stale = []
    for b in buckets:
        tag = _bucket_fingerprint(by_a.get(b, []), by_b.get(b, []))
        pid = f"bkt{b:05d}-v{tag}"
        if not any(r["pid"] == pid for r in view_rows.get(b, [])):
            stale.append(b)
    return {"buckets": len(buckets), "stale": len(stale),
            "stale_buckets": stale, "fresh": len(buckets) - len(stale)}
