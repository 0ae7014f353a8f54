"""Persistent IVF-partitioned ANN store — manifest-level IO pruning for
vector search.

``rwcf.similarity.cosine_topk_ivf`` prunes COMPUTE (each batch skips
vectors outside a query's probed lists) but still STREAMS the whole
corpus per query batch — at 100 TB every query pays a full scan. This
module materializes the inverted file: vectors route through ONE
``groupby(list).map_groups`` exchange into per-centroid-list encoded
partitions (same manifest/lineage/checksum machinery as every rwcf
store), the coarse quantizer commits to ``ivf.json``, and a query
decodes ONLY the partitions of its probed lists — the prune happens in
the MANIFEST, before any partition file is opened. ``io_stats`` (bytes
admitted vs total) makes the saving assertable
(tests/test_annstore.py).

Embeddings are ``list<float32>``; the column format has integer/string
codecs only (rwcf.format.DTYPES), so vectors persist as their raw
float32 BITS viewed as int32 (lossless, byte-exact) in the store's
list-column machinery ('tokens' carries the bit stream, 'n_tok' the
dimension) — a full-probe query is therefore EXACTLY the brute-force
baseline (pinned in pytest and by the ann_ivf_store_full SQL oracle).

The reference has no index structures (its decode is a sequential scan,
src/decode.rs:36-68); this belongs to the mandated scale extension.
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa

from . import format as fmt
from . import pipeline, rayenv
from .similarity import _normalize, _rank_topk, kmeans_lite


def _ivf_path(out_dir: str) -> str:
    return os.path.join(out_dir, "ivf.json")


def read_ivf_spec(out_dir: str) -> dict:
    with open(_ivf_path(out_dir)) as f:
        spec = json.load(f)
    spec["centroids"] = np.asarray(spec["centroids"], dtype=np.float64)
    return spec


def _commit_ivf_spec(out_dir: str, spec: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    path = _ivf_path(out_dir)
    tmp = path + f".tmp{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(spec, f)
    os.replace(tmp, path)


def _bits_table(t: pa.Table, id_col: str, vec_col: str) -> pa.Table:
    """(id, list<float32>) -> tokens-schema rows carrying the float32
    BITS as int32 (lossless; int codecs apply). float64 input is
    REJECTED, not silently narrowed — the store's bit-exactness claim
    (full probe == brute force) rides on the cast being identity."""
    la = t.column(vec_col).combine_chunks()
    elem = la.type.value_type
    if elem not in (pa.float32(),):
        raise ValueError(
            f"{vec_col!r} must be list<float32> (got list<{elem}>): "
            "float64 would narrow lossily — cast upstream explicitly "
            "if half-precision storage is acceptable")
    if la.null_count or la.flatten().null_count:
        raise ValueError(f"{vec_col!r} contains null rows or elements — "
                         "the flattened bit stream is position-aligned")
    lens = pa.compute.list_value_length(la).to_numpy(
        zero_copy_only=False).astype(np.int32)
    flat = la.flatten().to_numpy(zero_copy_only=False) \
        .astype(np.float32).view(np.int32)
    offsets = np.concatenate(([0], np.cumsum(lens, dtype=np.int64)))
    bits = pa.LargeListArray.from_arrays(
        offsets, pa.array(flat, pa.int32())).cast(pa.list_(pa.int32()))
    return pa.table({
        "vec_id": t.column(id_col).combine_chunks().cast(pa.int64()),
        "tokens": bits,
        "n_tok": pa.array(lens, pa.int32()),
    })


def _vectors_from(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`_bits_table` on a decoded partition."""
    ids = t.column("vec_id").combine_chunks().to_numpy(
        zero_copy_only=False)
    la = t.column("tokens").combine_chunks()
    if len(la) == 0:
        return ids, np.empty((0, 1), dtype=np.float64)
    mat = la.flatten().to_numpy(zero_copy_only=False) \
        .astype(np.int32).view(np.float32).reshape(len(la), -1)
    return ids, mat.astype(np.float64)


def build_ivf_store(ds, out_dir: str, n_clusters: int = 16,
                    seed: int = 42, train_rows: int = 4096,
                    id_col: str = "vec_id", vec_col: str = "embedding",
                    partition_row_budget: int = 65_536,
                    run_tag: str = "base", resume: bool = True):
    """Materialize the inverted file: train the coarse quantizer on a
    seeded RANDOM sample (head-sample degeneracy pinned in
    tests/test_similarity.py), assign each vector to its nearest
    centroid in a vectorized ``map_batches`` stage, and route rows via
    one ``groupby.map_groups`` exchange into per-list encoded
    partitions. Lineage rows carry ``{"ivf_list": c}`` — the
    manifest-level prune key. Hot lists sub-split by
    ``partition_row_budget`` (write-time skew bound, same device as
    spj.bucket_store). Returns the manifest Dataset."""
    import ray
    import ray.data as rd

    n_total = ds.count()
    if n_total > train_rows:
        frac = min(1.0, 1.25 * train_rows / n_total)
        sample = ds.random_sample(frac, seed=seed).limit(train_rows) \
            .to_pandas()
    else:
        sample = ds.to_pandas()
    smat = _normalize(np.stack(sample[vec_col].to_numpy())
                      .astype(np.float64))
    k = min(n_clusters, smat.shape[0])
    centroids = kmeans_lite(smat, k, seed=seed)
    dim = int(smat.shape[1])
    _commit_ivf_spec(out_dir, {
        "n_clusters": int(centroids.shape[0]), "dim": dim,
        "seed": int(seed), "id_col": id_col, "vec_col": vec_col,
        "centroids": centroids.tolist()})
    return append_ivf_store(ds, out_dir, run_tag,
                            partition_row_budget=partition_row_budget,
                            resume=resume)


def append_ivf_store(ds, out_dir: str, run_tag: str,
                     partition_row_budget: int = 65_536,
                     resume: bool = True):
    """Incremental ingest into an EXISTING inverted file: new vectors
    assign against the COMMITTED centroids (ivf.json is read, never
    retrained — retraining would silently re-key every probe) and land
    as fresh per-list partitions tagged by ``run_tag`` alongside the
    base batch's. Queries transparently read every batch's partitions
    for a probed list; a repeated append of the same (input, run_tag)
    resumes from the manifest like every rwcf encode. Returns the new
    partitions' manifest Dataset."""
    import ray

    spec = read_ivf_spec(out_dir)
    cents = spec["centroids"]
    id_col, vec_col = spec["id_col"], spec["vec_col"]
    dim = int(spec["dim"])
    cref = ray.put(cents)

    def assign(t: pa.Table) -> pa.Table:
        c = ray.get(cref)
        la = t.column(vec_col).combine_chunks()
        bm = _normalize(la.flatten().to_numpy(zero_copy_only=False)
                        .reshape(len(la), -1).astype(np.float64))
        lists = (bm @ c.T).argmax(axis=1).astype(np.int32)
        return _bits_table(t, id_col, vec_col) \
            .append_column("_list", pa.array(lists, pa.int32()))

    cfg = pipeline.EncodeConfig(
        out_dir=out_dir, columns=["vec_id", "tokens", "n_tok"],
        partition_token_budget=partition_row_budget * dim,
        bloom_bits_per_key=10, bloom_columns=("vec_id",))
    tag = f"{zlib.crc32(str(run_tag).encode()) & 0xFFFFFFFF:08x}"

    def encode_list(g: pa.Table) -> pa.Table:
        c = g.column("_list")[0].as_py()
        body = g.drop_columns(["_list"])
        body = body.take(pa.compute.sort_indices(body.column("vec_id")))
        w = np.asarray(body.column("n_tok").combine_chunks(),
                       dtype=np.int64)
        spans = pipeline.split_by_token_budget(w,
                                               cfg.partition_token_budget)
        rows = []
        for j, (s, e) in enumerate(spans):
            pid = f"ivf{c:05d}-{tag}-p{j:03d}"
            mpath = os.path.join(cfg.manifest_dir, f"{pid}.json")
            if resume and os.path.exists(mpath):
                rows.append(pipeline.read_manifest_row(mpath))
                continue
            rows.append(pipeline.encode_partition(
                body.slice(s, e - s), pid, cfg,
                lineage={"ivf_list": int(c), "dim": dim, "sub": j,
                         "batch": str(run_tag)}))
        return pipeline.manifest_rows_to_table(rows)

    return ds.map_batches(assign, batch_format="pyarrow",
                          **rayenv.remote_args()) \
        .groupby("_list").map_groups(encode_list, batch_format="pyarrow",
                                     **rayenv.remote_args())


def ivf_store_io_stats(out_dir: str, probe_lists) -> dict:
    """Manifest-only accounting of a probe's IO prune: bytes/partitions
    admitted vs total. Zero file IO — this is the number the prune
    saves, assertable before any decode."""
    rows = pipeline.load_manifest(out_dir)
    want = set(int(c) for c in probe_lists)
    admitted = [r for r in rows if r["lineage"].get("ivf_list") in want]
    return {
        "partitions_total": len(rows),
        "partitions_admitted": len(admitted),
        "bytes_total": int(sum(r["encoded_bytes"] for r in rows)),
        "bytes_admitted": int(sum(r["encoded_bytes"] for r in admitted)),
    }


def query_ivf_store(out_dir: str, queries: np.ndarray,
                    qids: np.ndarray | list, k: int = 10,
                    nprobe: int = 4,
                    id_filter=None,
                    concurrency: int | None = None):
    """Top-k by cosine for each query vector, reading ONLY the probed
    lists' partitions: the manifest prune admits a partition iff its
    ``ivf_list`` lineage is among some query's ``nprobe`` nearest
    centroids; everything else is never opened. Returns
    ``(DataFrame(qid, vec_id, rank), io_stats)``.

    Full probe (``nprobe >= n_clusters``) reads everything and is
    EXACTLY the brute-force baseline (float32 bits round-trip
    losslessly) — the correctness anchor for the approximate path.

    ``id_filter`` (filtered vector search): a vectorized predicate
    ``fn(ids: np.ndarray) -> bool mask`` applied to each admitted
    partition's candidates BEFORE any normalization or matmul — the
    metadata filter composes with the probe prune (restrict candidates,
    not queries; same prune-early contract as
    similarity.cosine_topk's filtered variant)."""
    import ray

    spec = read_ivf_spec(out_dir)
    cents = spec["centroids"]
    qm = _normalize(np.asarray(queries, dtype=np.float64))
    qids = np.asarray(qids)
    nprobe = min(nprobe, cents.shape[0])
    probes = np.argsort(-(qm @ cents.T), axis=1)[:, :nprobe]  # (Q, nprobe)
    need = sorted({int(c) for c in probes.ravel()})
    stats = ivf_store_io_stats(out_dir, need)

    rows = [r for r in pipeline.load_manifest(out_dir)
            if r["lineage"].get("ivf_list") in set(need)]
    qref = ray.put((qids, qm, probes))

    def local_topk(batch: pa.Table) -> pa.Table:
        qi, qmat, pr = ray.get(qref)
        out_q, out_v, out_s = [], [], []
        for row in pipeline.manifest_table_to_rows(batch):
            c = row["lineage"]["ivf_list"]
            hit = np.nonzero((pr == c).any(axis=1))[0]
            if hit.size == 0:
                continue
            t = pipeline.decode_partition(row)
            ids, mat = _vectors_from(t)
            if id_filter is not None:
                keep = np.asarray(id_filter(ids), dtype=bool)
                ids, mat = ids[keep], mat[keep]  # prune BEFORE matmul
                if ids.size == 0:
                    continue
            bm = _normalize(mat)
            # quantized + id-tie-broken BEFORE the local cut (same
            # device as similarity.cosine_topk.local_topk)
            sims_all = np.round(bm @ qmat[hit].T, 6)  # (n, |hit|)
            for j, r in enumerate(hit):
                sims = sims_all[:, j]
                kk = min(k, ids.size)
                order = np.lexsort((ids, -sims))[:kk]
                out_q.extend([qi[r]] * kk)
                out_v.extend(ids[order])
                out_s.extend(sims[order])
        return pa.table({
            "qid": pa.array(np.asarray(out_q, dtype=qids.dtype)),
            "vec_id": pa.array(np.asarray(out_v, dtype=np.int64)),
            "sim": pa.array(np.asarray(out_s, dtype=np.float64))})

    n = concurrency or pipeline._default_concurrency()
    ds = pipeline._sliced_blocks(pipeline.manifest_rows_to_table(rows),
                                 min(max(len(rows), 1), n * 2))
    cand = ds.map_batches(local_topk, batch_size=1,
                          batch_format="pyarrow", num_cpus=1,
                          **rayenv.remote_args()).to_pandas()
    return _rank_topk(cand, k), stats


def fetch_vectors(out_dir: str, ids: list[int],
                  concurrency: int | None = None):
    """Reconstruct stored vectors BY ID — the ANN store's point-lookup
    complement to the probe-pruned similarity query. Index-grade IO:
    manifest vec_id zone maps prune first, then each surviving
    partition's int-key Bloom sidecar (one ~n*10/8-byte read) rejects
    unless some probe MAY be present — both in the driver, by the rules
    every manifest-planned read shares (pipeline._zone_admits,
    pipeline._bloom_admits); only admitted partitions decode.
    Returns ``(DataFrame(vec_id, embedding float32 list), io_stats)``
    with partition-level admit accounting."""
    import ray

    want = sorted(int(i) for i in ids)
    rows = pipeline.load_manifest(out_dir)
    admitted = [r for r in rows
                if pipeline._zone_admits(
                    (r.get("stats") or {}).get("vec_id"), want)
                and pipeline._bloom_admits(r, "vec_id", want)]
    stats = {"partitions_total": len(rows),
             "partitions_admitted": len(admitted),
             "bytes_total": int(sum(r["encoded_bytes"] for r in rows)),
             "bytes_admitted": int(sum(r["encoded_bytes"]
                                       for r in admitted))}
    if not admitted:
        return pd.DataFrame({"vec_id": pd.Series(dtype="int64"),
                             "embedding": pd.Series(dtype=object)}), stats
    wref = ray.put(np.asarray(want, dtype=np.int64))

    def gather(batch: pa.Table) -> pa.Table:
        w = ray.get(wref)
        out_ids, out_vecs = [], []
        for row in pipeline.manifest_table_to_rows(batch):
            t = pipeline.decode_partition(row)
            vids, mat = _vectors_from(t)
            pos = np.searchsorted(w, vids)
            hit = (pos < w.size) & (w[np.minimum(pos, w.size - 1)]
                                    == vids)
            if hit.any():
                out_ids.append(vids[hit])
                out_vecs.append(mat[hit].astype(np.float32))
        if not out_ids:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "embedding": pa.array(
                                 [], pa.list_(pa.float32()))})
        vids = np.concatenate(out_ids)
        mat = np.concatenate(out_vecs)
        offsets = np.arange(0, (vids.size + 1) * mat.shape[1],
                            mat.shape[1], dtype=np.int64)
        emb = pa.LargeListArray.from_arrays(
            offsets, pa.array(mat.ravel(), pa.float32())) \
            .cast(pa.list_(pa.float32()))
        return pa.table({"vec_id": pa.array(vids, pa.int64()),
                         "embedding": emb})

    n = concurrency or pipeline._default_concurrency()
    ds = pipeline._sliced_blocks(pipeline.manifest_rows_to_table(admitted),
                                 min(len(admitted), n * 2))
    df = ds.map_batches(gather, batch_size=1, batch_format="pyarrow",
                        num_cpus=1, **rayenv.remote_args()).to_pandas()
    return df.sort_values("vec_id").reset_index(drop=True), stats


def query_vectors_from_parquet(path: str, query_ids: list[int],
                               id_col: str = "vec_id",
                               vec_col: str = "embedding"):
    """Fetch query vectors by id from the source parquet (queries are a
    handful of rows — a pruned read, not a corpus operation)."""
    import ray.data as rd

    df = rd.read_parquet(path, columns=[id_col, vec_col]) \
        .map_batches(
            lambda t: t.filter(pa.compute.is_in(
                t[id_col], value_set=pa.array(query_ids))),
            batch_format="pyarrow", **rayenv.remote_args()) \
        .to_pandas().sort_values(id_col)
    qm = np.stack(df[vec_col].to_numpy()).astype(np.float64)
    return df[id_col].to_numpy(), qm
