"""Resumable tabular output: deterministic partitioned-parquet sink.

The encode pipeline's output discipline (deterministic partition ids,
atomic tmp+rename commits, resume = skip existing) generalized to ANY
curated Dataset — e.g. writing a prep_corpus result where a failed run
must skip finished partitions on retry (the brief's "resumable output"
requirement for non-encode pipelines).

Scale shape: rows route to ``buckets`` partitions by a deterministic id
hash (the shared routing hash, joins.hash_bucket, so resumed runs
rebuild identical partitions), ONE bucketed shuffle co-locates each
partition, and the in-bucket writer sorts by id before writing so a
re-written partition is byte-stable run-over-run. Each partition commits
atomically (tmp + rename); a crash mid-job leaves only whole partitions,
and the rerun writes exactly the missing ones.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .joins import exchange

__all__ = ["write_partitioned"]

def write_partitioned(ds, out_dir: str, id_col: str, buckets: int = 32,
                      resume: bool = True):
    """Write ``ds`` as ``out_dir/part-{bucket:05d}.parquet`` (one file per
    id-hash bucket). Returns a Dataset of per-partition commit rows
    ``(bucket, rows, skipped, path)`` — consume it to drive the job.

    Determinism contract: the same input rows produce the same partition
    assignment AND the same in-file row order (sorted by ``id_col``) on
    every run and cluster size, which is what makes ``resume=True`` safe:
    an existing partition file IS the completed work. Partition count
    bounds write parallelism; per-bucket rows must fit one worker (the
    standard bucketed-shuffle bound)."""
    os.makedirs(out_dir, exist_ok=True)

    def write_bucket(g: pa.Table) -> pa.Table:
        b = int(g.column("_b")[0].as_py())
        path = os.path.join(out_dir, f"part-{b:05d}.parquet")
        out_row = {"bucket": pa.array([b], pa.int32()),
                   "rows": pa.array([g.num_rows], pa.int64()),
                   "path": pa.array([path], pa.string())}
        if resume and os.path.exists(path):
            return pa.table({**out_row,
                             "skipped": pa.array([True], pa.bool_())})
        t = g.drop_columns(["_b"])
        order = pa.compute.sort_indices(t, sort_keys=[(id_col, "ascending")])
        t = t.take(order)
        tmp = path + f".tmp{os.getpid()}"
        pq.write_table(t, tmp)
        os.replace(tmp, path)  # atomic commit: whole partitions only
        return pa.table({**out_row, "skipped": pa.array([False], pa.bool_())})

    return exchange(ds, write_bucket, buckets=buckets, keys=[id_col],
                    schema=pa.schema([("bucket", pa.int32()),
                                      ("rows", pa.int64()),
                                      ("path", pa.string()),
                                      ("skipped", pa.bool_())]))
