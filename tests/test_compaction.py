"""Partition compaction: plan, end-to-end merge, crash windows, GC,
resume, and encode_job resume over tombstoned pids.

The reference has no multi-file store (one Write sink, src/lib.rs:29);
compaction belongs to the mandated scale extension — the maintenance
pass that keeps a long-running 10^12-sequence ingest from accumulating
tiny partitions that tax every later scan.
"""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rwcf import fixtures, pipeline


def _roundtrip_equal(out_dir, src_path):
    dec = pipeline.decode_job(out_dir, concurrency=2).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    src = pq.read_table(src_path).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert dec["doc_id"].tolist() == src["doc_id"].tolist()
    assert dec["source"].tolist() == src["source"].tolist()
    assert all(np.array_equal(a, b) for a, b in
               zip(dec["tokens"], src["tokens"]))


def test_plan_compaction_deterministic():
    rows = [{"pid": f"f-p{i:04d}", "n_tokens": 100} for i in range(10)]
    g1 = pipeline.plan_compaction(rows, 350)
    g2 = pipeline.plan_compaction(list(reversed(rows)), 350)
    assert g1 == g2  # pid-order canonicalization
    assert all(len(g) >= 2 for g in g1)
    assert all(sum(r["n_tokens"] for r in g) <= 350 for g in g1)
    # singleton-sized rows are left alone
    big = [{"pid": "f-p0000", "n_tokens": 900},
           {"pid": "f-p0001", "n_tokens": 900}]
    assert pipeline.plan_compaction(big, 500) == []
    assert pipeline.compaction_pid(g1[0]) == pipeline.compaction_pid(g2[0])


@pytest.fixture(scope="module")
def tok_parquet(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("ctok"))
    return fixtures.tokens_parquet(600, seed=21, cache_dir=d,
                                   row_group_size=150)


def test_compact_end_to_end(tok_parquet, tmp_path, ray_session):
    out = str(tmp_path / "store")
    cfg = pipeline.EncodeConfig(out_dir=out, partition_token_budget=40_000)
    pipeline.encode_job(tok_parquet, cfg, concurrency=2).materialize()
    before = pipeline.load_manifest(out)
    assert len(before) > 6

    res = pipeline.compact_partitions(out, target_tokens=400_000,
                                      concurrency=2)
    assert res["groups"] >= 1
    assert res["parts_after"] < res["parts_before"] == len(before)
    after = pipeline.load_manifest(out)
    assert len(after) == res["parts_after"]
    assert sum(r["n_rows"] for r in after) == sum(r["n_rows"] for r in before)
    assert sum(r["n_tokens"] for r in after) == \
        sum(r["n_tokens"] for r in before)
    # decoded output is bit-identical to the source after the merge
    _roundtrip_equal(out, tok_parquet)
    # GC reclaimed the shadowed members
    assert res["gc"]["files"] >= 2
    live = {os.path.basename(r["file"]) for r in after}
    on_disk = set(os.listdir(os.path.join(out, "parts")))
    assert on_disk == live
    # verify_job self-verifies compacted partitions (no source fragment)
    ver = pipeline.verify_job(out, concurrency=2).to_pandas()
    assert ver["equal"].all()
    assert (ver["mode"] == "self").any()

    # idempotent: a second pass finds nothing mergeable at this target
    res2 = pipeline.compact_partitions(out, target_tokens=400_000,
                                       concurrency=2)
    assert res2["parts_after"] == res["parts_after"]
    _roundtrip_equal(out, tok_parquet)


def test_compaction_crash_windows(tok_parquet, tmp_path, ray_session):
    out = str(tmp_path / "store")
    cfg = pipeline.EncodeConfig(out_dir=out, partition_token_budget=40_000)
    pipeline.encode_job(tok_parquet, cfg, concurrency=2).materialize()
    rows = pipeline.load_manifest(out)
    groups = pipeline.plan_compaction(rows, 400_000)
    assert groups
    g = groups[0]
    gpid = pipeline.compaction_pid(g)

    # simulate a crash AFTER the merged row's atomic commit but BEFORE gc:
    # both member files and the merged row exist; readers must see the
    # merged row only (tombstone shadowing), never duplicates
    tbl = pa.concat_tables([pipeline.decode_partition(m) for m in g])
    pipeline.encode_partition(tbl.combine_chunks(), gpid, cfg,
                              {"compaction_of": [m["pid"] for m in g]},
                              extra={"replaces": [m["pid"] for m in g]})
    vis = pipeline.load_manifest(out)
    vis_pids = {r["pid"] for r in vis}
    assert gpid in vis_pids
    assert not vis_pids & {m["pid"] for m in g}
    assert sum(r["n_rows"] for r in vis) == sum(r["n_rows"] for r in rows)
    _roundtrip_equal(out, tok_parquet)

    # encode_job resume over the tombstoned store: replaced pids must NOT
    # be re-encoded (that would duplicate their rows)
    pipeline.encode_job(tok_parquet, cfg, concurrency=2).materialize()
    again = pipeline.load_manifest(out)
    assert {r["pid"] for r in again} == vis_pids
    _roundtrip_equal(out, tok_parquet)

    # crash mid-GC: removing one member file by hand, then full gc_store —
    # idempotent, store stays readable throughout
    os.remove(g[0]["file"])
    removed = pipeline.gc_store(out)
    assert removed["files"] == len(g) - 1
    _roundtrip_equal(out, tok_parquet)
    assert pipeline.gc_store(out) == {"files": 0, "manifests": 0}


def test_compaction_preserves_bloom(tmp_path, ray_session):
    d = str(tmp_path / "btok")
    path = fixtures.tokens_parquet(300, seed=23, cache_dir=d,
                                   row_group_size=100)
    out = str(tmp_path / "store")
    cfg = pipeline.EncodeConfig(out_dir=out, partition_token_budget=30_000,
                                bloom_bits_per_key=10)
    pipeline.encode_job(path, cfg, concurrency=2).materialize()
    res = pipeline.compact_partitions(out, target_tokens=300_000,
                                      concurrency=2)
    assert res["groups"] >= 1
    merged = [r for r in pipeline.load_manifest(out)
              if r["pid"].startswith("cmp-")]
    assert merged and all(r.get("bloom") for r in merged)
    # bloom-backed lookup still finds keys that moved into merged parts
    keys = [f"doc-{i:012d}" for i in (5, 250)]
    found = pipeline.lookup_docs(out, keys, concurrency=2).to_pandas()
    assert set(found["doc_id"]) == set(keys)


def test_compacting_a_copied_store_keeps_the_original(tok_parquet, tmp_path,
                                                     ray_session):
    # manifest rows name their files relative to the store root, so a
    # copy compacts and collects its own files, not the original's
    import shutil
    a = str(tmp_path / "a")
    cfg = pipeline.EncodeConfig(out_dir=a, partition_token_budget=15_000)
    pipeline.encode_job(tok_parquet, cfg, concurrency=2).materialize()
    assert len(pipeline.load_manifest(a)) >= 10
    b = str(tmp_path / "b")
    shutil.copytree(a, b)
    res = pipeline.compact_partitions(b, target_tokens=400_000,
                                      concurrency=2)
    assert res["parts_after"] < res["parts_before"] and res["gc"]["files"]
    assert all(r["file"].startswith(b) for r in pipeline.load_manifest(b))
    _roundtrip_equal(a, tok_parquet)
    _roundtrip_equal(b, tok_parquet)
