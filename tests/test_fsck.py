"""Distributed store fsck: metadata/structure invariants validated in
O(partitions) small IOs — the continuous-audit complement of the full
decode-verify. Each corruption probe must flag exactly its invariant.
"""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rwcf import fixtures, pipeline


@pytest.fixture()
def store(tmp_path, ray_session):
    path = fixtures.tokens_parquet(200, seed=71,
                                   cache_dir=str(tmp_path / "tok"),
                                   row_group_size=50)
    out = str(tmp_path / "out")
    cfg = pipeline.EncodeConfig(out_dir=out,
                                partition_token_budget=20_000,
                                bloom_bits_per_key=10)
    pipeline.encode_job(path, cfg, concurrency=2).materialize()
    ids = pq.read_table(path).column("doc_id").to_pylist()
    pipeline.delete_docs(out, ids[:2], concurrency=2)  # real tombstones
    return out


def _report(out, deep=False):
    df = pipeline.fsck_store(out, deep=deep, concurrency=2).to_pandas()
    bad = df[~df["ok"]]
    return df, {(r.pid, r.check) for r in bad.itertuples()}


def test_fsck_clean_store_all_green(store):
    df, bad = _report(store, deep=True)
    assert not bad, bad
    # one row per partition per per-partition check + 2 graph rows
    n_parts = len(pipeline.load_manifest(store))
    assert len(df) == n_parts * 7 + 2
    assert set(df["check"]) == set(pipeline.FSCK_CHECKS)


def test_fsck_flags_deep_corruption(store):
    row = pipeline.load_manifest(store)[0]
    cm = row["columns"][0]
    with open(row["file"], "r+b") as f:  # payload byte, not the trailer
        f.seek(cm["offset"] + 7)
        b = f.read(1)
        f.seek(cm["offset"] + 7)
        f.write(bytes([b[0] ^ 0xFF]))
    _, bad = _report(store, deep=True)
    assert (row["pid"], "section_crc") in bad
    # shallow fsck does NOT read payloads -> stays green on this store
    _, shallow_bad = _report(store, deep=False)
    assert (row["pid"], "section_crc") not in shallow_bad


def test_fsck_flags_truncation_and_missing(store):
    rows = pipeline.load_manifest(store)
    with open(rows[0]["file"], "r+b") as f:
        f.truncate(max(c["offset"] for c in rows[0]["columns"]))
    os.remove(rows[1]["file"])
    _, bad = _report(store)
    assert (rows[0]["pid"], "file_truncated") in bad
    assert (rows[1]["pid"], "file_missing") in bad
    assert (rows[0]["pid"], "file_missing") not in bad


def test_fsck_flags_bad_tombstone_and_dangling_snapshot(store):
    row = pipeline.load_manifest(store)[0]
    tomb = {"pid": row["pid"], "deleted_rows": [0, int(row["n_rows"]) + 5],
            "n": 2}
    with open(os.path.join(store, "manifest",
                           f"{row['pid']}.del.json"), "w") as f:
        json.dump(tomb, f)
    sdir = os.path.join(store, "snapshots")
    os.makedirs(sdir, exist_ok=True)
    pq.write_table(pa.table({
        "pid": pa.array(["no-such-pid"], pa.string()),
        "deleted_rows": pa.array([[]], pa.list_(pa.int64())),
        "n_rows": pa.array([1], pa.int64()),
    }), os.path.join(sdir, "snap-bogus.parquet"))
    _, bad = _report(store)
    assert (row["pid"], "tombstone_range") in bad
    assert ("<manifest>", "snapshot_dangling") in bad
    assert ("<manifest>", "replaces_dangling") not in bad


def test_fsck_flags_rows_pointing_outside_the_store(store, tmp_path):
    # a row written before files were store-relative, naming another
    # store's file by absolute path
    import shutil
    copy = str(tmp_path / "copy")
    shutil.copytree(store, copy)
    row = pipeline.load_manifest(copy)[0]
    mpath = os.path.join(copy, "manifest", f"{row['pid']}.json")
    with open(mpath) as f:
        raw = json.load(f)
    assert raw["file"] == os.path.join("parts", f"{row['pid']}.rwcf")
    raw["file"] = os.path.join(store, raw["file"])
    with open(mpath, "w") as f:
        json.dump(raw, f)
    _, bad = _report(copy)
    assert bad == {(row["pid"], "file_in_store")}
