"""Bloom sidecar: kernel properties, encode/lookup integration, corruption.

The reference has no index structures (decode is a sequential scan,
src/decode.rs:36-68); the Bloom sidecar belongs to the mandated scale
extension — the standard point-lookup answer for hash-like keys that
zone maps cannot prune (same role as Parquet's split-block blooms).
"""

import os
import zlib

import numpy as np
import pyarrow as pa
import pytest

from rwcf import bloom, fixtures, pipeline


def test_kernel_no_false_negatives_and_fpr():
    keys = [f"k{i*7}" for i in range(4000)]
    bf = bloom.build(keys, bits_per_key=10)
    assert bf["n_keys"] == 4000
    assert bf["m_bits"] % 8 == 0 and bf["m_bits"] >= 4000 * 10
    # no false negatives, ever
    assert bloom.might_contain(bf["m_bits"], bf["k"], bf["data"], keys).all()
    # false-positive rate well under 2% at 10 bits/key
    absent = [f"a{i}" for i in range(20000)]
    fpr = bloom.might_contain(bf["m_bits"], bf["k"], bf["data"],
                              absent).mean()
    assert fpr < 0.02, fpr


def test_kernel_edge_cases():
    bf = bloom.build([], bits_per_key=10)
    assert not bloom.might_contain(bf["m_bits"], bf["k"], bf["data"],
                                   ["x"]).any()
    assert bloom.might_contain(bf["m_bits"], bf["k"], bf["data"], []).size == 0
    # empty-string key round-trips (poly hash of empty bytes is 0 — still
    # a valid probe sequence since h2 is forced odd)
    bf2 = bloom.build(["", "a"], bits_per_key=10)
    m = bloom.might_contain(bf2["m_bits"], bf2["k"], bf2["data"], ["", "a"])
    assert m.all()


def test_encode_partition_bloom_sidecar(tmp_path):
    tbl = fixtures.tokens_table(300, seed=7)
    cfg = pipeline.EncodeConfig(out_dir=str(tmp_path / "out"),
                                bloom_bits_per_key=10)
    row = pipeline.encode_partition(tbl, "b-p0000", cfg)
    bm = row["bloom"]["doc_id"]
    # sidecar appended AFTER the data sections: data offsets/bytes unchanged
    assert bm["offset"] == row["encoded_bytes"]
    assert row["bloom_bytes"] == bm["length"]
    assert os.path.getsize(row["file"]) == row["encoded_bytes"] + row["bloom_bytes"]
    # default config writes no sidecar and the file is exactly the data
    cfg0 = pipeline.EncodeConfig(out_dir=str(tmp_path / "out0"))
    row0 = pipeline.encode_partition(tbl, "b-p0000", cfg0)
    assert "bloom" not in row0
    assert os.path.getsize(row0["file"]) == row0["encoded_bytes"]
    # read_bloom round-trips through the manifest JSON on disk (whose
    # file path is store-relative; read_manifest_row resolves it)
    man = pipeline.read_manifest_row(
        os.path.join(cfg.manifest_dir, "b-p0000.json"))
    got = pipeline.read_bloom(man, "doc_id")
    assert got is not None
    ids = tbl.column("doc_id")
    assert bloom.might_contain(got[0], got[1], got[2], ids).all()
    # pruning decision: absent keys rejected (modulo FPR; these miss)
    assert not bloom.might_contain(got[0], got[1], got[2],
                                   ["zz", "99999991"]).any()
    # stores without a sidecar fall back to zone maps (None)
    assert pipeline.read_bloom(row0, "doc_id") is None


def test_bloom_corruption_raises(tmp_path):
    tbl = fixtures.tokens_table(100, seed=9)
    cfg = pipeline.EncodeConfig(out_dir=str(tmp_path / "out"),
                                bloom_bits_per_key=10)
    row = pipeline.encode_partition(tbl, "c-p0000", cfg)
    bm = row["bloom"]["doc_id"]
    with open(row["file"], "r+b") as f:
        f.seek(bm["offset"] + bm["length"] // 2)
        b = f.read(1)
        f.seek(-1, os.SEEK_CUR)
        f.write(bytes([b[0] ^ 0xFF]))
    with pytest.raises(IOError, match="bloom checksum mismatch"):
        pipeline.read_bloom(row, "doc_id")
    # data sections are untouched by the flip — decode still bit-identical
    dec = pipeline.decode_partition(row)
    assert dec.cast(tbl.schema).equals(tbl)


def test_lookup_docs_bloom_parity_and_prune(tmp_path, ray_session):
    path = fixtures.tokens_parquet(800, seed=11,
                                   cache_dir=str(tmp_path / "tok"),
                                   row_group_size=200)
    present = [f"doc-{i:012d}" for i in (17, 399, 761)]
    keys = present + ["nope", "doc-999999999999"]
    outs = {}
    for tag, bpk in (("plain", 0), ("bloom", 10)):
        cfg = pipeline.EncodeConfig(out_dir=str(tmp_path / tag),
                                    partition_token_budget=60_000,
                                    bloom_bits_per_key=bpk)
        pipeline.encode_job(path, cfg, concurrency=2).materialize()
        df = pipeline.lookup_docs(cfg.out_dir, keys, concurrency=2) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        outs[tag] = df
    assert outs["plain"]["doc_id"].tolist() == outs["bloom"]["doc_id"].tolist()
    assert all(np.array_equal(a, b) for a, b in
               zip(outs["plain"]["tokens"], outs["bloom"]["tokens"]))
    assert set(outs["bloom"]["doc_id"]) == set(present)
    # pruning effect (driver-side decision audit, same logic as the Ray
    # stage): probes that sort INSIDE a partition's [min,max] but are
    # absent from the table — the zone map must admit them, only the
    # bloom can prune. "doc-...0100a" sorts between doc ids 100 and 101.
    inside_absent = [f"doc-{i:012d}a" for i in (100, 300, 500, 700)]
    rows = pipeline.load_manifest(str(tmp_path / "bloom"))
    range_admits = bloom_admits = 0
    for row in rows:
        st = row["stats"]["doc_id"]
        if not any(st["min"] <= k <= st["max"] for k in inside_absent):
            continue
        range_admits += 1
        bm = pipeline.read_bloom(row, "doc_id")
        if bloom.might_contain(bm[0], bm[1], bm[2], inside_absent).any():
            bloom_admits += 1
    assert range_admits >= 1
    assert bloom_admits == 0, (bloom_admits, range_admits)
    # and the end-to-end lookup of those probes returns empty through the
    # bloom path too
    empt = pipeline.lookup_docs(str(tmp_path / "bloom"),
                                inside_absent, concurrency=2).to_pandas()
    assert len(empt) == 0


def test_int_key_bloom_build_and_probe():
    """Round-5: Bloom sidecars cover INTEGER key columns (Parquet
    split-block parity) — zero false negatives, bounded FPR, nulls
    never enter the filter."""
    import numpy as np
    import pyarrow as pa

    from rwcf import bloom
    rng = np.random.default_rng(5)
    present = rng.choice(10**9, size=4000, replace=False).astype(np.int64)
    bf = bloom.build(pa.array(present, pa.int64()), bits_per_key=10)
    hit = bloom.might_contain(bf["m_bits"], bf["k"], bf["data"],
                              pa.array(present, pa.int64()))
    assert hit.all()  # no false negatives
    absent = (present + 1)  # disjoint with overwhelming probability
    absent = absent[~np.isin(absent, present)]
    fp = bloom.might_contain(bf["m_bits"], bf["k"], bf["data"],
                             pa.array(absent, pa.int64())).mean()
    assert fp < 0.02, fp
    # python-int probe list coerces to the int path
    assert bloom.might_contain(bf["m_bits"], bf["k"], bf["data"],
                               [int(present[0])]).all()

    # nullable keys: nulls dropped at build, filter still exact on rest
    some = pa.array([1, None, 3, None, 5], pa.int64())
    bf2 = bloom.build(some, bits_per_key=10)
    assert bf2["n_keys"] == 3
    m = bloom.might_contain(bf2["m_bits"], bf2["k"], bf2["data"],
                            pa.array([1, 3, 5], pa.int64()))
    assert m.all()


def test_int_bloom_through_store(tmp_path, ray_session):
    """An int64 key column gets a sidecar at encode and prunes point
    lookups exactly like the string path."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from rwcf import bloom as _bloom
    from rwcf import fixtures, pipeline
    path = fixtures.tokens_parquet(300, seed=13, cache_dir=str(tmp_path),
                                   row_group_size=100)
    t = pq.read_table(path)
    uid = pa.array((np.arange(t.num_rows) * 7919 % 10**6)
                   .astype(np.int64))
    t = t.append_column("uid", uid)
    src = str(tmp_path / "u.parquet")
    pq.write_table(t, src, row_group_size=100)
    out = str(tmp_path / "enc")
    cfg = pipeline.EncodeConfig(
        out_dir=out, partition_token_budget=30_000,
        columns=["doc_id", "tokens", "n_tok", "source", "uid"],
        bloom_bits_per_key=10, bloom_columns=("doc_id", "uid"))
    pipeline.encode_job(src, cfg).materialize()
    rows = pipeline.load_manifest(out)
    assert all("uid" in (r.get("bloom") or {}) for r in rows)
    # every stored uid is admitted by its own partition's sidecar
    for r in rows:
        dec = pipeline.decode_partition(r, columns=["uid"])
        bm = pipeline.read_bloom(r, "uid")
        got = _bloom.might_contain(bm[0], bm[1], bm[2],
                                   dec.column("uid"))
        assert got.all()
    # an absent probe is rejected by (almost) every partition
    absent = [123456789]
    admits = sum(1 for r in rows
                 if _bloom.might_contain(*pipeline.read_bloom(r, "uid"),
                                         absent).any())
    assert admits <= max(1, len(rows) // 4)


def test_u64_keys_above_int64_range():
    # u64 keys >= 2^63 build without a checked cast, and probes of the
    # same value — as a list of Python ints or as a u64 array — find them
    keys = pa.array([2**63 + 5, 2**64 - 1, 3], pa.uint64())
    bf = bloom.build(keys, bits_per_key=10)
    assert bf["n_keys"] == 3
    assert bloom.might_contain(bf["m_bits"], bf["k"], bf["data"], keys).all()
    assert bloom.might_contain(bf["m_bits"], bf["k"], bf["data"],
                               [2**63 + 5, 2**64 - 1, 3]).all()
    # an int64 key and an int probe of the same value agree
    bf = bloom.build(pa.array([-1, 2**62], pa.int64()))
    assert bloom.might_contain(bf["m_bits"], bf["k"], bf["data"],
                               [-1, 2**62]).all()
