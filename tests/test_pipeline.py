"""End-to-end pipeline: encode -> manifest -> decode round trip, size-aware
partitioning, resume-from-manifest, reference-footprint bound."""

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pytest

from rwcf import fixtures, oracle, pipeline
from rwcf import format as fmt


@pytest.fixture(scope="module")
def small_parquet(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("tokens"))
    path = fixtures.tokens_parquet(2000, seed=42, cache_dir=d, row_group_size=500)
    return path


def test_fixture_invariants(small_parquet):
    import pyarrow.parquet as pq
    tbl = pq.read_table(small_parquet)
    assert tbl.schema.equals(pipeline.TOKENS_SCHEMA)
    import pyarrow.compute as pc
    lens = pc.list_value_length(tbl.column("tokens"))
    assert pc.all(pc.equal(lens.cast(pa.int32()),
                           tbl.column("n_tok"))).as_py()
    # skew tail planted
    assert pc.max(tbl.column("n_tok")).as_py() >= 64_000
    # determinism
    t2 = fixtures.tokens_table(2000, seed=42)
    assert t2.equals(pq.read_table(small_parquet))


def test_split_by_token_budget():
    n_tok = np.array([10, 10, 500, 10, 1000, 10, 10], dtype=np.int64)
    spans = pipeline.split_by_token_budget(n_tok, 500)
    # every span >=1 row; budget respected modulo one-row overshoot
    assert spans[0][0] == 0 and spans[-1][1] == 7
    assert all(b > a for a, b in spans)
    joined = [i for a, b in spans for i in range(a, b)]
    assert joined == list(range(7))
    # a giant row gets its own span rather than blocking
    big = pipeline.split_by_token_budget(np.array([5, 10_000, 5]), 100)
    assert (1, 2) in big


def test_encode_decode_partition_pure(small_parquet, tmp_path):
    import pyarrow.parquet as pq
    tbl = pq.read_table(small_parquet).slice(0, 300)
    cfg = pipeline.EncodeConfig(out_dir=str(tmp_path / "out"))
    row = pipeline.encode_partition(tbl, "t-p0000", cfg)
    assert row["status"] == "committed"
    assert os.path.exists(row["file"])
    assert set(row["codec_by_column"]) == set(pipeline.TOKEN_COLUMNS)
    dec = pipeline.decode_partition(row)
    assert dec.cast(tbl.schema).equals(tbl)
    # column pruning decodes a subset
    only = pipeline.decode_partition(row, columns=["doc_id", "n_tok"])
    assert only.column_names == ["doc_id", "n_tok"]
    assert only.column("doc_id").equals(tbl.column("doc_id"))


def test_checksum_detects_corruption(small_parquet, tmp_path):
    import pyarrow.parquet as pq
    tbl = pq.read_table(small_parquet).slice(0, 100)
    cfg = pipeline.EncodeConfig(out_dir=str(tmp_path / "out"))
    row = pipeline.encode_partition(tbl, "c-p0000", cfg)
    with open(row["file"], "r+b") as f:
        f.seek(10)
        b = f.read(1)
        f.seek(10)
        f.write(bytes([b[0] ^ 0xFF]))
    with pytest.raises(Exception):
        pipeline.decode_partition(row)


def test_footprint_beats_reference(small_parquet, tmp_path):
    """Total encoded bytes (incl. manifest overhead) <= oracle footprint =
    sum over columns of min(plain, rle) reference file size (BASELINE.md)."""
    import pyarrow.parquet as pq
    tbl = pq.read_table(small_parquet)
    cfg = pipeline.EncodeConfig(out_dir=str(tmp_path / "out"))
    chunks = pipeline._table_chunks(tbl)
    ref_total = 0
    for name, (chunk, dtype, _validity) in chunks.items():
        kind = fmt.DTYPES[dtype][0]
        if fmt.is_string(dtype):
            lengths, payload = chunk
            offs = np.cumsum(lengths) - lengths
            vals = [payload[o:o + l].tobytes().decode()
                    for o, l in zip(offs, lengths)]
        else:
            vals = np.asarray(chunk)
        ref_total += oracle.reference_footprint(vals, kind)
    n_tok = tbl.column("n_tok").combine_chunks().to_numpy().astype(np.int64)
    spans = pipeline.split_by_token_budget(n_tok, cfg.partition_token_budget)
    ours = 0
    for k, (a, b) in enumerate(spans):
        row = pipeline.encode_partition(tbl.slice(a, b - a), f"f-p{k:04d}", cfg)
        ours += row["encoded_bytes"]
        ours += os.path.getsize(os.path.join(cfg.manifest_dir, f"f-p{k:04d}.json"))
    assert ours <= ref_total, (ours, ref_total)


def test_ray_encode_decode_verify_resume(small_parquet, tmp_path, ray_session):
    out = str(tmp_path / "rayout")
    cfg = pipeline.EncodeConfig(out_dir=out, partition_token_budget=100_000)
    mds = pipeline.encode_job(small_parquet, cfg, concurrency=4)
    man = mds.to_pandas()
    assert man["n_rows"].sum() == 2000
    assert (man["encoded_bytes"] > 0).all()
    n_parts = len(man)
    assert n_parts > 4  # size-aware split produced real parallelism

    # decode round trip (order-insensitive: sort by doc_id)
    dec = pipeline.decode_job(out, concurrency=4).to_pandas()
    import pyarrow.parquet as pq
    src = pq.read_table(small_parquet).to_pandas()
    dec = dec.sort_values("doc_id").reset_index(drop=True)
    src = src.sort_values("doc_id").reset_index(drop=True)
    assert dec["doc_id"].tolist() == src["doc_id"].tolist()
    assert dec["source"].tolist() == src["source"].tolist()
    assert all(np.array_equal(a, b) for a, b in zip(dec["tokens"], src["tokens"]))

    # verify job: per-partition bit-identical
    ver = pipeline.verify_job(out, concurrency=4).to_pandas()
    assert ver["equal"].all()
    assert ver["n_rows"].sum() == 2000

    # resume: delete 2 committed partitions, rerun, only those re-encoded
    rows = pipeline.load_manifest(out)
    victims = [r["pid"] for r in rows[:2]]
    keep_mtime = {}
    for r in rows:
        if r["pid"] in victims:
            os.remove(os.path.join(out, "manifest", f"{r['pid']}.json"))
            os.remove(r["file"])
        else:
            keep_mtime[r["pid"]] = os.path.getmtime(r["file"])
    man2 = pipeline.encode_job(small_parquet, cfg, concurrency=4).to_pandas()
    assert len(man2) == n_parts
    rows2 = pipeline.load_manifest(out)
    assert len(rows2) == n_parts
    for r in rows2:
        if r["pid"] not in victims:
            assert os.path.getmtime(r["file"]) == keep_mtime[r["pid"]], \
                "untouched partition was re-encoded"


def test_zone_map_pruning(small_parquet, tmp_path, ray_session):
    out = str(tmp_path / "zm")
    cfg = pipeline.EncodeConfig(out_dir=out, partition_token_budget=100_000)
    pipeline.encode_job(small_parquet, cfg, concurrency=4).materialize()
    rows = pipeline.load_manifest(out)
    assert all("stats" in r and "n_tok" in r["stats"] for r in rows)
    # prune to partitions that can contain a skew row (n_tok >= 64000)
    thresh = 64_000
    kept = [r for r in rows
            if r["stats"]["n_tok"]["max"] >= thresh]
    assert 0 < len(kept) < len(rows), "pruning must actually skip partitions"
    dec = pipeline.decode_job(
        out, columns=["doc_id", "n_tok"], concurrency=2,
        where=lambda r: r["stats"]["n_tok"]["max"] >= thresh).to_pandas()
    import pyarrow.parquet as pq
    src = pq.read_table(small_parquet).to_pandas()
    expect = set(src.loc[src["n_tok"] >= thresh, "doc_id"])
    got = set(dec.loc[dec["n_tok"] >= thresh, "doc_id"])
    assert got == expect


def test_page_slice_and_stats():
    rng = np.random.default_rng(9)
    vals = rng.integers(0, 1 << 15, 500_000).astype(np.int32)
    enc = fmt.encode_chunk(vals, "i32", "for")
    assert len(enc.pages) > 2
    stats = fmt.page_value_stats(vals, "i32", enc.pages)
    assert len(stats) == len(enc.pages)
    # per-page stats are exact
    pos = 0
    for (lo, hi), p in zip(stats, enc.pages):
        seg = vals[pos:pos + p.values_count]
        pos += p.values_count
        assert lo == seg.min() and hi == seg.max()
    # selective decode of pages 1 and 3 equals those value spans
    sub = fmt.slice_pages(enc, [1, 3])
    out = fmt.decode_chunk(sub)
    c0 = enc.pages[0].values_count
    c1 = enc.pages[1].values_count
    c2 = enc.pages[2].values_count
    c3 = enc.pages[3].values_count
    expect = np.concatenate([vals[c0:c0 + c1], vals[c0 + c1 + c2:c0 + c1 + c2 + c3]])
    assert np.array_equal(out, expect)


def test_scan_column_pages_skips(small_parquet, tmp_path, ray_session):
    out = str(tmp_path / "scan")
    cfg = pipeline.EncodeConfig(out_dir=out, partition_token_budget=100_000,
                                page_target=16 * 1024)
    pipeline.encode_job(small_parquet, cfg, concurrency=4).materialize()
    # scan the token stream itself: the fixture's sorted-run rows produce
    # pages with narrow value ranges, so a high-value predicate can skip
    thresh = 50_000
    scanned = pipeline.scan_column_pages(
        out, "tokens", lambda lo, hi: hi >= thresh, concurrency=2).to_pandas()
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    flat = pq.read_table(small_parquet).column("tokens").combine_chunks() \
        .flatten().to_numpy(zero_copy_only=False)
    expect_n = int((flat >= thresh).sum())
    expect_sum = int(flat[flat >= thresh].astype(np.int64).sum())
    got = scanned["tokens"].to_numpy()
    kept = got[got >= thresh]
    assert kept.size == expect_n
    assert int(kept.astype(np.int64).sum()) == expect_sum
    # and pages were actually skipped somewhere
    assert (scanned["_pages_kept"] < scanned["_pages_total"]).any()


def test_manifest_compaction_and_resume(small_parquet, tmp_path, ray_session):
    out = str(tmp_path / "cmp")
    cfg = pipeline.EncodeConfig(out_dir=out, partition_token_budget=100_000)
    pipeline.encode_job(small_parquet, cfg, concurrency=4).materialize()
    rows = pipeline.load_manifest(out)
    n_parts = len(rows)
    res = pipeline.compact_manifest(out)
    assert res["compacted"] == n_parts
    # no loose JSONs remain; load_manifest reads the parquet shard
    assert not [f for f in os.listdir(os.path.join(out, "manifest"))
                if f.endswith(".json")]
    rows2 = pipeline.load_manifest(out)
    assert {r["pid"] for r in rows2} == {r["pid"] for r in rows}
    # resume after compaction: nothing re-encoded (mtimes untouched)
    mtimes = {r["pid"]: os.path.getmtime(r["file"]) for r in rows2}
    man = pipeline.encode_job(small_parquet, cfg, concurrency=4).to_pandas()
    assert len(man) == n_parts
    for r in pipeline.load_manifest(out):
        assert os.path.getmtime(r["file"]) == mtimes[r["pid"]]
    # decode + verify still work from the compacted manifest
    ver = pipeline.verify_job(out, concurrency=2).to_pandas()
    assert ver["equal"].all() and ver["n_rows"].sum() == 2000


def test_task_retry_with_idempotent_commit(small_parquet, tmp_path, ray_session):
    """Transient task failures retry (retry_exceptions) and the atomic
    commit protocol makes the retry idempotent: a crash AFTER writing the
    partition file but BEFORE the manifest commit leaves no corruption —
    the retry simply overwrites and commits."""
    out = str(tmp_path / "flaky")
    cfg = pipeline.EncodeConfig(out_dir=out, partition_token_budget=100_000)
    marker = str(tmp_path / "fail_once")

    frags = pipeline.plan_fragments(small_parquet)

    def flaky(batch, _cfg=cfg, _marker=marker):
        import os as _os
        rows = []
        for desc in batch.to_pylist():
            # crash mid-fragment exactly once, after some partitions landed
            if desc["row_group"] == 0 and not _os.path.exists(_marker):
                pipeline.encode_fragment(desc, _cfg, resume=True)  # work done
                open(_marker, "w").close()
                raise RuntimeError("injected transient fault after commit")
            rows.extend(pipeline.encode_fragment(desc, _cfg, resume=True))
        return pipeline.manifest_rows_to_table(rows)

    import ray.data as rd
    man = rd.from_items(frags).map_batches(
        flaky, batch_size=1, batch_format="pyarrow", num_cpus=1,
        max_retries=3, retry_exceptions=True).to_pandas()
    assert os.path.exists(marker), "fault was never injected"
    assert man["n_rows"].sum() == 2000
    ver = pipeline.verify_job(out, concurrency=2).to_pandas()
    assert ver["equal"].all()


def test_page_framing_saves_io(small_parquet, tmp_path, ray_session):
    """transport="zstd-page" (default): a zone-map page skip must READ
    fewer bytes than the full section — the round-2 fix for 'zstd sections
    are not seekable'. Also pins selective-read value correctness."""
    out = str(tmp_path / "framed")
    cfg = pipeline.EncodeConfig(out_dir=out, partition_token_budget=100_000,
                                page_target=16 * 1024)
    assert cfg.transport == "zstd-page"
    pipeline.encode_job(small_parquet, cfg, concurrency=4).materialize()
    thresh = 50_000
    scanned = pipeline.scan_column_pages(
        out, "tokens", lambda lo, hi: hi >= thresh, concurrency=2).to_pandas()
    # correctness of the selectively-fetched values
    import pyarrow.parquet as pq
    flat = pq.read_table(small_parquet).column("tokens").combine_chunks() \
        .flatten().to_numpy(zero_copy_only=False)
    got = scanned["tokens"].to_numpy()
    kept = got[got >= thresh]
    assert kept.size == int((flat >= thresh).sum())
    # pages skipped somewhere AND bytes actually saved on disk reads
    assert (scanned["_pages_kept"] < scanned["_pages_total"]).any()
    assert (scanned["_bytes_read"] < scanned["_bytes_total"]).any()
    per_task = scanned.drop_duplicates(
        subset=["_bytes_read", "_bytes_total"])
    assert per_task["_bytes_read"].sum() < per_task["_bytes_total"].sum()


def test_page_framing_roundtrip_bit_exact(small_parquet, tmp_path,
                                          ray_session):
    """Framed sections decode bit-identically (full verify path)."""
    out = str(tmp_path / "framed_rt")
    cfg = pipeline.EncodeConfig(out_dir=out, partition_token_budget=100_000)
    pipeline.encode_job(small_parquet, cfg, concurrency=4).materialize()
    ver = pipeline.verify_job(out, concurrency=4).to_pandas()
    assert ver["equal"].all()
    # and the legacy whole-section transport still round-trips
    out2 = str(tmp_path / "stream_rt")
    cfg2 = pipeline.EncodeConfig(out_dir=out2,
                                 partition_token_budget=100_000,
                                 transport="zstd")
    pipeline.encode_job(small_parquet, cfg2, concurrency=4).materialize()
    ver2 = pipeline.verify_job(out2, concurrency=4).to_pandas()
    assert ver2["equal"].all()


def test_read_column_pages_matches_slice(small_parquet, tmp_path,
                                         ray_session):
    """Selective frame fetch == in-memory page slice of the full section."""
    out = str(tmp_path / "selread")
    cfg = pipeline.EncodeConfig(out_dir=out, partition_token_budget=100_000,
                                page_target=8 * 1024)
    pipeline.encode_job(small_parquet, cfg, concurrency=2).materialize()
    row = pipeline.load_manifest(out)[0]
    full = pipeline.read_column_section(row, "tokens")
    assert len(full.pages) >= 3
    keep = [0, len(full.pages) - 1]
    enc, bytes_read, bytes_total = pipeline.read_column_pages(
        row, "tokens", keep)
    assert bytes_read < bytes_total
    want = fmt.decode_chunk(fmt.slice_pages(full, keep))
    got = fmt.decode_chunk(enc)
    assert np.array_equal(np.asarray(got), np.asarray(want))


def test_incremental_append_encodes_only_new_fragments(small_parquet,
                                                       tmp_path, ray_session):
    """Corpus growth: re-running encode_job with resume=True over an
    EXPANDED input list must encode only the new file's fragments —
    existing partitions keep their bytes and mtimes, and the decoded
    union covers the whole grown corpus."""
    d = str(tmp_path / "grow")
    os.makedirs(d)
    out = str(tmp_path / "out")
    cfg = pipeline.EncodeConfig(out_dir=out, partition_token_budget=100_000)

    pipeline.encode_job(small_parquet, cfg, concurrency=4).materialize()
    rows1 = pipeline.load_manifest(out)
    mtimes = {r["pid"]: os.path.getmtime(r["file"]) for r in rows1}
    assert sum(r["n_rows"] for r in rows1) == 2000

    # the corpus grows by one new file (disjoint doc ids)
    new_file = fixtures.tokens_parquet(500, seed=77, cache_dir=d,
                                       row_group_size=250)
    man2 = pipeline.encode_job([small_parquet, new_file], cfg,
                               concurrency=4, resume=True).to_pandas()
    rows2 = pipeline.load_manifest(out)
    assert sum(r["n_rows"] for r in rows2) == 2500
    assert len(rows2) > len(rows1)
    for r in rows2:
        if r["pid"] in mtimes:
            assert os.path.getmtime(r["file"]) == mtimes[r["pid"]], \
                "append re-encoded a committed partition"

    # the decode covers old + new rows exactly once
    dec = pipeline.decode_job(out, concurrency=4,
                              columns=["doc_id"]).to_pandas()
    assert len(dec) == 2500
    assert man2["n_rows"].sum() == 2500


def test_manifest_rows_store_relative_and_legacy_paths_read(tmp_path,
                                                            monkeypatch):
    # rows name their file relative to the store root; rows written
    # before that hold the encoder's absolute or cwd-relative path
    tbl = fixtures.tokens_table(50, seed=4)
    monkeypatch.chdir(tmp_path)
    cfg = pipeline.EncodeConfig(out_dir="store")
    pipeline.encode_partition(tbl, "a-p0000", cfg)
    pipeline.encode_partition(tbl, "b-p0000", cfg)
    pipeline.encode_partition(tbl, "c-p0000", cfg)
    mdir = os.path.join("store", "manifest")
    legacy = {"b-p0000": os.path.join("store", "parts", "b-p0000.rwcf"),
              "c-p0000": str(tmp_path / "store" / "parts" / "c-p0000.rwcf")}
    for pid, path in legacy.items():
        with open(os.path.join(mdir, f"{pid}.json")) as f:
            raw = json.load(f)
        assert raw["file"] == os.path.join("parts", f"{pid}.rwcf")
        raw["file"] = path
        with open(os.path.join(mdir, f"{pid}.json"), "w") as f:
            json.dump(raw, f)
    rows = pipeline.load_manifest("store")
    assert [r["file"] for r in rows] == [
        os.path.join("store", "parts", "a-p0000.rwcf"),
        legacy["b-p0000"], legacy["c-p0000"]]
    for r in rows:
        assert pipeline.decode_partition(r).equals(tbl)
