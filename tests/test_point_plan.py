"""Driver-planned point reads and deletes (``pipeline._admitted_results``).

lookup_docs, range_scan_docs, delete_docs and delete_where prune
partitions by their manifest zone maps in the driver and hand only the
admitted manifest rows to their scan, which runs in the driver. These
tests check each against a filter over decode_job on a store that has a
Bloom sidecar, a tombstone, an upsert and a snapshot, check which pids
the scan receives, check that no point op starts a Ray job whatever its
concurrency, that no point mutation builds a Ray Dataset, that merge_docs
matches on doc_id pages alone, that a reader's result reaches the
object store in bounded blocks, and that reading it starts no Ray Data
executor.
"""

import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
from ray.data import Dataset
from ray.data.context import DataContext
from ray.data.dataset import MaterializedDataset

from rwcf import fixtures, pipeline

N_ROWS = 600
#: tombstoned before the snapshot
DELETED = fixtures.tokens_table(N_ROWS, seed=21).column("doc_id")[17].as_py()
#: upserted after the snapshot: two replaced rows and one new doc
UPSERTED = ["doc-000000000040", "doc-000000000300", "doc-000000999999"]


def _build(d) -> tuple[str, str]:
    """Encode the F1 table into small Bloom-indexed partitions, tombstone
    one doc, snapshot, then upsert two live docs and one new one."""
    tbl = fixtures.tokens_table(N_ROWS, seed=21)
    src = str(d / "tokens.parquet")
    pq.write_table(tbl, src, row_group_size=150)
    out = str(d / "store")
    cfg = pipeline.EncodeConfig(out_dir=out, partition_token_budget=20_000,
                                bloom_bits_per_key=10)
    pipeline.encode_job(src, cfg).materialize()
    assert pipeline.delete_docs(out, [DELETED])["rows_deleted"] == 1
    snap = pipeline.create_snapshot(out)["snapshot"]
    new = fixtures.tokens_table(3, seed=22)
    new = new.set_column(0, "doc_id", pa.array(UPSERTED, pa.string()))
    pipeline.upsert_docs(out, new)
    return out, snap


@pytest.fixture
def store(tmp_path, ray_session):
    return _build(tmp_path)


@pytest.fixture(scope="module")
def shared_store(tmp_path_factory, ray_session):
    """Read-only tests share one store."""
    return _build(tmp_path_factory.mktemp("point_plan"))


def _decoded(out, snapshot=None) -> pa.Table:
    return pa.concat_tables(ray.get(
        pipeline.decode_job(out, snapshot=snapshot).to_arrow_refs()))


def _by_doc(t: pa.Table, cols) -> dict:
    d = t.to_pydict()
    return {d["doc_id"][i]: tuple(tuple(d[c][i]) if isinstance(d[c][i], list)
                                  else d[c][i] for c in cols)
            for i in range(t.num_rows)}


def _filter(t: pa.Table, mask) -> pa.Table:
    return t.filter(pa.array(np.asarray(mask, dtype=bool)))


def _keys(decoded: pa.Table) -> list[str]:
    ids = decoded.column("doc_id").to_pylist()
    # live hits, the tombstoned doc, an in-range miss only the Bloom
    # sidecar can reject, and an out-of-range miss
    return ids[:2] + UPSERTED + [DELETED, "doc-000000000100x", "zzz"]


@pytest.mark.parametrize("view", ["current", "snapshot"])
def test_lookup_docs_matches_decode_filter(shared_store, view):
    out, snap = shared_store
    snapshot = snap if view == "snapshot" else None
    dec = _decoded(out, snapshot)
    keys = _keys(dec)
    got = pipeline.lookup_docs(out, keys, snapshot=snapshot)
    assert isinstance(got, MaterializedDataset)
    want = _filter(dec, np.isin(dec.column("doc_id").to_pylist(), keys))
    got_t = pa.Table.from_pandas(got.to_pandas(), preserve_index=False)
    assert got_t.num_rows == want.num_rows
    assert _by_doc(got_t, ["tokens"]) == _by_doc(want, ["tokens"])
    # the two views differ: the upsert replaced rows after the snapshot
    if view == "snapshot":
        assert UPSERTED[2] not in _by_doc(got_t, ["tokens"])
    else:
        assert UPSERTED[2] in _by_doc(got_t, ["tokens"])


def test_range_scan_docs_matches_decode_filter(shared_store):
    out, _snap = shared_store
    dec = _decoded(out)
    lo, hi = "doc-000000000010", "doc-000000000045"
    got = pipeline.range_scan_docs(out, lo, hi).to_pandas()
    ids = np.array(dec.column("doc_id").to_pylist())
    want = _filter(dec, (ids >= lo) & (ids <= hi))
    assert sorted(zip(got["doc_id"], got["n_tok"])) == sorted(
        zip(want.column("doc_id").to_pylist(),
            want.column("n_tok").to_pylist()))


def test_delete_docs_matches_decode_filter(store):
    out, _snap = store
    before = _decoded(out)
    keys = _keys(before)
    res = pipeline.delete_docs(out, keys)
    ids = np.array(before.column("doc_id").to_pylist())
    gone = np.isin(ids, keys)
    assert res["rows_deleted"] == int(gone.sum()) > 0
    assert _by_doc(_decoded(out), ["tokens"]) == \
        _by_doc(_filter(before, ~gone), ["tokens"])
    # idempotent: nothing new to delete
    assert pipeline.delete_docs(out, keys)["rows_deleted"] == 0


@pytest.mark.parametrize("pred", ["values", "range"])
def test_delete_where_matches_decode_filter(store, pred):
    out, _snap = store
    before = _decoded(out)
    ntok = np.asarray(before.column("n_tok").to_pylist())
    if pred == "values":
        vals = sorted({int(v) for v in ntok[::37]})
        res = pipeline.delete_where(out, "n_tok", values=vals)
        gone = np.isin(ntok, vals)
    else:
        lo, hi = int(np.percentile(ntok, 40)), int(np.percentile(ntok, 45))
        res = pipeline.delete_where(out, "n_tok", lo=lo, hi=hi)
        gone = (ntok >= lo) & (ntok <= hi)
    assert res["rows_deleted"] == int(gone.sum()) > 0
    assert _by_doc(_decoded(out), ["n_tok", "tokens"]) == \
        _by_doc(_filter(before, ~gone), ["n_tok", "tokens"])


def _spy(monkeypatch) -> list:
    """Replace every scan by one that reports the pids it receives and
    yields nothing, so a spied delete tombstones no row."""
    seen: list = []
    orig = pipeline._admitted_results

    def spy(rows, admits, scan):
        pids: list = []
        yield from orig(rows, admits, lambda row: pids.append(row["pid"]))
        seen.append(sorted(pids))

    monkeypatch.setattr(pipeline, "_admitted_results", spy)
    return seen


def _zone(rows, column, pred) -> list[str]:
    return sorted(r["pid"] for r in rows
                  if pred(r["stats"][column]["min"],
                          r["stats"][column]["max"]))


def test_scan_udf_receives_zone_admitted_pids(shared_store, monkeypatch):
    out, snap = shared_store
    rows = pipeline.load_manifest(out)
    keys = ["doc-000000000005", "doc-000000000300", "doc-000000000301x"]
    want = _zone(rows, "doc_id",
                 lambda mn, mx: any(mn <= k <= mx for k in keys))
    assert 0 < len(want) < len(rows)
    seen = _spy(monkeypatch)
    pipeline.lookup_docs(out, keys)
    pipeline.delete_docs(out, keys, exclude_pids={want[0]})
    assert seen == [want, want[1:]]

    seen.clear()
    snap_rows = pipeline.load_manifest(out, snapshot=snap)
    pipeline.lookup_docs(out, keys, snapshot=snap)
    assert seen == [_zone(snap_rows, "doc_id",
                          lambda mn, mx: any(mn <= k <= mx for k in keys))]

    seen.clear()
    lo, hi = "doc-000000000100", "doc-000000000120"
    pipeline.range_scan_docs(out, lo, hi)
    pipeline.delete_where(out, "n_tok", lo=300, hi=310)
    pipeline.delete_where(out, "n_tok", values=[7, 4096])
    assert seen == [
        _zone(rows, "doc_id", lambda mn, mx: mx >= lo and mn <= hi),
        _zone(rows, "n_tok", lambda mn, mx: mx >= 300 and mn <= 310),
        _zone(rows, "n_tok", lambda mn, mx: any(mn <= v <= mx
                                                for v in (7, 4096)))]


def test_zero_admitted_call_runs_no_job(shared_store, monkeypatch):
    out, snap = shared_store

    def no_job(*a, **k):
        raise AssertionError("a call that admits no partition ran a job")

    monkeypatch.setattr(Dataset, "map_batches", no_job)
    got = pipeline.lookup_docs(out, ["zzz", "a"])
    assert isinstance(got, MaterializedDataset) and got.count() == 0
    assert got.schema().base_schema == pa.schema(
        [("doc_id", pa.string()), ("tokens", pa.list_(pa.int32()))])
    got = pipeline.lookup_docs(out, ["zzz"], snapshot=snap)
    assert isinstance(got, MaterializedDataset) and got.count() == 0
    got = pipeline.range_scan_docs(out, "zzz", "zzzz")
    assert isinstance(got, MaterializedDataset) and got.count() == 0
    assert got.schema().base_schema == pa.schema(
        [("doc_id", pa.string()), ("n_tok", pa.int64())])
    assert pipeline.delete_docs(out, ["zzz"]) == \
        {"partitions": 0, "rows_deleted": 0}
    assert pipeline.delete_where(out, "n_tok", lo=10**9) == \
        {"partitions": 0, "rows_deleted": 0}
    assert pipeline.delete_where(out, "no_such_column", values=[1]) == \
        {"partitions": 0, "rows_deleted": 0}


def test_delete_where_u64_bloom_key(tmp_path, ray_session):
    """A u64 key column >= 2^63 builds its Bloom sidecar, and an equality
    delete probes it without a false negative."""
    tbl = fixtures.tokens_table(150, seed=23)
    uid = np.arange(tbl.num_rows, dtype=np.uint64) + np.uint64(2**63)
    tbl = tbl.append_column("uid", pa.array(uid, pa.uint64()))
    src = str(tmp_path / "u.parquet")
    pq.write_table(tbl, src, row_group_size=50)
    out = str(tmp_path / "enc")
    cfg = pipeline.EncodeConfig(
        out_dir=out, partition_token_budget=10_000,
        columns=["doc_id", "tokens", "n_tok", "source", "uid"],
        bloom_bits_per_key=10, bloom_columns=("doc_id", "uid"))
    pipeline.encode_job(src, cfg).materialize()
    assert all("uid" in r["bloom"] for r in pipeline.load_manifest(out))
    res = pipeline.delete_where(out, "uid", values=[2**63 + 5, 7])
    assert res["rows_deleted"] == 1
    left = pipeline.decode_job(out, columns=["uid"]).to_pandas()["uid"]
    assert len(left) == tbl.num_rows - 1 and 2**63 + 5 not in set(left)


def test_delete_where_prunes_all_null_partitions(tmp_path, ray_session):
    """A partition whose predicate column is all NULL has the zone map
    (None, None); NULL matches no predicate, so the driver prunes it
    instead of comparing None with the probes."""
    tbl = fixtures.tokens_table(300, seed=24)
    idx = np.arange(tbl.num_rows)
    tbl = tbl.append_column("score", pa.array(idx % 50, pa.int64(),
                                              mask=idx < 100))
    src = str(tmp_path / "s.parquet")
    pq.write_table(tbl, src, row_group_size=100)
    out = str(tmp_path / "enc")
    cfg = pipeline.EncodeConfig(
        out_dir=out, partition_token_budget=40_000,
        columns=["doc_id", "tokens", "n_tok", "source", "score"])
    pipeline.encode_job(src, cfg).materialize()
    assert any(r["stats"]["score"]["min"] is None
               for r in pipeline.load_manifest(out))
    assert pipeline.delete_where(out, "score", values=[7, 30]) \
        ["rows_deleted"] == 8
    assert pipeline.delete_where(out, "score", lo=40)["rows_deleted"] == 40
    left = pipeline.decode_job(out, columns=["score"]).to_pandas()["score"]
    assert len(left) == 252 and left.isna().sum() == 100


def test_point_ops_run_no_job(store, monkeypatch):
    """Every point op completes with Ray Data's map_batches unusable,
    even at a concurrency at which Ray could scan in parallel; reads
    still return typed MaterializedDatasets."""
    out, snap = store
    keys = _keys(_decoded(out))

    def no_job(*a, **k):
        raise AssertionError("a point op ran a Ray job")

    monkeypatch.setattr(Dataset, "map_batches", no_job)
    lookup_schema = pa.schema([("doc_id", pa.string()),
                               ("tokens", pa.list_(pa.int32()))])
    for snapshot in (None, snap):
        got = pipeline.lookup_docs(out, keys, snapshot=snapshot,
                                   concurrency=2)
        assert isinstance(got, MaterializedDataset) and got.count() > 0
        assert got.schema().base_schema == lookup_schema
    got = pipeline.range_scan_docs(out, "doc-000000000010",
                                   "doc-000000000045", concurrency=2)
    assert isinstance(got, MaterializedDataset) and got.count() > 0
    assert got.schema().base_schema == pa.schema(
        [("doc_id", pa.string()), ("n_tok", pa.int64())])
    assert pipeline.delete_docs(out, keys[:2], concurrency=2) \
        ["rows_deleted"] == 2
    assert pipeline.delete_where(out, "n_tok", lo=300, hi=330,
                                 concurrency=2)["rows_deleted"] > 0
    new = fixtures.tokens_table(2, seed=27).set_column(
        0, "doc_id", pa.array([keys[2], "doc-000000666666"], pa.string()))
    res = pipeline.upsert_docs(out, new, concurrency=2)
    assert res["new_partitions"] == 1 and res["rows_shadowed"] == 1
    src = fixtures.tokens_table(1, seed=28).set_column(
        0, "doc_id", pa.array([keys[2]], pa.string()))
    assert pipeline.merge_docs(out, src, when_matched="delete",
                               concurrency=2)["deleted"] == 1


def _mutations(out: str, replica: str, snap: str, dec: pa.Table) -> list:
    """Every point mutation and each mutation composed from them, in one
    sequence over the store decoded as ``dec``: deletes, a one-fragment
    upsert, both MERGE arms, a CDC replication into ``replica`` (the
    store's state at ``snap``) and a rollback to ``snap``."""
    keys = _keys(dec)
    vals = sorted({int(v) for v in dec.column("n_tok").to_pylist()[::37]})
    res = [pipeline.delete_docs(out, keys[:2] + [keys[-1]]),
           pipeline.delete_where(out, "n_tok", lo=300, hi=330),
           pipeline.delete_where(out, "n_tok", values=vals)]
    new = fixtures.tokens_table(2, seed=27).set_column(
        0, "doc_id", pa.array([keys[2], "doc-000000666666"], pa.string()))
    res.append(pipeline.upsert_docs(out, new))
    src = fixtures.tokens_table(2, seed=28).set_column(
        0, "doc_id", pa.array([keys[3], "doc-000000777777"], pa.string()))
    res.append(pipeline.merge_docs(out, src))
    gone = fixtures.tokens_table(1, seed=29).set_column(
        0, "doc_id", pa.array([keys[4]], pa.string()))
    res.append(pipeline.merge_docs(out, gone, when_matched="delete"))
    res.append(pipeline.replicate_cdc(out, replica, snap))
    res.append(pipeline.rollback_to_snapshot(out, snap))
    return res


def test_point_mutations_build_no_dataset(tmp_path, ray_session,
                                          monkeypatch):
    """With ray.put and ray.data.from_arrow_refs raising, every point
    mutation still returns what it returns with them, and leaves the
    same stores. cdc_scan, a Ray Data job by design, runs with them
    before replication and rollback use its delta."""
    runs = {}
    for name in ("free", "guarded"):
        (tmp_path / name).mkdir()
        out, _snap = _build(tmp_path / name)
        replica = str(tmp_path / name / "replica")
        shutil.copytree(out, replica)
        snap = pipeline.create_snapshot(out)["snapshot"]
        dec = _decoded(out)
        if name == "guarded":
            armed = [True]

            def raising(what, orig):
                def call(*a, **k):
                    if armed[0]:
                        raise AssertionError(f"a point mutation called {what}")
                    return orig(*a, **k)
                return call

            monkeypatch.setattr(ray, "put", raising("ray.put", ray.put))
            monkeypatch.setattr(ray.data, "from_arrow_refs", raising(
                "from_arrow_refs", ray.data.from_arrow_refs))
            cdc_scan = pipeline.cdc_scan

            class Delta:
                def __init__(self, *a, **k):
                    armed[0] = False
                    try:
                        self.df = cdc_scan(*a, **k).to_pandas()
                    finally:
                        armed[0] = True

                def to_pandas(self):
                    return self.df

            monkeypatch.setattr(pipeline, "cdc_scan", Delta)
            with pytest.raises(AssertionError, match="point mutation"):
                pipeline.lookup_docs(out, ["doc-000000000005"])
        res = _mutations(out, replica, snap, dec)
        monkeypatch.undo()
        runs[name] = (res, _by_doc(_decoded(out), ["n_tok", "tokens"]),
                      _by_doc(_decoded(replica), ["n_tok", "tokens"]))
    assert runs["guarded"] == runs["free"]
    res = runs["free"][0]
    assert res[0]["rows_deleted"] == 2
    assert res[1]["rows_deleted"] > 0 and res[2]["rows_deleted"] > 0
    assert res[3]["rows_shadowed"] == 1
    assert (res[4]["matched"], res[4]["updated"], res[4]["inserted"]) == \
        (1, 1, 1)
    assert (res[5]["matched"], res[5]["deleted"]) == (1, 1)
    assert res[6]["delta_rows"] > 0 and res[7]["delta_rows"] > 0


def test_merge_matches_on_doc_id_pages_only(tmp_path, ray_session,
                                           monkeypatch):
    """merge_docs decides its matches from doc_id pages alone (same
    admission, Bloom probe and tombstones as lookup_docs) and returns
    the stats, and leaves the store, that a match through a full point
    lookup does. Counted per column: every read of the match, and the
    n_tok and token pages the lookup would also have read."""
    runs = {}
    for name in ("lookup", "doc_ids"):
        (tmp_path / name).mkdir()
        out, _snap = _build(tmp_path / name)
        keys = _keys(_decoded(out))
        src = fixtures.tokens_table(len(keys), seed=30).set_column(
            0, "doc_id", pa.array(keys, pa.string()))
        if name == "lookup":
            monkeypatch.setattr(pipeline, "_live_doc_ids", lambda o, k: set(
                pipeline._lookup_table(o, k).column("doc_id").to_pylist()))
        reads: dict = {}

        def counted(fn):
            def call(row, column, *a, **k):
                reads[column] = reads.get(column, 0) + 1
                return fn(row, column, *a, **k)
            return call

        for fn in ("read_column_pages", "read_column_section",
                   "read_column_skeleton"):
            monkeypatch.setattr(pipeline, fn, counted(getattr(pipeline, fn)))
        probe = pipeline.merge_docs(out, src, when_matched="ignore",
                                    when_not_matched="ignore")
        match_reads = dict(reads)
        monkeypatch.undo()
        res = pipeline.merge_docs(out, src)
        runs[name] = (probe, match_reads, res,
                      _by_doc(_decoded(out), ["n_tok", "tokens"]))
    (probe, lookup_reads, res, store), (probe2, reads, res2, store2) = \
        runs["lookup"], runs["doc_ids"]
    assert probe == probe2 and res == res2 and store == store2
    assert (probe["matched"], probe["not_matched"]) == (5, 3)
    assert set(lookup_reads) == {"doc_id", "n_tok", "tokens"}
    assert set(reads) == {"doc_id"}
    assert reads["doc_id"] == lookup_reads["doc_id"]


def test_scan_result_blocks_are_bounded(shared_store, monkeypatch):
    """The driver puts the scan's rows into the object store in blocks of
    at most Ray Data's target block size plus one partition's rows:
    with a 1-byte target each partition that yields rows is its own
    block, by default the rows share one; either way the rows are those
    of a filter over decode_job."""
    out, _snap = shared_store
    dec = _decoded(out)
    lo, hi = "doc-000000000010", "doc-000000000300"
    ids = np.array(dec.column("doc_id").to_pylist())
    keep = (ids >= lo) & (ids <= hi)
    want = sorted(zip(ids[keep].tolist(),
                      np.asarray(dec.column("n_tok").to_pylist())[keep]
                      .tolist()))
    yielded: list = []
    orig = pipeline._admitted_results

    def recording(rows, admits, scan):
        def rec(row: dict) -> pa.Table | None:
            got = scan(row)
            if got is not None and got.num_rows:
                yielded.append(row["pid"])
            return got
        return orig(rows, admits, rec)

    monkeypatch.setattr(pipeline, "_admitted_results", recording)
    ctx = DataContext.get_current()
    for target in (None, 1):
        if target is not None:
            monkeypatch.setattr(ctx, "target_max_block_size", target)
        yielded.clear()
        got = pipeline.range_scan_docs(out, lo, hi)
        blocks = ray.get(got.to_arrow_refs())
        assert len(yielded) > 1 and len(set(yielded)) == len(yielded)
        assert len(blocks) == (1 if target is None else len(yielded))
        rows = pa.concat_tables(blocks)
        assert sorted(zip(rows.column("doc_id").to_pylist(),
                          rows.column("n_tok").to_pylist())) == want


def test_reading_a_point_result_starts_no_executor(shared_store,
                                                  monkeypatch):
    """lookup_docs and range_scan_docs return executed Datasets: reading
    one through to_arrow_refs, count, to_pandas or schema builds no Ray
    Data executor, for a hit, an all-miss result (one typed empty block)
    and a result split into many blocks."""
    from ray.data._internal.plan import ExecutionPlan
    out, _snap = shared_store
    keys = _keys(_decoded(out))
    lo, hi = "doc-000000000010", "doc-000000000300"

    def no_executor(*a, **k):
        raise AssertionError("reading a point result built an executor")

    monkeypatch.setattr(ExecutionPlan, "create_executor", no_executor)
    ctx = DataContext.get_current()
    for target in (None, 1):
        if target is not None:
            monkeypatch.setattr(ctx, "target_max_block_size", target)
        for got, hit in ((pipeline.lookup_docs(out, keys), True),
                         (pipeline.lookup_docs(out, ["zzz"]), False),
                         (pipeline.range_scan_docs(out, lo, hi), True),
                         (pipeline.range_scan_docs(out, "zzz", "zzzz"),
                          False)):
            assert isinstance(got, MaterializedDataset)
            blocks = ray.get(got.to_arrow_refs())
            rows = sum(b.num_rows for b in blocks)
            assert (rows > 0) == hit
            # a miss is one typed empty block; with a 1-byte target each
            # partition that yielded rows is its own block
            assert (len(blocks) > 1) == (hit and target is not None)
            assert got.count() == rows == len(got.to_pandas())
            assert got.schema().base_schema == blocks[0].schema


def test_cluster_cpus_reads_the_session(ray_session, monkeypatch):
    assert pipeline._cluster_cpus() == 4  # conftest's session

    def broken():
        raise RuntimeError("GCS unreachable")

    monkeypatch.setattr(ray, "cluster_resources", broken)
    with pytest.raises(RuntimeError, match="GCS unreachable"):
        pipeline._cluster_cpus()
    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    assert pipeline._cluster_cpus() == 4  # before any session starts
