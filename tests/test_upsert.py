"""Upsert (append-then-shadow): updates, inserts, idempotent re-runs,
crash-window convergence, and index-path visibility.

Composed entirely from the store's two mutation primitives (resume-safe
append + exclude-guarded delete); the reference has no mutation path at
all (write-once sink, src/lib.rs:29).
"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rwcf import fixtures, pipeline


def _rows(pairs):
    """(doc_id, text) pairs -> TOKENS_SCHEMA table (byte tokenization)."""
    ids, texts = zip(*pairs)
    toks = [np.frombuffer(t.encode(), dtype=np.uint8).astype(np.int32)
            for t in texts]
    offsets = np.concatenate(([0], np.cumsum([t.size for t in toks])))
    la = pa.LargeListArray.from_arrays(
        offsets.astype(np.int64),
        pa.array(np.concatenate(toks) if toks else [], pa.int32())) \
        .cast(pa.list_(pa.int32()))
    return pa.table({
        "doc_id": pa.array(list(ids), pa.string()),
        "tokens": la,
        "n_tok": pa.array([t.size for t in toks], pa.int32()),
        "source": pa.array(["upsert"] * len(ids), pa.string()),
    })


UPDATED = [(f"doc-{i:012d}", f"updated-{i}") for i in (5, 111, 399)]
INSERTED = [("doc-zzz-new-0001", "brand new one"),
            ("doc-zzz-new-0002", "brand new two")]


@pytest.fixture()
def store(tmp_path, ray_session):
    path = fixtures.tokens_parquet(400, seed=37,
                                   cache_dir=str(tmp_path / "tok"),
                                   row_group_size=100)
    out = str(tmp_path / "out")
    cfg = pipeline.EncodeConfig(out_dir=out, partition_token_budget=40_000,
                                bloom_bits_per_key=10)
    pipeline.encode_job(path, cfg, concurrency=2).materialize()
    return {"out": out, "src": path}


def _expect(src_path):
    t = pq.read_table(src_path).to_pandas().set_index("doc_id")
    up = _rows(UPDATED + INSERTED).to_pandas().set_index("doc_id")
    for did in up.index:
        t.loc[did] = up.loc[did]
    return t.sort_index()


def _decoded(out):
    return pipeline.decode_job(out, concurrency=2).to_pandas() \
        .set_index("doc_id").sort_index()


def test_upsert_updates_and_inserts(store):
    res = pipeline.upsert_docs(store["out"], _rows(UPDATED + INSERTED),
                               concurrency=2)
    assert res["rows_upserted"] == 5
    assert res["rows_shadowed"] == len(UPDATED)  # inserts shadow nothing
    want = _expect(store["src"])
    got = _decoded(store["out"])
    assert got.index.tolist() == want.index.tolist()
    assert all(np.array_equal(a, b) for a, b in
               zip(got["tokens"], want["tokens"]))
    assert got["source"].tolist() == want["source"].tolist()

    # point lookup sees the NEW version only (bloom path included)
    found = pipeline.lookup_docs(store["out"],
                                 [UPDATED[0][0], INSERTED[0][0]],
                                 concurrency=2).to_pandas()
    bytxt = {r["doc_id"]: bytes(np.asarray(r["tokens"], np.uint8)).decode()
             for _, r in found.iterrows()}
    assert bytxt == {UPDATED[0][0]: UPDATED[0][1],
                     INSERTED[0][0]: INSERTED[0][1]}

    # idempotent re-run: same staged content converges with no new work
    res2 = pipeline.upsert_docs(store["out"], _rows(UPDATED + INSERTED),
                                concurrency=2)
    assert res2["run_id"] == res["run_id"]
    assert res2["rows_shadowed"] == 0
    got2 = _decoded(store["out"])
    assert got2.index.tolist() == want.index.tolist()


def test_upsert_crash_window_converges(store):
    """Crash after the append step but before the shadow pass: both
    versions are transiently visible; re-running the same upsert
    converges."""
    new = _rows(UPDATED)
    cfg = pipeline.EncodeConfig(out_dir=store["out"], bloom_bits_per_key=10)
    import hashlib
    h = hashlib.sha1()
    for c in ("doc_id", "n_tok"):
        for buf in new.column(c).combine_chunks().buffers():
            if buf is not None:
                h.update(buf)
    for buf in new.column("tokens").combine_chunks().flatten().buffers():
        if buf is not None:
            h.update(buf)
    rid = h.hexdigest()[:12]
    import os
    ingest = os.path.join(store["out"], "ingest")
    os.makedirs(ingest, exist_ok=True)
    staged = os.path.join(ingest, f"upsert-{rid}.parquet")
    pq.write_table(new.cast(pipeline.TOKENS_SCHEMA), staged)
    pipeline.encode_job(staged, cfg, concurrency=2).materialize()
    dup = _decoded(store["out"])
    assert len(dup) == 400 + len(UPDATED)  # anomaly window: both versions

    res = pipeline.upsert_docs(store["out"], new, concurrency=2)
    assert res["run_id"] == rid  # same deterministic staging reused
    assert res["rows_shadowed"] == len(UPDATED)
    got = _decoded(store["out"])
    assert len(got) == 400
    for did, txt in UPDATED:
        assert bytes(np.asarray(got.loc[did, "tokens"],
                                np.uint8)).decode() == txt


def test_second_upsert_overwrites_first(store):
    pipeline.upsert_docs(store["out"], _rows(UPDATED), concurrency=2)
    v2 = [(UPDATED[0][0], "updated-again")]
    res = pipeline.upsert_docs(store["out"], _rows(v2), concurrency=2)
    assert res["rows_shadowed"] == 1  # shadows the v1 upsert partition
    got = _decoded(store["out"])
    assert len(got) == 400
    assert bytes(np.asarray(got.loc[v2[0][0], "tokens"],
                            np.uint8)).decode() == "updated-again"

@pytest.mark.parametrize("case", ["bloom", "plain", "unmerged_branch"])
def test_upsert_bloom_follows_the_store(tmp_path, ray_session, monkeypatch,
                                        case):
    """With cfg=None an upsert's new partition gets a Bloom sidecar when
    the store's main view has one and none otherwise (Bloom partitions
    that sit only on an unmerged branch do not count), and the answer
    comes from the one manifest load that plans both the append and the
    shadow delete."""
    path = fixtures.tokens_parquet(200, seed=38,
                                   cache_dir=str(tmp_path / "tok"),
                                   row_group_size=100)
    out = str(tmp_path / "out")
    bits = 10 if case == "bloom" else 0
    cfg = pipeline.EncodeConfig(out_dir=out, partition_token_budget=40_000,
                                bloom_bits_per_key=bits)
    pipeline.encode_job(path, cfg, concurrency=2).materialize()
    if case == "unmerged_branch":
        pipeline.create_branch(out, "dev")
        batch = str(tmp_path / "branch.parquet")
        pq.write_table(_rows(INSERTED[1:]).cast(pipeline.TOKENS_SCHEMA),
                       batch)
        st = pipeline.stage_append(out, batch, cfg=pipeline.EncodeConfig(
            out_dir=out, bloom_bits_per_key=10))
        pipeline.publish_staged(out, st["staging_id"], branch="dev")
        on_branch = [r for r in pipeline.load_manifest(
            out, include_replaced=True) if r.get("branch") == "dev"]
        assert on_branch and all(pipeline.read_bloom(r, "doc_id")
                                 is not None for r in on_branch)
    loads = []
    orig = pipeline.load_manifest

    def counting(*a, **k):
        loads.append(a)
        return orig(*a, **k)

    monkeypatch.setattr(pipeline, "load_manifest", counting)
    res = pipeline.upsert_docs(out, _rows(UPDATED[:1] + INSERTED[:1]))
    monkeypatch.undo()
    assert len(loads) == 1
    assert res["new_partitions"] == 1 and res["rows_shadowed"] == 1
    new = [r for r in pipeline.load_manifest(out)
           if r["pid"].startswith("upsert-")]
    assert len(new) == 1
    assert (pipeline.read_bloom(new[0], "doc_id") is not None) == bool(bits)


@pytest.mark.parametrize("fault,fails,calls", [
    (OSError, 3, 4), (OSError, 4, 4), (ValueError, 1, 1)])
def test_upsert_driver_encode_retries_io_faults(store, monkeypatch, fault,
                                                fails, calls):
    """A one-fragment upsert encodes in the driver and retries an OSError
    up to 3 times, like the Ray stage's task retries; any other error,
    or a fourth OSError, fails the upsert."""
    seen = []
    orig = pipeline.encode_fragment_batch

    def flaky(*a, **k):
        seen.append(1)
        if len(seen) <= fails:
            raise fault("injected")
        return orig(*a, **k)

    monkeypatch.setattr(pipeline, "encode_fragment_batch", flaky)
    if fails >= calls:
        with pytest.raises(fault, match="injected"):
            pipeline.upsert_docs(store["out"], _rows(UPDATED))
    else:
        res = pipeline.upsert_docs(store["out"], _rows(UPDATED))
        assert res["new_partitions"] == 1
        assert res["rows_shadowed"] == len(UPDATED)
    assert len(seen) == calls
