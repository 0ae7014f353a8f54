"""The shared bucketed exchange (rwcf.joins.exchange / collect /
declare_schema): routing, typed results with no rows, the zero-row paths
it made uniform, decode_job's declared schema, and a guard against
hand-rolled shuffles coming back."""

import logging
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rwcf import analytics, dedup, fixtures, pipeline, windows
from rwcf.joins import (collect, declare_schema, exchange, hash_bucket,
                        hash_join, known_schema)

@pytest.mark.parametrize("keys", [["k"], None])
def test_every_row_lands_in_its_bucket(ray_session, keys):
    import ray.data as rd
    routed = pa.schema([("k", pa.int64()), ("_b", pa.int32()),
                        ("n_b", pa.int64())])

    def rows(g: pa.Table) -> pa.Table:
        # each row's key and bucket, plus how many buckets its group held
        n_b = len(np.unique(g.column("_b").to_numpy()))
        return pa.table({"k": g.column("k"), "_b": g.column("_b"),
                         "n_b": pa.array(np.full(g.num_rows, n_b, np.int64))})

    k = np.arange(200, dtype=np.int64) * 7919 % 1009
    t = pa.table({"k": pa.array(k)})
    if keys is None:  # the caller's own map stage set _b
        t = t.append_column("_b", pa.array(hash_bucket(k, buckets=8)))
    out = exchange(rd.from_arrow(t).repartition(5), rows, buckets=8,
                   schema=routed, keys=keys)
    df = out.to_pandas()
    assert len(df) == 200
    expect = hash_bucket(df["k"].to_numpy(), buckets=8)
    np.testing.assert_array_equal(df["_b"].to_numpy(), expect)
    assert (df["n_b"] == 1).all()


def test_string_keys_route_like_hash_bucket(ray_session):
    import ray.data as rd
    words = [f"w{i % 13}" for i in range(60)]
    schema = pa.schema([("w", pa.string()), ("_b", pa.int32())])
    out = exchange(rd.from_arrow(pa.table({"w": words})),
                   lambda g: g.select(["w", "_b"]), buckets=4,
                   schema=schema, keys=["w"]).to_pandas()
    np.testing.assert_array_equal(
        out["_b"].to_numpy(),
        hash_bucket(out["w"].to_numpy(dtype=object), buckets=4))


def test_more_buckets_than_keys_keeps_declared_types(ray_session):
    import ray.data as rd
    t = pa.table({"k": pa.array([1, 2, 1, 2], pa.int64()),
                  "v": pa.array([1.0, 2.0, 3.0, 4.0])})
    schema = pa.schema([("k", pa.int64()), ("total", pa.float64())])

    def total(g: pa.Table) -> pa.Table:
        return pa.table({"k": [g.column("k")[0].as_py()],
                         "total": [float(np.sum(g.column("v")))]})

    out = exchange(rd.from_arrow(t), total, buckets=16, schema=schema,
                   keys=["k"])
    assert known_schema(out) == schema  # declared, nothing executed
    df = collect(out, schema).sort_values("k", ignore_index=True)
    assert df["total"].tolist() == [4.0, 6.0]
    assert df.dtypes.to_dict() == {"k": np.int64, "total": np.float64}

    # every group emits nothing: the typed empty frame, not a column-less
    # one (Ray's own to_pandas of this result has no columns)
    none = exchange(rd.from_arrow(t), lambda g: g.slice(0, 0), buckets=16,
                    schema=schema, keys=["k"])
    assert list(none.to_pandas().columns) == []
    df = collect(none, schema)
    assert list(df.columns) == ["k", "total"] and len(df) == 0
    assert df.dtypes.to_dict() == {"k": np.int64, "total": np.float64}


def test_group_output_is_cast_to_the_declared_schema(ray_session):
    import ray.data as rd
    schema = pa.schema([("k", pa.int32())])
    out = exchange(rd.from_arrow(pa.table({"k": [3, 4]})),
                   lambda g: g.select(["k"]), buckets=2, schema=schema,
                   keys=["k"])
    blocks = _block_schemas(out)
    assert blocks and all(b == schema for b in blocks)


def test_fully_empty_input_is_typed_and_joinable(ray_session):
    import ray.data as rd
    schema = pa.schema([("doc_id", pa.int64()), ("n", pa.int64())])
    empty = rd.from_arrow(pa.table({"doc_id": pa.array([], pa.int64())}))
    out = exchange(empty, lambda g: g.append_column(
        "n", pa.array(np.ones(g.num_rows, np.int64))).select(["doc_id", "n"]),
        buckets=4, schema=schema, keys=["doc_id"])
    assert out.schema().base_schema == schema
    right = rd.from_arrow(pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                                    "x": pa.array(["a", "b"])}))
    joined = hash_join(out, right, on="doc_id", buckets=4)
    df = collect(joined, joined.schema().base_schema)
    assert list(df.columns) == ["doc_id", "n", "doc_id_r", "x"]
    assert len(df) == 0


# -- the zero-row paths whose per-site workarounds the exchange replaced --

def _no_words():
    import ray.data as rd
    return rd.from_arrow(pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                                   "text": pa.array(["  ", ""])}))


def test_hll_distinct_count_of_no_words():
    out = analytics.distinct_token_count_approx(_no_words())
    assert out["n_distinct_approx"].tolist() == [0]


def test_cms_top_tokens_of_no_words():
    out = analytics.cms_top_tokens(_no_words(), k=3)
    assert list(out.columns) == ["token", "n_est"] and len(out) == 0


def test_bottomk_quantiles_of_all_nan(ray_session):
    import ray.data as rd
    t = pa.table({"event_id": pa.array([1, 2, 3], pa.int64()),
                  "value": pa.array([np.nan, np.nan, np.nan])})
    out = analytics.bottomk_sample_quantiles(rd.from_arrow(t))
    assert list(out.columns) == ["q", "v", "n_total"] and len(out) == 0


def test_simhash_candidates_of_distinct_texts(ray_session):
    import ray.data as rd
    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": ["alpha beta gamma delta",
                           "zzzz qqqq wwww pppp xxxx"]})
    out = dedup.simhash_candidates(rd.from_arrow(t))
    assert list(out.columns) == ["a_id", "b_id", "hamming"] and len(out) == 0


# -- decode_job declares its output schema from lineage --

@pytest.fixture(scope="module")
def store(tmp_path_factory, ray_session):
    tmp = tmp_path_factory.mktemp("exchange_store")
    path = fixtures.tokens_parquet(600, seed=5, cache_dir=str(tmp),
                                   row_group_size=100)
    t = pq.read_table(path)
    idx = np.arange(t.num_rows)
    t = t.append_column("score", pa.array(idx % 50, pa.int64(),
                                          mask=idx % 4 == 0))
    src = str(tmp / "scored.parquet")
    pq.write_table(t, src, row_group_size=100)
    out = str(tmp / "enc")
    cfg = pipeline.EncodeConfig(
        out_dir=out, partition_token_budget=20_000,
        columns=["doc_id", "tokens", "n_tok", "source", "score"])
    pipeline.encode_job(src, cfg).materialize()
    return {"out": out, "snap": pipeline.create_snapshot(out)["snapshot"]}


def _block_schemas(ds):
    import ray
    return [t.schema for t in ray.get(ds.to_arrow_refs()) if t.num_columns]


@pytest.mark.parametrize("kw", [{}, {"columns": ["source", "doc_id"]},
                                {"columns": ["score"]}])
def test_decode_job_declares_its_block_schema(store, kw):
    ds = pipeline.decode_job(store["out"], **kw)
    declared = known_schema(ds)
    assert declared is not None
    blocks = _block_schemas(ds)
    assert blocks and all(s.equals(declared) for s in blocks)


def test_decode_job_snapshot_read_declares_its_schema(store):
    ds = pipeline.decode_job(store["out"], snapshot=store["snap"],
                             columns=["doc_id"])
    assert known_schema(ds) == pa.schema([("doc_id", pa.string())])
    assert all(s.equals(known_schema(ds)) for s in _block_schemas(ds))


def test_decode_job_to_arrow_refs_decodes_each_partition_once(
        store, tmp_path, monkeypatch):
    import ray
    calls = str(tmp_path / "calls")
    real = pipeline.decode_partition_batch

    def counting(batch, columns=None):
        with open(calls, "a") as f:
            f.write("x" * batch.num_rows)
        return real(batch, columns)

    monkeypatch.setattr(pipeline, "decode_partition_batch", counting)
    ray.get(pipeline.decode_job(store["out"]).to_arrow_refs())
    n_parts = len(pipeline.load_manifest(store["out"]))
    with open(calls) as f:
        assert len(f.read()) == n_parts


def test_declare_schema_none_declares_nothing(ray_session):
    import ray.data as rd
    ds = rd.from_arrow(pa.table({"a": [1]})).map_batches(
        lambda t: t, batch_format="pyarrow")
    assert known_schema(declare_schema(ds, None)) is None


# -- guards --

#: sites that group by something other than the exchange's ``_b`` buckets
#: or run without its repartition cap (CHANGES.md lists the reasons)
EXCEPTIONS = {"joins.py": 4, "grouped.py": 1, "curation.py": 2,
              "annstore.py": 1, "spj.py": 1, "similarity.py": 1,
              "dedup.py": 3, "relational.py": 1}


def test_no_hand_rolled_bucketed_shuffles():
    root = os.path.join(os.path.dirname(os.path.dirname(__file__)), "rwcf")
    found = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            with open(os.path.join(dirpath, name)) as f:
                src = f.read()
            n = len(re.findall(r"\.map_groups\(", src))
            if n:
                found[name] = n
            if name != "joins.py":
                assert 'groupby("_b")' not in src or name in EXCEPTIONS, name
    assert found == EXCEPTIONS


def _warnings_of(run) -> int:
    """Ray Data "RefBundle with a different schema" warnings while
    ``run`` executes (the executor logs them in the driver)."""
    seen = []

    class Count(logging.Handler):
        def emit(self, record):
            if "different schema" in record.getMessage():
                seen.append(record)

    log = logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state")
    h = Count(level=logging.WARNING)
    log.addHandler(h)
    try:
        run()
    finally:
        log.removeHandler(h)
    return len(seen)


#: count over the pipeline below before the shared exchange existed
#: (each site shuffling by hand); it must not rise
WARNINGS_BEFORE = 4


def test_schema_warnings_do_not_rise(ray_session):
    import ray.data as rd
    rng = np.random.default_rng(31)
    toks = [rng.integers(0, 50, size=rng.integers(8, 20)).tolist()
            for _ in range(40)]
    toks += [toks[3], toks[11], toks[3]]
    tok = pa.table({"doc_id": pa.array(list(range(43)), pa.int64()),
                    "tokens": pa.array(toks, pa.list_(pa.int32()))})
    n = 500
    ev = pa.table({
        "user_id": pa.array(rng.integers(0, 20, n), pa.int64()),
        "ts": pa.array(((1_700_000_000 + np.sort(rng.integers(0, 86400, n)))
                        * 1_000_000).astype("datetime64[us]")),
        "value": pa.array(rng.normal(10, 3, n))})

    def run():
        pairs = dedup.token_dedup_twophase_ds(rd.from_arrow(tok)).to_pandas()
        sess = windows.session_windows(rd.from_arrow(ev).repartition(4),
                                       gap_s=1800).to_pandas()
        assert len(pairs) == 4 and len(sess) > 0

    assert _warnings_of(run) <= WARNINGS_BEFORE
