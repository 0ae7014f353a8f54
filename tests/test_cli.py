"""Operational CLI (python -m rwcf) — subprocess-level, the real surface."""

import json
import os
import subprocess
import sys

import pyarrow.parquet as pq
import pytest

from rwcf import fixtures

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-m", "rwcf", *args],
                         capture_output=True, text=True, env=env, cwd=REPO)
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("dummy", [0])
def test_cli_end_to_end(tmp_path, dummy):
    src = fixtures.tokens_parquet(1000, seed=3, cache_dir=str(tmp_path),
                                  row_group_size=250)
    out = str(tmp_path / "enc")
    r = run_cli("encode", src, "--out", out, "--num-cpus", "4")
    assert r["rows"] == 1000 and r["partitions"] >= 1
    assert r["bytes_per_token"] < 2.1  # beats the reference footprint rate

    s = run_cli("stats", out)
    assert s["tokens"] == r["tokens"]
    assert s["bytes_by_column_codec"]

    rs = run_cli("resume-status", src, "--out", out)
    assert rs["pending_count"] == 0 and rs["committed"] == rs["fragments"]

    v = run_cli("verify", out, "--num-cpus", "4")
    assert v["bit_identical"] is True

    dec = str(tmp_path / "dec")
    d = run_cli("decode", out, "--out", dec, "--num-cpus", "4")
    assert d["rows"] == 1000
    got = pq.read_table(dec).to_pandas().sort_values("doc_id")
    want = pq.read_table(src).to_pandas().sort_values("doc_id")
    assert got["doc_id"].tolist() == want["doc_id"].tolist()


def test_resume_status_counts_rows_not_pids(tmp_path):
    # a fragment with only part of its sub-partitions committed is PENDING
    import json as _json
    from rwcf import pipeline
    src = fixtures.tokens_parquet(1000, seed=5, cache_dir=str(tmp_path),
                                  row_group_size=500)
    out = str(tmp_path / "enc2")
    cfg = pipeline.EncodeConfig(out_dir=out, partition_token_budget=50_000)
    frags = pipeline.plan_fragments(src)
    pipeline.encode_fragment(frags[0], cfg, resume=False)
    # drop one committed sub-partition -> row coverage incomplete
    rows = pipeline.load_manifest(out)
    victim = rows[0]
    os.remove(os.path.join(out, "manifest", victim["pid"] + ".json"))
    r = run_cli("resume-status", src, "--out", out)
    assert r["committed"] == 0 or frags[0]["fragment_id"] in r["pending"]
    assert r["pending_count"] == len(frags)  # frag 0 partial, frag 1 untouched


def test_cli_round4_surfaces(tmp_path):
    """fsck / vacuum --plan-only / bucket / join / update subcommands."""
    src = fixtures.tokens_parquet(600, seed=7, cache_dir=str(tmp_path),
                                  row_group_size=200)
    out = str(tmp_path / "enc")
    run_cli("encode", src, "--out", out, "--num-cpus", "4")

    f = run_cli("fsck", out, "--deep", "--num-cpus", "4")
    assert f["ok"] is True and f["checks"]["section_crc"]["violations"] == 0

    vp = run_cli("vacuum", out, "--plan-only", "--num-cpus", "4")
    assert "compaction_groups" in json.dumps(vp) or isinstance(vp, dict)

    u = run_cli("update", out, "--set-col", "source", "--value", "redone",
                "--pred-col", "n_tok", "--between", "100", "300",
                "--num-cpus", "4")
    assert u["rows_matched"] > 0

    ba = str(tmp_path / "ba")
    b = run_cli("bucket", src, "--out", ba, "--key", "doc_id",
                "--buckets", "4", "--num-cpus", "4")
    assert b["rows"] == 600 and b["buckets"] == 4

    bb = str(tmp_path / "bb")
    run_cli("bucket", src, "--out", bb, "--key", "doc_id",
            "--buckets", "4", "--columns", "doc_id,source",
            "--token-budget", "100000", "--num-cpus", "4")
    jout = str(tmp_path / "joined")
    j = run_cli("join", ba, bb, "--out", jout, "--on", "doc_id",
                "--columns-l", "doc_id,n_tok", "--columns-r",
                "doc_id,source", "--num-cpus", "4")
    assert j["strategy"] == "spj" and j["est_bytes_exchanged"] == 0
    got = pq.read_table(jout).to_pandas()
    assert len(got) == 600 and {"doc_id", "n_tok", "source"} <= set(
        got.columns)


def test_cli_view_commands(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pqt
    src = fixtures.tokens_parquet(300, seed=9, cache_dir=str(tmp_path),
                                  row_group_size=100)
    a = str(tmp_path / "a")
    run_cli("bucket", src, "--out", a, "--key", "doc_id", "--buckets",
            "4", "--num-cpus", "4")
    b = str(tmp_path / "b")
    run_cli("bucket", src, "--out", b, "--key", "doc_id", "--buckets",
            "4", "--columns", "doc_id,source", "--token-budget",
            "100000", "--num-cpus", "4")
    # build the view via the library, then drive it via the CLI
    import subprocess, sys
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO + os.pathsep + env.get("PYTHONPATH", "")
    view = str(tmp_path / "view")
    code = (
        "import ray; ray.init(address='local', num_cpus=4, "
        "include_dashboard=False, logging_level='ERROR');"
        "from rwcf import spj;"
        f"spj.materialize_join_view({view!r}, {a!r}, {b!r}, "
        "columns_a=['doc_id','n_tok'], columns_b=['doc_id','source'])")
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   capture_output=True, cwd=REPO)
    st = run_cli("view-status", view)
    assert st["stale"] == 0
    # append a second batch to one side -> stale; view-refresh heals
    extra = pa.table({"doc_id": pa.array(["zz-1"]),
                      "source": pa.array(["late"])})
    ep = str(tmp_path / "extra.parquet")
    pqt.write_table(extra, ep)
    run_cli("bucket", ep, "--out", b, "--key", "doc_id", "--buckets",
            "4", "--columns", "doc_id,source", "--token-budget",
            "100000", "--num-cpus", "4")
    out = subprocess.run([sys.executable, "-m", "rwcf", "view-status",
                          view], capture_output=True, text=True, env=env,
                         cwd=REPO)
    assert out.returncode == 1  # stale -> nonzero exit
    r = run_cli("view-refresh", view, "--num-cpus", "4")
    assert r["refreshed"] >= 1
    assert run_cli("view-status", view)["stale"] == 0


def test_cli_cluster_and_ann(tmp_path):
    """Round-5 operational surface: cluster (full + incremental no-op)
    and ann-build/ann-query subcommands."""
    src = fixtures.tokens_parquet(400, seed=7, cache_dir=str(tmp_path),
                                  row_group_size=100)
    out = str(tmp_path / "enc")
    run_cli("encode", src, "--out", out, "--num-cpus", "4",
            "--token-budget", "30000")
    r = run_cli("cluster", out, "--by", "doc_id",
                "--token-budget", "30000", "--num-cpus", "4")
    assert r["committed"] is True and r["parts_after"] >= 1
    r2 = run_cli("cluster", out, "--by", "doc_id", "--incremental",
                 "--token-budget", "30000", "--num-cpus", "4")
    assert r2["committed"] is False and r2["parts_rewritten"] == 0

    emb = "/root/testdata/sf0.001/embeddings.parquet"
    store = str(tmp_path / "ann")
    b = run_cli("ann-build", emb, "--out", store, "--clusters", "8",
                "--row-budget", "128", "--num-cpus", "4")
    assert b["rows"] == 500 and b["partitions"] >= 4
    q = run_cli("ann-query", store, "--queries", emb,
                "--query-ids", "0,1", "--k", "5", "--nprobe", "2",
                "--num-cpus", "4")
    assert len(q["results"]) == 10  # 2 queries x top-5
    assert q["io"]["bytes_admitted"] < q["io"]["bytes_total"]
    # append a rekeyed batch against the committed centroids
    import pyarrow.parquet as _pq
    t = _pq.read_table(emb, columns=["vec_id", "embedding"])
    t = t.set_column(0, "vec_id",
                     __import__("pyarrow.compute", fromlist=["x"])
                     .add(t.column("vec_id"), 10_000))
    emb2 = str(tmp_path / "b2.parquet")
    _pq.write_table(t, emb2)
    b2 = run_cli("ann-build", emb2, "--out", store, "--append-tag",
                 "day2", "--row-budget", "128", "--num-cpus", "4")
    assert b2["rows"] == 500


def test_cli_sketch(tmp_path):
    src = fixtures.tokens_parquet(300, seed=8, cache_dir=str(tmp_path),
                                  row_group_size=100)
    out = str(tmp_path / "enc")
    run_cli("encode", src, "--out", out, "--num-cpus", "4",
            "--token-budget", "30000")
    r = run_cli("sketch", out, "--column", "doc_id", "--query",
                "--num-cpus", "4")
    assert r["built"] == r["partitions"] > 1
    assert abs(r["n_distinct_est"] - 300) / 300 < 0.05


def test_cli_update_isnull_and_notnull_conflict(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-m", "rwcf", "update", str(tmp_path),
         "--set-col", "n_tok", "--value", "1", "--pred-col", "source",
         "--isnull", "--notnull"],
        capture_output=True, text=True, env=env, cwd=REPO)
    assert out.returncode != 0
    assert "not allowed with argument" in out.stderr


def test_cli_stats_selector_block(tmp_path):
    src = fixtures.tokens_parquet(600, seed=5, cache_dir=str(tmp_path),
                                  row_group_size=200)
    out = str(tmp_path / "enc")
    r = run_cli("encode", src, "--out", out, "--num-cpus", "2")
    s = run_cli("stats", out)
    sel = s["selector"]
    assert set(sel) == {"doc_id", "tokens", "n_tok", "source"}
    for col, blk in sel.items():
        assert sum(blk["codecs"].values()) == r["partitions"], col
        assert blk["stored_bytes"] > 0
        assert blk["select_ms"] > 0
        # stored-bytes estimates track the zstd-framed sections
        assert abs(blk["estimate_error"]) < 0.5, (col, blk)
    # sequential doc ids stay plain under the default zstd transport
    assert sel["doc_id"]["codecs"] == {"plain": r["partitions"]}
    stored = sum(v for k, v in s["bytes_by_column_codec"].items()
                 if k.startswith("tokens:"))
    assert sel["tokens"]["stored_bytes"] == stored
