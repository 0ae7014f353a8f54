"""Dedup operators: exact, MinHash+LSH, SimHash, embedding cosine."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from rwcf import dedup


def make_docs(n=60, seed=0, near_frac=0.2):
    """Synthetic docs with planted exact copies AND near-dups (one word
    swapped)."""
    rng = np.random.default_rng(seed)
    vocab = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
             "golf", "hotel", "india", "juliet"]
    texts = [" ".join(rng.choice(vocab, 40)) for _ in range(n)]
    rows = [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    # exact copies of every 5th
    for i in range(0, n, 5):
        rows.append({"doc_id": i + 10_000, "text": texts[i]})
    # near-dups: swap one word of every 7th
    near = []
    for i in range(0, n, 7):
        words = texts[i].split()
        words[3] = "zulu"
        rows.append({"doc_id": i + 20_000, "text": " ".join(words)})
        near.append((i, i + 20_000))
    return pa.table({"doc_id": pa.array([r["doc_id"] for r in rows], pa.int64()),
                     "text": pa.array([r["text"] for r in rows], pa.string())}), near


def test_minhash_identical_docs_have_identical_signatures():
    t, _ = make_docs(20)
    sig = dedup.minhash_signatures(t)
    df = t.to_pandas()
    by_text = {}
    for i, txt in enumerate(df["text"]):
        by_text.setdefault(txt, []).append(i)
    for idxs in by_text.values():
        for j in idxs[1:]:
            assert np.array_equal(sig[idxs[0]], sig[j])


def test_minhash_signature_estimates_jaccard():
    t, near = make_docs(30)
    df = t.to_pandas().set_index("doc_id")
    sig = dedup.minhash_signatures(t)
    pos = {d: i for i, d in enumerate(df.index)}
    for a, b in near[:3]:
        est = (sig[pos[a]] == sig[pos[b]]).mean()
        sa = dedup._exact_doc_shingle_sets([df.loc[a, "text"]])[0]
        sb = dedup._exact_doc_shingle_sets([df.loc[b, "text"]])[0]
        true = dedup._jaccard_sets(sa, sb)
        assert abs(est - true) < 0.25  # 64 perms -> coarse but unbiased


def test_minhash_lsh_end_to_end(ray_session, tmp_path):
    import ray.data as rd
    t, near = make_docs(60)
    ds = rd.from_arrow(t)
    cand = dedup.minhash_lsh_candidates(ds)
    texts = t.to_pandas().set_index("doc_id")["text"].to_dict()
    verified = dedup.verify_pairs_jaccard(texts, cand, threshold=0.8)
    got = set(zip(verified["a_id"], verified["b_id"]))
    # planted exact copies must all be found (identical signatures)
    for i in range(0, 60, 5):
        assert (i, i + 10_000) in got
    # high-jaccard near-dups (39/40 words shared) should be found too
    found_near = sum((a, b) in got for a, b in near)
    assert found_near >= len(near) * 0.8
    # precision: every emitted pair truly has jaccard >= 0.8
    assert (verified["jaccard"] >= 0.8).all()


def test_simhash_bands_guarantee_small_hamming(ray_session):
    import ray.data as rd
    t, _ = make_docs(40)
    ds = rd.from_arrow(t)
    cand = dedup.simhash_candidates(ds)
    assert (cand["hamming"] <= 3).all()
    sig = dedup.simhash_signatures(t)
    df = t.to_pandas()
    pos = {d: i for i, d in enumerate(df["doc_id"])}
    got = set(zip(cand["a_id"], cand["b_id"]))
    # exhaustive check: every pair with hamming<=3 was surfaced (pigeonhole)
    n = len(df)
    ids = df["doc_id"].to_numpy()
    ai, bi = np.triu_indices(n, k=1)
    ham = dedup.hamming64(sig[ai], sig[bi])
    for k in np.flatnonzero(ham <= 3):
        a, b = sorted((ids[ai[k]], ids[bi[k]]))
        assert (a, b) in got


def test_embedding_near_dups(ray_session):
    import ray.data as rd
    rng = np.random.default_rng(3)
    base = rng.normal(size=(40, 16)).astype(np.float32)
    # plant: vec 50+i = tiny perturbation of vec i for i in 0..4
    vecs = np.concatenate([base, base[:5] + 0.001 * rng.normal(size=(5, 16)).astype(np.float32)])
    ids = np.concatenate([np.arange(40), np.arange(50, 55)])
    t = pa.table({"vec_id": pa.array(ids, pa.int64()),
                  "embedding": pa.array(list(vecs), pa.list_(pa.float32()))})
    ds = rd.from_arrow(t)
    pairs = dedup.embedding_near_dups_baseline(ds, threshold=0.95).to_pandas()
    got = set(zip(pairs["a_id"], pairs["b_id"]))
    for i in range(5):
        assert (i, 50 + i) in got
    # random 16-d gaussians almost never reach 0.95
    assert len(got) == 5


def test_exact_dedup(ray_session):
    import ray.data as rd
    t, _ = make_docs(30)
    ds = rd.from_arrow(t)
    out = dedup.dedup_exact(ds).to_pandas()
    df = t.to_pandas()
    expect = df.sort_values("doc_id").groupby("text", as_index=False).first()
    assert len(out) == len(expect)
    assert set(out["doc_id"]) == set(expect["doc_id"])


def test_minhash_tokens_batch():
    import pyarrow as pa
    toks = [[1, 2, 3, 4], [1, 2, 3, 4], [9, 9], []]
    t = pa.table({
        "doc_id": pa.array(["a", "b", "c", "d"], pa.string()),
        "tokens": pa.array(toks, pa.list_(pa.int32())),
    })
    out = dedup.minhash_tokens_batch(t).to_pandas()
    # identical token sequences -> identical folded signatures
    assert out["sig_hash"].iloc[0] == out["sig_hash"].iloc[1]
    assert out["sig_hash"].iloc[0] != out["sig_hash"].iloc[2]
    # deterministic
    out2 = dedup.minhash_tokens_batch(t).to_pandas()
    assert out["sig_hash"].tolist() == out2["sig_hash"].tolist()


def test_cluster_pairs_and_survivors():
    pairs = pd.DataFrame({"a_id": [1, 2, 10], "b_id": [2, 3, 11]})
    cl = dedup.cluster_pairs(pairs)
    by = dict(zip(cl["doc_id"], cl["cluster_id"]))
    assert by[1] == by[2] == by[3] == 1
    assert by[10] == by[11] == 10
    surv = dedup.dedup_survivors(pairs, ids=[1, 2, 3, 10, 11, 99])
    assert set(surv["doc_id"]) == {1, 10, 99}


def test_embedding_near_dups_lsh(ray_session):
    import ray.data as rd
    rng = np.random.default_rng(5)
    base = rng.normal(size=(60, 32)).astype(np.float32)
    vecs = np.concatenate([base, base[:8] + 0.001 * rng.normal(size=(8, 32)).astype(np.float32)])
    ids = np.concatenate([np.arange(60), np.arange(100, 108)])
    t = pa.table({"vec_id": pa.array(ids, pa.int64()),
                  "embedding": pa.array(list(vecs), pa.list_(pa.float32()))})
    ds = rd.from_arrow(t).repartition(4)
    pairs = dedup.embedding_near_dups_lsh(ds, threshold=0.95)
    got = set(zip(pairs["a_id"], pairs["b_id"]))
    # near-identical vectors share all band keys -> found with certainty
    found = sum((i, 100 + i) in got for i in range(8))
    assert found == 8
    # precision: verified-exact, so no random pair sneaks in
    assert len(got) == 8


def test_jaccard_empty_shingles_not_dup():
    """Two DISTINCT sub-shingle-length texts share no shingles and must not
    verify as duplicates; identical short texts still verify via the exact
    byte-equality short-circuit (ADVICE round 1)."""
    import pandas as pd
    texts = {1: "ab", 2: "cd", 3: "ab"}
    pairs = pd.DataFrame({"a_id": [1, 1], "b_id": [2, 3]})
    out = dedup.verify_pairs_jaccard(texts, pairs, threshold=0.8)
    assert out["a_id"].tolist() == [1] and out["b_id"].tolist() == [3]
    assert out["jaccard"].tolist() == [1.0]


def test_jaccard_texts_public_semantics():
    """Public jaccard_texts: identical texts are 1.0 at ANY length
    (including below the shingle length); different short texts are 0.0
    (ADVICE round 2: the set-level function alone could not express this)."""
    assert dedup.jaccard_texts("ab", "ab") == 1.0
    assert dedup.jaccard_texts("ab", "cd") == 0.0
    assert dedup.jaccard_texts("", "") == 1.0
    long_a = "the quick brown fox jumps over the lazy dog " * 4
    assert dedup.jaccard_texts(long_a, long_a) == 1.0
    assert 0.0 < dedup.jaccard_texts(long_a, long_a + "tail words") < 1.0


def test_verify_pairs_distributed_duplicate_candidates(ray_session):
    """k copies of a candidate pair must verify to ONE output row, not k^2
    (ADVICE round 2: pair_up's half-merge was quadratic in copies)."""
    import ray.data as rd
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["same text body here", "same text body here"]),
    }))
    pairs = rd.from_arrow(pa.table({
        "a_id": pa.array([1, 1, 1], pa.int64()),
        "b_id": pa.array([2, 2, 2], pa.int64()),
    }))
    out = dedup.verify_pairs_distributed(pairs, docs, threshold=0.8,
                                         mode="jaccard").to_pandas()
    assert len(out) == 1
    assert out.iloc[0]["sim"] == 1.0


@pytest.mark.parametrize("prune", [True, "semi", False])
def test_verify_pairs_prune_modes_agree(ray_session, prune):
    """All three prune modes (broadcast semi-join, distributed semi-join,
    none) verify the same pairs — round 3: prune='semi' removes the last
    driver-side id materialization from the verify path."""
    import ray.data as rd
    texts = {1: "the quick brown fox jumps over the lazy dog",
             2: "the quick brown fox jumps over the lazy dog",
             3: "a completely different document body text",
             4: "yet another unrelated piece of writing here",
             5: "the quick brown fox jumps over the lazy cat"}
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(list(texts), pa.int64()),
        "text": pa.array(list(texts.values()))})).repartition(3)
    pairs = rd.from_arrow(pa.table({
        "a_id": pa.array([1, 1, 3], pa.int64()),
        "b_id": pa.array([2, 5, 4], pa.int64())}))
    out = dedup.verify_pairs_distributed(pairs, docs, threshold=0.8,
                                         mode="jaccard",
                                         prune=prune).to_pandas()
    got = sorted(zip(out["a_id"], out["b_id"]))
    assert got == [(1, 2), (1, 5)]


def test_cluster_pairs_raises_on_round_cap():
    """Exiting by round cap instead of fixpoint must raise, not silently
    return split components (ADVICE round 2)."""
    import ray.data as rd
    pairs = rd.from_arrow(pa.table({
        "a_id": pa.array([1, 2, 3], pa.int64()),
        "b_id": pa.array([2, 3, 4], pa.int64()),
    }))
    with pytest.raises(RuntimeError, match="max_rounds"):
        dedup.cluster_pairs_ds(pairs, max_rounds=0)


# ------------------------------------------------ duplicate substrings


def _span_tbl(texts, ids=None):
    ids = list(range(len(texts))) if ids is None else ids
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "text": pa.array(texts, pa.string())})


def test_dup_ngram_counts_shared_span(ray_session):
    import ray.data as rd

    from rwcf import dedup
    S = "the-unique-shared-span-0123456789-abcdefg"  # 41 chars
    assert len(S) == 41
    texts = ["x" * 10 + S + "y" * 10,
             "p" * 10 + S + "q" * 10,
             "totally unrelated content " + "z" * 40,
             "T" * 40 + "T" * 40]  # internal repeat only: NOT a dup
    out = dedup.dup_ngram_counts_ds(
        rd.from_arrow(_span_tbl(texts)), width=41).to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    # docs 0 and 1 share exactly the single 41-byte window equal to S
    assert out["doc_id"].tolist() == [0, 1]
    assert out["n_dup_grams"].tolist() == [1, 1]


def test_dup_ngram_counts_exact_copies(ray_session):
    import ray.data as rd

    from rwcf import dedup
    base = "word soup body with plenty of characters to window over " * 3
    texts = [base, base, "another doc " + "k" * 60]
    out = dedup.dup_ngram_counts_ds(
        rd.from_arrow(_span_tbl(texts)), width=40).to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    n_windows = len(base) - 40 + 1
    n_distinct = len({base[i:i + 40] for i in range(n_windows)})
    assert out["doc_id"].tolist() == [0, 1]
    assert out["n_dup_grams"].tolist() == [n_distinct, n_distinct]


def test_dup_ngram_counts_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from rwcf import dedup
    rng = np.random.default_rng(11)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(15, 40)))
             for _ in range(40)]
    texts += [texts[0], texts[5]]  # planted copies
    ids = list(range(40)) + [100, 105]
    t = _span_tbl(texts, ids)
    mine = dedup.dup_ngram_counts_ds(rd.from_arrow(t), width=40) \
        .to_pandas().sort_values("doc_id", ignore_index=True)
    con = duckdb.connect()
    con.register("docs", t.to_pandas())
    want = con.execute("""
        WITH k AS (SELECT doc_id, text,
                   unnest(generate_series(1, strlen(text) - 39)) AS k
                   FROM docs),
        g AS (SELECT DISTINCT doc_id, substr(text, k, 40) AS gram FROM k),
        dup AS (SELECT gram FROM g GROUP BY gram HAVING count(*) >= 2)
        SELECT g.doc_id, CAST(count(*) AS BIGINT) AS n_dup_grams
        FROM g JOIN dup USING (gram) GROUP BY g.doc_id ORDER BY g.doc_id
    """).fetchdf()
    assert mine["doc_id"].tolist() == want["doc_id"].tolist()
    assert mine["n_dup_grams"].tolist() == want["n_dup_grams"].tolist()


def test_dup_ngram_counts_bloom_prune_parity(ray_session):
    import ray.data as rd

    from rwcf import dedup
    rng = np.random.default_rng(23)
    vocab = ["red", "blue", "green", "amber", "teal"]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(15, 35)))
             for _ in range(30)]
    texts += [texts[2], texts[9]]
    t = _span_tbl(texts, list(range(30)) + [200, 209])
    exact = dedup.dup_ngram_counts_ds(
        rd.from_arrow(t), width=40, prune="exact").to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    bloom = dedup.dup_ngram_counts_ds(
        rd.from_arrow(t), width=40, prune="bloom").to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    assert exact["doc_id"].tolist() == bloom["doc_id"].tolist()
    assert exact["n_dup_grams"].tolist() == bloom["n_dup_grams"].tolist()


def test_minhash_tokens_batch_set_equal_sequences_route_apart():
    # small-vocab corpora make token SETS identical across distinct docs;
    # the folded signature must still differ (order-sensitive poly hash +
    # length folded in), or exact-dedup routing degenerates into a
    # quadratic candidate clique (measured 4.6M candidates / 600+ s at
    # sf0.1 before the fix)
    import numpy as np
    import pyarrow as pa

    from rwcf import dedup

    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "tokens": pa.array([
            [1, 2, 3],          # base
            [3, 2, 1],          # same SET, different order
            [1, 2, 3, 3],       # same SET, different multiplicity/length
            [1, 2, 3],          # true duplicate of doc 1
        ], pa.list_(pa.int32())),
    })
    out = dedup.minhash_tokens_batch(t).to_pandas().set_index("doc_id")
    s = out["sig_hash"]
    assert s[1] == s[4]                      # identical sequences agree
    assert s[1] != s[2]                      # order-sensitive
    assert s[1] != s[3]                      # length/multiplicity-sensitive


def test_dup_rate_per_source_oracle(ray_session):
    import duckdb
    import ray.data as rd

    from rwcf.dedup import dup_rate_per_source
    sf = "/root/testdata/sf0.001"
    ds = rd.read_parquet(f"{sf}/documents.parquet",
                         columns=["source", "text"])
    out = dup_rate_per_source(ds, buckets=8).to_pandas() \
        .sort_values("source", ignore_index=True)
    exp = duckdb.sql(
        f"SELECT source, count(*) AS n, count(DISTINCT text) AS nd "
        f"FROM read_parquet('{sf}/documents.parquet') "
        f"GROUP BY 1 ORDER BY 1").df()
    assert out["source"].tolist() == exp["source"].tolist()
    assert out["n_docs"].tolist() == exp["n"].astype("int64").tolist()
    assert out["n_distinct_texts"].tolist() == \
        exp["nd"].astype("int64").tolist()
    bp = ((exp["n"].astype("int64") - exp["nd"].astype("int64"))
          * 10000) // exp["n"].astype("int64")
    assert out["dup_bp"].tolist() == bp.tolist()


def test_twophase_token_dedup_bloom_route_parity(ray_session, monkeypatch):
    """Round-5: token_dedup_twophase_ds's phase-2 member filter is
    size-routed. Forcing the bloom route (threshold=0) must produce the
    IDENTICAL pair set as the exact sorted-searchsorted route — bloom
    false positives only feed extra rows into the byte-exact verify."""
    import ray.data as rd
    rng = np.random.default_rng(31)
    toks = [rng.integers(0, 50, size=rng.integers(8, 20)).tolist()
            for _ in range(40)]
    toks += [toks[3], toks[11], toks[3]]  # planted duplicates
    ids = list(range(40)) + [103, 111, 203]
    t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "tokens": pa.array(toks, pa.list_(pa.int32()))})

    exact = dedup.token_dedup_twophase_ds(rd.from_arrow(t)) \
        .to_pandas().sort_values(["a_id", "b_id"], ignore_index=True)
    monkeypatch.setattr(dedup, "_PRUNE_AUTO_MAX_HASHES", 0)
    bloom = dedup.token_dedup_twophase_ds(rd.from_arrow(t)) \
        .to_pandas().sort_values(["a_id", "b_id"], ignore_index=True)
    assert exact[["a_id", "b_id"]].values.tolist() == \
        bloom[["a_id", "b_id"]].values.tolist()
    # ground truth: 3 copies of toks[3] -> 3 pairs; 1 copy of toks[11]
    got = set(map(tuple, exact[["a_id", "b_id"]].values))
    assert got == {(3, 103), (3, 203), (103, 203), (11, 111)}


def test_dup_ngram_auto_routes_by_size(ray_session, monkeypatch):
    """prune='auto' (new default) picks exact under the threshold and
    bloom above it, with bit-identical results (the existing
    exact-vs-bloom parity plus the routing itself)."""
    import ray.data as rd
    rng = np.random.default_rng(37)
    vocab = ["red", "blue", "green", "amber", "teal"]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(15, 35)))
             for _ in range(30)]
    texts += [texts[2], texts[9]]
    ids = list(range(30)) + [200, 209]
    t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array(texts, pa.string())})

    auto_small = dedup.dup_ngram_counts_ds(rd.from_arrow(t), width=40) \
        .to_pandas().sort_values("doc_id", ignore_index=True)
    exact = dedup.dup_ngram_counts_ds(rd.from_arrow(t), width=40,
                                      prune="exact") \
        .to_pandas().sort_values("doc_id", ignore_index=True)
    monkeypatch.setattr(dedup, "_PRUNE_AUTO_MAX_HASHES", 0)
    auto_bloom = dedup.dup_ngram_counts_ds(rd.from_arrow(t), width=40) \
        .to_pandas().sort_values("doc_id", ignore_index=True)
    for got in (auto_small, auto_bloom):
        assert got["doc_id"].tolist() == exact["doc_id"].tolist()
        assert got["n_dup_grams"].tolist() == exact["n_dup_grams"].tolist()
