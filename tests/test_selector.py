"""Codec auto-selector (SURVEY.md §2.3): sample -> estimate -> min choice."""

import math

import numpy as np
import pytest

from rwcf import format as fmt
from rwcf import selector
from tests.test_codecs import chunk_equal, mk_chunk


def test_selector_prefers_rle_on_runs():
    # org:267-281 "good example": long runs
    vals = np.repeat(np.arange(20, dtype=np.int64), 5000)
    choice = selector.choose_codec(vals, "i64")
    # rle collapses 100k values to 20 tuples; must beat the packed codecs
    assert choice.codec == "rle"


def test_selector_avoids_rle_on_alternation():
    # org:288-300 "bad example": strict alternation — rle strictly worse
    vals = np.tile(np.array([100_000, 200_000], dtype=np.int64), 5000)
    choice = selector.choose_codec(vals, "i64")
    assert choice.estimates["rle"] > choice.estimates[choice.codec]
    assert choice.codec != "rle"


def test_selector_picks_dict_for_low_cardinality_strings():
    vals = (["source-alpha"] * 700 + ["source-beta"] * 200 + ["source-gamma"] * 100) * 10
    rng = np.random.default_rng(0)
    vals = [vals[i] for i in rng.permutation(len(vals))]  # kill runs
    chunk = mk_chunk(vals, "str")
    choice = selector.choose_codec(chunk, "str")
    assert choice.codec == "dict"


def test_selector_picks_small_width_codec_for_clustered_ints():
    rng = np.random.default_rng(1)
    vals = (rng.integers(0, 1 << 14, 50_000)).astype(np.int64) + 1_000_000_000
    choice = selector.choose_codec(vals, "i64")
    assert choice.codec == "for"  # subtract base -> 14-bit deltas


def test_selector_roundtrip_auto():
    rng = np.random.default_rng(2)
    for dtype, chunk in [
        ("i64", np.repeat(rng.integers(0, 50, 2000), rng.integers(1, 9, 2000)).astype(np.int64)),
        ("i32", rng.integers(0, 50257, 30_000).astype(np.int32)),
        ("str", mk_chunk(["doc-%012d" % i for i in range(5000)], "str")),
        ("str", mk_chunk(["s%d" % (i % 5) for i in range(5000)], "str")),
    ]:
        enc, choice = selector.encode_auto(chunk, dtype)
        out = fmt.decode_chunk(enc)
        assert chunk_equal(chunk, out, dtype), (dtype, choice.codec)
        # actual size should be in the ballpark of the estimate (same order)
        assert enc.encoded_bytes <= max(2.5 * choice.estimate + 1024, 4096), \
            (dtype, choice.codec, enc.encoded_bytes, choice.estimate)


def test_selector_fsst_wins_on_common_prefix_unique_strings():
    chunk = mk_chunk(["doc-%012d" % i for i in range(20000)], "str")
    choice = selector.choose_codec(chunk, "str")
    # unique strings: dict can't win; shared 'doc-00000' prefixes favor fsst
    assert choice.codec == "fsst"
    enc = fmt.encode_chunk(chunk, "str", "fsst")
    # must actually compress: < 1 byte less than raw payload per string at least
    assert enc.encoded_bytes < int(chunk[0].sum())


def test_selector_picks_dd_on_regular_cadence():
    # evenly spaced timestamps (int64 us on a 1 ms tick): second diffs
    # are ~0, so double-delta's packed width collapses below delta's
    ts = (np.arange(60_000, dtype=np.int64) * 1_000
          + 1_700_000_000_000_000)
    choice = selector.choose_codec(ts, "i64")
    assert choice.codec == "dd"
    assert choice.estimates["dd"] < choice.estimates["delta"]


def test_selector_picks_cascade_on_clustered_low_cardinality_strings():
    # lang-like column AFTER a sort: few values, long runs — dict alone
    # pays per-value index bits, rle alone pays per-run string payloads,
    # the cascade pays per-run varint tuples
    vals = (["en"] * 20_000 + ["de"] * 15_000 + ["fr"] * 9_000
            + ["en"] * 6_000)
    chunk = mk_chunk(vals, "str")
    choice = selector.choose_codec(chunk, "str")
    assert choice.codec == "dictrle"
    assert choice.estimates["dictrle"] < choice.estimates["dict"]
    assert choice.estimates["dictrle"] < choice.estimates["rle"]


def test_cascade_unclustered_estimates_inf():
    # unclustered codes: the cascade must bow out instead of underbidding
    import math
    rng = np.random.default_rng(7)
    vals = rng.integers(0, 4, 30_000).astype(np.int64)
    from rwcf.codecs import REGISTRY
    est = REGISTRY["dictrle"].estimate_size(vals, "i64", 30_000, 0)
    assert math.isinf(est)


def test_dd_beats_delta_encoded_bytes_on_cadence():
    from rwcf.codecs import REGISTRY
    ts = (np.arange(200_000, dtype=np.int64) * 1_000_000
          + 1_700_000_000_000_000)
    _, p_delta, _ = REGISTRY["delta"].encode(ts, "i64", 65536)
    _, p_dd, _ = REGISTRY["dd"].encode(ts, "i64", 65536)
    assert p_dd.size * 100 < p_delta.size  # >100x smaller on pure cadence


# ---------------------------------------------------------------------------
# stored-bytes ranking under a zstd transport
# ---------------------------------------------------------------------------

def _framed_bytes(chunk, dtype, codec):
    """Stored bytes of one section: codec encode, column file, per-page
    zstd frames — exactly what encode_partition writes."""
    from rwcf import pipeline
    enc = fmt.encode_chunk(chunk, dtype, codec)
    blob = fmt.write_column_file(enc)
    return len(pipeline._compress_frames(blob, enc)[0])


def _prose(n, seed=0):
    rng = np.random.default_rng(seed)
    words = ["the", "of", "and", "column", "store", "encoding", "partition",
             "value", "compression", "format", "page", "table", "stream",
             "reference", "dictionary", "symbol", "runs", "token", "data",
             "engine", "a", "to", "in", "is", "for", "with", "that", "on"]
    return [" ".join(rng.choice(words, rng.integers(6, 20))) + "."
            for _ in range(n)]


def test_transport_sequential_ids_pick_plain_without_fsst_training(monkeypatch):
    from rwcf.codecs import fsst

    def no_training(*a, **k):
        raise AssertionError("FSST trained for a chunk it cannot win")

    monkeypatch.setattr(fsst, "_train", no_training)
    chunk = mk_chunk(["doc-%012d" % i for i in range(20000)], "str")
    choice = selector.choose_codec(chunk, "str", transport="zstd-page")
    assert choice.codec == "plain"
    assert "fsst" not in choice.stored
    assert choice.estimate == int(choice.stored["plain"])


def test_transport_skips_rle_encode_without_runs(monkeypatch):
    """RLE is a cheap-estimate finalist on unique ids, but with no two
    equal adjacent values it cannot beat plain: the selector drops it
    without encoding the sample. A chunk with one run still tries it."""
    from rwcf.codecs import REGISTRY
    rle = REGISTRY["rle"]
    calls = []
    real = rle.encode

    def spy(*a, **k):
        calls.append(1)
        return real(*a, **k)

    monkeypatch.setattr(rle, "encode", spy)
    ids = ["doc-%012d" % i for i in range(1000)]
    choice = selector.choose_codec(mk_chunk(ids, "str"), "str",
                                   transport="zstd-page")
    assert math.isfinite(choice.estimates["rle"])
    assert sorted(choice.estimates, key=choice.estimates.get)[:2] == \
        ["plain", "rle"]
    assert not calls and choice.codec == "plain"
    assert list(choice.stored) == ["plain"]
    choice = selector.choose_codec(mk_chunk(ids[:1] + ids[:-1], "str"),
                                   "str", transport="zstd-page")
    assert calls and "rle" in choice.stored


def test_transport_prose_trains_fsst_and_picks_it(monkeypatch):
    from rwcf.codecs import REGISTRY, fsst
    calls = []
    real = fsst._train

    def spy(*a, **k):
        calls.append(1)
        return real(*a, **k)

    monkeypatch.setattr(fsst, "_train", spy)
    chunk = mk_chunk(_prose(3000), "str")
    choice = selector.choose_codec(chunk, "str", transport="zstd-page")
    assert calls and choice.codec == "fsst"
    assert _framed_bytes(chunk, "str", "fsst") < _framed_bytes(chunk, "str",
                                                               "plain")
    calls.clear()
    REGISTRY["fsst"]._memo.clear()  # the choice above memoized its table
    enc, _ = selector.encode_auto(chunk, "str", transport="zstd-page")
    assert len(calls) == 1  # the chunk encode reuses the selector's table
    assert chunk_equal(chunk, fmt.decode_chunk(enc), "str")


def test_fsst_estimate_reuses_the_memoized_table(monkeypatch):
    # a second choose_codec on the same chunk finds the symbol table the
    # first one trained; the bytes encoded from it are the same
    from rwcf.codecs import REGISTRY, fsst
    calls = []
    real = fsst._train

    def spy(*a, **k):
        calls.append(1)
        return real(*a, **k)

    monkeypatch.setattr(fsst, "_train", spy)
    REGISTRY["fsst"]._memo.clear()
    chunk = mk_chunk(_prose(2500, seed=9), "str")
    first = selector.choose_codec(chunk, "str", transport="zstd-page")
    trained, _ = selector.encode_auto(chunk, "str", transport="zstd-page")
    second = selector.choose_codec(chunk, "str", transport="zstd-page")
    assert len(calls) == 1
    assert first.codec == second.codec == "fsst"
    again, _ = selector.encode_auto(chunk, "str", transport="zstd-page")
    assert fmt.write_column_file(again) == fmt.write_column_file(trained)
    assert len(calls) == 1


def test_transport_choice_matches_per_partition_oracle():
    # the ingest workload's table, one 1000-row partition per row group:
    # per section, the chosen codec's stored bytes are the least any
    # codec stores
    from rwcf import fixtures, pipeline
    from rwcf.codecs import REGISTRY
    tbl = fixtures.tokens_table(20000, 1)
    for k in range(20):
        chunks = pipeline._table_chunks(tbl.slice(k * 1000, 1000))
        for name, (chunk, dtype, _validity) in chunks.items():
            framed = {cid: _framed_bytes(chunk, dtype, cid)
                      for cid, c in REGISTRY.items() if c.supports(dtype)
                      and math.isfinite(c.estimate_size(
                          selector.sample_chunk(chunk, dtype), dtype,
                          fmt.chunk_len(chunk, dtype),
                          int(chunk[1].size) if fmt.is_string(dtype)
                          else 0))}
            choice = selector.choose_codec(chunk, dtype,
                                           transport="zstd-page")
            assert _framed_bytes(chunk, dtype, choice.codec) \
                == min(framed.values()), (k, name, choice.codec, framed)


@pytest.mark.parametrize("transport", [None, "zstd-page"])
def test_crashing_estimator_raises(monkeypatch, transport):
    from rwcf.codecs import REGISTRY

    def boom(*a, **k):
        raise RuntimeError("estimator bug")

    monkeypatch.setattr(REGISTRY["rle"], "estimate_size", boom)
    vals = np.repeat(np.arange(20, dtype=np.int64), 500)
    with pytest.raises(RuntimeError, match="estimator bug"):
        selector.choose_codec(vals, "i64", transport=transport)
