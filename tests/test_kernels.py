"""The ingest hot path's kernels write the same bytes as the generic code
they stand in for: whole-word bit-packing against the shift loop, the
one-call footer page table against per-page varint calls, the selector's
reused whole-chunk sample encode against a fresh chunk encode, a
perfbench-shaped ingest against a pinned digest of its stored bytes, and
the manifest and tombstone writers' C-encoded JSON against json.dump.
"""

import glob
import hashlib
import io
import json
import os

import numpy as np
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwcf import fixtures, pipeline, selector, varint
from rwcf import format as fmt
from rwcf.codecs import REGISTRY, base, rle
from tests.test_codecs import mk_chunk
from tests.test_selector import _prose


@st.composite
def _packable(draw):
    width = draw(st.integers(1, 64))
    n = draw(st.integers(0, 41))
    top = (1 << width) - 1
    if draw(st.booleans()):
        vals = [top] * n  # all ones
    else:
        vals = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    # the narrowest native unsigned dtype holding ``width`` bits, or u64
    native = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                  if np.iinfo(t).bits >= width)
    dtype = draw(st.sampled_from([native, np.uint64]))
    return width, np.array(vals, dtype=dtype)


@settings(max_examples=400, deadline=None)
@given(_packable(), st.data())
def test_pack_bits_matches_the_shift_loop(case, data):
    width, vals = case
    packed = base.pack_bits(vals, width)
    assert packed.dtype == np.uint8
    assert packed.tobytes() == base._pack_shift(vals, width).tobytes()
    assert packed.size == (vals.size * width + 7) // 8
    n = vals.size
    back = base.unpack_bits(packed, width, n)
    np.testing.assert_array_equal(back, vals.astype(np.uint64))
    # the caller owns what unpack returns, even when the packed buffer
    # is read-only (a payload read straight from a file)
    ro = np.frombuffer(packed.tobytes(), dtype=np.uint8)
    got = base.unpack_bits(ro, width, n, vals.dtype.type)
    assert got.flags.writeable and not np.shares_memory(got, ro)
    got += 0
    # missing trailing bytes read as zero bits, as in the shift loop
    short = packed[:data.draw(st.integers(0, max(0, packed.size - 1)))]
    np.testing.assert_array_equal(
        base.unpack_bits(short, width, n),
        base._unpack_shift(short, width, n))


def test_pack_bits_keeps_the_low_bits_of_wide_values():
    vals = np.array([0x1_2345, 0xFFFF_FFFF, 7], dtype=np.uint64)
    for width in (8, 16, 32):
        assert base.pack_bits(vals, width).tobytes() \
            == base._pack_shift(vals, width).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["", "", "a", "b", "ab", "ba", "abc", "abd",
                                 "\u00e9"]), max_size=60))
def test_string_runs_match_adjacent_comparison(vals):
    """rle's string runs: a new run starts wherever a string differs from
    the one before it; empty strings equal each other."""
    starts, lens = rle._runs_str(*mk_chunk(vals, "str"))
    want = [i for i in range(len(vals)) if i == 0 or vals[i] != vals[i - 1]]
    assert starts.tolist() == want
    assert lens.tolist() == np.diff(want + [len(vals)]).tolist()


def _per_page_bincode(pages, with_lengths):
    """The footer page table as one varint call per page field."""
    out = varint.encode_uvarint(np.array([len(pages)], np.uint64)).tobytes()
    for p in pages:
        out += varint.encode_svarint(
            np.array([p.file_offset], np.int64)).tobytes()
        fields = [p.values_count, p.encoded_values_count]
        if with_lengths:
            fields.append(p.byte_length)
        for v in fields:
            out += varint.encode_uvarint(np.array([v], np.uint64)).tobytes()
    return out


@pytest.mark.parametrize("pages", [
    [],
    [fmt.PageInfo(0, 1000, 1000, 17_000)],
    [fmt.PageInfo(-5, 0, 0, 0), fmt.PageInfo(250, 251, 65_535, 65_536),
     fmt.PageInfo(-(1 << 40), 1 << 33, 3, 1 << 32),
     fmt.PageInfo((1 << 62), 7, 7, (1 << 64) - 1)]
    + [fmt.PageInfo(i * 131_075, 131_072, 131_072, 262_151)
       for i in range(40)],
])
@pytest.mark.parametrize("with_lengths", [False, True])
def test_pages_to_bincode_matches_per_page_encoding(pages, with_lengths):
    got = fmt._pages_to_bincode(pages, with_lengths)
    assert got == _per_page_bincode(pages, with_lengths)
    parsed = fmt._pages_from_reader(
        fmt._Reader(np.frombuffer(got, np.uint8)), with_lengths)
    assert [(p.file_offset, p.values_count, p.encoded_values_count)
            for p in parsed] == [(p.file_offset, p.values_count,
                                  p.encoded_values_count) for p in pages]


def _chunks():
    rng = np.random.default_rng(5)
    small, big = selector._SAMPLE_VALUES - 96, selector._SAMPLE_VALUES + 904
    return [
        ("i32", rng.integers(0, 50_257, small).astype(np.int32), True),
        ("i32", rng.integers(0, 50_257, big).astype(np.int32), False),
        ("i32", np.repeat(rng.integers(0, 9, 300), 10).astype(np.int32),
         True),
        ("i64", np.cumsum(rng.integers(0, 5, small)).astype(np.int64), True),
        ("str", mk_chunk(["doc-%012d" % i for i in range(1000)], "str"),
         True),
        ("str", mk_chunk(["doc-%012d" % i for i in range(big)], "str"),
         False),
        ("str", mk_chunk(list(rng.choice(["web", "code", "wiki"], 1000)),
                         "str"), True),
        ("str", mk_chunk(_prose(3000, seed=4), "str"), True),
        ("str", mk_chunk(_prose(big, seed=6), "str"), False),
    ]


@pytest.mark.parametrize("transport", [None, "zstd-page"])
def test_encode_auto_reuse_matches_a_fresh_encode(transport):
    """A whole-chunk sample encode the selector reuses is byte-identical
    to encoding the chunk again with the chosen codec; the prose chunks
    take the FSST path."""
    fsst_seen = False
    for dtype, chunk, whole in _chunks():
        enc, choice = selector.encode_auto(chunk, dtype,
                                           transport=transport)
        assert (choice.encoded is not None) == \
            (whole and transport is not None), (dtype, choice.codec)
        fsst_seen |= choice.codec == "fsst"
        fresh = fmt.encode_chunk(chunk, dtype, choice.codec)
        assert enc.codec == fresh.codec and enc.n_values == fresh.n_values
        assert enc.pages == fresh.pages and enc.meta == fresh.meta
        assert fmt.write_column_file(enc) == fmt.write_column_file(fresh)
    assert fsst_seen
    REGISTRY["fsst"]._memo.clear()


#: sha256 of the parts/*.rwcf bytes (in pid order) and of each
#: partition's codec_by_column and column records (select_ms left out),
#: as written by the commit before the whole-word kernels. A change to a
#: stored byte, a codec choice or a selector estimate changes them.
PARTS_DIGEST = \
    "a5689c02addf1417d76a56b7e5d18faf3ae5c02a46a40330ced85d27f0131f7f"
MANIFEST_DIGEST = \
    "162222216b1fa0fa3036fcac7b3a98a268e435dab60279f552b5e78defb83494"


def _store_digests(out: str) -> tuple[str, str]:
    rows = sorted(pipeline.load_manifest(out), key=lambda r: r["pid"])
    parts = hashlib.sha256()
    for r in rows:
        with open(r["file"], "rb") as f:
            parts.update(f.read())
    meta = [{"codec_by_column": r["codec_by_column"],
             "columns": [{k: v for k, v in c.items() if k != "select_ms"}
                         for c in r["columns"]]} for r in rows]
    return parts.hexdigest(), hashlib.sha256(
        json.dumps(meta, sort_keys=True).encode()).hexdigest()


def test_ingest_store_bytes_are_pinned(tmp_path, ray_session):
    """perfbench's ingest table (20 row groups of 1000 rows, data seed
    1) encodes to the pinned partition bytes and codec choices."""
    src = str(tmp_path / "in.parquet")
    pq.write_table(fixtures.tokens_table(20_000, 1), src,
                   row_group_size=1000)
    out = str(tmp_path / "store")
    pipeline.encode_job(src, pipeline.EncodeConfig(out_dir=out)).materialize()
    assert len(pipeline.load_manifest(out)) == 20
    assert _store_digests(out) == (PARTS_DIGEST, MANIFEST_DIGEST)


def test_manifest_and_tombstone_text_is_json_dumps(tmp_path, ray_session):
    """Manifest rows and tombstones are written with ``json.dumps`` (the
    C encoder); the text is what ``json.dump`` wrote, for real rows."""
    src = str(tmp_path / "in.parquet")
    tbl = fixtures.tokens_table(300, 1)
    pq.write_table(tbl, src, row_group_size=150)
    out = str(tmp_path / "store")
    pipeline.encode_job(src, pipeline.EncodeConfig(
        out_dir=out, bloom_bits_per_key=10)).materialize()
    doc = tbl.column("doc_id")[7].as_py()
    assert pipeline.delete_docs(out, [doc])["rows_deleted"] == 1
    paths = sorted(glob.glob(os.path.join(out, "manifest", "*.json")))
    assert sum(p.endswith(".del.json") for p in paths) == 1
    assert len(paths) == 3
    for path in paths:
        with open(path) as f:
            text = f.read()
        buf = io.StringIO()
        json.dump(json.loads(text), buf)
        assert buf.getvalue() == text, path
