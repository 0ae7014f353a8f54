"""Physical format: dtypes, page index, column footers, single-file layout.

Two container modes share one page/footer philosophy:

- **reference mode** (codecs ``plain`` / ``rle`` only): byte-exact
  reproduction of the reference column file ``page_1..page_n | bincode(Footer)
  | u64le footer_size`` (/root/reference/wills-columnar-format.org:591-601,
  src/lib.rs:52-73). Used by the parity tests.
- **extended mode (v1)**: same trailer-last layout, but the footer carries a
  marker byte (0xF5 — impossible as a reference ``DataType`` discriminant,
  which is 0..4 per src/lib.rs:59-66), a concrete-width dtype code, a codec
  id, a codec metadata blob (dictionary values, FSST symbol table) and a
  per-page byte length (enables page-parallel decode; the reference derives
  page extents implicitly, src/decode.rs:52-66).

A partition file concatenates one column section per column; the manifest
row records each section's (offset, length) so decode reads one byte range
per column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

from . import oracle, varint

MIN_TARGET_PAGE_SIZE = oracle.MIN_TARGET_PAGE_SIZE  # 2048, reference parity
ENGINE_PAGE_SIZE = 256 * 1024  # default page target for engine mode

_V1_MARKER = 0xF5
_V1_VERSION = 1
#: v2 = v1 + a trailing validity section (null support). Writers emit
#: version 1 whenever a column has no nulls, so null-free stores stay
#: byte-identical to pre-v2 output; v1 readers only ever meet v2 footers
#: on columns that actually contain nulls.
_V2_VERSION = 2

#: dtype code -> (reference category, pyarrow type, numpy type)
DTYPES: dict[str, tuple[str, pa.DataType, np.dtype]] = {
    "u8": (oracle.UNSIGNED_BYTE, pa.uint8(), np.dtype(np.uint8)),
    "i8": (oracle.SIGNED_BYTE, pa.int8(), np.dtype(np.int8)),
    "u16": (oracle.UNSIGNED_INT, pa.uint16(), np.dtype(np.uint16)),
    "u32": (oracle.UNSIGNED_INT, pa.uint32(), np.dtype(np.uint32)),
    "u64": (oracle.UNSIGNED_INT, pa.uint64(), np.dtype(np.uint64)),
    "i16": (oracle.SIGNED_INT, pa.int16(), np.dtype(np.int16)),
    "i32": (oracle.SIGNED_INT, pa.int32(), np.dtype(np.int32)),
    "i64": (oracle.SIGNED_INT, pa.int64(), np.dtype(np.int64)),
    "str": (oracle.STRING, pa.large_utf8(), None),
}

_DTYPE_ORDER = list(DTYPES)  # stable numeric ids for serialization

#: reference DataType discriminants (src/lib.rs:59-66)
_REF_DT_CODE = {"u8": 0, "i8": 1, "u16": 2, "u32": 2, "u64": 2,
                "i16": 3, "i32": 3, "i64": 3, "str": 4}
_REF_CATEGORY_FOR_CODE = {0: "u8", 1: "i8", 2: "u64", 3: "i64", 4: "str"}

CODEC_IDS = ["plain", "rle", "bitpack", "for", "dict", "fsst", "delta",
             "dd", "dictrle"]


def dtype_code_for_arrow(t: pa.DataType) -> str:
    for code, (_, patype, _) in DTYPES.items():
        if t == patype:
            return code
    if t == pa.string() or t == pa.large_string():
        return "str"
    raise ValueError(f"unsupported arrow type {t}")


def is_signed(dtype: str) -> bool:
    return dtype in ("i8", "i16", "i32", "i64")


def is_string(dtype: str) -> bool:
    return dtype == "str"


@dataclass
class PageInfo:
    file_offset: int
    values_count: int
    encoded_values_count: int
    byte_length: int


@dataclass
class EncodedColumn:
    dtype: str
    codec: str
    meta: bytes
    pages: list[PageInfo]
    payload: np.ndarray  # uint8
    n_values: int
    #: bool array of LOGICAL length (rows incl. nulls); None = no nulls.
    #: The codec payload stores only the n_values NON-NULL values — the
    #: same dense-values + validity split Arrow itself uses, so every
    #: codec stays null-free and untouched.
    validity: np.ndarray | None = None

    @property
    def n_logical(self) -> int:
        """Row count including nulls (== n_values when no validity)."""
        return int(self.validity.size) if self.validity is not None \
            else self.n_values

    @property
    def encoded_bytes(self) -> int:
        """payload + meta; footer accounted separately by the writers."""
        return int(self.payload.size) + len(self.meta)


# ---------------------------------------------------------------------------
# chunk <-> arrow helpers. A "chunk" is the codec-facing in-memory value
# stream: numpy array for numerics, (lengths:int64, payload:uint8) for strings.
# ---------------------------------------------------------------------------

def chunk_from_arrow(arr: pa.Array | pa.ChunkedArray):
    """Zero-copy-ish extraction of a codec chunk from an Arrow array.

    Nulls are rejected loudly: the reference format has no null
    representation (src/lib.rs:59-66 — plain values only), and silently
    flattening nulls to '' / 0 would corrupt a round trip."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if arr.null_count:
        raise ValueError(
            f"null values are not supported by the columnar format "
            f"({arr.null_count} nulls in a {arr.type} column)")
    t = arr.type
    if pa.types.is_string(t) or pa.types.is_large_string(t) \
            or pa.types.is_binary(t) or pa.types.is_large_binary(t):
        if pa.types.is_string(t):
            arr = arr.cast(pa.large_utf8())
        elif pa.types.is_binary(t):
            arr = arr.cast(pa.large_binary())
        raw = np.frombuffer(arr.buffers()[1], dtype=np.int64)
        offsets = raw[arr.offset: arr.offset + len(arr) + 1]
        data_buf = arr.buffers()[2]
        payload = (np.frombuffer(data_buf, dtype=np.uint8)[offsets[0]:offsets[-1]]
                   if data_buf is not None else np.empty(0, dtype=np.uint8))
        lengths = np.diff(offsets)
        return lengths, payload
    return arr.to_numpy(zero_copy_only=False)


def split_validity(arr: pa.Array | pa.ChunkedArray):
    """(dense_array, validity) split of a possibly-null Arrow array:
    ``dense`` carries only the non-null values (codec-ready, null-free),
    ``validity`` is a bool ndarray of logical length (None when the
    array has no nulls). Inverse of :func:`apply_validity`."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if not arr.null_count:
        return arr, None
    import pyarrow.compute as pc
    validity = pc.is_valid(arr).to_numpy(zero_copy_only=False)
    return arr.drop_null(), np.ascontiguousarray(validity, dtype=bool)


def apply_validity(dense: pa.Array, validity: np.ndarray) -> pa.Array:
    """Scatter a dense (null-free) decoded array back to logical
    positions: null where validity is False. Vectorized — a prefix-sum
    index gather (``take`` maps a null index to a null value)."""
    idx = np.cumsum(validity, dtype=np.int64) - 1
    take_idx = pa.array(idx, pa.int64(), mask=~validity)
    return dense.take(take_idx)


def runs_from_validity(validity: np.ndarray) -> np.ndarray:
    """Alternating run lengths of a bool array, FIRST run counting
    leading True (valid) values — possibly 0. RLE of the validity
    bitmap: null patterns are usually clustered or sparse, so runs beat
    a packed bitmap at both extremes."""
    v = np.asarray(validity, dtype=bool)
    if not v.size:
        return np.empty(0, dtype=np.int64)
    change = np.nonzero(np.diff(v))[0] + 1
    bounds = np.concatenate(([0], change, [v.size]))
    runs = np.diff(bounds)
    if not v[0]:  # first run must describe VALID values
        runs = np.concatenate(([0], runs))
    return runs.astype(np.int64)


def validity_from_runs(runs: np.ndarray) -> np.ndarray:
    runs = np.asarray(runs, dtype=np.int64)
    flags = np.zeros(runs.size, dtype=bool)
    flags[::2] = True
    return np.repeat(flags, runs)


def chunk_to_arrow(chunk, dtype: str) -> pa.Array:
    if is_string(dtype):
        lengths, payload = chunk
        offsets = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
        return pa.Array.from_buffers(
            pa.large_utf8(), len(lengths),
            [None, pa.py_buffer(offsets.tobytes()), pa.py_buffer(payload.tobytes())])
    np_t = DTYPES[dtype][2]
    return pa.array(np.asarray(chunk, dtype=np_t), type=DTYPES[dtype][1])


def chunk_len(chunk, dtype: str) -> int:
    return len(chunk[0]) if is_string(dtype) else len(chunk)


# ---------------------------------------------------------------------------
# footer serialization
# ---------------------------------------------------------------------------

def _pages_to_bincode(pages: list[PageInfo], with_lengths: bool) -> bytes:
    """uvarint(page count), then per page the reference field order
    file_offset (svarint), values_count, encoded_values_count
    (src/lib.rs:68-73), plus byte_length in v1 footers — one uvarint
    encode over a pages x fields matrix, the offsets zigzagged first."""
    n_fields = 4 if with_lengths else 3
    vals = np.empty(1 + len(pages) * n_fields, dtype=np.uint64)
    vals[0] = len(pages)
    if pages:
        m = vals[1:].reshape(len(pages), n_fields)
        m[:, 0] = varint.zigzag(np.array([p.file_offset for p in pages],
                                         dtype=np.int64))
        m[:, 1:] = np.array([(p.values_count, p.encoded_values_count,
                              p.byte_length)[:n_fields - 1] for p in pages],
                            dtype=np.uint64)
    return varint.encode_uvarint(vals).tobytes()


class _Reader:
    def __init__(self, buf: np.ndarray, pos: int = 0):
        self.buf = buf
        self.pos = pos

    def uvarint(self) -> int:
        b = int(self.buf[self.pos])
        if b < 251:
            self.pos += 1
            return b
        width = {251: 2, 252: 4, 253: 8}[b]
        v = int.from_bytes(self.buf[self.pos + 1:self.pos + 1 + width].tobytes(), "little")
        self.pos += 1 + width
        return v

    def svarint(self) -> int:
        u = self.uvarint()
        return (u >> 1) ^ -(u & 1)

    def take(self, n: int) -> bytes:
        out = self.buf[self.pos:self.pos + n].tobytes()
        self.pos += n
        return out


def _pages_from_reader(r: _Reader, with_lengths: bool) -> list[PageInfo]:
    n = r.uvarint()
    pages = []
    for _ in range(n):
        off = r.svarint()
        vc = r.uvarint()
        ec = r.uvarint()
        bl = r.uvarint() if with_lengths else -1
        pages.append(PageInfo(off, vc, ec, bl))
    return pages


def footer_bytes_reference(dtype: str, use_rle: bool, pages: list[PageInfo]) -> bytes:
    """Byte-exact reference Footer bincode (src/lib.rs:52-73)."""
    head = bytes([_REF_DT_CODE[dtype], 1 if use_rle else 0])
    return head + _pages_to_bincode(pages, with_lengths=False)


def footer_bytes_v1(enc: EncodedColumn) -> bytes:
    version = _V2_VERSION if enc.validity is not None else _V1_VERSION
    head = bytes([_V1_MARKER, version,
                  _DTYPE_ORDER.index(enc.dtype), CODEC_IDS.index(enc.codec)])
    meta = varint.encode_uvarint(np.array([len(enc.meta)], dtype=np.uint64)).tobytes() + enc.meta
    out = head + meta + _pages_to_bincode(enc.pages, with_lengths=True)
    if enc.validity is not None:
        runs = runs_from_validity(enc.validity)
        out += varint.encode_uvarint(
            np.array([enc.validity.size, runs.size], dtype=np.uint64)
        ).tobytes()
        out += varint.encode_uvarint(runs.astype(np.uint64)).tobytes()
    return out


def write_column_file(enc: EncodedColumn, reference_mode: bool = False) -> bytes:
    """pages | footer | u64le(footer_size) — trailer-last like the reference."""
    if reference_mode:
        if enc.codec not in ("plain", "rle"):
            raise ValueError("reference mode supports only plain/rle")
        footer = footer_bytes_reference(enc.dtype, enc.codec == "rle", enc.pages)
    else:
        footer = footer_bytes_v1(enc)
    return b"".join((np.ascontiguousarray(enc.payload), footer,
                     len(footer).to_bytes(8, "little")))


def _parse_footer_fields(buf: np.ndarray, pos: int):
    """Shared footer parser (both modes, marker-detected): returns
    (dtype, codec, meta, pages, is_v1, validity). Reference-mode pages
    come back with byte_length=-1 — only the caller holding the payload
    extent can derive them (read_column_file does; trailer-only callers
    cannot). ``validity`` is None except for v2 (nullable) footers."""
    r = _Reader(buf, pos)
    first = int(buf[pos])
    if first == _V1_MARKER:
        r.pos += 1
        version = int(buf[r.pos]); r.pos += 1
        assert version in (_V1_VERSION, _V2_VERSION)
        dtype = _DTYPE_ORDER[int(buf[r.pos])]; r.pos += 1
        codec = CODEC_IDS[int(buf[r.pos])]; r.pos += 1
        meta = r.take(r.uvarint())
        pages = _pages_from_reader(r, with_lengths=True)
        validity = None
        if version == _V2_VERSION:
            n_logical = r.uvarint()
            n_runs = r.uvarint()
            # vectorized varint decode: an adversarial alternating-null
            # pattern makes n_runs == n_rows, and a Python loop here
            # would be an O(rows) interpreter cliff per partition (the
            # validity section is the footer's tail, so no end-offset
            # bookkeeping is needed)
            runs = varint.decode_uvarint(buf[r.pos:], n_runs) \
                .astype(np.int64)
            validity = validity_from_runs(runs)
            assert validity.size == n_logical
        return dtype, codec, meta, pages, True, validity
    dtype = _REF_CATEGORY_FOR_CODE[first]
    r.pos += 1
    use_rle = bool(buf[r.pos]); r.pos += 1
    codec = "rle" if use_rle else "plain"
    return dtype, codec, b"", _pages_from_reader(r, with_lengths=False), \
        False, None


def read_column_file(data: bytes | np.ndarray) -> EncodedColumn:
    """Parse a column file (either mode; self-detecting via the marker byte).

    For reference-mode files the concrete width is not recorded (the
    reference checks only the type *category* at decode, src/decode.rs:44-50
    — width is not stored); the widest dtype of the category is used.
    """
    buf = np.frombuffer(data, dtype=np.uint8) if isinstance(data, (bytes, bytearray)) else data
    footer_size = int.from_bytes(buf[-8:].tobytes(), "little")
    footer_start = buf.size - 8 - footer_size
    dtype, codec, meta, pages, is_v1, validity = \
        _parse_footer_fields(buf, footer_start)
    if not is_v1:
        # derive byte lengths from consecutive offsets + the payload extent
        for i, p in enumerate(pages):
            end = pages[i + 1].file_offset if i + 1 < len(pages) else footer_start
            p.byte_length = end - p.file_offset
    n = sum(p.values_count for p in pages)
    return EncodedColumn(dtype=dtype, codec=codec, meta=meta, pages=pages,
                         payload=buf[:footer_start], n_values=n,
                         validity=validity)


def read_footer_blob(trailer: bytes | np.ndarray) -> EncodedColumn:
    """Parse a column file's trailer (``footer | u64le footer_size``) WITHOUT
    the payload — the entry point for selective page reads, where only the
    page frames a zone-map keeps are ever fetched (see
    pipeline.read_column_pages). Returns an EncodedColumn whose payload is
    empty; pages carry the original in-payload offsets."""
    buf = np.frombuffer(trailer, dtype=np.uint8) \
        if isinstance(trailer, (bytes, bytearray)) else trailer
    footer_size = int.from_bytes(buf[-8:].tobytes(), "little")
    if footer_size != buf.size - 8:
        raise ValueError("trailer does not contain exactly footer|size")
    dtype, codec, meta, pages, is_v1, validity = _parse_footer_fields(buf, 0)
    if not is_v1:
        # a reference-mode footer records no page byte lengths and the
        # payload extent is not available here, so per-page extents cannot
        # be derived — selective page reads require the v1 footer (which
        # is the only mode the framed writer emits)
        raise ValueError(
            "read_footer_blob requires a v1 footer; reference-mode "
            "trailers carry no page byte lengths")
    n = sum(p.values_count for p in pages)
    return EncodedColumn(dtype=dtype, codec=codec, meta=meta, pages=pages,
                         payload=np.empty(0, dtype=np.uint8), n_values=n,
                         validity=validity)


def slice_pages(enc: EncodedColumn, indices) -> EncodedColumn:
    """Selective-page view of an encoded column — the reference's planned
    "efficient row skipping" (PageInfo.file_offset exists for exactly this,
    wills-columnar-format.org:187-194; its V0 decoder never seeks). Every
    rwcf codec's pages are self-contained (packed codecs carry per-page
    width/min headers; varint codecs carry per-page counts; dict/fsst state
    lives in the shared meta blob), so any page subset decodes independently.
    """
    if enc.validity is not None:
        # pages index the DENSE value stream; a page subset of a nullable
        # column cannot be mapped back to logical row spans without the
        # per-page logical extents, which v2 does not record (nullable
        # columns take the full-section decode path instead)
        raise ValueError("slice_pages does not support nullable columns")
    idx = sorted(int(i) for i in indices)
    sel = [enc.pages[i] for i in idx]
    parts = [enc.payload[p.file_offset:p.file_offset + p.byte_length]
             for p in sel]
    payload = np.concatenate(parts) if parts else np.empty(0, dtype=np.uint8)
    pages = []
    off = 0
    for p in sel:
        pages.append(PageInfo(off, p.values_count, p.encoded_values_count,
                              p.byte_length))
        off += p.byte_length
    return EncodedColumn(dtype=enc.dtype, codec=enc.codec, meta=enc.meta,
                         pages=pages, payload=payload,
                         n_values=sum(p.values_count for p in pages))


#: string zone-map bounds are truncated to this many characters; the max
#: bound is rounded UP so truncation can only widen the range (false keeps,
#: never false skips) — the same conservatism Parquet's truncated column
#: statistics use.
STR_STAT_PREFIX = 16
_MAX_CODEPOINT = "\U0010ffff"


def page_value_stats(chunk, dtype: str, pages: list[PageInfo]):
    """Per-page (min, max) zone-map index aligned to the encoder's page
    boundaries (values_count spans). Numeric chunks carry exact int bounds;
    string chunks carry LEXICOGRAPHIC bounds truncated to STR_STAT_PREFIX
    chars (max rounded up with a trailing max-codepoint sentinel), which
    enables page-pruned point lookups on string key columns (doc_id) —
    any stored value v satisfies lo <= v <= hi, so a probe outside
    [lo, hi] can never live in the page."""
    out = []
    pos = 0
    if is_string(dtype):
        import pyarrow.compute as pc
        arr = chunk_to_arrow(chunk, dtype)
        for p in pages:
            seg = arr.slice(pos, p.values_count)
            pos += p.values_count
            if len(seg):
                mm = pc.min_max(seg)
                lo = mm["min"].as_py()[:STR_STAT_PREFIX]
                hi = mm["max"].as_py()
                if len(hi) > STR_STAT_PREFIX:
                    hi = hi[:STR_STAT_PREFIX] + _MAX_CODEPOINT
                out.append([lo, hi])
            else:
                out.append(["", ""])
        return out
    vals = np.asarray(chunk)
    for p in pages:
        seg = vals[pos:pos + p.values_count]
        pos += p.values_count
        if seg.size:
            out.append([int(seg.min()), int(seg.max())])
        else:
            out.append([0, 0])
    return out


class UnsupportedDataType(TypeError):
    """Mirror of the reference's decode-time type error
    (src/decode.rs:6-22): raised when the requested decode type's category
    does not match the stored column's category."""


def assert_decodable(enc: EncodedColumn, requested_dtype: str) -> None:
    """Category-level type check before decode (src/decode.rs:44-50): a
    column written as i64 may be requested as i16 (both SignedInteger — the
    reference does not record width), but not as u64/str/i8/u8."""
    stored = DTYPES[enc.dtype][0]
    wanted = DTYPES[requested_dtype][0]
    if stored != wanted:
        raise UnsupportedDataType(
            f"Expected format of type {stored!r} but got {requested_dtype!r}")


# high-level dispatch -------------------------------------------------------

def encode_chunk(chunk, dtype: str, codec_id: str,
                 page_target: int = ENGINE_PAGE_SIZE) -> EncodedColumn:
    from .codecs import REGISTRY
    codec = REGISTRY[codec_id]
    meta, payload, pages = codec.encode(chunk, dtype, page_target)
    return EncodedColumn(dtype=dtype, codec=codec_id, meta=meta, pages=pages,
                         payload=payload, n_values=chunk_len(chunk, dtype))


def decode_chunk(enc: EncodedColumn):
    from .codecs import REGISTRY
    codec = REGISTRY[enc.codec]
    return codec.decode(enc.payload, enc.pages, enc.meta, enc.dtype, enc.n_values)
