"""Codec protocol + shared vector kernels (bit packing, pagination).

The ``Codec`` protocol is rwcf's user-extension surface — it generalizes the
reference's single ``use_rle: bool`` knob (src/lib.rs:25) into "codec id per
column chunk", exactly the direction the reference's own roadmap names
("Automatically determine if RLE should be applied. Dictionary encoding…",
wills-columnar-format.org:196-204).
"""

from __future__ import annotations

import numpy as np

from .. import format as fmt
from .. import oracle

PageInfo = fmt.PageInfo


class Codec:
    """One compression scheme for one column chunk.

    encode(chunk, dtype, page_target) -> (meta: bytes, payload: np.uint8,
                                          pages: list[PageInfo])
    decode(payload, pages, meta, dtype, n) -> chunk
    estimate_size(sample, dtype, n_total, payload_total) -> float
        estimated *total* encoded bytes for the full chunk, given a sample
        (selector contract; math.inf = not applicable to this data).
    """

    id: str = ""

    def supports(self, dtype: str) -> bool:
        raise NotImplementedError

    def encode(self, chunk, dtype: str, page_target: int):
        raise NotImplementedError

    def decode(self, payload: np.ndarray, pages: list[PageInfo], meta: bytes,
               dtype: str, n: int):
        raise NotImplementedError

    def estimate_size(self, sample, dtype: str, n_total: int,
                      payload_total: int) -> float:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# shared kernels
# ---------------------------------------------------------------------------

def to_unsigned_stream(values: np.ndarray, dtype: str) -> np.ndarray:
    """Map a numeric chunk to the uint64 varint domain (zigzag for signed)."""
    from .. import varint
    if fmt.is_signed(dtype):
        return varint.zigzag(values.astype(np.int64, copy=False))
    return values.astype(np.uint64, copy=False)


def from_unsigned_stream(u: np.ndarray, dtype: str) -> np.ndarray:
    from .. import varint
    np_t = fmt.DTYPES[dtype][2]
    if fmt.is_signed(dtype):
        return varint.unzigzag(u).astype(np_t, copy=False)
    return u.astype(np_t, copy=False)


def bit_width(max_val: int) -> int:
    return int(max_val).bit_length()


#: widths whose LSB-first packing is a plain little-endian integer array
_WORD = {8: np.dtype("<u1"), 16: np.dtype("<u2"), 32: np.dtype("<u4"),
         64: np.dtype("<u8")}


def pack_bits(vals: np.ndarray, width: int) -> np.ndarray:
    """LSB-first fixed-width packing into bytes; keeps the low ``width``
    bits of each value and returns a new array.

    At a whole-word width (8/16/32/64) LSB-first packing puts value ``i``
    in bytes ``[i*width/8, (i+1)*width/8)``, low byte first: a
    little-endian cast, one ``astype`` pass at memory speed (the 16-bit
    token streams of a 50k vocabulary take this path). Every other width
    goes through :func:`_pack_shift`, which gives the same bytes at any
    width."""
    word = _WORD.get(width)
    if word is None:
        return _pack_shift(vals, width)
    return np.ascontiguousarray(vals).astype(word).view(np.uint8)


def _pack_shift(vals: np.ndarray, width: int) -> np.ndarray:
    """The shift loop behind :func:`pack_bits`. Group-reshape scheme: 8
    consecutive values occupy exactly ``width`` output bytes, so each
    output byte column is a fixed shift/or combination of at most 3 value
    columns — sequential vectorized writes, no scattered ``ufunc.at``,
    and uint32 arithmetic when the width allows."""
    n = vals.size
    if width == 0 or n == 0:
        return np.empty(0, dtype=np.uint8)
    dt = np.uint32 if width <= 24 else np.uint64
    pad = (-n) % 8
    v = vals.astype(dt, copy=False)
    if pad:
        v = np.concatenate([v, np.zeros(pad, dtype=dt)])
    g = v.reshape(-1, 8)
    out = np.empty((g.shape[0], width), dtype=np.uint8)
    for j in range(width):
        bitlo = 8 * j
        acc = None
        k = bitlo // width
        while k < 8 and k * width < bitlo + 8:
            off = k * width - bitlo
            term = (g[:, k] << dt(off)) if off >= 0 else (g[:, k] >> dt(-off))
            acc = term if acc is None else acc | term
            k += 1
        out[:, j] = acc.astype(np.uint8) if acc is not None else 0
    return out.reshape(-1)[: (n * width + 7) // 8]


def packed_words(buf: np.ndarray, width: int, n: int) -> np.ndarray | None:
    """The ``n`` values packed in ``buf`` as a little-endian word view of
    ``buf`` itself (no copy; read-only when ``buf`` is), or None when
    ``width`` is not a whole word or ``buf`` is shorter than ``n`` values.
    For decoders that write the values straight into their own output."""
    word = _WORD.get(width)
    if word is None or buf.size < n * word.itemsize:
        return None
    return np.ascontiguousarray(buf[:n * word.itemsize]).view(word)


def unpack_bits(buf: np.ndarray, width: int, n: int,
                out_dtype=np.uint64) -> np.ndarray:
    """Inverse of :func:`pack_bits`; ``out_dtype`` avoids widening copies
    when the caller works in a narrow native dtype. Bytes missing from a
    short ``buf`` read as zero bits. Always returns a new, writable
    array, never a view of ``buf``."""
    words = packed_words(buf, width, n)
    if words is None:
        return _unpack_shift(buf, width, n, out_dtype)
    return words.astype(out_dtype)


def _unpack_shift(buf: np.ndarray, width: int, n: int,
                  out_dtype=np.uint64) -> np.ndarray:
    """The shift loop behind :func:`unpack_bits`, for any width."""
    if width == 0:
        return np.zeros(n, dtype=out_dtype)
    dt = np.uint32 if width <= 24 else np.uint64
    ngroups = (n + 7) // 8
    need = ngroups * width
    b = np.zeros(need, dtype=np.uint8)
    b[: buf.size] = buf[:need] if buf.size >= need else buf
    b = b.reshape(ngroups, width).astype(dt)
    out = np.empty((ngroups, 8), dtype=dt)
    mask = dt((1 << width) - 1) if width < (32 if dt is np.uint32 else 64) \
        else dt(np.iinfo(dt).max)
    for k in range(8):
        bitlo = k * width
        j0 = bitlo // 8
        j1 = (bitlo + width - 1) // 8
        acc = None
        for j in range(j0, j1 + 1):
            off = 8 * j - bitlo
            term = (b[:, j] << dt(off)) if off >= 0 else (b[:, j] >> dt(-off))
            acc = term if acc is None else acc | term
        out[:, k] = acc & mask
    return out.reshape(-1)[:n].astype(out_dtype, copy=False)


def paginate_widths(item_widths: np.ndarray, item_values: np.ndarray,
                    target: int) -> list[PageInfo]:
    """Reference greedy pagination (post-append >= target check) over
    per-item encoded widths; returns PageInfo incl. byte lengths."""
    return [PageInfo(p.file_offset, p.values_count, p.encoded_values_count,
                     p.byte_length)
            for p in oracle.paginate(item_widths, item_values, target)]


def fixed_count_pages(n: int, values_per_page: int,
                      page_byte_lengths: list[int]) -> list[PageInfo]:
    """PageInfo list for codecs that chunk by fixed value count."""
    pages = []
    off = 0
    start = 0
    for i, bl in enumerate(page_byte_lengths):
        cnt = min(values_per_page, n - start)
        pages.append(PageInfo(off, cnt, cnt, bl))
        off += bl
        start += cnt
    return pages
