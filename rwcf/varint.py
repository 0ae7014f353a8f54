"""Bincode-standard varint primitives, numpy-vectorized.

Reimplements (from public bincode documentation + the reference's pinned
size assertions, NOT the reference code) the value-encoding rules of
bincode's ``config::standard()`` as used by the reference format
(/root/reference/src/lib.rs:21):

- ``u8`` / ``i8``: one raw byte (no varint) — src/test_bincode.rs:24-27.
- wider unsigned ints: varint — ``v < 251`` → 1 byte ``[v]``;
  ``v < 2**16`` → ``[251, u16le]`` (3 bytes); ``v < 2**32`` →
  ``[252, u32le]`` (5 bytes); else ``[253, u64le]`` (9 bytes).
- wider signed ints: zigzag-map to unsigned, then varint
  (``-1i64`` → 1 byte, src/test_bincode.rs:20).
- strings: varint byte-length prefix + UTF-8 payload
  ("Strings take up string_length + 1", src/test_bincode.rs:41-44).

Decoding is vectorized with a pointer-doubling offset enumeration: a
``next[b]`` array gives, for every byte position, where the following
value would start; ``enumerate_offsets`` expands that to the start
offset of each of ``n`` values in O(B log n) numpy gathers with no
per-value Python loop.
"""

from __future__ import annotations

import numpy as np

U16_MAX = 1 << 16
U32_MAX = 1 << 32

_MARK_U16 = 251
_MARK_U32 = 252
_MARK_U64 = 253


def zigzag(vals: np.ndarray) -> np.ndarray:
    """Map signed int64 -> unsigned uint64 (bincode signed-int varint prep)."""
    v = vals.astype(np.int64, copy=False)
    return ((v << 1) ^ (v >> 63)).view(np.uint64)


def unzigzag(vals: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag`."""
    u = vals.astype(np.uint64, copy=False)
    return ((u >> np.uint64(1)).view(np.int64)) ^ -((u & np.uint64(1)).view(np.int64))


def uvarint_width(vals: np.ndarray) -> np.ndarray:
    """Encoded byte width (1/3/5/9) of each unsigned value."""
    v = vals.astype(np.uint64, copy=False)
    w = np.ones(v.shape, dtype=np.int64)
    w[v >= _MARK_U16] = 3
    w[v >= U16_MAX] = 5
    w[v >= U32_MAX] = 9
    return w


def encode_uvarint(vals: np.ndarray) -> np.ndarray:
    """Encode an array of unsigned ints to one concatenated uint8 buffer."""
    v = np.ascontiguousarray(vals, dtype=np.uint64)
    if v.size == 0:
        return np.empty(0, dtype=np.uint8)
    w = uvarint_width(v)
    ends = np.cumsum(w)
    starts = ends - w
    out = np.zeros(int(ends[-1]), dtype=np.uint8)

    m1 = w == 1
    out[starts[m1]] = v[m1]
    for marker, width in ((_MARK_U16, 3), (_MARK_U32, 5), (_MARK_U64, 9)):
        g = w == width
        if not g.any():
            continue
        s = starts[g]
        x = v[g]
        out[s] = marker
        for i in range(width - 1):
            out[s + 1 + i] = (x >> np.uint64(8 * i)).astype(np.uint8)
    return out


def encode_svarint(vals: np.ndarray) -> np.ndarray:
    """Encode signed ints: zigzag then unsigned varint."""
    return encode_uvarint(zigzag(np.asarray(vals)))


def svarint_width(vals: np.ndarray) -> np.ndarray:
    return uvarint_width(zigzag(np.asarray(vals)))


def _padded(buf: np.ndarray, pad: int = 8) -> np.ndarray:
    """buf with `pad` trailing zero bytes so fixed-width gathers stay in-bounds."""
    out = np.zeros(buf.size + pad, dtype=np.uint8)
    out[: buf.size] = buf
    return out


def _width_at(buf: np.ndarray) -> np.ndarray:
    """Varint width as if a value started at every byte position."""
    w = np.ones(buf.shape, dtype=np.int64)
    w[buf == _MARK_U16] = 3
    w[buf == _MARK_U32] = 5
    w[buf >= _MARK_U64] = 9
    return w


def _value_at(bufp: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Decode the uvarint starting at each given position. bufp must be padded 8+."""
    markers = bufp[positions]
    vals = markers.astype(np.uint64)
    big = markers >= _MARK_U16
    if big.any():
        s = positions[big]
        le = np.zeros(s.shape, dtype=np.uint64)
        for i in range(8):
            le |= bufp[s + 1 + i].astype(np.uint64) << np.uint64(8 * i)
        mk = markers[big]
        masked = np.where(
            mk == _MARK_U16,
            le & np.uint64(0xFFFF),
            np.where(mk == _MARK_U32, le & np.uint64(0xFFFF_FFFF), le),
        )
        vals[big] = masked
    return vals


def next_offsets_uvarint(buf: np.ndarray) -> np.ndarray:
    """next[b] = start of the value after a uvarint that starts at b.

    Length B+1; position B is an absorbing sentinel.
    """
    B = buf.size
    nxt = np.empty(B + 1, dtype=np.int64)
    nxt[:B] = np.arange(B, dtype=np.int64) + _width_at(buf)
    nxt[B] = B
    np.minimum(nxt, B, out=nxt)
    return nxt


def next_offsets_str(buf: np.ndarray) -> np.ndarray:
    """next[b] for a length-prefixed string starting at b (varint len + payload)."""
    B = buf.size
    bufp = _padded(buf)
    pos = np.arange(B, dtype=np.int64)
    lengths = _value_at(bufp, pos).astype(np.int64)
    # clip absurd lengths (payload bytes interpreted as headers) to stay in-bounds
    np.clip(lengths, 0, B, out=lengths)
    nxt = np.empty(B + 1, dtype=np.int64)
    nxt[:B] = pos + _width_at(buf) + lengths
    nxt[B] = B
    np.minimum(nxt, B, out=nxt)
    return nxt


def enumerate_offsets(nxt: np.ndarray, n: int, start: int = 0) -> np.ndarray:
    """Start offsets of n consecutive items, given the one-step next array.

    Pointer-doubling: O(B log n) gathers, no per-item Python loop.
    """
    starts = np.empty(n, dtype=np.int64)
    if n == 0:
        return starts
    starts[0] = start
    filled = 1
    step = nxt
    while filled < n:
        take = min(filled, n - filled)
        starts[filled : filled + take] = step[starts[:take]]
        filled += take
        if filled < n:
            step = step[step]
    return starts


def decode_uvarint(buf: np.ndarray, n: int) -> np.ndarray:
    """Decode n concatenated uvarints from buf. Returns uint64 array."""
    bufp = _padded(buf)
    starts = enumerate_offsets(next_offsets_uvarint(buf), n)
    return _value_at(bufp, starts)


def decode_svarint(buf: np.ndarray, n: int) -> np.ndarray:
    return unzigzag(decode_uvarint(buf, n))


def encode_str_column(lengths: np.ndarray, payload: np.ndarray) -> np.ndarray:
    """Encode strings given per-string byte lengths + concatenated payload bytes.

    Layout per string: uvarint(len) + bytes. Fully vectorized scatter.
    """
    lens = np.ascontiguousarray(lengths, dtype=np.uint64)
    n = lens.size
    if n == 0:
        return np.empty(0, dtype=np.uint8)
    hw = uvarint_width(lens)
    rec = hw + lens.astype(np.int64)
    ends = np.cumsum(rec)
    rec_starts = ends - rec
    out = np.zeros(int(ends[-1]), dtype=np.uint8)

    # headers
    m1 = hw == 1
    out[rec_starts[m1]] = lens[m1]
    for marker, width in ((_MARK_U16, 3), (_MARK_U32, 5), (_MARK_U64, 9)):
        g = hw == width
        if not g.any():
            continue
        s = rec_starts[g]
        x = lens[g]
        out[s] = marker
        for i in range(width - 1):
            out[s + 1 + i] = (x >> np.uint64(8 * i)).astype(np.uint8)

    # payload scatter: src byte p of string i lands at rec_starts[i]+hw[i]+(p-src_starts[i])
    il = lens.astype(np.int64)
    src_starts = np.cumsum(il) - il
    P = int(il.sum())
    if P:
        shift = np.repeat(rec_starts + hw - src_starts, il)
        dest = np.arange(P, dtype=np.int64) + shift
        out[dest] = payload
    return out


def interleave_streams(a_buf: np.ndarray, a_widths: np.ndarray,
                       b_buf: np.ndarray, b_widths: np.ndarray) -> np.ndarray:
    """Merge two per-item byte streams into records of (a_item, b_item)."""
    aw = a_widths.astype(np.int64, copy=False)
    bw = b_widths.astype(np.int64, copy=False)
    rec = aw + bw
    rec_starts = np.cumsum(rec) - rec
    out = np.empty(int(rec.sum()), dtype=np.uint8)
    a_src = np.cumsum(aw) - aw
    b_src = np.cumsum(bw) - bw
    if a_buf.size:
        dest = np.arange(a_buf.size, dtype=np.int64) + np.repeat(rec_starts - a_src, aw)
        out[dest] = a_buf
    if b_buf.size:
        dest = np.arange(b_buf.size, dtype=np.int64) + np.repeat(rec_starts + aw - b_src, bw)
        out[dest] = b_buf
    return out


def decode_str_column(buf: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode n length-prefixed strings. Returns (lengths:int64, payload:uint8)."""
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8)
    bufp = _padded(buf)
    starts = enumerate_offsets(next_offsets_str(buf), n)
    lens = _value_at(bufp, starts).astype(np.int64)
    hw = _width_at(buf)[starts]
    src_starts = starts + hw
    P = int(lens.sum())
    payload = np.empty(P, dtype=np.uint8)
    if P:
        dst_starts = np.cumsum(lens) - lens
        shift = np.repeat(src_starts - dst_starts, lens)
        src = np.arange(P, dtype=np.int64) + shift
        payload = buf[src]
    return lens, payload
