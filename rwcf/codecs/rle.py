"""RLE codec: maximal adjacent runs encoded as bincode tuples
``(value, run_length:u64-varint)`` — byte-exact vs the reference's
``rle::Values`` stream (src/rle.rs:8-43, src/encode.rs:63-81). Pages break
only on whole runs (run consumed before the size check, src/encode.rs:66-72).
Decode yields the expanded column; the compressed-domain (values, run_lengths)
pair is exposed via ``decode_runs`` for aggregation without expansion
(the pattern of src/test_rle.rs:8-17)."""

from __future__ import annotations

import numpy as np

from .. import format as fmt
from .. import oracle, varint
from . import base


class RleCodec(base.Codec):
    id = "rle"

    def supports(self, dtype: str) -> bool:
        return True

    # -- encode -------------------------------------------------------------
    def encode(self, chunk, dtype: str, page_target: int):
        if fmt.is_string(dtype):
            return self._encode_str(chunk, page_target)
        vals = np.asarray(chunk)
        starts, lens = oracle.run_lengths(vals)
        rv = vals[starts] if starts.size else vals[:0]
        ulens = lens.astype(np.uint64)
        rlw = varint.uvarint_width(ulens)
        if dtype in ("u8", "i8"):
            vbuf = np.ascontiguousarray(rv).view(np.uint8)
            vw = np.ones(rv.size, dtype=np.int64)
            out = varint.interleave_streams(vbuf, vw, varint.encode_uvarint(ulens), rlw)
        else:
            u = base.to_unsigned_stream(rv, dtype)
            vw = varint.uvarint_width(u)
            inter = np.empty(2 * u.size, dtype=np.uint64)
            inter[0::2] = u
            inter[1::2] = ulens
            out = varint.encode_uvarint(inter)
        pages = base.paginate_widths(vw + rlw, lens, page_target)
        return b"", out, pages

    def _encode_str(self, chunk, page_target: int):
        lengths, payload = chunk
        starts, lens = _runs_str(lengths, payload)
        rl_lengths = lengths[starts] if starts.size else lengths[:0]
        src_starts = (np.cumsum(lengths) - lengths)[starts] if starts.size else lengths[:0]
        rpayload = _gather_segments(payload, src_starts, rl_lengths)
        sbuf = varint.encode_str_column(rl_lengths, rpayload)
        hw = varint.uvarint_width(rl_lengths.astype(np.uint64))
        ulens = lens.astype(np.uint64)
        rlw = varint.uvarint_width(ulens)
        out = varint.interleave_streams(sbuf, hw + rl_lengths, varint.encode_uvarint(ulens), rlw)
        pages = base.paginate_widths(hw + rl_lengths + rlw, lens, page_target)
        return b"", out, pages

    # -- decode -------------------------------------------------------------
    def decode_runs(self, payload, pages, meta, dtype: str):
        """(run values chunk, run_lengths) without expansion."""
        k = sum(p.encoded_values_count for p in pages)
        if fmt.is_string(dtype):
            return self._decode_runs_str(payload, k)
        if dtype in ("u8", "i8"):
            nu = varint.next_offsets_uvarint(payload)
            B = payload.size
            nxt = np.empty(B + 1, dtype=np.int64)
            nxt[:B] = nu[np.minimum(np.arange(1, B + 1), B)]
            nxt[B] = B
            starts = varint.enumerate_offsets(nxt, k)
            rv = payload[starts].view(fmt.DTYPES[dtype][2]) if k else \
                np.empty(0, dtype=fmt.DTYPES[dtype][2])
            bufp = varint._padded(payload)
            lens = varint._value_at(bufp, starts + 1).astype(np.int64) if k else \
                np.empty(0, dtype=np.int64)
            return rv, lens
        u = varint.decode_uvarint(payload, 2 * k)
        rv = base.from_unsigned_stream(u[0::2], dtype)
        lens = u[1::2].astype(np.int64)
        return rv, lens

    def _decode_runs_str(self, payload, k: int):
        if k == 0:
            e = np.empty(0, dtype=np.int64)
            return (e, np.empty(0, dtype=np.uint8)), e
        ns = varint.next_offsets_str(payload)
        nu = varint.next_offsets_uvarint(payload)
        nxt = nu[ns]
        starts = varint.enumerate_offsets(nxt, k)
        bufp = varint._padded(payload)
        slens = varint._value_at(bufp, starts).astype(np.int64)
        hw = varint._width_at(payload)[starts]
        src_starts = starts + hw
        spayload = _gather_segments(payload, src_starts, slens)
        run_pos = starts + hw + slens
        rlens = varint._value_at(bufp, run_pos).astype(np.int64)
        return (slens, spayload), rlens

    def decode(self, payload, pages, meta, dtype: str, n: int):
        runs, lens = self.decode_runs(payload, pages, meta, dtype)
        if fmt.is_string(dtype):
            slens, spayload = runs
            out_lens = np.repeat(slens, lens)
            src_starts = np.cumsum(slens) - slens
            out_payload = _gather_segments(spayload, np.repeat(src_starts, lens), out_lens)
            return out_lens, out_payload
        return np.repeat(runs, lens)

    # -- estimate -----------------------------------------------------------
    def estimate_size(self, sample, dtype: str, n_total: int,
                      payload_total: int) -> float:
        if fmt.is_string(dtype):
            lengths, payload = sample
            if lengths.size == 0:
                return 11.0
            starts, lens = _runs_str(lengths, payload)
            rl = lengths[starts]
            hw = varint.uvarint_width(rl.astype(np.uint64))
            rlw = varint.uvarint_width(lens.astype(np.uint64))
            per_value = float((hw + rl + rlw).sum()) / lengths.size
            return per_value * n_total
        vals = np.asarray(sample)
        if vals.size == 0:
            return 11.0
        starts, lens = oracle.run_lengths(vals)
        if dtype in ("u8", "i8"):
            vw = np.ones(starts.size, dtype=np.int64)
        else:
            vw = varint.uvarint_width(base.to_unsigned_stream(vals[starts], dtype))
        rlw = varint.uvarint_width(lens.astype(np.uint64))
        return float((vw + rlw).sum()) / vals.size * n_total


def _runs_str(lengths: np.ndarray, payload: np.ndarray):
    """Maximal adjacent equal-string runs on a (lengths, payload) chunk.
    Arrow compares each string with the one before it."""
    import pyarrow.compute as pc

    n = lengths.size
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    vals = fmt.chunk_to_arrow((lengths, payload), "str")
    neq = pc.not_equal(vals[1:], vals[:-1]).to_numpy(zero_copy_only=False)
    change = np.flatnonzero(neq) + 1
    starts = np.concatenate(([0], change)).astype(np.int64)
    lens = np.diff(np.concatenate((starts, [n]))).astype(np.int64)
    return starts, lens


def _gather_segments(payload: np.ndarray, seg_starts: np.ndarray,
                     seg_lens: np.ndarray) -> np.ndarray:
    """Concatenate payload[seg_starts[i]:seg_starts[i]+seg_lens[i]] segments."""
    total = int(seg_lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.uint8)
    dst_starts = np.cumsum(seg_lens) - seg_lens
    idx = np.arange(total, dtype=np.int64) + np.repeat(seg_starts - dst_starts, seg_lens)
    return payload[idx]
