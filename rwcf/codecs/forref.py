"""Frame-of-reference codec (north-rule extension): per page, subtract the
page minimum and bit-pack the non-negative deltas. Page layout:
``[min:svarint][width:u8][packed deltas]``. Wins over raw bit-packing when
values are large but clustered (timestamps, monotone ids).

Deltas are computed with wraparound arithmetic in the column's *native*
unsigned width: ``(v - min) mod 2**w`` equals the true delta because
``0 <= v - min < 2**w`` for any two values of a w-bit type — so an int32
token stream never touches int64 temporaries on the hot path.

The 16-bit deltas of a 50k-vocabulary token stream are whole words, so
:func:`base.pack_bits` writes them with one little-endian cast, and decode
adds each page's minimum while copying the page's words into one
preallocated output (no per-page arrays, no concatenation, no copy of the
payload to read a page header)."""

from __future__ import annotations

import math

import numpy as np

from .. import format as fmt
from .. import varint
from . import base
from .bitpack import _UNSIGNED, _plan_values_per_page


class ForCodec(base.Codec):
    id = "for"

    def supports(self, dtype: str) -> bool:
        return not fmt.is_string(dtype)

    def encode(self, chunk, dtype: str, page_target: int):
        np_t = fmt.DTYPES[dtype][2]
        ut = _UNSIGNED[dtype]
        vals = np.ascontiguousarray(chunk, dtype=np_t)
        u = vals.view(ut)
        n = vals.size
        if n:
            gspan = int(vals.max()) - int(vals.min())
            gw = base.bit_width(gspan)
        else:
            gw = 0
        vpp = _plan_values_per_page(gw, page_target)
        parts = []
        byte_lengths = []
        for s in range(0, max(n, 1), vpp):
            pv = vals[s:s + vpp]
            if pv.size == 0:
                break
            mn = int(pv.min())
            w = base.bit_width(int(pv.max()) - mn)
            deltas = u[s:s + vpp] - ut(mn & (np.iinfo(ut).max))
            # store the min as its two's-complement int64 view: u64 minima
            # >= 2**63 don't fit a positive int64, but decode adds the min
            # back modulo the type width, so the wrapped value is exact
            mn_store = mn - (1 << 64) if mn >= (1 << 63) else mn
            header = varint.encode_svarint(np.array([mn_store], dtype=np.int64))
            body = base.pack_bits(deltas, w)
            parts += (header, np.array([w], dtype=np.uint8), body)
            byte_lengths.append(header.size + 1 + body.size)
        payload = np.concatenate(parts) if parts else np.empty(0, dtype=np.uint8)
        pages = base.fixed_count_pages(n, vpp, byte_lengths)
        return b"", payload, pages

    def decode(self, payload, pages, meta, dtype: str, n: int):
        np_t = fmt.DTYPES[dtype][2]
        ut = _UNSIGNED[dtype]
        out = np.empty(sum(p.values_count for p in pages), dtype=ut)
        pos = 0
        for p in pages:
            # [min:svarint][width:u8] read from this page's own bytes
            r = fmt._Reader(payload, p.file_offset)
            mn = ut(r.svarint() & np.iinfo(ut).max)
            w = int(payload[r.pos])
            body = payload[r.pos + 1: p.file_offset + p.byte_length]
            seg = out[pos:pos + p.values_count]
            pos += p.values_count
            words = base.packed_words(body, w, seg.size)
            if words is None:
                words = base.unpack_bits(body, w, seg.size, ut)
            # wraps modulo the type width, as the encoder's deltas did
            np.add(words, mn, out=seg, dtype=ut)
        return out.view(np_t)[:n]

    def estimate_size(self, sample, dtype: str, n_total: int,
                      payload_total: int) -> float:
        if fmt.is_string(dtype):
            return math.inf
        vals = np.asarray(sample)
        if vals.size == 0:
            return 11.0
        span = int(vals.max()) - int(vals.min())
        w = base.bit_width(span)
        return w / 8.0 * n_total + 10
