"""FSST-style string compression (north-rule extension).

Inspired by "FSST: Fast Random Access String Compression" (VLDB 2020, see
PAPERS.md): a per-partition symbol table maps frequent substrings (2..8
bytes) to single code bytes, preserving per-string random access. This
implementation diverges from the paper where the paper's byte-code VM is
replaced by something that vectorizes well in pure Python/numpy:

- code bytes are drawn from byte values *absent* from the chunk's payload
  (so no escape byte is ever needed; decode substitutions are independent
  and order-free);
- the table is trained by iterative greedy gain selection on a small sample
  (re-counting after each batch of picks, like the paper's generations);
- encode/decode are whole-corpus ``bytes.replace`` passes (C speed), with
  per-string boundaries kept via a reserved separator byte on encode and
  via vectorized per-string code counts on decode.

Design note (measured, round 2): a fully vectorized single-pass matcher
(windowed-uint64 candidate discovery + parallel-greedy min-tag ownership,
provably byte-identical output to this replace loop) was built and
benchmarked as the proposed replacement for the "O(symbols x corpus)"
replace passes. It LOST: 2.5x slower on an 8MB text corpus (3.13s vs
1.26s) and 6x slower on a 6.4MB id-like corpus (4.61s vs 0.75s), because
the replace loop's corpus SHRINKS geometrically after the top-gain symbols
apply (and absent patterns return the original object without a copy), so
the nominal 120 passes touch far less than 120 x corpus bytes — an
adaptivity the one-shot matcher cannot exploit. Numbers recorded in
BENCH/BASELINE.md; the replace loop stays.

If the payload uses all 256 byte values the codec reports itself
inapplicable (estimate = inf) and the selector falls back.

Storage: pages of length-prefixed *encoded* strings (same page layout as the
plain string codec); meta = ``[n_syms:uvarint][per sym: code:u8 len:u8
bytes]``.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

from .. import format as fmt
from .. import varint
from . import base

# Training budget: string sections are typically <1% of a tokens-table
# partition's bytes, while symbol training dominated encode CPU at the
# original 16KiB x 8-round budget — 8KiB x 5 rounds keeps ~the same ratio
# on id-like corpora at roughly half the cost.
_TRAIN_BYTES = 8 * 1024
_MAX_SYM_LEN = 8
_BATCH = 24
_ROUNDS = 5


def _free_codes(payload: np.ndarray) -> np.ndarray:
    hist = np.bincount(payload, minlength=256)
    return np.flatnonzero(hist == 0)


def _candidate_gains(corpus: bytes) -> list[tuple[int, bytes]]:
    """(gain, substring) candidates via vectorized window counting.

    Each 8-byte window is keyed as a big-endian uint64, so one sort of the
    keys serves every symbol length: windows sharing an L-byte prefix are
    contiguous in that order, and a neighbour compare of ``key >> 8(8-L)``
    finds each length's groups. Among equal gains at the per-length
    shortlist cut, every tied candidate is kept."""
    buf = np.frombuffer(corpus, dtype=np.uint8)
    n = buf.size
    if n < 2:
        return []
    padded = np.zeros(n + 8, dtype=np.uint8)
    padded[:n] = buf
    # w64[i] = 8 bytes starting at i, as BE uint64
    w64 = np.zeros(n, dtype=np.uint64)
    for j in range(8):
        w64 |= padded[j:j + n].astype(np.uint64) << np.uint64(8 * (7 - j))
    order = np.argsort(w64)
    skeys = w64[order]
    out: list[tuple[int, bytes]] = []
    for L in range(2, min(_MAX_SYM_LEN, n) + 1):
        valid = order <= n - L  # windows that end inside the corpus
        idx = order[valid]
        pre = skeys[valid] >> np.uint64(8 * (8 - L))
        starts = np.flatnonzero(np.concatenate(([True], pre[1:] != pre[:-1])))
        counts = np.diff(np.append(starts, pre.size))
        gains = (L - 1) * counts - (L + 2)
        good = np.flatnonzero(gains > 0)
        if good.size > 4 * _BATCH:  # only the top slice can ever be picked
            cut = np.partition(gains[good], -4 * _BATCH)[-4 * _BATCH]
            good = good[gains[good] >= cut]
        first = np.minimum.reduceat(idx, starts)[good]
        for g, s in zip(gains[good].tolist(), first.tolist()):
            out.append((g, buf[s:s + L].tobytes()))
    out.sort(reverse=True)
    return out


def _train(sample_corpus: bytes, codes: list[int], sep: int) -> list[tuple[int, bytes]]:
    """Greedy symbol selection; returns [(code_byte, symbol_bytes)] in
    application order. Counting is numpy-vectorized (sliding windows +
    one sort) — the Python-level cost per round is only the top-K pick."""
    symbols: list[tuple[int, bytes]] = []
    corpus = sample_corpus
    forbidden = {sep} | set(codes)
    avail = list(codes)
    for _ in range(_ROUNDS):
        if not avail:
            break
        ranked = _candidate_gains(corpus)
        picks = []
        for gain, sym in ranked:
            if len(picks) >= min(_BATCH, len(avail)):
                break
            if any(b in forbidden for b in sym):
                continue
            picks.append(sym)
        if not picks:
            break
        for sym in picks:
            code = avail.pop(0)
            symbols.append((code, sym))
            corpus = corpus.replace(sym, bytes([code]))
    return symbols


def _serialize_meta(symbols: list[tuple[int, bytes]]) -> bytes:
    head = varint.encode_uvarint(np.array([len(symbols)], dtype=np.uint64)).tobytes()
    body = b"".join(bytes([code, len(sym)]) + sym for code, sym in symbols)
    return head + body


def _parse_meta(meta: bytes) -> list[tuple[int, bytes]]:
    mbuf = np.frombuffer(meta, dtype=np.uint8)
    r = fmt._Reader(mbuf)
    n = r.uvarint()
    out = []
    for _ in range(n):
        code = int(mbuf[r.pos]); slen = int(mbuf[r.pos + 1]); r.pos += 2
        out.append((code, r.take(slen)))
    return out


def _sample_fingerprint(sample_lengths: np.ndarray,
                        sample_payload: np.ndarray) -> int:
    """Cheap content fingerprint of the selector's deterministic sample —
    disambiguates the estimate→encode symbol-table memo so two chunks with
    identical (n_rows, payload_bytes) totals cannot collide (a collision
    was correctness-safe but silently degraded compression)."""
    head = sample_payload[:1024].tobytes()
    tail = sample_payload[-1024:].tobytes()
    return zlib.crc32(tail, zlib.crc32(head)) ^ (int(sample_lengths[:64].sum())
                                                 << 32)


def _with_separators(lengths: np.ndarray, payload: np.ndarray, sep: int) -> bytes:
    """payload with one sep byte after every string (vectorized scatter)."""
    n = lengths.size
    P = int(lengths.sum())
    out = np.full(P + n, sep, dtype=np.uint8)
    if P:
        dest = np.arange(P, dtype=np.int64) + np.repeat(np.arange(n, dtype=np.int64),
                                                        lengths)
        out[dest] = payload
    return out.tobytes()


class FsstCodec(base.Codec):
    id = "fsst"

    def __init__(self):
        # symbols trained during estimate_size, reusable by encode for the
        # same chunk (keyed by the selector sample's size and content — a
        # miss or stale hit only costs optimality, never correctness,
        # because codes are revalidated against the full payload's
        # free-byte set below)
        self._memo: dict[tuple, list[tuple[int, bytes]]] = {}

    def supports(self, dtype: str) -> bool:
        return fmt.is_string(dtype)

    def _usable_cached(self, key, free: np.ndarray):
        cached = self._memo.get(key)
        if not cached:
            return None, None
        free_set = {int(c) for c in free}
        if any(code not in free_set for code, _ in cached):
            return None, None  # sample missed bytes present in the full chunk
        used = {code for code, _ in cached}
        sym_bytes = {b for _, s in cached for b in s}
        for c in free:
            ci = int(c)
            if ci not in used and ci not in sym_bytes:
                return cached, ci  # (symbols, separator)
        return None, None

    def encode(self, chunk, dtype: str, page_target: int):
        lengths, payload = chunk
        free = _free_codes(payload)
        symbols: list[tuple[int, bytes]] = []
        enc_lengths, enc_payload = lengths, payload
        if free.size >= 2 and payload.size:
            from .. import selector
            s_len, s_pay = selector.sample_chunk((lengths, payload), dtype)
            key = (s_len.size, s_pay.size, _sample_fingerprint(s_len, s_pay))
            symbols, sep = self._usable_cached(key, free)
            if symbols is None:
                sep = int(free[0])
                codes = [int(c) for c in free[1:]]
                sample = _with_separators(*_sample_rows(lengths, payload),
                                          sep)[:_TRAIN_BYTES]
                symbols = _train(sample, codes, sep)
            if symbols:
                corpus = _with_separators(lengths, payload, sep)
                for code, sym in symbols:
                    corpus = corpus.replace(sym, bytes([code]))
                enc = np.frombuffer(corpus, dtype=np.uint8)
                sep_pos = np.flatnonzero(enc == sep)
                enc_lengths = np.diff(np.concatenate(([-1], sep_pos))) - 1
                enc_payload = enc[enc != sep]
        meta = _serialize_meta(symbols)
        hw = varint.uvarint_width(enc_lengths.astype(np.uint64))
        out = varint.encode_str_column(enc_lengths, enc_payload)
        pages = base.paginate_widths(hw + enc_lengths,
                                     np.ones(enc_lengths.size, dtype=np.int64),
                                     page_target)
        return meta, out, pages

    def decode(self, payload, pages, meta, dtype: str, n: int):
        symbols = _parse_meta(meta)
        enc_lengths, enc_payload = varint.decode_str_column(payload, n)
        if not symbols:
            return enc_lengths, enc_payload
        # per-string decoded lengths via vectorized code counts
        extra = np.zeros(n, dtype=np.int64)
        ends = np.cumsum(enc_lengths)
        for code, sym in symbols:
            pos = np.flatnonzero(enc_payload == code)
            if pos.size:
                sid = np.searchsorted(ends, pos, side="right")
                np.add.at(extra, sid, len(sym) - 1)
        dec_lengths = enc_lengths + extra
        corpus = enc_payload.tobytes()
        for code, sym in symbols:  # order-free: codes are unique & absent from syms
            corpus = corpus.replace(bytes([code]), sym)
        dec_payload = np.frombuffer(corpus, dtype=np.uint8)
        assert dec_payload.size == int(dec_lengths.sum())
        return dec_lengths, dec_payload

    def estimate_size(self, sample, dtype: str, n_total: int,
                      payload_total: int) -> float:
        if not fmt.is_string(dtype):
            return math.inf
        lengths, payload = sample
        if lengths.size == 0:
            return 11.0
        free = _free_codes(payload)
        if free.size < 2:
            return math.inf
        # low-cardinality early-out: dictionary strictly dominates FSST when
        # few distinct values exist — skip the (expensive) training pass
        probe = min(256, lengths.size)
        offs = np.cumsum(lengths) - lengths
        distinct = {payload[offs[i]:offs[i] + lengths[i]].tobytes()
                    for i in range(probe)}
        if len(distinct) < max(2, probe // 16):
            return math.inf
        sep = int(free[0])
        corpus = _with_separators(lengths, payload, sep)[:_TRAIN_BYTES]
        # keyed by the sample alone: the selector's sample is deterministic
        # and a sample is its own sample, so encoding the chunk or the
        # sample itself recomputes the identical key — and training on an
        # identical sample would return the memoized symbols again
        key = (lengths.size, payload.size,
               _sample_fingerprint(lengths, payload))
        symbols = self._memo.get(key)
        if symbols is None:
            symbols = _train(corpus, [int(c) for c in free[1:]], sep)
            if len(self._memo) > 16:
                self._memo.clear()
            self._memo[key] = symbols
        if not symbols:
            return math.inf
        enc = corpus
        for code, sym in symbols:
            enc = enc.replace(sym, bytes([code]))
        ratio = len(enc) / max(1, len(corpus))
        meta_bytes = sum(len(s) + 2 for _, s in symbols) + 2
        hw = varint.uvarint_width(lengths.astype(np.uint64))
        return ratio * payload_total + float(hw.mean()) * n_total + meta_bytes


def _sample_rows(lengths: np.ndarray, payload: np.ndarray, max_rows: int = 2048):
    if lengths.size <= max_rows:
        return lengths, payload
    stride = lengths.size // max_rows
    idx = np.arange(0, lengths.size, stride)[:max_rows]
    starts = np.cumsum(lengths) - lengths
    from .rle import _gather_segments
    return lengths[idx], _gather_segments(payload, starts[idx], lengths[idx])
