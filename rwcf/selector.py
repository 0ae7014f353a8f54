"""Sampling-based per-chunk codec auto-selector (north-rule component).

Generalizes the reference's guidance that "the most surefire way to
determine if RLE has benefits is to test it in practice"
(wills-columnar-format.org:958-963): sample the chunk, ask every applicable
codec for an estimated encoded size, pick the minimum. Plain is always
applicable, so selection never fails. Samples are *contiguous slices* (not
strided rows) so run structure survives into the RLE estimate.

Under a zstd transport (``EncodeConfig.transport``, the pipeline default)
the selector ranks by **stored bytes**, not by pre-transport size: every
section is zstd-1 framed after the codec runs, and a codec that wins before
zstd can lose after it (sequential doc ids are 2.7x smaller stored as plain
than as FSST). The cheap estimates only shortlist: the best ``_FINALISTS``
by estimate, plus plain, encode the sample and are ranked by the zstd-1
bytes of that payload plus meta, scaled to the chunk. RLE leaves the
finalists unencoded when no two adjacent sample values are equal
(unique doc ids): each value would then pay its own run length.
FSST is trained only when it can still win: one code byte stands in for
at most 8 payload bytes, so when zstd alone already compresses the plain
sample by ``_FSST_CEILING`` or more, FSST training is skipped. With
``transport=None`` the ranking is the pre-transport estimate, as direct
callers have always had it.

When the chunk is no longer than ``_SAMPLE_VALUES`` the sample is the whole
chunk, so the winning finalist's sample encode already is the chunk's
encode: ``Choice.encoded`` keeps it and :func:`encode_auto` stores it
instead of encoding the chunk a second time (every doc_id, n_tok and
source section of a 1000-row partition).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

from . import format as fmt
from .codecs import REGISTRY
from .codecs.rle import _runs_str

_SAMPLE_SLICES = 4
_SAMPLE_VALUES = 4096  # total sampled values across slices
#: transports whose stored bytes the selector ranks by
_ZSTD_TRANSPORTS = ("zstd", "zstd-page")
#: codecs kept, by cheap estimate, for the stored-bytes ranking (plus plain)
_FINALISTS = 2
#: FSST's best case: one code byte for an 8-byte symbol
_FSST_CEILING = 8.0


@dataclass
class Choice:
    codec: str
    #: estimated bytes of the chosen codec: stored (zstd-framed) bytes under
    #: a zstd transport, pre-transport encoded bytes otherwise; -1 = unknown
    estimate: int
    #: cheap pre-transport estimate of every codec that was asked
    estimates: dict[str, float]
    #: stored-bytes estimate of every finalist (None without transport)
    stored: dict[str, float] | None = None
    #: wall time spent choosing
    select_ms: float = 0.0
    #: the chosen codec's ``(meta, payload, pages)`` encode of the whole
    #: chunk, when the stored-bytes ranking made it (sample == chunk)
    encoded: tuple | None = field(default=None, repr=False, compare=False)


def _sample_slices(n: int, total_sample: int = _SAMPLE_VALUES,
                   k: int = _SAMPLE_SLICES) -> list[tuple[int, int]]:
    if n <= total_sample:
        return [(0, n)]
    per = total_sample // k
    # deterministic, evenly spread slice starts
    step = (n - per) // (k - 1)
    return [(i * step, i * step + per) for i in range(k)]


def sample_chunk(chunk, dtype: str):
    if fmt.is_string(dtype):
        lengths, payload = chunk
        n = lengths.size
        spans = _sample_slices(n)
        if len(spans) == 1:
            return chunk
        starts = np.cumsum(lengths) - lengths
        ls, ps = [], []
        for a, b in spans:
            ls.append(lengths[a:b])
            lo = int(starts[a])
            hi = int(starts[b - 1] + lengths[b - 1]) if b > a else lo
            ps.append(payload[lo:hi])
        return np.concatenate(ls), np.concatenate(ps)
    vals = np.asarray(chunk)
    spans = _sample_slices(vals.size)
    if len(spans) == 1:
        return vals
    return np.concatenate([vals[a:b] for a, b in spans])


def _has_runs(sample, dtype: str) -> bool:
    """Whether two adjacent values of ``sample`` are equal."""
    if fmt.is_string(dtype):
        lengths, payload = sample
        return _runs_str(lengths, payload)[0].size < lengths.size
    vals = np.asarray(sample)
    return bool((vals[1:] == vals[:-1]).any())


def _size_units(chunk, dtype: str) -> int:
    """Scale unit between a sample and its chunk: values for numbers,
    payload bytes plus one per string for strings."""
    if fmt.is_string(dtype):
        return int(chunk[0].size) + int(chunk[1].size)
    return int(np.asarray(chunk).size)


def _zstd_sample(sample, dtype: str, cid: str, page_target: int):
    """(zstd-1 bytes of the sample's payload plus meta, raw payload bytes,
    the codec's ``(meta, payload, pages)`` encode of the sample)."""
    encoded = REGISTRY[cid].encode(sample, dtype, page_target)
    meta, payload, _pages = encoded
    z = pa.Codec("zstd", compression_level=1).compress(payload, asbytes=True)
    return len(z) + len(meta), int(payload.size), encoded


def choose_codec(chunk, dtype: str,
                 candidates: list[str] | None = None,
                 transport: str | None = None,
                 page_target: int = fmt.ENGINE_PAGE_SIZE) -> Choice:
    t0 = time.perf_counter()
    n_total = fmt.chunk_len(chunk, dtype)
    payload_total = int(chunk[1].size) if fmt.is_string(dtype) else 0
    sample = sample_chunk(chunk, dtype)
    ids = [cid for cid in (candidates or list(REGISTRY))
           if REGISTRY[cid].supports(dtype)]
    stored = transport in _ZSTD_TRANSPORTS
    estimates = {cid: REGISTRY[cid].estimate_size(sample, dtype, n_total,
                                                  payload_total)
                 for cid in ids if not (stored and cid == "fsst")}
    if not stored:
        best = min(estimates, key=lambda c: (estimates[c], c))
        return Choice(codec=best, estimate=int(estimates[best])
                      if math.isfinite(estimates[best]) else -1,
                      estimates=estimates,
                      select_ms=(time.perf_counter() - t0) * 1e3)
    ranked = sorted((c for c in estimates if math.isfinite(estimates[c])),
                    key=lambda c: (estimates[c], c))
    finalists = ranked[:_FINALISTS]
    if "rle" in finalists and not _has_runs(sample, dtype):
        # rle's payload is then plain's plus one run length per value;
        # dictrle's own estimate is already inf without runs
        finalists.remove("rle")
    if "plain" in ids and "plain" not in finalists:
        finalists.append("plain")
    scale = (max(1, _size_units(chunk, dtype))
             / max(1, _size_units(sample, dtype)))
    framed = {}
    encodes = {}
    fsst_can_win = True
    for cid in finalists:
        z, raw, encodes[cid] = _zstd_sample(sample, dtype, cid, page_target)
        framed[cid] = z * scale
        if cid == "plain":
            fsst_can_win = raw / max(1, z) < _FSST_CEILING
    if "fsst" in ids and fsst_can_win:
        # trains the symbol table once; the sample encode and the chunk
        # encode reuse it through the codec's memo
        estimates["fsst"] = REGISTRY["fsst"].estimate_size(
            sample, dtype, n_total, payload_total)
        if math.isfinite(estimates["fsst"]):
            z, _raw, encodes["fsst"] = _zstd_sample(sample, dtype, "fsst",
                                                    page_target)
            framed["fsst"] = z * scale
    if not framed:  # every candidate bowed out on this data
        best = min(estimates, key=lambda c: (estimates[c], c))
        framed[best] = math.inf
    best = min(framed, key=lambda c: (framed[c], c))
    whole = len(_sample_slices(n_total)) == 1
    return Choice(codec=best, estimate=int(framed[best])
                  if math.isfinite(framed[best]) else -1,
                  estimates=estimates, stored=framed,
                  select_ms=(time.perf_counter() - t0) * 1e3,
                  encoded=encodes.get(best) if whole else None)


def encode_auto(chunk, dtype: str, page_target: int = fmt.ENGINE_PAGE_SIZE,
                candidates: list[str] | None = None,
                transport: str | None = None):
    """Select + encode; returns (EncodedColumn, Choice). ``transport`` is
    the section transport the encoded bytes will be stored under. A
    whole-chunk sample encode the selector made (``Choice.encoded``) is
    stored as it is, byte-identical to encoding the chunk again."""
    choice = choose_codec(chunk, dtype, candidates, transport, page_target)
    if choice.encoded is None:
        return fmt.encode_chunk(chunk, dtype, choice.codec, page_target), \
            choice
    meta, payload, pages = choice.encoded
    return fmt.EncodedColumn(dtype=dtype, codec=choice.codec, meta=meta,
                             pages=pages, payload=payload,
                             n_values=fmt.chunk_len(chunk, dtype)), choice
