"""Per-partition Bloom filter sidecar over a string key column.

Zone maps (manifest min/max + truncated per-page string stats) prune
partitions whose key RANGE excludes a probe — but for hash-like or
interleaved keys the ranges overlap everything and the zone map admits
every partition, so a point lookup degrades to touching every partition
file. The Bloom sidecar is the standard answer (the same role Parquet's
split-block bloom filters play): ``bits_per_key`` bits per key, ``k``
probe positions derived by Kirsch–Mitzenmacher double hashing from two
decorrelated 64-bit polynomial hashes of the key bytes, serialized as a
raw little-endian bit array appended to the partition file AFTER the
column sections (data offsets unchanged; manifest carries only the
pointer + parameters + crc).

The reference has no index structures at all — its decode is a full
sequential scan (src/decode.rs:36-68); this module belongs to the
mandated scale extension, not to reference parity.

All kernels are vectorized numpy over (lengths, payload) string chunks
(rwcf.format.chunk_from_arrow) — no per-key Python loops.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import format as fmt
from . import textops

#: two decorrelated odd 64-bit polynomial bases -> independent hash
#: streams (same construction as rwcf.state's 128-bit composite key).
_B1 = textops._FP_BASE
_B2 = np.uint64((0x100000001B3 ^ 0xA5A5F00DDEADBEEF) | 1)
assert int(_B1) % 2 == 1 and int(_B2) % 2 == 1

#: cap on probe count — k beyond 8 buys <0.1% FPR at 10 bits/key but
#: doubles probe cost.
_MAX_K = 8


def _hash2(arr: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """Two independent uint64 hashes per key (string OR integer — round
    5 extends the sidecar to int key columns, the coverage Parquet's
    split-block blooms have). The step hash h2 is forced odd so the
    double-hash probe sequence h1 + i*h2 (mod m, m a power of two)
    cycles through distinct positions. Integer keys of any width and
    signedness hash their two's-complement 64-bit pattern (no checked
    cast, so u64 keys >= 2^63 hash too; an int64 key and its uint64 probe
    of the same bits agree)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_integer(arr.type):
        v = arr.to_numpy(zero_copy_only=False).astype(np.uint64)
        # two rounds of splitmix64-style finalization per stream —
        # vectorized, no byte-payload detour for fixed-width keys
        def mix(x, c1, c2):
            x = (x ^ (x >> np.uint64(30))) * np.uint64(c1)
            x = (x ^ (x >> np.uint64(27))) * np.uint64(c2)
            return x ^ (x >> np.uint64(31))
        h1 = mix(v + np.uint64(0x9E3779B97F4A7C15),
                 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
        h2 = mix(v + np.uint64(0xC2B2AE3D27D4EB4F),
                 0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53) | np.uint64(1)
        return h1, h2
    lengths, payload = fmt.chunk_from_arrow(arr)
    h1 = textops.segment_poly_hash(lengths, payload, base=_B1)
    h2 = textops.segment_poly_hash(lengths, payload, base=_B2) | np.uint64(1)
    return h1, h2


def _positions(h1: np.ndarray, h2: np.ndarray, m_bits: int,
               k: int) -> np.ndarray:
    """(k, n) uint64 bit positions; m_bits must be a power of two."""
    i = np.arange(k, dtype=np.uint64)[:, None]
    return (h1[None, :] + i * h2[None, :]) & np.uint64(m_bits - 1)


def build(keys: pa.Array | pa.ChunkedArray | list,
          bits_per_key: int = 10) -> dict:
    """Build a Bloom filter over ``keys``. Returns
    ``{"m_bits", "k", "n_keys", "data": uint8 ndarray}`` — ``data`` is
    the packed bit array (little-endian within each byte)."""
    if not isinstance(keys, (pa.Array, pa.ChunkedArray)):
        keys = pa.array([str(x) for x in keys], pa.string())
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    # null keys never point-lookup-match (SQL eq), so they don't enter
    # the filter — and the probe side's might_contain(null)=absent is
    # then consistent by construction
    if keys.null_count:
        keys = keys.drop_null()
    n = len(keys)
    m_bits = 1 << max(6, int(np.ceil(np.log2(max(n, 1) * bits_per_key))))
    k = max(1, min(_MAX_K, int(round(0.6931 * m_bits / max(n, 1)))))
    data = np.zeros(m_bits // 8, dtype=np.uint8)
    if n:
        pos = _positions(*_hash2(keys), m_bits, k).ravel()
        np.bitwise_or.at(data, (pos >> np.uint64(3)).astype(np.int64),
                         (np.uint64(1) << (pos & np.uint64(7)))
                         .astype(np.uint8))
    return {"m_bits": m_bits, "k": k, "n_keys": n,
            "bits_per_key": bits_per_key, "data": data}


def might_contain(m_bits: int, k: int, data: np.ndarray,
                  probes: pa.Array | pa.ChunkedArray | list) -> np.ndarray:
    """Boolean mask per probe: False = definitely absent, True = maybe
    present (no false negatives)."""
    if not isinstance(probes, (pa.Array, pa.ChunkedArray)):
        probes = list(probes)
        if probes and isinstance(probes[0], (int, np.integer)):
            probes = pa.array([int(x) % (1 << 64) for x in probes],
                              pa.uint64())
        else:
            probes = pa.array([str(x) for x in probes], pa.string())
    if len(probes) == 0:
        return np.zeros(0, dtype=bool)
    pos = _positions(*_hash2(probes), m_bits, k)
    byte = data[(pos >> np.uint64(3)).astype(np.int64)]
    bit = (np.uint64(1) << (pos & np.uint64(7))).astype(np.uint8)
    return np.all((byte & bit) != 0, axis=0)
