"""Ray-Data encode/decode jobs with per-partition lineage + resume.

Architecture (SURVEY.md §3-4), deliberately unlike the reference's
single-threaded shared-iterator loop (src/encode.rs:8-40): each input
parquet row-group is an independent fragment task; fragments are sub-split
*inside* the task by cumulative-token budget (size-aware partitioning — a
few 256k-token rows can't starve the pool); every sub-partition encodes its
four columns through the sampling codec selector, writes one partition file
(column sections, each in the v1 trailer-last container) atomically, and
commits a JSON lineage row (input fragment, codec per column, byte counts,
checksum) to the manifest directory. Resume = skip fragments/partitions
whose manifest rows already exist.

There is NO shuffle on this path — encode is embarrassingly parallel per
fragment, which is exactly what unlocks 100TB scale. The optional
``encode_grouped_by_source`` pipeline demonstrates the explicit
groupby-on-source shuffle with salted keys for skew flattening
(north_star), at the cost of an all-to-all exchange.
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
import time
import zlib
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import format as fmt
from . import rayenv, selector

TOKEN_COLUMNS = ["doc_id", "tokens", "n_tok", "source"]

#: logical schema of the decoded table (input_hint shape)
TOKENS_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("tokens", pa.list_(pa.int32())),
    ("n_tok", pa.int32()),
    ("source", pa.string()),
])


@dataclass
class EncodeConfig:
    out_dir: str
    page_target: int = fmt.ENGINE_PAGE_SIZE
    codecs: list[str] | None = None          # candidate codec ids (None = all)
    partition_token_budget: int = 2_000_000  # size-aware sub-split budget
    columns: list[str] = field(default_factory=lambda: list(TOKEN_COLUMNS))
    #: transport compression over each encoded column section — the
    #: reference's own V2 roadmap names exactly this ("Compression (like
    #: zstd or snappy)", wills-columnar-format.org:196-204). zstd-1 takes
    #: FOR-packed tokens from 2.00 to 1.57 B/token at ~450MB/s.
    #: "zstd-page" (default, round 2) compresses each PAGE as its own zstd
    #: frame (+ one trailer frame for the footer), so zone-map page
    #: skipping saves disk IO too, not just decode CPU — a whole-section
    #: zstd stream is not seekable (the round-1 caveat this removes).
    #: "zstd" keeps the whole-section stream; None stores raw.
    #: Under either zstd transport the codec selector ranks its finalists
    #: by stored (zstd-1 framed) bytes; with None it ranks by raw size.
    transport: str | None = "zstd-page"
    #: Bloom sidecar bits per key over each string column named in
    #: ``bloom_columns`` (0 = off, the default). Zone maps cannot prune
    #: hash-like/interleaved keys (every partition's [min,max] admits
    #: every probe); the Bloom sidecar restores O(matching partitions)
    #: point lookups — the same role as Parquet's split-block blooms.
    #: Bits are appended AFTER the column sections (data offsets
    #: unchanged); ``encoded_bytes`` stays data-only and the sidecar is
    #: accounted separately as ``bloom_bytes`` in the manifest row.
    bloom_bits_per_key: int = 0
    bloom_columns: tuple = ("doc_id",)
    #: schema-log version (rwcf.schema) the input columns are named under;
    #: stamped into each manifest row so readers can resolve physical
    #: column names by stable field id. None (default) = the base
    #: TOKENS_SCHEMA, matching manifests written before schema evolution
    #: existed. encode_job fills it automatically when the store has a
    #: schema log.
    schema_version: int | None = None

    @property
    def parts_dir(self) -> str:
        return os.path.join(self.out_dir, "parts")

    @property
    def manifest_dir(self) -> str:
        return os.path.join(self.out_dir, "manifest")


# ---------------------------------------------------------------------------
# planning (driver side, metadata only — no data bytes read)
# ---------------------------------------------------------------------------

def plan_fragments(input_paths: list[str] | str) -> list[dict]:
    """One fragment descriptor per parquet row-group (deterministic ids)."""
    if isinstance(input_paths, str):
        input_paths = [input_paths]
    frags = []
    for path in sorted(input_paths):
        meta = pq.ParquetFile(path).metadata
        stem = os.path.splitext(os.path.basename(path))[0]
        # path-hash suffix: two files with the same stem in different
        # directories must not collide into one fragment id (silent loss)
        tag = zlib.crc32(os.path.abspath(path).encode()) & 0xFFFF
        for rg in range(meta.num_row_groups):
            frags.append({
                "fragment_id": f"{stem}-{tag:04x}-rg{rg:05d}",
                "path": path,
                "row_group": rg,
                "num_rows": meta.row_group(rg).num_rows,
            })
    return frags


def read_parquet_rowgroups(input_paths, columns: list[str] | None = None,
                           rowgroups_per_task: int = 1):
    """Parallel parquet source at row-group granularity.

    ``ray.data.read_parquet`` plans one read task per FILE; a dataset
    stored as one big parquet file is then read by a single serial task
    (measured: 14 s serial read dominating a 25 s dedup stage at sf0.1)
    — ``SplitBlocks`` only parallelizes downstream consumers, not the
    read itself. This source plans per row group (driver-side metadata
    only, same :func:`plan_fragments` planner the encoder uses) and
    reads each fragment inside its own Ray task, so a single-file input
    parallelizes exactly like a directory of shards. At 100 TB the unit
    of read parallelism must be the row group, not the file."""
    import ray.data as rd
    from . import rayenv
    frags = plan_fragments(input_paths)
    items = [{"path": f["path"], "row_group": f["row_group"]} for f in frags]
    cols = columns

    def read_frag(batch: pa.Table) -> pa.Table:
        out = []
        for path, rg in zip(batch.column("path").to_pylist(),
                            batch.column("row_group").to_pylist()):
            out.append(pq.ParquetFile(path).read_row_group(rg, columns=cols))
        return pa.concat_tables(out)

    n_blocks = max(1, len(items) // max(1, rowgroups_per_task))
    return rd.from_items(items, override_num_blocks=n_blocks) \
        .map_batches(read_frag, batch_format="pyarrow",
                     batch_size=max(1, rowgroups_per_task),
                     **rayenv.remote_args())


# ---------------------------------------------------------------------------
# column extraction / reassembly
# ---------------------------------------------------------------------------

def _table_chunks(tbl: pa.Table) -> dict[str, tuple]:
    """Split the tokens table into codec chunks: (chunk, dtype, validity)
    per stream. ``tokens`` becomes a flattened int32 value stream; row
    lengths ride in ``n_tok`` (list-offset handling, SURVEY.md §7 hard
    part c). Columns beyond the base four (schema-evolution adds,
    rwcf.schema) chunk generically by their Arrow type — any fmt.DTYPES
    integer width or string, NULLABLE (dense values + a validity run
    bitmap in the v2 footer). ``doc_id``/``tokens``/``n_tok`` stay
    non-nullable: they are the store's row identity / payload / list
    offsets and every mutation primitive keys on them."""
    out = {}
    for name in tbl.column_names:
        col = tbl.column(name).combine_chunks()
        if name in ("tokens", "n_tok", "doc_id") and col.null_count:
            raise ValueError(
                f"column {name!r} is part of the store's row identity "
                f"and cannot contain nulls ({col.null_count} found)")
        if name == "tokens":
            la = col
            if la.type != pa.list_(pa.int32()) \
                    and la.type != pa.large_list(pa.int32()):
                la = la.cast(pa.list_(pa.int32()))  # raises on overflow
            flat = la.flatten().to_numpy(zero_copy_only=False) \
                .astype(np.int32, copy=False)
            out["tokens"] = (flat, "i32", None)
        elif name == "n_tok":
            out["n_tok"] = (col.to_numpy().astype(np.int32), "i32", None)
        else:
            col, validity = fmt.split_validity(col)
            code = fmt.dtype_code_for_arrow(col.type)
            if fmt.is_string(code):
                out[name] = (fmt.chunk_from_arrow(col), "str", validity)
            else:
                out[name] = (col.to_numpy().astype(fmt.DTYPES[code][2],
                                                   copy=False), code,
                             validity)
    if "tokens" in out and "n_tok" in out:
        la = tbl.column("tokens").combine_chunks()
        lengths = pc.list_value_length(la).to_numpy().astype(np.int64)
        if not np.array_equal(lengths, out["n_tok"][0].astype(np.int64)):
            raise ValueError("n_tok != len(tokens): input invariant violated")
    return out


# ---------------------------------------------------------------------------
# transport framing
# ---------------------------------------------------------------------------

def _zstd() -> pa.Codec:
    return pa.Codec("zstd", compression_level=1)


def _compress_frames(blob: bytes, enc: "fmt.EncodedColumn"):
    """Per-page transport framing: one zstd frame per page plus a trailer
    frame (footer + size word). Returns (framed_bytes, frames) with
    frames = [[section_offset, comp_len, raw_len, crc32], ...]; the LAST
    entry is always the trailer frame. Every frame is independently
    seekable/decompressible — the property whole-section zstd lacks."""
    codec = _zstd()
    payload_len = int(enc.payload.size)
    spans = [(p.file_offset, p.byte_length) for p in enc.pages]
    spans.append((payload_len, len(blob) - payload_len))  # trailer
    view = memoryview(blob)
    parts: list[bytes] = []
    frames: list[list[int]] = []
    off = 0
    for s, ln in spans:
        comp = codec.compress(view[s:s + ln], asbytes=True)
        frames.append([off, len(comp), ln, zlib.crc32(comp)])
        parts.append(comp)
        off += len(comp)
    return b"".join(parts), frames


def _untransport(blob: bytes, cm: dict) -> bytes:
    """Inverse of the section transport: reassemble the raw column file
    from a whole-section stream or from per-page frames."""
    if not cm.get("transport"):
        return blob
    codec = _zstd()
    frames = cm.get("frames")
    if frames:
        out = [codec.decompress(blob[off:off + clen], rawlen, asbytes=True)
               for off, clen, rawlen, _crc in frames]
        return b"".join(out)
    return pa.Codec(cm["transport"]).decompress(blob, cm["raw_length"],
                                                asbytes=True)


# ---------------------------------------------------------------------------
# partition encode / decode (pure functions, used by Ray stages + tests)
# ---------------------------------------------------------------------------

def encode_partition(tbl: pa.Table, pid: str, cfg: EncodeConfig,
                     lineage: dict | None = None,
                     extra: dict | None = None) -> dict:
    """Encode one partition's columns, write the partition file + manifest
    row atomically. Returns the manifest row (codec choices, byte counts,
    checksums — the north rule's lineage record). ``extra`` is merged into
    the row BEFORE the manifest commit (compaction uses it to land its
    ``replaces`` tombstone list atomically with the data)."""
    t0 = time.perf_counter()
    chunks = _table_chunks(tbl)
    sections = []
    col_meta = []
    offset = 0
    decoded_bytes = 0
    for name in tbl.column_names:
        chunk, dtype, validity = chunks[name]
        enc, choice = selector.encode_auto(chunk, dtype, cfg.page_target,
                                           cfg.codecs, cfg.transport)
        if validity is not None:
            enc.validity = validity  # v2 footer carries the run bitmap
        blob = fmt.write_column_file(enc)
        raw_length = len(blob)
        frames = None
        if cfg.transport == "zstd-page":
            blob, frames = _compress_frames(blob, enc)
        elif cfg.transport:
            blob = pa.Codec(cfg.transport, compression_level=1).compress(
                blob, asbytes=True)
        if fmt.is_string(dtype):
            dec_b = int(chunk[1].size) + 8 * len(chunk[0])
        else:
            dec_b = int(np.asarray(chunk).nbytes)
        if validity is not None:
            dec_b += int(validity.size)  # 1 byte/row validity accounting
        decoded_bytes += dec_b
        col_meta.append({
            "column": name, "dtype": dtype, "codec": enc.codec,
            "n_values": enc.n_values, "offset": offset, "length": len(blob),
            "page_stats": fmt.page_value_stats(chunk, dtype, enc.pages),
            "transport": cfg.transport, "raw_length": raw_length,
            "frames": frames,
            **({"null_count": int(validity.size) - int(validity.sum())}
               if validity is not None else {}),
            # checksum over the ENCODED section: detects file corruption at
            # decode time for half the bytes of a decoded-chunk crc; codec
            # fidelity itself is proven by verify_job + the codec test suite
            "crc": zlib.crc32(blob),
            "estimate": choice.estimate,
            "select_ms": round(choice.select_ms, 3), "decoded_bytes": dec_b,
        })
        sections.append(blob)
        offset += len(blob)

    blooms = {}
    bloom_bytes = 0
    if cfg.bloom_bits_per_key > 0:
        from . import bloom as _bloom
        boff = offset
        for name in cfg.bloom_columns:
            # string AND integer key columns (round 5 — the coverage
            # Parquet's split-block blooms have); tokens/n_tok excluded
            # (value stream / list offsets, not point-lookup keys)
            if name not in chunks or name in ("tokens", "n_tok"):
                continue
            bf = _bloom.build(tbl.column(name), cfg.bloom_bits_per_key)
            raw = bf["data"].tobytes()
            blooms[name] = {"offset": boff, "length": len(raw),
                            "m_bits": bf["m_bits"], "k": bf["k"],
                            "n_keys": bf["n_keys"],
                            "bits_per_key": bf["bits_per_key"],
                            "crc": zlib.crc32(raw)}
            sections.append(raw)
            boff += len(raw)
            bloom_bytes += len(raw)

    # tokens is a flattened value stream; zone maps are per-row
    stats = {name: zone_map(tbl.column(name)) for name in tbl.column_names
             if name != "tokens"}
    os.makedirs(cfg.parts_dir, exist_ok=True)
    os.makedirs(cfg.manifest_dir, exist_ok=True)
    file_path = os.path.join(cfg.parts_dir, f"{pid}.rwcf")
    tmp = file_path + f".tmp{os.getpid()}"
    with open(tmp, "wb") as f:
        for s in sections:
            f.write(s)
    os.replace(tmp, file_path)

    # n_tokens is 0 for stores without token payloads (e.g. a bucketed
    # key/attribute side table) — every column still gets full lineage
    n_tokens = (int(np.asarray(chunks["n_tok"][0]).astype(np.int64).sum())
                if "n_tok" in chunks else 0)
    row = {
        "pid": pid,
        "file": file_path,
        "n_rows": tbl.num_rows,
        "n_tokens": n_tokens,
        "encoded_bytes": offset,
        "decoded_bytes": decoded_bytes,
        "columns": col_meta,
        "stats": stats,
        "lineage": lineage or {},
        "codec_by_column": {c["column"]: c["codec"] for c in col_meta},
        "encode_seconds": round(time.perf_counter() - t0, 4),
        "status": "committed",
    }
    if cfg.schema_version is not None:
        row["schema_version"] = cfg.schema_version
    if blooms:
        row["bloom"] = blooms
        row["bloom_bytes"] = bloom_bytes
    if extra:
        row.update(extra)
    commit_manifest_row(cfg.out_dir, row)  # commit point: row lands last
    return row


def commit_manifest_row(out_dir: str, row: dict) -> None:
    """Atomically write ``row`` as ``manifest/<pid>.json`` (tmp +
    rename). The partition file is stored relative to the store root, so
    a copied store reads, compacts and collects its own files; readers
    resolve it through :func:`read_manifest_row` / ``load_manifest``."""
    mpath = os.path.join(out_dir, "manifest", f"{row['pid']}.json")
    rel = _store_relative(out_dir, row["file"])
    mtmp = mpath + f".tmp{os.getpid()}"
    with open(mtmp, "w") as f:
        # json.dumps runs the C encoder; json.dump's chunked writes run
        # the pure-Python one. Both write the same text.
        f.write(json.dumps(dict(row, file=rel) if rel else row))
    os.replace(mtmp, mpath)


def _store_relative(out_dir: str, path: str) -> str | None:
    """``path`` relative to the store root, or None if it lies outside."""
    rel = os.path.relpath(path, out_dir)
    if rel == os.pardir or rel.startswith(os.pardir + os.sep):
        return None
    return rel


def _resolve_file(row: dict, out_dir: str) -> dict:
    """Store-relative ``file`` (always ``parts/<name>``) -> a path the
    process can open. Rows written before paths were store-relative hold
    the path the encoder was given, absolute or relative to its cwd, and
    are returned as they are."""
    if os.path.dirname(row["file"]) == "parts":
        row["file"] = os.path.join(out_dir, row["file"])
    return row


def read_manifest_row(mpath: str) -> dict:
    """One committed ``manifest/<pid>.json`` row, its file resolved."""
    with open(mpath) as f:
        row = json.load(f)
    return _resolve_file(row, os.path.dirname(os.path.dirname(mpath)))


def decode_partition(row: dict, columns: list[str] | None = None,
                     with_tokens: bool = True) -> pa.Table:
    """Read + decode one partition from its manifest row (column-pruned:
    only requested sections are read from disk). Columns are PHYSICAL
    names as written; schema-evolution renames/defaults resolve one level
    up in rwcf.schema.scan. Output column order = section order."""
    avail = [cm["column"] for cm in row["columns"]]
    want = set(columns if columns is not None else avail)
    need = set(want)
    if "tokens" in want:
        need.add("n_tok")
    chunks = {}
    dtypes = {}
    validities = {}
    with open(row["file"], "rb") as f:
        for cm in row["columns"]:
            if cm["column"] not in need:
                continue
            f.seek(cm["offset"])
            blob = f.read(cm["length"])
            if cm.get("crc") is not None and zlib.crc32(blob) != cm["crc"]:
                raise IOError(f"checksum mismatch in {row['pid']}:{cm['column']}")
            blob = _untransport(blob, cm)
            enc = fmt.read_column_file(blob)
            enc.dtype = cm["dtype"]  # concrete width from lineage
            chunks[cm["column"]] = fmt.decode_chunk(enc)
            dtypes[cm["column"]] = cm["dtype"]
            if enc.validity is not None:
                validities[cm["column"]] = enc.validity
    cols = {}
    for name in avail:
        if name not in want or name not in chunks:
            continue
        if name == "tokens":
            n_tok = np.asarray(chunks["n_tok"], dtype=np.int32)
            offsets = np.concatenate(([0], np.cumsum(n_tok.astype(np.int64))))
            la = pa.LargeListArray.from_arrays(
                offsets, pa.array(np.asarray(chunks["tokens"], dtype=np.int32),
                                  type=pa.int32()))
            cols["tokens"] = la.cast(pa.list_(pa.int32()))
        elif fmt.is_string(dtypes[name]):
            cols[name] = fmt.chunk_to_arrow(chunks[name], "str") \
                .cast(pa.string())
        else:
            cols[name] = fmt.chunk_to_arrow(chunks[name], dtypes[name])
        if name in validities:  # scatter dense values to logical rows
            cols[name] = fmt.apply_validity(cols[name], validities[name])
    out = pa.table({k: cols[k] for k in avail if k in cols})
    dr = row.get("deleted_rows")
    if dr:
        keep = np.setdiff1d(np.arange(out.num_rows, dtype=np.int64),
                            np.asarray(dr, dtype=np.int64))
        out = out.take(pa.array(keep))
    return out


def decoded_schema(row: dict, columns: list[str] | None = None) -> pa.Schema:
    """Arrow schema of :func:`decode_partition`'s output for one manifest
    row, from its lineage alone (no IO)."""
    fields = []
    for cm in row["columns"]:
        name = cm["column"]
        if columns is not None and name not in columns:
            continue
        if name == "tokens":
            fields.append(pa.field("tokens", pa.list_(pa.int32())))
        elif fmt.is_string(cm["dtype"]):
            fields.append(pa.field(name, pa.string()))
        else:
            fields.append(pa.field(name, fmt.DTYPES[cm["dtype"]][1]))
    return pa.schema(fields)


def split_by_token_budget(n_tok: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """Size-aware sub-partitioning: cut [start,end) row spans so each span's
    token sum ~<= budget (always >=1 row). Deterministic."""
    csum = np.cumsum(n_tok.astype(np.int64))
    spans = []
    start = 0
    n = n_tok.size
    while start < n:
        base = csum[start - 1] if start else 0
        # cut BEFORE the row that would overshoot (giant rows isolate into
        # their own partition instead of bloating a neighbor's)
        end = int(np.searchsorted(csum, base + budget, side="right"))
        end = min(max(end, start + 1), n)
        spans.append((start, end))
        start = end
    return spans


# ---------------------------------------------------------------------------
# Ray Data stages
# ---------------------------------------------------------------------------

def encode_fragment(desc: dict, cfg: EncodeConfig, resume: bool = True,
                    pf: pq.ParquetFile | None = None) -> list[dict]:
    """Encode one fragment: read its row group (column-pruned), sub-split by
    token budget, encode + commit each sub-partition. ``pf`` is the
    fragment's input file already open (encode_fragment_batch opens each
    file once for all its row groups)."""
    committed = {r["pid"]: r
                 for r in json.loads(desc.get("committed") or "[]")}
    replaced = set(json.loads(desc.get("replaced") or "[]"))
    if pf is None:
        pf = pq.ParquetFile(desc["path"])
    tbl = pf.read_row_group(desc["row_group"], columns=cfg.columns)
    if "n_tok" in tbl.column_names:
        w = tbl.column("n_tok").combine_chunks().to_numpy().astype(np.int64)
    else:  # no token weights (side/attribute tables): budget bounds ROWS
        w = np.ones(tbl.num_rows, dtype=np.int64)
    spans = split_by_token_budget(w, cfg.partition_token_budget)
    out = []
    for k, (a, b) in enumerate(spans):
        pid = f"{desc['fragment_id']}-p{k:04d}"
        if resume and pid in replaced:
            # absorbed into a compacted partition — its data lives there;
            # emit nothing (the compaction row is already on disk)
            continue
        if resume and pid in committed:  # compacted-manifest commit
            out.append(committed[pid])
            continue
        mpath = os.path.join(cfg.manifest_dir, f"{pid}.json")
        if resume and os.path.exists(mpath):
            out.append(read_manifest_row(mpath))  # committed — skip work
            continue
        lineage = {"path": desc["path"], "row_group": desc["row_group"],
                   "row_start": a, "row_count": b - a}
        out.append(encode_partition(tbl.slice(a, b - a), pid, cfg, lineage))
    return out


def encode_fragment_batch(batch: pa.Table, cfg: EncodeConfig,
                          resume: bool = True) -> pa.Table:
    """Stateless encode stage. Plain function on purpose: per-partition codec
    state (FSST tables, dictionaries) is rebuilt per partition by design, so
    tasks on warm reused workers beat an actor-pool process spawn per stage."""
    rows = []
    # fragments come file by file: open each input once for its row groups
    for path, descs in itertools.groupby(batch.to_pylist(),
                                         key=lambda d: d["path"]):
        with pq.ParquetFile(path) as pf:
            for desc in descs:
                rows.extend(encode_fragment(desc, cfg, resume, pf))
    return manifest_rows_to_table(rows)


def decode_partition_batch(batch: pa.Table,
                           columns: list[str] | None = None) -> pa.Table:
    """Stateless decode stage: manifest rows in, decoded Arrow rows out.
    A plain function on purpose — decode holds no cross-batch state, and
    stateless tasks reuse warm worker processes across pipeline stages
    instead of paying an actor-pool process spawn per stage."""
    tables = [decode_partition(row, columns)
              for row in manifest_table_to_rows(batch)]
    if not tables:
        keep = [f for f in TOKENS_SCHEMA if f.name in (columns or
                                                       TOKEN_COLUMNS)]
        return pa.Table.from_arrays([pa.array([], f.type) for f in keep],
                                    schema=pa.schema(keep))
    return pa.concat_tables(tables)


def verify_partition_batch(batch: pa.Table) -> pa.Table:
    """Decode each partition and compare bit-exactly against its input
    fragment rows (per-partition verification — no global order assumption,
    no shuffle join; SURVEY.md §4.2 'Ordering')."""
    return _verify_rows(batch)


def _verify_rows(batch: pa.Table) -> pa.Table:
        out = {"pid": [], "n_rows": [], "n_tokens": [], "equal": [], "mode": []}
        for row in manifest_table_to_rows(batch):
            dec = decode_partition(row)  # validates section checksums
            lin = row["lineage"]
            dr = row.get("deleted_rows") or []
            if "path" in lin:  # fragment lineage: bit-exact vs source rows
                # verify the partition's OWN columns (custom-column and
                # nullable stores verify too, not just the base tokens
                # schema); null-exact — Table.equals compares validity
                store_cols = [c["column"] for c in row["columns"]]
                src = pq.ParquetFile(lin["path"]).read_row_group(
                    lin["row_group"], columns=store_cols)
                src = src.slice(lin["row_start"], lin["row_count"])
                if dr:  # tombstoned rows are invisible by contract
                    keep = np.setdiff1d(
                        np.arange(src.num_rows, dtype=np.int64),
                        np.asarray(dr, dtype=np.int64))
                    src = src.take(pa.array(keep))
                src = src.select(store_cols)  # parquet order != ours
                eq = dec.select(store_cols).cast(src.schema).equals(src)
                mode = "source"
            else:  # grouped lineage carries no input fragment reference:
                # self-verify (checksums passed + decoded totals match;
                # the token total is unknowable under tombstones without
                # trusting the very decode being checked, so it is only
                # asserted on undeleted partitions)
                import pyarrow.compute as pc
                toks = pc.sum(pc.list_value_length(dec.column("tokens"))).as_py() or 0
                eq = dec.num_rows == row["n_rows"] - len(dr) and (
                    bool(dr) or toks == row["n_tokens"])
                mode = "self"
            out["pid"].append(row["pid"])
            out["n_rows"].append(row["n_rows"])
            out["n_tokens"].append(row["n_tokens"])
            out["equal"].append(bool(eq))
            out["mode"].append(mode)
        return pa.table(out)


def manifest_rows_to_table(rows: list[dict]) -> pa.Table:
    return pa.table({
        "pid": pa.array([r["pid"] for r in rows], pa.string()),
        "file": pa.array([r["file"] for r in rows], pa.string()),
        "n_rows": pa.array([r["n_rows"] for r in rows], pa.int64()),
        "n_tokens": pa.array([r["n_tokens"] for r in rows], pa.int64()),
        "encoded_bytes": pa.array([r["encoded_bytes"] for r in rows], pa.int64()),
        "decoded_bytes": pa.array([r["decoded_bytes"] for r in rows], pa.int64()),
        "encode_seconds": pa.array([r["encode_seconds"] for r in rows], pa.float64()),
        "detail": pa.array([json.dumps({k: r.get(k) for k in
                                        ("columns", "lineage", "codec_by_column",
                                         "status", "stats", "bloom",
                                         "replaces", "deleted_rows",
                                         "schema_version", "branch",
                                         "bloom_bytes")})
                            for r in rows], pa.string()),
    })


def manifest_table_to_rows(tbl: pa.Table) -> list[dict]:
    rows = []
    for r in tbl.to_pylist():
        detail = json.loads(r.pop("detail"))
        r.update(detail)
        rows.append(r)
    return rows


def _cluster_cpus() -> int:
    """CPUs of the connected Ray cluster; 4 before any session starts
    (the first Dataset call starts one). Any other failure raises: this
    count sizes stages."""
    import ray
    if not ray.is_initialized():
        return 4
    return int(ray.cluster_resources().get("CPU", 4))


def _default_concurrency() -> int:
    """Task-slot budget: total CPUs minus headroom so downstream stages
    (aggregates, counts) are never starved by a stage that fills every
    CPU (streaming-executor starvation)."""
    return max(1, _cluster_cpus() - 2)


def _stage_cap(concurrency: int | None, task_cpus: int) -> int:
    """Resolved concurrency cap for a heavy stage. An explicit value wins;
    otherwise bandwidth-aware slots (cpus // task_cpus) when the caller
    declared fat tasks, else the default CPU-minus-headroom budget — so the
    headroom cap is always applied, never silently unbounded."""
    if concurrency is not None:
        return max(1, concurrency)
    if task_cpus > 1:
        return max(1, _cluster_cpus() // task_cpus)
    return _default_concurrency()


def _resume_plan(out_dir: str, frags: list[dict]) -> list[dict]:
    """Attach resume bookkeeping to each fragment descriptor: its
    already-committed rows (possibly living only in compacted manifest
    shards) as ``committed`` and its pids absorbed into a compacted
    partition (``replaces`` edges plus the gc shadow ledger) as
    ``replaced`` — both count as committed, since re-encoding them would
    duplicate their rows. Returns the committed rows that are not
    replaced, so a caller can ask the store a question without a second
    manifest load."""
    all_rows = load_manifest(out_dir, include_replaced=True)
    replaced = {p for r in all_rows for p in (r.get("replaces") or [])}
    # the persistent shadow ledger remembers pids whose replaces-edge
    # manifests gc already deleted — still committed, never re-encode
    replaced |= _shadow_ledger(out_dir)
    live = [r for r in all_rows if r["pid"] not in replaced]
    by_frag: dict[str, list[dict]] = {}
    repl_by_frag: dict[str, list[str]] = {}
    for r in live:
        by_frag.setdefault(r["pid"].rsplit("-p", 1)[0], []).append(r)
    for p in replaced:
        repl_by_frag.setdefault(p.rsplit("-p", 1)[0], []).append(p)
    for fr in frags:
        # set on every descriptor (homogeneous keys for from_items)
        fr["committed"] = json.dumps(by_frag.get(fr["fragment_id"], []))
        fr["replaced"] = json.dumps(repl_by_frag.get(fr["fragment_id"], []))
    return live


def _stamp_schema_version(cfg: EncodeConfig) -> None:
    """Name new partitions' columns under an evolved store's live schema
    version unless ``cfg`` names one."""
    if cfg.schema_version is None:
        from . import schema as _schema
        v = _schema.current_version(cfg.out_dir)
        if v:  # evolved store: stamp new partitions with the live version
            cfg.schema_version = v


def encode_job(input_paths, cfg: EncodeConfig, resume: bool = True,
               concurrency: int | None = None, task_cpus: int = 1):
    """Full encode pipeline: plan fragments (metadata only) -> Ray
    encode -> manifest Dataset. Returns the manifest as a ray Dataset."""
    _stamp_schema_version(cfg)
    frags = plan_fragments(input_paths)
    if resume:
        _resume_plan(cfg.out_dir, frags)
    return _encode_planned(frags, cfg, resume, concurrency, task_cpus)


def _encode_planned(frags: list[dict], cfg: EncodeConfig, resume: bool,
                    concurrency: int | None, task_cpus: int = 1):
    """encode_job's Ray stage over already planned fragment descriptors."""
    import ray.data as rd
    n = concurrency or _default_concurrency()
    # one task wave = n*2 blocks, built at from_items time — no shuffle
    ds = rd.from_items(frags,
                       override_num_blocks=min(len(frags), n * 2) or 1)
    import functools
    fn = functools.partial(encode_fragment_batch, cfg=cfg, resume=resume)
    # ~4 task waves per slot: big enough to amortize dispatch, small enough
    # to load-balance stragglers. The explicit `concurrency` cap (not a fat
    # num_cpus reservation) keeps downstream stages schedulable while
    # limiting how many bandwidth-bound encode tasks run at once.
    cap = _stage_cap(concurrency, task_cpus)
    bs = max(1, len(frags) // (cap * 4))
    # retry_exceptions: transient IO/worker faults retry the task; commits
    # are idempotent (deterministic pids, atomic tmp+rename, manifest-last),
    # so a retried partition overwrites its own half-written output
    # imported here, not at module level: decode and encode workers
    # import this module and would otherwise pay for pandas
    from .joins import declare_schema
    return declare_schema(
        ds.map_batches(fn, batch_size=bs, batch_format="pyarrow",
                       num_cpus=1, concurrency=cap,
                       max_retries=3, retry_exceptions=True,
                       **rayenv.remote_args()),
        manifest_rows_to_table([]).schema)


def manifest_dataset(out_dir: str, n_blocks: int | None = None,
                     snapshot: str | None = None):
    """Resume/metadata entry: read committed lineage rows (the decode_footer
    analogue, src/lib.rs:45-48 — metadata only, no payload bytes).
    ``n_blocks`` fans the rows out for downstream task parallelism;
    ``snapshot`` yields the AS-OF view (see load_manifest)."""
    rows = load_manifest(out_dir, snapshot=snapshot)
    return _sliced_blocks(manifest_rows_to_table(rows), n_blocks or 1)


def _sliced_blocks(tbl: pa.Table, n_blocks: int):
    """Dataset with ~``n_blocks`` blocks via DRIVER-side table slicing —
    ``from_arrow`` of a slice list makes one block per slice, so the
    fan-out costs zero shuffle. (A ``.repartition()`` of even an 81-row
    manifest pays the sort exchange's multi-second fixed latency —
    measured 3.8 s Repartition vs 2.0 s of actual decode at sf0.1.)"""
    import math

    import ray.data as rd
    total = tbl.num_rows
    n_blocks = max(1, min(total or 1, n_blocks))
    step = math.ceil(total / n_blocks) if total else 1
    if total <= step:
        return rd.from_arrow(tbl)
    return rd.from_arrow([tbl.slice(i, step) for i in range(0, total, step)])


def zone_map(arr) -> dict:
    """A column's manifest zone map: ``min``/``max`` over its non-NULL
    values (both None when every value is NULL) and, when it holds NULLs,
    their ``null_count``. The only writer of manifest ``stats`` entries;
    the key order is part of the manifest's bytes."""
    mm = pc.min_max(arr)
    st = {"min": mm["min"].as_py(), "max": mm["max"].as_py()}
    if arr.null_count:
        st["null_count"] = int(arr.null_count)
    return st


def _zone_admits(st, vals: list | None = None, lo=None, hi=None,
                 isnull: bool | None = None) -> bool:
    """Whether a zone map may hold a value of the SORTED probe list
    ``vals``, one in the closed range ``lo``..``hi`` (None = open side),
    or — ``isnull`` True/False — a NULL / a non-NULL value. ``st`` is a
    manifest zone map (see zone_map) or a per-page ``[min, max]`` pair.
    No zone map admits everything; a zone map without ``null_count``
    holds no NULL, and an all-NULL one (min None) admits only IS NULL —
    NULL never matches a point or range predicate."""
    if st is None:
        return True
    mn, mx = (st["min"], st["max"]) if isinstance(st, dict) else st
    if isnull is not None:
        return bool(st.get("null_count")) if isnull else mn is not None
    if mn is None:
        return False
    if vals is not None:
        i = bisect.bisect_left(vals, mn)
        return i < len(vals) and vals[i] <= mx
    return (lo is None or mx >= lo) and (hi is None or mn <= hi)


def read_bloom(row: dict, column: str):
    """Read one column's Bloom sidecar from the partition file (a single
    ~n*bits_per_key/8-byte read, far smaller than any data section).
    Returns ``(m_bits, k, data)`` or None when the store was encoded
    without blooms — callers fall back to zone maps."""
    bm = (row.get("bloom") or {}).get(column)
    if not bm:
        return None
    with open(row["file"], "rb") as f:
        f.seek(bm["offset"])
        raw = f.read(bm["length"])
    if zlib.crc32(raw) != bm["crc"]:
        raise IOError(f"bloom checksum mismatch in {row['pid']}:{column}")
    return bm["m_bits"], bm["k"], np.frombuffer(raw, dtype=np.uint8)


def _bloom_admits(row: dict, column: str, vals: list) -> bool:
    """Whether the partition's Bloom sidecar on ``column`` may hold one
    of ``vals``; True when it has none. Probes take the column's dtype
    from the row: an int-key sidecar hashes fixed-width keys, so a
    string probe would manufacture false negatives."""
    bm = read_bloom(row, column)
    if bm is None:
        return True
    from . import bloom as _bloom
    cast = str if fmt.is_string(_column_meta(row, column)["dtype"]) else int
    return bool(_bloom.might_contain(*bm, [cast(v) for v in vals]).any())


def _admitted_results(rows: list[dict], admits, scan):
    """The driver loop of every point plan: ``scan(row)`` for each
    manifest row of ``rows`` that ``admits(row)`` (zone maps, Bloom
    sidecars, excluded pids), so a pruned partition costs no data read.
    ``scan`` returns a reader's rows as a table or a deleter's newly
    tombstoned count; non-empty results are yielded in manifest order.
    It runs in the driver, one partition at a time: Ray Data's fixed
    cost per job exceeds a point plan's whole scan, and on 1 cpu the
    driver beat a ``batch_size=1`` Ray UDF at every admitted count
    measured (1 to 118 partitions); a plan admitting many partitions on
    a multi-cpu cluster gives up Ray's parallel scan (not measured)."""
    for row in rows:
        if admits(row):
            res = scan(row)
            if res:  # a table's truth is its row count
                yield res


def _admitted_scan(out_dir: str, admits, scan, schema: pa.Schema,
                   snapshot: str | None = None):
    """The Dataset wrap of the public point readers (lookup_docs,
    range_scan_docs): the manifest (AS OF ``snapshot``) is loaded once
    and _admitted_results' tables become one typed
    ``MaterializedDataset`` of ``schema``. Its rows move into the object
    store in blocks of at most ``DataContext.target_max_block_size``
    (plus one partition's rows), each put as it fills, so a wide range
    scan never holds more than one block in driver memory; a plan that
    yields no row still returns one empty block of ``schema``.

    The Dataset comes back executed: ``materialize()`` of a plan that is
    only its source blocks takes Ray Data's source fast path, so reading
    the result (``to_arrow_refs``, ``count``, ``to_pandas``, ``schema``)
    starts no streaming executor. The bare ``from_arrow_refs`` plan has
    no computed snapshot, and its first read would start one over blocks
    that are already in the object store. ``rd.from_blocks`` would skip
    the metadata task but keeps every block in the driver."""
    import ray
    import ray.data as rd
    from ray.data.context import DataContext
    cap = DataContext.get_current().target_max_block_size
    refs: list = []
    pending: list[pa.Table] = []
    size = 0
    for part in _admitted_results(load_manifest(out_dir, snapshot=snapshot),
                                  admits, scan):
        pending.append(part)
        size += part.nbytes
        if cap is not None and size >= cap:
            refs.append(ray.put(pa.concat_tables(pending)))
            pending, size = [], 0
    if pending or not refs:
        refs.append(ray.put(pa.concat_tables(pending) if pending
                            else schema.empty_table()))
    return rd.from_arrow_refs(refs).materialize()


def load_manifest(out_dir: str, include_replaced: bool = False,
                  snapshot: str | None = None) -> list[dict]:
    """All committed lineage rows: compacted parquet shards + loose JSONs.

    Rows shadowed by a committed compaction row's ``replaces`` list are
    filtered out (the compacted partition carries their data); the single
    atomic manifest commit of the compaction row is what flips visibility,
    so readers never see a row twice regardless of where a crash lands.
    ``include_replaced=True`` keeps them (resume accounting only).

    Row-level delete tombstones (``{pid}.del.json``, written by
    delete_docs) are attached to their partition's row as
    ``deleted_rows`` — every reader (decode, verify, lookup, range scan,
    late materialization) filters through them.

    ``snapshot`` time-travels: the returned view is the pid set + per-pid
    tombstone state recorded by ``create_snapshot`` at that point, with
    later deletes/compactions/upserts invisible (immutable partition
    files make old versions readable for free; ``gc_store`` keeps every
    file a live snapshot references)."""
    if snapshot is not None:
        brefs = _branch_refs(out_dir)
        if snapshot in brefs:
            # BRANCH view: the main store AS OF the branch's base snapshot
            # plus every partition committed onto the branch since.
            # Branch rows carry no tombstones (branches are append-only);
            # the base view pins the tombstone state at fork time, so
            # main-side deletes/compactions after the fork are invisible
            # here, exactly like Iceberg branch isolation.
            base = load_manifest(out_dir, snapshot=brefs[snapshot]["base"])
            raw = load_manifest(out_dir, include_replaced=True)
            have = {r["pid"] for r in base}
            return base + [r for r in raw
                           if r.get("branch") == snapshot
                           and r["pid"] not in have]
        spath = os.path.join(out_dir, "snapshots", f"{snapshot}.parquet")
        if not os.path.exists(spath):  # tag indirection (named refs)
            spath = os.path.join(out_dir, "snapshots",
                                 f"{resolve_ref(out_dir, snapshot)}.parquet")
        snap = pq.read_table(spath).to_pylist()
        want = {s["pid"]: s["deleted_rows"] for s in snap}
        rows = load_manifest(out_dir, include_replaced=True)
        out = []
        for r in rows:
            if r["pid"] not in want:
                continue
            dels = want[r["pid"]]
            if dels:
                r["deleted_rows"] = list(dels)
            else:
                r.pop("deleted_rows", None)
            out.append(r)
        missing = set(want) - {r["pid"] for r in out}
        if missing:
            raise FileNotFoundError(
                f"snapshot {snapshot} references gc'd partitions: "
                f"{sorted(missing)[:5]}")
        return out
    mdir = os.path.join(out_dir, "manifest")
    rows = []
    tombs: dict[str, list[int]] = {}
    if os.path.isdir(mdir):
        for name in sorted(os.listdir(mdir)):
            path = os.path.join(mdir, name)
            if name.endswith(".del.json"):
                with open(path) as f:
                    t = json.load(f)
                tombs[t["pid"]] = t["deleted_rows"]
            elif name == "shadowed.json":
                continue  # the gc shadow ledger, not a manifest row
            elif name.endswith(".json"):
                with open(path) as f:
                    rows.append(json.load(f))
            elif name.startswith("compacted-") and name.endswith(".parquet"):
                rows.extend(manifest_table_to_rows(pq.read_table(path)))
    for r in rows:
        _resolve_file(r, out_dir)
        if r["pid"] in tombs:
            r["deleted_rows"] = tombs[r["pid"]]
    # dedupe by pid: a crash between the compaction shard commit and the
    # loose-JSON removal leaves both copies — identical content, keep one
    seen = set()
    out = []
    for r in rows:
        if r["pid"] not in seen:
            seen.add(r["pid"])
            out.append(r)
    if include_replaced:
        return out
    replaced = {p for r in out for p in (r.get("replaces") or [])}
    # gc may have deleted an INTERMEDIATE successor's manifest (multi-hop
    # chains like p <- update(p) <- compaction) while a snapshot pins the
    # original p's row: the persistent shadow ledger keeps every pid gc
    # ever saw shadowed, so pinned originals never resurface in the
    # CURRENT view (snapshot views list their pids explicitly and are
    # unaffected)
    replaced |= _shadow_ledger(out_dir)
    out = [r for r in out if r["pid"] not in replaced]
    # branch isolation: a row committed onto a branch is invisible to the
    # main view until its branch ref is flipped to merged (one atomic
    # os.replace of branches/<name>.json = the whole merge's visibility).
    # include_replaced=True deliberately keeps branch rows — resume
    # accounting and gc must see every committed pid regardless of ref
    # state, or a re-encode could duplicate a branch partition's rows.
    return _main_branch_view(out_dir, out)


def _main_branch_view(out_dir: str, rows: list[dict]) -> list[dict]:
    """``rows`` without those committed onto a branch not yet merged."""
    if any(r.get("branch") for r in rows):
        brefs = _branch_refs(out_dir)
        rows = [r for r in rows
                if not r.get("branch")
                or brefs.get(r["branch"], {}).get("merged")]
    return rows


def compact_manifest(out_dir: str) -> dict:
    """Merge loose per-partition JSON manifest rows into one parquet shard.

    At 10^12-sequence scale the per-partition-JSON commit log would reach
    millions of files; periodic compaction (run between jobs, like a
    checkpoint GC) keeps the manifest O(shards) while preserving the
    per-partition atomic-commit protocol for in-flight work. Resume reads
    both forms transparently (`load_manifest`), and `encode_job` ships each
    fragment's already-committed rows to its worker so compacted partitions
    are never re-encoded."""
    mdir = os.path.join(out_dir, "manifest")
    loose = [n for n in sorted(os.listdir(mdir))
             if n.endswith(".json") and not n.endswith(".del.json")
             and n != "shadowed.json"] \
        if os.path.isdir(mdir) else []
    if not loose:
        return {"compacted": 0}
    rows = []
    for name in loose:
        with open(os.path.join(mdir, name)) as f:
            rows.append(json.load(f))
    existing = [n for n in os.listdir(mdir) if n.startswith("compacted-")]
    shard = os.path.join(mdir, f"compacted-{len(existing):05d}.parquet")
    tmp = shard + f".tmp{os.getpid()}"
    pq.write_table(manifest_rows_to_table(rows), tmp)
    os.replace(tmp, shard)  # shard commit lands before JSONs are removed
    for name in loose:
        os.remove(os.path.join(mdir, name))
    return {"compacted": len(rows), "shard": shard}


def plan_compaction(rows: list[dict], target_tokens: int,
                    key=None) -> list[list[dict]]:
    """Greedy consecutive grouping (pid order) of committed partitions into
    ~``target_tokens`` merge groups; only groups of >=2 members compact
    (singletons are already right-sized), EXCEPT a singleton carrying
    delete tombstones — rewriting it materializes the deletes away
    (Delta OPTIMIZE semantics: files with attached deletes always
    qualify). Deterministic. ``key(row)`` (optional) partitions rows into
    classes that must never merge across (bucket-encoded stores: merging
    across hash buckets would break the storage-partitioned-join layout
    contract)."""
    if key is not None:
        classes: dict = {}
        for r in rows:
            classes.setdefault(key(r), []).append(r)
        out: list[list[dict]] = []
        for k in sorted(classes, key=str):
            out.extend(plan_compaction(classes[k], target_tokens))
        return out
    rows = sorted(rows, key=lambda r: r["pid"])
    groups: list[list[dict]] = []

    def flush(cur):
        if len(cur) >= 2 or any(r.get("deleted_rows") for r in cur):
            groups.append(cur)

    cur: list[dict] = []
    tok = 0
    for r in rows:
        if cur and tok + r["n_tokens"] > target_tokens:
            flush(cur)
            cur, tok = [], 0
        cur.append(r)
        tok += r["n_tokens"]
    if cur:
        flush(cur)
    return groups


def compaction_pid(members: list[dict]) -> str:
    """Deterministic output pid for a merge group — resume skips groups
    whose row already exists."""
    import hashlib
    key = "|".join(m["pid"] for m in members)
    return "cmp-" + hashlib.sha1(key.encode()).hexdigest()[:12]


def compact_partitions(out_dir: str, target_tokens: int = 8_000_000,
                       cfg: EncodeConfig | None = None,
                       concurrency: int | None = None,
                       gc: bool = True) -> dict:
    """Merge small partitions into ~``target_tokens`` ones (the LSM-style
    maintenance pass a 10^12-sequence store needs: a long-running ingest
    commits partitions at whatever size the arriving fragments allow, and
    tiny partitions tax every later scan with per-file seek + manifest
    fan-out). Distributed: one Ray task per merge group decodes its
    members, re-encodes through the codec selector, and commits the merged
    partition whose manifest row carries ``replaces`` (the member pids) —
    a SINGLE atomic os.replace is the visibility flip, after which
    ``load_manifest`` shadows the members, so any crash leaves the store
    readable and exactly-once (before: members visible; after: only the
    merged row). Resume = deterministic group pids; re-running skips
    committed groups. ``gc`` then deletes the shadowed members' loose
    manifest JSONs and partition files (idempotent; safe to re-run).

    The reference has no multi-file store at all (one Write sink,
    src/lib.rs:29); this belongs to the mandated scale extension."""
    import ray.data as rd

    from . import schema as _schema
    rows = load_manifest(out_dir)
    # a bucket-encoded store (rwcf.spj) must never merge across hash
    # buckets — the committed bucketspec is the join-layout contract
    from . import spj as _spj
    bucketed = _spj.read_bucketspec(out_dir) is not None
    bkey = (lambda r: (r.get("lineage") or {}).get("bucket")) \
        if bucketed else None
    groups = plan_compaction(rows, target_tokens, key=bkey)
    if cfg is None:
        cfg = EncodeConfig(out_dir=out_dir,
                           partition_token_budget=target_tokens,
                           bloom_bits_per_key=(
                               10 if any(r.get("bloom") for r in rows)
                               else 0))
    # upgrade-on-rewrite: on an evolved store, members decode through the
    # CURRENT logical schema (renames resolved, added defaults
    # materialized, dropped columns physically shed) and the merged
    # partition is stamped with the live schema version
    sver = _schema.current_version(out_dir)
    smaps = swant = None
    if sver:
        smaps, swant = _schema.resolution(out_dir)
        cfg.schema_version = sver
    before_parts = len(rows)
    before_bytes = sum(r["encoded_bytes"] for r in rows)
    if groups:
        items = [{"members": json.dumps(g), "gpid": compaction_pid(g)}
                 for g in groups]

        def merge_one(batch: pa.Table) -> pa.Table:
            out = []
            for d in batch.to_pylist():
                members = json.loads(d["members"])
                mpath = os.path.join(cfg.manifest_dir, f"{d['gpid']}.json")
                if os.path.exists(mpath):  # resume: group already committed
                    out.append(read_manifest_row(mpath))
                    continue
                from . import schema as _sch
                tbl = pa.concat_tables(
                    [_sch.logical_table(m, smaps, swant) if sver
                     else decode_partition(m)
                     for m in members]).combine_chunks()
                lineage = {"compaction_of": [m["pid"] for m in members]}
                # carry bucket lineage forward so the compacted partition
                # stays visible to storage_partitioned_join
                mlin = (members[0].get("lineage") or {})
                if "bucket" in mlin and all(
                        (m.get("lineage") or {}).get("bucket")
                        == mlin["bucket"] for m in members):
                    lineage.update({k: mlin[k] for k in
                                    ("bucket_key", "bucket", "n_buckets")
                                    if k in mlin})
                out.append(encode_partition(
                    tbl, d["gpid"], cfg, lineage,
                    extra={"replaces": [m["pid"] for m in members]}))
            return manifest_rows_to_table(out)

        n = _stage_cap(concurrency, 1)
        rd.from_items(items, override_num_blocks=min(len(items), n * 2)) \
            .map_batches(merge_one, batch_size=1, batch_format="pyarrow",
                         num_cpus=1, concurrency=min(n, len(items)),
                         max_retries=3, retry_exceptions=True,
                         **rayenv.remote_args()) \
            .materialize()
    removed = gc_store(out_dir) if gc else {"files": 0, "manifests": 0}
    after = load_manifest(out_dir)
    return {"groups": len(groups),
            "parts_before": before_parts, "parts_after": len(after),
            "encoded_bytes_before": before_bytes,
            "encoded_bytes_after": sum(r["encoded_bytes"] for r in after),
            "gc": removed}


def _zorder_bounds(out_dir: str, cols: list[str], sample_per_block: int = 256,
                   concurrency: int | None = None) -> dict:
    """Per-column rank boundaries for z-ordering, from a column-pruned
    sample pass: each block contributes up to ``sample_per_block`` evenly
    spaced values per column, the driver collects only that bounded
    sample (O(blocks * 256), never the corpus) and keeps it sorted.
    Values later map to 16-bit ranks by binary search — rank
    normalization is what makes bit interleaving meaningful across
    columns with wildly different domains (string sources vs int
    lengths)."""
    bounds = {}
    for c in cols:
        ds = decode_job(out_dir, columns=[c], concurrency=concurrency)

        def take(batch: pa.Table, _c=c) -> pa.Table:
            arr = batch.column(_c)
            n = len(arr)
            idx = np.unique(np.linspace(0, max(n - 1, 0),
                                        min(n, sample_per_block)).astype(np.int64))
            return pa.table({_c: arr.take(pa.array(idx, pa.int64()))})

        samp = ds.map_batches(take, batch_format="pyarrow",
                              **rayenv.remote_args()).to_pandas()[c]
        vals = np.sort(np.asarray(samp))
        bounds[c] = vals
    return bounds


def _zkey_batch(batch: pa.Table, cols: list[str], bounds: dict) -> pa.Table:
    """Append the interleaved-bit ``_zkey`` (uint64) column: each z
    column's value maps to its 16-bit rank within the sampled boundary
    set, then the k columns' rank bits interleave (Morton order) so the
    global sort places rows close in EVERY dimension close on disk."""
    k = len(cols)
    ranks = []
    for c in cols:
        arr = batch.column(c)
        if pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type):
            v = arr.to_numpy(zero_copy_only=False)
        else:
            v = np.asarray(arr)
        b = bounds[c]
        r = np.searchsorted(b, v, side="right").astype(np.float64)
        ranks.append(np.minimum(r / max(len(b), 1) * 65535, 65535)
                     .astype(np.uint64))
    z = np.zeros(batch.num_rows, dtype=np.uint64)
    for bit in range(16):
        for j, r in enumerate(ranks):
            z |= ((r >> np.uint64(bit)) & np.uint64(1)) \
                << np.uint64(bit * k + j)
    return batch.append_column("_zkey", pa.array(z, pa.uint64()))


def cluster_store(out_dir: str, by="source",
                  target_tokens: int = 8_000_000,
                  concurrency: int | None = None,
                  order: str = "linear") -> dict:
    """Sort-order maintenance (the Delta OPTIMIZE / Iceberg sort-order
    idea over this store): rewrite the store globally SORTED by ``by``
    so each new partition covers a narrow disjoint key range and the
    zone maps every reader prunes on (decode_job ``where``, lookup_docs,
    range scans, late materialization) become selective — an unsorted
    ingest leaves every partition's [min,max] admitting every probe.

    ``order="zorder"`` with ``by=[colA, colB, ...]`` (2-4 columns)
    interleaves 16-bit rank bits per column (Delta ``ZORDER BY`` /
    space-filling-curve clustering): a linear sort makes zone maps
    selective on the FIRST key only, while z-order keeps every listed
    column's per-partition [min,max] narrow, so point/range probes on
    ANY of them prune. Rank boundaries come from a bounded,
    column-pruned sample pass (O(blocks x 256) driver bytes).

    Distributed: decode (schema-aware on evolved stores) -> one Ray Data
    range-partitioning sort (the one all-to-all this maintenance
    inherently costs; clustering IS data movement) -> staged parquet ->
    the normal resume-safe encode path into a work sub-store -> ONE
    atomic manifest-shard commit whose rows carry ``replaces`` for every
    old pid, so readers flip from the unclustered to the clustered
    layout in a single os.replace (crash before it: store unchanged;
    after: only the clustered rows are visible). Idempotent per epoch:
    the epoch id is a hash of (replaced pid set, by, order), and a
    committed epoch shard short-circuits the rerun. Row-level delete
    tombstones are materialized away (decode filters them); live
    snapshots keep pinning the pre-cluster partition files until
    expiry."""
    import shutil

    import ray.data as rd

    from . import schema as _schema
    cols = [by] if isinstance(by, str) else list(by)
    if order not in ("linear", "zorder"):
        raise ValueError(f"unknown order={order!r}")
    if order == "zorder" and not 2 <= len(cols) <= 4:
        raise ValueError("zorder takes 2-4 columns")
    rows = load_manifest(out_dir)
    old_pids = sorted(r["pid"] for r in rows)
    tag = "|".join(old_pids) + f"::{order}:" + ",".join(cols)
    epoch = f"{zlib.crc32(tag.encode()) & 0xFFFFFFFF:08x}"
    shard_path = os.path.join(out_dir, "manifest",
                              f"compacted-cluster-{epoch}.parquet")
    work = os.path.join(out_dir, f"cluster-{epoch}")
    if os.path.exists(shard_path):  # committed epoch: rerun is a no-op
        if os.path.isdir(os.path.join(work, "sorted")):
            shutil.rmtree(os.path.join(work, "sorted"))
        after = load_manifest(out_dir)
        return {"epoch": epoch, "by": by, "parts_before": len(rows),
                "parts_after": len(after), "committed": False}
    if os.path.isdir(work):  # uncommitted leftovers from a crashed run
        shutil.rmtree(work)

    sver = _schema.current_version(out_dir)
    if sver:
        dec = _schema.scan(out_dir, concurrency=concurrency)
    else:
        dec = decode_job(out_dir, concurrency=concurrency)
    staged = os.path.join(work, "sorted")
    if order == "zorder":
        bounds = _zorder_bounds(out_dir, cols, concurrency=concurrency)
        dec = dec.map_batches(_zkey_batch, batch_format="pyarrow",
                              fn_args=(cols, bounds),
                              **rayenv.remote_args())
        dec.sort("_zkey").drop_columns(["_zkey"]).write_parquet(staged)
    else:
        dec.sort(cols if len(cols) > 1 else cols[0]).write_parquet(staged)

    files = sorted(os.path.join(staged, f) for f in os.listdir(staged)
                   if f.endswith(".parquet"))
    # preserve the store's ACTUAL columns (side/attribute stores and
    # derived columns are not the default tokens schema)
    staged_cols = [f.name for f in pq.ParquetFile(files[0]).schema_arrow]
    cfg = EncodeConfig(out_dir=work, partition_token_budget=target_tokens,
                       columns=staged_cols,
                       bloom_bits_per_key=(
                           10 if any(r.get("bloom") for r in rows) else 0))
    if sver:
        cfg.schema_version = sver
    encode_job(files, cfg, concurrency=concurrency).materialize()
    new_rows = load_manifest(work)
    # spread the replaces list over the new rows (any row's commit would
    # do — the single shard os.replace below is the visibility flip; the
    # spread just keeps rows uniformly sized)
    k = max(1, (len(old_pids) + len(new_rows) - 1) // len(new_rows))
    for i, r in enumerate(new_rows):
        r["replaces"] = old_pids[i * k:(i + 1) * k]
    tbl = manifest_rows_to_table(new_rows)
    tmp = shard_path + f".tmp{os.getpid()}"
    pq.write_table(tbl, tmp)
    os.replace(tmp, shard_path)  # ATOMIC visibility flip

    # cleanup: staged parquet + the work store's loose manifest JSONs
    # (their content now lives in the committed shard); partition FILES
    # stay under the work dir — manifest rows reference them absolutely
    shutil.rmtree(staged)
    shutil.rmtree(os.path.join(work, "manifest"))
    removed = gc_store(out_dir)
    after = load_manifest(out_dir)
    return {"epoch": epoch, "by": by, "parts_before": len(rows),
            "parts_after": len(after), "gc": removed, "committed": True}


def cluster_store_incremental(out_dir: str, by: str = "source",
                              target_tokens: int = 8_000_000,
                              concurrency: int | None = None) -> dict:
    """Incremental sort-order maintenance — the scale-safe evolution of
    :func:`cluster_store` the round-4 verdict asked for: instead of one
    global full-corpus sort per epoch, rewrite ONLY the partitions whose
    ``by`` zone-map ranges OVERLAP each other (i.e. new ingest plus any
    clustered partitions the new keys intrude on). Partitions whose
    ranges are already pairwise-disjoint — the property zone-map pruning
    rides on — are untouched: their files, bytes and mtimes survive the
    epoch (pytest-pinned), so an epoch after incremental ingest costs
    O(overlapping data), not O(corpus).

    Stateless dirty detection: a partition is dirty iff its [min, max]
    range on ``by`` STRICTLY intersects another partition's interior
    (interval sweep over the manifest — no cluster bookkeeping to trust
    or invalidate; rows without ``by`` stats are conservatively dirty).
    Ranges that merely SHARE a boundary value stay clean: on a
    low-cardinality key a sorted split necessarily ends one partition
    and starts the next on the same value, and no rewrite can separate
    a value that spans more than one partition's budget — marking those
    dirty would make every epoch a full re-sort forever. The dirty
    set's union span is then decoded, sorted, re-encoded and committed
    through the same atomic replaces-shard flip as the full epoch.
    Untouched partitions are interior-disjoint from everything by
    construction, so the clustered invariant zone-map pruning rides on
    is restored. Linear order only (z-order interleaving is global by
    nature; its incremental variant would need stable rank
    boundaries)."""
    import shutil

    from . import schema as _schema
    if _schema.current_version(out_dir):
        # evolved stores mix physical schemas per partition; the full
        # epoch already handles that via the schema-aware scan — an
        # incremental variant would need per-version staging
        return cluster_store(out_dir, by=by, target_tokens=target_tokens,
                             concurrency=concurrency)

    rows = load_manifest(out_dir)
    spans, nostats = [], []
    for r in rows:
        st = (r.get("stats") or {}).get(by)
        if st and st.get("min") is not None:
            spans.append((st["min"], st["max"], r))
        else:
            nostats.append(r)
    spans.sort(key=lambda s: (s[0], s[1]))
    dirty: list[dict] = list(nostats)
    comp: list[dict] = []
    comp_max = None
    for lo, hi, r in spans:
        if comp and lo < comp_max:  # strict: boundary-sharing is clean
            comp.append(r)
            comp_max = max(comp_max, hi)
        else:
            if len(comp) > 1:
                dirty.extend(comp)
            comp = [r]
            comp_max = hi
    if len(comp) > 1:
        dirty.extend(comp)
    if not dirty:
        return {"by": by, "parts_before": len(rows),
                "parts_rewritten": 0, "parts_after": len(rows),
                "committed": False}

    dirty_pids = sorted(r["pid"] for r in dirty)
    tag = "|".join(dirty_pids) + f"::incremental:{by}"
    epoch = f"{zlib.crc32(tag.encode()) & 0xFFFFFFFF:08x}"
    shard_path = os.path.join(out_dir, "manifest",
                              f"compacted-cluster-{epoch}.parquet")
    work = os.path.join(out_dir, f"cluster-{epoch}")
    if os.path.exists(shard_path):  # committed epoch: rerun is a no-op
        after = load_manifest(out_dir)
        return {"epoch": epoch, "by": by, "parts_before": len(rows),
                "parts_rewritten": 0, "parts_after": len(after),
                "committed": False}
    if os.path.isdir(work):
        shutil.rmtree(work)

    want = set(dirty_pids)
    dec = decode_job(out_dir, concurrency=concurrency,
                     where=lambda r: r["pid"] in want)
    staged = os.path.join(work, "sorted")
    dec.sort(by).write_parquet(staged)
    files = sorted(os.path.join(staged, f) for f in os.listdir(staged)
                   if f.endswith(".parquet"))
    staged_cols = [f.name for f in pq.ParquetFile(files[0]).schema_arrow]
    cfg = EncodeConfig(out_dir=work, partition_token_budget=target_tokens,
                       columns=staged_cols,
                       bloom_bits_per_key=(
                           10 if any(r.get("bloom") for r in rows)
                           else 0))
    encode_job(files, cfg, concurrency=concurrency).materialize()
    new_rows = load_manifest(work)
    k = max(1, (len(dirty_pids) + len(new_rows) - 1) // len(new_rows))
    for i, r in enumerate(new_rows):
        r["replaces"] = dirty_pids[i * k:(i + 1) * k]
    tbl = manifest_rows_to_table(new_rows)
    tmp = shard_path + f".tmp{os.getpid()}"
    pq.write_table(tbl, tmp)
    os.replace(tmp, shard_path)  # ATOMIC visibility flip

    shutil.rmtree(staged)
    shutil.rmtree(os.path.join(work, "manifest"))
    removed = gc_store(out_dir)
    after = load_manifest(out_dir)
    return {"epoch": epoch, "by": by, "parts_before": len(rows),
            "parts_rewritten": len(dirty_pids),
            "parts_after": len(after), "gc": removed, "committed": True}


def create_snapshot(out_dir: str, note: str = "") -> dict:
    """Commit a named, immutable snapshot of the store's visible state
    (Iceberg/Delta-style time travel over the manifest): the visible pid
    set plus each pid's delete-tombstone positions AT THIS INSTANT, as
    one parquet sidecar under ``snapshots/``. O(partitions) metadata,
    zero data copies — partition files are immutable, so an old version
    stays readable for free; ``gc_store`` refuses to reclaim any
    partition a live snapshot references, and ``expire_snapshot``
    releases it. Atomic commit via os.replace, sequential ids.

    The reference is write-once with no versioning (src/lib.rs:29);
    snapshots belong to the mandated mutation/scale extension built on
    its immutable-pages idea."""
    rows = load_manifest(out_dir)
    sdir = os.path.join(out_dir, "snapshots")
    os.makedirs(sdir, exist_ok=True)
    seq = 0
    for n in os.listdir(sdir):
        if n.startswith("snap-") and n.endswith(".parquet"):
            seq = max(seq, int(n[5:10]) + 1)
    snap_id = f"snap-{seq:05d}"
    tbl = pa.table({
        "pid": pa.array([r["pid"] for r in rows], pa.string()),
        "deleted_rows": pa.array(
            [r.get("deleted_rows") or [] for r in rows],
            pa.list_(pa.int64())),
        "note": pa.array([note] * len(rows), pa.string()),
    })
    path = os.path.join(sdir, f"{snap_id}.parquet")
    tmp = path + f".tmp{os.getpid()}"
    pq.write_table(tbl, tmp)
    os.replace(tmp, path)
    live = sum(r["n_rows"] - len(r.get("deleted_rows") or ()) for r in rows)
    return {"snapshot": snap_id, "partitions": len(rows), "n_rows": live}


def list_snapshots(out_dir: str) -> list[dict]:
    """Committed snapshots, oldest first, with their live-row counts."""
    sdir = os.path.join(out_dir, "snapshots")
    out = []
    if not os.path.isdir(sdir):
        return out
    for name in sorted(os.listdir(sdir)):
        if not (name.startswith("snap-") and name.endswith(".parquet")):
            continue
        t = pq.read_table(os.path.join(sdir, name))
        dels = sum(len(x) for x in t.column("deleted_rows").to_pylist())
        note = t.column("note")[0].as_py() if t.num_rows else ""
        out.append({"snapshot": name[:-8], "partitions": t.num_rows,
                    "deleted_rows": dels, "note": note})
    return out


def expire_snapshot(out_dir: str, snapshot: str,
                    force: bool = False) -> dict:
    """Drop a snapshot so gc_store may reclaim partitions only it pins.
    Refuses (unless ``force``) while a tag still names the snapshot —
    expiring it would dangle the ref."""
    holders = [t for t, s in list_tags(out_dir).items() if s == snapshot]
    holders += [f"branch:{n}" for n, r in _branch_refs(out_dir).items()
                if r.get("base") == snapshot and not r.get("merged")]
    if holders and not force:
        raise ValueError(
            f"snapshot {snapshot} is still referenced by "
            f"{sorted(holders)}; delete the tag/branch first or pass "
            f"force=True")
    path = os.path.join(out_dir, "snapshots", f"{snapshot}.parquet")
    if os.path.exists(path):
        os.remove(path)
        return {"expired": snapshot}
    return {"expired": None}


def expire_snapshots(out_dir: str, keep_last: int = 2,
                     keep_tagged: bool = True,
                     older_than_s: float | None = None,
                     dry_run: bool = False) -> dict:
    """RETENTION POLICY over the snapshot log (Iceberg
    ``expireSnapshots`` / Delta ``VACUUM`` role): drop every snapshot
    except (a) the newest ``keep_last``, (b) tagged ones while
    ``keep_tagged``, (c) bases of live (unmerged) branches — those pin
    readable history someone explicitly named. ``older_than_s``
    additionally protects any snapshot whose sidecar is younger than
    that many seconds (grace window for in-flight readers), measured
    from the snapshot file's mtime — commit time, since sidecars are
    written once and never touched. After expiry, :func:`gc_store`
    reclaims partition files only the dropped snapshots were pinning.

    O(snapshots) metadata; idempotent; ``dry_run`` reports the plan
    without deleting. The reference keeps no history at all
    (src/lib.rs:29); retention belongs to the mandated
    mutation/versioning extension."""
    import time as _time
    snaps = [s["snapshot"] for s in list_snapshots(out_dir)]
    protected = set(snaps[len(snaps) - keep_last:] if keep_last else [])
    if keep_tagged:
        protected |= set(list_tags(out_dir).values())
    protected |= {r["base"] for r in _branch_refs(out_dir).values()
                  if not r.get("merged")}
    now = _time.time()
    victims = []
    for s in snaps:
        if s in protected:
            continue
        if older_than_s is not None:
            path = os.path.join(out_dir, "snapshots", f"{s}.parquet")
            if now - os.path.getmtime(path) < older_than_s:
                continue
        victims.append(s)
    if dry_run:
        return {"expired": [], "would_expire": victims,
                "kept": sorted(set(snaps) - set(victims))}
    tags = list_tags(out_dir)
    for s in victims:
        # keep_tagged=False is an explicit ask to drop tagged history —
        # remove the tags too so no ref dangles
        for t, target in tags.items():
            if target == s:
                delete_tag(out_dir, t)
        expire_snapshot(out_dir, s, force=True)  # policy already vetted
    gc = gc_store(out_dir)
    return {"expired": victims,
            "kept": sorted(set(snaps) - set(victims)), "gc": gc}


def tag_snapshot(out_dir: str, tag: str,
                 snapshot: str | None = None) -> dict:
    """Named ref over a snapshot (Iceberg tags / git-tag role): a tag is
    one atomic JSON sidecar under ``tags/`` mapping a stable name
    ("golden", "prod-2026-08") to a snapshot id. Every snapshot-taking
    reader (``decode_job(snapshot=)``, cdc, rollback, lookup) resolves
    tags transparently via load_manifest. Re-tagging moves the ref
    atomically; ``snapshot=None`` tags the latest snapshot."""
    if snapshot is None:
        snaps = list_snapshots(out_dir)
        if not snaps:
            raise FileNotFoundError(f"no snapshots in {out_dir} to tag")
        snapshot = snaps[-1]["snapshot"]
    spath = os.path.join(out_dir, "snapshots", f"{snapshot}.parquet")
    if not os.path.exists(spath):
        raise FileNotFoundError(f"snapshot {snapshot} does not exist")
    tdir = os.path.join(out_dir, "tags")
    os.makedirs(tdir, exist_ok=True)
    tpath = os.path.join(tdir, f"{tag}.json")
    tmp = tpath + f".tmp{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump({"tag": tag, "snapshot": snapshot}, f)
    os.replace(tmp, tpath)  # atomic (re)tag
    return {"tag": tag, "snapshot": snapshot}


def list_tags(out_dir: str) -> dict[str, str]:
    """{tag: snapshot id} for every committed tag."""
    tdir = os.path.join(out_dir, "tags")
    out = {}
    if os.path.isdir(tdir):
        for name in sorted(os.listdir(tdir)):
            if name.endswith(".json"):
                with open(os.path.join(tdir, name)) as f:
                    out[name[:-5]] = json.load(f)["snapshot"]
    return out


def delete_tag(out_dir: str, tag: str) -> dict:
    tpath = os.path.join(out_dir, "tags", f"{tag}.json")
    existed = os.path.exists(tpath)
    if existed:
        os.remove(tpath)
    return {"deleted": tag if existed else None}


def _branch_refs(out_dir: str) -> dict[str, dict]:
    """{branch name: {"base": snapshot id, "merged": bool}} for every
    committed branch ref (``branches/<name>.json``)."""
    bdir = os.path.join(out_dir, "branches")
    out: dict[str, dict] = {}
    if os.path.isdir(bdir):
        for name in sorted(os.listdir(bdir)):
            if name.endswith(".json"):
                with open(os.path.join(bdir, name)) as f:
                    out[name[:-5]] = json.load(f)
    return out


def create_branch(out_dir: str, name: str,
                  from_ref: str | None = None) -> dict:
    """Iceberg-style BRANCH: a mutable named lineage forked from a
    snapshot. ``from_ref`` is a snapshot id or tag (default: a fresh
    snapshot of the current main state). Readers scan the branch by
    passing its name anywhere a snapshot is accepted
    (``decode_job(snapshot="dev")``, lookup, cdc); writers append to it
    with :func:`publish_staged(..., branch=name)` — staged batches become
    visible ON THE BRANCH ONLY, never to main readers, until
    :func:`merge_branch` fast-forwards main. Branches here are
    append-only (no branch-side deletes); main-side mutation after the
    fork never leaks into the branch because the base snapshot pins the
    fork-time (pid, tombstone) state.

    The reference is write-once single-lineage (src/lib.rs:29); branches
    belong to the mandated mutation/versioning scale extension."""
    if "/" in name or name.startswith("snap-"):
        raise ValueError(f"invalid branch name {name!r}")
    refs = _branch_refs(out_dir)
    if name in refs:
        raise FileExistsError(f"branch {name!r} already exists")
    if from_ref is None:
        base = create_snapshot(out_dir,
                               note=f"branch-base:{name}")["snapshot"]
    else:
        base = resolve_ref(out_dir, from_ref)
    bdir = os.path.join(out_dir, "branches")
    os.makedirs(bdir, exist_ok=True)
    bpath = os.path.join(bdir, f"{name}.json")
    tmp = bpath + f".tmp{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump({"branch": name, "base": base, "merged": False}, f)
    os.replace(tmp, bpath)  # atomic ref creation
    return {"branch": name, "base": base}


def list_branches(out_dir: str) -> list[dict]:
    """Every branch ref with its base snapshot, merge state and the count
    of partitions committed onto it (manifest metadata only)."""
    refs = _branch_refs(out_dir)
    if not refs:
        return []
    raw = load_manifest(out_dir, include_replaced=True)
    per = {n: {"branch": n, "base": r["base"],
               "merged": bool(r.get("merged")),
               "partitions": 0, "n_rows": 0} for n, r in refs.items()}
    for r in raw:
        b = r.get("branch")
        if b in per:
            per[b]["partitions"] += 1
            per[b]["n_rows"] += r["n_rows"]
    return [per[n] for n in sorted(per)]


def merge_branch(out_dir: str, name: str) -> dict:
    """Fast-forward main to a branch head. Precondition (checked): main's
    current visible (pid, tombstone) state equals the branch's base
    snapshot state — i.e. main has not advanced since the fork; a
    diverged main refuses (three-way merge is out of scope, like
    Iceberg's fast-forward-only ``manageSnapshots().fastForward``).

    The VISIBILITY COMMIT is one atomic ref flip (``merged: true`` via
    os.replace): the instant it lands, every branch partition is part of
    the main view (load_manifest admits merged-branch rows). Cleanup then
    rewrites each row json without the branch marker and drops the ref —
    idempotent and crash-safe at any point: marked rows stay visible
    through the merged ref, unmarked rows are visible on their own, and a
    re-run skips straight to the remaining cleanup."""
    refs = _branch_refs(out_dir)
    if name not in refs:
        raise FileNotFoundError(f"no branch named {name!r}")
    ref = refs[name]
    if not ref.get("merged"):
        cur = {(r["pid"], tuple(r.get("deleted_rows") or ()))
               for r in load_manifest(out_dir)}
        base = {(r["pid"], tuple(r.get("deleted_rows") or ()))
                for r in load_manifest(out_dir, snapshot=ref["base"])}
        if cur != base:
            raise ValueError(
                f"main has diverged from branch {name!r}'s base "
                f"{ref['base']} ({len(cur ^ base)} partition states "
                f"differ); fast-forward merge refused")
        bpath = os.path.join(out_dir, "branches", f"{name}.json")
        tmp = bpath + f".tmp{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump(dict(ref, merged=True), f)
        os.replace(tmp, bpath)  # THE merge commit
    # cleanup: demote branch rows to plain main rows, then drop the ref
    merged = 0
    for r in load_manifest(out_dir, include_replaced=True):
        if r.get("branch") != name:
            continue
        commit_manifest_row(
            out_dir, {k: v for k, v in r.items() if k != "branch"})
        merged += 1
    os.remove(os.path.join(out_dir, "branches", f"{name}.json"))
    return {"branch": name, "merged_partitions": merged,
            "fast_forward": True}


def delete_branch(out_dir: str, name: str,
                  discard_data: bool = True) -> dict:
    """Drop a branch ref; with ``discard_data`` also delete every
    partition committed onto it (file + manifest row + any bloom/del
    sidecars) — they are unreachable once the ref is gone. A merged
    branch has no branch-owned rows left (merge_branch demoted them), so
    deleting it is a no-op beyond the ref."""
    refs = _branch_refs(out_dir)
    if name not in refs:
        return {"branch": name, "deleted": False}
    files = 0
    if discard_data and not refs[name].get("merged"):
        for r in load_manifest(out_dir, include_replaced=True):
            if r.get("branch") != name:
                continue
            if os.path.exists(r["file"]):
                os.remove(r["file"])
                files += 1
            for suffix in (".json", ".del.json"):
                mpath = os.path.join(out_dir, "manifest",
                                     f"{r['pid']}{suffix}")
                if os.path.exists(mpath):
                    os.remove(mpath)
    os.remove(os.path.join(out_dir, "branches", f"{name}.json"))
    return {"branch": name, "deleted": True, "files_removed": files}


def resolve_ref(out_dir: str, ref: str) -> str:
    """Resolve a snapshot id OR tag name to a snapshot id."""
    if os.path.exists(os.path.join(out_dir, "snapshots",
                                   f"{ref}.parquet")):
        return ref
    tags = list_tags(out_dir)
    if ref in tags:
        return tags[ref]
    raise FileNotFoundError(f"no snapshot or tag named {ref!r}")


def _snapshot_pinned_pids(out_dir: str) -> set:
    sdir = os.path.join(out_dir, "snapshots")
    pinned: set = set()
    if not os.path.isdir(sdir):
        return pinned
    for name in os.listdir(sdir):
        if name.startswith("snap-") and name.endswith(".parquet"):
            pinned.update(pq.read_table(
                os.path.join(sdir, name), columns=["pid"])
                .column("pid").to_pylist())
    return pinned


def _shadow_ledger(out_dir: str) -> set:
    path = os.path.join(out_dir, "manifest", "shadowed.json")
    if not os.path.exists(path):
        return set()
    with open(path) as f:
        return set(json.load(f))


def _record_shadowed(out_dir: str, pids: set) -> None:
    """Append-only union into the persistent shadow ledger (atomic) —
    written BEFORE gc deletes any manifest, so a crash between the two
    can only over-remember (idempotent), never resurrect."""
    if not pids:
        return
    cur = _shadow_ledger(out_dir)
    if pids <= cur:
        return
    path = os.path.join(out_dir, "manifest", "shadowed.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + f".tmp{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(sorted(cur | pids), f)
    os.replace(tmp, path)


def gc_store(out_dir: str) -> dict:
    """Delete partition files + loose manifest JSONs shadowed by a
    committed ``replaces`` tombstone. Idempotent — correctness never
    depends on it (load_manifest filters shadowed rows); this only
    reclaims disk. Partitions referenced by a live snapshot are kept
    (their manifest row too — time travel needs the lineage) until
    ``expire_snapshot`` releases them. Every shadowed pid is recorded in
    the persistent ledger FIRST, so deleting an intermediate successor's
    manifest can never let a snapshot-pinned ancestor resurface in the
    current view."""
    all_rows = load_manifest(out_dir, include_replaced=True)
    replaced = {p for r in all_rows for p in (r.get("replaces") or [])}
    _record_shadowed(out_dir, replaced)
    pinned = _snapshot_pinned_pids(out_dir)
    files = manifests = 0
    for r in all_rows:
        if r["pid"] not in replaced or r["pid"] in pinned:
            continue
        if _store_relative(out_dir, r["file"]) \
                and os.path.exists(r["file"]):
            os.remove(r["file"])
            files += 1
        for suffix in (".json", ".del.json"):
            mpath = os.path.join(out_dir, "manifest", f"{r['pid']}{suffix}")
            if os.path.exists(mpath):
                os.remove(mpath)
                manifests += 1
    return {"files": files, "manifests": manifests}


def cdc_plan(out_dir: str, from_snapshot: str,
             to_snapshot: str | None = None) -> dict:
    """Manifest-level change-data-capture plan between two snapshot views
    (``to_snapshot=None`` = the current store). A partition whose
    ``(pid, delete-tombstone positions)`` state is IDENTICAL in both views
    cannot contribute a change — its live rows are bit-identical on both
    sides (partition files are immutable) and any other version of one of
    its doc_ids necessarily changed some OTHER partition's state (upsert
    and delete always commit a tombstone). Those partitions are pruned
    before any data is read, so a CDC scan costs O(changed partitions),
    not O(corpus) — the Iceberg incremental-scan idea re-expressed over
    this store's manifest. The reference is write-once with no versioning
    (src/lib.rs:29); CDC belongs to the mandated mutation extension."""
    rows_a = load_manifest(out_dir, snapshot=from_snapshot)
    rows_b = load_manifest(out_dir, snapshot=to_snapshot)

    def key(r):
        return (r["pid"], tuple(r.get("deleted_rows") or ()))

    ka = {key(r): r for r in rows_a}
    kb = {key(r): r for r in rows_b}
    changed_a = [r for k, r in ka.items() if k not in kb]
    changed_b = [r for k, r in kb.items() if k not in ka]
    return {
        "parts_from": len(rows_a), "parts_to": len(rows_b),
        "changed_from": len(changed_a), "changed_to": len(changed_b),
        "pruned": len([k for k in ka if k in kb]),
        "_rows_from": changed_a, "_rows_to": changed_b,
    }


def _cdc_hash_batch(batch: pa.Table, col: str, suffix: str = "",
                    payload: list[str] | None = None) -> pa.Table:
    """Manifest rows -> one (doc_id, content-hash) row per LIVE row of
    each partition. The hash folds the token payload and the source
    string through two segmented polynomial streams (rwcf.textops
    segment_poly_hash — vectorized, no row loop), so equal hash means
    equal content for CDC purposes and the comparison is invariant to
    physical rewrites (compaction re-packs rows into new partitions
    without changing their hashes). ``payload`` columns (light scalars —
    never tokens) ride along ``suffix``-renamed so downstream consumers
    (e.g. incremental view maintenance) see the per-side values."""
    from . import textops
    tables = []
    for row in manifest_table_to_rows(batch):
        t = decode_partition(row)
        la = t.column("tokens").combine_chunks()
        lengths = pc.list_value_length(la).to_numpy().astype(np.int64)
        flat = la.flatten().to_numpy(zero_copy_only=False).astype(np.uint64)
        h_tok = textops.segment_poly_hash(lengths, flat)
        src_col = t.column("source").combine_chunks()
        nullmask = None
        if src_col.null_count:  # nullable source: hash NULL distinctly
            nullmask = pc.is_null(src_col).to_numpy(zero_copy_only=False)
            src_col = pc.fill_null(src_col, "")
        slen, spay = fmt.chunk_from_arrow(src_col)
        h_src = textops.segment_poly_hash(
            np.asarray(slen, np.int64), np.asarray(spay))
        comb = h_tok * textops._FP_BASE + h_src
        if nullmask is not None:
            # NULL != '' for CDC purposes (and a later fill to '' IS a
            # change): flip a fixed mix constant on null positions
            comb = comb.copy()
            comb[nullmask] ^= np.uint64(0x9E3779B97F4A7C15)
        cols = {"doc_id": t.column("doc_id").combine_chunks()
                .cast(pa.string()),
                col: pa.array(comb.astype(np.int64))}  # 2's-compl. view
        for p in payload or ():
            cols[p + suffix] = t.column(p)
        tables.append(pa.table(cols))
    if not tables:
        cols = {"doc_id": pa.array([], pa.string()),
                col: pa.array([], pa.int64())}
        for p in payload or ():
            cols[p + suffix] = pa.array([], TOKENS_SCHEMA.field(p).type)
        return pa.table(cols)
    return pa.concat_tables(tables)


def cdc_scan(out_dir: str, from_snapshot: str,
             to_snapshot: str | None = None, buckets: int = 8,
             concurrency: int | None = None, task_cpus: int = 1,
             payload: list[str] | None = None):
    """Row-level CDC between two snapshots: a Dataset of
    ``(doc_id, op)`` with op in {insert, delete, update}. ``payload``
    names light scalar columns to carry through per side as
    ``<name>_old`` / ``<name>_new`` (null on the side a row is absent
    from) — the fuel for O(delta) incremental view maintenance.

    Pipeline: :func:`cdc_plan` prunes partitions unchanged between the
    views (never read); each changed partition decodes to light
    ``(doc_id, content-hash)`` rows — the token payload itself never
    ships; one bucketed distributed full-outer join on doc_id
    (rwcf.joins.hash_join) aligns the sides; classification is a
    vectorized per-batch mask. Rows present in changed partitions on
    both sides with equal hashes (e.g. a compaction rewrite) classify as
    no-change and are dropped, so the output is exactly the logical
    delta regardless of physical layout churn."""
    import functools

    import ray.data as rd

    from . import joins

    payload = list(payload or ())
    pay_cols = [p + s for s in ("_old", "_new") for p in payload]
    plan = cdc_plan(out_dir, from_snapshot, to_snapshot)
    if not plan["_rows_from"] and not plan["_rows_to"]:
        # views identical at the manifest level: empty delta, stable schema
        cols = {"doc_id": pa.array([], pa.string()),
                "op": pa.array([], pa.string())}
        for name in pay_cols:
            cols[name] = pa.array(
                [], TOKENS_SCHEMA.field(name[:-4]).type)
        return rd.from_arrow(pa.table(cols))

    def side(rows, col, suffix):
        if not rows:
            cols = {"doc_id": pa.array([], pa.string()),
                    col: pa.array([], pa.int64())}
            for p in payload:
                cols[p + suffix] = pa.array(
                    [], TOKENS_SCHEMA.field(p).type)
            return rd.from_arrow(pa.table(cols))
        ds = _sliced_blocks(manifest_rows_to_table(rows), len(rows))
        cap = _stage_cap(concurrency, task_cpus)
        return ds.map_batches(
            functools.partial(_cdc_hash_batch, col=col, suffix=suffix,
                              payload=payload),
            batch_size=1, batch_format="pyarrow",
            num_cpus=task_cpus, concurrency=cap,
            **rayenv.remote_args())

    old = side(plan["_rows_from"], "h_old", "_old")
    new = side(plan["_rows_to"], "h_new", "_new")
    j = joins.hash_join(old, new, on="doc_id", how="outer", buckets=buckets)

    def classify(t: pa.Table) -> pa.Table:
        did = pc.coalesce(t.column("doc_id"), t.column("doc_id_r")) \
            .combine_chunks().cast(pa.string())
        old_v = pc.is_valid(t.column("h_old").combine_chunks()) \
            .to_numpy(zero_copy_only=False)
        new_v = pc.is_valid(t.column("h_new").combine_chunks()) \
            .to_numpy(zero_copy_only=False)
        # Kleene != would yield null on any null input; the validity
        # guards make every such row fall through to delete/insert
        neq = pc.fill_null(pc.not_equal(t.column("h_old"),
                                        t.column("h_new")), False) \
            .combine_chunks().to_numpy(zero_copy_only=False)
        op = np.select([old_v & ~new_v, new_v & ~old_v,
                        old_v & new_v & neq],
                       ["delete", "insert", "update"], default="")
        cols = {"doc_id": did, "op": pa.array(op, pa.string())}
        for name in pay_cols:
            cols[name] = t.column(name)
        keep = pa.array(op != "")
        return pa.table(cols).filter(keep)

    return j.map_batches(classify, batch_format="pyarrow",
                         **rayenv.remote_args())


def source_stats_job(out_dir: str, snapshot: str | None = None,
                     concurrency: int | None = None):
    """Full computation of the per-source (n_rows, n_tokens) aggregate
    over the store — column-pruned decode (source + n_tok only; the
    token payload never leaves disk), per-batch partial aggregation,
    one small groupby over the bounded source domain. Returns a pandas
    DataFrame (domain-sized)."""
    import pandas as pd

    dec = decode_job(out_dir, columns=["source", "n_tok"],
                     concurrency=concurrency, snapshot=snapshot)

    def part(t: pa.Table) -> pa.Table:
        g = t.group_by("source").aggregate([("n_tok", "sum"),
                                            ([], "count_all")])
        return pa.table({
            "source": g.column("source"),
            "n_rows": g.column("count_all").cast(pa.int64()),
            "n_tokens": g.column("n_tok_sum").cast(pa.int64())})

    agg = dec.map_batches(part, batch_format="pyarrow",
                          **rayenv.remote_args()).to_pandas()
    if agg.empty:
        return pd.DataFrame({"source": pd.Series(dtype=str),
                             "n_rows": pd.Series(dtype="int64"),
                             "n_tokens": pd.Series(dtype="int64")})
    out = agg.groupby("source", as_index=False).sum()
    out["n_rows"] = out["n_rows"].astype("int64")
    return out


def incremental_source_stats(out_dir: str, from_snapshot: str, prev,
                             to_snapshot: str | None = None,
                             buckets: int = 8):
    """O(delta) maintenance of a materialized per-source aggregate: take
    the view computed AT ``from_snapshot`` (``prev``, a small per-source
    DataFrame) and roll it forward to ``to_snapshot`` (None = current)
    by applying only the CDC delta — deletes/old-update-versions
    subtract their (1, n_tok) contribution, inserts/new-update-versions
    add theirs. The corpus is never rescanned: cost is
    O(changed partitions) via :func:`cdc_scan`'s manifest pruning plus a
    delta-sized groupby, the scale path for refreshing corpus dashboards
    after incremental ingest/curation at 10^12-token scale."""
    import pandas as pd

    delta = cdc_scan(out_dir, from_snapshot, to_snapshot, buckets=buckets,
                     payload=["source", "n_tok"])

    def part(t: pa.Table) -> pa.Table:
        ops = t.column("op")
        outs = []
        o = t.filter(pc.is_in(ops, value_set=pa.array(
            ["delete", "update"])))
        if o.num_rows:
            outs.append(pa.table({
                "source": o.column("source_old").cast(pa.string()),
                "d_rows": pa.array(np.full(o.num_rows, -1, np.int64)),
                "d_tokens": pc.negate(o.column("n_tok_old")
                                      .cast(pa.int64()))}))
        n = t.filter(pc.is_in(ops, value_set=pa.array(
            ["insert", "update"])))
        if n.num_rows:
            outs.append(pa.table({
                "source": n.column("source_new").cast(pa.string()),
                "d_rows": pa.array(np.ones(n.num_rows, np.int64)),
                "d_tokens": n.column("n_tok_new").cast(pa.int64())}))
        if not outs:
            return pa.table({"source": pa.array([], pa.string()),
                             "d_rows": pa.array([], pa.int64()),
                             "d_tokens": pa.array([], pa.int64())})
        g = pa.concat_tables(outs).group_by("source").aggregate(
            [("d_rows", "sum"), ("d_tokens", "sum")])
        return pa.table({"source": g.column("source"),
                         "d_rows": g.column("d_rows_sum"),
                         "d_tokens": g.column("d_tokens_sum")})

    d = delta.map_batches(part, batch_format="pyarrow",
                          **rayenv.remote_args()).to_pandas()
    prev = prev.copy()
    if d.empty:
        return prev[["source", "n_rows", "n_tokens"]]
    d = d.groupby("source", as_index=False).sum()
    m = prev.merge(d, on="source", how="outer")
    for c in ("n_rows", "n_tokens", "d_rows", "d_tokens"):
        m[c] = m[c].fillna(0).astype("int64")
    m["n_rows"] = m["n_rows"] + m["d_rows"]
    m["n_tokens"] = m["n_tokens"] + m["d_tokens"]
    m = m[m["n_rows"] > 0]
    return m[["source", "n_rows", "n_tokens"]].reset_index(drop=True)


def replicate_cdc(primary_dir: str, replica_dir: str, from_snapshot: str,
                  to_snapshot: str | None = None,
                  cfg: EncodeConfig | None = None,
                  concurrency: int | None = None) -> dict:
    """Keep a downstream replica store in sync by applying ONLY the CDC
    delta (the lakehouse CDC-replication pattern): the replica must
    already hold the primary's ``from_snapshot`` state; after this call
    it holds the ``to_snapshot`` (default: current) state without ever
    rescanning the corpus.

    Composition keeps every stage O(changed): :func:`cdc_scan` ships
    2-int hash rows through its one bucketed exchange plus the scalar
    payload columns (n_tok, source); the TOKEN payload never rides the
    join — inserted/updated rows' tokens come point-to-point from the
    primary via lookup_docs' driver table (_lookup_table: zone-map +
    Bloom pruned, admitted pages only). Deletes tombstone,
    inserts/updates apply as one append-then-shadow upsert, so
    replication inherits upsert's idempotency: re-running a crashed
    replicate converges. The delta is driver-resident by the same
    incremental-batch assumption as merge_docs/upsert_docs."""
    delta = cdc_scan(primary_dir, from_snapshot, to_snapshot,
                     concurrency=concurrency,
                     payload=["n_tok", "source"]).to_pandas()
    stats = {"delta_rows": int(len(delta)),
             "deleted": 0, "applied": 0}
    if not len(delta):
        return stats
    dead = delta.loc[delta["op"] == "delete", "doc_id"].tolist()
    live = delta[delta["op"].isin(["insert", "update"])]
    if len(live):
        tbl = _reupserted(_lookup_table(primary_dir, live["doc_id"].tolist()),
                          live.set_index("doc_id")["source_new"])
        res = upsert_docs(replica_dir, tbl, cfg=cfg,
                          concurrency=concurrency)
        stats["applied"] = int(tbl.num_rows)
        stats["run_id"] = res["run_id"]
    if dead:
        d = delete_docs(replica_dir, dead, concurrency=concurrency)
        stats["deleted"] = int(d["rows_deleted"])
    return stats


def _reupserted(found: pa.Table, source) -> pa.Table:
    """TOKENS_SCHEMA rows, sorted by doc_id, that upsert the looked-up
    rows ``found`` (_lookup_table) again with each doc's ``source`` (a
    doc_id-indexed Series): replicate_cdc's and rollback_to_snapshot's
    payload."""
    toks = found.to_pandas().set_index("doc_id")["tokens"]
    ids = sorted(toks.index)
    seqs = [np.asarray(toks[d], dtype=np.int32) for d in ids]
    offsets = np.concatenate(
        ([0], np.cumsum([s.size for s in seqs]))).astype(np.int64)
    la = pa.LargeListArray.from_arrays(
        offsets, pa.array(np.concatenate(seqs) if seqs
                          else np.array([], np.int32), pa.int32())) \
        .cast(pa.list_(pa.int32()))
    return pa.table({"doc_id": pa.array(ids, pa.string()), "tokens": la,
                     "n_tok": pa.array([s.size for s in seqs], pa.int32()),
                     "source": pa.array([source[d] for d in ids],
                                        pa.string())})


def rollback_to_snapshot(out_dir: str, snapshot: str,
                         cfg: EncodeConfig | None = None,
                         concurrency: int | None = None) -> dict:
    """RESTORE TABLE ... TO VERSION (Delta RESTORE / Iceberg rollback):
    roll the CURRENT store state back so a full scan equals the committed
    ``snapshot`` view, applying only the REVERSE CDC delta — the write-side
    complement of ``decode_job(snapshot=...)`` time travel. The reference
    is write-once with no versioning (src/lib.rs:29); rollback belongs to
    the mandated mutation extension.

    Composition (every stage O(changed), the corpus never rescans):
    :func:`cdc_scan` computes the forward delta snapshot->current through
    its one bucketed exchange of 2-int hash rows; each op inverts —
    rows INSERTED since the snapshot are tombstoned away
    (:func:`delete_docs`), rows DELETED or UPDATED since are restored by
    one append-then-shadow :func:`upsert_docs` whose token payloads come
    point-to-point from the snapshot view via lookup_docs' driver table
    (``_lookup_table(snapshot=...)``: zone-map + Bloom pruned — readable
    even after a compaction rewrote the live store, because snapshots
    pin their partition files from gc). History stays intact: earlier
    snapshots remain time-travelable, and re-running a crashed rollback
    converges (the recomputed delta only contains what's still
    different). The delta is driver-resident by the same
    incremental-batch assumption as merge_docs/upsert_docs/replicate_cdc."""
    delta = cdc_scan(out_dir, snapshot, None, concurrency=concurrency,
                     payload=["n_tok", "source"]).to_pandas()
    stats = {"delta_rows": int(len(delta)), "deleted": 0, "restored": 0}
    if not len(delta):
        return stats
    # forward-inserted rows vanish; forward-deleted/updated rows revert
    dead = delta.loc[delta["op"] == "insert", "doc_id"].tolist()
    back = delta[delta["op"].isin(["delete", "update"])]
    if len(back):
        tbl = _reupserted(_lookup_table(out_dir, back["doc_id"].tolist(),
                                        snapshot=snapshot),
                          back.set_index("doc_id")["source_old"])
        missing = set(back["doc_id"]) - set(tbl.column("doc_id").to_pylist())
        if missing:
            raise FileNotFoundError(
                f"snapshot {snapshot} payloads unavailable for "
                f"{sorted(missing)[:5]} (gc'd?)")
        res = upsert_docs(out_dir, tbl, cfg=cfg, concurrency=concurrency)
        stats["restored"] = int(tbl.num_rows)
        stats["run_id"] = res["run_id"]
    if dead:
        d = delete_docs(out_dir, dead, concurrency=concurrency)
        stats["deleted"] = int(d["rows_deleted"])
    return stats


def decode_job(out_dir: str, columns: list[str] | None = None,
               concurrency: int | None = None, task_cpus: int = 1,
               where=None, snapshot: str | None = None):
    """Decode pipeline: manifest Dataset -> stateless decode tasks -> rows.

    ``where`` is a partition-pruning predicate over manifest rows (zone-map
    pruning — the scaled-up version of the reference's planned per-page
    "efficient row skipping", wills-columnar-format.org:187-194): partitions
    whose lineage stats rule them out are never read from disk. The caller
    still applies the exact row filter after decode; pruning is purely a
    conservative skip. ``snapshot`` decodes the store AS OF a committed
    ``create_snapshot`` point (time travel)."""
    n = concurrency or _default_concurrency()
    rows = load_manifest(out_dir, snapshot=snapshot)
    if where is not None:
        kept = [r for r in rows if where(r)]
    else:
        kept = rows
    ds = _sliced_blocks(manifest_rows_to_table(kept), n * 2)
    import functools
    fn = functools.partial(decode_partition_batch, columns=columns)
    cap = _stage_cap(concurrency, task_cpus)
    out = ds.map_batches(fn, batch_size=1, batch_format="pyarrow",
                         num_cpus=1, concurrency=cap, **rayenv.remote_args())
    # the output schema is known from lineage: declaring it spares
    # schema() / to_arrow_refs() a limit(1) run that decodes a partition
    # twice. Partitions of differing layouts declare nothing.
    from .joins import declare_schema
    schemas = [decoded_schema(r, columns) for r in kept] or [pa.schema(
        [f for f in TOKENS_SCHEMA if f.name in (columns or TOKEN_COLUMNS)])]
    if all(s.equals(schemas[0]) for s in schemas):
        declare_schema(out, schemas[0])
    return out


def read_column_section(row: dict, column: str,
                        allow_nulls: bool = False) -> "fmt.EncodedColumn":
    """Read + (de-transport) one column section of one partition without
    decoding it — the metadata/encoded-domain entry point.

    Encoded-domain consumers (predicate masks, compressed aggregation,
    point lookups) index values by ROW POSITION; on a nullable column the
    dense value stream is shorter than the row space, so those consumers
    would silently misalign. They get a loud error instead — nullable
    columns read through decode_partition / decode_job / schema.scan,
    which apply the validity scatter. ``allow_nulls=True`` is for callers
    that handle ``enc.validity`` themselves (fsck, update)."""
    cm = next(c for c in row["columns"] if c["column"] == column)
    with open(row["file"], "rb") as f:
        f.seek(cm["offset"])
        blob = f.read(cm["length"])
    if cm.get("crc") is not None and zlib.crc32(blob) != cm["crc"]:
        raise IOError(f"checksum mismatch in {row['pid']}:{column}")
    blob = _untransport(blob, cm)
    enc = fmt.read_column_file(blob)
    enc.dtype = cm["dtype"]
    if enc.validity is not None and not allow_nulls:
        raise fmt.UnsupportedDataType(
            f"column {column!r} of partition {row['pid']} contains nulls "
            f"— this encoded-domain access path is position-aligned; "
            f"read it via decode_job/scan instead")
    return enc


def read_column_pages(row: dict, column: str, keep: list[int]):
    """Selective page fetch (transport="zstd-page"): reads ONLY the trailer
    frame plus the kept pages' frames from disk — the IO-saving realization
    of the reference's "efficient row skipping" roadmap that a
    whole-section zstd stream cannot provide. Returns
    ``(EncodedColumn restricted to the kept pages, bytes_read,
    bytes_total)``; falls back to a full-section read (+ in-memory page
    slice) for sections without frames."""
    cm = next(c for c in row["columns"] if c["column"] == column)
    frames = cm.get("frames")
    if not frames:
        enc = read_column_section(row, column)
        return fmt.slice_pages(enc, keep), cm["length"], cm["length"]
    codec = _zstd()
    keep = sorted(int(i) for i in keep)
    bytes_read = 0
    with open(row["file"], "rb") as f:
        toff, tclen, trawlen, tcrc = frames[-1]
        f.seek(cm["offset"] + toff)
        tcomp = f.read(tclen)
        bytes_read += tclen
        if zlib.crc32(tcomp) != tcrc:
            raise IOError(f"frame checksum mismatch in {row['pid']}:{column}")
        skel = fmt.read_footer_blob(codec.decompress(tcomp, trawlen,
                                                     asbytes=True))
        skel.dtype = cm["dtype"]
        parts: list[np.ndarray] = []
        pages: list[fmt.PageInfo] = []
        off = 0
        for i in keep:
            foff, clen, rawlen, fcrc = frames[i]
            f.seek(cm["offset"] + foff)
            comp = f.read(clen)
            bytes_read += clen
            if zlib.crc32(comp) != fcrc:
                raise IOError(
                    f"frame checksum mismatch in {row['pid']}:{column}")
            parts.append(np.frombuffer(codec.decompress(comp, rawlen,
                                                        asbytes=True),
                                       dtype=np.uint8))
            p = skel.pages[i]
            pages.append(fmt.PageInfo(off, p.values_count,
                                      p.encoded_values_count, p.byte_length))
            off += p.byte_length
    payload = np.concatenate(parts) if parts else np.empty(0, dtype=np.uint8)
    enc = fmt.EncodedColumn(dtype=skel.dtype, codec=skel.codec,
                            meta=skel.meta, pages=pages, payload=payload,
                            n_values=sum(p.values_count for p in pages))
    return enc, bytes_read, cm["length"]


def read_column_skeleton(row: dict, column: str) -> "fmt.EncodedColumn":
    """Page-layout-only read of one column section: with the default
    transport="zstd-page" framing, ONLY the trailer frame is fetched and
    parsed (payload stays on disk) — the metadata entry point for
    row-range planning (page row offsets come from PageInfo.values_count).
    Falls back to a full-section read for unframed sections."""
    cm = next(c for c in row["columns"] if c["column"] == column)
    frames = cm.get("frames")
    if not frames:
        return read_column_section(row, column)
    codec = _zstd()
    toff, tclen, trawlen, tcrc = frames[-1]
    with open(row["file"], "rb") as f:
        f.seek(cm["offset"] + toff)
        tcomp = f.read(tclen)
    if zlib.crc32(tcomp) != tcrc:
        raise IOError(f"frame checksum mismatch in {row['pid']}:{column}")
    skel = fmt.read_footer_blob(codec.decompress(tcomp, trawlen,
                                                 asbytes=True))
    skel.dtype = cm["dtype"]
    return skel


def _pred_row_mask(enc: "fmt.EncodedColumn", value=None,
                   between: tuple | None = None) -> np.ndarray:
    """Boolean row mask for ``column == value`` (or ``lo <= column <= hi``
    when ``between=(lo, hi)``) evaluated as far into the compressed domain
    as the stored codec allows: RLE compares once per RUN (then
    np.repeat), dict once per DISTINCT value (then a code gather); only
    other codecs fall back to a full decode + vectorized compare. Range
    predicates need no order-preserving code assignment — the comparison
    runs over the dict VALUES / run values, never the codes."""
    from .codecs import REGISTRY

    def _test(chunk) -> np.ndarray:
        if fmt.is_string(enc.dtype):
            arr = fmt.chunk_to_arrow(chunk, "str").cast(pa.string())
            if between is not None:
                m = pc.and_(pc.greater_equal(arr, between[0]),
                            pc.less_equal(arr, between[1]))
            else:
                m = pc.equal(arr, value)
            return m.to_numpy(zero_copy_only=False)
        v = np.asarray(chunk)
        if between is not None:
            return (v >= between[0]) & (v <= between[1])
        return v == value

    if enc.codec == "rle":
        rv, lens = REGISTRY["rle"].decode_runs(enc.payload, enc.pages,
                                               enc.meta, enc.dtype)
        return np.repeat(_test(rv), lens.astype(np.int64))
    if enc.codec == "dict":
        uniq, codes = REGISTRY["dict"].decode_codes(enc.payload, enc.pages,
                                                    enc.meta, enc.dtype)
        return _test(uniq)[codes]
    return _test(fmt.decode_chunk(enc))


def late_materialized_sum(out_dir: str, pred_col: str = "source",
                          pred_val: str = "src3", val_col: str = "n_tok",
                          concurrency: int | None = None,
                          pred_between: tuple | None = None):
    """Late materialization — the classic columnar-engine access path the
    reference's V0 whole-column decoder cannot do (its roadmap names row
    skipping, wills-columnar-format.org:187-194): the predicate column
    decides which PAGES of the value column are ever fetched. Per
    partition: (1) partition-level prune on manifest stats (zero IO when
    the predicate value is outside the partition's range), (2) the
    predicate column evaluates in its compressed domain (_pred_row_mask;
    on a nullable column the mask scatters through the validity, so NULL
    matches nothing), (3) only value-column pages containing >= 1
    matching row are read (read_column_pages — pruned zstd page frames
    never leave disk), (4) a
    vectorized in-page mask finishes the SUM/COUNT. Partials are six ints
    per manifest block, so the exchange is a scalar aggregate. Returns one
    row: (n_rows, sum_val, pages_kept, pages_total, bytes_read,
    bytes_total).

    ``pred_between=(lo, hi)`` switches the predicate to an inclusive
    RANGE (``lo <= pred_col <= hi``, SQL BETWEEN): the partition prune
    becomes a zone-map overlap test and the compressed-domain evaluation
    compares once per run/distinct value exactly like equality
    (_pred_row_mask needs no order-preserving dict — it tests values,
    not codes). ``pred_val`` is ignored when ``pred_between`` is set."""
    from ray.data.aggregate import Sum

    n = concurrency or _default_concurrency()
    ds = manifest_dataset(out_dir, n_blocks=n * 2)
    probe = ({"lo": pred_between[0], "hi": pred_between[1]}
             if pred_between is not None else {"vals": [pred_val]})

    def scan(batch: pa.Table) -> pa.Table:
        tot = {"n_rows": 0, "sum_val": 0, "pages_kept": 0,
               "pages_total": 0, "bytes_read": 0, "bytes_total": 0}
        for row in manifest_table_to_rows(batch):
            vcm = _column_meta(row, val_col)
            # the manifest counts the value pages, so a pruned partition
            # costs no IO; a row without page stats reads the skeleton
            stats = vcm.get("page_stats")
            skel = read_column_skeleton(row, val_col) if stats is None \
                else None
            tot["pages_total"] += len(stats if skel is None else skel.pages)
            tot["bytes_total"] += vcm["length"]
            if not _zone_admits((row.get("stats") or {}).get(pred_col),
                                **probe):
                continue
            enc = read_column_section(row, pred_col, allow_nulls=True)
            mask = _pred_row_mask(enc, pred_val, between=pred_between)
            if enc.validity is not None:
                # the mask covers the dense values; NULL matches nothing
                dense, mask = mask, np.zeros(enc.validity.size, dtype=bool)
                mask[enc.validity] = dense
            dr = row.get("deleted_rows")
            if dr:  # tombstoned rows are invisible to the aggregate
                mask = mask.copy()
                mask[np.asarray(dr, dtype=np.int64)] = False
            if not mask.any():
                continue
            if skel is None:
                skel = read_column_skeleton(row, val_col)
            rows_pp = np.array([p.values_count for p in skel.pages],
                               dtype=np.int64)
            pe = np.cumsum(rows_pp)
            ps = pe - rows_pp
            per_page = np.add.reduceat(mask.astype(np.int64), ps)
            keep = np.flatnonzero(per_page > 0)
            enc_v, br, _bt = read_column_pages(row, val_col,
                                               [int(i) for i in keep])
            vals = np.asarray(fmt.decode_chunk(enc_v), dtype=np.int64)
            kmask = np.concatenate([mask[ps[i]:pe[i]] for i in keep])
            tot["n_rows"] += int(mask.sum())
            tot["sum_val"] += int(vals[kmask].sum())
            tot["pages_kept"] += int(keep.size)
            tot["bytes_read"] += br
        return pa.table({k: pa.array([v], pa.int64())
                         for k, v in tot.items()})

    agg = ds.map_batches(scan, batch_size=1, batch_format="pyarrow",
                         num_cpus=1, **rayenv.remote_args()) \
        .aggregate(*[Sum(k, alias_name=k)
                     for k in ("n_rows", "sum_val", "pages_kept",
                               "pages_total", "bytes_read", "bytes_total")])
    import pandas as pd
    return pd.DataFrame([{k: int(agg[k] or 0)
                          for k in ("n_rows", "sum_val", "pages_kept",
                                    "pages_total", "bytes_read",
                                    "bytes_total")}])


def compressed_group_sum(out_dir: str, group_col: str = "source",
                         val_col: str = "n_tok",
                         concurrency: int | None = None):
    """GROUP BY + COUNT/SUM over the encoded store with the group column
    never expanded to per-row values: per partition the stored codec's
    compressed form drives the aggregation directly —

    - RLE: runs are contiguous row spans, so per-run sums are ONE
      ``np.add.reduceat`` over the value column at the run starts and
      per-run counts are the run lengths; runs (<< rows) then collapse
      by run value in a tiny Arrow group_by.
    - dict: codes are a dense 0..n_uniq-1 relabeling, so per-group sums
      and counts are TWO ``np.bincount`` calls over the codes — no hash
      table, no string materialization.
    - any other codec: vectorized Arrow group_by over decoded values
      (the group column was cheap to store precisely because it wasn't
      repetitive, so there is no compressed structure to exploit).

    The value column decodes in full (every row participates). Row
    tombstones mask out before aggregating. Partials are
    (group, n_rows, sum_val) rows per partition — domain-sized, so the
    exchange ships O(n_groups x partitions), never O(rows). Returns a
    pandas DataFrame (group_col, n_rows, sum_val) — group-by result
    sizes here are dashboard-sized; corpus-cardinality keys belong to
    the sketch family in rwcf.analytics."""
    from ray.data.aggregate import Sum

    from .codecs import REGISTRY

    n = concurrency or _default_concurrency()
    ds = manifest_dataset(out_dir, n_blocks=n * 2)

    def _keyarr(chunk, dtype: str) -> pa.Array:
        a = fmt.chunk_to_arrow(chunk, dtype)
        return a.cast(pa.string()) if fmt.is_string(dtype) else a

    def _collapse(keys: pa.Array, n_rows: np.ndarray,
                  sums: np.ndarray) -> pa.Table:
        t = pa.table({group_col: keys,
                      "n_rows": pa.array(n_rows.astype(np.int64)),
                      "sum_val": pa.array(sums.astype(np.int64))})
        g = t.group_by(group_col).aggregate([("n_rows", "sum"),
                                             ("sum_val", "sum")])
        return pa.table({group_col: g.column(group_col),
                         "n_rows": g.column("n_rows_sum"),
                         "sum_val": g.column("sum_val_sum")})

    def scan(batch: pa.Table) -> pa.Table:
        outs = []
        for row in manifest_table_to_rows(batch):
            genc = read_column_section(row, group_col)
            vals = np.asarray(
                fmt.decode_chunk(read_column_section(row, val_col)),
                dtype=np.int64)
            dead = row.get("deleted_rows")
            live = None
            if dead:
                live = np.ones(vals.size, dtype=bool)
                live[np.asarray(dead, dtype=np.int64)] = False
            if genc.codec == "rle":
                rv, lens = REGISTRY["rle"].decode_runs(
                    genc.payload, genc.pages, genc.meta, genc.dtype)
                lens = lens.astype(np.int64)
                starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
                if live is None:
                    run_sum = np.add.reduceat(vals, starts)
                    run_n = lens
                else:
                    run_sum = np.add.reduceat(
                        np.where(live, vals, 0), starts)
                    run_n = np.add.reduceat(live.astype(np.int64), starts)
                # reduceat quirk: an empty slice at the END can't occur
                # (every run has length >= 1 by construction)
                outs.append(_collapse(_keyarr(rv, genc.dtype),
                                      run_n, run_sum))
            elif genc.codec == "dict":
                uniq, codes = REGISTRY["dict"].decode_codes(
                    genc.payload, genc.pages, genc.meta, genc.dtype)
                codes = codes.astype(np.int64)
                if live is not None:
                    codes, vals = codes[live], vals[live]
                n_uniq = (uniq[0].size if fmt.is_string(genc.dtype)
                          else np.asarray(uniq).size)
                n_rows = np.bincount(codes, minlength=n_uniq)
                sums = np.bincount(codes, weights=vals,
                                   minlength=n_uniq).astype(np.int64)
                keys = _keyarr(uniq, genc.dtype)
                nz = n_rows > 0  # absent-in-partition dict entries
                outs.append(pa.table({
                    group_col: keys.filter(pa.array(nz)),
                    "n_rows": pa.array(n_rows[nz].astype(np.int64)),
                    "sum_val": pa.array(sums[nz])}))
            else:
                gv = _keyarr(fmt.decode_chunk(genc), genc.dtype)
                if live is not None:
                    m = pa.array(live)
                    gv = gv.filter(m)
                    vals = vals[live]
                outs.append(_collapse(gv, np.ones(len(gv), dtype=np.int64),
                                      vals))
        if not outs:
            return pa.table({group_col: pa.array([], pa.string()),
                             "n_rows": pa.array([], pa.int64()),
                             "sum_val": pa.array([], pa.int64())})
        return pa.concat_tables(outs, promote_options="default")

    import pandas as pd
    part = ds.map_batches(scan, batch_size=1, batch_format="pyarrow",
                          num_cpus=1, **rayenv.remote_args()).to_pandas()
    if part.empty:
        return pd.DataFrame({group_col: pd.Series(dtype=str),
                             "n_rows": pd.Series(dtype="int64"),
                             "sum_val": pd.Series(dtype="int64")})
    out = part.groupby(group_col, as_index=False).sum()
    out["n_rows"] = out["n_rows"].astype("int64")
    out["sum_val"] = out["sum_val"].astype("int64")
    return out


def stats_only_minmax(out_dir: str, column: str = "n_tok",
                      concurrency: int | None = None):
    """MIN/MAX answered ENTIRELY from the manifest's zone-map page stats —
    zero partition-file IO (the manifest rows are the whole input). Valid
    because page bounds are exact for numeric columns: the global min is
    the min of page minima. Returns one row (lo, hi)."""
    from ray.data.aggregate import Max, Min

    n = concurrency or _default_concurrency()
    ds = manifest_dataset(out_dir, n_blocks=n * 2)

    def part(batch: pa.Table) -> pa.Table:
        los, his = [], []
        for row in manifest_table_to_rows(batch):
            if row.get("deleted_rows"):
                # zone maps describe PHYSICAL rows; a tombstoned row may
                # hold the extremum, so this partition falls back to one
                # column-section read over its live rows (still no other
                # columns touched). Compaction re-tightens the stats.
                vals = np.asarray(
                    fmt.decode_chunk(read_column_section(row, column)),
                    dtype=np.int64)
                keep = np.setdiff1d(
                    np.arange(vals.size, dtype=np.int64),
                    np.asarray(row["deleted_rows"], dtype=np.int64))
                if keep.size == 0:
                    continue
                los.append(int(vals[keep].min()))
                his.append(int(vals[keep].max()))
                continue
            cm = next(c for c in row["columns"] if c["column"] == column)
            stats = cm.get("page_stats")
            if stats is None:
                raise ValueError(f"column {column} carries no page stats")
            los.append(min(s[0] for s in stats))
            his.append(max(s[1] for s in stats))
        return pa.table({"lo": pa.array(los, pa.int64()),
                         "hi": pa.array(his, pa.int64())})

    agg = ds.map_batches(part, batch_format="pyarrow",
                         **rayenv.remote_args()) \
        .aggregate(Min("lo", alias_name="lo"), Max("hi", alias_name="hi"))
    import pandas as pd
    return pd.DataFrame([{"lo": int(agg["lo"]), "hi": int(agg["hi"])}])


def _read_admitted_pages(row: dict, cm: dict, vals: list | None = None,
                         lo=None, hi=None):
    """Fetch and decode ONLY the pages of column ``cm`` whose per-page
    zone maps admit the probes. A point plan's scan calls this in the
    driver on a partition whose manifest zone map and Bloom sidecar
    already admitted the probes (_admitted_results); the page rule is the
    same _zone_admits. Returns ``(values,
    local_rows)`` — the decoded Arrow values (strings as ``pa.string()``)
    and their partition-local row indices — or None when no page admits.
    Null-free columns only: page spans index the dense value stream."""
    skel = read_column_skeleton(row, cm["column"])
    rows_pp = np.array([p.values_count for p in skel.pages], dtype=np.int64)
    pe = np.cumsum(rows_pp)
    stats = cm.get("page_stats") or [None] * len(rows_pp)
    keep = [i for i, s in enumerate(stats) if _zone_admits(s, vals, lo, hi)]
    if not keep:
        return None
    enc, _br, _bt = read_column_pages(row, cm["column"], keep)
    arr = fmt.chunk_to_arrow(fmt.decode_chunk(enc), cm["dtype"])
    if fmt.is_string(cm["dtype"]):
        arr = arr.cast(pa.string())
    return arr, np.concatenate(
        [np.arange(pe[i] - rows_pp[i], pe[i], dtype=np.int64) for i in keep])


def _column_meta(row: dict, column: str) -> dict | None:
    return next((c for c in row["columns"] if c["column"] == column), None)


#: result schemas of the point readers (_admitted_scan)
_LOOKUP_SCHEMA = pa.schema([("doc_id", pa.string()),
                            ("tokens", pa.list_(pa.int32()))])
_RANGE_SCHEMA = pa.schema([("doc_id", pa.string()), ("n_tok", pa.int64())])


def lookup_docs(out_dir: str, keys: list[str],
                concurrency: int | None = None,
                snapshot: str | None = None):
    """Distributed point lookup by doc_id over the encoded store — realized
    "efficient row skipping" (wills-columnar-format.org:187-194) at row
    granularity: (1) the DRIVER prunes every partition whose manifest
    doc_id range excludes every probe, so a pruned partition costs no
    IO (_admitted_results), (2) within an admitted partition only
    doc_id PAGES whose truncated string zone maps admit a probe are
    fetched, (3) matched rows map through n_tok prefix sums to token
    ranges, and ONLY the token pages covering those ranges are read and
    decoded. When the store carries a Bloom sidecar (EncodeConfig
    bloom_bits_per_key > 0) the driver also probes each zone-admitted
    partition's doc_id bloom before step (2) (_bloom_admits) — one tiny
    read that skips the partition's data sections entirely unless some
    probe MAY be present (the scale path for hash-like ids, where every
    partition's [min,max] range admits every probe). Admission and scan
    both run in the driver (_admitted_results), so ``concurrency`` has no
    effect here; it stays for callers that pass it.
    Returns an executed MaterializedDataset of (doc_id, tokens) rows for
    the found keys, which reads without starting a Ray Data executor
    (_admitted_scan; detokenization is the caller's concern — token
    streams need not be valid UTF-8).
    ``snapshot`` looks up the store AS OF that committed snapshot —
    immutable partition files plus the snapshot's pid/tombstone view
    make historical point reads free (rollback_to_snapshot's payload
    source)."""
    return _admitted_scan(out_dir, *_lookup_scan(keys), _LOOKUP_SCHEMA,
                          snapshot)


def _lookup_table(out_dir: str, keys: list[str],
                  snapshot: str | None = None) -> pa.Table:
    """lookup_docs' rows as one driver table of ``_LOOKUP_SCHEMA``, with
    no Dataset built: the input of the mutations that read stored
    payloads (replicate_cdc, rollback_to_snapshot)."""
    return pa.concat_tables([_LOOKUP_SCHEMA.empty_table(), *_admitted_results(
        load_manifest(out_dir, snapshot=snapshot), *_lookup_scan(keys))])


def _live_doc_ids(out_dir: str, keys: list[str]) -> set[str]:
    """The ``keys`` that are live doc_ids of the store: lookup_docs'
    admission (zone maps, Bloom), doc_id page reads and tombstones, with
    no n_tok or token read — merge_docs' match test."""
    admits, hits = _lookup_plan(keys)

    def scan(row: dict) -> list[str] | None:
        got = hits(row)
        return got and got[0].to_pylist()

    return {k for ids in _admitted_results(load_manifest(out_dir), admits,
                                           scan) for k in ids}


def _lookup_plan(keys: list[str]):
    """The doc_id half of lookup_docs' plan: ``(admits, hits)``, the
    partition admission for _admitted_results and ``hits(row)``, which
    reads an admitted partition's doc_id pages and returns its live hits
    as ``(doc_ids, partition-local rows)``, or None."""
    keys = sorted(set(str(k) for k in keys))
    probe_arr = pa.array(keys, pa.string())

    def admits(row: dict) -> bool:
        return _zone_admits((row.get("stats") or {}).get("doc_id"), keys) \
            and _bloom_admits(row, "doc_id", keys)

    def hits(row: dict):
        got = _read_admitted_pages(row, _column_meta(row, "doc_id"), keys)
        if got is None:
            return None
        ids, local_rows = got
        hit = pc.is_in(ids, value_set=probe_arr) \
            .to_numpy(zero_copy_only=False)
        hit_rows = local_rows[hit]
        hit_idx = np.flatnonzero(hit)
        dr = row.get("deleted_rows")
        if dr:  # tombstoned rows are invisible to point lookups
            alive = ~np.isin(hit_rows, np.asarray(dr, dtype=np.int64))
            hit_rows = hit_rows[alive]
            hit_idx = hit_idx[alive]
        if not hit_idx.size:
            return None
        return ids.take(pa.array(hit_idx)), hit_rows

    return admits, hits


def _lookup_scan(keys: list[str]):
    """lookup_docs' ``(admits, scan)`` pair for _admitted_results: the
    live hits of _lookup_plan with their token lists."""
    admits, hits = _lookup_plan(keys)

    def scan(row: dict) -> pa.Table | None:
        got = hits(row)
        if got is None:
            return None
        hit_ids, hit_rows = got
        n_tok = np.asarray(
            fmt.decode_chunk(read_column_section(row, "n_tok")),
            dtype=np.int64)
        toff = np.concatenate(([0], np.cumsum(n_tok)))
        starts = toff[hit_rows]
        ends = toff[hit_rows + 1]
        skel_t = read_column_skeleton(row, "tokens")
        trows = np.array([p.values_count for p in skel_t.pages],
                         dtype=np.int64)
        tpe = np.cumsum(trows)
        tps = tpe - trows
        lo_pg = np.searchsorted(tpe, starts, side="right")
        hi_pg = np.searchsorted(tpe, np.maximum(ends - 1, starts),
                                side="right")
        keep_t = sorted({int(p) for a, b in zip(lo_pg, hi_pg)
                         for p in range(a, min(b, len(trows) - 1) + 1)})
        toks: list[np.ndarray] = [np.empty(0, np.int32)] * len(hit_rows)
        if keep_t:  # else every hit row has 0 tokens
            enc_t, _br2, _bt2 = read_column_pages(row, "tokens", keep_t)
            tvals = np.asarray(fmt.decode_chunk(enc_t), dtype=np.int32)
            kept_starts = tps[keep_t]
            kcum = np.concatenate(([0], np.cumsum(trows[keep_t])))
            # each row's token span covers globally-adjacent pages, all of
            # which were kept, so the local mapping is affine per row
            # (0-token rows take any in-bounds slot; their slice is empty)
            idx = np.maximum(
                np.searchsorted(kept_starts, starts, side="right") - 1, 0)
            local = np.minimum(kcum[idx] + (starts - kept_starts[idx]),
                               len(tvals))
            toks = [tvals[a: a + n] for a, n in zip(local, ends - starts)]
        offsets = np.concatenate(
            ([0], np.cumsum([s.size for s in toks]))).astype(np.int64)
        la = pa.LargeListArray.from_arrays(
            offsets, pa.array(np.concatenate(toks), pa.int32())) \
            .cast(pa.list_(pa.int32()))
        return pa.table({"doc_id": hit_ids, "tokens": la})

    return admits, scan


def _pid_lock(tpath: str, timeout_s: float = 30.0,
              stale_s: float = 120.0) -> str:
    """Acquire an exclusive per-partition lockfile (``O_CREAT|O_EXCL`` —
    atomic on POSIX and NFS-safe enough for a shared manifest dir).

    Serializes the tombstone read-merge-write across CONCURRENT delete /
    upsert / merge jobs on the same store: without it, two jobs reading
    the same prior tombstone and replacing it union-blind would each
    publish only its own positions (classic lost update). Locks from
    crashed writers age out after ``stale_s`` (the critical section is a
    one-file read+write, so a lock older than minutes is dead, not slow)."""
    lock = tpath + ".lock"
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.write(fd, f"{os.getpid()}".encode())
            os.close(fd)
            return lock
        except FileExistsError:
            try:
                if time.time() - os.path.getmtime(lock) > stale_s:
                    os.unlink(lock)  # break a dead writer's lock
                    continue
            except FileNotFoundError:
                continue  # holder released between our open and stat
            if time.monotonic() > deadline:
                raise TimeoutError(f"tombstone lock busy: {lock}")
            # jittered backoff keyed on pid so stampeding workers desync
            time.sleep(0.005 + (os.getpid() % 16) * 0.002)


def _merge_tombstone(mdir: str, row: dict, hit_positions) -> int:
    """Union-merge newly dead local row indices into the partition's
    ``{pid}.del.json`` tombstone sidecar (atomic tmp+rename; idempotent).
    Returns the count of NEWLY deleted rows (0 = nothing written; no
    position at all takes no lock).

    Safe under concurrent writer JOBS: the read-merge-write runs under a
    per-pid lockfile (:func:`_pid_lock`), so two delete/upsert jobs
    hitting the same partition serialize and both sets of positions
    land. Within one call each pid is scanned once, so the lock is
    uncontended on the common path (one O_CREAT+unlink pair)."""
    if not len(hit_positions):
        return 0
    tpath = os.path.join(mdir, f"{row['pid']}.del.json")
    lock = _pid_lock(tpath)
    try:
        prev = set(row.get("deleted_rows") or [])
        if os.path.exists(tpath):  # newer than the manifest snapshot
            with open(tpath) as f:
                prev |= set(json.load(f)["deleted_rows"])
        new = set(int(x) for x in np.asarray(hit_positions)) - prev
        if not new:
            return 0
        dead = sorted(prev | new)
        tomb = {"pid": row["pid"], "deleted_rows": dead, "n": len(dead)}
        tmp = tpath + f".tmp{os.getpid()}"
        with open(tmp, "w") as f:
            f.write(json.dumps(tomb))  # C encoder, as commit_manifest_row
        os.replace(tmp, tpath)  # commit point
        return len(new)
    finally:
        try:
            os.unlink(lock)
        except FileNotFoundError:
            pass  # a stale-lock breaker raced us; our write already landed


def delete_docs(out_dir: str, keys: list[str],
                concurrency: int | None = None,
                exclude_pids: set[str] | None = None) -> dict:
    """Row-level delete by doc_id — lakehouse-style tombstone sidecars
    (the role of Iceberg/Delta position deletes): immutable partition
    files stay untouched; per matched partition a ``{pid}.del.json``
    tombstone (local row indices, committed via atomic tmp+rename) marks
    rows invisible, and EVERY reader — decode_job, verify_job,
    lookup_docs, range_scan_docs, late_materialized_sum,
    stats_only_minmax — filters through it (load_manifest attaches
    tombstones to manifest rows). Compaction materializes deletes away
    and drops the tombstones.

    Matching is delete_where's doc_id equality plan, index-grade, not a
    scan: the DRIVER prunes partitions by ``exclude_pids``, manifest zone
    maps and then Bloom sidecars (_admitted_results, _bloom_admits), and
    only admitted doc_id PAGES decode. The scan runs in the driver too
    (``concurrency`` has no effect), each tombstone commit takes the
    per-pid lock, and the driver sums the counts: no Dataset is built.
    Idempotent (re-deleting union-merges), and safe under CONCURRENT
    delete/upsert/merge jobs: each partition's tombstone commit runs
    under a per-pid lockfile (see _merge_tombstone), so racing jobs
    serialize per partition and no positions are lost. (Structural
    rewrites — compact_partitions, cluster_store — remain single-writer
    like Iceberg's rewrite actions.) Returns
    ``{"partitions", "rows_deleted"}`` (newly deleted rows only).
    ``exclude_pids`` exempts partitions from the delete — upsert_docs
    uses it so the freshly appended versions survive their own
    shadow pass."""
    return _delete_planned(out_dir, load_manifest(out_dir), "doc_id",
                           [str(k) for k in keys], exclude_pids=exclude_pids)


def delete_where(out_dir: str, column: str, values: list | None = None,
                 lo=None, hi=None, concurrency: int | None = None,
                 exclude_pids: set[str] | None = None) -> dict:
    """Predicate delete on ANY row-aligned column (the role of Iceberg v2
    equality deletes / ``DELETE FROM t WHERE col IN (...)`` or
    ``BETWEEN lo AND hi``): resolves the predicate to position tombstones
    through the same index-grade path every point reader uses — the
    DRIVER prunes partitions by manifest zone maps and then, in equality
    mode, by the column's Bloom sidecar when present (_admitted_results,
    _bloom_admits); the scan's per-page zone maps keep only admitting
    PAGES, and only those pages of ONLY the predicate column ever
    decode. The scan runs in the driver too (``concurrency`` has no
    effect) and the driver sums the counts: no Dataset is built.
    Partition data files are never rewritten; the committed tombstones
    are the same ``{pid}.del.json`` sidecars ``delete_docs`` writes, so
    every reader (decode_job, verify_job, lookup_docs, range_scan_docs,
    late_materialized_sum, stats_only_minmax, cdc_scan, compaction's
    materialize-away) honors them with no new code paths.

    Exactly one predicate form: ``values`` (equality set) or ``lo``/``hi``
    (closed range; one side open is allowed). GDPR-style takedowns
    ("delete every row with source = X") cost O(admitting partitions'
    predicate-column pages), not a corpus rewrite. Idempotent; same
    single-concurrent-writer discipline as delete_docs."""
    if (values is None) == (lo is None and hi is None):
        raise ValueError("pass exactly one of values= or lo=/hi=")
    if column == "tokens":
        raise ValueError("tokens is a flattened value stream, not "
                         "row-aligned; delete on a per-row column")
    return _delete_planned(out_dir, load_manifest(out_dir), column, values,
                           lo, hi, exclude_pids)


def _delete_planned(out_dir: str, rows: list[dict], column: str,
                    values: list | None = None, lo=None, hi=None,
                    exclude_pids: set[str] | None = None) -> dict:
    """delete_where over ``rows``, the manifest main view of ``out_dir``:
    the plan of delete_docs, delete_where and upsert_docs' shadow delete,
    which passes the rows its append was planned from."""
    vals = sorted(set(values)) if values is not None else None
    mdir = os.path.join(out_dir, "manifest")
    excl = frozenset(exclude_pids or ())

    def admits(row: dict) -> bool:
        # a column absent from an evolved store's older partitions holds
        # no row the predicate can match
        return row["pid"] not in excl \
            and _column_meta(row, column) is not None \
            and _zone_admits((row.get("stats") or {}).get(column),
                             vals, lo, hi) \
            and (vals is None or _bloom_admits(row, column, vals))

    def scan(row: dict) -> int:
        cm = _column_meta(row, column)
        if cm.get("null_count"):
            # nullable column: page spans index the DENSE value
            # stream, so the selective-page path cannot produce
            # LOGICAL tombstone positions — read the full section
            # and map hits through the validity scatter instead
            # (SQL: NULL never matches a delete predicate, so only
            # non-null positions are candidates)
            enc = read_column_section(row, column, allow_nulls=True)
            arr = fmt.chunk_to_arrow(fmt.decode_chunk(enc), cm["dtype"])
            local_base = np.nonzero(enc.validity)[0].astype(np.int64)
        else:
            got = _read_admitted_pages(row, cm, vals, lo, hi)
            if got is None:
                return None
            arr, local_base = got
        if vals is not None:
            hit = pc.is_in(arr, value_set=pa.array(vals, arr.type))
        else:
            hit = pa.array(np.ones(len(arr), dtype=bool))
            if lo is not None:
                hit = pc.and_(hit, pc.greater_equal(
                    arr, pa.scalar(lo, arr.type)))
            if hi is not None:
                hit = pc.and_(hit, pc.less_equal(
                    arr, pa.scalar(hi, arr.type)))
        hit = np.asarray(hit.to_numpy(zero_copy_only=False), dtype=bool)
        return _merge_tombstone(mdir, row, local_base[hit])

    counts = list(_admitted_results(rows, admits, scan))
    return {"partitions": len(counts), "rows_deleted": sum(counts)}


def upsert_docs(out_dir: str, new_rows: pa.Table,
                cfg: EncodeConfig | None = None,
                run_id: str | None = None,
                concurrency: int | None = None) -> dict:
    """Upsert = append-then-shadow, composed from the store's two
    mutation primitives: (1) ``new_rows`` (TOKENS_SCHEMA) land as new
    partitions via the normal resume-safe encode path (staged to a
    deterministic parquet whose name is a content hash, so a re-run
    re-uses the committed partitions instead of duplicating them), then
    (2) ``delete_docs`` tombstones the upserted doc_ids everywhere EXCEPT
    the new partitions. Idempotent: re-running the same upsert after a
    crash at any point converges to the same store. One manifest load
    plans the append and the shadow delete: its main view answers, with
    ``cfg=None``, whether new partitions get a Bloom sidecar (they do
    when any partition of the main view has one) and is the row set
    step (2) prunes (the new partitions it lacks are excluded anyway); a
    ``cfg.out_dir`` other than ``out_dir`` costs a second load. Input
    that stages to one fragment encodes in the driver (Ray would run it
    as a single task), retried up to 3 times on an ``OSError`` like the
    Ray stage's task retries; larger input runs encode_job's Ray stage.
    Step (2) runs in the driver and builds no Dataset, so a one-fragment
    upsert makes no Ray Data call. Between steps (1)
    and (2) a concurrent reader can observe both versions of an updated
    row — the standard anomaly of multi-step commits without a
    transaction log; re-run-to-completion resolves it, and single-writer
    discipline (as for compaction/delete) avoids write races."""
    import hashlib
    if run_id is None:
        h = hashlib.sha1()
        for c in ("doc_id", "n_tok"):
            for buf in new_rows.column(c).combine_chunks().buffers():
                if buf is not None:
                    h.update(buf)
        flat = new_rows.column("tokens").combine_chunks().flatten()
        for buf in flat.buffers():
            if buf is not None:
                h.update(buf)
        run_id = h.hexdigest()[:12]
    ingest_dir = os.path.join(out_dir, "ingest")
    os.makedirs(ingest_dir, exist_ok=True)
    staged = os.path.join(ingest_dir, f"upsert-{run_id}.parquet")
    if not os.path.exists(staged):
        tmp = staged + f".tmp{os.getpid()}"
        pq.write_table(new_rows.cast(TOKENS_SCHEMA), tmp)
        os.replace(tmp, staged)
    frags = plan_fragments(staged)
    plan_dir = cfg.out_dir if cfg else out_dir
    live = _resume_plan(plan_dir, frags)
    # what load_manifest(out_dir) returns, without loading it again
    main = _main_branch_view(out_dir, live) if plan_dir == out_dir else None
    if cfg is None:
        has_bloom = any(r.get("bloom") for r in main)
        cfg = EncodeConfig(out_dir=out_dir,
                           bloom_bits_per_key=10 if has_bloom else 0)
    _stamp_schema_version(cfg)
    if len(frags) <= 1:  # Ray would run it as one task: skip the job
        for attempt in range(4):
            # the same bound as _encode_planned's max_retries; the commit
            # is idempotent, so a retry overwrites its own partial output
            try:
                pids = encode_fragment_batch(pa.Table.from_pylist(frags),
                                             cfg).column("pid").to_pylist()
                break
            except OSError:
                if attempt == 3:
                    raise
    else:
        pids = _encode_planned(frags, cfg, True, concurrency) \
            .to_pandas()["pid"]
    new_pids = set(pids)
    keys = [str(k) for k in new_rows.column("doc_id").to_pylist()]
    deleted = _delete_planned(
        out_dir, load_manifest(out_dir) if main is None else main,
        "doc_id", keys, exclude_pids=new_pids)
    return {"run_id": run_id, "new_partitions": len(new_pids),
            "rows_upserted": int(new_rows.num_rows),
            "rows_shadowed": deleted["rows_deleted"]}


def merge_docs(out_dir: str, source: pa.Table,
               when_matched: str = "update",
               when_not_matched: str = "insert",
               cfg: EncodeConfig | None = None,
               concurrency: int | None = None) -> dict:
    """``MERGE INTO store USING source ON doc_id`` composed from the
    store's mutation primitives. A source row is *matched* when its
    doc_id is live in the store (decided by lookup_docs' index-grade
    admission: zone maps -> Bloom -> admitted doc_id pages and tombstones
    only — never a scan, and no n_tok or token read — run in the driver,
    _live_doc_ids).

    - ``when_matched="update"``  -> matched rows get their new version
      (append-then-shadow, like upsert)
    - ``when_matched="delete"``  -> matched doc_ids are tombstoned
    - ``when_matched="ignore"``  -> matched source rows are dropped
    - ``when_not_matched="insert" | "ignore"`` for the rest

    ``update``/``insert`` arms share ONE append (one encode pass, one
    shadow delete excluding the new pids), so
    (update, insert) == upsert_docs exactly. The source delta is
    driver-resident by assumption — MERGE sources are incremental
    batches, orders of magnitude smaller than the store; the store side
    never materializes. The lookup, the delete arm and an append that
    stages to one fragment build no Ray Dataset. Idempotent for the same
    (store, source) pair: the append stage is content-hash keyed and
    re-deletes are no-ops. Single-writer discipline as for
    compaction/delete/upsert."""
    if when_matched not in ("update", "delete", "ignore"):
        raise ValueError(f"when_matched={when_matched!r}")
    if when_not_matched not in ("insert", "ignore"):
        raise ValueError(f"when_not_matched={when_not_matched!r}")
    keys = [str(k) for k in source.column("doc_id").to_pylist()]
    matched = _live_doc_ids(out_dir, keys)
    is_m = pa.array([k in matched for k in keys])
    m_rows = source.filter(is_m)
    u_rows = source.filter(pc.invert(is_m))

    to_append = []
    if when_matched == "update" and m_rows.num_rows:
        to_append.append(m_rows)
    if when_not_matched == "insert" and u_rows.num_rows:
        to_append.append(u_rows)
    stats = {"matched": int(m_rows.num_rows),
             "not_matched": int(u_rows.num_rows),
             "inserted": 0, "updated": 0, "deleted": 0}
    if to_append:
        app = pa.concat_tables(to_append)
        res = upsert_docs(out_dir, app, cfg=cfg, concurrency=concurrency)
        stats["inserted"] = int(u_rows.num_rows) \
            if when_not_matched == "insert" else 0
        stats["updated"] = int(m_rows.num_rows) \
            if when_matched == "update" else 0
        stats["run_id"] = res["run_id"]
    if when_matched == "delete" and m_rows.num_rows:
        dkeys = [str(k) for k in m_rows.column("doc_id").to_pylist()]
        d = delete_docs(out_dir, dkeys, concurrency=concurrency)
        stats["deleted"] = int(d["rows_deleted"])
    return stats


def range_scan_docs(out_dir: str, lo: str, hi: str,
                    concurrency: int | None = None):
    """Index range scan: all (doc_id, n_tok) rows with lo <= doc_id <= hi
    (lexicographic — the store's key order), pruned at partition level in
    the DRIVER by manifest string stats (_admitted_results) and at page
    level in the scan by the truncated string zone maps; only admitted doc_id
    pages and the n_tok pages covering their matches are decoded (the
    range analogue of lookup_docs). The scan runs in the driver
    (``concurrency`` has no effect). Returns an executed
    MaterializedDataset in bounded blocks, which reads without starting a
    Ray Data executor (_admitted_scan)."""

    def admits(row: dict) -> bool:
        return _zone_admits((row.get("stats") or {}).get("doc_id"),
                            lo=lo, hi=hi)

    def scan(row: dict) -> pa.Table | None:
        got = _read_admitted_pages(row, _column_meta(row, "doc_id"),
                                   lo=lo, hi=hi)
        if got is None:
            return None
        ids, local_rows = got
        hit = pc.and_(pc.greater_equal(ids, lo),
                      pc.less_equal(ids, hi)) \
            .to_numpy(zero_copy_only=False)
        hit_rows = local_rows[hit]
        hit_idx = np.flatnonzero(hit)
        dr = row.get("deleted_rows")
        if dr:  # tombstoned rows are invisible to range scans
            alive = ~np.isin(hit_rows, np.asarray(dr, dtype=np.int64))
            hit_rows = hit_rows[alive]
            hit_idx = hit_idx[alive]
        if not hit_idx.size:
            return None
        # n_tok pages covering the hit rows only
        skel_n = read_column_skeleton(row, "n_tok")
        nrows = np.array([p.values_count for p in skel_n.pages],
                         dtype=np.int64)
        npe = np.cumsum(nrows)
        nps = npe - nrows
        pg = np.searchsorted(npe, hit_rows, side="right")
        keep_n = sorted({int(p) for p in pg})
        enc_n, _b2, _t2 = read_column_pages(row, "n_tok", keep_n)
        nvals = np.asarray(fmt.decode_chunk(enc_n), dtype=np.int64)
        kept_starts = nps[keep_n]
        kcum = np.concatenate(([0], np.cumsum(nrows[keep_n])))
        idx = np.searchsorted(kept_starts, hit_rows, side="right") - 1
        return pa.table({
            "doc_id": ids.take(pa.array(hit_idx)),
            "n_tok": pa.array(nvals[kcum[idx] + (hit_rows - kept_starts[idx])],
                              pa.int64())})

    return _admitted_scan(out_dir, admits, scan, _RANGE_SCHEMA)


def scan_column_pages(out_dir: str, column: str, page_pred,
                      concurrency: int | None = None):
    """Page-skipping scan of one column across all partitions: only pages
    whose (min, max) zone-map stats satisfy ``page_pred(lo, hi)`` are
    decoded (reference V1 "efficient row skipping", realized). With the
    default transport="zstd-page" framing the skip saves disk IO too:
    fully-pruned sections are never opened, partially-pruned sections
    fetch only the trailer frame + kept page frames (``read_column_pages``
    — the round-2 fix for the round-1 "zstd is not seekable" caveat).
    The emitted ``_bytes_read`` / ``_bytes_total`` columns account the
    actual vs full-section IO."""
    n = concurrency or _default_concurrency()
    ds = manifest_dataset(out_dir, n_blocks=n * 2)

    def scan(batch: pa.Table) -> pa.Table:
        outs = []
        kept_pages = 0
        total_pages = 0
        bytes_read = 0
        bytes_total = 0
        np_t = np.int64
        for row in manifest_table_to_rows(batch):
            cm = next(c for c in row["columns"] if c["column"] == column)
            if fmt.is_string(cm["dtype"]):
                raise ValueError(
                    "scan_column_pages supports numeric columns (string "
                    "columns carry no page value stats)")
            np_t = fmt.DTYPES[cm["dtype"]][2]
            stats = cm.get("page_stats")
            bytes_total += cm["length"]
            if stats is None:
                enc = read_column_section(row, column)
                bytes_read += cm["length"]
                total_pages += len(enc.pages)
                kept_pages += len(enc.pages)
            else:
                keep = [i for i, (lo, hi) in enumerate(stats)
                        if page_pred(lo, hi)]
                total_pages += len(stats)
                kept_pages += len(keep)
                if not keep:
                    continue  # pruned by zone stats alone: zero IO
                enc, br, _bt = read_column_pages(row, column, keep)
                bytes_read += br
            chunk = fmt.decode_chunk(enc)
            outs.append(np.asarray(chunk))
        vals = np.concatenate(outs) if outs else np.empty(0, dtype=np_t)
        return pa.table({
            column: pa.array(vals),
            "_pages_kept": pa.array(np.full(vals.size, kept_pages,
                                            dtype=np.int64)),
            "_pages_total": pa.array(np.full(vals.size, total_pages,
                                             dtype=np.int64)),
            "_bytes_read": pa.array(np.full(vals.size, bytes_read,
                                            dtype=np.int64)),
            "_bytes_total": pa.array(np.full(vals.size, bytes_total,
                                             dtype=np.int64)),
        })

    return ds.map_batches(scan, batch_size=1, batch_format="pyarrow",
                          num_cpus=1, **rayenv.remote_args())


def verify_job(out_dir: str, concurrency: int | None = None,
               task_cpus: int = 1):
    n = concurrency or _default_concurrency()
    ds = manifest_dataset(out_dir, n_blocks=n * 2)
    cap = _stage_cap(concurrency, task_cpus)
    return ds.map_batches(verify_partition_batch, batch_size=1,
                          batch_format="pyarrow", num_cpus=1,
                          concurrency=cap, **rayenv.remote_args())


#: invariant names fsck_store emits, in report order (pinned so the
#: contract oracle can enumerate them)
FSCK_CHECKS = ("file_missing", "file_in_store", "file_truncated",
               "page_counts", "tombstone_range", "bloom_sidecar",
               "section_crc", "replaces_dangling", "snapshot_dangling")


def fsck_store(out_dir: str, deep: bool = False,
               concurrency: int | None = None):
    """Distributed store integrity audit — the metadata/structure
    complement of :func:`verify_job` (which decodes every row). At
    100-TB scale a full decode-verify is an occasional job; fsck is the
    CONTINUOUS one, costing only manifest metadata + per-section trailer
    frames + sidecar reads, so it runs in O(partitions) small IOs:

    - ``file_missing`` / ``file_truncated``: partition file present and
      at least as long as every committed section/bloom extent.
    - ``file_in_store``: the row's partition file lies inside this store
      (a copied store whose rows still name the original's files would
      read, and on compaction delete, the original's data).
    - ``page_counts``: per column, the page layout's value counts (from
      the trailer frame ONLY — payload stays on disk) sum to the
      manifest's ``n_values``.
    - ``tombstone_range``: delete tombstones unique, inside
      ``[0, n_rows)``, and not covering the whole partition silently.
    - ``bloom_sidecar``: bloom extent readable + crc-valid.
    - ``section_crc`` (``deep=True`` only): every column section re-read
      and crc32-validated end-to-end (full-file IO — the fsck analogue
      of a deep scrub; without deep it reports ok=vacuous).
    - ``replaces_dangling`` / ``snapshot_dangling`` (driver-side, pure
      manifest graph): every pid named by a compaction ``replaces`` list
      or pinned by a live snapshot has a committed manifest row.
    - ``bucket_assignment`` (bucket-encoded stores only, rwcf.spj):
      lineage consistent with the committed bucketspec; ``deep=True``
      re-hashes the key column and proves every row lands in its
      partition's bucket (the storage-partitioned-join layout contract).

    Returns a Dataset of ``(pid, check, ok)`` rows — one row per
    partition per per-partition check, plus one ``<manifest>`` row per
    graph check. Roll up with ``group_by(check).aggregate`` for the
    violations-per-invariant report (`store_fsck` contract query)."""
    import ray.data as rd

    all_rows = load_manifest(out_dir, include_replaced=True)
    committed = {r["pid"] for r in all_rows}
    named = {p for r in all_rows for p in (r.get("replaces") or [])}
    # pids whose manifests gc legitimately deleted live on in the shadow
    # ledger — a replaces edge naming one is resolved, not dangling
    graph = [("replaces_dangling",
              named <= committed | _shadow_ledger(out_dir))]
    sdir = os.path.join(out_dir, "snapshots")
    pinned = _snapshot_pinned_pids(out_dir) if os.path.isdir(sdir) else set()
    graph.append(("snapshot_dangling", pinned <= committed))
    graph_tbl = pa.table({
        "pid": pa.array(["<manifest>"] * len(graph), pa.string()),
        "check": pa.array([c for c, _ in graph], pa.string()),
        "ok": pa.array([bool(v) for _, v in graph]),
    })

    from . import spj as _spj
    bspec = _spj.read_bucketspec(out_dir)

    n = concurrency or _default_concurrency()
    ds = manifest_dataset(out_dir, n_blocks=n * 2)

    def audit(batch: pa.Table) -> pa.Table:
        pids, checks, oks = [], [], []

        def emit(pid, check, ok):
            pids.append(pid)
            checks.append(check)
            oks.append(bool(ok))

        for row in manifest_table_to_rows(batch):
            pid = row["pid"]
            exists = os.path.exists(row["file"])
            emit(pid, "file_missing", exists)
            emit(pid, "file_in_store",
                 _store_relative(out_dir, row["file"]) is not None)
            extents = [c["offset"] + c["length"] for c in row["columns"]]
            extents += [b["offset"] + b["length"]
                        for b in (row.get("bloom") or {}).values()]
            size = os.path.getsize(row["file"]) if exists else -1
            emit(pid, "file_truncated", exists and size >= max(extents))
            ok_pages = exists
            if exists:
                try:
                    for cm in row["columns"]:
                        skel = read_column_skeleton(row, cm["column"])
                        got = sum(p.values_count for p in skel.pages)
                        if got != cm["n_values"]:
                            ok_pages = False
                except Exception:
                    ok_pages = False
            emit(pid, "page_counts", ok_pages)
            dr = np.asarray(row.get("deleted_rows") or [], dtype=np.int64)
            emit(pid, "tombstone_range",
                 dr.size == np.unique(dr).size
                 and (dr.size == 0 or (dr.min() >= 0
                                       and dr.max() < row["n_rows"]))
                 and dr.size <= row["n_rows"])
            ok_bloom = exists
            if exists:
                try:
                    for col in (row.get("bloom") or {}):
                        read_bloom(row, col)  # crc-validates
                except Exception:
                    ok_bloom = False
            emit(pid, "bloom_sidecar", ok_bloom)
            # sketch sidecars (rwcf.analytics HLL distinct, round 5):
            # for every sketched column, a live partition's sidecar must
            # exist and record the partition's CURRENT delete count —
            # a stale sidecar silently skews the metadata-only merge
            sk_root = os.path.join(out_dir, "sketches")
            if os.path.isdir(sk_root):
                ok_sk = True
                n_del = len(row.get("deleted_rows") or ())
                for colname in os.listdir(sk_root):
                    sp = os.path.join(sk_root, colname, f"{pid}.json")
                    if not os.path.exists(sp):
                        ok_sk = False
                        continue
                    try:
                        with open(sp) as f:
                            if json.load(f).get("n_deleted") != n_del:
                                ok_sk = False
                    except Exception:
                        ok_sk = False
                emit(pid, "sketch_fresh", ok_sk)
            ok_crc = exists
            if deep and exists:
                try:
                    for cm in row["columns"]:
                        read_column_section(row, cm["column"],
                                            allow_nulls=True)  # crc+frames
                except Exception:
                    ok_crc = False
            emit(pid, "section_crc", ok_crc)
            if bspec is not None:
                # bucket layout contract (rwcf.spj): every partition
                # carries consistent bucket lineage; deep mode re-hashes
                # the key column and proves each row lands in its bucket
                lin = row.get("lineage") or {}
                ok_b = (lin.get("bucket_key") == bspec["key"]
                        and lin.get("n_buckets") == bspec["n_buckets"]
                        and isinstance(lin.get("bucket"), int)
                        and 0 <= lin["bucket"] < bspec["n_buckets"])
                if ok_b and deep and exists:
                    try:
                        from .joins import hash_bucket
                        t = decode_partition(row, columns=[bspec["key"]])
                        got_b = hash_bucket(
                            np.asarray(t.column(bspec["key"])
                                       .combine_chunks()),
                            buckets=bspec["n_buckets"])
                        ok_b = bool((got_b == lin["bucket"]).all())
                    except Exception:
                        ok_b = False
                emit(pid, "bucket_assignment", ok_b)
        return pa.table({"pid": pa.array(pids, pa.string()),
                         "check": pa.array(checks, pa.string()),
                         "ok": pa.array(oks)})

    cap = _stage_cap(concurrency, 1)
    audited = ds.map_batches(audit, batch_size=1, batch_format="pyarrow",
                             num_cpus=1, concurrency=cap,
                             **rayenv.remote_args())
    return audited.union(rd.from_arrow(graph_tbl))


def _staging_dir(out_dir: str, staging_id: str) -> str:
    return os.path.join(out_dir, "staging", staging_id)


def stage_append(out_dir: str, input_paths,
                 cfg: EncodeConfig | None = None,
                 staging_id: str | None = None,
                 concurrency: int | None = None) -> dict:
    """Write-audit-publish, step 1 (the Iceberg WAP ingest pattern):
    encode ``input_paths`` into an INVISIBLE staging store under
    ``out_dir/staging/<id>/`` — a complete store of its own (parts +
    manifest), so every auditor works on it unchanged (deep
    :func:`fsck_store`, bit-exact :func:`verify_job`, any contract
    query via decode_job) while readers of the main store cannot
    observe a single staged byte (main readers only ever open
    ``out_dir/manifest``). After auditing, :func:`publish_staged`
    atomically promotes the batch or :func:`abort_staged` discards it.

    The staging id defaults to a hash of the input paths, and the
    staged encode runs with ``resume=True`` — re-running a crashed
    stage resumes its committed partitions instead of duplicating
    work. Encoding config mirrors the main store (bloom sidecars,
    live schema version) unless overridden."""
    import dataclasses
    import hashlib
    if staging_id is None:
        paths = [input_paths] if isinstance(input_paths, str) \
            else list(input_paths)
        staging_id = hashlib.sha1(
            "\n".join(sorted(str(p) for p in paths)).encode()) \
            .hexdigest()[:12]
    sdir = _staging_dir(out_dir, staging_id)
    if cfg is None:
        has_bloom = any(r.get("bloom") for r in load_manifest(out_dir))
        cfg = EncodeConfig(out_dir=sdir,
                           bloom_bits_per_key=10 if has_bloom else 0)
    else:
        cfg = dataclasses.replace(cfg, out_dir=sdir)
    if cfg.schema_version is None:
        from . import schema as _schema
        cfg.schema_version = _schema.current_version(out_dir)
    man = encode_job(input_paths, cfg, resume=True,
                     concurrency=concurrency).to_pandas()
    return {"staging_id": staging_id, "staging_dir": sdir,
            "partitions": int(len(man)),
            "n_rows": int(man["n_rows"].sum()) if len(man) else 0,
            "n_tokens": int(man["n_tokens"].sum()) if len(man) else 0}


def publish_staged(out_dir: str, staging_id: str,
                   branch: str | None = None) -> dict:
    """Write-audit-publish, step 3a: promote an audited staging batch
    into the main store. Per partition the commit protocol is the same
    as a plain encode — data file lands first (one same-filesystem
    rename), the manifest row (rewritten to the final file path) lands
    last as the atomic visibility flip — so a crash at ANY point
    re-runs to completion: staged manifest rows survive until the final
    sweep, already-promoted pids are skipped, a moved-but-uncommitted
    file is recommitted from its staged row. Staged pids that already
    exist in the main store count as published (the resume semantic —
    staging the same fragment twice cannot duplicate rows).

    ``branch=<name>`` publishes ONTO A BRANCH (Iceberg WAP-to-branch):
    the promoted rows carry a branch marker, so they are visible only to
    readers of that branch (``decode_job(snapshot=<name>)``) until
    :func:`merge_branch` fast-forwards main — main readers cannot observe
    a single byte of the batch before the merge's atomic ref flip."""
    import shutil
    if branch is not None:
        refs = _branch_refs(out_dir)
        if branch not in refs:
            raise FileNotFoundError(f"no branch named {branch!r}")
        if refs[branch].get("merged"):
            raise ValueError(
                f"branch {branch!r} is already merged; create a new "
                f"branch to stage further work")
    sdir = _staging_dir(out_dir, staging_id)
    rows = load_manifest(sdir)
    committed = {r["pid"] for r in
                 load_manifest(out_dir, include_replaced=True)}
    mdir = os.path.join(out_dir, "manifest")
    pdir = os.path.join(out_dir, "parts")
    os.makedirs(mdir, exist_ok=True)
    os.makedirs(pdir, exist_ok=True)
    published, skipped = 0, 0
    for row in rows:
        if row["pid"] in committed:
            skipped += 1
            continue
        dst = os.path.join(pdir, os.path.basename(row["file"]))
        if os.path.exists(row["file"]):
            os.replace(row["file"], dst)
        elif not os.path.exists(dst):
            raise FileNotFoundError(
                f"staged partition {row['pid']} has no data file at "
                f"{row['file']} or {dst}")
        row = dict(row, file=dst)
        if branch is not None:
            row["branch"] = branch
        commit_manifest_row(out_dir, row)  # visibility flip
        published += 1
    shutil.rmtree(sdir, ignore_errors=True)
    return {"staging_id": staging_id, "published": published,
            "skipped": skipped, "branch": branch}


def abort_staged(out_dir: str, staging_id: str) -> dict:
    """Write-audit-publish, step 3b: discard a staging batch that failed
    its audit. The main store never saw it; removal is the whole abort."""
    import shutil
    sdir = _staging_dir(out_dir, staging_id)
    existed = os.path.isdir(sdir)
    shutil.rmtree(sdir, ignore_errors=True)
    return {"staging_id": staging_id, "aborted": existed}
