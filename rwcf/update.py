"""Partial-column UPDATE: rewrite ONE column section per matched
partition, byte-copying every other section verbatim.

``UPDATE store SET col = value WHERE pred`` on a columnar paged store does
not need to touch the token payload at all: the target column re-encodes
through the codec selector, the untouched sections (including the
corpus-dominating ``tokens`` stream) copy as raw transported bytes —
their page layouts, transport frames and crcs are self-contained, so the
copy is IO-bound, never decode/encode-bound.  File-level lakehouse
formats (Iceberg/Delta) rewrite whole data files for an update; section
granularity is what the rwcf single-file-per-partition layout
(pipeline.encode_partition's ``page_1..page_n | footer | size`` sections,
extending the reference's column-file layout, src/encode.rs:8-40) buys.

Semantics and safety:

- Only row-aligned scalar columns update (``tokens``/``n_tok`` would
  desync the list layout; the bucket key of a bucket-encoded store would
  break the storage-partitioned-join contract — both raise).
- Partition pruning first: zone maps on the predicate column skip
  non-matching partitions without opening them; partitions with matches
  commit a NEW partition file + manifest row carrying ``replaces`` (the
  same single atomic os.replace visibility flip as compaction), so a
  crash at any point leaves the store readable and the update
  exactly-once.  Untouched partitions are not rewritten.
- Delete tombstones carry over untouched (they are positional; the
  rewrite preserves row positions exactly).  Snapshots taken before the
  update keep time-traveling to the old rows; CDC between snapshots
  classifies the rows as updates.
- Deterministic + idempotent: the new pid hashes (old pid, set_col,
  predicate, value), so re-running a crashed update skips committed
  partitions and converges.
"""

from __future__ import annotations

import json
import os
import time
import zlib

import numpy as np
import pyarrow as pa

from . import format as fmt
from . import rayenv, selector
from .pipeline import (EncodeConfig, _compress_frames, _sliced_blocks,
                       _stage_cap, _default_concurrency, _zone_admits,
                       decode_partition, commit_manifest_row, load_manifest,
                       manifest_rows_to_table, manifest_table_to_rows,
                       read_manifest_row, zone_map)


def _pred_mask(vals: pa.Array, eq=None, between=None, isin=None,
               isnull=None):
    import pyarrow.compute as pc
    if isnull is not None:
        return pc.is_null(vals) if isnull else pc.is_valid(vals)
    if eq is not None:
        return pc.equal(vals, eq)
    if between is not None:
        lo, hi = between
        return pc.and_(pc.greater_equal(vals, lo), pc.less_equal(vals, hi))
    if isin is not None:
        return pc.is_in(vals, value_set=pa.array(isin, vals.type))
    raise ValueError("one of eq / between / isin / isnull required")


def _zone_probe(eq=None, between=None, isin=None, isnull=None) -> dict:
    """pipeline._zone_admits keywords of the predicate _pred_mask
    evaluates (the same precedence)."""
    if isnull is not None:
        return {"isnull": isnull}
    if eq is not None:
        return {"vals": [eq]}
    if between is not None:
        return {"lo": between[0], "hi": between[1]}
    if isin is not None:
        return {"vals": sorted(set(isin))}
    return {}


def update_where(out_dir: str, set_col: str, set_value,
                 pred_col: str, eq=None, between=None, isin=None,
                 isnull=None, cfg: EncodeConfig | None = None,
                 concurrency: int | None = None) -> dict:
    """UPDATE ``set_col`` = ``set_value`` WHERE ``pred_col`` matches.

    ``set_value`` is a constant, or a callable ``fn(old: pa.Array,
    mask: np.ndarray) -> pa.Array`` returning the full new column (only
    masked positions may differ).  Returns a summary dict
    (partitions_scanned / rewritten / rows_matched / bytes_copied /
    bytes_reencoded)."""
    import ray.data as rd

    if set_col in ("tokens", "n_tok"):
        raise ValueError(f"cannot update {set_col!r}: token list layout "
                         "is position-dependent (delete + re-append instead)")
    bspec_path = os.path.join(out_dir, "bucketspec.json")
    if os.path.exists(bspec_path):
        with open(bspec_path) as f:
            if json.load(f)["key"] == set_col:
                raise ValueError(f"cannot update bucket key {set_col!r} of "
                                 "a bucket-encoded store (would break the "
                                 "storage-partitioned-join layout)")
    if cfg is None:
        cfg = EncodeConfig(out_dir=out_dir)

    # schema-evolution support: resolve LOGICAL names to each
    # partition's physical section names (renames are transparent; a
    # column added after a partition was written has no section there —
    # compaction's upgrade-on-rewrite materializes it first)
    from . import schema as _schema
    sver = _schema.current_version(out_dir)
    maps = None
    if sver:
        maps, _ = _schema.resolution(out_dir, [set_col, pred_col])

    def phys(row, name):
        if not maps:
            return name
        v = int(row.get("schema_version") or 0)
        m = maps[v] if v in maps else maps[max(maps)]
        p = m[name]
        if p is None:
            raise ValueError(
                f"column {name!r} has no physical section in partition "
                f"{row['pid']} (added after it was written) — run "
                "compact_partitions to materialize it, then update")
        return p

    rows = load_manifest(out_dir)
    probe = _zone_probe(eq, between, isin, isnull)
    admitted = [r for r in rows
                if any(c["column"] == phys(r, set_col)
                       for c in r["columns"])
                and _zone_admits(
                    (r.get("stats") or {}).get(phys(r, pred_col)), **probe)]
    # deterministic update tag -> idempotent resume
    tag = zlib.crc32(json.dumps(
        [set_col, pred_col, repr(eq), repr(between), repr(isin),
         repr(isnull),
         repr(set_value) if not callable(set_value)
         else getattr(set_value, "__name__", "fn")],
        sort_keys=False).encode()) & 0xFFFFFFFF
    utag = f"{tag:08x}"

    def rewrite(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        out = []
        for row in manifest_table_to_rows(batch):
            p_set, p_pred = phys(row, set_col), phys(row, pred_col)
            raw = dict(row)
            raw.pop("deleted_rows", None)  # positions must stay aligned
            dec = decode_partition(raw, columns=[p_pred, p_set])
            mask_arr = _pred_mask(dec.column(p_pred).combine_chunks(),
                                  eq, between, isin, isnull)
            # SQL predicate semantics: NULL comparisons are not matches
            mask_arr = pc.fill_null(mask_arr, False)
            mask = mask_arr.to_numpy(zero_copy_only=False)
            mask = np.asarray(mask, dtype=bool)
            # SQL UPDATE semantics: tombstoned (deleted) rows are not
            # live — they neither count as matches nor change value
            dr = row.get("deleted_rows")
            if dr:
                mask[np.asarray(dr, dtype=np.int64)] = False
            n_match = int(mask.sum())
            if n_match == 0:
                out.append({**row, "_matched": 0, "_rewrote": False})
                continue
            new_pid = f"{row['pid']}-u{utag}"
            mpath = os.path.join(cfg.manifest_dir, f"{new_pid}.json")
            if os.path.exists(mpath):  # resume: already committed
                r = read_manifest_row(mpath)
                r["_matched"] = n_match
                r["_rewrote"] = False
                out.append(r)
                continue
            old = dec.column(p_set).combine_chunks()
            if callable(set_value):
                new = set_value(old, mask)
                if isinstance(new, pa.ChunkedArray):
                    new = new.combine_chunks()
            else:
                # set_value=None is SET col = NULL (v2 validity footer)
                new = pc.if_else(pa.array(mask), pa.scalar(
                    set_value, old.type), old)
            if new.equals(old):  # null-exact structural equality
                # value-level idempotence: a re-run whose matched rows
                # already hold the target value rewrites nothing
                out.append({**row, "_matched": n_match,
                            "_rewrote": False})
                continue
            out.append(_rewrite_partition(row, p_set, new, new_pid,
                                          cfg, n_match))
        for r in out:
            r.setdefault("_matched", 0)
            r.setdefault("_rewrote", True)
        t = manifest_rows_to_table([{k: v for k, v in r.items()
                                     if k not in ("_matched", "_rewrote")}
                                    for r in out])
        t = t.append_column("_matched", pa.array(
            [r["_matched"] for r in out], pa.int64()))
        return t.append_column("_rewrote", pa.array(
            [bool(r["_rewrote"]) for r in out]))

    summary = {"partitions_scanned": len(rows),
               "partitions_admitted": len(admitted),
               "partitions_rewritten": 0, "rows_matched": 0}
    if admitted:
        n = _stage_cap(concurrency, 1)
        ds = _sliced_blocks(manifest_rows_to_table(admitted),
                            min(len(admitted), n * 2))
        res = ds.map_batches(rewrite, batch_size=1, batch_format="pyarrow",
                             num_cpus=1, concurrency=min(n, len(admitted)),
                             **rayenv.remote_args()).to_pandas()
        summary["rows_matched"] = int(res["_matched"].sum())
        summary["partitions_rewritten"] = int(res["_rewrote"].sum())
    return summary


def _chunk_of(vals: pa.Array, dtype_hint: str | None):
    """(selector chunk, dtype code, decoded bytes) for an arrow array."""
    import pyarrow.compute as pc
    if pa.types.is_string(vals.type) or pa.types.is_large_string(vals.type):
        la = vals.cast(pa.large_utf8())
        lens = pc.binary_length(la).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        buf = la.buffers()[2]
        off = la.buffers()[1]
        offs = np.frombuffer(off, dtype=np.int64)[
            la.offset: la.offset + len(la) + 1]
        payload = (np.frombuffer(buf, dtype=np.uint8)[offs[0]:offs[-1]]
                   if buf is not None else np.empty(0, np.uint8))
        return (lens, payload), "str", int(payload.size) + 8 * len(lens)
    dtype = dtype_hint or fmt.dtype_code_for_arrow(vals.type)
    arr = vals.to_numpy(zero_copy_only=False).astype(fmt.DTYPES[dtype][2])
    return arr, dtype, int(arr.nbytes)


def _encode_section(vals: pa.Array, dtype_hint: str | None,
                    transport, cfg: EncodeConfig):
    """Encode one column into (blob, col-meta fields, decoded bytes).
    Nullable input splits into dense values + a v2 validity footer
    (same scheme as pipeline.encode_partition)."""
    dense, validity = fmt.split_validity(vals)
    chunk, dtype, dec_b = _chunk_of(dense, dtype_hint)
    enc, choice = selector.encode_auto(chunk, dtype, cfg.page_target,
                                       cfg.codecs, transport)
    if validity is not None:
        enc.validity = validity
        dec_b += int(validity.size)
    blob = fmt.write_column_file(enc)
    raw_length = len(blob)
    frames = None
    if transport == "zstd-page":
        blob, frames = _compress_frames(blob, enc)
    elif transport:
        blob = pa.Codec(transport, compression_level=1).compress(
            blob, asbytes=True)
    meta = {"dtype": dtype, "codec": enc.codec, "n_values": enc.n_values,
            "length": len(blob), "raw_length": raw_length,
            "frames": frames, "transport": transport,
            "crc": zlib.crc32(blob), "estimate": choice.estimate,
            "select_ms": round(choice.select_ms, 3),
            "decoded_bytes": dec_b,
            "page_stats": fmt.page_value_stats(chunk, dtype, enc.pages)}
    # unconditional (0 when null-free): _rewrite_partition merges this
    # dict OVER the old column meta, so a stale null_count from a prior
    # nullable state must be overwritten, not inherited
    meta["null_count"] = (int(validity.size) - int(validity.sum())
                          if validity is not None else 0)
    return blob, meta, dec_b


def _rewrite_partition(row: dict, set_col: str, new_vals: pa.Array,
                       new_pid: str, cfg: EncodeConfig,
                       n_match: int) -> dict:
    """Build the successor partition: re-encode ONE column, byte-copy the
    rest, commit file-first manifest-row-last (single atomic visibility
    flip carrying ``replaces``)."""
    t0 = time.perf_counter()
    old_cm = next(c for c in row["columns"] if c["column"] == set_col)
    blob, new_meta, dec_b = _encode_section(
        new_vals, old_cm["dtype"] if old_cm["dtype"] != "str" else None,
        old_cm.get("transport"), cfg)

    sections: list[bytes] = []
    col_meta = []
    offset = 0
    bytes_copied = 0
    with open(row["file"], "rb") as f:
        for cm in row["columns"]:
            if cm["column"] == set_col:
                nm = dict(cm)
                nm.update(new_meta)
                nm["offset"] = offset
                sections.append(blob)
                offset += len(blob)
                col_meta.append(nm)
            else:
                f.seek(cm["offset"])
                sec = f.read(cm["length"])
                if cm.get("crc") is not None and \
                        zlib.crc32(sec) != cm["crc"]:
                    raise IOError(
                        f"checksum mismatch in {row['pid']}:{cm['column']}")
                nm = dict(cm)
                nm["offset"] = offset
                sections.append(sec)
                bytes_copied += len(sec)
                offset += len(sec)
                col_meta.append(nm)
        # bloom sidecars: copy untouched columns' bytes, rebuild set_col's
        blooms = {}
        bloom_bytes = 0
        boff = offset
        for name, bm in (row.get("bloom") or {}).items():
            if name == set_col:
                from . import bloom as _bloom
                # use the ORIGINAL bits_per_key (persisted since the
                # manifest gained the field); deriving it from the
                # power-of-two-rounded m_bits re-rounds upward on every
                # rebuild -> geometric sidecar growth (ADVICE r4)
                bits = bm.get("bits_per_key") or max(
                    1, bm["m_bits"] // max(bm["n_keys"], 1))
                bf = _bloom.build(new_vals, bits)
                rawb = bf["data"].tobytes()
                blooms[name] = {"offset": boff, "length": len(rawb),
                                "m_bits": bf["m_bits"], "k": bf["k"],
                                "n_keys": bf["n_keys"],
                                "bits_per_key": bf["bits_per_key"],
                                "crc": zlib.crc32(rawb)}
                sections.append(rawb)
            else:
                f.seek(bm["offset"])
                rawb = f.read(bm["length"])
                blooms[name] = dict(bm, offset=boff)
                sections.append(rawb)
            boff += len(rawb)
            bloom_bytes += len(rawb)

    stats = dict(row.get("stats") or {})
    stats[set_col] = zone_map(new_vals)
    lineage = {"update_of": row["pid"], "set_col": set_col,
               "rows_matched": n_match}
    new_row = _commit_successor(
        row, cfg, new_pid, sections, col_meta, blooms, bloom_bytes,
        offset, stats, lineage,
        row["decoded_bytes"] - old_cm["decoded_bytes"] + dec_b, t0)
    new_row["_matched"] = n_match
    new_row["_bytes_copied"] = bytes_copied
    return new_row


def _commit_successor(row: dict, cfg: EncodeConfig, new_pid: str,
                      sections, col_meta, blooms, bloom_bytes,
                      offset: int, stats: dict, lineage: dict,
                      decoded_bytes: int, t0: float) -> dict:
    """Write the successor partition file, carry tombstones as a sidecar,
    then commit the manifest row naming ``replaces=[old pid]`` — one
    atomic os.replace is the visibility flip (compaction semantics)."""
    os.makedirs(cfg.parts_dir, exist_ok=True)
    os.makedirs(cfg.manifest_dir, exist_ok=True)
    fpath = os.path.join(cfg.parts_dir, f"{new_pid}.rwcf")
    tmp = fpath + f".tmp{os.getpid()}"
    with open(tmp, "wb") as f:
        for s in sections:
            f.write(s)
    os.replace(tmp, fpath)

    old_lin = row.get("lineage") or {}
    # bucket lineage rides along so bucketed stores stay joinable
    lineage = dict(lineage)
    lineage.update({k: old_lin[k] for k in
                    ("bucket_key", "bucket", "n_buckets")
                    if k in old_lin})
    new_row = dict(row)
    new_row.pop("deleted_rows", None)  # tombstones travel as a sidecar
    new_row.update({
        "pid": new_pid, "file": fpath,
        "encoded_bytes": offset,
        "decoded_bytes": decoded_bytes,
        "columns": col_meta, "stats": stats, "lineage": lineage,
        "codec_by_column": {c["column"]: c["codec"] for c in col_meta},
        "encode_seconds": round(time.perf_counter() - t0, 4),
        "status": "committed",
        "replaces": [row["pid"]],
    })
    new_row.pop("bloom", None)
    new_row.pop("bloom_bytes", None)
    if blooms:
        new_row["bloom"] = blooms
        new_row["bloom_bytes"] = bloom_bytes
    # carried tombstones commit BEFORE the row: a sidecar for a pid with
    # no manifest row is inert, so any crash point leaves a valid store
    dr = row.get("deleted_rows")
    if dr:
        spath = os.path.join(cfg.manifest_dir, f"{new_pid}.del.json")
        stmp = spath + f".tmp{os.getpid()}"
        with open(stmp, "w") as f:
            json.dump({"pid": new_pid, "deleted_rows": list(dr)}, f)
        os.replace(stmp, spath)
    commit_manifest_row(cfg.out_dir, new_row)  # commit point
    return new_row


def _copy_sections(row: dict, f, skip: set[str]):
    """Byte-copy every column section except ``skip`` (crc-checked);
    returns (sections, col_meta, offset, bytes_copied, dec_dropped)."""
    sections, col_meta = [], []
    offset = 0
    copied = 0
    dec_dropped = 0
    for cm in row["columns"]:
        if cm["column"] in skip:
            dec_dropped += cm.get("decoded_bytes") or 0
            continue
        f.seek(cm["offset"])
        sec = f.read(cm["length"])
        if cm.get("crc") is not None and zlib.crc32(sec) != cm["crc"]:
            raise IOError(
                f"checksum mismatch in {row['pid']}:{cm['column']}")
        nm = dict(cm)
        nm["offset"] = offset
        sections.append(sec)
        col_meta.append(nm)
        copied += len(sec)
        offset += len(sec)
    return sections, col_meta, offset, copied, dec_dropped


def _copy_blooms(row: dict, f, offset: int, skip: set[str]):
    blooms = {}
    bloom_bytes = 0
    sections = []
    boff = offset
    for name, bm in (row.get("bloom") or {}).items():
        if name in skip:
            continue
        f.seek(bm["offset"])
        rawb = f.read(bm["length"])
        blooms[name] = dict(bm, offset=boff)
        sections.append(rawb)
        boff += len(rawb)
        bloom_bytes += len(rawb)
    return sections, blooms, bloom_bytes, boff


def derive_column(out_dir: str, new_col: str, fn,
                  input_cols: list[str],
                  cfg: EncodeConfig | None = None,
                  concurrency: int | None = None) -> dict:
    """Materialize a COMPUTED column (``ALTER TABLE ADD COLUMN AS expr``):
    per partition, decode only ``input_cols``, evaluate ``fn(tbl) ->
    pa.Array`` (aligned to raw row positions, tombstones included), append
    the encoded section + byte-copy everything else — the heavy token
    payload never decodes.  Atomic replaces-commit per partition,
    deterministic pids (idempotent resume).  File-level formats must
    rewrite whole files to physically add a column; the paged single-file
    layout makes it one section append."""
    import ray.data as rd

    if cfg is None:
        cfg = EncodeConfig(out_dir=out_dir)
    from . import schema as _schema
    if _schema.current_version(out_dir):
        # a physical section invisible to the field-id log would never
        # surface in schema.scan — register-then-materialize is round-5
        # work; refuse loudly instead of writing unreachable bytes
        raise ValueError(
            "derive_column on a schema-evolved store is not supported "
            "yet: schema.add_column(default) + compact_partitions "
            "materializes a new column there")
    rows = load_manifest(out_dir)
    for r in rows:
        if any(c["column"] == new_col for c in r["columns"]):
            raise ValueError(f"column {new_col!r} already exists "
                             f"in partition {r['pid']}")
    tag = zlib.crc32(("derive|" + new_col + "|"
                      + getattr(fn, "__name__", "fn")
                      + "|" + ",".join(input_cols)).encode()) & 0xFFFFFFFF
    dtag = f"{tag:08x}"

    def add_one(batch: pa.Table) -> pa.Table:
        out = []
        for row in manifest_table_to_rows(batch):
            new_pid = f"{row['pid']}-d{dtag}"
            mpath = os.path.join(cfg.manifest_dir, f"{new_pid}.json")
            if os.path.exists(mpath):  # resume
                out.append(read_manifest_row(mpath))
                continue
            raw = dict(row)
            raw.pop("deleted_rows", None)  # raw positions, full length
            dec = decode_partition(raw, columns=list(input_cols))
            vals = fn(dec)
            if len(vals) != row["n_rows"]:
                raise ValueError(
                    f"derived column length {len(vals)} != n_rows "
                    f"{row['n_rows']} in {row['pid']}")
            t0 = time.perf_counter()
            transport = row["columns"][0].get("transport")
            blob, meta, dec_b = _encode_section(vals, None, transport, cfg)
            with open(row["file"], "rb") as f:
                sections, col_meta, offset, copied, _ = _copy_sections(
                    row, f, skip=set())
                nm = {"column": new_col, "offset": offset, **meta}
                sections.append(blob)
                col_meta.append(nm)
                offset += len(blob)
                bsecs, blooms, bloom_bytes, _ = _copy_blooms(
                    row, f, offset, skip=set())
                sections.extend(bsecs)
            stats = dict(row.get("stats") or {})
            stats[new_col] = zone_map(vals)
            lineage = {"derive_of": row["pid"], "new_col": new_col}
            # encoded_bytes stays data-only (blooms account separately),
            # matching encode_partition's accounting
            out.append(_commit_successor(
                row, cfg, new_pid, sections, col_meta, blooms,
                bloom_bytes, offset, stats, lineage,
                row["decoded_bytes"] + dec_b, t0))
        return manifest_rows_to_table(out)

    n = _stage_cap(concurrency, 1)
    ds = _sliced_blocks(manifest_rows_to_table(rows),
                        min(len(rows) or 1, n * 2))
    res = ds.map_batches(add_one, batch_size=1, batch_format="pyarrow",
                         num_cpus=1, concurrency=min(n, max(len(rows), 1)),
                         **rayenv.remote_args()).to_pandas()
    return {"partitions": len(res), "column": new_col}


def drop_column(out_dir: str, col: str,
                cfg: EncodeConfig | None = None,
                concurrency: int | None = None) -> dict:
    """PHYSICALLY drop a column: byte-copy every other section into a
    successor partition (IO-bound; nothing decodes or re-encodes) — the
    eager complement of rwcf.schema's lazy metadata drop, reclaiming the
    bytes immediately instead of at next compaction.  Core columns
    (doc_id / tokens / n_tok) and bucket keys are protected."""
    import ray.data as rd

    if col in ("doc_id", "tokens", "n_tok"):
        raise ValueError(f"cannot drop core column {col!r}")
    bspec_path = os.path.join(out_dir, "bucketspec.json")
    if os.path.exists(bspec_path):
        with open(bspec_path) as f:
            if json.load(f)["key"] == col:
                raise ValueError(f"cannot drop bucket key {col!r}")
    if cfg is None:
        cfg = EncodeConfig(out_dir=out_dir)
    # schema-evolved stores: resolve the LOGICAL name to each
    # partition's physical section (renames transparent), and retire
    # the field from the schema log so scans stop asking for it
    from . import schema as _schema
    maps = None
    if _schema.current_version(out_dir):
        maps, _ = _schema.resolution(out_dir, [col])

    def phys(row):
        if not maps:
            return col
        v = int(row.get("schema_version") or 0)
        m = maps[v] if v in maps else maps[max(maps)]
        return m[col]  # None = column did not exist yet at v

    rows = load_manifest(out_dir)
    affected = [r for r in rows
                if phys(r) is not None
                and any(c["column"] == phys(r) for c in r["columns"])]
    tag = zlib.crc32(f"drop|{col}".encode()) & 0xFFFFFFFF
    xtag = f"{tag:08x}"

    def drop_one(batch: pa.Table) -> pa.Table:
        out = []
        for row in manifest_table_to_rows(batch):
            pcol = phys(row)
            new_pid = f"{row['pid']}-x{xtag}"
            mpath = os.path.join(cfg.manifest_dir, f"{new_pid}.json")
            if os.path.exists(mpath):  # resume
                out.append(read_manifest_row(mpath))
                continue
            t0 = time.perf_counter()
            with open(row["file"], "rb") as f:
                sections, col_meta, offset, copied, dec_drop = \
                    _copy_sections(row, f, skip={pcol})
                bsecs, blooms, bloom_bytes, end = _copy_blooms(
                    row, f, offset, skip={pcol})
                sections.extend(bsecs)
            stats = dict(row.get("stats") or {})
            stats.pop(pcol, None)
            lineage = {"drop_of": row["pid"], "dropped_col": pcol}
            out.append(_commit_successor(
                row, cfg, new_pid, sections, col_meta, blooms,
                bloom_bytes, offset, stats, lineage,
                row["decoded_bytes"] - dec_drop, t0))
        return manifest_rows_to_table(out)

    if affected:
        n = _stage_cap(concurrency, 1)
        ds = _sliced_blocks(manifest_rows_to_table(affected),
                            min(len(affected), n * 2))
        ds.map_batches(drop_one, batch_size=1, batch_format="pyarrow",
                       num_cpus=1, concurrency=min(n, len(affected)),
                       **rayenv.remote_args()).materialize()
    if maps:
        # retire the field from the log too, so schema.scan stops
        # resolving it (physical drop + metadata drop stay consistent)
        try:
            _schema.drop_column(out_dir, col)
        except (KeyError, ValueError):
            pass  # already dropped from the log
    return {"partitions_rewritten": len(affected), "column": col}
