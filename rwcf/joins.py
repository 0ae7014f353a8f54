"""Distributed joins for Ray Datasets.

Ray Data (2.49) has no general join operator; per the composition rule this
one is built from what it does have: both sides are tagged and bucketed by a
deterministic hash of their join key, unioned, shuffled ONCE with
``groupby("bucket")``, and merged vectorized (pandas) inside each group.
Only the joined rows leave the group — neither input is ever collected to
the driver (shuffle mode).

Join modes (round 3): ``how`` in {"inner", "left", "right", "outer",
"semi", "anti"} — semi
keeps left rows whose key appears on the right (no right columns), anti
keeps those whose key does not; both tag the right side with its KEY ONLY,
so no right payload ever shuffles. ``broadcast=True`` skips the shuffle
entirely: the right side is collected once, ``ray.put`` once, and each left
batch merges locally — the dimension-table lookup pattern (doc -> source
metadata), correct for every ``how`` since all rows of a key are in every
task's copy. The right side must fit in worker memory; this is the caller's
assertion, as with every broadcast join.

Partitioning assumptions (documented per the custom-operator rule):

- the number of buckets bounds join parallelism and must scale with the
  smaller input (default 32 suits the sandbox; at cluster scale pass
  ``buckets ~= total_cores``);
- per-bucket data (both sides) must fit one worker's heap — hot join keys
  are not salted here (a skewed build side would need the salted-fanout
  pattern of ``grouped.encode_grouped_by_source``);
- the hash (``pandas.util.hash_array``) is process-stable, so resumed jobs
  rebuild identical buckets.

Reference scope note: the reference engine has no joins at all (SURVEY.md
§2.2); this is the round-2 extension named in SURVEY.md §7 (d) — joining
decoded partitions with external tables.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from . import rayenv

_JK = "__rwcf_jk"
_BUCKET = "__rwcf_bucket"
_SIDE = "__rwcf_side"
_LIDX = "__rwcf_lidx"
_RIDX = "__rwcf_ridx"


def hash_bucket(*cols, buckets: int) -> np.ndarray:
    """Deterministic (cross-process) bucket ids from one or more columns of
    int or string keys — THE shared routing hash for every bucketed
    shuffle in rwcf (joins, dedup, windows); keep a single implementation
    so resume/determinism guarantees can't silently diverge."""
    h = np.zeros(len(cols[0]), dtype=np.uint64)
    for c in cols:
        vals = np.asarray(c)
        if vals.dtype.kind in ("i", "u"):
            hv = pd.util.hash_array(vals.astype(np.int64, copy=False))
        else:
            hv = pd.util.hash_array(vals.astype(object))
        h = h * np.uint64(1099511628211) + hv
    return (h % np.uint64(buckets)).astype(np.int32)


def known_schema(ds) -> pa.Schema | None:
    """Arrow schema of ``ds`` when Ray knows it without executing anything
    (a source, a materialized or a declared Dataset), else None."""
    base = getattr(ds.schema(fetch_if_missing=False), "base_schema", None)
    return base if isinstance(base, pa.Schema) else None


def declare_schema(ds, schema: pa.Schema | None):
    """Record ``schema`` as the output schema of ``ds`` without executing
    it: ``ds.schema()`` and ``to_arrow_refs()`` then run no ``limit(1)``
    copy of the plan, and a result with no rows still has its columns.
    The one use of Ray's private ``ExecutionPlan.cache_schema`` (present
    in Ray 2.49). ``None`` declares nothing."""
    if schema is not None:
        ds._plan.cache_schema(schema)
    return ds


def output_schema(ds, keep=None, extra=()) -> pa.Schema | None:
    """The fields ``keep`` (all when None) of the Arrow schema of ``ds``
    followed by the ``extra`` (name, type) pairs: the output schema of an
    operator whose output carries input columns through. None when Ray
    does not know the schema of ``ds`` without executing it."""
    src = known_schema(ds)
    if src is None:
        return None
    return pa.schema([src.field(c) for c in keep or src.names]
                     + list(extra))


def int64_fields(*names) -> list:
    """(name, int64) output fields."""
    return [(n, pa.int64()) for n in names]


def exchange(ds, fn, *, buckets: int, schema: pa.Schema | None, keys=None):
    """The bucketed shuffle every grouped operator in rwcf runs: rows move
    to ``buckets`` groups by the int32 column ``_b``, and ``fn`` maps each
    group's pyarrow Table to its output Table. With ``keys`` (column
    names) ``_b = hash_bucket(*keys)`` is appended here; without, the
    caller's own map stage has added ``_b``.

    The exchange is Ray's sort-based groupby after a ``repartition`` to
    ``buckets`` blocks (Ray's sort fans out to the number of INPUT
    blocks, so hundreds of tiny upstream blocks would spawn hundreds of
    mostly-empty reduce tasks — measured 56 s of sort for a 12k-row
    join before the cap).

    ``schema`` is the output schema of ``fn`` (None where it follows
    input types Ray does not know without executing the input). Each
    group's output is cast to it, a group with no output rows becomes
    its empty table, and the returned Dataset declares it. Blocks that
    receive no group come back from Ray with no columns; :func:`collect`
    gives such a result its columns back."""
    if keys is not None:
        def add_bucket(t: pa.Table) -> pa.Table:
            b = hash_bucket(*(t.column(k).to_numpy() for k in keys),
                            buckets=buckets)
            return t.append_column("_b", pa.array(b))
        ds = ds.map_batches(add_bucket, batch_format="pyarrow",
                            **rayenv.remote_args())

    def typed(g: pa.Table) -> pa.Table:
        out = fn(g)
        if schema is None or out.schema.equals(schema, check_metadata=True):
            return out
        return out.cast(schema) if out.num_rows else schema.empty_table()

    out = ds.repartition(buckets).groupby("_b").map_groups(
        typed, batch_format="pyarrow", **rayenv.remote_args())
    return declare_schema(out, schema)


def collect(ds, schema: pa.Schema) -> pd.DataFrame:
    """``ds.to_pandas()``, except that a result with no rows has the
    columns and types of ``schema`` (Ray's frame has no columns when
    every block is empty)."""
    df = ds.to_pandas()
    return df if len(df) else schema.empty_table().to_pandas()


def _align(t: pa.Table, schema: pa.Schema) -> pa.Table:
    """Project ``t`` onto ``schema`` (missing columns become nulls) so both
    tagged sides union with one schema."""
    cols = []
    for f in schema:
        if f.name in t.column_names:
            cols.append(t.column(f.name).combine_chunks().cast(f.type))
        else:
            cols.append(pa.nulls(t.num_rows, f.type))
    return pa.Table.from_arrays(cols, schema=schema)


def _arrow_schema(ds) -> pa.Schema | None:
    """Arrow schema of a Dataset, tolerating pandas-block upstreams (e.g. a
    ``map_groups(batch_format="pandas")`` stage reports a PandasBlockSchema
    whose types are numpy dtypes). Returns None for a schema-less (fully
    empty) Dataset — callers must handle that case explicitly."""
    s = ds.schema()
    if s is None:
        return None
    base = getattr(s, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base
    fields = []
    for name, t in zip(s.names, s.types):
        if isinstance(t, pa.DataType):
            fields.append(pa.field(name, t))
        else:
            try:
                fields.append(pa.field(name, pa.from_numpy_dtype(t)))
            except (TypeError, pa.ArrowNotImplementedError):
                fields.append(pa.field(name, pa.string()))  # object dtype
    return pa.schema(fields)


def _from_pandas_nullable(df: pd.DataFrame, schema: pa.Schema) -> pa.Table:
    """pandas -> Arrow honoring the target schema with NaN -> null (a left
    join's unmatched right int columns arrive as float NaN in pandas;
    ``Table.from_pandas(schema=...)`` would refuse the unsafe cast)."""
    arrays = [pa.Array.from_pandas(df[f.name], type=f.type) for f in schema]
    return pa.Table.from_arrays(arrays, schema=schema)


_BLOOM_K = 4          # hash functions; fp ~ (1 - e^(-kn/m))^k


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — full-avalanche 64-bit mix (public domain
    constants, Steele et al.)."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _bloom_positions(keys: np.ndarray, m_bits: int) -> np.ndarray:
    """(n, k) bit positions via double hashing: pos_i = h1 + i*h2 mod m
    (Kirsch-Mitzenmacher). The base hash runs through splitmix64 twice to
    derive two decorrelated streams — pandas' raw int hash is too
    structured on sequential keys and measurably inflates the fp rate
    (~10x) when h2 is a plain multiple of h1."""
    if keys.dtype.kind in ("i", "u"):
        h = pd.util.hash_array(keys.astype(np.int64, copy=False))
    else:
        h = pd.util.hash_array(keys.astype(object))
    h1 = _splitmix64(h)
    h2 = _splitmix64(h1) | np.uint64(1)  # odd: k probes never collapse
    i = np.arange(_BLOOM_K, dtype=np.uint64)
    return ((h1[:, None] + i[None, :] * h2[:, None])
            % np.uint64(m_bits)).astype(np.int64)


def build_bloom(ds, key_col: str, m_bits: int = 1 << 20) -> np.ndarray:
    """Bloom filter (uint64 word array, ``m_bits`` total) of a Dataset's
    key column. Per-batch partials are BLOOM-sized (m_bits/8 bytes), not
    data-sized, and merge by bitwise OR on the driver — the collect moves
    ``blocks x m_bits/8`` bytes, never keys. Default 1 Mibit = 128 KiB:
    ~1.2% false positives at 100k distinct keys, k=4."""
    words = m_bits // 64

    def partial(t: pa.Table) -> pa.Table:
        kv = t.column(key_col).combine_chunks().to_numpy(
            zero_copy_only=False)
        pos = _bloom_positions(kv, m_bits).reshape(-1)
        arr = np.zeros(words, dtype=np.uint64)
        np.bitwise_or.at(arr, pos >> 6,
                         np.uint64(1) << (pos & 63).astype(np.uint64))
        return pa.table({"bloom": pa.array([arr.tobytes()],
                                           pa.large_binary())})

    out = np.zeros(words, dtype=np.uint64)
    for row in ds.map_batches(partial, batch_format="pyarrow",
                              **rayenv.remote_args()).iter_rows():
        out |= np.frombuffer(row["bloom"], dtype=np.uint64)
    return out


def bloom_member(keys: np.ndarray, bloom: np.ndarray,
                 m_bits: int) -> np.ndarray:
    """Vectorized membership mask (true = POSSIBLY present; false =
    definitely absent)."""
    pos = _bloom_positions(keys, m_bits)
    bits = (bloom[pos >> 6] >> (pos & 63).astype(np.uint64)) & np.uint64(1)
    return bits.all(axis=1)


def hash_join(left, right, on: str, right_on: str | None = None,
              buckets: int = 32, suffix: str = "_r", how: str = "inner",
              broadcast: bool = False, bloom_bits: int | None = None):
    """Distributed hash-join of two Ray Datasets on an equality key.

    ``how``: "inner" | "left" | "right" | "outer" | "semi" | "anti".
    Inner/left/right/outer output all left
    columns then right columns (the right key and any colliding name gets
    ``suffix``); semi/anti output left columns only and never shuffle right
    payloads. ``broadcast=True`` ships the right side to every task via one
    ``ray.put`` instead of shuffling — use when the right side is a small
    dimension table. Shuffle mode moves each side at most once through one
    ``groupby(bucket)`` all-to-all.

    ``bloom_bits`` (inner/semi/anti): build a Bloom filter of the right
    keys first and resolve left rows that definitely have no match BEFORE
    the shuffle. For inner/semi those rows are dropped, so the all-to-all
    moves only ~matching left rows (+ the fp rate); for anti they ARE the
    result's bulk and bypass the shuffle directly (union with the
    shuffled anti of the bloom-positive remainder — costs a second pass
    over the left side, cheaper than shuffling it). Exactness is
    untouched: false positives still route and the in-group merge is the
    real equality. A left join cannot use the filter (every left row must
    be emitted either way). Costs one extra pass over the right side's
    key column and a broadcast of ``bloom_bits/8`` bytes.
    """
    if how not in ("inner", "left", "right", "outer", "semi", "anti"):
        raise ValueError(f"unsupported how={how!r}")
    if broadcast and how in ("right", "outer"):
        # every task holds the whole right side, so each batch's merge
        # would re-emit the unmatched right rows — only the shuffle path
        # can emit them exactly once
        raise ValueError(f"broadcast=True cannot express how={how!r}")
    if bloom_bits is not None:
        if how in ("left", "right", "outer"):
            # these emit every row of the preserved side(s) regardless of
            # match, so there is nothing the filter could prune or bypass
            raise ValueError("bloom_bits requires how=inner/semi/anti")
        import ray
        bloom_ref = ray.put(build_bloom(
            right.select_columns([right_on or on]), right_on or on,
            m_bits=bloom_bits))
        _mb = bloom_bits

        def prefilter(keep_members: bool):
            def fn(t: pa.Table) -> pa.Table:
                kv = t.column(on).combine_chunks().to_numpy(
                    zero_copy_only=False)
                import ray as _r
                m = bloom_member(kv, _r.get(bloom_ref), _mb)
                return t.filter(pa.array(m if keep_members else ~m))
            return fn

        if how == "anti":
            # definite non-matches bypass the all-to-all entirely
            misses = left.map_batches(prefilter(False),
                                      batch_format="pyarrow",
                                      **rayenv.remote_args())
            hits = left.map_batches(prefilter(True),
                                    batch_format="pyarrow",
                                    **rayenv.remote_args())
            return misses.union(hash_join(
                hits, right, on, right_on=right_on, buckets=buckets,
                suffix=suffix, how="anti", broadcast=broadcast))
        left = left.map_batches(prefilter(True), batch_format="pyarrow",
                                **rayenv.remote_args())
    right_on = right_on or on
    lschema = _arrow_schema(left)
    rschema = _arrow_schema(right)
    if lschema is None or rschema is None:
        # a fully empty Dataset reports no schema at all, so the join's
        # output columns cannot be constructed — make the caller decide
        # (an inner join's RESULT would be empty anyway; callers with a
        # known schema should early-return their own typed empty)
        raise ValueError(
            "hash_join requires both inputs to have a schema; got an empty "
            "schema-less Dataset "
            f"(left={'?' if lschema is None else 'ok'}, "
            f"right={'?' if rschema is None else 'ok'})")
    lnames = list(lschema.names)
    key_only = how in ("semi", "anti")
    rnames = [right_on] if key_only else list(rschema.names)
    rmap = {}  # right original -> output name
    for name in rnames:
        rmap[name] = name + suffix if (name in lnames or name == _JK) else name

    key_type = lschema.field(on).type
    out_l = lnames
    out_r = [] if key_only else [rmap[n] for n in rnames]
    out_schema = pa.schema(
        [pa.field(n, lschema.field(n).type) for n in out_l]
        + [pa.field(rmap[n], rschema.field(n).type) for n in rnames
           if not key_only])

    if broadcast:
        return declare_schema(
            _broadcast_join(left, right, on, right_on, how, rmap, out_l,
                            out_r, out_schema, key_type, key_only),
            out_schema)

    fields = [pa.field(_JK, key_type), pa.field(_BUCKET, pa.int32()),
              pa.field(_SIDE, pa.int8())]
    fields += [pa.field(n, lschema.field(n).type) for n in lnames]
    fields += [pa.field(rmap[n], rschema.field(n).type) for n in rnames]
    schema = pa.schema(fields)

    def tag(side: int, key_col: str, rename: dict | None,
            keep: list | None):
        def fn(t: pa.Table) -> pa.Table:
            if keep is not None:
                t = t.select(keep)
            if rename:
                t = t.rename_columns([rename[n] for n in t.column_names])
            key = t.column(key_col).combine_chunks()
            kv = key.to_numpy(zero_copy_only=False)
            t = t.append_column(_JK, key.cast(key_type))
            t = t.append_column(_BUCKET,
                                pa.array(hash_bucket(kv, buckets=buckets)))
            t = t.append_column(_SIDE, pa.array(
                np.full(t.num_rows, side, dtype=np.int8)))
            return _align(t, schema)
        return fn

    lt = left.map_batches(tag(0, on, None, None), batch_format="pyarrow",
                          **rayenv.remote_args())
    rt = right.map_batches(
        tag(1, rmap[right_on], rmap, [right_on] if key_only else None),
        batch_format="pyarrow", **rayenv.remote_args())

    def merge(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        # split sides in Arrow BEFORE pandas conversion: the union's
        # null-filled cross-side columns would otherwise poison int dtypes
        # (pandas turns a null-bearing int64 column into float64)
        side = g.column(_SIDE)
        if key_only:
            # semi/anti never materialize pandas: one Arrow is_in on the
            # bucket-local key column does the membership filter zero-copy
            la = g.filter(pc.equal(side, 0)).select([_JK] + out_l)
            # drop_null: a NULL right key must not enter the membership
            # set — is_in treats a null value_set member as matching a
            # null probe, which would give NULL = NULL semi semantics
            # (SQL: null keys never match; pinned vs DuckDB in
            # tests/test_nulls.py)
            rkeys = g.filter(pc.equal(side, 1)).column(_JK) \
                .combine_chunks().unique().drop_null()
            # fill_null(False) pins the left side the same way: a null
            # left key is never a member (semi drops it, anti keeps it)
            memb = pc.fill_null(pc.is_in(la.column(_JK).combine_chunks(),
                                         value_set=rkeys), False)
            m = la.filter(memb if how == "semi" else pc.invert(memb))
            return _align(m.select(out_l), out_schema)
        # Arrow-native hash join on the bucket-local slice (Acero): no
        # pandas round-trip, unmatched rows null-fill int columns without
        # the float64/Int64 dtype dance, and null keys get SQL semantics
        # (never match, preserved-side rows still emitted) — exactly what
        # the DuckDB oracle computes
        l = g.filter(pc.equal(side, 0)).select([_JK] + out_l) \
            .combine_chunks()
        r = g.filter(pc.equal(side, 1)).select([_JK] + out_r) \
            .combine_chunks()
        jt = {"inner": "inner", "left": "left outer",
              "right": "right outer", "outer": "full outer"}[how]
        nest_l = [n for n in out_l
                  if pa.types.is_nested(l.schema.field(n).type)]
        nest_r = [n for n in out_r
                  if pa.types.is_nested(r.schema.field(n).type)]
        if nest_l or nest_r:
            # Acero rejects nested (list/struct) payload columns in a hash
            # join ("Data type list<...> is not supported in join non-key
            # field"): join SLIM sides carrying a row index instead, then
            # gather each nested column by that index — pc.take maps a
            # null index (unmatched outer row) to a null value, matching
            # the join's null-fill semantics exactly
            ls = l.drop_columns(nest_l).append_column(
                _LIDX, pa.array(np.arange(l.num_rows, dtype=np.int64)))
            rs = r.drop_columns(nest_r).append_column(
                _RIDX, pa.array(np.arange(r.num_rows, dtype=np.int64)))
            m = ls.join(rs, keys=_JK, join_type=jt)
            for n in nest_l:
                m = m.append_column(
                    n, pc.take(l.column(n).combine_chunks(),
                               m.column(_LIDX)))
            for n in nest_r:
                m = m.append_column(
                    n, pc.take(r.column(n).combine_chunks(),
                               m.column(_RIDX)))
        else:
            m = l.join(r, keys=_JK, join_type=jt)
        return _align(m.select(out_l + out_r), out_schema)

    # the tagged union groups by its own bucket column (user columns of
    # both sides ride along, so "_b" could collide): the exchange's
    # repartition cap, spelled out
    return declare_schema(
        lt.union(rt).repartition(buckets).groupby(_BUCKET).map_groups(
            merge, batch_format="pyarrow", **rayenv.remote_args()),
        out_schema)


def _broadcast_join(left, right, on, right_on, how, rmap, out_l, out_r,
                    out_schema, key_type, key_only):
    """Small-side broadcast: collect + ``ray.put`` the right side once;
    every left batch merges against the shared copy — no all-to-all. The
    object-store ref is fetched once per worker process (plasma caches
    locally), not per batch."""
    import ray

    if key_only:
        # dropna: pandas isin would match a null probe against a null
        # member — SQL null keys never match (pinned vs DuckDB in
        # tests/test_nulls.py); with no null in the set, isin(null) is
        # False, which is exactly semi-drop / anti-keep
        keys = right.select_columns([right_on]).to_pandas()[right_on] \
            .dropna().unique()
        ref = ray.put(keys)

        def fn(t: pa.Table) -> pa.Table:
            l = t.to_pandas()
            m = l[l[on].isin(ray.get(ref))] if how == "semi" \
                else l[~l[on].isin(ray.get(ref))]
            return _from_pandas_nullable(m[out_l], out_schema)
    else:
        rdf = right.to_pandas()
        rdf = rdf.rename(columns=rmap)
        # pandas merge MATCHES NaN join keys with each other (unlike
        # SQL); null-key right rows can never match anything, so drop
        # them from the broadcast copy
        rdf = rdf[rdf[rmap[right_on]].notna()]
        ref = ray.put(rdf)

        def fn(t: pa.Table) -> pa.Table:
            import pandas as pd
            l = t.to_pandas()
            nullk = l[on].isna()
            m = l[~nullk].merge(ray.get(ref), left_on=on,
                                right_on=rmap[right_on], how=how)
            if how == "left" and bool(nullk.any()):
                # null-key left rows are preserved, right side null-fills
                m = pd.concat([m, l[nullk]], ignore_index=True)
            return _from_pandas_nullable(m[out_l + out_r], out_schema)

    return left.map_batches(fn, batch_format="pyarrow",
                            **rayenv.remote_args())


_CHUNK = "__rwcf_chunk"


def range_join(left, right, left_val: str, right_lo: str, right_hi: str,
               chunk: float, buckets: int = 32, suffix: str = "_r"):
    """Distributed range (interval/band) join: every left row pairs with
    every right row whose interval contains it —
    ``right_lo <= left_val <= right_hi`` (bounds inclusive, SQL
    ``BETWEEN``). The classic "reading -> containing band", "price ->
    tolerance window" join; equality ``how`` variants don't apply.

    Composition (Ray Data has no range join): the value domain is chunked
    into width-``chunk`` bins. A left row belongs to exactly ONE bin
    (``floor(val/chunk)``); a right interval is REPLICATED to every bin it
    overlaps. Both sides route through one ``groupby`` all-to-all on a
    modulo of the bin id, and the in-group kernel pairs rows via a
    vectorized merge on the exact bin id followed by the band filter. A
    matching pair meets in exactly one bin — the left value's own — so the
    output needs no dedup pass.

    Partitioning assumptions (per the custom-operator rule):

    - ``chunk`` should approximate the TYPICAL interval width: the right
      side is amplified by ``~(hi-lo)/chunk + 1`` replicas per interval,
      and in-group candidate pairs are ``(left rows in bin) x (intervals
      overlapping bin)`` — with chunk ~ width both stay ~output-sized;
    - per-bucket candidates must fit one worker's heap; a pathological bin
      (every interval overlapping it) needs a coarser ``chunk`` or a
      pre-filter;
    - values and bounds must be numeric (cast timestamps to epoch first);
      null values/bounds never match (dropped before routing).
    """
    lschema = _arrow_schema(left)
    rschema = _arrow_schema(right)
    if lschema is None or rschema is None:
        raise ValueError("range_join requires both inputs to have a schema")
    lnames = list(lschema.names)
    rmap = {n: n + suffix if n in lnames else n for n in rschema.names}
    out_l = lnames
    out_r = [rmap[n] for n in rschema.names]
    out_schema = pa.schema(
        [pa.field(n, lschema.field(n).type) for n in out_l]
        + [pa.field(rmap[n], rschema.field(n).type) for n in rschema.names])

    fields = [pa.field(_CHUNK, pa.int64()), pa.field(_BUCKET, pa.int32()),
              pa.field(_SIDE, pa.int8())]
    fields += [pa.field(n, lschema.field(n).type) for n in lnames]
    fields += [pa.field(rmap[n], rschema.field(n).type)
               for n in rschema.names]
    schema = pa.schema(fields)
    w = float(chunk)

    def _bins(vals: np.ndarray) -> np.ndarray:
        # floor division keeps negatives correct (-0.5/10 -> bin -1)
        return np.floor(vals / w).astype(np.int64)

    def tag_left(t: pa.Table) -> pa.Table:
        if t.column(left_val).null_count:
            import pyarrow.compute as pc
            t = t.filter(pc.is_valid(t.column(left_val)))
        v = t.column(left_val).combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.float64, copy=False)
        c = _bins(v)
        t = t.append_column(_CHUNK, pa.array(c))
        t = t.append_column(_BUCKET, pa.array(
            (c % buckets).astype(np.int32)))
        t = t.append_column(_SIDE, pa.array(
            np.zeros(t.num_rows, dtype=np.int8)))
        return _align(t, schema)

    def tag_right(t: pa.Table) -> pa.Table:
        t = t.rename_columns([rmap[n] for n in t.column_names])
        lo = t.column(rmap[right_lo]).combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.float64, copy=False)
        hi = t.column(rmap[right_hi]).combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.float64, copy=False)
        ok = ~(np.isnan(lo) | np.isnan(hi)) & (lo <= hi)
        if not ok.all():
            t = t.filter(pa.array(ok))
            lo, hi = lo[ok], hi[ok]
        c0, c1 = _bins(lo), _bins(hi)
        reps = (c1 - c0 + 1)
        # replication bomb guard: a chunk far smaller than the interval
        # widths would explode the right side (e.g. chunk=1e-6 on width-40
        # bands -> 4e7 replicas per row). Fail loudly with the fix.
        if reps.size and int(reps.max()) > 100_000:
            raise ValueError(
                f"range_join chunk={w} replicates an interval "
                f"{int(reps.max())}x; raise `chunk` toward the typical "
                f"interval width (hi-lo max = {float((hi - lo).max())})")
        idx = np.repeat(np.arange(t.num_rows, dtype=np.int64), reps)
        # replica bin ids: segmented arange c0[i] .. c1[i]
        starts = np.repeat(c0, reps)
        offs = np.arange(idx.size, dtype=np.int64) - np.repeat(
            np.cumsum(reps) - reps, reps)
        c = starts + offs
        t = t.take(pa.array(idx))
        t = t.append_column(_CHUNK, pa.array(c))
        t = t.append_column(_BUCKET, pa.array(
            (c % buckets).astype(np.int32)))
        t = t.append_column(_SIDE, pa.array(
            np.ones(t.num_rows, dtype=np.int8)))
        return _align(t, schema)

    lt = left.map_batches(tag_left, batch_format="pyarrow",
                          **rayenv.remote_args())
    rt = right.map_batches(tag_right, batch_format="pyarrow",
                           **rayenv.remote_args())
    rlo, rhi = rmap[right_lo], rmap[right_hi]

    def merge(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        side = g.column(_SIDE)
        l = g.filter(pc.equal(side, 0)).select([_CHUNK] + out_l).to_pandas()
        r = g.filter(pc.equal(side, 1)).select([_CHUNK] + out_r).to_pandas()
        # candidates = exact-bin merge (each left row meets only the
        # replicas of ITS bin), then the band filter
        m = l.merge(r, on=_CHUNK)
        v = m[left_val].to_numpy()
        m = m[(m[rlo].to_numpy() <= v) & (v <= m[rhi].to_numpy())]
        return _from_pandas_nullable(m[out_l + out_r], out_schema)

    return declare_schema(
        lt.union(rt).repartition(buckets).groupby(_BUCKET).map_groups(
            merge, batch_format="pyarrow", **rayenv.remote_args()),
        out_schema)


def asof_join(left, right, on: str, left_ts: str, right_ts: str,
              right_on: str | None = None, buckets: int = 32,
              suffix: str = "_r"):
    """Distributed as-of (backward) join: for every left row, attach the
    right row with the SAME key and the LARGEST ``right_ts`` <=
    ``left_ts`` (exact matches allowed); left rows with no prior right
    row keep nulls — left-join semantics. The classic "event -> latest
    preceding order / price / state" lookup.

    Built like :func:`hash_join`: both sides bucket by key hash, union,
    ONE groupby(bucket) all-to-all, and a vectorized in-group
    ``pandas.merge_asof`` (sorted on ts, ``by=key``) — each side shuffles
    exactly once and nothing reaches the driver.

    Partitioning assumptions (per the custom-operator rule): per-bucket
    data must fit one worker's heap (salt hot keys upstream if a single
    key dominates), and DETERMINISM requires the right side to be unique
    per (key, ts) — two right rows tied on the as-of instant have no
    defined winner (pandas keeps the later row in sort order, an
    input-order artifact). Pre-aggregate the right side to one row per
    (key, ts) before calling; this is also what makes a SQL ASOF JOIN
    oracle well-defined."""
    right_on = right_on or on
    lschema = _arrow_schema(left)
    rschema = _arrow_schema(right)
    if lschema is None or rschema is None:
        raise ValueError("asof_join requires both inputs to have a schema")
    lnames = list(lschema.names)
    rmap = {n: n + suffix if n in lnames else n for n in rschema.names}
    out_l = lnames
    out_r = [rmap[n] for n in rschema.names]
    out_schema = pa.schema(
        [pa.field(n, lschema.field(n).type) for n in out_l]
        + [pa.field(rmap[n], rschema.field(n).type) for n in rschema.names])

    fields = [pa.field(_BUCKET, pa.int32()), pa.field(_SIDE, pa.int8())]
    fields += [pa.field(n, lschema.field(n).type) for n in lnames]
    fields += [pa.field(rmap[n], rschema.field(n).type)
               for n in rschema.names]
    schema = pa.schema(fields)

    def tag(side: int, key_col: str, rename: dict | None):
        def fn(t: pa.Table) -> pa.Table:
            if rename:
                t = t.rename_columns([rename[n] for n in t.column_names])
            kv = t.column(key_col).combine_chunks().to_numpy(
                zero_copy_only=False)
            t = t.append_column(_BUCKET,
                                pa.array(hash_bucket(kv, buckets=buckets)))
            t = t.append_column(_SIDE, pa.array(
                np.full(t.num_rows, side, dtype=np.int8)))
            return _align(t, schema)
        return fn

    lt = left.map_batches(tag(0, on, None), batch_format="pyarrow",
                          **rayenv.remote_args())
    rt = right.map_batches(tag(1, rmap[right_on], rmap),
                           batch_format="pyarrow", **rayenv.remote_args())
    rkey, rts = rmap[right_on], rmap[right_ts]

    def merge(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        side = g.column(_SIDE)
        l = g.filter(pc.equal(side, 0)).select(out_l).to_pandas()
        r = g.filter(pc.equal(side, 1)).select(out_r).to_pandas()
        for c in out_r:
            # as-of is left-join-shaped: unmatched rows coerce right int
            # columns to float64, rounding values >2^53 — keep payload
            # ints nullable (the key/ts columns merge_asof sorts on must
            # stay plain numeric)
            if c not in (rkey, rts) and pd.api.types.is_integer_dtype(r[c]):
                r[c] = r[c].astype("Int64")
        # merge_asof needs both frames sorted on the as-of column
        # (stable sort: right-side (key, ts) ties — documented as caller
        # error — at least resolve reproducibly for a given input order)
        l = l.sort_values(left_ts, kind="mergesort")
        r = r.sort_values(rts, kind="mergesort")
        m = pd.merge_asof(l, r, left_on=left_ts, right_on=rts,
                          left_by=on, right_by=rkey, direction="backward",
                          allow_exact_matches=True)
        return _from_pandas_nullable(m[out_l + out_r], out_schema)

    return declare_schema(
        lt.union(rt).repartition(buckets).groupby(_BUCKET).map_groups(
            merge, batch_format="pyarrow", **rayenv.remote_args()),
        out_schema)
