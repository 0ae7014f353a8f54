"""Composed multi-join analytical pipelines over the relational tables.

The join-chain family a warehouse-offload pipeline runs before training-data
work even starts (attribute enrichment, revenue rollups, cohort joins).
Composition rules at 100 TB, applied here and stated per stage:

- **pre-aggregate before every join**: the fact side collapses to one row
  per join key inside ``map_batches`` (integer partial sums), so each hash
  join exchanges partial rows, never raw fact rows;
- **one partitioning key per exchange, reused**: the chain is keyed
  orderkey -> custkey -> nationkey, each a bucketed
  :func:`rwcf.joins.hash_join` on the column the NEXT stage groups by;
- **broadcast the dimension tail**: ``nation`` is nations-sized (tiny
  forever) — it rides a ``ray.put`` map, never a shuffle;
- **exact integer money**: revenue is ``round(price*100) * (100 -
  round(discount*100))`` summed as int64 (price in cents x discount in
  basis points), so the sum is order-independent and byte-comparable to
  the SQL oracle — float summation order never appears.

Reference scope note: the reference engine (src/lib.rs:25-48) has no joins
at all; this module is part of the mandated training-data extension, built
on the same rwcf.joins primitives the dedup verify path uses.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import rayenv
from .joins import hash_join


def _segsum(k: np.ndarray, v: np.ndarray):
    """Group-sum of int64 ``v`` by int64 key ``k`` (sort + cumsum-diff):
    returns (distinct_keys, per_key_totals). The shared in-batch collapse
    kernel of the join-chain partials."""
    order = np.argsort(k, kind="stable")
    ks, vs = k[order], v[order]
    new = np.ones(ks.size, dtype=bool)
    if ks.size > 1:
        new[1:] = ks[1:] != ks[:-1]
    seg = np.flatnonzero(new)
    cs = np.cumsum(vs)
    totals = np.diff(np.concatenate([cs[seg] - vs[seg], cs[-1:]])) \
        if ks.size else np.empty(0, np.int64)
    return ks[seg], totals.astype(np.int64)


def _pair_segsum(a: np.ndarray, b: np.ndarray, v: np.ndarray):
    """Group-sum of int64 ``v`` by the int64 key PAIR (a, b): returns
    (distinct a, distinct b, per-pair totals), sorted by (a, b). Exact for
    any int64 keys — no packing of the pair into one integer."""
    order = np.lexsort((b, a))
    a, b, v = a[order], b[order], v[order]
    new = np.ones(a.size, dtype=bool)
    new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    seg = np.flatnonzero(new)
    totals = np.add.reduceat(v, seg) if seg.size else v[:0]
    return a[seg], b[seg], totals.astype(np.int64)


def _money_partial(t: pa.Table, key: str, price: str, disc: str,
                   out_key: str) -> pa.Table:
    """Per-batch partial: one (key, rev_scaled) row per distinct key.
    rev_scaled = sum(cents * (100 - bp)) — exact int64."""
    k = t.column(key).combine_chunks().to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    cents = np.rint(t.column(price).combine_chunks()
                    .to_numpy(zero_copy_only=False) * 100).astype(np.int64)
    bp = np.rint(t.column(disc).combine_chunks()
                 .to_numpy(zero_copy_only=False) * 100).astype(np.int64)
    keys, totals = _segsum(k, cents * (100 - bp))
    return pa.table({out_key: pa.array(keys),
                     "rev_scaled": pa.array(totals)})


def revenue_by_nation(lineitem, orders, customer, nation,
                      buckets: int = 32):
    """Revenue rollup customer-side: lineitem ⋈ orders ⋈ customer ⋈ nation,
    grouped by nation name. Output ``(n_name, rev_scaled)`` with
    ``rev_scaled = sum(round(price*100) * (100 - round(discount*100)))``.

    Scale shape: lineitem collapses to (orderkey, rev) partials in-batch
    BEFORE its join (the only corpus-sized table never ships a raw row);
    two bucketed hash joins re-key partials orderkey->custkey->nationkey,
    with another in-batch partial collapse between them; nation is
    broadcast. Total exchanges: 2 bucketed joins + 1 nations-sized
    groupby."""
    import ray

    li = lineitem.map_batches(
        lambda t: _money_partial(t, "l_orderkey", "l_extendedprice",
                                 "l_discount", "ok"),
        batch_format="pyarrow", **rayenv.remote_args())

    def ord_proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "ok": pc.cast(t.column("o_orderkey"), pa.int64()),
            "ck": pc.cast(t.column("o_custkey"), pa.int64())})

    od = orders.map_batches(ord_proj, batch_format="pyarrow",
                            **rayenv.remote_args())
    j1 = hash_join(li, od, on="ok", buckets=buckets)

    def cust_partial(t: pa.Table) -> pa.Table:
        # collapse to one (custkey, rev) row per batch-local custkey so the
        # second join exchanges partials too
        k = t.column("ck").combine_chunks().to_numpy(zero_copy_only=False)
        r = t.column("rev_scaled").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        keys, totals = _segsum(k.astype(np.int64), r.astype(np.int64))
        return pa.table({"ck": pa.array(keys),
                         "rev_scaled": pa.array(totals)})

    j1p = j1.map_batches(cust_partial, batch_format="pyarrow",
                         **rayenv.remote_args())

    def cust_proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "ck": pc.cast(t.column("c_custkey"), pa.int64()),
            "nk": pc.cast(t.column("c_nationkey"), pa.int64())})

    cu = customer.map_batches(cust_proj, batch_format="pyarrow",
                              **rayenv.remote_args())
    j2 = hash_join(j1p, cu, on="ck", buckets=buckets)

    # nation is tiny forever: broadcast the nationkey -> name map
    nt = nation.select_columns(["n_nationkey", "n_name"]).to_pandas()
    nmap_ref = ray.put(dict(zip(nt["n_nationkey"].astype(np.int64),
                                nt["n_name"])))

    def add_name(t: pa.Table) -> pa.Table:
        nmap = ray.get(nmap_ref)
        nk = t.column("nk").combine_chunks().to_numpy(zero_copy_only=False)
        # one unique pass; Python touches only the nations-sized u, not rows
        u, inv = np.unique(nk, return_inverse=True)
        names = np.array([nmap[int(x)] for x in u], dtype=object)[inv]
        return pa.table({"n_name": pa.array(names, pa.string()),
                         "rev_scaled": t.column("rev_scaled")})

    named = j2.map_batches(add_name, batch_format="pyarrow",
                           **rayenv.remote_args())
    agg = named.groupby("n_name").sum("rev_scaled")

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "n_name": t.column("n_name"),
            "rev_scaled": pc.cast(t.column("sum(rev_scaled)"), pa.int64())})

    return agg.map_batches(finish, batch_format="pyarrow",
                           **rayenv.remote_args())


def top_customers_by_revenue(lineitem, orders, k: int = 10,
                             buckets: int = 32):
    """Top-k customers by exact integer revenue (the TPC-H-Q3-shaped
    "who matters" rollup): lineitem collapses to (orderkey, rev)
    partials in-batch, ONE bucketed join re-keys them to custkey, a
    customer-count-sized groupby sums, and the top-k falls out of a
    per-batch local cut + one tiny final sort — the full customer
    aggregate never leaves the workers, only ~k rows per block do.
    Output ``(c_custkey, rev_scaled, rank)``; ties break on the SMALLER
    custkey, deterministic across engines.
    """
    li = lineitem.map_batches(
        lambda t: _money_partial(t, "l_orderkey", "l_extendedprice",
                                 "l_discount", "ok"),
        batch_format="pyarrow", **rayenv.remote_args())

    def ord_proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "ok": pc.cast(t.column("o_orderkey"), pa.int64()),
            "ck": pc.cast(t.column("o_custkey"), pa.int64())})

    od = orders.map_batches(ord_proj, batch_format="pyarrow",
                            **rayenv.remote_args())
    j = hash_join(li, od, on="ok", buckets=buckets)

    from ray.data.aggregate import Sum
    per_cust = (j.groupby("ck").aggregate(
        Sum("rev_scaled", alias_name="rev_scaled")))

    def local_cut(t: pa.Table) -> pa.Table:
        # keep each block's k best candidates; the global top-k is a
        # subset of the union of local top-ks
        r = t.column("rev_scaled").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        c = t.column("ck").combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((c, -r))[:k]
        return pa.table({"ck": pa.array(c[order].astype(np.int64)),
                         "rev_scaled": pa.array(
                             r[order].astype(np.int64))})

    def final_cut(t: pa.Table) -> pa.Table:
        r = t.column("rev_scaled").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        c = t.column("ck").combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((c, -r))[:k]
        return pa.table({
            "c_custkey": pa.array(c[order].astype(np.int64)),
            "rev_scaled": pa.array(r[order].astype(np.int64)),
            "rank": pa.array(np.arange(1, len(order) + 1,
                                       dtype=np.int64))})

    return (per_cust.map_batches(local_cut, batch_format="pyarrow",
                                 **rayenv.remote_args())
            .repartition(1)
            .map_batches(final_cut, batch_format="pyarrow",
                         **rayenv.remote_args()))


def pricing_summary(lineitem, cutoff: str = "1998-09-02"):
    """TPC-H-Q1-shaped pricing summary: lineitem shipped on or before
    ``cutoff``, grouped by (returnflag, linestatus) with exact integer
    measures — quantity sum, base price in cents, discounted price in
    cents x (100 - discount bp), charge in cents x (100 - discount bp) x
    (100 + tax bp), and the row count. All sums are order-independent
    int64 (the module's exact-money rule), so the result is
    byte-comparable to the SQL oracle; the float AVG columns of the
    classic query are derivable client-side as sum/count and are
    deliberately not materialized.

    Scale shape: the date filter prunes at the batch level and each
    batch collapses to at most |returnflag| x |linestatus| (~6) partial
    rows via an Arrow group_by, so the one groupby exchange moves a few
    rows per block regardless of corpus size — the cheapest possible
    wide plan for a full-table aggregate."""
    cut = np.datetime64(cutoff)

    def part(t: pa.Table) -> pa.Table:
        sd = t.column("l_shipdate").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        mask = sd <= cut  # numpy promotes date units exactly
        if not mask.any():
            return pa.table({
                "l_returnflag": pa.array([], pa.string()),
                "l_linestatus": pa.array([], pa.string()),
                "sum_qty": pa.array([], pa.int64()),
                "sum_base_cents": pa.array([], pa.int64()),
                "sum_disc_scaled": pa.array([], pa.int64()),
                "sum_charge_scaled": pa.array([], pa.int64()),
                "n_rows": pa.array([], pa.int64())})
        sel = pa.array(mask)
        qty = np.rint(t.column("l_quantity").combine_chunks()
                      .to_numpy(zero_copy_only=False)[mask]) \
            .astype(np.int64)
        cents = np.rint(t.column("l_extendedprice").combine_chunks()
                        .to_numpy(zero_copy_only=False)[mask] * 100) \
            .astype(np.int64)
        bp = np.rint(t.column("l_discount").combine_chunks()
                     .to_numpy(zero_copy_only=False)[mask] * 100) \
            .astype(np.int64)
        taxbp = np.rint(t.column("l_tax").combine_chunks()
                        .to_numpy(zero_copy_only=False)[mask] * 100) \
            .astype(np.int64)
        disc = cents * (100 - bp)
        g = pa.table({
            "l_returnflag": t.column("l_returnflag").filter(sel),
            "l_linestatus": t.column("l_linestatus").filter(sel),
            "sum_qty": pa.array(qty),
            "sum_base_cents": pa.array(cents),
            "sum_disc_scaled": pa.array(disc),
            "sum_charge_scaled": pa.array(disc * (100 + taxbp)),
            "n_rows": pa.array(np.ones(int(mask.sum()), dtype=np.int64)),
        }).group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("sum_qty", "sum"), ("sum_base_cents", "sum"),
             ("sum_disc_scaled", "sum"), ("sum_charge_scaled", "sum"),
             ("n_rows", "sum")])
        return pa.table({c: g.column(c if c in ("l_returnflag",
                                                "l_linestatus")
                                     else f"{c}_sum")
                         for c in ("l_returnflag", "l_linestatus",
                                   "sum_qty", "sum_base_cents",
                                   "sum_disc_scaled", "sum_charge_scaled",
                                   "n_rows")})

    from ray.data.aggregate import Sum
    cols = ("sum_qty", "sum_base_cents", "sum_disc_scaled",
            "sum_charge_scaled", "n_rows")
    return (lineitem.map_batches(part, batch_format="pyarrow",
                                 **rayenv.remote_args())
            .groupby(["l_returnflag", "l_linestatus"])
            .aggregate(*[Sum(c, alias_name=c) for c in cols]))


def orders_by_month_priority(orders):
    """Order volume and exact cents revenue per (calendar month,
    priority) — the seasonality/intake report. Month is the integer
    ``year*100 + month`` (no date-typed output column to disagree on),
    revenue is ``sum(round(totalprice*100))`` int64.

    Scale shape: per-batch collapse to |months| x |priorities| partial
    rows (Arrow group_by), then one domain-sized groupby — the corpus
    never reshuffles."""

    def part(t: pa.Table) -> pa.Table:
        d = t.column("o_orderdate").combine_chunks()
        ym = pc.add(pc.multiply(pc.cast(pc.year(d), pa.int64()), 100),
                    pc.cast(pc.month(d), pa.int64()))
        cents = np.rint(t.column("o_totalprice").combine_chunks()
                        .to_numpy(zero_copy_only=False) * 100) \
            .astype(np.int64)
        g = pa.table({
            "ym": ym,
            "o_orderpriority": t.column("o_orderpriority"),
            "n_orders": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            "total_cents": pa.array(cents),
        }).group_by(["ym", "o_orderpriority"]).aggregate(
            [("n_orders", "sum"), ("total_cents", "sum")])
        return pa.table({"ym": g.column("ym"),
                         "o_orderpriority": g.column("o_orderpriority"),
                         "n_orders": g.column("n_orders_sum"),
                         "total_cents": g.column("total_cents_sum")})

    from ray.data.aggregate import Sum
    return (orders.map_batches(part, batch_format="pyarrow",
                               **rayenv.remote_args())
            .groupby(["ym", "o_orderpriority"])
            .aggregate(Sum("n_orders", alias_name="n_orders"),
                       Sum("total_cents", alias_name="total_cents")))


def local_supplier_volume(lineitem, orders, customer, supplier,
                          nation, region, buckets: int = 32):
    """TPC-H-Q5-shaped local supplier volume: revenue from lineitems
    whose SUPPLIER and ordering CUSTOMER sit in the same nation, rolled
    up to ``(r_name, n_name, rev_scaled)`` — the one pipeline that
    touches every relational table. Exact integer money
    (``cents x (100 - bp)``), so the sums are order-independent.

    Scale shape (the module's composition rules end-to-end): supplier
    is broadcast as an int suppkey -> nationkey map (supplier is ~1% of
    lineitem rows in TPC-H proportions — a worker-heap-sized int map
    far beyond this corpus; the join constraint needs the supplier
    nation AT THE LINE LEVEL, so a shuffle join here would move every
    lineitem row twice). Lineitem collapses in-batch to
    ``(orderkey, s_nat, rev)`` partials, two bucketed hash joins re-key
    orderkey -> custkey with another partial collapse between, the
    same-nation filter drops mismatches the moment the customer nation
    appears, and the nations+regions name map broadcasts for the final
    domain-sized groupby. Exchanges: 2 bucketed joins + 1
    nations-sized groupby."""
    import ray

    st = supplier.select_columns(["s_suppkey", "s_nationkey"]).to_pandas()
    smap_ref = ray.put(dict(zip(st["s_suppkey"].astype(np.int64),
                                st["s_nationkey"].astype(np.int64))))

    def li_part(t: pa.Table) -> pa.Table:
        smap = ray.get(smap_ref)
        sk = t.column("l_suppkey").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        u, inv = np.unique(sk, return_inverse=True)
        snat = np.array([smap[int(x)] for x in u], dtype=np.int64)[inv]
        ok = t.column("l_orderkey").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        cents = np.rint(t.column("l_extendedprice").combine_chunks()
                        .to_numpy(zero_copy_only=False) * 100) \
            .astype(np.int64)
        bp = np.rint(t.column("l_discount").combine_chunks()
                     .to_numpy(zero_copy_only=False) * 100) \
            .astype(np.int64)
        g = pa.table({"ok": pa.array(ok), "snat": pa.array(snat),
                      "rev_scaled": pa.array(cents * (100 - bp))}) \
            .group_by(["ok", "snat"]).aggregate([("rev_scaled", "sum")])
        return pa.table({"ok": g.column("ok"), "snat": g.column("snat"),
                         "rev_scaled": g.column("rev_scaled_sum")})

    li = lineitem.map_batches(li_part, batch_format="pyarrow",
                              **rayenv.remote_args())

    def ord_proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "ok": pc.cast(t.column("o_orderkey"), pa.int64()),
            "ck": pc.cast(t.column("o_custkey"), pa.int64())})

    od = orders.map_batches(ord_proj, batch_format="pyarrow",
                            **rayenv.remote_args())
    j1 = hash_join(li, od, on="ok", buckets=buckets)

    def ck_part(t: pa.Table) -> pa.Table:
        g = t.select(["ck", "snat", "rev_scaled"]) \
            .group_by(["ck", "snat"]).aggregate([("rev_scaled", "sum")])
        return pa.table({"ck": g.column("ck"), "snat": g.column("snat"),
                         "rev_scaled": g.column("rev_scaled_sum")})

    j1p = j1.map_batches(ck_part, batch_format="pyarrow",
                         **rayenv.remote_args())

    def cust_proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "ck": pc.cast(t.column("c_custkey"), pa.int64()),
            "cnat": pc.cast(t.column("c_nationkey"), pa.int64())})

    cu = customer.map_batches(cust_proj, batch_format="pyarrow",
                              **rayenv.remote_args())
    j2 = hash_join(j1p, cu, on="ck", buckets=buckets)

    # nations and regions are tiny forever: broadcast key -> names
    nt = nation.select_columns(["n_nationkey", "n_name",
                                "n_regionkey"]).to_pandas()
    rt = region.select_columns(["r_regionkey", "r_name"]).to_pandas()
    rmap = dict(zip(rt["r_regionkey"].astype(np.int64), rt["r_name"]))
    nmap_ref = ray.put({int(k): (nm, rmap[int(rk)])
                        for k, nm, rk in zip(nt["n_nationkey"],
                                             nt["n_name"],
                                             nt["n_regionkey"])})

    def local_only(t: pa.Table) -> pa.Table:
        nmap = ray.get(nmap_ref)
        snat = t.column("snat").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        cnat = t.column("cnat").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        keep = snat == cnat
        snat = snat[keep]
        rev = t.column("rev_scaled").combine_chunks() \
            .to_numpy(zero_copy_only=False)[keep]
        u, inv = np.unique(snat, return_inverse=True)
        names = np.array([nmap[int(x)][0] for x in u], dtype=object)[inv]
        regs = np.array([nmap[int(x)][1] for x in u], dtype=object)[inv]
        return pa.table({"r_name": pa.array(regs, pa.string()),
                         "n_name": pa.array(names, pa.string()),
                         "rev_scaled": pa.array(rev.astype(np.int64))})

    from ray.data.aggregate import Sum
    return (j2.map_batches(local_only, batch_format="pyarrow",
                           **rayenv.remote_args())
            .groupby(["r_name", "n_name"])
            .aggregate(Sum("rev_scaled", alias_name="rev_scaled")))


def revenue_by_brand(lineitem, part, buckets: int = 32):
    """Lineitem revenue rolled up to part brand — the
    assortment-profitability report (which brands move money). Exact
    integer money (``cents x (100 - bp)``) plus the lineitem count.

    Scale shape: part is corpus-proportional in TPC-H (unlike nation),
    so it does NOT broadcast — lineitem collapses in-batch to
    ``(partkey, rev, n)`` partials, ONE bucketed hash join re-keys them
    to the brand-carrying part row, and the final groupby is
    brand-domain-sized. Exchanges: 1 bucketed join + 1 tiny groupby."""

    def li_part(t: pa.Table) -> pa.Table:
        pk = t.column("l_partkey").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        cents = np.rint(t.column("l_extendedprice").combine_chunks()
                        .to_numpy(zero_copy_only=False) * 100) \
            .astype(np.int64)
        bp = np.rint(t.column("l_discount").combine_chunks()
                     .to_numpy(zero_copy_only=False) * 100) \
            .astype(np.int64)
        g = pa.table({"pk": pa.array(pk),
                      "rev_scaled": pa.array(cents * (100 - bp)),
                      "n_items": pa.array(np.ones(pk.size, np.int64))}) \
            .group_by("pk").aggregate([("rev_scaled", "sum"),
                                       ("n_items", "sum")])
        return pa.table({"pk": g.column("pk"),
                         "rev_scaled": g.column("rev_scaled_sum"),
                         "n_items": g.column("n_items_sum")})

    li = lineitem.map_batches(li_part, batch_format="pyarrow",
                              **rayenv.remote_args())

    def part_proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "pk": pc.cast(t.column("p_partkey"), pa.int64()),
            "p_brand": t.column("p_brand")})

    pt = part.map_batches(part_proj, batch_format="pyarrow",
                          **rayenv.remote_args())
    j = hash_join(li, pt, on="pk", buckets=buckets)

    from ray.data.aggregate import Sum
    return (j.groupby("p_brand")
            .aggregate(Sum("rev_scaled", alias_name="rev_scaled"),
                       Sum("n_items", alias_name="n_items")))


def orders_by_segment(orders, customer, buckets: int = 32):
    """Order intake per customer market segment — count and exact cents
    totals (the demand-mix report). Scale shape: orders collapses
    in-batch to ``(custkey, cents, n)`` partials, ONE bucketed hash
    join attaches the segment, and the final groupby is
    segment-domain-sized."""

    def ord_part(t: pa.Table) -> pa.Table:
        ck = t.column("o_custkey").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        cents = np.rint(t.column("o_totalprice").combine_chunks()
                        .to_numpy(zero_copy_only=False) * 100) \
            .astype(np.int64)
        g = pa.table({"ck": pa.array(ck),
                      "total_cents": pa.array(cents),
                      "n_orders": pa.array(np.ones(ck.size, np.int64))}) \
            .group_by("ck").aggregate([("total_cents", "sum"),
                                       ("n_orders", "sum")])
        return pa.table({"ck": g.column("ck"),
                         "total_cents": g.column("total_cents_sum"),
                         "n_orders": g.column("n_orders_sum")})

    od = orders.map_batches(ord_part, batch_format="pyarrow",
                            **rayenv.remote_args())

    def cust_proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "ck": pc.cast(t.column("c_custkey"), pa.int64()),
            "c_mktsegment": t.column("c_mktsegment")})

    cu = customer.map_batches(cust_proj, batch_format="pyarrow",
                              **rayenv.remote_args())
    j = hash_join(od, cu, on="ck", buckets=buckets)

    from ray.data.aggregate import Sum
    return (j.groupby("c_mktsegment")
            .aggregate(Sum("total_cents", alias_name="total_cents"),
                       Sum("n_orders", alias_name="n_orders")))


def customer_order_histogram(orders):
    """Distribution of customers by how many orders they placed —
    ``(n_orders, n_customers)``, the engagement-shape report (how heavy
    is the head, how long the tail). Customers with zero orders do not
    appear (inner semantics, matching the SQL oracle's derived table).

    Scale shape: two stacked aggregations, each collapsed in-batch
    first — (custkey, n) partials into a customer-sized groupby, then
    per-batch (n_orders, n_customers) histogram partials into an
    order-count-domain-sized groupby. The second exchange is bounded by
    the distinct order-count domain (tiny), the first is the module's
    standard partial-then-final key exchange."""
    from ray.data.aggregate import Sum

    def ord_part(t: pa.Table) -> pa.Table:
        ck = t.column("o_custkey").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        keys, counts = _segsum(ck, np.ones(ck.size, dtype=np.int64))
        return pa.table({"ck": pa.array(keys), "n": pa.array(counts)})

    per_cust = (orders.map_batches(ord_part, batch_format="pyarrow",
                                   **rayenv.remote_args())
                .groupby("ck").aggregate(Sum("n", alias_name="n")))

    def hist_part(t: pa.Table) -> pa.Table:
        n = t.column("n").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        keys, counts = _segsum(n, np.ones(n.size, dtype=np.int64))
        return pa.table({"n_orders": pa.array(keys),
                         "n_customers": pa.array(counts)})

    return (per_cust.map_batches(hist_part, batch_format="pyarrow",
                                 **rayenv.remote_args())
            .groupby("n_orders")
            .aggregate(Sum("n_customers", alias_name="n_customers")))


def forecast_revenue(lineitem, date_lo: str = "1996-01-01",
                     date_hi: str = "1997-01-01", bp_lo: int = 5,
                     bp_hi: int = 7, max_qty: int = 24):
    """TPC-H-Q6-shaped forecast revenue: lineitems shipped inside
    ``[date_lo, date_hi)`` with discount in ``[bp_lo, bp_hi]`` basis
    points (compared AFTER the round-to-bp step, so engine and oracle
    agree on boundary values like 0.05) and quantity below ``max_qty``.
    Output one row ``(rev_scaled, n_rows)`` where ``rev_scaled =
    sum(cents * bp)`` — the *discount take*, exact int64.

    Scale shape: the cheapest wide plan possible — a pruned scan whose
    batches collapse to ONE partial row each; only #blocks 2-int rows
    reach the single-block final. Nothing corpus-sized moves."""
    lo, hi = np.datetime64(date_lo), np.datetime64(date_hi)

    def part(t: pa.Table) -> pa.Table:
        sd = t.column("l_shipdate").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        qty = np.rint(t.column("l_quantity").combine_chunks()
                      .to_numpy(zero_copy_only=False)).astype(np.int64)
        bp = np.rint(t.column("l_discount").combine_chunks()
                     .to_numpy(zero_copy_only=False) * 100) \
            .astype(np.int64)
        mask = ((sd >= lo) & (sd < hi) & (bp >= bp_lo) & (bp <= bp_hi)
                & (qty < max_qty))
        cents = np.rint(t.column("l_extendedprice").combine_chunks()
                        .to_numpy(zero_copy_only=False)[mask] * 100) \
            .astype(np.int64)
        return pa.table({
            "rev_scaled": pa.array([int((cents * bp[mask]).sum())],
                                   pa.int64()),
            "n_rows": pa.array([int(mask.sum())], pa.int64())})

    def final(t: pa.Table) -> pa.Table:
        return pa.table({
            "rev_scaled": pa.array([int(pc.sum(t.column("rev_scaled"))
                                        .as_py() or 0)], pa.int64()),
            "n_rows": pa.array([int(pc.sum(t.column("n_rows"))
                                    .as_py() or 0)], pa.int64())})

    return (lineitem.map_batches(part, batch_format="pyarrow",
                                 **rayenv.remote_args())
            .repartition(1)
            .map_batches(final, batch_format="pyarrow",
                         **rayenv.remote_args()))


def _topk_cut(key_cols: list[str], rank_name: str | None, k: int):
    """Shared local/final top-k kernel over ``rev_scaled`` (desc) with
    ascending int-key tie-breaks — deterministic across engines. Used as
    a per-block cut (rank_name=None) and, after repartition(1), as the
    final cut that assigns 1-based ranks."""

    def cut(t: pa.Table) -> pa.Table:
        r = t.column("rev_scaled").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        keys = [t.column(c).combine_chunks()
                .to_numpy(zero_copy_only=False).astype(np.int64)
                for c in key_cols]
        order = np.lexsort(tuple(reversed(keys)) + (-r,))[:k]
        cols = {c: pa.array(kv[order]) for c, kv in zip(key_cols, keys)}
        cols["rev_scaled"] = pa.array(r[order])
        for name in t.column_names:
            if name not in cols and name != "rev_scaled":
                cols[name] = t.column(name).take(pa.array(order))
        if rank_name:
            cols[rank_name] = pa.array(
                np.arange(1, len(order) + 1, dtype=np.int64))
        return pa.table(cols)

    return cut


def shipping_priority(lineitem, orders, customer,
                      segment: str = "BUILDING",
                      cutoff: str = "1998-01-01", k: int = 10,
                      buckets: int = 32):
    """TPC-H-Q3-shaped shipping priority: revenue still in flight at
    ``cutoff`` (orders placed before it, lineitems shipped after it)
    for one market segment; top-``k`` orders by exact integer revenue
    (``cents x (100 - bp)``), ties on the smaller orderkey. Output
    ``(o_orderkey, rev_scaled, rank)``.

    Scale shape: customer collapses to a segment-filtered key set and
    joins orders bucketed on custkey; the date-filtered lineitem
    collapses in-batch to (orderkey, rev) partials; ONE more bucketed
    join re-keys them; the top-k is a per-block local cut + one tiny
    final — the order-level aggregate never leaves the workers."""
    cut = np.datetime64(cutoff)

    def cust_proj(t: pa.Table) -> pa.Table:
        sel = pc.equal(t.column("c_mktsegment"), segment)
        return pa.table({"ck": pc.cast(t.column("c_custkey")
                                       .filter(sel), pa.int64())})

    cu = customer.map_batches(cust_proj, batch_format="pyarrow",
                              **rayenv.remote_args())

    def ord_proj(t: pa.Table) -> pa.Table:
        d = t.column("o_orderdate").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        sel = pa.array(d < cut)
        return pa.table({
            "ok": pc.cast(t.column("o_orderkey").filter(sel), pa.int64()),
            "ck": pc.cast(t.column("o_custkey").filter(sel), pa.int64())})

    od = orders.map_batches(ord_proj, batch_format="pyarrow",
                            **rayenv.remote_args())
    # semi: only the orderkey survives — the lineitem join needs no
    # customer attributes, just membership
    ok_ds = hash_join(od, cu, on="ck", how="semi", buckets=buckets) \
        .map_batches(lambda t: t.select(["ok"]), batch_format="pyarrow",
                     **rayenv.remote_args())

    def li_part(t: pa.Table) -> pa.Table:
        sd = t.column("l_shipdate").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        mask = sd > cut
        sel = pa.array(mask)
        return _money_partial(
            pa.table({"l_orderkey": t.column("l_orderkey").filter(sel),
                      "l_extendedprice":
                          t.column("l_extendedprice").filter(sel),
                      "l_discount": t.column("l_discount").filter(sel)}),
            "l_orderkey", "l_extendedprice", "l_discount", "ok")

    li = lineitem.map_batches(li_part, batch_format="pyarrow",
                              **rayenv.remote_args())
    j = hash_join(li, ok_ds, on="ok", how="semi", buckets=buckets)

    from ray.data.aggregate import Sum
    per_order = j.groupby("ok").aggregate(
        Sum("rev_scaled", alias_name="rev_scaled"))

    def rename_ok(t: pa.Table) -> pa.Table:
        return t.rename_columns(
            ["o_orderkey" if c == "ok" else c for c in t.column_names])

    return (per_order.map_batches(_topk_cut(["ok"], None, k),
                                  batch_format="pyarrow",
                                  **rayenv.remote_args())
            .repartition(1)
            .map_batches(_topk_cut(["ok"], "rank", k),
                         batch_format="pyarrow", **rayenv.remote_args())
            .map_batches(rename_ok, batch_format="pyarrow",
                         **rayenv.remote_args()))


def returned_item_revenue(lineitem, orders, customer, nation,
                          date_lo: str = "1999-01-01",
                          date_hi: str = "1999-07-01", k: int = 20,
                          buckets: int = 32):
    """TPC-H-Q10-shaped returned-item report: revenue lost to returns
    (``l_returnflag = 'R'``) on orders placed in ``[date_lo, date_hi)``,
    per customer, top-``k`` by exact integer revenue (ties on the
    smaller custkey). Output ``(c_custkey, n_name, rev_scaled, rank)``.

    Scale shape: the returnflag+date filters prune at the batch level on
    both fact tables BEFORE any exchange; lineitem collapses to
    (orderkey, rev) partials; two bucketed joins re-key
    orderkey -> custkey (partials collapsed between); nation broadcasts;
    the top-k is local-cut + tiny final."""
    import ray

    lo, hi = np.datetime64(date_lo), np.datetime64(date_hi)

    def li_part(t: pa.Table) -> pa.Table:
        sel = pc.equal(t.column("l_returnflag"), "R")
        return _money_partial(
            pa.table({"l_orderkey": t.column("l_orderkey").filter(sel),
                      "l_extendedprice":
                          t.column("l_extendedprice").filter(sel),
                      "l_discount": t.column("l_discount").filter(sel)}),
            "l_orderkey", "l_extendedprice", "l_discount", "ok")

    li = lineitem.map_batches(li_part, batch_format="pyarrow",
                              **rayenv.remote_args())

    def ord_proj(t: pa.Table) -> pa.Table:
        d = t.column("o_orderdate").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        sel = pa.array((d >= lo) & (d < hi))
        return pa.table({
            "ok": pc.cast(t.column("o_orderkey").filter(sel), pa.int64()),
            "ck": pc.cast(t.column("o_custkey").filter(sel), pa.int64())})

    od = orders.map_batches(ord_proj, batch_format="pyarrow",
                            **rayenv.remote_args())
    j1 = hash_join(li, od, on="ok", buckets=buckets)

    def ck_part(t: pa.Table) -> pa.Table:
        k_ = t.column("ck").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        r = t.column("rev_scaled").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        keys, totals = _segsum(k_, r)
        return pa.table({"ck": pa.array(keys),
                         "rev_scaled": pa.array(totals)})

    j1p = j1.map_batches(ck_part, batch_format="pyarrow",
                         **rayenv.remote_args())

    from ray.data.aggregate import Sum
    per_cust = j1p.groupby("ck").aggregate(
        Sum("rev_scaled", alias_name="rev_scaled"))

    # customer is corpus-proportional but the SURVIVING key set here is
    # top-k-bounded only after the final cut, so the nationkey ride-along
    # joins bucketed; nation itself broadcasts as a key -> name map
    def cust_proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "ck": pc.cast(t.column("c_custkey"), pa.int64()),
            "nk": pc.cast(t.column("c_nationkey"), pa.int64())})

    cu = customer.map_batches(cust_proj, batch_format="pyarrow",
                              **rayenv.remote_args())
    j2 = hash_join(per_cust, cu, on="ck", buckets=buckets)

    nt = nation.select_columns(["n_nationkey", "n_name"]).to_pandas()
    nmap_ref = ray.put(dict(zip(nt["n_nationkey"].astype(np.int64),
                                nt["n_name"])))

    def add_name(t: pa.Table) -> pa.Table:
        nmap = ray.get(nmap_ref)
        nk = t.column("nk").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        u, inv = np.unique(nk, return_inverse=True)
        names = np.array([nmap[int(x)] for x in u], dtype=object)[inv] \
            if u.size else np.empty(0, object)
        return pa.table({
            "ck": t.column("ck"),
            "n_name": pa.array(names, pa.string()),
            "rev_scaled": t.column("rev_scaled")})

    named = j2.map_batches(add_name, batch_format="pyarrow",
                           **rayenv.remote_args())

    def rename_ck(t: pa.Table) -> pa.Table:
        return t.rename_columns(
            ["c_custkey" if c == "ck" else c for c in t.column_names])

    return (named.map_batches(_topk_cut(["ck"], None, k),
                              batch_format="pyarrow",
                              **rayenv.remote_args())
            .repartition(1)
            .map_batches(_topk_cut(["ck"], "rank", k),
                         batch_format="pyarrow", **rayenv.remote_args())
            .map_batches(rename_ck, batch_format="pyarrow",
                         **rayenv.remote_args()))


def large_volume_orders(lineitem, orders, min_qty: int = 250,
                        buckets: int = 32):
    """TPC-H-Q18-shaped large-volume orders: orders whose total lineitem
    quantity exceeds ``min_qty`` (HAVING over a pre-aggregation), with
    the ordering customer and exact cents order value attached. Output
    ``(o_orderkey, o_custkey, sum_qty, total_cents)`` — all survivors,
    no arbitrary top-k (the HAVING bound is the cut).

    Scale shape: lineitem collapses in-batch to (orderkey, qty)
    partials; one orderkey groupby sums; the HAVING filter drops ~99%
    of orders BEFORE the single bucketed join attaches order
    attributes. Exchanges: 1 groupby + 1 join, both on orderkey."""

    def li_part(t: pa.Table) -> pa.Table:
        ok = t.column("l_orderkey").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        qty = np.rint(t.column("l_quantity").combine_chunks()
                      .to_numpy(zero_copy_only=False)).astype(np.int64)
        keys, totals = _segsum(ok, qty)
        return pa.table({"ok": pa.array(keys),
                         "sum_qty": pa.array(totals)})

    li = lineitem.map_batches(li_part, batch_format="pyarrow",
                              **rayenv.remote_args())

    from ray.data.aggregate import Sum
    per_order = li.groupby("ok").aggregate(
        Sum("sum_qty", alias_name="sum_qty"))

    def having(t: pa.Table) -> pa.Table:
        q = t.column("sum_qty").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        return t.filter(pa.array(q > min_qty))

    big = per_order.map_batches(having, batch_format="pyarrow",
                                **rayenv.remote_args())

    def ord_proj(t: pa.Table) -> pa.Table:
        cents = np.rint(t.column("o_totalprice").combine_chunks()
                        .to_numpy(zero_copy_only=False) * 100) \
            .astype(np.int64)
        return pa.table({
            "ok": pc.cast(t.column("o_orderkey"), pa.int64()),
            "o_custkey": pc.cast(t.column("o_custkey"), pa.int64()),
            "total_cents": pa.array(cents)})

    od = orders.map_batches(ord_proj, batch_format="pyarrow",
                            **rayenv.remote_args())
    j = hash_join(big, od, on="ok", buckets=buckets)

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": t.column("ok"),
            "o_custkey": t.column("o_custkey"),
            "sum_qty": t.column("sum_qty"),
            "total_cents": t.column("total_cents")})

    return j.map_batches(finish, batch_format="pyarrow",
                         **rayenv.remote_args())


def small_quantity_revenue(lineitem, part, brand: str = "Brand#13",
                           buckets: int = 32):
    """TPC-H-Q17-shaped small-quantity revenue: lineitems of one brand's
    parts whose quantity is below 20% of that part's average lineitem
    quantity — the correlated-subquery shape (per-row predicate against
    the row's own group aggregate). The comparison is exact integer
    cross-multiplication (``5 * qty * n_part < sum_qty_part``), never a
    float average. Output one row ``(rev_cents, n_rows)`` — the base
    price (no discount) of the qualifying rows, in cents.

    Scale shape: the brand's partkey set broadcasts once (~1/25 of
    parts; an int64 array — worker-heap-sized into the tens of millions
    of keys; swap to a Bloom prefilter + in-bucket exact check beyond
    that). Non-brand lineitems drop at the batch level, so ONE
    hash(partkey) exchange moves only the brand's rows; each bucket
    computes per-part (sum, n) with segmented numpy and filters its own
    rows against them — the correlated aggregate never leaves the
    bucket. Partial one-row sums then a tiny final."""
    import ray

    def brand_keys(t: pa.Table) -> pa.Table:
        sel = pc.equal(t.column("p_brand"), brand)
        return pa.table({"pk": pc.cast(t.column("p_partkey").filter(sel),
                                       pa.int64())})

    # only the BRAND's keys reach the driver (brand-sized, never the
    # part table); broadcast once as a sorted array. A fully-empty
    # filter result loses its schema, hence the column guard.
    kdf = part.map_batches(brand_keys, batch_format="pyarrow",
                           **rayenv.remote_args()).to_pandas()
    keys = np.sort(kdf["pk"].to_numpy(dtype=np.int64)) \
        if "pk" in kdf.columns else np.empty(0, np.int64)
    if keys.size == 0:
        # unknown brand: nothing can match — exact zero row, and the
        # empty pipeline downstream would never invoke its final block
        import ray.data as rd
        return rd.from_arrow(pa.table({
            "rev_cents": pa.array([0], pa.int64()),
            "n_rows": pa.array([0], pa.int64())}))
    keys_ref = ray.put(keys)

    def li_filter(t: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)
        pk = t.column("l_partkey").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        if ks.size:
            # sorted-array membership: searchsorted beats np.isin's
            # internal sort when the probe side is the batch
            pos = np.searchsorted(ks, pk)
            pos[pos == ks.size] = 0
            mask = ks[pos] == pk
        else:
            mask = np.zeros(pk.size, dtype=bool)
        qty = np.rint(t.column("l_quantity").combine_chunks()
                      .to_numpy(zero_copy_only=False)[mask]) \
            .astype(np.int64)
        cents = np.rint(t.column("l_extendedprice").combine_chunks()
                        .to_numpy(zero_copy_only=False)[mask] * 100) \
            .astype(np.int64)
        pk = pk[mask]
        return pa.table({"pk": pa.array(pk), "qty": pa.array(qty),
                         "cents": pa.array(cents)})

    rows = lineitem.map_batches(li_filter, batch_format="pyarrow",
                                **rayenv.remote_args())

    def bucket_eval(g: pa.Table) -> pa.Table:
        pk = g.column("pk").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        qty = g.column("qty").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        cents = g.column("cents").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        order = np.argsort(pk, kind="stable")
        pk, qty, cents = pk[order], qty[order], cents[order]
        n = pk.size
        new = np.ones(n, dtype=bool)
        if n > 1:
            new[1:] = pk[1:] != pk[:-1]
        seg_of = np.cumsum(new) - 1
        _, sums = _segsum(pk, qty)
        _, cnts = _segsum(pk, np.ones(n, dtype=np.int64))
        keep = 5 * qty * cnts[seg_of] < sums[seg_of]
        return pa.table({
            "rev_cents": pa.array([int(cents[keep].sum())], pa.int64()),
            "n_rows": pa.array([int(keep.sum())], pa.int64())})

    def final(t: pa.Table) -> pa.Table:
        # an empty key set yields zero groups upstream, so the single
        # final block can arrive schema-less — still emit the exact 0 row
        empty = "rev_cents" not in t.column_names
        return pa.table({
            "rev_cents": pa.array(
                [0 if empty else int(pc.sum(t.column("rev_cents"))
                                     .as_py() or 0)], pa.int64()),
            "n_rows": pa.array(
                [0 if empty else int(pc.sum(t.column("n_rows"))
                                     .as_py() or 0)], pa.int64())})

    from .joins import exchange
    return (exchange(rows, bucket_eval, buckets=buckets, keys=["pk"],
                     schema=pa.schema([("rev_cents", pa.int64()),
                                       ("n_rows", pa.int64())]))
            .repartition(1)
            .map_batches(final, batch_format="pyarrow",
                         **rayenv.remote_args()))


def top_supplier(lineitem, date_lo: str = "1997-01-01",
                 date_hi: str = "1997-04-01"):
    """TPC-H-Q15-shaped top supplier: the supplier(s) whose revenue over
    ``[date_lo, date_hi)`` equals the global maximum — argmax WITH ties
    (the view + WHERE rev = (SELECT max(...)) shape). Exact integer
    money. Output ``(s_suppkey, rev_scaled)``, one row per tied winner.

    Scale shape: date-pruned money partials, one supplier-keyed groupby;
    then each block of the per-supplier aggregate keeps only its own
    max-tied rows (a per-block cut that cannot lose a global winner,
    since the global max is some block's max) and the #blocks survivors
    meet in one tiny final. The per-supplier aggregate never leaves the
    workers."""
    lo, hi = np.datetime64(date_lo), np.datetime64(date_hi)

    def li_part(t: pa.Table) -> pa.Table:
        sd = t.column("l_shipdate").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        sel = pa.array((sd >= lo) & (sd < hi))
        return _money_partial(
            pa.table({"l_suppkey": t.column("l_suppkey").filter(sel),
                      "l_extendedprice":
                          t.column("l_extendedprice").filter(sel),
                      "l_discount": t.column("l_discount").filter(sel)}),
            "l_suppkey", "l_extendedprice", "l_discount", "sk")

    li = lineitem.map_batches(li_part, batch_format="pyarrow",
                              **rayenv.remote_args())

    from ray.data.aggregate import Sum
    per_supp = li.groupby("sk").aggregate(
        Sum("rev_scaled", alias_name="rev_scaled"))

    def max_ties(t: pa.Table) -> pa.Table:
        r = t.column("rev_scaled").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        sk = t.column("sk").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        if r.size == 0:
            return pa.table({"s_suppkey": pa.array([], pa.int64()),
                             "rev_scaled": pa.array([], pa.int64())})
        keep = r == r.max()
        return pa.table({"s_suppkey": pa.array(sk[keep]),
                         "rev_scaled": pa.array(r[keep])})

    def rename_back(t: pa.Table) -> pa.Table:
        return t.rename_columns(["sk", "rev_scaled"])

    return (per_supp.map_batches(max_ties, batch_format="pyarrow",
                                 **rayenv.remote_args())
            .map_batches(rename_back, batch_format="pyarrow",
                         **rayenv.remote_args())
            .repartition(1)
            .map_batches(max_ties, batch_format="pyarrow",
                         **rayenv.remote_args()))


def lapsed_high_value_customers(customer, orders,
                                since: str = "2000-01-01",
                                buckets: int = 32,
                                bloom_bits: int = 1 << 20):
    """TPC-H-Q22-shaped lapsed high-value customers: customers whose
    account balance beats the global average positive balance but who
    placed NO order since ``since`` — the scalar-subquery + NOT EXISTS
    shape. The above-average test is exact integer cross-multiplication
    (``cents * n_pos > sum_pos_cents``), never a float mean. Output
    ``(c_nationkey, n_cust, acctbal_cents)`` per nation.

    Scale shape: pass 1 collapses customer batches to one
    ``(sum_pos, n_pos)`` row each — two broadcast scalars. Pass 2
    filters customers at the batch level against the scalars, then a
    Bloom-accelerated ANTI join against the date-pruned order custkeys
    routes only maybe-active customers through the all-to-all; the
    definite-lapsed bulk bypasses it. Final groupby is nations-sized."""
    import ray

    from .joins import hash_join

    def bal_part(t: pa.Table) -> pa.Table:
        cents = np.rint(t.column("c_acctbal").combine_chunks()
                        .to_numpy(zero_copy_only=False) * 100) \
            .astype(np.int64)
        pos = cents[cents > 0]
        return pa.table({"s": pa.array([int(pos.sum())], pa.int64()),
                         "n": pa.array([int(pos.size)], pa.int64())})

    # #blocks 2-int rows -> two scalars; the only driver materialization
    bal = customer.map_batches(bal_part, batch_format="pyarrow",
                               **rayenv.remote_args()).to_pandas()
    s_pos, n_pos = int(bal["s"].sum()), int(bal["n"].sum())

    def cust_filter(t: pa.Table) -> pa.Table:
        cents = np.rint(t.column("c_acctbal").combine_chunks()
                        .to_numpy(zero_copy_only=False) * 100) \
            .astype(np.int64)
        sel = pa.array(cents * n_pos > s_pos)
        return pa.table({
            "ck": pc.cast(t.column("c_custkey").filter(sel), pa.int64()),
            "c_nationkey": pc.cast(t.column("c_nationkey").filter(sel),
                                   pa.int64()),
            "acctbal_cents": pa.array(cents[cents * n_pos > s_pos])})

    rich = customer.map_batches(cust_filter, batch_format="pyarrow",
                                **rayenv.remote_args())

    lo = np.datetime64(since)

    def ord_proj(t: pa.Table) -> pa.Table:
        d = t.column("o_orderdate").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        sel = pa.array(d >= lo)
        return pa.table({
            "ck": pc.cast(t.column("o_custkey").filter(sel), pa.int64())})

    recent = orders.map_batches(ord_proj, batch_format="pyarrow",
                                **rayenv.remote_args())
    lapsed = hash_join(rich, recent, on="ck", how="anti",
                       buckets=buckets, bloom_bits=bloom_bits)

    def nat_part(t: pa.Table) -> pa.Table:
        g = pa.table({
            "c_nationkey": t.column("c_nationkey"),
            "n_cust": pa.array(np.ones(t.num_rows, np.int64)),
            "acctbal_cents": t.column("acctbal_cents"),
        }).group_by("c_nationkey").aggregate(
            [("n_cust", "sum"), ("acctbal_cents", "sum")])
        return pa.table({"c_nationkey": g.column("c_nationkey"),
                         "n_cust": g.column("n_cust_sum"),
                         "acctbal_cents": g.column("acctbal_cents_sum")})

    from ray.data.aggregate import Sum
    return (lapsed.map_batches(nat_part, batch_format="pyarrow",
                               **rayenv.remote_args())
            .groupby("c_nationkey")
            .aggregate(Sum("n_cust", alias_name="n_cust"),
                       Sum("acctbal_cents", alias_name="acctbal_cents")))


_Q19_BRANCHES = (("Brand#1", 1, 5, 1, 11),
                 ("Brand#12", 1, 10, 10, 20),
                 ("Brand#20", 1, 15, 20, 30))


def disjunctive_revenue(lineitem, part, branches=_Q19_BRANCHES,
                        buckets: int = 32):
    """TPC-H-Q19-shaped disjunctive-predicate revenue: an OR of
    (brand, size-range, quantity-range) conjunctions that needs columns
    from BOTH sides of the join per branch. Exact integer money
    (``cents x (100 - bp)``). Output one row ``(rev_scaled, n_rows)``.

    Scale shape: both sides prune at the batch level to the predicate's
    envelope (quantity within any branch's range; parts matching some
    branch's brand+size) BEFORE the one bucketed partkey join, so the
    all-to-all moves only candidate rows; the disjunction evaluates
    vectorized on the joined rows and collapses to one-row partials."""
    from .joins import hash_join

    qty_lo = min(b[3] for b in branches)
    qty_hi = max(b[4] for b in branches)

    def li_proj(t: pa.Table) -> pa.Table:
        qty = np.rint(t.column("l_quantity").combine_chunks()
                      .to_numpy(zero_copy_only=False)).astype(np.int64)
        mask = (qty >= qty_lo) & (qty <= qty_hi)
        cents = np.rint(t.column("l_extendedprice").combine_chunks()
                        .to_numpy(zero_copy_only=False)[mask] * 100) \
            .astype(np.int64)
        bp = np.rint(t.column("l_discount").combine_chunks()
                     .to_numpy(zero_copy_only=False)[mask] * 100) \
            .astype(np.int64)
        pk = t.column("l_partkey").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)[mask]
        return pa.table({"pk": pa.array(pk), "qty": pa.array(qty[mask]),
                         "rev": pa.array(cents * (100 - bp))})

    li = lineitem.map_batches(li_proj, batch_format="pyarrow",
                              **rayenv.remote_args())

    def part_proj(t: pa.Table) -> pa.Table:
        brand = t.column("p_brand").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        size = t.column("p_size").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        keep = np.zeros(len(t), dtype=bool)
        for bname, s_lo, s_hi, _, _ in branches:
            keep |= (brand == bname) & (size >= s_lo) & (size <= s_hi)
        sel = pa.array(keep)
        return pa.table({
            "pk": pc.cast(t.column("p_partkey").filter(sel), pa.int64()),
            "p_brand": t.column("p_brand").filter(sel),
            "p_size": pa.array(size[keep])})

    pt = part.map_batches(part_proj, batch_format="pyarrow",
                          **rayenv.remote_args())
    j = hash_join(li, pt, on="pk", buckets=buckets)

    def eval_part(t: pa.Table) -> pa.Table:
        brand = t.column("p_brand").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        size = t.column("p_size").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        qty = t.column("qty").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        rev = t.column("rev").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        hit = np.zeros(len(t), dtype=bool)
        for bname, s_lo, s_hi, q_lo, q_hi in branches:
            hit |= ((brand == bname) & (size >= s_lo) & (size <= s_hi)
                    & (qty >= q_lo) & (qty <= q_hi))
        return pa.table({
            "rev_scaled": pa.array([int(rev[hit].sum())], pa.int64()),
            "n_rows": pa.array([int(hit.sum())], pa.int64())})

    def final(t: pa.Table) -> pa.Table:
        return pa.table({
            "rev_scaled": pa.array([int(pc.sum(t.column("rev_scaled"))
                                        .as_py() or 0)], pa.int64()),
            "n_rows": pa.array([int(pc.sum(t.column("n_rows"))
                                    .as_py() or 0)], pa.int64())})

    return (j.map_batches(eval_part, batch_format="pyarrow",
                          **rayenv.remote_args())
            .repartition(1)
            .map_batches(final, batch_format="pyarrow",
                         **rayenv.remote_args()))


def nation_trade_volume(lineitem, orders, customer, supplier, nation,
                        date_lo: str = "1996-01-01",
                        date_hi: str = "1998-01-01", buckets: int = 32):
    """TPC-H-Q7-shaped cross-nation trade volume: revenue shipped in
    ``[date_lo, date_hi)`` between every DIFFERENT (supplier nation,
    customer nation) pair, per ship year. Exact integer money. Output
    ``(supp_nation, cust_nation, l_year, rev_scaled)``.

    Scale shape: supplier broadcasts as a suppkey -> nationkey int map
    (the supplier nation is needed at the line level, like
    :func:`local_supplier_volume`); the date-pruned lineitem collapses
    in-batch to (orderkey, snat, year, rev) partials; two bucketed
    joins re-key orderkey -> custkey with a partial collapse between;
    the cross-nation filter drops same-nation rows the moment the
    customer nation appears; nation names broadcast for the final
    |nations|^2 x years groupby."""
    import ray

    st = supplier.select_columns(["s_suppkey", "s_nationkey"]).to_pandas()
    smap_ref = ray.put(dict(zip(st["s_suppkey"].astype(np.int64),
                                st["s_nationkey"].astype(np.int64))))
    lo, hi = np.datetime64(date_lo), np.datetime64(date_hi)

    def li_part(t: pa.Table) -> pa.Table:
        smap = ray.get(smap_ref)
        sd = t.column("l_shipdate").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        mask = (sd >= lo) & (sd < hi)
        sel = pa.array(mask)
        year = pc.cast(pc.year(t.column("l_shipdate").filter(sel)),
                       pa.int64()).combine_chunks() \
            .to_numpy(zero_copy_only=False)
        sk = t.column("l_suppkey").filter(sel).combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        u, inv = np.unique(sk, return_inverse=True)
        snat = (np.array([smap[int(x)] for x in u], dtype=np.int64)[inv]
                if u.size else np.empty(0, np.int64))
        ok = t.column("l_orderkey").filter(sel).combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        cents = np.rint(t.column("l_extendedprice").filter(sel)
                        .combine_chunks()
                        .to_numpy(zero_copy_only=False) * 100) \
            .astype(np.int64)
        bp = np.rint(t.column("l_discount").filter(sel).combine_chunks()
                     .to_numpy(zero_copy_only=False) * 100) \
            .astype(np.int64)
        g = pa.table({"ok": pa.array(ok), "snat": pa.array(snat),
                      "l_year": pa.array(year),
                      "rev_scaled": pa.array(cents * (100 - bp))}) \
            .group_by(["ok", "snat", "l_year"]) \
            .aggregate([("rev_scaled", "sum")])
        return pa.table({"ok": g.column("ok"), "snat": g.column("snat"),
                         "l_year": g.column("l_year"),
                         "rev_scaled": g.column("rev_scaled_sum")})

    li = lineitem.map_batches(li_part, batch_format="pyarrow",
                              **rayenv.remote_args())

    def ord_proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "ok": pc.cast(t.column("o_orderkey"), pa.int64()),
            "ck": pc.cast(t.column("o_custkey"), pa.int64())})

    od = orders.map_batches(ord_proj, batch_format="pyarrow",
                            **rayenv.remote_args())
    j1 = hash_join(li, od, on="ok", buckets=buckets)

    def ck_part(t: pa.Table) -> pa.Table:
        g = t.select(["ck", "snat", "l_year", "rev_scaled"]) \
            .group_by(["ck", "snat", "l_year"]) \
            .aggregate([("rev_scaled", "sum")])
        return pa.table({"ck": g.column("ck"), "snat": g.column("snat"),
                         "l_year": g.column("l_year"),
                         "rev_scaled": g.column("rev_scaled_sum")})

    j1p = j1.map_batches(ck_part, batch_format="pyarrow",
                         **rayenv.remote_args())

    def cust_proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "ck": pc.cast(t.column("c_custkey"), pa.int64()),
            "cnat": pc.cast(t.column("c_nationkey"), pa.int64())})

    cu = customer.map_batches(cust_proj, batch_format="pyarrow",
                              **rayenv.remote_args())
    j2 = hash_join(j1p, cu, on="ck", buckets=buckets)

    nt = nation.select_columns(["n_nationkey", "n_name"]).to_pandas()
    nmap_ref = ray.put(dict(zip(nt["n_nationkey"].astype(np.int64),
                                nt["n_name"])))

    def cross_only(t: pa.Table) -> pa.Table:
        nmap = ray.get(nmap_ref)
        snat = t.column("snat").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        cnat = t.column("cnat").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        keep = snat != cnat
        snat, cnat = snat[keep], cnat[keep]
        rev = t.column("rev_scaled").combine_chunks() \
            .to_numpy(zero_copy_only=False)[keep]
        yr = t.column("l_year").combine_chunks() \
            .to_numpy(zero_copy_only=False)[keep]

        def names(arr):
            u, inv = np.unique(arr, return_inverse=True)
            return (np.array([nmap[int(x)] for x in u],
                             dtype=object)[inv]
                    if u.size else np.empty(0, object))

        # collapse to the |nations|^2 x years domain INSIDE the batch so
        # the final groupby exchanges domain-sized partials, not
        # custkey-level rows
        g2 = pa.table({
            "supp_nation": pa.array(names(snat), pa.string()),
            "cust_nation": pa.array(names(cnat), pa.string()),
            "l_year": pa.array(yr.astype(np.int64)),
            "rev_scaled": pa.array(rev.astype(np.int64))}) \
            .group_by(["supp_nation", "cust_nation", "l_year"]) \
            .aggregate([("rev_scaled", "sum")])
        return pa.table({
            "supp_nation": g2.column("supp_nation"),
            "cust_nation": g2.column("cust_nation"),
            "l_year": g2.column("l_year"),
            "rev_scaled": g2.column("rev_scaled_sum")})

    from ray.data.aggregate import Sum
    return (j2.map_batches(cross_only, batch_format="pyarrow",
                           **rayenv.remote_args())
            .groupby(["supp_nation", "cust_nation", "l_year"])
            .aggregate(Sum("rev_scaled", alias_name="rev_scaled")))


def suppliers_per_brand(lineitem, part, buckets: int = 32):
    """Distinct supplier count per part brand — COUNT(DISTINCT) over a
    join (the TPC-H-Q16 shape on this schema, which has no partsupp).
    Output ``(p_brand, n_suppliers)``.

    Scale shape: lineitem collapses in-batch to unique
    (partkey, suppkey) PAIRS (duplicates never ship); one bucketed join
    attaches the brand; then the generic exact-distinct machinery
    (:func:`rwcf.analytics.grouped_distinct_pairs`) does per-batch
    unique pairs -> one hash(brand, suppkey) exchange with additive
    disjoint-bucket counts -> brand-sized final."""
    from .analytics import grouped_distinct_pairs

    def li_pairs(t: pa.Table) -> pa.Table:
        g = pa.table({
            "pk": pc.cast(t.column("l_partkey"), pa.int64()),
            "sk": pc.cast(t.column("l_suppkey"), pa.int64()),
        }).group_by(["pk", "sk"]).aggregate([])
        return g

    li = lineitem.map_batches(li_pairs, batch_format="pyarrow",
                              **rayenv.remote_args())

    def part_proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "pk": pc.cast(t.column("p_partkey"), pa.int64()),
            "p_brand": t.column("p_brand")})

    pt = part.map_batches(part_proj, batch_format="pyarrow",
                          **rayenv.remote_args())
    j = hash_join(li, pt, on="pk", buckets=buckets)

    def rename(t: pa.Table) -> pa.Table:
        agg = t.rename_columns(
            ["n_suppliers" if c == "n_distinct" else c
             for c in t.column_names])
        return agg

    return grouped_distinct_pairs(j, "p_brand", "sk", buckets=buckets) \
        .map_batches(rename, batch_format="pyarrow",
                     **rayenv.remote_args())


def referential_orphans(child_parent: list, buckets: int = 32,
                        bloom_bits: int | None = None):
    """Referential-integrity audit: for each (relation, child, child_key,
    parent, parent_key) tuple, count child ROWS whose key has no parent
    (the orphan-reference count a warehouse offload validates before
    training-data joins trust the keys). Output one
    ``(relation, n_orphan_rows)`` row per checked FK, zeros included.

    Scale shape per FK: the child collapses in-batch to (key, n) count
    partials (dupes never ship), then ONE ANTI join against the parent
    key column, and the per-key counts sum additively into a one-row
    total. The FK results union into a single |FKs|-sized dataset.
    ``bloom_bits`` stays OFF by default: on a CLEAN corpus every child
    key is bloom-positive, so the prefilter saves nothing and costs a
    second pass over each child — turn it on only when orphans are
    expected to dominate."""
    from ray.data.aggregate import Sum

    outs = []
    for relation, child, child_key, parent, parent_key in child_parent:
        def ck_part(t: pa.Table, _k=child_key) -> pa.Table:
            k = t.column(_k).combine_chunks() \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            keys, counts = _segsum(k, np.ones(k.size, dtype=np.int64))
            return pa.table({"k": pa.array(keys),
                             "n": pa.array(counts)})

        def pk_proj(t: pa.Table, _k=parent_key) -> pa.Table:
            return pa.table({"k": pc.cast(t.column(_k), pa.int64())})

        ch = child.map_batches(ck_part, batch_format="pyarrow",
                               **rayenv.remote_args())
        pr = parent.map_batches(pk_proj, batch_format="pyarrow",
                                **rayenv.remote_args())
        orphans = hash_join(ch, pr, on="k", how="anti", buckets=buckets,
                            bloom_bits=bloom_bits)

        def total(t: pa.Table, _r=relation) -> pa.Table:
            n = int(pc.sum(t.column("n")).as_py() or 0) \
                if "n" in t.column_names else 0
            return pa.table({"relation": pa.array([_r], pa.string()),
                             "n_orphan_rows": pa.array([n], pa.int64())})

        outs.append(orphans.map_batches(total, batch_format="pyarrow",
                                        **rayenv.remote_args()))

    # guaranteed zero row per FK: an all-clean anti join yields ZERO
    # blocks, so its relation would silently vanish from the union
    import ray.data as rd
    baseline = rd.from_arrow(pa.table({
        "relation": pa.array([cp[0] for cp in child_parent], pa.string()),
        "n_orphan_rows": pa.array([0] * len(child_parent), pa.int64())}))

    acc = baseline
    for o in outs:
        acc = acc.union(o)
    return (acc.groupby("relation")
            .aggregate(Sum("n_orphan_rows", alias_name="n_orphan_rows")))


def promo_revenue_share(lineitem, part, date_lo: str = "1997-01-01",
                        date_hi: str = "1997-02-01",
                        promo_type: str = "PROMO", buckets: int = 32):
    """TPC-H-Q14-shaped promotion share: of the revenue shipped in
    ``[date_lo, date_hi)``, what fraction came from promo-typed parts —
    the conditional-aggregate-ratio shape. The share is exact FLOOR
    basis points computed in arbitrary-precision Python ints
    (``promo * 10000 // total``), matching SQL's HUGEINT ``//`` — no
    float division at any width. Output one row
    ``(promo_rev_scaled, total_rev_scaled, promo_share_bp)``.

    Scale shape: the date filter prunes lineitem at the batch level;
    (partkey, rev) partials take ONE bucketed join to the part type;
    each joined block collapses to a (promo, total) pair and the
    single-block final does the exact division."""
    lo, hi = np.datetime64(date_lo), np.datetime64(date_hi)

    def li_part(t: pa.Table) -> pa.Table:
        sd = t.column("l_shipdate").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        mask = (sd >= lo) & (sd < hi)
        sel = pa.array(mask)
        pk = t.column("l_partkey").filter(sel).combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        cents = np.rint(t.column("l_extendedprice").filter(sel)
                        .combine_chunks()
                        .to_numpy(zero_copy_only=False) * 100) \
            .astype(np.int64)
        bp = np.rint(t.column("l_discount").filter(sel).combine_chunks()
                     .to_numpy(zero_copy_only=False) * 100) \
            .astype(np.int64)
        keys, totals = _segsum(pk, cents * (100 - bp))
        return pa.table({"pk": pa.array(keys),
                         "rev_scaled": pa.array(totals)})

    li = lineitem.map_batches(li_part, batch_format="pyarrow",
                              **rayenv.remote_args())

    def part_proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "pk": pc.cast(t.column("p_partkey"), pa.int64()),
            "p_type": t.column("p_type")})

    pt = part.map_batches(part_proj, batch_format="pyarrow",
                          **rayenv.remote_args())
    j = hash_join(li, pt, on="pk", buckets=buckets)

    def pair(t: pa.Table) -> pa.Table:
        rev = t.column("rev_scaled").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        promo = pc.equal(t.column("p_type"), promo_type) \
            .combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table({
            "promo": pa.array([int(rev[promo].sum())], pa.int64()),
            "total": pa.array([int(rev.sum())], pa.int64())})

    def final(t: pa.Table) -> pa.Table:
        empty = "promo" not in t.column_names
        p = 0 if empty else int(pc.sum(t.column("promo")).as_py() or 0)
        tot = 0 if empty else int(pc.sum(t.column("total")).as_py() or 0)
        share = (p * 10000) // tot if tot else 0  # exact Python ints
        return pa.table({
            "promo_rev_scaled": pa.array([p], pa.int64()),
            "total_rev_scaled": pa.array([tot], pa.int64()),
            "promo_share_bp": pa.array([share], pa.int64())})

    return (j.map_batches(pair, batch_format="pyarrow",
                          **rayenv.remote_args())
            .repartition(1)
            .map_batches(final, batch_format="pyarrow",
                         **rayenv.remote_args()))


def monthly_revenue_delta(orders):
    """Month-over-month order revenue deltas — a window function OVER an
    aggregate (the report layered on :func:`orders_by_month_priority`'s
    family): per calendar month, total cents, the previous month's
    total and the exact difference. Output
    ``(ym, total_cents, prev_cents, delta_cents)`` with the first month
    carrying prev/delta 0 (COALESCE semantics, mirrored in the oracle).

    Scale shape: the corpus collapses to per-batch (month, cents)
    partials and one months-domain-sized groupby; the lag/delta pass
    runs on the SINGLE month-sized block — a window over an aggregate
    adds no corpus exchange."""
    from ray.data.aggregate import Sum

    def part(t: pa.Table) -> pa.Table:
        d = t.column("o_orderdate").combine_chunks()
        ym = pc.add(pc.multiply(pc.cast(pc.year(d), pa.int64()), 100),
                    pc.cast(pc.month(d), pa.int64()))
        cents = np.rint(t.column("o_totalprice").combine_chunks()
                        .to_numpy(zero_copy_only=False) * 100) \
            .astype(np.int64)
        g = pa.table({"ym": ym, "total_cents": pa.array(cents)}) \
            .group_by("ym").aggregate([("total_cents", "sum")])
        return pa.table({"ym": g.column("ym"),
                         "total_cents": g.column("total_cents_sum")})

    monthly = (orders.map_batches(part, batch_format="pyarrow",
                                  **rayenv.remote_args())
               .groupby("ym")
               .aggregate(Sum("total_cents", alias_name="total_cents")))

    def lag_pass(t: pa.Table) -> pa.Table:
        ym = t.column("ym").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        tc = t.column("total_cents").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(ym)
        ym, tc = ym[order], tc[order]
        prev = np.concatenate(([0], tc[:-1]))
        return pa.table({"ym": pa.array(ym),
                         "total_cents": pa.array(tc),
                         "prev_cents": pa.array(prev),
                         "delta_cents": pa.array(tc - prev)})

    return monthly.repartition(1).map_batches(
        lag_pass, batch_format="pyarrow", **rayenv.remote_args())


def premium_only_customers(orders, min_cents: int = 5_000_000,
                           buckets: int = 32):
    """Customers whose EVERY order is at least ``min_cents`` — the SQL
    ALL-quantifier shape, resolved as ``HAVING min(total) >= X`` over a
    pre-aggregation (a universal condition becomes a min aggregate).
    Output ``(o_custkey, n_orders, min_cents_seen, total_cents)``.

    Scale shape: per-batch (custkey, min, n, sum) partials — min is
    associative, so batches collapse before the ONE customer-keyed
    groupby; the HAVING filter is a stateless map on the aggregate."""
    from ray.data.aggregate import Min, Sum

    def part(t: pa.Table) -> pa.Table:
        ck = t.column("o_custkey").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        cents = np.rint(t.column("o_totalprice").combine_chunks()
                        .to_numpy(zero_copy_only=False) * 100) \
            .astype(np.int64)
        g = pa.table({"ck": pa.array(ck),
                      "min_cents_seen": pa.array(cents),
                      "total_cents": pa.array(cents),
                      "n_orders": pa.array(np.ones(ck.size, np.int64))}) \
            .group_by("ck").aggregate([("min_cents_seen", "min"),
                                       ("total_cents", "sum"),
                                       ("n_orders", "sum")])
        return pa.table({"ck": g.column("ck"),
                         "min_cents_seen": g.column("min_cents_seen_min"),
                         "total_cents": g.column("total_cents_sum"),
                         "n_orders": g.column("n_orders_sum")})

    per_cust = (orders.map_batches(part, batch_format="pyarrow",
                                   **rayenv.remote_args())
                .groupby("ck")
                .aggregate(Min("min_cents_seen",
                               alias_name="min_cents_seen"),
                           Sum("total_cents", alias_name="total_cents"),
                           Sum("n_orders", alias_name="n_orders")))

    def having(t: pa.Table) -> pa.Table:
        m = t.column("min_cents_seen").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        sel = pa.array(m >= min_cents)
        return pa.table({
            "o_custkey": t.column("ck").filter(sel),
            "n_orders": t.column("n_orders").filter(sel),
            "min_cents_seen": t.column("min_cents_seen").filter(sel),
            "total_cents": t.column("total_cents").filter(sel)})

    return per_cust.map_batches(having, batch_format="pyarrow",
                                **rayenv.remote_args())


def ship_lag_histogram(lineitem, orders, buckets: int = 32):
    """Order-to-ship lag distribution: exact whole-day differences
    between each lineitem's ship date and its order's order date,
    histogrammed — the fulfillment-latency report. Output
    ``(lag_days, n)``.

    Scale shape: lineitem collapses in-batch to (orderkey, shipday,
    n) partials — the (key, value)-pair domain per batch; ONE bucketed
    join attaches the order day; per-block lag histograms collapse to
    the lag domain before the tiny final groupby."""
    from ray.data.aggregate import Sum

    def li_part(t: pa.Table) -> pa.Table:
        ok = t.column("l_orderkey").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        sd = t.column("l_shipdate").combine_chunks()
        from .windows import _epoch_seconds_floor
        sday = _epoch_seconds_floor(sd) // np.int64(86400)
        g = pa.table({"ok": pa.array(ok), "sday": pa.array(sday),
                      "n": pa.array(np.ones(ok.size, np.int64))}) \
            .group_by(["ok", "sday"]).aggregate([("n", "sum")])
        return pa.table({"ok": g.column("ok"),
                         "sday": g.column("sday"),
                         "n": g.column("n_sum")})

    li = lineitem.map_batches(li_part, batch_format="pyarrow",
                              **rayenv.remote_args())

    def ord_proj(t: pa.Table) -> pa.Table:
        from .windows import _epoch_seconds_floor
        oday = _epoch_seconds_floor(
            t.column("o_orderdate").combine_chunks()) // np.int64(86400)
        return pa.table({
            "ok": pc.cast(t.column("o_orderkey"), pa.int64()),
            "oday": pa.array(oday)})

    od = orders.map_batches(ord_proj, batch_format="pyarrow",
                            **rayenv.remote_args())
    j = hash_join(li, od, on="ok", buckets=buckets)

    def hist(t: pa.Table) -> pa.Table:
        lag = (t.column("sday").combine_chunks()
               .to_numpy(zero_copy_only=False)
               - t.column("oday").combine_chunks()
               .to_numpy(zero_copy_only=False)).astype(np.int64)
        n = t.column("n").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        keys, totals = _segsum(lag, n)
        return pa.table({"lag_days": pa.array(keys),
                         "n": pa.array(totals)})

    return (j.map_batches(hist, batch_format="pyarrow",
                          **rayenv.remote_args())
            .groupby("lag_days").aggregate(Sum("n", alias_name="n")))


def _segmax(k: np.ndarray, v: np.ndarray):
    """Group-max of int64 ``v`` by int64 key ``k``: returns
    (distinct_keys, per_key_max). Sort + reduceat — the in-batch
    collapse kernel for EXISTS-style predicates (EXISTS(pred(x)) over a
    group == pred holds for the group max/min)."""
    order = np.argsort(k, kind="stable")
    ks, vs = k[order], v[order]
    new = np.ones(ks.size, dtype=bool)
    if ks.size > 1:
        new[1:] = ks[1:] != ks[:-1]
    seg = np.flatnonzero(new)
    if not ks.size:
        return ks[:0], vs[:0]
    return ks[seg], np.maximum.reduceat(vs, seg)


def late_ship_priority(lineitem, orders, grace_days: int = 60,
                       buckets: int = 32):
    """TPC-H-Q4-shaped EXISTS count: orders with at least one lineitem
    shipped more than ``grace_days`` after the order date, counted per
    order priority. Output ``(o_orderpriority, n_late_orders)``.

    Scale shape: EXISTS(shipdate > odate + g) over an order's lines is
    equivalent to max(shipdate) > odate + g, so lineitem collapses
    in-batch to (orderkey, max_ship_us) partials — raw lines never
    ship; ONE bucketed orderkey join attaches (odate, priority);
    because partials from different batches can repeat an orderkey,
    the satisfied rows go through the exact-distinct machinery
    (:func:`rwcf.analytics.grouped_distinct_pairs`, additive over
    disjoint hash buckets) so each order counts once; the final is
    priority-sized.

    Reference scope note: the reference engine (src/lib.rs:25-48) has
    no joins; this is part of the mandated training-data extension."""
    from .analytics import grouped_distinct_pairs

    def li_part(t: pa.Table) -> pa.Table:
        ok = t.column("l_orderkey").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        ship = t.column("l_shipdate").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype("datetime64[us]") \
            .astype(np.int64)
        keys, mx = _segmax(ok, ship)
        return pa.table({"ok": pa.array(keys),
                         "max_ship_us": pa.array(mx)})

    li = lineitem.map_batches(li_part, batch_format="pyarrow",
                              **rayenv.remote_args())

    def ord_proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "ok": pc.cast(t.column("o_orderkey"), pa.int64()),
            "odate_us": pc.cast(t.column("o_orderdate"),
                                pa.timestamp("us")).cast(pa.int64()),
            "o_orderpriority": t.column("o_orderpriority")})

    od = orders.map_batches(ord_proj, batch_format="pyarrow",
                            **rayenv.remote_args())
    j = hash_join(li, od, on="ok", buckets=buckets)
    grace_us = np.int64(grace_days) * np.int64(86_400_000_000)

    def satisfied(t: pa.Table) -> pa.Table:
        ms = t.column("max_ship_us").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        od_ = t.column("odate_us").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        keep = pa.array(ms > od_ + grace_us)
        return pa.table({
            "o_orderpriority": t.column("o_orderpriority").filter(keep),
            "ok": t.column("ok").filter(keep)})

    sat = j.map_batches(satisfied, batch_format="pyarrow",
                        **rayenv.remote_args())

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns(
            ["n_late_orders" if c == "n_distinct" else c
             for c in t.column_names])

    return grouped_distinct_pairs(sat, "o_orderpriority", "ok",
                                  buckets=buckets) \
        .map_batches(rename, batch_format="pyarrow",
                     **rayenv.remote_args())


def market_share_by_year(lineitem, orders, supplier,
                         target_nationkey: int = 3, buckets: int = 32):
    """TPC-H-Q8-shaped market share: the share (exact floor basis
    points) of revenue supplied by ``target_nationkey``'s suppliers in
    ALL revenue, per order year. Output
    ``(o_year, target_rev_scaled, total_rev_scaled, share_bp)`` with
    ``share_bp = target*10000 // total`` (Python int floor division ==
    DuckDB HUGEINT ``//``).

    Scale shape: supplier broadcasts as a suppkey -> is-target int map
    (same broadcast rule as :func:`nation_trade_volume`); lineitem
    collapses in-batch to (orderkey, is_target, rev) partials; ONE
    bucketed orderkey join attaches the order year; the post-join
    collapse is (year, is_target)-sized, so the final groupby
    exchanges a handful of rows; the share division happens on the
    years-sized result."""
    import ray

    st = supplier.select_columns(["s_suppkey", "s_nationkey"]).to_pandas()
    tgt_ref = ray.put(set(
        st.loc[st["s_nationkey"].astype(np.int64)
               == np.int64(target_nationkey),
               "s_suppkey"].astype(np.int64).tolist()))

    def li_part(t: pa.Table) -> pa.Table:
        tgt = ray.get(tgt_ref)
        ok = t.column("l_orderkey").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        sk = t.column("l_suppkey").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        u, inv = np.unique(sk, return_inverse=True)
        is_t = (np.array([int(x) in tgt for x in u], dtype=np.int64)[inv]
                if u.size else np.empty(0, np.int64))
        cents = np.rint(t.column("l_extendedprice").combine_chunks()
                        .to_numpy(zero_copy_only=False) * 100) \
            .astype(np.int64)
        bp = np.rint(t.column("l_discount").combine_chunks()
                     .to_numpy(zero_copy_only=False) * 100) \
            .astype(np.int64)
        g = pa.table({"ok": pa.array(ok), "is_t": pa.array(is_t),
                      "rev_scaled": pa.array(cents * (100 - bp))}) \
            .group_by(["ok", "is_t"]).aggregate([("rev_scaled", "sum")])
        return pa.table({"ok": g.column("ok"), "is_t": g.column("is_t"),
                         "rev_scaled": g.column("rev_scaled_sum")})

    li = lineitem.map_batches(li_part, batch_format="pyarrow",
                              **rayenv.remote_args())

    def ord_proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "ok": pc.cast(t.column("o_orderkey"), pa.int64()),
            "o_year": pc.cast(pc.year(t.column("o_orderdate")),
                              pa.int64())})

    od = orders.map_batches(ord_proj, batch_format="pyarrow",
                            **rayenv.remote_args())
    j = hash_join(li, od, on="ok", buckets=buckets)

    def year_part(t: pa.Table) -> pa.Table:
        g = t.select(["o_year", "is_t", "rev_scaled"]) \
            .group_by(["o_year", "is_t"]) \
            .aggregate([("rev_scaled", "sum")])
        return pa.table({"o_year": g.column("o_year"),
                         "is_t": g.column("is_t"),
                         "rev_scaled": g.column("rev_scaled_sum")})

    from ray.data.aggregate import Sum
    agg = (j.map_batches(year_part, batch_format="pyarrow",
                         **rayenv.remote_args())
           .groupby(["o_year", "is_t"])
           .aggregate(Sum("rev_scaled", alias_name="rev_scaled")))

    def share(t: pa.Table) -> pa.Table:
        # years x {0,1} rows: pivot the is_target axis and divide
        yr = t.column("o_year").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        it = t.column("is_t").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        rv = t.column("rev_scaled").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        years = np.unique(yr)
        tgt = np.zeros(years.size, np.int64)
        tot = np.zeros(years.size, np.int64)
        idx = np.searchsorted(years, yr)
        np.add.at(tot, idx, rv)
        np.add.at(tgt, idx, rv * it)
        bp = np.array([(int(a) * 10000) // int(b) if b else 0
                       for a, b in zip(tgt, tot)], np.int64)
        return pa.table({"o_year": pa.array(years),
                         "target_rev_scaled": pa.array(tgt),
                         "total_rev_scaled": pa.array(tot),
                         "share_bp": pa.array(bp)})

    # the years x 2 result is tiny: collapse it in one batch
    return agg.repartition(1).map_batches(share, batch_format="pyarrow",
                                          **rayenv.remote_args())


def profit_by_nation_year(lineitem, orders, supplier, nation, part,
                          name_pattern: str = "ar", buckets: int = 32):
    """TPC-H-Q9-shaped profit rollup (no partsupp on this schema):
    revenue from lineitems whose PART NAME contains ``name_pattern``,
    grouped by supplier nation and order year. Output
    ``(n_name, o_year, rev_scaled)``.

    Scale shape: the part side filters to matching partkeys IN-BATCH
    (pattern match never leaves the read stage) and rides a bucketed
    SEMI join against lineitem with ``bloom_bits`` pruning the exchange
    upstream of the bucket shuffle (the Bloom filter of matching keys is
    MB-scale regardless of part-table size — :func:`rwcf.joins.hash_join`
    builds it from the right side). Supplier broadcasts as suppkey ->
    nationkey; the surviving lines collapse in-batch to
    (orderkey, nat, rev) partials; ONE bucketed orderkey join attaches
    the year; final is |nations| x |years|."""
    import ray

    st = supplier.select_columns(["s_suppkey", "s_nationkey"]).to_pandas()
    smap_ref = ray.put(dict(zip(st["s_suppkey"].astype(np.int64),
                                st["s_nationkey"].astype(np.int64))))

    def li_proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "pk": pc.cast(t.column("l_partkey"), pa.int64()),
            "ok": pc.cast(t.column("l_orderkey"), pa.int64()),
            "sk": pc.cast(t.column("l_suppkey"), pa.int64()),
            "cents": pc.cast(pc.round(pc.multiply(
                t.column("l_extendedprice"), 100.0)), pa.int64()),
            "bp": pc.cast(pc.round(pc.multiply(
                t.column("l_discount"), 100.0)), pa.int64())})

    li = lineitem.map_batches(li_proj, batch_format="pyarrow",
                              **rayenv.remote_args())

    def part_keys(t: pa.Table) -> pa.Table:
        keep = pc.match_substring(t.column("p_name"), name_pattern)
        return pa.table({"pk": pc.cast(
            t.column("p_partkey").filter(keep), pa.int64())})

    pk = part.map_batches(part_keys, batch_format="pyarrow",
                          **rayenv.remote_args())
    matched = hash_join(li, pk, on="pk", how="semi", buckets=buckets,
                        bloom_bits=1 << 20)

    def li_part(t: pa.Table) -> pa.Table:
        smap = ray.get(smap_ref)
        sk = t.column("sk").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        u, inv = np.unique(sk, return_inverse=True)
        nat = (np.array([smap[int(x)] for x in u], dtype=np.int64)[inv]
               if u.size else np.empty(0, np.int64))
        cents = t.column("cents").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        bp = t.column("bp").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        g = pa.table({"ok": t.column("ok"), "nat": pa.array(nat),
                      "rev_scaled": pa.array(cents * (100 - bp))}) \
            .group_by(["ok", "nat"]).aggregate([("rev_scaled", "sum")])
        return pa.table({"ok": g.column("ok"), "nat": g.column("nat"),
                         "rev_scaled": g.column("rev_scaled_sum")})

    lp = matched.map_batches(li_part, batch_format="pyarrow",
                             **rayenv.remote_args())

    def ord_proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "ok": pc.cast(t.column("o_orderkey"), pa.int64()),
            "o_year": pc.cast(pc.year(t.column("o_orderdate")),
                              pa.int64())})

    od = orders.map_batches(ord_proj, batch_format="pyarrow",
                            **rayenv.remote_args())
    j = hash_join(lp, od, on="ok", buckets=buckets)

    nt = nation.select_columns(["n_nationkey", "n_name"]).to_pandas()
    nmap_ref = ray.put(dict(zip(nt["n_nationkey"].astype(np.int64),
                                nt["n_name"])))

    def nat_part(t: pa.Table) -> pa.Table:
        nmap = ray.get(nmap_ref)
        nat = t.column("nat").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        u, inv = np.unique(nat, return_inverse=True)
        names = (np.array([nmap[int(x)] for x in u], dtype=object)[inv]
                 if u.size else np.empty(0, object))
        g = pa.table({"n_name": pa.array(names, pa.string()),
                      "o_year": t.column("o_year"),
                      "rev_scaled": t.column("rev_scaled")}) \
            .group_by(["n_name", "o_year"]) \
            .aggregate([("rev_scaled", "sum")])
        return pa.table({"n_name": g.column("n_name"),
                         "o_year": g.column("o_year"),
                         "rev_scaled": g.column("rev_scaled_sum")})

    from ray.data.aggregate import Sum
    return (j.map_batches(nat_part, batch_format="pyarrow",
                          **rayenv.remote_args())
            .groupby(["n_name", "o_year"])
            .aggregate(Sum("rev_scaled", alias_name="rev_scaled")))


def important_brands(lineitem, part, threshold_bp: int = 400,
                     buckets: int = 32):
    """TPC-H-Q11-shaped HAVING-vs-global-total filter (no partsupp on
    this schema): brands whose total shipped quantity exceeds
    ``threshold_bp`` basis points of the GLOBAL shipped quantity.
    Output ``(p_brand, qty_sum)`` with qty as exact int64 (quantities
    are integral in the domain) — kept iff
    ``qty_sum * 10000 > total * threshold_bp`` (cross-multiplied, no
    division).

    Scale shape: lineitem collapses in-batch to (partkey, qty) partials;
    ONE bucketed join attaches the brand; per-batch brand partials feed
    a brand-sized groupby, and the global total is the sum of that
    SAME small result — computed in one final single-batch kernel, so
    no second pass over the fact table."""
    def li_part(t: pa.Table) -> pa.Table:
        k = t.column("l_partkey").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        q = np.rint(t.column("l_quantity").combine_chunks()
                    .to_numpy(zero_copy_only=False)).astype(np.int64)
        keys, totals = _segsum(k, q)
        return pa.table({"pk": pa.array(keys), "qty": pa.array(totals)})

    li = lineitem.map_batches(li_part, batch_format="pyarrow",
                              **rayenv.remote_args())

    def part_proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "pk": pc.cast(t.column("p_partkey"), pa.int64()),
            "p_brand": t.column("p_brand")})

    pt = part.map_batches(part_proj, batch_format="pyarrow",
                          **rayenv.remote_args())
    j = hash_join(li, pt, on="pk", buckets=buckets)

    def brand_part(t: pa.Table) -> pa.Table:
        g = t.select(["p_brand", "qty"]).group_by("p_brand") \
            .aggregate([("qty", "sum")])
        return pa.table({"p_brand": g.column("p_brand"),
                         "qty": g.column("qty_sum")})

    from ray.data.aggregate import Sum
    agg = (j.map_batches(brand_part, batch_format="pyarrow",
                         **rayenv.remote_args())
           .groupby("p_brand").aggregate(Sum("qty", alias_name="qty")))

    thr = int(threshold_bp)

    def keep_important(t: pa.Table) -> pa.Table:
        q = t.column("qty").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        total = int(q.sum())
        keep = pa.array(q * 10000 > total * thr)
        return pa.table({"p_brand": t.column("p_brand").filter(keep),
                         "qty_sum": t.column("qty").filter(keep)})

    # the brand rollup is |brands|-sized: one batch holds it all, so the
    # global total is in-kernel — no broadcast round-trip needed
    return agg.repartition(1).map_batches(
        keep_important, batch_format="pyarrow", **rayenv.remote_args())


def bulk_suppliers(lineitem, supplier, part, max_size: int = 10,
                   min_qty: int = 500, buckets: int = 32):
    """TPC-H-Q20-shaped nested-aggregate semi filter: suppliers whose
    TOTAL shipped quantity of small parts (``p_size <= max_size``)
    exceeds ``min_qty``. Output ``(s_name, qty_sum)``.

    Scale shape: part filters in-batch to matching partkeys and rides a
    Bloom-pruned bucketed SEMI join against (partkey, suppkey, qty)
    partials; survivors collapse to per-suppkey sums (in-batch partial
    then ONE suppkey-sized groupby); the threshold filter runs on that
    supplier-sized result before a final bucketed join attaches the
    supplier name — so names only ship for qualifying suppliers."""
    def li_part(t: pa.Table) -> pa.Table:
        g = pa.table({
            "pk": pc.cast(t.column("l_partkey"), pa.int64()),
            "sk": pc.cast(t.column("l_suppkey"), pa.int64()),
            "qty": pc.cast(pc.round(t.column("l_quantity")),
                           pa.int64())}) \
            .group_by(["pk", "sk"]).aggregate([("qty", "sum")])
        return pa.table({"pk": g.column("pk"), "sk": g.column("sk"),
                         "qty": g.column("qty_sum")})

    li = lineitem.map_batches(li_part, batch_format="pyarrow",
                              **rayenv.remote_args())

    def part_keys(t: pa.Table) -> pa.Table:
        keep = pc.less_equal(t.column("p_size"), max_size)
        return pa.table({"pk": pc.cast(
            t.column("p_partkey").filter(keep), pa.int64())})

    pk = part.map_batches(part_keys, batch_format="pyarrow",
                          **rayenv.remote_args())
    matched = hash_join(li, pk, on="pk", how="semi", buckets=buckets,
                        bloom_bits=1 << 20)

    def sk_part(t: pa.Table) -> pa.Table:
        k = t.column("sk").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        q = t.column("qty").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        keys, totals = _segsum(k, q)
        return pa.table({"sk": pa.array(keys), "qty": pa.array(totals)})

    from ray.data.aggregate import Sum
    agg = (matched.map_batches(sk_part, batch_format="pyarrow",
                               **rayenv.remote_args())
           .groupby("sk").aggregate(Sum("qty", alias_name="qty_sum")))

    thr = int(min_qty)

    def over(t: pa.Table) -> pa.Table:
        keep = pc.greater(t.column("qty_sum"), thr)
        return pa.table({"sk": t.column("sk").filter(keep),
                         "qty_sum": t.column("qty_sum").filter(keep)})

    qualified = agg.map_batches(over, batch_format="pyarrow",
                                **rayenv.remote_args())

    def sup_proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "sk": pc.cast(t.column("s_suppkey"), pa.int64()),
            "s_name": t.column("s_name")})

    su = supplier.map_batches(sup_proj, batch_format="pyarrow",
                              **rayenv.remote_args())
    j = hash_join(qualified, su, on="sk", buckets=buckets)
    return j.select_columns(["s_name", "qty_sum"])


def sole_return_suppliers(lineitem, supplier, buckets: int = 32):
    """TPC-H-Q21-shaped per-order sole-fault analysis: in orders served
    by >= 2 distinct suppliers, find the supplier who was the ONLY one
    with a returned line (``l_returnflag = 'R'``), and count such
    orders per supplier. Output ``(s_name, n_orders)`` for suppliers
    with at least one such order.

    Scale shape: lineitem collapses in-batch to distinct
    (orderkey, suppkey, had_R) partials (had_R ORs across a pair's
    lines); ONE hash(orderkey) exchange makes each order bucket-local;
    the in-bucket kernel re-ORs pair partials, then a segmented numpy
    pass finds orders with >= 2 suppliers and exactly one R-supplier —
    emitting (suppkey, 1) rows only for those; a supplier-sized count
    groupby and a name join finish."""
    from .joins import exchange

    def li_part(t: pa.Table) -> pa.Table:
        g = pa.table({
            "ok": pc.cast(t.column("l_orderkey"), pa.int64()),
            "sk": pc.cast(t.column("l_suppkey"), pa.int64()),
            "had_r": pc.cast(pc.equal(t.column("l_returnflag"), "R"),
                             pa.int64())}) \
            .group_by(["ok", "sk"]).aggregate([("had_r", "max")])
        return pa.table({"ok": g.column("ok"), "sk": g.column("sk"),
                         "had_r": g.column("had_r_max")})

    def bucket_kernel(g: pa.Table) -> pa.Table:
        m = g.select(["ok", "sk", "had_r"]).group_by(["ok", "sk"]) \
            .aggregate([("had_r", "max")])
        ok = m.column("ok").to_numpy(zero_copy_only=False)
        sk = m.column("sk").to_numpy(zero_copy_only=False)
        hr = m.column("had_r_max").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        order = np.argsort(ok, kind="stable")
        ok, sk, hr = ok[order], sk[order], hr[order]
        new = np.ones(ok.size, dtype=bool)
        if ok.size > 1:
            new[1:] = ok[1:] != ok[:-1]
        seg = np.flatnonzero(new)
        counts = np.diff(np.append(seg, ok.size))
        n_r = np.add.reduceat(hr, seg)
        # qualifying orders: >=2 suppliers, exactly one with a return
        qual = (counts >= 2) & (n_r == 1)
        # the sole R-supplier of each qualifying order
        grp_id = np.repeat(np.arange(seg.size), counts)
        pick = qual[grp_id] & (hr == 1)
        keys, totals = _segsum(sk[pick],
                               np.ones(int(pick.sum()), np.int64))
        return pa.table({"sk": pa.array(keys), "n": pa.array(totals)})

    from ray.data.aggregate import Sum
    agg = (exchange(lineitem.map_batches(li_part, batch_format="pyarrow",
                                         **rayenv.remote_args()),
                    bucket_kernel, buckets=buckets, keys=["ok"],
                    schema=pa.schema([("sk", pa.int64()), ("n", pa.int64())]))
           .groupby("sk").aggregate(Sum("n", alias_name="n_orders")))

    def sup_proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "sk": pc.cast(t.column("s_suppkey"), pa.int64()),
            "s_name": t.column("s_name")})

    su = supplier.map_batches(sup_proj, batch_format="pyarrow",
                              **rayenv.remote_args())
    j = hash_join(agg, su, on="sk", buckets=buckets)
    return j.select_columns(["s_name", "n_orders"])


def cheapest_supplier_per_brand(lineitem, supplier, part,
                                buckets: int = 32):
    """TPC-H-Q2-shaped per-group argmin over a join (no partsupp on
    this schema): for each part brand, the supplier with the LOWEST
    account balance among suppliers who ever shipped that brand, ties
    broken on the smaller suppkey. Output
    ``(p_brand, s_name, acctbal_cents)`` — balance in exact cents.

    Scale shape: lineitem collapses in-batch to distinct
    (partkey, suppkey) pairs; one bucketed join swaps partkey for
    brand; pairs re-collapse to distinct (brand, suppkey) and a second
    bucketed join (on suppkey) attaches (acctbal_cents, name);
    per-batch partials then keep only the lexicographic
    (acctbal, suppkey) min PER BRAND, so the final single-batch kernel
    folds a <=|brands|-per-batch stream — the argmin never ships raw
    pairs to the driver."""
    def li_pairs(t: pa.Table) -> pa.Table:
        return pa.table({
            "pk": pc.cast(t.column("l_partkey"), pa.int64()),
            "sk": pc.cast(t.column("l_suppkey"), pa.int64())}) \
            .group_by(["pk", "sk"]).aggregate([])

    li = lineitem.map_batches(li_pairs, batch_format="pyarrow",
                              **rayenv.remote_args())

    def part_proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "pk": pc.cast(t.column("p_partkey"), pa.int64()),
            "p_brand": t.column("p_brand")})

    pt = part.map_batches(part_proj, batch_format="pyarrow",
                          **rayenv.remote_args())
    j1 = hash_join(li, pt, on="pk", buckets=buckets)

    def brand_pairs(t: pa.Table) -> pa.Table:
        return t.select(["p_brand", "sk"]).group_by(["p_brand", "sk"]) \
            .aggregate([])

    bp = j1.map_batches(brand_pairs, batch_format="pyarrow",
                        **rayenv.remote_args())

    def sup_proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "sk": pc.cast(t.column("s_suppkey"), pa.int64()),
            "s_name": t.column("s_name"),
            "acctbal_cents": pc.cast(pc.round(pc.multiply(
                t.column("s_acctbal"), 100.0)), pa.int64())})

    su = supplier.map_batches(sup_proj, batch_format="pyarrow",
                              **rayenv.remote_args())
    j2 = hash_join(bp, su, on="sk", buckets=buckets)

    def argmin_partial(t: pa.Table) -> pa.Table:
        br = t.column("p_brand").to_numpy(zero_copy_only=False)
        ab = t.column("acctbal_cents").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        sk = t.column("sk").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        nm = t.column("s_name").to_numpy(zero_copy_only=False)
        order = np.lexsort((sk, ab, br))
        br, ab, sk, nm = br[order], ab[order], sk[order], nm[order]
        new = np.ones(br.size, dtype=bool)
        if br.size > 1:
            new[1:] = br[1:] != br[:-1]
        first = np.flatnonzero(new)
        return pa.table({
            "p_brand": pa.array(br[first], pa.string()),
            "acctbal_cents": pa.array(ab[first]),
            "sk": pa.array(sk[first]),
            "s_name": pa.array(nm[first], pa.string())})

    partials = j2.map_batches(argmin_partial, batch_format="pyarrow",
                              **rayenv.remote_args())

    def final(t: pa.Table) -> pa.Table:
        m = argmin_partial(t)
        return pa.table({"p_brand": m.column("p_brand"),
                         "s_name": m.column("s_name"),
                         "acctbal_cents": m.column("acctbal_cents")})

    # partials are <=|brands| rows per batch: the fold is tiny
    return partials.repartition(1).map_batches(
        final, batch_format="pyarrow", **rayenv.remote_args())


def exists_orders_by_priority(orders, lineitem, returnflag: str = "R",
                              buckets: int = 32):
    """TPC-H-Q4-shaped EXISTS: count orders per priority that have AT
    LEAST ONE lineitem matching a predicate (here l_returnflag =
    ``returnflag``) — ``WHERE EXISTS (subquery)`` realized as a
    distributed SEMI join. Scale shape: the lineitem side collapses to
    DISTINCT matching orderkeys in-batch (a semi join needs membership,
    not rows), the semi join ships those key-only rows through one
    bucketed exchange, and the surviving orders aggregate per priority
    (priority-domain-sized final)."""
    from ray.data.aggregate import Sum

    def li_keys(t: pa.Table) -> pa.Table:
        m = pc.equal(t.column("l_returnflag"), returnflag)
        keys = t.filter(m).column("l_orderkey").combine_chunks()
        return pa.table({"l_orderkey": keys.unique()})

    matches = lineitem.map_batches(li_keys, batch_format="pyarrow",
                                   **rayenv.remote_args())
    kept = hash_join(orders.select_columns(
        ["o_orderkey", "o_orderpriority"]), matches,
        on="o_orderkey", right_on="l_orderkey", buckets=buckets,
        how="semi")

    def part(t: pa.Table) -> pa.Table:
        g = t.group_by("o_orderpriority").aggregate([([], "count_all")])
        return pa.table({"o_orderpriority": g.column("o_orderpriority"),
                         "n": g.column("count_all")})

    agg = kept.map_batches(part, batch_format="pyarrow",
                           **rayenv.remote_args()) \
        .groupby("o_orderpriority").sum("n")
    import pandas as pd
    df = agg.to_pandas().rename(columns={"sum(n)": "order_count"})
    return df.sort_values("o_orderpriority", ignore_index=True)


def customer_distribution(orders, customer, buckets: int = 32):
    """TPC-H-Q13-shaped distribution INCLUDING the zero bucket:
    ``(c_count, custdist)`` where customers with no orders land in
    c_count = 0 — the part the inner-join histogram
    (:func:`customer_order_histogram`) cannot express. Scale shape:
    per-customer counts collapse in-batch, ONE bucketed LEFT join from
    the customer table fills the zero bucket null-safely (the join's
    null fill IS the zero), then a count-domain-sized histogram."""
    from ray.data.aggregate import Sum

    def ord_part(t: pa.Table) -> pa.Table:
        ck = t.column("o_custkey").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        keys, counts = _segsum(ck, np.ones(ck.size, dtype=np.int64))
        return pa.table({"ck": pa.array(keys), "n": pa.array(counts)})

    per_cust = (orders.map_batches(ord_part, batch_format="pyarrow",
                                   **rayenv.remote_args())
                .groupby("ck").sum("n"))

    def cnt_proj(t: pa.Table) -> pa.Table:
        return pa.table({"ck": t.column("ck"),
                         "n": pc.cast(t.column("sum(n)"), pa.int64())})

    counts = per_cust.map_batches(cnt_proj, batch_format="pyarrow",
                                  **rayenv.remote_args())
    j = hash_join(customer.select_columns(["c_custkey"]), counts,
                  on="c_custkey", right_on="ck", buckets=buckets,
                  how="left")

    def hist_part(t: pa.Table) -> pa.Table:
        n = pc.fill_null(t.column("n"), 0).combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        keys, counts_ = _segsum(n, np.ones(n.size, dtype=np.int64))
        return pa.table({"c_count": pa.array(keys),
                         "custdist": pa.array(counts_)})

    agg = j.map_batches(hist_part, batch_format="pyarrow",
                        **rayenv.remote_args()) \
        .groupby("c_count").sum("custdist")
    import pandas as pd
    df = agg.to_pandas().rename(columns={"sum(custdist)": "custdist"})
    df["c_count"] = df["c_count"].astype("int64")
    df["custdist"] = df["custdist"].astype("int64")
    return df.sort_values(["custdist", "c_count"],
                          ascending=[False, False], ignore_index=True)


def sole_failure_suppliers(lineitem, returnflag: str = "R",
                           k: int = 10, buckets: int = 32):
    """TPC-H-Q21-shaped double-quantifier: suppliers who, on
    multi-supplier orders, were the ONLY supplier with a failed
    (``l_returnflag = returnflag``) line — EXISTS(other supplier's
    line) AND NOT EXISTS(other supplier's failed line), counted per
    supplier, top-``k`` by count (suppkey tie-break). Scale shape: ONE
    bucketed shuffle on hash(orderkey); in-bucket both quantifiers
    resolve with vectorized segment arithmetic over the sorted
    (orderkey, suppkey) pairs — distinct-supplier counts and per-order
    failure totals, no per-order Python loop; only (suppkey, 1)
    partials leave the bucket."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .joins import hash_bucket

    def pairs(t: pa.Table) -> pa.Table:
        ok = t.column("l_orderkey").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        sk = t.column("l_suppkey").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        fail = pc.equal(t.column("l_returnflag"), returnflag) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        # distinct (order, supplier) with per-pair failure counts
        uok, usk, fsum = _pair_segsum(ok, sk, fail)
        # routed by order key here: this exchange runs without the
        # repartition cap, so it stays a plain groupby
        return pa.table({"ok": pa.array(uok), "sk": pa.array(usk),
                         "fails": pa.array(fsum),
                         "_b": pa.array(hash_bucket(uok, buckets=buckets))})

    rows = lineitem.select_columns(
        ["l_orderkey", "l_suppkey", "l_returnflag"]) \
        .map_batches(pairs, batch_format="pyarrow",
                     **rayenv.remote_args())

    def in_bucket(g: pa.Table) -> pa.Table:
        ok = g.column("ok").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        sk = g.column("sk").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        fl = g.column("fails").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        # cross-batch re-distinct (a pair may appear in several batches);
        # the result is sorted by order key, as the segments below need
        ok, sk, fsum = _pair_segsum(ok, sk, fl)
        starts = np.flatnonzero(np.concatenate(
            ([True], ok[1:] != ok[:-1])))
        seg = np.repeat(np.arange(starts.size),
                        np.diff(np.concatenate((starts, [ok.size]))))
        n_supp = np.bincount(seg)  # distinct suppliers per order
        f_tot = np.bincount(seg, weights=(fsum > 0))  # failing suppliers
        qual = (fsum > 0) & (n_supp[seg] >= 2) & (f_tot[seg] == 1)
        if not qual.any():
            return pa.table({"s_suppkey": pa.array([], pa.int64()),
                             "numwait": pa.array([], pa.int64())})
        qk, qn = _segsum(sk[qual], np.ones(int(qual.sum()),
                                           dtype=np.int64))
        return pa.table({"s_suppkey": pa.array(qk),
                         "numwait": pa.array(qn)})

    agg = rows.groupby("_b").map_groups(in_bucket, batch_format="pyarrow",
                                        **rayenv.remote_args()) \
        .groupby("s_suppkey").sum("numwait")
    import pandas as pd
    df = agg.to_pandas().rename(columns={"sum(numwait)": "numwait"})
    df["numwait"] = df["numwait"].astype("int64")
    df = df.sort_values(["numwait", "s_suppkey"],
                        ascending=[False, True], ignore_index=True)
    return df.head(k).reset_index(drop=True)
