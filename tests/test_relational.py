"""Composed multi-join rollups (rwcf.relational) vs the DuckDB oracle.

Reference scope note: the reference engine (src/lib.rs:25-48) has no
relational layer; this family is part of the mandated training-data
extension and is pinned against DuckDB on the driver's own parquet
fixtures.
"""

import os

import duckdb
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.mark.skipif(not os.path.exists(f"{SF}/lineitem.parquet"),
                    reason="driver testdata not present")
def test_revenue_by_nation_oracle(ray_session):
    import ray.data as rd

    from rwcf.relational import revenue_by_nation

    li = rd.read_parquet(f"{SF}/lineitem.parquet",
                         columns=["l_orderkey", "l_extendedprice",
                                  "l_discount"])
    od = rd.read_parquet(f"{SF}/orders.parquet",
                         columns=["o_orderkey", "o_custkey"])
    cu = rd.read_parquet(f"{SF}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"])
    na = rd.read_parquet(f"{SF}/nation.parquet",
                         columns=["n_nationkey", "n_name"])
    out = revenue_by_nation(li, od, cu, na, buckets=8).to_pandas() \
        .sort_values("n_name", ignore_index=True)

    con = duckdb.connect()
    ora = con.execute(f"""
        SELECT n_name, CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
               * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS BIGINT)
               AS rev_scaled
        FROM read_parquet('{SF}/lineitem.parquet') l
        JOIN read_parquet('{SF}/orders.parquet') o ON l_orderkey = o_orderkey
        JOIN read_parquet('{SF}/customer.parquet') c ON o_custkey = c_custkey
        JOIN read_parquet('{SF}/nation.parquet') n
             ON c_nationkey = n_nationkey
        GROUP BY n_name ORDER BY n_name""").fetchdf()
    pd.testing.assert_frame_equal(out, ora, check_dtype=False)
    # int64 exactness: the engine's money math never touches floats after
    # the per-value cents/bp rounding, so sums are bit-stable
    assert out["rev_scaled"].dtype.kind == "i"


def test_money_partial_collapses_batch(ray_session):
    # the fact side must leave its first map_batches as ONE row per
    # batch-local key with exact integer partials
    import numpy as np
    import pyarrow as pa

    from rwcf.relational import _money_partial

    t = pa.table({
        "l_orderkey": pa.array([3, 1, 3, 1, 2], pa.int64()),
        "l_extendedprice": pa.array([10.01, 20.02, 0.99, 5.00, 7.77]),
        "l_discount": pa.array([0.05, 0.10, 0.00, 0.04, 0.07]),
    })
    out = _money_partial(t, "l_orderkey", "l_extendedprice",
                         "l_discount", "ok").to_pandas() \
        .sort_values("ok", ignore_index=True)
    assert out["ok"].tolist() == [1, 2, 3]
    exp1 = 2002 * 90 + 500 * 96
    exp2 = 777 * 93
    exp3 = 1001 * 95 + 99 * 100
    assert out["rev_scaled"].tolist() == [exp1, exp2, exp3]
    assert out["rev_scaled"].dtype == np.int64


def test_top_customers_by_revenue(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from rwcf.relational import top_customers_by_revenue

    rng = np.random.default_rng(47)
    n_ord, n_li = 120, 600
    orders = pd.DataFrame({
        "o_orderkey": np.arange(n_ord, dtype=np.int64),
        "o_custkey": rng.integers(0, 25, n_ord).astype(np.int64),
    })
    li = pd.DataFrame({
        "l_orderkey": rng.integers(0, n_ord, n_li).astype(np.int64),
        "l_extendedprice": np.round(rng.uniform(1, 1000, n_li), 2),
        "l_discount": np.round(rng.integers(0, 11, n_li) / 100, 2),
    })
    out = top_customers_by_revenue(
        rd.from_pandas(li).repartition(4),
        rd.from_pandas(orders).repartition(2), k=10).to_pandas()
    cents = np.rint(li["l_extendedprice"].to_numpy() * 100).astype(np.int64)
    bp = np.rint(li["l_discount"].to_numpy() * 100).astype(np.int64)
    rev = pd.DataFrame({"o_orderkey": li["l_orderkey"],
                        "r": cents * (100 - bp)})
    per = rev.merge(orders, on="o_orderkey").groupby("o_custkey")["r"] \
        .sum().reset_index()
    per = per.sort_values(["r", "o_custkey"], ascending=[False, True],
                          ignore_index=True).head(10)
    assert out["c_custkey"].tolist() == per["o_custkey"].tolist()
    assert out["rev_scaled"].tolist() == per["r"].tolist()
    assert out["rank"].tolist() == list(range(1, 11))


def test_pricing_summary(ray_session):
    import duckdb
    import ray.data as rd

    li = rd.read_parquet("/root/testdata/sf0.001/lineitem.parquet")
    from rwcf.relational import pricing_summary
    out = pricing_summary(li).to_pandas() \
        .sort_values(["l_returnflag", "l_linestatus"],
                     ignore_index=True)
    exp = duckdb.sql(
        "SELECT l_returnflag, l_linestatus, "
        "sum(CAST(round(l_quantity) AS BIGINT)) AS sum_qty, "
        "sum(CAST(round(l_extendedprice*100) AS BIGINT)) AS sum_base_cents, "
        "sum(CAST(round(l_extendedprice*100) AS BIGINT) * "
        "(100 - CAST(round(l_discount*100) AS BIGINT))) AS sum_disc_scaled, "
        "sum(CAST(round(l_extendedprice*100) AS BIGINT) * "
        "(100 - CAST(round(l_discount*100) AS BIGINT)) * "
        "(100 + CAST(round(l_tax*100) AS BIGINT))) AS sum_charge_scaled, "
        "count(*) AS n_rows "
        "FROM read_parquet('/root/testdata/sf0.001/lineitem.parquet') "
        "WHERE l_shipdate <= TIMESTAMP '1998-09-02 00:00:00' "
        "GROUP BY 1, 2 ORDER BY 1, 2").df()
    assert len(out) == len(exp)
    for c in ("sum_qty", "sum_base_cents", "sum_disc_scaled",
              "sum_charge_scaled", "n_rows"):
        assert out[c].astype("int64").tolist() == \
            exp[c].astype("int64").tolist(), c


def test_orders_by_month_priority(ray_session):
    import duckdb
    import ray.data as rd

    od = rd.read_parquet("/root/testdata/sf0.001/orders.parquet")
    from rwcf.relational import orders_by_month_priority
    out = orders_by_month_priority(od).to_pandas() \
        .sort_values(["ym", "o_orderpriority"], ignore_index=True)
    exp = duckdb.sql(
        "SELECT CAST(year(o_orderdate)*100 + month(o_orderdate) AS BIGINT)"
        " AS ym, o_orderpriority, count(*) AS n_orders, "
        "sum(CAST(round(o_totalprice*100) AS BIGINT)) AS total_cents "
        "FROM read_parquet('/root/testdata/sf0.001/orders.parquet') "
        "GROUP BY 1, 2 ORDER BY 1, 2").df()
    assert out["ym"].tolist() == exp["ym"].astype("int64").tolist()
    assert out["n_orders"].tolist() == \
        exp["n_orders"].astype("int64").tolist()
    assert out["total_cents"].tolist() == \
        exp["total_cents"].astype("int64").tolist()


def test_local_supplier_volume(ray_session):
    import duckdb
    import ray.data as rd

    sf = "/root/testdata/sf0.001"
    rp = lambda t, cols: rd.read_parquet(  # noqa: E731
        f"{sf}/{t}.parquet", columns=cols)
    from rwcf.relational import local_supplier_volume
    out = local_supplier_volume(
        rp("lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice",
                        "l_discount"]),
        rp("orders", ["o_orderkey", "o_custkey"]),
        rp("customer", ["c_custkey", "c_nationkey"]),
        rp("supplier", ["s_suppkey", "s_nationkey"]),
        rp("nation", ["n_nationkey", "n_name", "n_regionkey"]),
        rp("region", ["r_regionkey", "r_name"])).to_pandas() \
        .sort_values(["r_name", "n_name"], ignore_index=True)
    exp = duckdb.sql(
        f"SELECT r_name, n_name, "
        "sum(CAST(round(l_extendedprice*100) AS BIGINT) * "
        "(100 - CAST(round(l_discount*100) AS BIGINT))) AS rev_scaled "
        f"FROM read_parquet('{sf}/lineitem.parquet') li, "
        f"read_parquet('{sf}/orders.parquet') o, "
        f"read_parquet('{sf}/customer.parquet') c, "
        f"read_parquet('{sf}/supplier.parquet') s, "
        f"read_parquet('{sf}/nation.parquet') n, "
        f"read_parquet('{sf}/region.parquet') r "
        "WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey "
        "AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey "
        "AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey "
        "GROUP BY 1, 2 ORDER BY 1, 2").df()
    assert out["r_name"].tolist() == exp["r_name"].tolist()
    assert out["n_name"].tolist() == exp["n_name"].tolist()
    assert out["rev_scaled"].tolist() == \
        exp["rev_scaled"].astype("int64").tolist()


def test_revenue_by_brand(ray_session):
    import duckdb
    import ray.data as rd

    sf = "/root/testdata/sf0.001"
    from rwcf.relational import revenue_by_brand
    li = rd.read_parquet(f"{sf}/lineitem.parquet",
                         columns=["l_partkey", "l_extendedprice",
                                  "l_discount"])
    pt = rd.read_parquet(f"{sf}/part.parquet",
                         columns=["p_partkey", "p_brand"])
    out = revenue_by_brand(li, pt).to_pandas() \
        .sort_values("p_brand", ignore_index=True)
    exp = duckdb.sql(
        "SELECT p_brand, "
        "sum(CAST(round(l_extendedprice*100) AS BIGINT) * "
        "(100 - CAST(round(l_discount*100) AS BIGINT))) AS rev_scaled, "
        "count(*) AS n_items "
        f"FROM read_parquet('{sf}/lineitem.parquet') li "
        f"JOIN read_parquet('{sf}/part.parquet') p "
        "ON l_partkey = p_partkey GROUP BY 1 ORDER BY 1").df()
    assert out["p_brand"].tolist() == exp["p_brand"].tolist()
    assert out["rev_scaled"].tolist() == \
        exp["rev_scaled"].astype("int64").tolist()
    assert out["n_items"].tolist() == \
        exp["n_items"].astype("int64").tolist()


def test_orders_by_segment(ray_session):
    import duckdb
    import ray.data as rd

    sf = "/root/testdata/sf0.001"
    from rwcf.relational import orders_by_segment
    od = rd.read_parquet(f"{sf}/orders.parquet",
                         columns=["o_custkey", "o_totalprice"])
    cu = rd.read_parquet(f"{sf}/customer.parquet",
                         columns=["c_custkey", "c_mktsegment"])
    out = orders_by_segment(od, cu).to_pandas() \
        .sort_values("c_mktsegment", ignore_index=True)
    exp = duckdb.sql(
        "SELECT c_mktsegment, "
        "sum(CAST(round(o_totalprice*100) AS BIGINT)) AS total_cents, "
        "count(*) AS n_orders "
        f"FROM read_parquet('{sf}/orders.parquet') o "
        f"JOIN read_parquet('{sf}/customer.parquet') c "
        "ON o_custkey = c_custkey GROUP BY 1 ORDER BY 1").df()
    assert out["c_mktsegment"].tolist() == exp["c_mktsegment"].tolist()
    assert out["total_cents"].tolist() == \
        exp["total_cents"].astype("int64").tolist()
    assert out["n_orders"].tolist() == \
        exp["n_orders"].astype("int64").tolist()


def test_customer_order_histogram(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from rwcf.relational import customer_order_histogram

    rng = np.random.default_rng(61)
    od = pd.DataFrame({"o_custkey":
                       rng.integers(0, 40, 500).astype(np.int64)})
    out = customer_order_histogram(rd.from_pandas(od).repartition(5)) \
        .to_pandas().sort_values("n_orders", ignore_index=True)
    per = od.groupby("o_custkey").size()
    exp = per.value_counts().sort_index()
    assert out["n_orders"].tolist() == exp.index.tolist()
    assert out["n_customers"].tolist() == exp.tolist()
    assert out["n_customers"].sum() == per.size


def test_forecast_revenue(ray_session):
    import duckdb
    import ray.data as rd

    from rwcf.relational import forecast_revenue
    li = rd.read_parquet(f"{SF}/lineitem.parquet",
                         columns=["l_shipdate", "l_quantity",
                                  "l_discount", "l_extendedprice"])
    out = forecast_revenue(li).to_pandas()
    exp = duckdb.sql(
        f"SELECT sum(CAST(round(l_extendedprice*100) AS BIGINT) * "
        f"CAST(round(l_discount*100) AS BIGINT)) AS rev_scaled, "
        f"count(*) AS n_rows "
        f"FROM read_parquet('{SF}/lineitem.parquet') "
        f"WHERE l_shipdate >= TIMESTAMP '1996-01-01' "
        f"AND l_shipdate < TIMESTAMP '1997-01-01' "
        f"AND CAST(round(l_discount*100) AS BIGINT) BETWEEN 5 AND 7 "
        f"AND CAST(round(l_quantity) AS BIGINT) < 24").df()
    assert len(out) == 1
    assert int(out["rev_scaled"][0]) == int(exp["rev_scaled"][0])
    assert int(out["n_rows"][0]) == int(exp["n_rows"][0])


def test_forecast_revenue_empty_window(ray_session):
    # a window before the corpus starts: exact zero row, not an error
    import ray.data as rd

    from rwcf.relational import forecast_revenue
    li = rd.read_parquet(f"{SF}/lineitem.parquet",
                         columns=["l_shipdate", "l_quantity",
                                  "l_discount", "l_extendedprice"])
    out = forecast_revenue(li, date_lo="1990-01-01",
                           date_hi="1991-01-01").to_pandas()
    assert out["rev_scaled"].tolist() == [0]
    assert out["n_rows"].tolist() == [0]


def test_shipping_priority(ray_session):
    import duckdb
    import ray.data as rd

    from rwcf.relational import shipping_priority
    li = rd.read_parquet(f"{SF}/lineitem.parquet")
    od = rd.read_parquet(f"{SF}/orders.parquet")
    cu = rd.read_parquet(f"{SF}/customer.parquet")
    out = shipping_priority(li, od, cu, buckets=8).to_pandas() \
        .sort_values("rank", ignore_index=True)
    exp = duckdb.sql(
        f"WITH r AS (SELECT l_orderkey AS ok, "
        f"sum(CAST(round(l_extendedprice*100) AS BIGINT) * "
        f"(100 - CAST(round(l_discount*100) AS BIGINT))) AS rev "
        f"FROM read_parquet('{SF}/lineitem.parquet') l "
        f"JOIN read_parquet('{SF}/orders.parquet') o "
        f"ON l_orderkey = o_orderkey "
        f"JOIN read_parquet('{SF}/customer.parquet') c "
        f"ON o_custkey = c_custkey "
        f"WHERE c_mktsegment = 'BUILDING' "
        f"AND o_orderdate < TIMESTAMP '1998-01-01' "
        f"AND l_shipdate > TIMESTAMP '1998-01-01' GROUP BY 1) "
        f"SELECT ok, rev FROM r ORDER BY rev DESC, ok LIMIT 10").df()
    assert out["o_orderkey"].tolist() == exp["ok"].astype("int64").tolist()
    assert out["rev_scaled"].tolist() == exp["rev"].astype("int64").tolist()
    assert out["rank"].tolist() == list(range(1, len(exp) + 1))


def test_returned_item_revenue(ray_session):
    import duckdb
    import ray.data as rd

    from rwcf.relational import returned_item_revenue
    li = rd.read_parquet(f"{SF}/lineitem.parquet")
    od = rd.read_parquet(f"{SF}/orders.parquet")
    cu = rd.read_parquet(f"{SF}/customer.parquet")
    na = rd.read_parquet(f"{SF}/nation.parquet")
    out = returned_item_revenue(li, od, cu, na, buckets=8).to_pandas() \
        .sort_values("rank", ignore_index=True)
    exp = duckdb.sql(
        f"WITH r AS (SELECT c_custkey AS ck, n_name, "
        f"sum(CAST(round(l_extendedprice*100) AS BIGINT) * "
        f"(100 - CAST(round(l_discount*100) AS BIGINT))) AS rev "
        f"FROM read_parquet('{SF}/lineitem.parquet') l "
        f"JOIN read_parquet('{SF}/orders.parquet') o "
        f"ON l_orderkey = o_orderkey "
        f"JOIN read_parquet('{SF}/customer.parquet') c "
        f"ON o_custkey = c_custkey "
        f"JOIN read_parquet('{SF}/nation.parquet') n "
        f"ON c_nationkey = n_nationkey "
        f"WHERE l_returnflag = 'R' "
        f"AND o_orderdate >= TIMESTAMP '1999-01-01' "
        f"AND o_orderdate < TIMESTAMP '1999-07-01' GROUP BY 1, 2) "
        f"SELECT ck, n_name, rev FROM r "
        f"ORDER BY rev DESC, ck LIMIT 20").df()
    assert out["c_custkey"].tolist() == exp["ck"].astype("int64").tolist()
    assert out["n_name"].tolist() == exp["n_name"].tolist()
    assert out["rev_scaled"].tolist() == exp["rev"].astype("int64").tolist()


def test_large_volume_orders(ray_session):
    import duckdb
    import ray.data as rd

    from rwcf.relational import large_volume_orders
    li = rd.read_parquet(f"{SF}/lineitem.parquet",
                         columns=["l_orderkey", "l_quantity"])
    od = rd.read_parquet(f"{SF}/orders.parquet",
                         columns=["o_orderkey", "o_custkey",
                                  "o_totalprice"])
    out = large_volume_orders(li, od, buckets=8).to_pandas() \
        .sort_values("o_orderkey", ignore_index=True)
    exp = duckdb.sql(
        f"SELECT q.ok, o.o_custkey, q.sum_qty, "
        f"CAST(round(o.o_totalprice*100) AS BIGINT) AS total_cents "
        f"FROM (SELECT l_orderkey AS ok, "
        f"sum(CAST(round(l_quantity) AS BIGINT)) AS sum_qty "
        f"FROM read_parquet('{SF}/lineitem.parquet') "
        f"GROUP BY 1 HAVING sum(CAST(round(l_quantity) AS BIGINT)) > 250)"
        f" q JOIN read_parquet('{SF}/orders.parquet') o "
        f"ON q.ok = o.o_orderkey ORDER BY q.ok").df()
    assert out["o_orderkey"].tolist() == exp["ok"].astype("int64").tolist()
    assert out["o_custkey"].tolist() == \
        exp["o_custkey"].astype("int64").tolist()
    assert out["sum_qty"].tolist() == exp["sum_qty"].astype("int64").tolist()
    assert out["total_cents"].tolist() == \
        exp["total_cents"].astype("int64").tolist()


def test_small_quantity_revenue(ray_session):
    import duckdb
    import ray.data as rd

    from rwcf.relational import small_quantity_revenue
    li = rd.read_parquet(f"{SF}/lineitem.parquet",
                         columns=["l_partkey", "l_quantity",
                                  "l_extendedprice"])
    pt = rd.read_parquet(f"{SF}/part.parquet",
                         columns=["p_partkey", "p_brand"])
    out = small_quantity_revenue(li, pt, buckets=8).to_pandas()
    exp = duckdb.sql(
        f"WITH agg AS (SELECT l_partkey AS apk, "
        f"sum(CAST(round(l_quantity) AS BIGINT)) AS s, count(*) AS n "
        f"FROM read_parquet('{SF}/lineitem.parquet') l "
        f"JOIN read_parquet('{SF}/part.parquet') p "
        f"ON l_partkey = p_partkey "
        f"WHERE p_brand = 'Brand#13' GROUP BY 1) "
        f"SELECT coalesce(sum(CAST(round(l_extendedprice*100) AS BIGINT))"
        f", 0) AS rev, count(*) AS n "
        f"FROM read_parquet('{SF}/lineitem.parquet') JOIN agg "
        f"ON l_partkey = apk "
        f"WHERE 5 * CAST(round(l_quantity) AS BIGINT) * n < s").df()
    assert out["rev_cents"].tolist() == [int(exp["rev"][0])]
    assert out["n_rows"].tolist() == [int(exp["n"][0])]


def test_small_quantity_revenue_unknown_brand(ray_session):
    # empty brand key set: exact zero row, no searchsorted crash
    import ray.data as rd

    from rwcf.relational import small_quantity_revenue
    li = rd.read_parquet(f"{SF}/lineitem.parquet",
                         columns=["l_partkey", "l_quantity",
                                  "l_extendedprice"])
    pt = rd.read_parquet(f"{SF}/part.parquet",
                         columns=["p_partkey", "p_brand"])
    out = small_quantity_revenue(li, pt, brand="Brand#none",
                                 buckets=4).to_pandas()
    assert out["rev_cents"].tolist() == [0]
    assert out["n_rows"].tolist() == [0]


def test_top_supplier(ray_session):
    import duckdb
    import ray.data as rd

    from rwcf.relational import top_supplier
    li = rd.read_parquet(f"{SF}/lineitem.parquet")
    out = top_supplier(li).to_pandas() \
        .sort_values("s_suppkey", ignore_index=True)
    exp = duckdb.sql(
        f"WITH r AS (SELECT l_suppkey AS sk, "
        f"sum(CAST(round(l_extendedprice*100) AS BIGINT) * "
        f"(100 - CAST(round(l_discount*100) AS BIGINT))) AS rev "
        f"FROM read_parquet('{SF}/lineitem.parquet') "
        f"WHERE l_shipdate >= TIMESTAMP '1997-01-01' "
        f"AND l_shipdate < TIMESTAMP '1997-04-01' GROUP BY 1) "
        f"SELECT sk, rev FROM r WHERE rev = (SELECT max(rev) FROM r) "
        f"ORDER BY sk").df()
    assert out["s_suppkey"].tolist() == exp["sk"].astype("int64").tolist()
    assert out["rev_scaled"].tolist() == exp["rev"].astype("int64").tolist()


def test_top_supplier_keeps_all_ties(ray_session):
    # synthetic: two suppliers with identical max revenue both survive
    import pyarrow as pa
    import ray.data as rd

    from rwcf.relational import top_supplier
    t = pa.table({
        "l_suppkey": pa.array([1, 2, 2, 3], pa.int64()),
        "l_shipdate": pa.array(
            [pa.scalar("1997-02-01").cast(pa.timestamp("us"))] * 4
        ).cast(pa.timestamp("us")),
        "l_extendedprice": pa.array([200.0, 100.0, 100.0, 50.0]),
        "l_discount": pa.array([0.0, 0.0, 0.0, 0.0])})
    ds = rd.from_arrow(t)
    out = top_supplier(ds).to_pandas().sort_values(
        "s_suppkey", ignore_index=True)
    assert out["s_suppkey"].tolist() == [1, 2]
    assert out["rev_scaled"].tolist() == [2000000, 2000000]


def test_lapsed_high_value_customers(ray_session):
    import duckdb
    import ray.data as rd

    from rwcf.relational import lapsed_high_value_customers
    cu = rd.read_parquet(f"{SF}/customer.parquet",
                         columns=["c_custkey", "c_nationkey",
                                  "c_acctbal"])
    od = rd.read_parquet(f"{SF}/orders.parquet",
                         columns=["o_custkey", "o_orderdate"])
    out = lapsed_high_value_customers(cu, od, buckets=8).to_pandas() \
        .sort_values("c_nationkey", ignore_index=True)
    exp = duckdb.sql(
        f"WITH pos AS (SELECT count(*) AS n, "
        f"sum(CAST(round(c_acctbal*100) AS BIGINT)) AS s "
        f"FROM read_parquet('{SF}/customer.parquet') "
        f"WHERE CAST(round(c_acctbal*100) AS BIGINT) > 0) "
        f"SELECT c_nationkey, count(*) AS n_cust, "
        f"sum(CAST(round(c_acctbal*100) AS BIGINT)) AS cents "
        f"FROM read_parquet('{SF}/customer.parquet') c, pos "
        f"WHERE CAST(round(c_acctbal*100) AS BIGINT) * n > s "
        f"AND NOT EXISTS (SELECT 1 FROM "
        f"read_parquet('{SF}/orders.parquet') o "
        f"WHERE o_custkey = c_custkey "
        f"AND o_orderdate >= TIMESTAMP '2000-01-01') "
        f"GROUP BY 1 ORDER BY 1").df()
    assert out["c_nationkey"].tolist() == \
        exp["c_nationkey"].astype("int64").tolist()
    assert out["n_cust"].tolist() == exp["n_cust"].astype("int64").tolist()
    assert out["acctbal_cents"].tolist() == \
        exp["cents"].astype("int64").tolist()


def test_disjunctive_revenue(ray_session):
    import duckdb
    import ray.data as rd

    from rwcf.relational import disjunctive_revenue
    li = rd.read_parquet(f"{SF}/lineitem.parquet",
                         columns=["l_partkey", "l_quantity",
                                  "l_extendedprice", "l_discount"])
    pt = rd.read_parquet(f"{SF}/part.parquet",
                         columns=["p_partkey", "p_brand", "p_size"])
    out = disjunctive_revenue(li, pt, buckets=8).to_pandas()
    exp = duckdb.sql(
        f"SELECT coalesce(sum(CAST(round(l_extendedprice*100) AS BIGINT)"
        f" * (100 - CAST(round(l_discount*100) AS BIGINT))), 0) AS rev, "
        f"count(*) AS n "
        f"FROM read_parquet('{SF}/lineitem.parquet') l "
        f"JOIN read_parquet('{SF}/part.parquet') p "
        f"ON l_partkey=p_partkey "
        f"WHERE (p_brand='Brand#1' AND p_size BETWEEN 1 AND 5 "
        f"AND CAST(round(l_quantity) AS BIGINT) BETWEEN 1 AND 11) "
        f"OR (p_brand='Brand#12' AND p_size BETWEEN 1 AND 10 "
        f"AND CAST(round(l_quantity) AS BIGINT) BETWEEN 10 AND 20) "
        f"OR (p_brand='Brand#20' AND p_size BETWEEN 1 AND 15 "
        f"AND CAST(round(l_quantity) AS BIGINT) BETWEEN 20 AND 30)").df()
    assert out["rev_scaled"].tolist() == [int(exp["rev"][0])]
    assert out["n_rows"].tolist() == [int(exp["n"][0])]


def test_nation_trade_volume(ray_session):
    import duckdb
    import ray.data as rd

    from rwcf.relational import nation_trade_volume
    rp = lambda t, cols: rd.read_parquet(  # noqa: E731
        f"{SF}/{t}.parquet", columns=cols)
    out = nation_trade_volume(
        rp("lineitem", ["l_orderkey", "l_suppkey", "l_shipdate",
                        "l_extendedprice", "l_discount"]),
        rp("orders", ["o_orderkey", "o_custkey"]),
        rp("customer", ["c_custkey", "c_nationkey"]),
        rp("supplier", ["s_suppkey", "s_nationkey"]),
        rp("nation", ["n_nationkey", "n_name"]),
        buckets=8).to_pandas().sort_values(
        ["supp_nation", "cust_nation", "l_year"], ignore_index=True)
    exp = duckdb.sql(
        f"SELECT ns.n_name AS sn, nc.n_name AS cn, "
        f"CAST(year(l_shipdate) AS BIGINT) AS y, "
        f"sum(CAST(round(l_extendedprice*100) AS BIGINT) * "
        f"(100 - CAST(round(l_discount*100) AS BIGINT))) AS rev "
        f"FROM read_parquet('{SF}/lineitem.parquet') l "
        f"JOIN read_parquet('{SF}/orders.parquet') o "
        f"ON l_orderkey = o_orderkey "
        f"JOIN read_parquet('{SF}/customer.parquet') c "
        f"ON o_custkey = c_custkey "
        f"JOIN read_parquet('{SF}/supplier.parquet') s "
        f"ON l_suppkey = s_suppkey "
        f"JOIN read_parquet('{SF}/nation.parquet') ns "
        f"ON s_nationkey = ns.n_nationkey "
        f"JOIN read_parquet('{SF}/nation.parquet') nc "
        f"ON c_nationkey = nc.n_nationkey "
        f"WHERE ns.n_nationkey <> nc.n_nationkey "
        f"AND l_shipdate >= TIMESTAMP '1996-01-01' "
        f"AND l_shipdate < TIMESTAMP '1998-01-01' "
        f"GROUP BY 1, 2, 3 ORDER BY 1, 2, 3").df()
    assert out["supp_nation"].tolist() == exp["sn"].tolist()
    assert out["cust_nation"].tolist() == exp["cn"].tolist()
    assert out["l_year"].tolist() == exp["y"].astype("int64").tolist()
    assert out["rev_scaled"].tolist() == exp["rev"].astype("int64").tolist()


def test_suppliers_per_brand(ray_session):
    import duckdb
    import ray.data as rd

    from rwcf.relational import suppliers_per_brand
    li = rd.read_parquet(f"{SF}/lineitem.parquet",
                         columns=["l_partkey", "l_suppkey"])
    pt = rd.read_parquet(f"{SF}/part.parquet",
                         columns=["p_partkey", "p_brand"])
    out = suppliers_per_brand(li, pt, buckets=8).to_pandas() \
        .sort_values("p_brand", ignore_index=True)
    exp = duckdb.sql(
        f"SELECT p_brand, count(DISTINCT l_suppkey) AS n "
        f"FROM read_parquet('{SF}/lineitem.parquet') l "
        f"JOIN read_parquet('{SF}/part.parquet') p "
        f"ON l_partkey = p_partkey GROUP BY 1 ORDER BY 1").df()
    assert out["p_brand"].tolist() == exp["p_brand"].tolist()
    assert out["n_suppliers"].tolist() == exp["n"].astype("int64").tolist()


def test_referential_orphans_clean_fixture(ray_session):
    import ray.data as rd

    from rwcf.relational import referential_orphans
    rp = lambda t, cols: rd.read_parquet(  # noqa: E731
        f"{SF}/{t}.parquet", columns=cols)
    out = referential_orphans([
        ("lineitem_orders", rp("lineitem", ["l_orderkey"]),
         "l_orderkey", rp("orders", ["o_orderkey"]), "o_orderkey"),
        ("orders_customer", rp("orders", ["o_custkey"]),
         "o_custkey", rp("customer", ["c_custkey"]), "c_custkey"),
    ], buckets=8).to_pandas().sort_values("relation", ignore_index=True)
    assert out["relation"].tolist() == ["lineitem_orders",
                                        "orders_customer"]
    assert out["n_orphan_rows"].tolist() == [0, 0]


def test_referential_orphans_counts_rows(ray_session):
    # orphan ROW counts (not distinct keys): child key 9 appears twice
    import pyarrow as pa
    import ray.data as rd

    from rwcf.relational import referential_orphans
    child = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 9, 9, 3], pa.int64())}))
    parent = rd.from_arrow(pa.table({
        "p": pa.array([1, 2, 3], pa.int64())}))
    out = referential_orphans(
        [("child_parent", child, "k", parent, "p")],
        buckets=4).to_pandas()
    assert out["relation"].tolist() == ["child_parent"]
    assert out["n_orphan_rows"].tolist() == [2]


def test_promo_revenue_share(ray_session):
    import duckdb
    import ray.data as rd

    from rwcf.relational import promo_revenue_share
    li = rd.read_parquet(f"{SF}/lineitem.parquet",
                         columns=["l_partkey", "l_shipdate",
                                  "l_extendedprice", "l_discount"])
    pt = rd.read_parquet(f"{SF}/part.parquet",
                         columns=["p_partkey", "p_type"])
    out = promo_revenue_share(li, pt, buckets=8).to_pandas()
    exp = duckdb.sql(
        f"WITH r AS (SELECT "
        f"coalesce(sum(CASE WHEN p_type = 'PROMO' THEN "
        f"CAST(round(l_extendedprice*100) AS BIGINT) * "
        f"(100 - CAST(round(l_discount*100) AS BIGINT)) END), 0) "
        f"AS promo, "
        f"coalesce(sum(CAST(round(l_extendedprice*100) AS BIGINT) * "
        f"(100 - CAST(round(l_discount*100) AS BIGINT))), 0) AS total "
        f"FROM read_parquet('{SF}/lineitem.parquet') l "
        f"JOIN read_parquet('{SF}/part.parquet') p "
        f"ON l_partkey = p_partkey "
        f"WHERE l_shipdate >= TIMESTAMP '1997-01-01' "
        f"AND l_shipdate < TIMESTAMP '1997-02-01') "
        f"SELECT promo, total, CASE WHEN total = 0 THEN 0 "
        f"ELSE (promo * 10000) // total END AS bp FROM r").df()
    assert out["promo_rev_scaled"].tolist() == [int(exp["promo"][0])]
    assert out["total_rev_scaled"].tolist() == [int(exp["total"][0])]
    assert out["promo_share_bp"].tolist() == [int(exp["bp"][0])]


def test_monthly_revenue_delta(ray_session):
    import duckdb
    import ray.data as rd

    from rwcf.relational import monthly_revenue_delta
    od = rd.read_parquet(f"{SF}/orders.parquet",
                         columns=["o_orderdate", "o_totalprice"])
    out = monthly_revenue_delta(od).to_pandas() \
        .sort_values("ym", ignore_index=True)
    exp = duckdb.sql(
        f"WITH m AS (SELECT CAST(year(o_orderdate)*100 + "
        f"month(o_orderdate) AS BIGINT) AS ym, "
        f"sum(CAST(round(o_totalprice*100) AS BIGINT)) AS tc "
        f"FROM read_parquet('{SF}/orders.parquet') GROUP BY 1) "
        f"SELECT ym, tc, coalesce(lag(tc) OVER (ORDER BY ym), 0) AS pc "
        f"FROM m ORDER BY ym").df()
    assert out["ym"].tolist() == exp["ym"].astype("int64").tolist()
    assert out["total_cents"].tolist() == exp["tc"].astype("int64").tolist()
    assert out["prev_cents"].tolist() == exp["pc"].astype("int64").tolist()
    assert (out["delta_cents"] ==
            out["total_cents"] - out["prev_cents"]).all()


def test_premium_only_customers(ray_session):
    import duckdb
    import ray.data as rd

    from rwcf.relational import premium_only_customers
    od = rd.read_parquet(f"{SF}/orders.parquet",
                         columns=["o_custkey", "o_totalprice"])
    out = premium_only_customers(od, min_cents=5_000_000).to_pandas() \
        .sort_values("o_custkey", ignore_index=True)
    exp = duckdb.sql(
        f"SELECT o_custkey, count(*) AS n, "
        f"min(CAST(round(o_totalprice*100) AS BIGINT)) AS mn, "
        f"sum(CAST(round(o_totalprice*100) AS BIGINT)) AS tc "
        f"FROM read_parquet('{SF}/orders.parquet') GROUP BY 1 "
        f"HAVING min(CAST(round(o_totalprice*100) AS BIGINT)) "
        f">= 5000000 ORDER BY 1").df()
    assert out["o_custkey"].tolist() == \
        exp["o_custkey"].astype("int64").tolist()
    assert out["n_orders"].tolist() == exp["n"].astype("int64").tolist()
    assert out["min_cents_seen"].tolist() == \
        exp["mn"].astype("int64").tolist()
    assert out["total_cents"].tolist() == exp["tc"].astype("int64").tolist()


def test_ship_lag_histogram(ray_session):
    import duckdb
    import ray.data as rd

    from rwcf.relational import ship_lag_histogram
    li = rd.read_parquet(f"{SF}/lineitem.parquet",
                         columns=["l_orderkey", "l_shipdate"])
    od = rd.read_parquet(f"{SF}/orders.parquet",
                         columns=["o_orderkey", "o_orderdate"])
    out = ship_lag_histogram(li, od, buckets=8).to_pandas() \
        .sort_values("lag_days", ignore_index=True)
    exp = duckdb.sql(
        f"SELECT CAST(floor(epoch(l_shipdate)) AS BIGINT) // 86400 - "
        f"CAST(floor(epoch(o_orderdate)) AS BIGINT) // 86400 AS lag, "
        f"count(*) AS n "
        f"FROM read_parquet('{SF}/lineitem.parquet') l "
        f"JOIN read_parquet('{SF}/orders.parquet') o "
        f"ON l_orderkey = o_orderkey GROUP BY 1 ORDER BY 1").df()
    assert out["lag_days"].tolist() == exp["lag"].astype("int64").tolist()
    assert out["n"].tolist() == exp["n"].astype("int64").tolist()


# --- round-4 TPC-H tail (Q2/Q4/Q8/Q9/Q11/Q20/Q21 shapes) and the
# --- vocabulary-curve analytics family: engine vs its own published
# --- oracle SQL on the sf0.001 fixture (the same comparison the graft
# --- driver runs at sf0.01)

_R4_TAIL = [
    "late_ship_priority", "market_share_by_year",
    "profit_by_nation_year", "important_brands", "bulk_suppliers",
    "sole_return_suppliers", "cheapest_supplier_per_brand",
    "vocab_growth", "max_tf_per_source", "distinct_words_histogram",
]


@pytest.mark.skipif(not os.path.exists(f"{SF}/lineitem.parquet"),
                    reason="driver testdata not present")
@pytest.mark.parametrize("name", _R4_TAIL)
def test_r4_tail_query_matches_oracle(ray_session, name):
    import __ray_entry__ as entry_mod

    out = entry_mod.queries()[name](SF).to_pandas()
    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "part",
              "orders", "lineitem", "events", "documents"]:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF}/{t}.parquet')")
    exp = con.execute(entry_mod.oracle_sql()[name]).fetchdf()

    def canon(df):
        df = df[sorted(df.columns)]
        return df.sort_values(list(df.columns), ignore_index=True)

    assert sorted(out.columns) == sorted(exp.columns)
    pd.testing.assert_frame_equal(canon(out), canon(exp),
                                  check_dtype=False)


def test_sole_failure_suppliers_wide_and_negative_suppkeys(ray_session):
    # (orderkey, suppkey) pairs are grouped as pairs, not packed into one
    # integer: suppkeys >= 2^20 or < 0 must neither merge with another
    # order's pairs nor come back changed
    import pyarrow as pa
    import ray.data as rd

    import __ray_entry__ as entry_mod
    from rwcf.relational import sole_failure_suppliers

    big = (1 << 20) + 3
    li = pd.DataFrame({
        "l_orderkey": [1, 1, 1, 2, 2, 2, 4, 4, 5, 5, 6, 6, 6],
        "l_suppkey": [big, big, 5, 3, 7, 7, 11, 12, -1, 9, 8, 9, -1],
        "l_returnflag": ["R", "N", "N", "N", "R", "N", "R", "R", "R",
                         "N", "R", "N", "N"],
    })
    out = sole_failure_suppliers(
        rd.from_arrow(pa.Table.from_pandas(li)), buckets=4)
    con = duckdb.connect()
    con.register("lineitem", li)
    exp = con.execute(entry_mod.oracle_sql()["sole_failure_suppliers"]) \
        .fetchdf()
    assert sorted(exp["s_suppkey"]) == sorted([big, 7, -1, 8])
    pd.testing.assert_frame_equal(out.reset_index(drop=True), exp,
                                  check_dtype=False)
