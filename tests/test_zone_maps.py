"""Manifest zone maps over NULLs, checked at every manifest-planned read.

One store, three partitions of 100 rows, three nullable columns:

- ``grade``: partition 0 is all NULL, partitions 1 and 2 hold ``i % 40``;
- ``rank``: partition 1 holds one value (0, the store's smallest) and
  99 NULLs, partitions 0 and 2 hold 100..199 and 200..299;
- ``bonus``: ``-rank``, added by ``update.derive_column`` (partition 1's
  single value is the largest).

Every entry point is checked against a filter over ``decode_job``: one
writer (``pipeline.zone_map``) and one admission rule
(``pipeline._zone_admits``) serve them all, so an all-NULL or
mostly-NULL partition cannot make any of them prune a match, count a
NULL as a candidate, or compare NULL with a value.
"""

import ast
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from rwcf import fixtures, pipeline, planner, spj, update

N_ROWS = 300
COLUMNS = ["grade", "rank", "bonus"]


def _build(d) -> str:
    def negated_rank(t: pa.Table) -> pa.Array:  # nested: pickled by value
        return pc.negate(t.column("rank")).combine_chunks()

    tbl = fixtures.tokens_table(N_ROWS, seed=31)
    i = np.arange(N_ROWS)
    grade = pa.array(i % 40, pa.int64(), mask=i < 100)
    rank = pa.array(np.where(i < 100, i + 100, np.where(i < 200, 0, i)),
                    pa.int64(), mask=(i > 100) & (i < 200))
    tbl = tbl.append_column("grade", grade).append_column("rank", rank)
    src = str(d / "nulls.parquet")
    pq.write_table(tbl, src, row_group_size=100)
    out = str(d / "store")
    cfg = pipeline.EncodeConfig(
        out_dir=out, columns=list(tbl.column_names),
        bloom_bits_per_key=10, bloom_columns=("doc_id", "grade"))
    pipeline.encode_job(src, cfg).materialize()
    update.derive_column(out, "bonus", negated_rank, ["rank"])
    rows = pipeline.load_manifest(out)
    assert sorted(r["n_rows"] for r in rows) == [100, 100, 100]
    return out


@pytest.fixture(scope="module")
def shared_store(tmp_path_factory, ray_session):
    """Read-only tests share one store."""
    return _build(tmp_path_factory.mktemp("zone_maps"))


@pytest.fixture
def store(tmp_path, ray_session):
    return _build(tmp_path)


def _decoded(out) -> dict:
    """doc_id -> {column: value} over decode_job."""
    t = pa.concat_tables(ray.get(pipeline.decode_job(out).to_arrow_refs()))
    d = t.select(["doc_id", "n_tok"] + COLUMNS).to_pydict()
    return {doc: {c: d[c][j] for c in d}
            for j, doc in enumerate(d["doc_id"])}


def _matches(dec: dict, column: str, op: str, value=None, value2=None):
    def hit(v):
        if op == "isnull":
            return (v is None) == value
        if v is None:
            return False
        return v == value if op == "eq" else value <= v <= value2
    return {doc for doc, r in dec.items() if hit(r[column])}


def test_zone_maps_record_nulls(shared_store):
    """encode_partition and derive_column write the same zone map."""
    stats = sorted((r["stats"] for r in
                    pipeline.load_manifest(shared_store)),
                   key=lambda s: s["rank"]["min"])
    assert [s["rank"] for s in stats] == [
        {"min": 0, "max": 0, "null_count": 99},
        {"min": 100, "max": 199}, {"min": 200, "max": 299}]
    assert [s["bonus"] for s in stats] == [
        {"min": 0, "max": 0, "null_count": 99},
        {"min": -199, "max": -100}, {"min": -299, "max": -200}]
    assert {"min": None, "max": None, "null_count": 100} in \
        [s["grade"] for s in stats]


PREDICATES = [(c, "eq", v, None) for c, v in
              (("grade", 7), ("rank", 0), ("bonus", -150))] + \
             [(c, "between", lo, hi) for c, lo, hi in
              (("grade", 5, 9), ("rank", 0, 150), ("bonus", -250, 0))] + \
             [(c, "isnull", flag, None) for c in COLUMNS
              for flag in (True, False)]


@pytest.mark.parametrize("column,op,value,value2", PREDICATES)
def test_planned_scan_matches_decode_filter(shared_store, column, op,
                                            value, value2):
    dec = _decoded(shared_store)
    want = _matches(dec, column, op, value, value2)
    ds, plan = planner.planned_scan(shared_store, column, op, value, value2,
                                    columns=["doc_id", column])
    got = ds.to_pandas()
    assert set(got["doc_id"]) == want and len(got) == len(want) > 0
    # the plan admits exactly the partitions whose zone map can match:
    # every partition holding a match, and no all-NULL one unless IS NULL
    rows = pipeline.load_manifest(shared_store)
    holding = {r["pid"] for r in rows
               for doc in pipeline.decode_partition(
                   r, columns=["doc_id"]).column("doc_id").to_pylist()
               if doc in want}
    assert holding <= set(plan["pids"])
    all_null = {r["pid"] for r in rows
                if r["stats"][column]["min"] is None}
    if not (op == "isnull" and value):
        assert not all_null & set(plan["pids"])


@pytest.mark.parametrize("column,op,value,value2", PREDICATES)
def test_spj_prune_rows_keeps_every_match(shared_store, column, op,
                                          value, value2):
    where = {"col": column,
             **({"isnull": value} if op == "isnull" else
                {"eq": value} if op == "eq" else
                {"between": (value, value2)})}
    kept = spj.prune_rows(pipeline.load_manifest(shared_store), where)
    got = set()
    for r in kept:
        t = spj._row_filter(pipeline.decode_partition(
            r, columns=["doc_id", column]), where)
        got |= set(t.column("doc_id").to_pylist())
    assert got == _matches(_decoded(shared_store), column, op, value,
                           value2)


@pytest.mark.parametrize("pred", [
    {"eq": 7}, {"between": (5, 9)}, {"isin": [3, 41, 7]},
    {"isnull": True}, {"isnull": False}])
def test_update_where_matches_decode_filter(store, pred):
    """UPDATE rank = -1 WHERE <pred>: value predicates on ``grade`` (its
    all-NULL partition), IS [NOT] NULL on the derived ``bonus``."""
    column = "bonus" if "isnull" in pred else "grade"
    before = _decoded(store)
    if "isin" in pred:
        want = {d for d, r in before.items() if r[column] in pred["isin"]}
    else:
        op, arg = next(iter(pred.items()))
        want = _matches(before, column, op,
                        *(arg if op == "between" else (arg, None)))
    res = update.update_where(store, "rank", -1, pred_col=column, **pred)
    assert res["rows_matched"] == len(want) > 0
    after = _decoded(store)
    assert {d for d, r in after.items() if r["rank"] == -1} == want
    assert {d: r for d, r in after.items() if d not in want} == \
        {d: r for d, r in before.items() if d not in want}


@pytest.mark.parametrize("pred", [{"values": [7, 8]},
                                  {"lo": 5, "hi": 9}])
def test_delete_where_matches_decode_filter(store, pred):
    before = _decoded(store)
    if "values" in pred:
        gone = {d for d, r in before.items()
                if r["grade"] in pred["values"]}
    else:
        gone = _matches(before, "grade", "between", pred["lo"], pred["hi"])
    res = pipeline.delete_where(store, "grade", **pred)
    assert res["rows_deleted"] == len(gone) > 0
    assert set(_decoded(store)) == set(before) - gone


@pytest.mark.parametrize("between", [None, (5, 9)])
def test_late_materialized_sum_prunes_all_null_partition(shared_store,
                                                         between):
    """The predicate column of one partition is all NULL: that partition
    holds no match and is pruned, not compared with the probe."""
    dec = _decoded(shared_store)
    op, value, value2 = (("eq", 7, None) if between is None
                         else ("between", *between))
    want = _matches(dec, "grade", op, value, value2)
    res = pipeline.late_materialized_sum(
        shared_store, "grade", value, "n_tok",
        pred_between=between).iloc[0]
    assert res["n_rows"] == len(want) > 0
    assert res["sum_val"] == sum(dec[d]["n_tok"] for d in want)


@pytest.mark.parametrize("column,op,value,value2",
                         [p for p in PREDICATES if p[1] != "isnull"])
def test_late_materialized_sum_matches_decode_filter(shared_store, column,
                                                     op, value, value2):
    """A nullable predicate column is read with its validity: NULL
    matches nothing, and a partition holding NULLs is scanned, not
    refused."""
    dec = _decoded(shared_store)
    want = _matches(dec, column, op, value, value2)
    res = pipeline.late_materialized_sum(
        shared_store, column, value, "n_tok",
        pred_between=(value, value2) if op == "between" else None).iloc[0]
    assert res["n_rows"] == len(want) > 0
    assert res["sum_val"] == sum(dec[d]["n_tok"] for d in want)


def test_late_materialized_sum_pruned_partition_costs_no_io(store):
    """The value pages and bytes of every partition are counted from the
    manifest, so a partition the zone map prunes is never opened: the
    totals stay the same with its file gone."""
    rows = pipeline.load_manifest(store)
    pruned = [r for r in rows if r["stats"]["grade"]["min"] is None]
    assert len(pruned) == 1
    before = pipeline.late_materialized_sum(store, "grade", 7, "n_tok") \
        .iloc[0].to_dict()
    assert before["pages_total"] == sum(
        len(pipeline.read_column_skeleton(r, "n_tok").pages) for r in rows)
    assert before["bytes_total"] == sum(
        pipeline._column_meta(r, "n_tok")["length"] for r in rows)
    os.remove(pruned[0]["file"])
    assert pipeline.late_materialized_sum(store, "grade", 7, "n_tok") \
        .iloc[0].to_dict() == before


@pytest.mark.parametrize("column,descending,k", [
    ("rank", False, 10), ("rank", False, 150),
    ("bonus", True, 10), ("bonus", True, 150),
    ("grade", False, 150), ("grade", True, 150)])
def test_ordered_limit_scan_counts_only_non_null_rows(shared_store, column,
                                                      descending, k):
    """The answer is the k best non-NULL values: a mostly-NULL partition
    first in the order covers fewer than k of them, and an all-NULL
    partition holds none."""
    vals = [r[column] for r in _decoded(shared_store).values()
            if r[column] is not None]
    want = sorted(vals, reverse=descending)[:k]
    ds, plan = planner.ordered_limit_scan(shared_store, column, k,
                                          columns=["doc_id", column],
                                          descending=descending)
    assert ds.to_pandas()[column].tolist() == want
    rows = pipeline.load_manifest(shared_store)
    assert not {r["pid"] for r in rows
                if r["stats"][column]["min"] is None} & set(plan["pids"])


def test_lookup_docs_matches_decode_filter(shared_store):
    dec = _decoded(shared_store)
    ids = sorted(dec)
    keys = [ids[0], ids[150], ids[299], ids[150] + "x", "zzz"]
    got = pipeline.lookup_docs(shared_store, keys).to_pandas()
    assert sorted(got["doc_id"]) == [ids[0], ids[150], ids[299]]


def _rwcf_trees():
    """(path relative to rwcf/, parsed module) for every rwcf source."""
    root = os.path.join(os.path.dirname(os.path.dirname(__file__)), "rwcf")
    for dirpath, _dirs, files in os.walk(root):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path) as f:
                    yield os.path.relpath(path, root), ast.parse(f.read())


def _definitions(name: str) -> list[str]:
    return [path for path, tree in _rwcf_trees() for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == name]


def _callers(attr: str) -> set:
    """(file, innermost enclosing function) of every call to
    ``attr(...)`` or ``<expr>.attr(...)`` under rwcf/."""
    found = set()

    def walk(node, path, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                if getattr(f, "attr", getattr(f, "id", None)) == attr:
                    found.add((path, fn))
            walk(child, path, child.name if isinstance(
                child, ast.FunctionDef) else fn)

    for path, tree in _rwcf_trees():
        walk(tree, path, None)
    return found


def test_one_zone_map_writer_rule_and_bloom_probe():
    """Zone maps have one writer, one admission rule and one Bloom
    probe: a new reader or writer goes through these helpers."""
    for name in ("zone_map", "_zone_admits", "_bloom_admits"):
        assert _definitions(name) == ["pipeline.py"], name
    assert _callers("might_contain") == {("pipeline.py", "_bloom_admits")}
    # format.py's per-page stats are the other min/max index
    assert _callers("min_max") == {("pipeline.py", "zone_map"),
                                   ("format.py", "page_value_stats")}


def test_dataset_wrap_only_behind_public_point_readers():
    """Of the point plans only lookup_docs and range_scan_docs wrap their
    results in a Ray Dataset (_admitted_scan); deletes, upserts and the
    internal lookups take driver results (_admitted_results)."""
    assert _callers("_admitted_scan") == {("pipeline.py", "lookup_docs"),
                                          ("pipeline.py", "range_scan_docs")}
    assert _callers("from_arrow_refs") == {("pipeline.py", "_admitted_scan")}
