"""The three benchmark workloads and their correctness checks.

Each workload is a closed loop with one client (this driver process): the
next call is issued when the previous one has returned. A *cycle* is one
pass over the workload's fixed call mix; every call goes through
``Calls.call``, which times it, charges the CPU used by the driver and all
Ray processes meanwhile, and counts calls that raise. ``MIX`` holds the
measured calls of a cycle: mutate's checking lookups are counted and
checked, but not measured.

Each workload's table comes from ``rwcf.fixtures.tokens_table`` with a data
seed of its own that ``--seed`` does not change, so ``bytes_per_token`` is
the same on every seed. ``--seed`` draws the traffic: the order of the
ingest table's row groups, the probe keys and ranges of lookup, and the
keys and rows mutate writes.

The sizes of the calls follow the contract queries in ``__ray_entry__.py``
that make the same calls on the correctness-scale store (DESIGN.md lists
them).

rwcf is imported inside functions, so that ``run.py`` can report a
directory without rwcf instead of failing on import.
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from perfbench import harness


@dataclass(frozen=True)
class Scale:
    ingest_rows: int
    store_rows: int
    row_group: int
    #: partition_token_budget of the lookup store (many small partitions)
    lookup_budget: int
    mutate_budget: int
    #: set-ups per untraced run, each followed by an equal share of the
    #: measurement; setup_s is their median
    setup_reps: int
    #: cycles a measurement after one set-up completes even when its share
    #: of --seconds has passed
    min_cycles: int


FULL = Scale(ingest_rows=20_000, store_rows=10_000, row_group=1_000,
             lookup_budget=25_000, mutate_budget=100_000, setup_reps=3,
             min_cycles=2)
TOY = Scale(ingest_rows=1_500, store_rows=1_200, row_group=300,
            lookup_budget=4_000, mutate_budget=20_000, setup_reps=1,
            min_cycles=2)
SCALES = {"full": FULL, "toy": TOY}

#: hits per lookup_docs call, as the present keys of doc_lookup and
#: doc_lookup_bloom; each call adds as many in-range misses
HITS_PER_LOOKUP = 3
#: doc_ids per range_scan_docs call: range_scan_docs' "200".."205"
RANGE_WIDTH = 6
#: keys per delete_docs call: _DELETED_KEYS of the delete_* queries
KEYS_PER_DELETE = 6
#: rows per upsert_docs call that replace live docs, and that are new:
#: upsert_scan's two updated doc_ids and one brand-new one
UPSERT_REPLACED = 2
UPSERT_NEW = 1
BLOOM_BITS_PER_KEY = 10
#: rows of the table upserted rows are drawn from; under 200 rows
#: tokens_table plants no skew tail, so these are F1 body rows
UPSERT_POOL_ROWS = 199


class Calls:
    """Timed public-API calls of one measurement phase."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.cpu_s: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.write_files = 0
        self.write_bytes = 0
        self.user_bytes = 0

    def call(self, kind: str, fn):
        """Run ``fn()`` as one timed call of ``kind``. Returns
        ``(ok, result)``; a call that raises counts as failed."""
        self.attempted += 1
        cpu0 = harness.process_tree_cpu_s()
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as e:  # noqa: BLE001  (a failed op is counted)
            self.failed += 1
            print(f"perfbench: {kind} failed: {e!r}", file=sys.stderr)
            return False, None
        dt = time.perf_counter() - t0
        cpu1 = harness.process_tree_cpu_s()
        self.samples.setdefault(kind, []).append(dt)
        self.cpu_s[kind] = self.cpu_s.get(kind, 0.0) + (cpu1 - cpu0)
        return True, out

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.wrong.append(what)
            print(f"perfbench: WRONG: {what}", file=sys.stderr)

    def n_calls(self) -> int:
        return sum(len(v) for v in self.samples.values())

    def p50_ms(self, kind: str) -> float:
        s = self.samples.get(kind)
        return statistics.median(s) * 1e3 if s else 0.0

    def call_ms(self, mix: dict[str, int]) -> float:
        """Latency of one call in the workload's fixed mix: the per-kind
        medians, weighted by how often the mix issues each kind."""
        return sum(w * self.p50_ms(k) for k, w in mix.items()) \
            / sum(mix.values())

    def cpu_ms_call(self, mix: dict[str, int]) -> float:
        """CPU per call of the kinds in ``mix``."""
        return sum(self.cpu_s.get(k, 0.0) for k in mix) * 1e3 \
            / max(1, sum(len(self.samples.get(k, ())) for k in mix))


def collect(ds) -> pa.Table | None:
    """Materialise a Dataset's blocks in the driver as one Arrow table."""
    import ray

    tables = ray.get(ds.to_arrow_refs())
    return pa.concat_tables(tables) if tables else None


def doc_id(i: int) -> str:
    return f"doc-{i:012d}"


def _is_manifest_row(rel: str) -> bool:
    # manifest rows embed the store's absolute path, so their size
    # depends on where the checkout lives; tombstones (*.del.json) count
    return rel.startswith("manifest" + os.sep) and rel.endswith(".json") \
        and not rel.endswith(".del.json")


def data_bytes(store: str) -> int:
    """Bytes under ``store`` except manifest rows."""
    return harness.tree_bytes(store, skip=_is_manifest_row)


class TokenRows:
    """Row-indexed view of a generated F1 table's token lists."""

    def __init__(self, table: pa.Table):
        col = table.column("tokens").combine_chunks()
        self.values = col.values.to_numpy()
        self.offsets = col.offsets.to_numpy()
        self.n_tok = np.diff(self.offsets)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.values[self.offsets[i]:self.offsets[i + 1]]


def result_rows(t: pa.Table | None) -> dict[str, np.ndarray]:
    """doc_id -> tokens of a lookup result; a duplicate doc_id is kept
    under a suffixed key so that a check on the key set catches it."""
    out: dict[str, np.ndarray] = {}
    if t is None or t.num_rows == 0:
        return out
    tv = TokenRows(t)
    for j, d in enumerate(t.column("doc_id").to_pylist()):
        out[d if d not in out else f"{d}#dup{j}"] = tv[j]
    return out


class Workload:
    name = ""
    MIX: dict[str, int] = {}
    #: tokens_table seed of the workload's table, fixed across --seed
    data_seed = 0

    def __init__(self, run_dir: str, seed: int, scale: Scale):
        self.run_dir = run_dir
        self.seed = seed
        self.scale = scale
        self.store = os.path.join(run_dir, "store")
        self.rng = np.random.default_rng([seed, self.data_seed, 7])
        self.track_commits = False

    def write_input(self, n_rows: int, shuffle_row_groups: bool = False):
        from rwcf import fixtures

        self.table = fixtures.tokens_table(n_rows, self.data_seed)
        self.rows = TokenRows(self.table)
        self.tokens = int(self.rows.n_tok.sum())
        self.input_path = os.path.join(self.run_dir, "input.parquet")
        rg = self.scale.row_group
        out = self.table
        if shuffle_row_groups:
            starts = self.rng.permutation(np.arange(0, n_rows, rg))
            out = out.take(np.concatenate(
                [np.arange(i, min(i + rg, n_rows)) for i in starts]))
        pq.write_table(out, self.input_path, row_group_size=rg)

    def prepare(self) -> None:
        """Generate inputs (before the setup_s clock starts)."""

    def build(self) -> None:
        """Set-up work after Ray is up: build the store, if any."""

    def after_build(self) -> None:
        """Untimed bookkeeping that needs the built store."""

    def discard_store(self) -> None:
        shutil.rmtree(self.store, ignore_errors=True)

    def cycle(self, calls: Calls) -> bool:
        """One pass over MIX; False stops the loop."""
        raise NotImplementedError

    def finish(self, calls: Calls) -> None:
        """Untimed end-of-run checks."""

    def bytes_per_token(self) -> float:
        raise NotImplementedError

    def encode_store(self, budget: int) -> None:
        from rwcf import pipeline

        cfg = pipeline.EncodeConfig(out_dir=self.store,
                                    partition_token_budget=budget,
                                    bloom_bits_per_key=BLOOM_BITS_PER_KEY)
        pipeline.encode_job(self.input_path, cfg).to_pandas()

    def lookup_call(self, calls: Calls, keys: list[str]):
        from rwcf import pipeline

        ok, out = calls.call(
            "lookup_docs",
            lambda: collect(pipeline.lookup_docs(self.store, keys)))
        return ok, result_rows(out) if ok else None


class Ingest(Workload):
    """Bulk encode of an F1 parquet table with the auto selector, then a
    full decode scan checked bit for bit against the input."""

    name = "ingest"
    MIX = {"encode_job": 1, "decode_job": 1}
    data_seed = 1

    def prepare(self) -> None:
        # a partition never spans row groups, so their order changes
        # which pid holds a row but not what is encoded together
        self.write_input(self.scale.ingest_rows, shuffle_row_groups=True)
        self.stored_bytes = 0

    def cycle(self, calls: Calls) -> bool:
        from rwcf import pipeline

        self.discard_store()
        cfg = pipeline.EncodeConfig(out_dir=self.store)
        ok, _ = calls.call(
            "encode_job",
            lambda: pipeline.encode_job(self.input_path, cfg).to_pandas())
        if not ok:
            return True
        self.stored_bytes = data_bytes(os.path.join(self.store, "parts"))
        ok, dec = calls.call(
            "decode_job", lambda: collect(pipeline.decode_job(self.store)))
        if ok:
            calls.check(self.matches_input(dec),
                        "ingest: decoded table differs from the input")
        return True

    def matches_input(self, dec: pa.Table | None) -> bool:
        if dec is None or dec.num_rows != self.table.num_rows:
            return False
        dec = dec.take(pc.sort_indices(dec, [("doc_id", "ascending")]))
        return sorted(dec.column_names) == sorted(self.table.column_names) \
            and all(dec.column(c).combine_chunks().equals(
                self.table.column(c).combine_chunks())
                for c in self.table.column_names)

    def bytes_per_token(self) -> float:
        return self.stored_bytes / self.tokens


class Lookup(Workload):
    """Point lookups and narrow range scans against a store of many small
    partitions with a doc_id Bloom sidecar."""

    name = "lookup"
    #: the contract has two point-lookup queries (doc_lookup,
    #: doc_lookup_bloom) and two range scans (range_scan_docs,
    #: delete_range_scan)
    MIX = {"lookup_docs": 1, "range_scan_docs": 1}
    data_seed = 2

    def prepare(self) -> None:
        self.write_input(self.scale.store_rows)

    def build(self) -> None:
        self.encode_store(self.scale.lookup_budget)

    def after_build(self) -> None:
        from rwcf import pipeline

        # a miss "doc-…1234x" sorts between doc 1234 and 1235, inside the
        # zone map of the partition holding doc 1234 unless that doc is
        # the partition's last: only the Bloom sidecar can reject it
        last = {int(r["stats"]["doc_id"]["max"][4:])
                for r in pipeline.load_manifest(self.store)}
        n = self.table.num_rows
        self.miss_base = np.setdiff1d(np.arange(n), np.array(sorted(last)))

    def cycle(self, calls: Calls) -> bool:
        self._lookup(calls)
        self._range(calls)
        return True

    def _lookup(self, calls: Calls) -> None:
        hits = self.rng.choice(self.table.num_rows, HITS_PER_LOOKUP,
                               replace=False)
        misses = self.rng.choice(self.miss_base, HITS_PER_LOOKUP,
                                 replace=False)
        keys = [doc_id(i) for i in hits] + [doc_id(i) + "x" for i in misses]
        ok, got = self.lookup_call(calls, keys)
        if ok:
            calls.check(
                sorted(got) == sorted(doc_id(i) for i in hits)
                and all(np.array_equal(got[doc_id(i)], self.rows[i])
                        for i in hits),
                f"lookup: wrong rows for keys {keys}")

    def _range(self, calls: Calls) -> None:
        from rwcf import pipeline

        i = int(self.rng.integers(0, self.table.num_rows - RANGE_WIDTH))
        lo, hi = doc_id(i), doc_id(i + RANGE_WIDTH - 1)
        ok, out = calls.call(
            "range_scan_docs",
            lambda: collect(pipeline.range_scan_docs(self.store, lo, hi)))
        if not ok:
            return
        want = list(range(i, i + RANGE_WIDTH))
        got = [] if out is None else sorted(
            zip(out.column("doc_id").to_pylist(),
                out.column("n_tok").to_pylist()))
        calls.check(got == [(doc_id(j), int(self.rows.n_tok[j]))
                            for j in want],
                    f"range scan [{lo}, {hi}] differs from a filter")

    def bytes_per_token(self) -> float:
        return data_bytes(self.store) / self.tokens


class Mutate(Workload):
    """Rounds of small delete_docs and upsert_docs calls, each followed by
    a checking lookup_docs."""

    name = "mutate"
    #: every contract query that writes both calls delete_docs once, then
    #: upsert_docs once; each write is followed by a checking lookup_docs
    MIX = {"delete_docs": 1, "upsert_docs": 1}
    data_seed = 3

    def prepare(self) -> None:
        from rwcf import fixtures

        self.write_input(self.scale.store_rows)
        self.pool = TokenRows(
            fixtures.tokens_table(UPSERT_POOL_ROWS, self.data_seed))

    def build(self) -> None:
        self.encode_store(self.scale.mutate_budget)
        # a fresh store holds the whole table again
        n = self.table.num_rows
        self.untouched = list(self.rng.permutation(n))
        self.next_new = n
        self.live_tokens = self.tokens
        self.rounds = 0
        self.space = None

    def _take_untouched(self, k: int) -> list[int]:
        out, self.untouched = self.untouched[:k], self.untouched[k:]
        return [int(i) for i in out]

    def _write(self, calls: Calls, kind: str, fn, user_bytes: int = 0):
        before = harness.file_states(self.store) if self.track_commits \
            else None
        ok, out = calls.call(kind, fn)
        if ok and before is not None:
            after = harness.file_states(self.store)
            changed = [p for p, st in after.items() if before.get(p) != st]
            calls.write_files += len(changed)
            calls.write_bytes += sum(
                after[p][0] - before.get(p, (0, 0))[0] for p in changed)
            calls.user_bytes += user_bytes
        return ok, out

    def cycle(self, calls: Calls) -> bool:
        from rwcf import pipeline

        gone = self._take_untouched(KEYS_PER_DELETE)
        keys = [doc_id(i) for i in gone]
        ok, res = self._write(calls, "delete_docs",
                              lambda: pipeline.delete_docs(self.store, keys))
        if not ok:
            return False
        calls.check(res["rows_deleted"] == len(keys),
                    f"delete_docs deleted {res['rows_deleted']} of {keys}")
        self.live_tokens -= int(sum(self.rows.n_tok[i] for i in gone))
        ok, got = self.lookup_call(calls, keys)
        if ok:
            calls.check(not got, f"deleted keys still visible: {sorted(got)}")

        new_rows, want = self._upsert_rows()
        ok, res = self._write(
            calls, "upsert_docs",
            lambda: pipeline.upsert_docs(self.store, new_rows),
            user_bytes=new_rows.nbytes)
        if not ok:
            return False
        calls.check(res["rows_upserted"] == len(want)
                    and res["rows_shadowed"] == UPSERT_REPLACED,
                    f"upsert_docs returned {res}")
        ok, got = self.lookup_call(calls, sorted(want))
        if ok:
            calls.check(sorted(got) == sorted(want) and all(
                np.array_equal(got[k], v) for k, v in want.items()),
                f"upserted keys do not read back: {sorted(want)}")
        self.rounds += 1
        if self.rounds == self.scale.min_cycles:
            # space is sampled after a fixed number of rounds, so it does
            # not depend on how many rounds fit into --seconds
            self.space = data_bytes(self.store) / self.live_tokens
        return True

    def _upsert_rows(self) -> tuple[pa.Table, dict[str, np.ndarray]]:
        """UPSERT_REPLACED rows replace live docs and UPSERT_NEW rows are
        new doc_ids; their tokens are those of random F1 body rows."""
        from rwcf import pipeline

        old = self._take_untouched(UPSERT_REPLACED)
        new = list(range(self.next_new, self.next_new + UPSERT_NEW))
        self.next_new += UPSERT_NEW
        picks = self.rng.choice(UPSERT_POOL_ROWS, len(old) + len(new),
                                replace=False)
        want = {doc_id(i): self.pool[int(j)]
                for i, j in zip(old + new, picks)}
        self.live_tokens += sum(v.size for v in want.values()) \
            - int(sum(self.rows.n_tok[i] for i in old))
        ids = list(want)
        table = pa.table({
            "doc_id": pa.array(ids, pa.string()),
            "tokens": pa.array([want[k] for k in ids],
                               pa.list_(pa.int32())),
            "n_tok": pa.array([want[k].size for k in ids], pa.int32()),
            "source": pa.array(["web-common"] * len(ids), pa.string()),
        })
        return table.cast(pipeline.TOKENS_SCHEMA), want

    def finish(self, calls: Calls) -> None:
        from rwcf import pipeline

        report = pipeline.fsck_store(self.store).to_pandas()
        bad = report[~report["ok"]]
        calls.check(bad.empty, f"fsck_store: {bad.to_dict('records')[:5]}")

    def bytes_per_token(self) -> float:
        if self.space is None:  # a failed write ended the run early
            return data_bytes(self.store) / self.live_tokens
        return self.space


WORKLOADS = {w.name: w for w in (Ingest, Lookup, Mutate)}
