"""rwcf benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload ingest|lookup|mutate --seed N \\
        --seconds S --trace 0|1 [--scale full|toy]

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1``
they are the per-layer ones, from a traced measurement that follows an
untraced one. Everything else goes to standard error. The exit code is 0
only when every output was correct. DESIGN.md explains the choices.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import harness, tracer  # noqa: E402
from perfbench import workloads as wl  # noqa: E402

#: a run that has not finished by then stops with an error; with the
#: final wait for its processes (at most 15 s) it ends within 180 s
RUN_DEADLINE_S = 160

END_TO_END_UNITS = {"setup_s": "s", "call_ms": "ms", "cpu_ms_call": "ms",
                    "bytes_per_token": "B/tok"}

API_KINDS = ("encode_job", "decode_job", "lookup_docs", "range_scan_docs",
             "delete_docs", "upsert_docs")


class Deadline(BaseException):
    """Raised by SIGALRM/SIGTERM; not caught by the per-call handler."""


def _on_signal(signum, _frame):
    raise Deadline(f"stopped by signal {signum}")


def measure(w: wl.Workload, seconds: float, calls: wl.Calls) -> None:
    end = time.perf_counter() + seconds
    cycles = 0
    while cycles < w.scale.min_cycles or time.perf_counter() < end:
        if not w.cycle(calls):
            break
        cycles += 1


def run_untraced(w: wl.Workload, seconds: float) -> tuple[wl.Calls, dict]:
    """Set up ``setup_reps`` times, each time on a fresh Ray session and
    store, and measure an equal share of ``seconds`` after each set-up.
    Spreading the measurement over several sessions averages out the
    differences between sessions, which are larger than those between
    calls of one session."""
    reps = w.scale.setup_reps
    setups = []
    calls = wl.Calls()
    for _ in range(reps):
        t0 = time.perf_counter()
        session = harness.RaySession()
        try:
            session.warm_up()
            w.build()
            setups.append(time.perf_counter() - t0)
            w.after_build()
            measure(w, seconds / reps, calls)
            w.finish(calls)
            bytes_per_token = w.bytes_per_token()
        finally:
            session.stop()
        w.discard_store()
    metrics = {
        "setup_s": statistics.median(setups),
        "call_ms": calls.call_ms(w.MIX),
        "cpu_ms_call": calls.cpu_ms_call(w.MIX),
        "bytes_per_token": bytes_per_token,
    }
    return calls, {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in metrics.items()}


def run_traced(w: wl.Workload, seconds: float,
               run_dir: str) -> tuple[list[wl.Calls], dict]:
    """An untraced phase, then the same measurement with every layer
    traced; both phases run on a fresh session and store."""
    session = harness.RaySession()
    try:
        session.warm_up()
        w.build()
        w.after_build()
        base = wl.Calls()
        measure(w, seconds, base)
        w.finish(base)
    finally:
        session.stop()
    w.discard_store()

    rec = tracer.install_driver()
    trace_dir = os.path.join(run_dir, "trace")
    os.makedirs(trace_dir)
    session = harness.RaySession(trace_dir=trace_dir)
    try:
        session.warm_up()
        t_setup = time.time()
        w.build()
        w.after_build()
        traced = wl.Calls()
        w.track_commits = True
        rec.reset()
        t_window = time.time()
        measure(w, seconds, traced)
        t_end = time.time()
        driver = (dict(rec.spans), dict(rec.counts))
        w.finish(traced)
    finally:
        session.stop()
    records = tracer.read_worker_records(trace_dir)
    setup_recs = [r for r in records if t_setup <= r["t0"] < t_window]
    window_recs = [r for r in records if t_window <= r["t0"] < t_end]
    metrics = per_layer(w, base, traced, driver, window_recs, setup_recs)
    return [base, traced], metrics


def _merge(driver: tuple[dict, dict], recs: list[dict]):
    spans = {k: list(v) for k, v in driver[0].items()}
    counts = dict(driver[1])
    for r in recs:
        for k, (c, tot, slf) in r["spans"].items():
            agg = spans.setdefault(k, [0, 0.0, 0.0])
            agg[0] += c
            agg[1] += tot
            agg[2] += slf
        for k, v in r["counts"].items():
            counts[k] = counts.get(k, 0) + v
    return spans, counts


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in output order."""
    from rwcf.codecs import REGISTRY

    names = []
    for kind in API_KINDS:
        names.append((f"api.{kind}.p50_ms", "ms"))
    for kind in ("encode_job", "decode_job"):
        names += [(f"api.{kind}.tok_s", "tok/s"),
                  (f"api.{kind}.cpu_ns_tok", "ns/tok")]
    names += [("selector.choose_codec.ms", "ms"),
              ("selector.choose_codec.share_of_encode", "ratio")]
    for cid in REGISTRY:
        names += [(f"codecs.{cid}.estimate_size.ms", "ms"),
                  (f"codecs.{cid}.encode.ms", "ms"),
                  (f"codecs.{cid}.encode.bytes_out", "B"),
                  (f"codecs.{cid}.decode.ms", "ms")]
    names += [(f"format.{f}.ms", "ms") for f in (
        "write_column_file", "page_value_stats", "read_column_file",
        "decode_chunk")]
    names += [
        ("pipeline.encode_partition.self_ms", "ms"),
        ("pipeline.encode_partition.calls", "count"),
        ("pipeline.decode_partition.self_ms", "ms"),
        ("pipeline.load_manifest.calls_per_op", "count"),
        ("pipeline.load_manifest.ms_per_call", "ms"),
        ("pipeline.load_manifest.rows", "count"),
        ("pipeline.read_column_skeleton.calls_per_op", "count"),
        ("pipeline.read_column_pages.pages_per_op", "count"),
        ("pipeline.read_column_pages.bytes_per_op", "B"),
        ("pipeline.lookup.useful_partition_ratio", "ratio"),
        ("bloom.build.ms", "ms"),
        ("bloom.build.setup_ms", "ms"),
        ("bloom.might_contain.calls", "count"),
        ("bloom.reject_ratio", "ratio"),
        ("pipeline.delete_docs.self_ms", "ms"),
        ("pipeline.upsert_docs.self_ms", "ms"),
        ("pipeline.commit.files_per_op", "count"),
        ("pipeline.commit.bytes_written_per_user_byte", "ratio"),
        ("ray.overhead_ms_per_op", "ms"),
        ("trace.overhead_share", "ratio"),
        ("trace.udf_layer_share", "ratio"),
    ]
    return names


def per_layer(w: wl.Workload, base: wl.Calls, traced: wl.Calls,
              driver: tuple[dict, dict], recs: list[dict],
              setup_recs: list[dict]) -> dict:
    """Per-layer metrics. Times and counts are per timed API call of the
    traced phase unless the name says otherwise; api.* come from the
    untraced phase."""
    spans, counts = _merge(driver, recs)
    n_ops = max(1, traced.n_calls())

    def total_ms(name):
        return spans.get(name, [0, 0.0, 0.0])[1] * 1e3

    def self_ms(name):
        return spans.get(name, [0, 0.0, 0.0])[2] * 1e3

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    v: dict[str, float] = {}
    for kind in API_KINDS:
        v[f"api.{kind}.p50_ms"] = base.p50_ms(kind)
    for kind in ("encode_job", "decode_job"):
        n = len(base.samples.get(kind, ()))
        v[f"api.{kind}.tok_s"] = _ratio(w.tokens * 1e3, base.p50_ms(kind))
        v[f"api.{kind}.cpu_ns_tok"] = _ratio(
            base.cpu_s.get(kind, 0.0) * 1e9, n * w.tokens)
    v["selector.choose_codec.ms"] = total_ms("selector.choose_codec") / n_ops
    v["selector.choose_codec.share_of_encode"] = _ratio(
        total_ms("selector.choose_codec"), total_ms("pipeline.encode_partition"))
    from rwcf.codecs import REGISTRY

    for cid in REGISTRY:
        for m in ("estimate_size", "encode", "decode"):
            v[f"codecs.{cid}.{m}.ms"] = total_ms(f"codecs.{cid}.{m}") / n_ops
        v[f"codecs.{cid}.encode.bytes_out"] = \
            counts.get(f"codecs.{cid}.encode.bytes_out", 0) / n_ops
    for f in ("write_column_file", "page_value_stats", "read_column_file",
              "decode_chunk"):
        v[f"format.{f}.ms"] = total_ms(f"format.{f}") / n_ops
    lm_calls = calls("pipeline.load_manifest")
    v.update({
        "pipeline.encode_partition.self_ms":
            self_ms("pipeline.encode_partition") / n_ops,
        "pipeline.encode_partition.calls":
            calls("pipeline.encode_partition") / n_ops,
        "pipeline.decode_partition.self_ms":
            self_ms("pipeline.decode_partition") / n_ops,
        "pipeline.load_manifest.calls_per_op": lm_calls / n_ops,
        "pipeline.load_manifest.ms_per_call":
            _ratio(total_ms("pipeline.load_manifest"), lm_calls),
        "pipeline.load_manifest.rows":
            _ratio(counts.get("pipeline.load_manifest.rows", 0), lm_calls),
        "pipeline.read_column_skeleton.calls_per_op":
            calls("pipeline.read_column_skeleton") / n_ops,
        "pipeline.read_column_pages.pages_per_op":
            counts.get("pipeline.read_column_pages.pages", 0) / n_ops,
        "pipeline.read_column_pages.bytes_per_op":
            counts.get("pipeline.read_column_pages.bytes", 0) / n_ops,
        "pipeline.lookup.useful_partition_ratio": _ratio(
            counts.get("pipeline.lookup.partitions_hit", 0),
            counts.get("pipeline.lookup.partitions_read", 0)),
        "bloom.build.ms": total_ms("bloom.build") / n_ops,
        "bloom.build.setup_ms": sum(
            r["spans"].get("bloom.build", [0, 0.0])[1]
            for r in setup_recs) * 1e3,
        "bloom.might_contain.calls": calls("bloom.might_contain") / n_ops,
        "bloom.reject_ratio": _ratio(
            counts.get("bloom.might_contain.rejects", 0),
            calls("bloom.might_contain")),
        "pipeline.delete_docs.self_ms":
            self_ms("pipeline.delete_docs") / n_ops,
        "pipeline.upsert_docs.self_ms":
            self_ms("pipeline.upsert_docs") / n_ops,
    })
    n_writes = len(traced.samples.get("delete_docs", ())) \
        + len(traced.samples.get("upsert_docs", ()))
    v["pipeline.commit.files_per_op"] = _ratio(traced.write_files, n_writes)
    v["pipeline.commit.bytes_written_per_user_byte"] = _ratio(
        traced.write_bytes, traced.user_bytes)
    udf_s = sum(r["dur"] for r in recs)
    udf_self_s = sum(r["self"] for r in recs)
    v["ray.overhead_ms_per_op"] = (total_ms("ray.wait") - udf_s * 1e3) / n_ops
    v["trace.overhead_share"] = _ratio(traced.call_ms(w.MIX),
                                       base.call_ms(w.MIX)) - 1
    v["trace.udf_layer_share"] = _ratio(udf_s - udf_self_s, udf_s)
    return {name: {"value": v[name], "unit": unit}
            for name, unit in per_layer_names()}


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: wl.Scale = wl.FULL) -> dict:
    run_dir = harness.make_run_dir()
    try:
        w = wl.WORKLOADS[workload](run_dir, seed, scale)
        w.prepare()
        if trace:
            phases, metrics = run_traced(w, seconds, run_dir)
        else:
            calls, metrics = run_untraced(w, seconds)
            phases = [calls]
    finally:
        harness.remove_run_dir(run_dir)
    wrong = [m for c in phases for m in c.wrong]
    return {"correct": not wrong,
            "attempted": sum(c.attempted for c in phases),
            "failed": sum(c.failed for c in phases),
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(wl.SCALES), default="full",
                    help="input sizes; toy is for the self-test")
    args = ap.parse_args(argv)
    try:
        import rwcf.pipeline  # noqa: F401
    except ImportError as e:
        print(f"perfbench: cannot import rwcf ({e}); run from the root of "
              f"an rwcf checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    signal.alarm(RUN_DEADLINE_S)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     wl.SCALES[args.scale])
    except (Exception, Deadline):  # noqa: BLE001  (report, no result)
        traceback.print_exc()
        return 1
    finally:
        signal.alarm(0)
        # a stop request must not cut short the wait for Ray's processes
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        harness.reap_descendants(10.0)
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
