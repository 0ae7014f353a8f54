"""Self-test of the benchmark at toy size (about two minutes on one core).

    python3 perfbench/selftest.py

Runs every workload untraced and traced at toy scale, each run as its own
``perfbench/run.py`` process, and checks that each run exits 0, is correct
and reports exactly the metrics, with the units, that BENCHMARK.json
declares. Then checks that corruption is caught:
one flipped byte in an encoded partition makes ``decode_partition`` raise
"checksum mismatch", and one changed token makes the ingest comparison
fail. Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import harness  # noqa: E402
from perfbench import workloads as wl  # noqa: E402

SPEC = os.path.join(harness.ROOT, "BENCHMARK.json")
RUN = os.path.join(harness.ROOT, "perfbench", "run.py")


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}", file=sys.stderr)


def check_metrics(spec: dict) -> None:
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            label = f"{w['name']} trace={trace}"
            proc = subprocess.run(
                [sys.executable, RUN, "--workload", w["name"], "--seed", "5",
                 "--seconds", "1", "--trace", str(trace), "--scale", "toy"],
                stdout=subprocess.PIPE, text=True, timeout=180)
            expect(proc.returncode == 0, f"{label}: exit code 0")
            res = json.loads(proc.stdout.splitlines()[-1])
            expect(res["correct"] and res["failed"] == 0
                   and res["attempted"] >= 1, f"{label}: correct, no failures")
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            expect(got == want[trace], f"{label}: metric names and units")
            expect(all(isinstance(m["value"], (int, float))
                       for m in res["metrics"].values()),
                   f"{label}: numeric values")


def check_corruption() -> None:
    from rwcf import pipeline

    run_dir = harness.make_run_dir()
    session = None
    try:
        w = wl.Ingest(run_dir, 5, wl.TOY)
        w.prepare()
        session = harness.RaySession()
        cfg = pipeline.EncodeConfig(out_dir=w.store)
        pipeline.encode_job(w.input_path, cfg).to_pandas()
        dec = wl.collect(pipeline.decode_job(w.store))
        expect(w.matches_input(dec), "clean store decodes to the input")

        tokens = dec.column("tokens").combine_chunks()
        flat = tokens.values.to_numpy().copy()
        flat[len(flat) // 2] ^= 1
        changed = dec.set_column(
            dec.schema.get_field_index("tokens"), "tokens",
            type(tokens).from_arrays(tokens.offsets, flat))
        expect(not w.matches_input(changed),
               "ingest check fails on one changed token")

        row = pipeline.load_manifest(w.store)[0]
        tok = next(c for c in row["columns"] if c["column"] == "tokens")
        with open(row["file"], "r+b") as f:
            f.seek(tok["offset"] + tok["length"] // 2)
            b = f.read(1)
            f.seek(-1, os.SEEK_CUR)
            f.write(bytes([b[0] ^ 0xFF]))
        try:
            pipeline.decode_partition(row)
        except IOError as e:
            expect("checksum mismatch" in str(e),
                   f"flipped byte raises checksum mismatch ({e})")
        else:
            expect(False, "flipped byte raises checksum mismatch")
    finally:
        if session is not None:
            session.stop()
        harness.remove_run_dir(run_dir)


def main() -> int:
    with open(SPEC) as f:
        spec = json.load(f)
    check_metrics(spec)
    check_corruption()
    print("selftest passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
