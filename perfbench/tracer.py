"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each rwcf layer from outside the
program: ``rwcf.pipeline``, ``rwcf.selector``, ``rwcf.format``,
``rwcf.bloom`` and the ``estimate_size``/``encode``/``decode`` methods of
every codec class in ``rwcf.codecs.REGISTRY``. Each call records one span
(name, duration, time spent in child spans); spans are folded into per-name
aggregates in memory, so a layer's self time is its duration minus the part
its traced children cover.

In the driver, ``install_driver`` also wraps ``ray.data.Dataset.map_batches``
so that every UDF an rwcf job submits runs under ``run_udf``. Ray worker
processes install the same layer wrappers through the
``worker_process_setup_hook`` named by ``WORKER_HOOK``; ``run_udf`` then
records one top-level span per UDF call and appends the worker's aggregates
for that call as one JSON line to a per-process file in the trace
directory, because Ray may kill idle workers without running exit hooks.

Wrappers copy ``__module__`` and ``__qualname__`` from the wrapped
function, so cloudpickle still pickles them by reference: a function
shipped from the driver resolves to the worker's own wrapper.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import threading
import time

#: environment variable naming the directory worker processes write to
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
#: import path Ray calls in every new worker process of a traced session
WORKER_HOOK = "perfbench.tracer.install_worker"

LAYER_MODULES = ("rwcf.pipeline", "rwcf.selector", "rwcf.format", "rwcf.bloom")
CODEC_METHODS = ("estimate_size", "encode", "decode")
#: Dataset methods through which a driver waits for a Ray job to finish
RAY_WAIT_METHODS = ("to_pandas", "to_arrow_refs", "materialize")

_recorder: "Recorder | None" = None


class Recorder:
    """Per-process span and counter aggregates."""

    def __init__(self):
        self._local = threading.local()
        self.scope = "driver"
        self._sink = None
        self.reset()

    def reset(self) -> None:
        #: name -> [calls, total_s, self_s]
        self.spans: dict[str, list[float]] = {}
        #: name -> summed value
        self.counts: dict[str, float] = {}

    def write(self, record: dict) -> None:
        """Append one JSON line to this process's file in the trace
        directory; a line reaches the OS as soon as it is written."""
        if self._sink is None:
            path = os.path.join(os.environ[TRACE_DIR_ENV],
                                f"worker-{os.getpid()}.jsonl")
            self._sink = open(path, "a", buffering=1)
        self._sink.write(json.dumps(record) + "\n")

    def stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def add_span(self, name: str, dur: float, self_s: float) -> None:
        agg = self.spans.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += dur
        agg[2] += self_s

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def innermost(self, prefix: str) -> str | None:
        for frame in reversed(self.stack()):
            if frame[0].startswith(prefix):
                return frame[0]
        return None

    def timed(self, name: str, fn, args, kwargs, probe=None):
        """Run ``fn`` as one span named ``name``; ``probe(rec, args,
        kwargs, result, parent)`` then adds the call's counters."""
        st = self.stack()
        frame = [name, 0.0]
        st.append(frame)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            st.pop()
            if st:
                st[-1][1] += dur
            self.add_span(name, dur, dur - frame[1])
        if probe is not None:
            probe(self, args, kwargs, out, st[-1][0] if st else None)
        return out


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


# ---------------------------------------------------------------------------
# counters taken at layer boundaries
# ---------------------------------------------------------------------------

def _probe_load_manifest(rec, args, kwargs, out, parent):
    rec.count("pipeline.load_manifest.rows", len(out))


def _probe_read_column_pages(rec, args, kwargs, out, parent):
    rec.count("pipeline.read_column_pages.pages",
              len(_arg(args, kwargs, 2, "keep")))
    rec.count("pipeline.read_column_pages.bytes", out[1])
    if rec.scope == "pipeline.lookup_docs" \
            and _arg(args, kwargs, 1, "column") == "doc_id":
        # a lookup reads a partition's doc_id pages once per partition
        rec.count("pipeline.lookup.partitions_read")


def _probe_read_column_section(rec, args, kwargs, out, parent):
    if rec.scope == "pipeline.lookup_docs" \
            and _arg(args, kwargs, 1, "column") == "n_tok":
        # lookup_docs reads n_tok only for a partition holding a live hit
        rec.count("pipeline.lookup.partitions_hit")


def _probe_might_contain(rec, args, kwargs, out, parent):
    if not out.any():
        rec.count("bloom.might_contain.rejects")


PROBES = {
    "pipeline.load_manifest": _probe_load_manifest,
    "pipeline.read_column_pages": _probe_read_column_pages,
    "pipeline.read_column_section": _probe_read_column_section,
    "bloom.might_contain": _probe_might_contain,
}


def _probe_codec_encode(rec, args, kwargs, out, parent):
    # cascade encodes through an inner RLE codec; count bytes once
    if parent is None or not parent.startswith("codecs."):
        meta, payload, _pages = out
        rec.count(f"codecs.{args[0].id}.encode.bytes_out",
                  len(meta) + int(payload.nbytes))


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

def _wrap_function(rec: Recorder, name: str, fn):
    probe = PROBES.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.timed(name, fn, args, kwargs, probe)

    return wrapper


def _wrap_codec_method(rec: Recorder, method: str, fn):
    probe = _probe_codec_encode if method == "encode" else None

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        return rec.timed(f"codecs.{self.id}.{method}", fn,
                         (self,) + args, kwargs, probe)

    return wrapper


def _install_layers(rec: Recorder) -> None:
    import importlib

    for modname in LAYER_MODULES:
        mod = importlib.import_module(modname)
        layer = modname.rsplit(".", 1)[1]
        for name, obj in list(vars(mod).items()):
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != modname):
                continue
            setattr(mod, name, _wrap_function(rec, f"{layer}.{name}", obj))

    from rwcf.codecs import REGISTRY

    classes = {cls for codec in REGISTRY.values()
               for cls in type(codec).__mro__ if cls is not object}
    for cls in classes:
        for method in CODEC_METHODS:
            fn = cls.__dict__.get(method)
            if fn is not None:
                setattr(cls, method, _wrap_codec_method(rec, method, fn))


def install_worker() -> None:
    """``worker_process_setup_hook``: trace this Ray worker process."""
    global _recorder
    if _recorder is None and os.environ.get(TRACE_DIR_ENV):
        _recorder = Recorder()
        _install_layers(_recorder)


def install_driver() -> Recorder:
    """Trace the driver: layer wrappers, UDF tagging and Ray waits."""
    global _recorder
    if _recorder is not None:
        return _recorder
    rec = _recorder = Recorder()
    _install_layers(rec)
    from ray.data import Dataset

    orig_map_batches = Dataset.map_batches

    @functools.wraps(orig_map_batches)
    def map_batches(self, fn, *args, **kwargs):
        api = rec.innermost("pipeline.") or "driver"
        return orig_map_batches(self, functools.partial(run_udf, api, fn),
                                *args, **kwargs)

    Dataset.map_batches = map_batches
    for method in RAY_WAIT_METHODS:
        setattr(Dataset, method,
                _wrap_function(rec, "ray.wait", getattr(Dataset, method)))
    return rec


def run_udf(api: str, fn, batch, *args, **kwargs):
    """Run one Ray Data UDF call as a top-level span and write out the
    worker's aggregates for it."""
    rec = _recorder
    if rec is None:
        return fn(batch, *args, **kwargs)
    rec.reset()
    rec.scope = api
    t_wall = time.time()
    name = f"udf.{api}"
    try:
        return rec.timed(name, fn, (batch,) + args, kwargs)
    finally:
        calls, dur, self_s = rec.spans.pop(name)
        rec.write({"udf": api, "t0": t_wall, "dur": dur, "self": self_s,
                   "spans": rec.spans, "counts": rec.counts})
        rec.scope = "driver"


def read_worker_records(trace_dir: str) -> list[dict]:
    out = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("worker-") and name.endswith(".jsonl"):
            with open(os.path.join(trace_dir, name)) as f:
                out.extend(json.loads(line) for line in f if line.strip())
    return out
