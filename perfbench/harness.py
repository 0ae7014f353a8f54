"""Ray session, CPU accounting and scratch directories for one benchmark run.

A run's inputs and stores live under ``<checkout>/.perfbench_tmp/`` and are
removed when the run ends; a later run removes those of a run that was
killed. Ray's own session directory (sockets, logs) gets a short directory
from ``tempfile``, because Ray's Unix socket paths may not exceed 107 bytes
and the checkout's path can be longer; it is removed the same way.
"""

from __future__ import annotations

import ctypes
import logging
import os
import shutil
import signal
import tempfile
import time
import uuid

from perfbench import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")

#: Ray CPUs: nproc on the reference host (OMP_NUM_THREADS=1 of 4 vCPUs).
#: Fixed rather than detected, so runs on other hosts stay comparable.
NUM_CPUS = 1
OBJECT_STORE_BYTES = 512 * 2**20

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PR_SET_CHILD_SUBREAPER = 36


def make_run_dir() -> str:
    """A fresh directory for one run, named after this process. Directories
    of runs whose process is gone are removed first."""
    if os.path.isdir(SCRATCH):
        for name in os.listdir(SCRATCH):
            pid = name.split("-")[1] if name.startswith("run-") else ""
            if pid.isdigit() and not os.path.exists(f"/proc/{pid}"):
                shutil.rmtree(os.path.join(SCRATCH, name), ignore_errors=True)
    path = os.path.join(SCRATCH, f"run-{os.getpid()}-{uuid.uuid4().hex[:8]}")
    os.makedirs(path)
    return path


def remove_run_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(SCRATCH)  # only succeeds once no other run uses it
    except OSError:
        pass


def tree_bytes(path: str, skip=None) -> int:
    """Bytes of the files under ``path``; ``skip(rel)`` excludes a file by
    its path relative to ``path``."""
    total = 0
    for dirpath, _dirs, names in os.walk(path):
        for name in names:
            full = os.path.join(dirpath, name)
            if skip is None or not skip(os.path.relpath(full, path)):
                total += os.path.getsize(full)
    return total


def file_states(path: str) -> dict[str, tuple[int, int]]:
    """path -> (size, mtime_ns) of every file under ``path``."""
    out = {}
    for dirpath, _dirs, names in os.walk(path):
        for name in names:
            st = os.stat(os.path.join(dirpath, name))
            out[os.path.join(dirpath, name)] = (st.st_size, st.st_mtime_ns)
    return out


def _proc_table() -> dict[int, tuple[int, str, int]]:
    """pid -> (ppid, state, CPU ticks incl. reaped children) from /proc."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:  # exited between listdir and open
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        # fields[11:15] = utime, stime, cutime, cstime
        table[int(entry)] = (int(fields[1]), fields[0],
                             sum(int(x) for x in fields[11:15]))
    return table


def _tree(table: dict, root_pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for pid, (ppid, _state, _ticks) in table.items():
        children.setdefault(ppid, []).append(pid)
    out = []
    todo = [root_pid]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def process_tree_cpu_s() -> float:
    """utime+stime (plus that of reaped children) of this process and every
    process below it. That covers the Ray processes it started: GCS,
    raylet and the workers under it."""
    table = _proc_table()
    return sum(table[p][2] for p in _tree(table, os.getpid())) / _CLK_TCK


def _warm_worker(batch):
    import rwcf.pipeline  # noqa: F401  (first import is part of warm-up)
    return batch


class RaySession:
    """A local Ray instance owned by one benchmark run."""

    def __init__(self, trace_dir: str | None = None):
        import ray
        import ray.data as rd

        from rwcf import rayenv

        rayenv.export_pythonpath()
        become_subreaper()
        ray_tmp = self._ray_tmp = tempfile.mkdtemp(prefix="pb")
        kwargs = {}
        if trace_dir is not None:
            os.environ[tracer.TRACE_DIR_ENV] = trace_dir
            kwargs["runtime_env"] = {
                "worker_process_setup_hook": tracer.WORKER_HOOK}
        else:
            os.environ.pop(tracer.TRACE_DIR_ENV, None)
        try:
            ray.init(num_cpus=NUM_CPUS, include_dashboard=False,
                     logging_level="ERROR", log_to_driver=False,
                     _temp_dir=ray_tmp,
                     object_store_memory=OBJECT_STORE_BYTES, **kwargs)
        except BaseException:
            shutil.rmtree(ray_tmp, ignore_errors=True)
            raise
        ctx = rd.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        for name in ("ray", "ray.data"):
            logging.getLogger(name).setLevel(logging.ERROR)

    def warm_up(self) -> None:
        """One map over the workers, so no timed op pays a worker start."""
        import ray.data as rd

        rd.range(NUM_CPUS, override_num_blocks=NUM_CPUS).map_batches(
            _warm_worker, batch_size=1, batch_format="pyarrow").materialize()

    def stop(self, timeout_s: float = 20.0) -> None:
        """Shut Ray down and wait until every process below this one has
        ended and been reaped. Processes still running after ``timeout_s``
        are killed."""
        import ray

        ray.shutdown()
        reap_descendants(timeout_s)
        shutil.rmtree(self._ray_tmp, ignore_errors=True)


def become_subreaper() -> None:
    """Make processes orphaned below this one (Ray workers whose raylet has
    exited) reparent to it rather than to PID 1, so that
    ``reap_descendants`` can wait for them and reap them. Without this they
    end as zombies of PID 1, which need not reap them."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def reap_descendants(timeout_s: float) -> None:
    """Wait until no process is left below this one, reaping each child
    that has exited; after ``timeout_s``, kill those still running, and
    raise if any is left 5 s later."""
    me = os.getpid()
    deadline = time.monotonic() + timeout_s
    killed = False
    while True:
        table = _proc_table()
        below = [p for p in _tree(table, me) if p != me]
        if not below:
            return
        if killed and time.monotonic() > deadline + 5:
            raise RuntimeError(f"processes {below} did not end")
        for pid in below:
            if table[pid][0] == me and table[pid][1] == "Z":
                try:
                    os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:  # reaped by its Popen object
                    pass
        if not killed and time.monotonic() > deadline:
            for pid in below:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
        time.sleep(0.05)
