"""Worker-environment plumbing: make the rwcf package importable in Ray
worker processes regardless of the driver's cwd/sys.path, by attaching a
PYTHONPATH runtime_env to rwcf-launched operators whose workers could not
import it otherwise."""

from __future__ import annotations

import os

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_PKG_INIT = os.path.join(_REPO, "rwcf", "__init__.py")

#: (gcs address, job id) -> whether that job's workers import this rwcf
_WORKERS_IMPORT: dict[tuple, bool] = {}


def _workers_import_rwcf() -> bool:
    """Whether the connected Ray job's workers import this checkout's
    rwcf without a runtime_env. Ray puts the driver's cwd and script
    directory on workers' sys.path, so a driver started from the repo
    needs no PYTHONPATH. Probed once per job with a zero-cpu task; with
    no Ray session connected the answer is no."""
    import ray
    if not ray.is_initialized():
        return False
    ctx = ray.get_runtime_context()
    if ctx.get_task_id() is not None:
        return True  # running inside a worker of this job
    key = (ctx.gcs_address, ctx.get_job_id())
    if key not in _WORKERS_IMPORT:
        def origin():  # nested: pickled by value, needs no rwcf import
            import importlib.util
            import os as _os
            spec = importlib.util.find_spec("rwcf")
            return _os.path.realpath(spec.origin) if spec else None
        found = ray.get(ray.remote(num_cpus=0)(origin).remote())
        _WORKERS_IMPORT[key] = found == os.path.realpath(_PKG_INIT)
    return _WORKERS_IMPORT[key]


def remote_args() -> dict:
    parts = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if _REPO in parts or _workers_import_rwcf():
        # Workers inherit the driver environment when the driver's PYTHONPATH
        # already covers the repo (set before ray.init, e.g. by bench.py /
        # tests), or import rwcf from the driver's cwd — no dedicated
        # runtime_env workers needed, which avoids a worker-process respawn
        # per stage.
        return {}
    return {"runtime_env": {"env_vars":
                            {"PYTHONPATH": os.pathsep.join([_REPO] + parts)}}}


def export_pythonpath() -> None:
    """Call BEFORE ray.init (when we own the session) so every worker
    inherits a sys.path that can import rwcf."""
    parts = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if _REPO not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([_REPO] + parts)
