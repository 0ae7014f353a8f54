"""Worker import plumbing: a runtime_env only when workers need one."""

import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys
sys.path.insert(0, {repo!r})
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
import ray.data as rd
from rwcf import rayenv

def touch(batch):
    import rwcf  # fails in a worker that cannot import the package
    return batch

try:
    args = rayenv.remote_args()
    n = rd.range(4).map_batches(touch, **args).count()
    print(json.dumps({{"runtime_env": "runtime_env" in args, "rows": n}}))
finally:
    ray.shutdown()
"""


@pytest.mark.parametrize("in_repo", [True, False])
def test_remote_args_only_when_workers_cannot_import(tmp_path, in_repo):
    # a session started without PYTHONPATH: Ray puts the driver's cwd on
    # workers' sys.path, so from the repo they import rwcf unaided; from
    # anywhere else they need the runtime_env
    script = tmp_path / "drive.py"
    script.write_text(SCRIPT.format(repo=REPO))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, str(script)], capture_output=True,
                         text=True, env=env, timeout=300,
                         cwd=REPO if in_repo else str(tmp_path))
    assert out.returncode == 0, out.stderr[-2000:]
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res == {"runtime_env": not in_repo, "rows": 4}
