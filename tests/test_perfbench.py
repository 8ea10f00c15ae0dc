"""What the benchmark relies on in devolve. Its traced pass wraps devolve's
functions and methods by name (`perfbench/bench.py`, `install_tracing`), and
its workloads drive the CLI and the library and check what they write. A
renamed name, a config the CLI rejects or a workload whose checks fail must
fail here, not only in a benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_install_tracing_finds_every_wrapped_name():
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    code = (f"import sys; sys.path[:0] = {paths!r}; import bench, tracing; "
            "bench.install_tracing(tracing.Tracer())")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("name", WORKLOADS)
def test_one_round_of_each_workload_passes(name, tmp_path):
    """One round of the workload and its checks, in a fresh process on one
    BLAS thread as the benchmark runs it."""
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    code = (f"import sys; sys.path[:0] = {paths!r}; import bench, json; "
            f"record = bench.measure({name!r}, 1, 0, False, {str(tmp_path)!r}); "
            "print(json.dumps({'error': record['error'], 'failed': record['failed']}))")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["error"] is None and record["failed"] == 0, record["error"]
