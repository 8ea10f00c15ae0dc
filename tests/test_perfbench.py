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

import numpy as np
import pytest

from devolve import nn

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


@pytest.mark.parametrize("arch,input_shape", [
    ([{"kind": "dense", "units": 5}, {"kind": "leaky_relu"}], (6,)),
    ([{"kind": "conv2d", "filters": 2}, {"kind": "max_pool"}, {"kind": "flatten"}], (4, 4, 1)),
])
def test_backward_is_value_and_grads(arch, input_shape):
    """`nn.Batch` and `nn.backward` are kept only for the benchmark's
    `workloads.train_teacher`: they give the bits of the one gradient entry
    point, for cross-entropy only."""
    layers = arch + [{"kind": "dense", "units": 3}, {"kind": "softmax"}]
    net = nn.build_network({"input_shape": list(input_shape), "layers": layers}, 4)
    rng = np.random.default_rng(8)
    x, y = rng.normal(size=(5,) + input_shape), rng.integers(0, 3, size=5)
    grads = nn.backward(net, nn.Batch(x, y), "cross_entropy")
    _, ref = nn.value_and_grads(net, x, lambda out: nn.cross_entropy_loss(out, y))
    assert [g.tobytes() for g in grads] == [r.tobytes() for r in ref]
    for kind in ("mse", "cross-entropy", ""):
        with pytest.raises(ValueError, match="loss kind"):
            nn.backward(net, nn.Batch(x, y), kind)
