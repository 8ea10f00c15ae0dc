"""What the benchmark relies on in devolve. Its traced pass wraps devolve's
functions and methods by name (`perfbench/bench.py`, `install_tracing`), and
its evolve-dense workload drives the CLI with a config of its own. A renamed
name or a config the CLI rejects must fail here, not only in a benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_install_tracing_finds_every_wrapped_name():
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    code = (f"import sys; sys.path[:0] = {paths!r}; import bench, tracing; "
            "bench.install_tracing(tracing.Tracer())")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_evolve_dense_config_loads(tmp_path):
    """evolve-dense drives the CLI with its own config; one the CLI rejects
    would show only as a failed benchmark run."""
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    code = (f"import sys; sys.path[:0] = {paths!r}; import tracing, workloads; "
            "from devolve import cli; "
            f"w = workloads.EvolveDense(1, {str(tmp_path)!r}, tracing.Tracer()); "
            "cli.validate_config(w.config())")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
