"""The benchmark's traced pass wraps devolve's functions and methods by name
(`perfbench/bench.py`, `install_tracing`). A renamed or deleted name must fail
here, not only in a traced benchmark run."""

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
