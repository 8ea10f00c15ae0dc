"""devolve benchmark: one workload per process, or all of them in turn.

    python3 perfbench/run.py --workload compress-100k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # each workload in a fresh process
    python3 perfbench/run.py --write-benchmark-json       # regenerate BENCHMARK.json

Run from the repository root. The program is imported from ./src. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with --trace 0, per-layer metrics
with --trace 1). The exit code is 1 when an operation or a check fails and 2
when devolve cannot be imported from this checkout.
"""

import os

# One BLAS thread per process: the program's own `workers` setting is the
# only parallelism, and OpenBLAS threads on top of it oversubscribe 2 cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUN_SECONDS = 30

WHY = {
    "evolve-dense": "CLI train/sparsify/quantize/pack of a 784-input dense net, 2 trial "
                    "workers: dense kernels, apply_mask, the trial pool and file "
                    "hand-offs; no level solver",
    "evolve-conv": "library evolution of a conv2d/max_pool net on two layers, 1 worker: "
                   "conv and pool kernels and recomputed conv fronts dominate; no thread "
                   "pool",
    "compress-100k": "the paper's 101,770-parameter case, 90% magnitude mask, "
                     "optimal_density tables at 2/4/8 bits: level solver and Huffman "
                     "packing; no evolution",
}


def write_benchmark_json():
    import bench
    doc = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in bench.END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, *_ in bench.PER_LAYER],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(doc, indent=2) + "\n")


def import_program():
    """Import devolve from this checkout's src/ only."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import devolve
    except ImportError as e:
        print(f"cannot import devolve from {ROOT / 'src'}: {e}", file=sys.stderr)
        sys.exit(2)
    if Path(devolve.__file__).resolve().parent != ROOT / "src" / "devolve":
        print(f"devolve was imported from {devolve.__file__}, not this checkout",
              file=sys.stderr)
        sys.exit(2)


def run_one(args) -> int:
    import_program()
    import bench
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir = OUT / "work" / tag
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        record = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace),
                               str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tracer = record.pop("tracer", None)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (OUT / "records").mkdir(parents=True, exist_ok=True)
    record_path = OUT / "records" / f"{tag}-{stamp}.json"
    if tracer is not None:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        record["trace_file"] = str(OUT / "traces" / f"{tag}-{stamp}.json")
        tracer.dump(record["trace_file"])
    record_path.write_text(json.dumps(record, indent=1, default=str))

    correct = record["error"] is None
    if not correct:
        print(record["error"], file=sys.stderr)
    metrics = record.get("metrics", {})
    for name, m in metrics.items():
        print(f"{args.workload:14} {name:32} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:14} attempted {record['attempted']} failed {record['failed']}")
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; a summary object comes last."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WHY:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        code = code or proc.returncode or (0 if result["correct"] else 1)
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WHY, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args()
    if args.write_benchmark_json:
        import_program()
        write_benchmark_json()
        return 0
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
