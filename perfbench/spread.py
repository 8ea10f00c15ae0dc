"""Run a set of benchmark runs and report how steady each metric is.

    python3 perfbench/spread.py --name set-a --seeds 1-10
    python3 perfbench/spread.py --name set-b --seeds 1-10 --compare set-a

For every workload the command runs once per seed (one process per run,
workloads in turn) and prints, per end-to-end metric, the median and the
distance between the first and third quartile as a share of the median. A set
fails when a spread exceeds the metric's bound, when a run fails, or when two
runs of one workload and seed wrote different artifact bytes. With --compare
it also fails when a median is worse than the other set's by more than the
bound, when the failed shares differ, or when a workload and seed wrote
different bytes in the two sets.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = HERE / "out" / "sets"


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_set(workloads, seeds) -> dict:
    runs = []
    for workload in workloads:
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            record = json.loads((ROOT / lines[-2].split(" ", 1)[1]).read_text())
            runs.append({"workload": workload, "seed": seed, "code": proc.returncode,
                         **result, "hashes": record["round_hashes"][0] if
                         record["round_hashes"] else {}})
            print(f"{workload:14} seed {seed:3} exit {proc.returncode} " +
                  " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
    return {"runs": runs}


def summarize(data: dict, bounds: dict) -> tuple[dict, list[str]]:
    problems = []
    table = {}
    by_key = {}
    for run in data["runs"]:
        if run["code"] != 0 or not run["correct"]:
            problems.append(f"{run['workload']} seed {run['seed']} failed")
        key = (run["workload"], run["seed"])
        if key in by_key and by_key[key] != run["hashes"]:
            problems.append(f"{run['workload']} seed {run['seed']} wrote different bytes")
        by_key[key] = run["hashes"]
    for workload in dict.fromkeys(r["workload"] for r in data["runs"]):
        runs = [r for r in data["runs"] if r["workload"] == workload]
        row = {"failed_share": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(values) < 2:
                continue
            s = spread(values)
            row[name] = {"median": statistics.median(values), "spread": s,
                         "min": min(values), "max": max(values)}
            if s > bound:
                problems.append(f"{workload} {name}: spread {s:.3f} exceeds bound {bound}")
        table[workload] = row
    return table, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--name", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--compare", default=None, help="name of an earlier set")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]

    data = run_set(workloads, args.seeds)
    table, problems = summarize(data, bounds)
    data["table"] = table
    SETS.mkdir(parents=True, exist_ok=True)
    (SETS / f"{args.name}.json").write_text(json.dumps(data, indent=1))

    print(f"\n{'workload':14} {'metric':14} {'median':>12} {'spread':>8} {'bound':>6}")
    for workload, row in table.items():
        print(f"{workload:14} {'failed_share':14} {row['failed_share']:12.6g}")
        for name in bounds:
            if name in row:
                r = row[name]
                print(f"{workload:14} {name:14} {r['median']:12.6g} {r['spread']:8.4f} "
                      f"{bounds[name]:6}")
    if args.compare:
        other = json.loads((SETS / f"{args.compare}.json").read_text())
        old, _ = summarize(other, bounds)
        earlier = {(r["workload"], r["seed"]): r["hashes"] for r in other["runs"]}
        for run in data["runs"]:
            if earlier.get((run["workload"], run["seed"]), run["hashes"]) != run["hashes"]:
                problems.append(f"{run['workload']} seed {run['seed']} wrote different "
                                f"bytes than in {args.compare}")
        print(f"\nagainst {args.compare}:")
        for workload, row in table.items():
            if workload not in old:
                continue
            if old[workload]["failed_share"] != row["failed_share"]:
                problems.append(f"{workload}: failed share differs between sets")
            for name in bounds:
                if name not in row or name not in old[workload]:
                    continue
                a, b = old[workload][name]["median"], row[name]["median"]
                worse = (b - a) / a if better[name] == "lower" else (a - b) / a
                flag = "WORSE" if worse > bounds[name] else ""
                print(f"{workload:14} {name:14} {a:12.6g} -> {b:12.6g} {worse:+8.4f} {flag}")
                if worse > bounds[name]:
                    problems.append(f"{workload} {name}: median worse by {worse:.3f}")
    for p in problems:
        print("PROBLEM", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
