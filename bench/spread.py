"""Run the benchmark once per seed and report each metric's median and spread.

    python3 bench/spread.py --workload paper_scale --seeds 5
    python3 bench/spread.py --workload all --seeds 10 --out bench/baseline.json

Run it from the repository root.  Runs are sequential, one process each.
Spread is the distance between the first and third quartile as a share of
the median, the figure a metric's bound in BENCHMARK.json is compared with.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from casbench.stats import quartile_spread  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}, {result['failed']} failed")
    with open(os.path.join(".bench_out", f"{workload}-trace{trace}.json"), encoding="utf-8") as fh:
        result["machine"] = json.load(fh)["machine"]
    return result


def summarize(results) -> dict:
    out = {"machine": dict(results[0]["machine"], seed=None)}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": quartile_spread(values) if statistics.median(values) else None, "values": values,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10, help="runs, with seeds 1..n")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary to this JSON file")
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]

    summary = {}
    for workload in names:
        results = []
        for seed in range(1, args.seeds + 1):
            results.append(run(workload, seed, seconds, args.trace))
            print(workload, seed, json.dumps({k: round(m["value"], 6) for k, m in results[-1]["metrics"].items()}),
                  flush=True)
        summary[workload] = summarize(results)
        for name, s in summary[workload].items():
            if name == "machine":
                continue
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] < bound / 3 else "  > bound/3"
            print(f"{workload:<12} {name:<36} median {s['median']:<12.6g} {s['unit']:<10}"
                  f" spread {s['spread']}{flag}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": seconds, "trace": args.trace, "seeds": list(range(1, args.seeds + 1)),
                       "workloads": summary}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
