#!/usr/bin/env python3
"""Runs one workload under several seeds and prints each metric's median and
spread (interquartile range over median), the steadiness the benchmark's
bounds are set against.

    python3 perfbench/spread.py --workload fanin_small --seeds 10 [--seconds 30] [--trace 0]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        run = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", args.trace],
            capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            print(f"seed {seed}: exit {run.returncode}\n{run.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        med = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"{name:<34} median {med:>14.4f}  spread {spread:6.3f}  {[round(v, 3) for v in series]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
