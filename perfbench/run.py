#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`--workload all` runs every workload in BENCHMARK.json in turn and exits
non-zero if any of them does.  The build goes to $CARGO_TARGET_DIR
(default: .bench_build at the checkout root).  Cargo's output goes to
standard error, so the last line of standard output of a single-workload
run is the benchmark's JSON result.  The exit code is the benchmark's, or
1 when the build fails.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run measures for at most --seconds plus set-up and drain; anything far
# beyond that is a hang.
RUN_TIMEOUT_S = 170


def run_one(binary: Path, args: list, env: dict) -> int:
    try:
        return subprocess.run([str(binary), *args], cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


def main() -> int:
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = target / "release" / "perfbench"
    args = sys.argv[1:]
    if "--workload" in args and args[args.index("--workload") + 1:][:1] == ["all"]:
        at = args.index("--workload")
        workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
        codes = [run_one(binary, args[:at + 1] + [w["name"]] + args[at + 2:], env)
                 for w in workloads]
        return max(codes)
    return run_one(binary, args, env)


if __name__ == "__main__":
    sys.exit(main())
