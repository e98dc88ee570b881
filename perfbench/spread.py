"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 perfbench/spread.py --seeds 1-10 [--workload default-ba ...]

Runs ``run.py`` once per seed and workload, one run at a time, and prints
per metric the median of the runs and the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of that
median, next to a third of the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seconds", type=int,
                        default=contract["run_seconds"])
    args = parser.parse_args()

    steady = True
    for workload in args.workload or names:
        values = {m["name"]: [] for m in contract["end_to_end"]}
        for seed in args.seeds:
            completed = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
                check=True)
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: INCORRECT {result}")
                steady = False
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                flush=True)
        for metric in contract["end_to_end"]:
            series = values[metric["name"]]
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            target = metric["bound"] / 3
            flag = "ok" if spread < target else "WIDE"
            if flag == "WIDE" and metric["name"] != "setup_s":
                steady = False
            print(f"  {workload:14s} {metric['name']:12s} "
                  f"median={median:.5g} spread={spread:.4f} "
                  f"target<{target:.4f} {flag}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
