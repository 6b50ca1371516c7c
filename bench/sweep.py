"""Run one workload once per seed and summarise each end-to-end metric.

Usage: python3 bench/sweep.py --workload NAME [--seeds 1-10] [--seconds 36]

Prints one line per run (with its wall time, start-up included), then for every metric the median of the runs and
the spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="36")
    args = parser.parse_args()
    runs = []
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", args.workload,
                               "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True)
        wall_s = time.perf_counter() - t0
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: {wall_s:.1f} s, attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']} {values}", flush=True)
    if len(runs) >= 2:
        for name, metric in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            print(f"{name:12s} median {median:12.4f} {metric['unit']:5s} spread {(q3 - q1) / median:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
