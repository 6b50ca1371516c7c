"""Set-up probe, run in a fresh interpreter by run.py.

Times the import of qfimax plus building and validating every input of one
round of a workload: parse_problem on each bundled problem for `corpus`;
constructing the channel, generator, POVM and derivative map and running
require_valid on each for the generated workloads. Drawing the seeded random
arrays is the benchmark's own work and is not timed. Prints one JSON line.

Usage: python3 bench/probe_setup.py --workload NAME --seed N --round K [--smoke]
"""

import argparse
import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    texts = [p.read_text() for p in sorted((ROOT / "problems").glob("*.json"))]

    t0 = time.perf_counter()
    import qfimax  # noqa: F401
    import_s = time.perf_counter() - t0

    sys.path.insert(0, str(BENCH))
    import inputs

    if args.workload == "corpus":
        from qfimax.problem import parse_problem

        t0 = time.perf_counter()
        for text in texts:
            parse_problem(text)
        build_s = time.perf_counter() - t0
        count = len(texts)
    elif args.workload == "converge":
        raw = inputs.converge_instances(args.smoke)
        t0 = time.perf_counter()
        for inst in raw:
            inputs.build_instance(inst, derivative=True)
        build_s = time.perf_counter() - t0
        count = len(raw)
    else:
        # one instance at a time, as the workload holds them
        build_s = 0.0
        count = len(inputs.large_round_sizes(args.smoke))
        for i in range(count):
            inst = inputs.large_instance(args.seed, args.round, i, args.smoke)
            t0 = time.perf_counter()
            inputs.build_instance(inst, derivative=False)
            build_s += time.perf_counter() - t0

    t0 = time.perf_counter()
    import qfimax.cli  # noqa: F401
    cli_import_s = time.perf_counter() - t0
    print(json.dumps({"setup_s": import_s + build_s, "import_s": import_s,
                      "build_s": build_s, "cli_import_s": cli_import_s, "inputs": count}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
