"""Print the parts of a qfimax report that the benchmark checks.

Run in its own process so that parsing a large report (29 MB at d=64 with
64 Kraus operators, most of it the echoed input) does not count in the
workload process's peak memory.

Usage: python3 bench/report_digest.py REPORT_FILE
"""

import json
import sys


def main() -> int:
    with open(sys.argv[1]) as fh:
        report = json.load(fh)
    digest = {key: report.get(key) for key in ("command", "f_star", "psi_star", "iterations",
                                                "converged", "details")}
    digest["trace"] = [{"f_n": row["f_n"]} for row in report["trace"]]
    print(json.dumps(digest))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
