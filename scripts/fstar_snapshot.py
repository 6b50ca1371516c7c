"""Snapshot the solve results that a numerical change must not move, and
compare two snapshots.

A snapshot holds f_star, restart_values, restart_iterations and warnings of
every solve command (qfi-max, qfi-max-general, cfi-max) on every bundled
problem in problems/ that supports it, and of every instance of the
benchmark's converge sweep (bench/inputs.py) on each route, with the
restarts and seed that the converge workload uses. --large-seed adds
round 0 of the iterate-large workload for that benchmark seed. The library
solved is the one in this checkout's src/.

--compare prints the largest relative difference of f_star and the restart
values between two snapshots, and every change of an iteration count, a
warning or the set of solves. It exits 1 if a value moved by more than
1e-12 (relative) or anything else changed, and 0 otherwise.

Usage:
    python scripts/fstar_snapshot.py --out after.json [--smoke] [--large-seed 1]
    python scripts/fstar_snapshot.py --compare before.json after.json
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import inputs  # noqa: E402
import workloads  # noqa: E402

from qfimax.cli import REQUIRED_SECTIONS, run_command  # noqa: E402
from qfimax.problem import parse_problem  # noqa: E402

SOLVE_COMMANDS = ("qfi-max", "qfi-max-general", "cfi-max")
REL_TOL = 1e-12


def _entry(f_star, restart_values, restart_iterations, warnings) -> dict:
    return {"f_star": float(f_star), "restart_values": [float(f) for f in restart_values],
            "restart_iterations": [int(n) for n in restart_iterations],
            "warnings": list(warnings)}


def problem_solves() -> dict:
    out = {}
    for path in sorted((ROOT / "problems").glob("*.json")):
        problem = parse_problem(path.read_bytes())
        for cmd in SOLVE_COMMANDS:
            if all(getattr(problem, name) is not None for name in REQUIRED_SECTIONS[cmd]):
                report = run_command(cmd, problem)
                restarts = report["restarts"]
                out[f"problems/{path.name} {cmd}"] = _entry(
                    report["f_star"], [r["f"] for r in restarts],
                    [r["iterations"] for r in restarts], report["warnings"])
    return out


def _result_entry(result) -> dict:
    return _entry(result.f_star, result.restart_values, result.restart_iterations, result.warnings)


def converge_solves(smoke: bool) -> dict:
    cfg = workloads.OptimizerConfig(restarts=workloads.Converge.restarts, seed=inputs.SWEEP_SEED)
    out = {}
    for raw in inputs.converge_instances(smoke):
        inst = inputs.build_instance(raw, derivative=True)
        for route in workloads.ROUTES:
            out[f"converge d={raw['d']} r={raw['r']} {route}"] = _result_entry(
                workloads.solve(route, inst, cfg))
    return out


def large_solves(seed: int, smoke: bool) -> dict:
    """Round 0 of iterate-large at the benchmark seed `seed`."""
    large = workloads.IterateLarge(ROOT, seed, ROOT, smoke)
    cfg = large.config(inputs.derived_seed(seed, 0))
    out = {}
    for i, (d, r) in enumerate(inputs.large_round_sizes(smoke)):
        raw = inputs.large_instance(seed, 0, i, smoke)
        result = workloads.solve("qfi", inputs.build_instance(raw, derivative=False), cfg)
        out[f"iterate-large seed={seed} round=0 #{i} d={d} r={r}"] = _result_entry(result)
    return out


def relative(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def compare(before: dict, after: dict) -> int:
    changes, worst, worst_key = [], 0.0, None
    for key in sorted(before.keys() | after.keys()):
        if key not in before or key not in after:
            changes.append(f"{key}: only in {'the second' if key in after else 'the first'} snapshot")
            continue
        a, b = before[key], after[key]
        if len(a["restart_values"]) != len(b["restart_values"]):
            changes.append(f"{key}: {len(a['restart_values'])} restarts -> {len(b['restart_values'])}")
            continue
        for x, y in zip([a["f_star"]] + a["restart_values"], [b["f_star"]] + b["restart_values"]):
            if relative(x, y) > worst:
                worst, worst_key = relative(x, y), key
        for field in ("restart_iterations", "warnings"):
            if a[field] != b[field]:
                changes.append(f"{key}: {field} {a[field]} -> {b[field]}")
    print(f"{len(before.keys() & after.keys())} solves compared; largest relative difference "
          f"{worst:.3e}" + (f" ({worst_key})" if worst_key else ""))
    for line in changes:
        print(line)
    return 1 if worst > REL_TOL or changes else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the snapshot here (default: standard output)")
    parser.add_argument("--smoke", action="store_true",
                        help="the smallest converge sweep (and iterate-large round)")
    parser.add_argument("--large-seed", type=int, default=None,
                        help="add iterate-large round 0 for this benchmark seed")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two snapshots instead of taking one")
    args = parser.parse_args(argv)
    if args.compare:
        before, after = (json.loads(Path(p).read_text()) for p in args.compare)
        return compare(before, after)
    snapshot = {**problem_solves(), **converge_solves(args.smoke)}
    if args.large_seed is not None:
        snapshot.update(large_solves(args.large_seed, args.smoke))
    text = json.dumps(snapshot, indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
