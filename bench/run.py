"""Benchmark of the qfimax alternating solver: one workload per process.

Usage:
  python3 bench/run.py --workload {corpus,converge,iterate-large} --seed N
                       --seconds S --trace {0,1} [--smoke]

Runs whole rounds of the workload for about S seconds. Each round interleaves
the in-process operations with launches of the real command
(`python -m qfimax.cli`) and with set-up probes in fresh interpreters, so
that every metric samples the whole run. Every timing is scaled to a fixed
host speed by reference computations timed around the steps (hostspeed.py).
Every output is checked. The last line of standard output is one JSON
object: {correct, attempted, failed, metrics}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 every operation is run untraced and
then traced, and the metrics are the per-layer ones. --smoke runs one round
at the smallest sizes.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_OPS = 40  # the 75th percentile then has at least ten samples beyond it
TAIL_PERCENTILE = 75
CHILD_TIMEOUT_S = 60  # the slowest child, a d=64 CLI launch, takes about 5 s


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


class Runner:
    def __init__(self, workload, trace, seconds, smoke, workdir):
        self.workload, self.trace, self.seconds = workload, trace, seconds
        self.smoke, self.workdir = smoke, workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.attempted = self.failed = 0
        self.check_errors = []
        # op_ms is scaled to the nominal host speed (hostspeed.py), one
        # operation at a time; op_wall_ms, cli_wall_ms and the probes hold
        # wall times, scaled when the run ends.
        self.op_ms, self.op_wall_ms, self.op_labels, self.traced_ms = [], [], [], []
        self.cli_wall_ms, self.probes = [], []
        self.solve_ms, self.solve_iterations, self.solve_steps = [], [], []
        self.spans, self.units = {}, 0
        self.op_traces = []
        from hostspeed import HostClock

        self.clock = HostClock(self.env, ROOT)
        self.tracer = None
        if trace:
            from tracer import Tracer
            self.tracer = Tracer()

    # -- bookkeeping --------------------------------------------------------

    def record(self, label, errors, raised=None):
        self.attempted += 1
        if raised is not None:
            self.failed += 1
            print(f"FAILED {label}: {raised}", file=sys.stderr)
        elif errors:
            self.failed += 1
            self.check_errors += [f"{label}: {e}" for e in errors]
            print(f"CHECK FAILED {label}: {errors}", file=sys.stderr)

    def add_spans(self, totals):
        for name, (calls, self_ns) in totals.items():
            rec = self.spans.setdefault(name, [0, 0])
            rec[0] += calls
            rec[1] += self_ns
        self.units += 1

    def child(self, argv, stdout=subprocess.PIPE):
        return subprocess.run([sys.executable] + argv, stdout=stdout, stderr=subprocess.PIPE,
                              cwd=ROOT, env=self.env, timeout=CHILD_TIMEOUT_S, text=True)

    # -- steps --------------------------------------------------------------

    def run_op(self, op, outcomes):
        try:
            data = op.load()
            before = self.clock.kernel()
            t0 = time.perf_counter()
            out = op.run(data)
            wall_ms = (time.perf_counter() - t0) * 1e3
            ms = wall_ms * self.clock.kernel_scale(before, self.clock.kernel())
            if self.tracer is not None:
                self.tracer.install()
                try:
                    t0 = time.perf_counter()
                    op.run(data)
                    traced_ms = (time.perf_counter() - t0) * 1e3
                finally:
                    self.tracer.uninstall()
                totals = self.tracer.take()
                self.add_spans(totals)
                self.traced_ms.append(traced_ms)
                self.op_traces.append({"op": str(op.label), "ms": ms, "traced_ms": traced_ms,
                                       "spans": {k: [c, ns / 1e3] for k, (c, ns) in totals.items()}})
                if out["solve"]:
                    self.solve_steps.append(totals.get("operators.max_eigvec", [0])[0])
            errors = op.check(out, data)
        except Exception:  # one broken operation must not end the run
            self.record(op.label, None, traceback.format_exc())
            return
        outcomes[op.label] = out
        self.op_ms.append(ms)
        self.op_wall_ms.append(wall_ms)
        self.op_labels.append(str(op.label))
        if out["solve"]:
            self.solve_ms.append(ms)
            self.solve_iterations.append(out["iterations"])
        self.record(op.label, errors)

    def run_cli(self, step):
        from workloads import report_outcome

        report = self.workdir / "report.json"
        stats = self.workdir / "cli_spans.json"
        if self.tracer is None:
            argv = ["-m", "qfimax.cli"] + step.args
        else:
            argv = [str(BENCH / "traced_cli.py"), str(stats)] + step.args
        try:
            with open(report, "w") as fh:
                self.clock.launch()
                t0 = time.perf_counter()
                proc = self.child(argv, stdout=fh)
                wall_ms = (time.perf_counter() - t0) * 1e3
                self.clock.launch()
            if proc.returncode != 0:
                raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            digest = self.child([str(BENCH / "report_digest.py"), str(report)])
            if digest.returncode != 0:
                raise RuntimeError(f"unreadable report: {digest.stderr.strip()[-500:]}")
            errors = step.check(report_outcome(json.loads(digest.stdout)))
            if self.tracer is not None:
                self.add_spans(json.loads(stats.read_text()))
        except Exception:  # one broken launch must not end the run
            self.record(step.label, None, traceback.format_exc())
            return
        self.cli_wall_ms.append(wall_ms)
        self.record(step.label, errors)

    def run_setup(self, step):
        argv = [str(BENCH / "probe_setup.py"), "--workload", self.workload.name,
                "--seed", str(self.workload.seed), "--round", str(step.round_index)]
        try:
            self.clock.launch()
            proc = self.child(argv + (["--smoke"] if self.smoke else []))
            self.clock.launch()
            if proc.returncode != 0:
                raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            probe = json.loads(proc.stdout)
        except Exception:  # one broken probe must not end the run
            self.record("setup", None, traceback.format_exc())
            return
        self.probes.append(probe)
        self.record("setup", [])

    # -- the run ------------------------------------------------------------

    def run_round(self, steps):
        from workloads import Cli, Op

        outcomes = {}
        for step in steps:
            if isinstance(step, Op):
                self.run_op(step, outcomes)
            elif isinstance(step, Cli):
                self.run_cli(step)
            else:
                self.run_setup(step)
        errors = self.workload.cross_checks(outcomes)
        if errors:
            self.check_errors += errors
            self.failed += len(errors)
            print(f"CROSS-CHECK FAILED: {errors}", file=sys.stderr)

    def run(self):
        start = time.perf_counter()
        rounds = 0
        while True:
            self.run_round(self.workload.round(rounds))
            rounds += 1
            elapsed = time.perf_counter() - start
            if self.smoke:
                break
            # stop at the round boundary nearest to the requested length
            if (self.trace or len(self.op_ms) >= MIN_OPS) and elapsed + elapsed / rounds / 2 >= self.seconds:
                break
        self.rounds, self.elapsed = rounds, elapsed

    def end_to_end(self):
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        launch, kernel = self.clock.run_launch_scale(), self.clock.run_kernel_scale()
        return {
            # the imports scale with start-up, building the inputs with compute
            "setup_s": (statistics.median(p["import_s"] * launch + p["build_s"] * kernel
                                          for p in self.probes), "s"),
            "ops_per_s": (len(self.op_ms) / (sum(self.op_ms) / 1e3), "1/s"),
            "op_ms_p50": (statistics.median(self.op_ms), "ms"),
            "op_ms_tail": (percentile(self.op_ms, TAIL_PERCENTILE), "ms"),
            "cli_ms": (statistics.median(self.cli_wall_ms) * launch, "ms"),
            "peak_rss_mb": (peak_mb, "MB"),
        }

    def per_layer(self):
        from tracer import per_layer_metric_units

        solves = len(self.solve_iterations)
        values = {
            "optimizer.iterations": sum(self.solve_iterations) / solves,
            "optimizer.steps": sum(self.solve_steps) / solves,
            "optimizer.iter_us": sum(self.solve_ms) * 1e3 / sum(self.solve_steps),
            "cli.import_ms": statistics.median(p["import_s"] + p["cli_import_s"] for p in self.probes)
                             * self.clock.run_launch_scale() * 1e3,
            "host.kernel_ms": statistics.median(self.clock.kernel_ms),
            "host.launch_ms": statistics.median(self.clock.launch_ms),
        }
        out = {}
        for name, unit in per_layer_metric_units():
            if name not in values:
                fn, kind = name.rsplit(".", 1)
                calls, self_ns = self.spans.get(fn, [0, 0])
                values[name] = (calls if kind == "calls" else self_ns / 1e3) / self.units
            out[name] = (values[name], unit)
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qfimax benchmark (one workload per process)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one round at the smallest sizes")
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "qfimax" / "__init__.py", ROOT / "problems"):
        if not needed.exists():
            print(f"error: {needed} not found; run from a qfimax checkout", file=sys.stderr)
            return 2
    # Before numpy loads: the workload and every child process use one BLAS
    # thread (two threads double the CPU time of a d=64 iteration on two
    # shared cores and make it no faster).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    out_dir = BENCH / "out"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](ROOT, args.seed, workdir, args.smoke)
        workload.prepare()
        runner = Runner(workload, args.trace, args.seconds, args.smoke, workdir)
        runner.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not (runner.op_ms and runner.cli_wall_ms and runner.probes):
        print("error: no operation, CLI launch or set-up probe completed", file=sys.stderr)
        return 1
    metrics = runner.per_layer() if args.trace else runner.end_to_end()
    result = {
        "correct": not runner.check_errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    samples = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "seconds": args.seconds, "rounds": runner.rounds, "elapsed_s": runner.elapsed,
               "op_ms": runner.op_ms, "op_wall_ms": runner.op_wall_ms, "op_labels": runner.op_labels,
               "cli_wall_ms": runner.cli_wall_ms,
               "kernel_ms": runner.clock.kernel_ms, "launch_ms": runner.clock.launch_ms,
               "setup_probes": runner.probes, "check_errors": runner.check_errors, "result": result}
    if args.trace:
        untraced, traced = statistics.median(runner.op_wall_ms), statistics.median(runner.traced_ms)
        samples["tracing_overhead"] = {"op_ms_p50_untraced": untraced, "op_ms_p50_traced": traced,
                                       "ratio": traced / untraced}
        print(f"tracing overhead on op_ms_p50: {untraced:.3f} ms untraced, "
              f"{traced:.3f} ms traced", file=sys.stderr)
        (out_dir / f"trace-{tag}.json").write_text(json.dumps(runner.op_traces))
    (out_dir / f"result-{tag}.json").write_text(json.dumps(samples, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
