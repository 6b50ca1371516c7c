"""Command-line interface: problem ingestion, command dispatch, and
structured report emission.

Reports are JSON on standard output; identical problem + seed produce
byte-identical reports except for the timestamp field. Exit codes:
0 success, 2 parse/validation failure, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
from datetime import datetime, timezone
from types import SimpleNamespace

import numpy as np

from . import __version__
from .cfi import classical_fi, outcome_statistics, optimize_fixed_measurement
from .errors import NumericError, ValidationError
from .operators import channel_apply
from .optimizer import optimize, optimize_general
from .oracles import (
    GaussianPrior,
    bayes_gaussian_fi,
    brute_force_max_qfi,
    model_from_quantum,
)
from .problem import OPTIMIZER_FIELDS, BayesSpec, ProblemFile, encode_array, parse_problem
from .sld import qfi, qfi_from_sld, sld

# the problem-file sections each command reads, checked in this order
REQUIRED_SECTIONS = {
    "qfi-max": (),
    "qfi-max-general": ("derivative_channel",),
    "cfi-max": ("povm",),
    "sld": ("input_state",),
    "qfi-eval": ("input_state",),
    "cfi-eval": ("povm", "input_state"),
    "bayes-check": ("povm", "input_state"),
    "oracle": (),
}
COMMANDS = tuple(REQUIRED_SECTIONS)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

# the run that a command evaluating one state reports: no iterations
_NO_RUN = SimpleNamespace(trace=(), converged=True, warnings=(), restart_values=(),
                          restart_iterations=(), restart_converged=())


def problem_sha256(problem: ProblemFile) -> str:
    """Hex SHA-256 of the problem text as parsed (UTF-8 if given as str)."""
    text = problem.text
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


def _config_echo(problem: ProblemFile, command: str) -> dict:
    echo = {
        "command": command,
        "dim": problem.dim,
        "optimizer": {k: getattr(problem.optimizer, k) for k in OPTIMIZER_FIELDS},
        "problem_sha256": problem_sha256(problem),
    }
    if problem.bayes is not None:
        echo["bayes"] = dataclasses.asdict(problem.bayes)
    return echo


def _trace_rows(result):
    rows = []
    for rec in result.trace:
        row = {
            "n": int(rec.n),
            "f_n": float(rec.f),
            "degenerate": bool(rec.degenerate_step),
            "rank_deficit": int(rec.sld_rank_deficit),
        }
        # routes without a generator do not test reducibility
        if rec.irreducible is not None:
            row["irreducible"] = bool(rec.irreducible)
        rows.append(row)
    return rows


def _report(command, problem, f_star, psi, details=None, run=_NO_RUN) -> dict:
    """The report of the value f_star at the probe psi, with the run of the
    optimizer that found them, if any."""
    report = {
        "command": command,
        "tool_version": __version__,
        "f_star": float(f_star),
        "psi_star": encode_array(psi.amplitudes),
        "iterations": len(run.trace),
        "converged": bool(run.converged),
        "warnings": list(run.warnings),
        "trace": _trace_rows(run),
        "restarts": [{"f": float(f), "iterations": int(n), "converged": bool(c)}
                     for f, n, c in zip(run.restart_values, run.restart_iterations,
                                        run.restart_converged)],
        "config_echo": _config_echo(problem, command),
    }
    if details:
        report["details"] = details
    return report


def run_command(command: str, problem: ProblemFile) -> dict:
    """Dispatch one CLI command onto the library and build its report."""
    if command not in REQUIRED_SECTIONS:
        raise ValidationError(f"unknown command '{command}'")
    for name in REQUIRED_SECTIONS[command]:
        if getattr(problem, name) is None:
            raise ValidationError(f"command '{command}' requires a '{name}' section in the problem file")
    ch, h, cfg, psi = problem.channel, problem.generator, problem.optimizer, problem.input_state
    run = None
    if command == "qfi-max":
        run = optimize(ch, h, cfg)
    elif command == "qfi-max-general":
        run = optimize_general(ch, problem.derivative_channel, cfg)
    elif command == "cfi-max":
        run = optimize_fixed_measurement(ch, h, problem.povm, cfg)
    if run is not None:
        return _report(command, problem, run.f_star, run.psi_star, run=run)
    if command == "oracle":
        return _report(command, problem, *brute_force_max_qfi(ch, h, n_samples=2000, seed=cfg.seed))
    rho = channel_apply(ch, psi)
    if command == "sld":
        res = sld(rho, h, cfg.eps_rank)
        details = {
            "L": encode_array(res.L.matrix),
            "rank": res.rank,
            "support_dim_deficit": res.support_dim_deficit,
            "residual": res.residual,
        }
        return _report(command, problem, qfi_from_sld(rho, res), psi, details)
    if command == "qfi-eval":
        return _report(command, problem, qfi(rho, h, cfg.eps_rank), psi)
    stats = outcome_statistics(rho, h, problem.povm)
    if command == "cfi-eval":
        return _report(command, problem, classical_fi(stats), psi,
                       {"probs": list(stats.probs), "dprobs": list(stats.dprobs),
                        "labels": list(stats.labels)})
    # bayes-check
    bayes = problem.bayes or BayesSpec()
    sweep = {}
    # each distinct width once, in first-listed order, reported under its repr: one key per width
    for delta in dict.fromkeys(tuple(bayes.sweep) + (bayes.delta_prior,)):
        prior = GaussianPrior(delta, bayes.grid_halfwidth, bayes.grid_points)
        model = model_from_quantum(ch, h, psi, problem.povm, prior.grid())
        sweep[delta] = bayes_gaussian_fi(model, prior)
    return _report(command, problem, sweep[bayes.delta_prior], psi,
                   {"classical_fi": classical_fi(stats),
                    "bayes_sweep": {repr(delta): fi for delta, fi in sweep.items()}})


def _write_trace_csv(path: str, report: dict) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "f_n", "degenerate", "rank_deficit", "irreducible"])
        for row in report["trace"]:
            writer.writerow([row["n"], repr(row["f_n"]), int(row["degenerate"]),
                             row["rank_deficit"],
                             int(row["irreducible"]) if "irreducible" in row else ""])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfimax",
        description="Maximum (quantum) Fisher information over probe states "
                    "through a quantum channel.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--problem", required=True, help="path to a JSON problem file")
    parser.add_argument("--seed", type=int, default=None, help="override the optimizer seed")
    parser.add_argument("--restarts", type=int, default=None, help="override the restart count")
    parser.add_argument("--tol", type=float, default=None, help="override the stopping tolerance")
    parser.add_argument("--max-iters", type=int, default=None, help="override the iteration cap")
    parser.add_argument("--trace-csv", default=None,
                        help="additionally write the per-iteration trace as CSV rows")
    parser.add_argument("--quiet", action="store_true",
                        help="omit the per-iteration trace from the report")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # bytes, so that the echoed digest is that of the file itself
        with open(args.problem, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        print(f"error: cannot read problem file: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        problem = parse_problem(data)
        # precedence: flag > file > default
        overrides = {}
        for name, value in (("seed", args.seed), ("restarts", args.restarts),
                            ("tol", args.tol), ("max_iters", args.max_iters)):
            if value is not None:
                overrides[name] = value
        if overrides:
            problem = dataclasses.replace(
                problem, optimizer=dataclasses.replace(problem.optimizer, **overrides))
        report = run_command(args.command, problem)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    if args.trace_csv:
        try:
            _write_trace_csv(args.trace_csv, report)
        except OSError as exc:
            print(f"error: cannot write trace CSV: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
    if args.quiet:
        report = dict(report)
        report["trace"] = []
    report["timestamp"] = datetime.now(timezone.utc).isoformat()
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        print(f"numeric error: report holds a non-finite number ({exc})", file=sys.stderr)
        return EXIT_NUMERIC
    print(text)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
