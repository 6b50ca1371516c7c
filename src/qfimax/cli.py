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

COMMANDS = ("qfi-max", "qfi-max-general", "cfi-max", "sld", "qfi-eval",
            "cfi-eval", "bayes-check", "oracle")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


def _require(problem: ProblemFile, command: str, **needs):
    for name, present in needs.items():
        if not present:
            raise ValidationError(f"command '{command}' requires a '{name}' section in the problem file")


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


def _optimizer_report(command, problem, result):
    return {
        "command": command,
        "tool_version": __version__,
        "f_star": float(result.f_star),
        "psi_star": encode_array(result.psi_star.amplitudes),
        "iterations": len(result.trace),
        "converged": bool(result.converged),
        "warnings": list(result.warnings),
        "trace": _trace_rows(result),
        "config_echo": _config_echo(problem, command),
    }


def _value_report(command, problem, value, psi=None, details=None):
    report = {
        "command": command,
        "tool_version": __version__,
        "f_star": value,
        "psi_star": encode_array(psi.amplitudes) if psi is not None else None,
        "iterations": 0,
        "converged": True,
        "warnings": [],
        "trace": [],
        "config_echo": _config_echo(problem, command),
    }
    if details:
        report["details"] = details
    return report


def run_command(command: str, problem: ProblemFile) -> dict:
    """Dispatch one CLI command onto the library and build its report."""
    if command == "qfi-max":
        return _optimizer_report(command, problem,
                                 optimize(problem.channel, problem.generator, problem.optimizer))
    if command == "qfi-max-general":
        _require(problem, command, derivative_channel=problem.derivative_channel is not None)
        return _optimizer_report(
            command, problem,
            optimize_general(problem.channel, problem.derivative_channel, problem.optimizer))
    if command == "cfi-max":
        _require(problem, command, povm=problem.povm is not None)
        return _optimizer_report(
            command, problem,
            optimize_fixed_measurement(problem.channel, problem.generator,
                                       problem.povm, problem.optimizer))
    if command == "sld":
        _require(problem, command, input_state=problem.input_state is not None)
        rho = channel_apply(problem.channel, problem.input_state)
        res = sld(rho, problem.generator, problem.optimizer.eps_rank)
        value = qfi_from_sld(rho, res)
        details = {
            "L": encode_array(res.L.matrix),
            "rank": res.rank,
            "support_dim_deficit": res.support_dim_deficit,
            "residual": res.residual,
        }
        return _value_report(command, problem, value, problem.input_state, details)
    if command == "qfi-eval":
        _require(problem, command, input_state=problem.input_state is not None)
        rho = channel_apply(problem.channel, problem.input_state)
        value = qfi(rho, problem.generator, problem.optimizer.eps_rank)
        return _value_report(command, problem, value, problem.input_state)
    if command == "cfi-eval":
        _require(problem, command, povm=problem.povm is not None,
                 input_state=problem.input_state is not None)
        rho = channel_apply(problem.channel, problem.input_state)
        stats = outcome_statistics(rho, problem.generator, problem.povm)
        return _value_report(command, problem, classical_fi(stats), problem.input_state,
                             {"probs": list(stats.probs), "dprobs": list(stats.dprobs),
                              "labels": list(stats.labels)})
    if command == "bayes-check":
        _require(problem, command, povm=problem.povm is not None,
                 input_state=problem.input_state is not None)
        bayes = problem.bayes or BayesSpec()
        rho = channel_apply(problem.channel, problem.input_state)
        stats = outcome_statistics(rho, problem.generator, problem.povm)
        direct = classical_fi(stats)
        sweep = {}
        for delta in tuple(bayes.sweep) + (bayes.delta_prior,):
            prior = GaussianPrior(delta, bayes.grid_halfwidth, bayes.grid_points)
            model = model_from_quantum(problem.channel, problem.generator,
                                       problem.input_state, problem.povm, prior.grid())
            sweep[f"{delta:g}"] = bayes_gaussian_fi(model, prior)
        value = sweep[f"{bayes.delta_prior:g}"]
        return _value_report(command, problem, value, problem.input_state,
                             {"classical_fi": direct, "bayes_sweep": sweep})
    if command == "oracle":
        value, psi = brute_force_max_qfi(problem.channel, problem.generator,
                                         n_samples=2000, seed=problem.optimizer.seed)
        return _value_report(command, problem, value, psi)
    raise ValidationError(f"unknown command '{command}'")


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
        _write_trace_csv(args.trace_csv, report)
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
